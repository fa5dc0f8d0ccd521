"""Command-line front end, built from one table.

_COMMANDS gives each subcommand its experiments runner and its help
line; _FLAGS names the flag for each runner keyword that has one.  A
subcommand's flags are its runner's parameters that have a flag, in
_FLAGS order, plus --format and --out.  Only the flags that were set are
passed, so the runner's signature holds the only defaults.  Exit codes:
0 success, 1 bad input (including usage errors and flags the subcommand
does not take), 2 numeric failure (including running out of memory).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys

from . import experiments
from .errors import InputError, NumericError
from .problems import TARGET_KINDS
from .tables import write_table
from .version import __version__

# runner keyword: (flag, argparse options)
_FLAGS = {
    "target": ("--target", {"choices": TARGET_KINDS,
                            "help": "target function family"}),
    "alpha": ("--alpha", {"type": float, "help": "exponent of the x^alpha target"}),
    "beta": ("--beta", {"type": float,
                        "help": "V-domain opening in [0,2); 0 is the unit interval"}),
    "n1": ("--n1", {"type": int, "help": "number of clustered poles"}),
    "n2": ("--n2", {"type": int, "help": "polynomial degree"}),
    "sigma": ("--sigma", {"type": float, "help": "clustering parameter"}),
    "scale": ("--scale-c", {"type": float, "help": "clustered-pole scale factor"}),
    "per_arm": ("--grid-points", {"type": int, "help": "fit-grid points per arm"}),
    "eps_rel": ("--tsvd-eps", {"type": float, "help": "relative singular-value cutoff"}),
}

# subcommand: (runner, help)
_COMMANDS = {
    "fit": (experiments.run_fit, "run a single least-squares fit and report its errors"),
    "converge": (experiments.run_convergence,
                 "degree sweep across pole/augmentation variants"),
    "sigma-sweep": (experiments.run_sigma_sweep,
                    "error vs clustering parameter on the interval"),
    "grid": (experiments.run_grid, "(N1, N2) error surface"),
    "vshape": (experiments.run_vshape, "sigma rules for sqrt(z) on V-domains"),
    "corner-sigma": (experiments.run_corner_sigma,
                     "optimal sigma for corner targets z^(1/beta)"),
    "pole-ladder": (experiments.run_pole_ladder,
                    "pole magnitudes from the density inversion"),
    "verify-bounds": (experiments.run_verify_bounds,
                      "quadrature-error identity and conjectured bounds"),
}


@functools.cache
def _build_parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lightningfit",
        description="rational approximation with preassigned clustered poles")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, descr) in _COMMANDS.items():
        p = sub.add_parser(name, help=descr, argument_default=argparse.SUPPRESS)
        params = inspect.signature(runner).parameters
        for keyword, (flag, options) in _FLAGS.items():
            if keyword in params:
                p.add_argument(flag, dest=keyword, **options)
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table serialization format")
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    try:
        kwargs = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage problems; usage problems are input errors
        return 0 if exc.code in (0, None) else 1
    runner = _COMMANDS[kwargs.pop("command")][0]
    fmt, out = kwargs.pop("format"), kwargs.pop("out")
    try:
        write_table(runner(**kwargs), fmt=fmt, path=out,
                    stream=sys.stdout if out is None else None)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("numeric failure: out of memory", *exc.args, sep=": ", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
