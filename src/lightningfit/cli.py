"""Command-line front end.

Every subcommand is a thin wrapper over one experiments pipeline (or one
fit) that serializes a ResultTable.  Exit codes: 0 success, 1 bad input
(including usage errors), 2 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import experiments
from .errors import InputError, NumericError
from .fitting import BasisSpec, fit
from .poles import tapered_poles
from .problems import ApproxProblem, Domain, Target, build_fit_grid
from .tables import ResultTable, write_table
from .version import __version__


def _add_common(parser):
    parser.add_argument("--target", choices=("sqrt", "power", "powerlog"),
                        default="sqrt", help="target function family")
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="exponent for power/powerlog targets")
    parser.add_argument("--beta", type=float, default=0.0,
                        help="V-domain opening in [0,2); 0 is the unit interval")
    parser.add_argument("--n1", type=int, default=40,
                        help="number of clustered poles")
    parser.add_argument("--n2", type=int, default=None,
                        help="polynomial degree (default: ceil(1.3 sqrt(n1)))")
    parser.add_argument("--sigma", type=float, default=None,
                        help="clustering parameter (default: 2 sqrt(2-beta) pi)")
    parser.add_argument("--scale-c", type=float, default=1.0, dest="scale_c",
                        help="clustered-pole scale factor")
    parser.add_argument("--grid-points", type=int, default=2000,
                        dest="grid_points", help="fit-grid points per arm")
    parser.add_argument("--decades", type=float, default=16.0,
                        help="radial decades the grids span")
    parser.add_argument("--tsvd-eps", type=float, default=2e-14, dest="tsvd_eps",
                        help="relative singular-value cutoff")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table serialization format")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lightningfit",
        description="rational approximation with preassigned clustered poles")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # per-subcommand defaults where the shared flag defaults do not fit
    for name, descr, overrides in (
        ("fit", "run a single least-squares fit and report its errors", {}),
        ("converge", "degree sweep across pole/augmentation variants",
         {"scale_c": 2.0}),
        ("sigma-sweep", "error vs clustering parameter on the interval",
         {"target": "power", "alpha": math.pi / 10, "n1": 10, "n2": 3}),
        ("grid", "(N1, N2) error surface",
         {"target": "power", "alpha": math.pi / 10}),
        ("vshape", "sigma rules for sqrt(z) on V-domains", {"n2": 10}),
        ("corner-sigma", "optimal sigma for corner targets z^(1/beta)",
         {"n1": 20, "n2": 20}),
        ("pole-ladder", "pole magnitudes from the density inversion", {}),
        ("verify-bounds", "quadrature-error identity and conjectured bounds", {}),
    ):
        p = sub.add_parser(name, help=descr)
        _add_common(p)
        if overrides:
            p.set_defaults(**overrides)
    return parser


def _make_target(args) -> Target:
    if args.target == "sqrt":
        return Target.sqrt()
    if args.target == "power":
        return Target.power(args.alpha)
    return Target.power_log(args.alpha)


def _cmd_fit(args) -> ResultTable:
    domain = Domain(args.beta)
    target = _make_target(args)
    n2 = args.n2 if args.n2 is not None else experiments.poly_degree_rule(args.n1)
    sigma = args.sigma if args.sigma is not None \
        else 2.0 * math.sqrt(2.0 - args.beta) * math.pi
    spec = BasisSpec(clustered=tapered_poles(args.n1, sigma, args.scale_c),
                     poly_degree=n2)
    grid = build_fit_grid(domain, decades=args.decades, per_arm=args.grid_points)
    _, rep = fit(ApproxProblem(target, domain), spec, grid=grid,
                 eps_rel=args.tsvd_eps)
    row = (args.target, target.alpha, args.beta, args.n1, n2, sigma,
           args.scale_c, rep.max_err, rep.coeff_2norm, rep.resid_2norm,
           rep.eff_rank)
    return ResultTable(
        columns=("target", "alpha", "beta", "n1", "n2", "sigma", "scale_c",
                 "max_err", "coeff_2norm", "resid_2norm", "eff_rank"),
        rows=[row], meta={"kind": "fit", "config": rep.config})


def _cmd_converge(args) -> ResultTable:
    return experiments.run_convergence(
        scale=args.scale_c, eps_rel=args.tsvd_eps, per_arm=args.grid_points,
        decades=args.decades)


def _cmd_sigma_sweep(args) -> ResultTable:
    return experiments.run_sigma_sweep(
        alpha=args.alpha, n1=args.n1, poly_degree=args.n2,
        scale=args.scale_c, eps_rel=args.tsvd_eps, per_arm=args.grid_points)


def _cmd_grid(args) -> ResultTable:
    return experiments.run_grid(alpha=args.alpha, sigma=args.sigma,
                                eps_rel=args.tsvd_eps,
                                per_arm=args.grid_points)


def _cmd_vshape(args) -> ResultTable:
    return experiments.run_vshape(n1=args.n1, n2=args.n2,
                                  eps_rel=args.tsvd_eps,
                                  per_arm=args.grid_points)


def _cmd_corner_sigma(args) -> ResultTable:
    return experiments.run_corner_sigma(n1=args.n1, n2=args.n2,
                                        eps_rel=args.tsvd_eps,
                                        per_arm=args.grid_points)


def _cmd_pole_ladder(args) -> ResultTable:
    return experiments.run_pole_ladder()


def _cmd_verify_bounds(args) -> ResultTable:
    return experiments.run_verify_bounds()


_COMMANDS = {
    "fit": _cmd_fit,
    "converge": _cmd_converge,
    "sigma-sweep": _cmd_sigma_sweep,
    "grid": _cmd_grid,
    "vshape": _cmd_vshape,
    "corner-sigma": _cmd_corner_sigma,
    "pole-ladder": _cmd_pole_ladder,
    "verify-bounds": _cmd_verify_bounds,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; usage problems are input errors
        return 0 if exc.code in (0, None) else 1
    try:
        table = _COMMANDS[args.command](args)
        if args.out is None:
            write_table(table, fmt=args.format, stream=sys.stdout)
        else:
            write_table(table, fmt=args.format, path=args.out)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
