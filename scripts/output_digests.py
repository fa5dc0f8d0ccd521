"""Print the exit code and the sha256 of stdout and stderr of every CLI output.

The argvs are every subcommand at its defaults, every flag a subcommand
honours (taken from tests/test_cli.py, with the value given there), and a
few grid and V-domain cases; each runs in CSV and in JSON, in process
through `lightningfit.cli.main`.  The top level and every subcommand also
run with --help, at COLUMNS=80 unless set, because argparse wraps help
to the terminal width.  Runner calls whose list arguments no flag can
express (the sizes the benchmark draws) run in process too, written in
both formats through `lightningfit.tables.write_table`.  Run it once per
source tree and diff:

    PYTHONPATH=path/to/tree/src python scripts/output_digests.py > a.txt

Two trees whose listings are equal print the same bytes for every output.
Every listed output is the same at 1 and 2 BLAS threads (see the README);
OPENBLAS_NUM_THREADS still defaults to 1 here, so that two listings are
compared at one thread count unless a thread count is the point.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("COLUMNS", "80")

EXTRA_ARGVS = (
    ("grid", "--sigma", "100"),
    ("grid", "--sigma", "1000"),
    ("grid", "--grid-points", "8"),
    ("fit", "--grid-points", "10"),
    ("fit", "--beta", "1.0"),
    ("vshape", "--grid-points", "1"),
    # the benchmark's largest V-domain fit, a 4000 x 77 system
    ("fit", "--target", "powerlog", "--n1", "64", "--alpha", "0.9", "--beta", "1.6"),
    # pins the validation pass's failure: exit 2, the approximant overflows
    # on the validation grid
    ("fit", "--grid-points", "60", "--n1", "4", "--n2", "59"),
    # pins which error a sweep names when its grid size and every spec are
    # invalid
    ("vshape", "--n1", "0", "--grid-points", "0"),
)

# experiments runner, keyword arguments
RUNNER_CALLS = (
    ("run_verify_bounds", {"nt_list": (400,), "vshape_nt_list": (400,)}),
    # interval floor rows whose gamma_int changes in its last bits if z/pi
    # is rounded as a numpy array division
    ("run_verify_bounds", {"nt_list": (23, 32, 65), "vshape_nt_list": (191,)}),
    # interval floor rows whose node sum changes in its last bits if
    # trap_eval's z/pi is rounded componentwise
    ("run_verify_bounds", {"nt_list": (34, 134, 254), "vshape_nt_list": (64,)}),
    ("run_pole_ladder", {"n_list": (144,)}),
    ("run_pole_ladder", {"n_list": (8,)}),
    ("run_corner_sigma", {"beta_list": (1.6,)}),
    ("run_grid", {"alpha": 0.9, "n1_list": (100,)}),
)


def _cli_tables():
    path = Path(__file__).resolve().parents[1] / "tests" / "test_cli.py"
    spec = importlib.util.spec_from_file_location("_test_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HONOURED, module.FLAG_VALUES


def argvs():
    """Every argv the listing runs: the tables in both formats, then help."""
    honoured, flag_values = _cli_tables()
    out = [(command,) for command in honoured]
    out += [(command, flag, flag_values[flag][0])
            for command, flags in honoured.items() for flag in flags]
    out = [(*argv, "--format", fmt) for argv in out + list(EXTRA_ARGVS)
           for fmt in ("csv", "json")]
    return out + [("--help",)] + [(command, "--help") for command in honoured]


def _captured(call):
    """(exit code, sha256 of stdout, sha256 of stderr) of call()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call()
    return (code, *(hashlib.sha256(s.getvalue().encode()).hexdigest()
                    for s in (out, err)))


def digest(argv):
    """The digests of one CLI call."""
    from lightningfit.cli import main  # numpy loads after the thread pin

    return _captured(lambda: main(list(argv)))


def runner_digest(name, kwargs, fmt):
    """The digests of one runner call's table, written in format fmt."""
    from lightningfit import experiments
    from lightningfit.tables import write_table

    def call():
        write_table(getattr(experiments, name)(**kwargs), fmt=fmt,
                    stream=sys.stdout)
        return 0

    return _captured(call)


def main() -> int:
    print(f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    for argv in argvs():
        code, out, err = digest(argv)
        print(code, out, err, " ".join(argv), flush=True)
    for name, kwargs in RUNNER_CALLS:
        args = ", ".join(f"{key}={value!r}" for key, value in kwargs.items())
        for fmt in ("csv", "json"):
            code, out, err = runner_digest(name, kwargs, fmt)
            print(code, out, err, f"{name}({args}) --format {fmt}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
