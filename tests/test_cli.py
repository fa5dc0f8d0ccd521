"""Command-line interface: subcommands, flags, formats, exit codes."""

import contextlib
import functools
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightningfit
from lightningfit import ResultTable, cli, parse_csv_table
from lightningfit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_csv_stdout(capsys):
    code, out, err = run_cli(capsys, "fit", "--n1", "12", "--n2", "4")
    assert code == 0
    table = parse_csv_table(out)
    assert table.columns[:6] == ("target", "alpha", "beta", "n1", "n2", "sigma")
    row = dict(zip(table.columns, table.rows[0]))
    assert row["n1"] == 12 and row["n2"] == 4
    assert 0 < row["max_err"] < 1e-3


def test_fit_json_format(capsys):
    code, out, _ = run_cli(capsys, "fit", "--n1", "8", "--n2", "2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["kind"] == "fit"
    assert doc["metadata"]["config"]["n_clustered"] == 8
    # every flag set: the echo is the runner's values, an int --decades as a float
    code, out, _ = run_cli(capsys, "fit", "--target", "power", "--alpha", "0.3",
                           "--beta", "0.5", "--n1", "12", "--n2", "3", "--sigma", "5",
                           "--scale-c", "1.5", "--grid-points", "400",
                           "--decades", "12", "--tsvd-eps", "1e-12", "--format", "json")
    assert code == 0
    assert json.loads(out)["metadata"]["config"] == {
        "alpha": 0.3, "beta": 0.5, "decades": 12.0, "eps_rel": 1e-12,
        "grid_per_arm": 400, "n_clustered": 12, "n_extra": 0,
        "pole_scheme": "tapered", "poly_degree": 3, "scale_c": 1.5, "sigma": 5.0,
        "target": "power", "total_degree": 15}


def test_fit_defaults_follow_rules(capsys):
    # n2 defaults to ceil(1.3 sqrt(n1)) = 9, sigma to 2 sqrt(2) pi
    code, out, _ = run_cli(capsys, "fit", "--n1", "49", "--grid-points", "500")
    assert code == 0
    table = parse_csv_table(out)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["n2"] == 10  # ceil(1.3 * 7)
    assert row["sigma"] == pytest.approx(8.885765876316732, rel=1e-12)


def test_fit_powerlog_target(capsys):
    code, out, _ = run_cli(capsys, "fit", "--target", "powerlog", "--alpha", "1.0",
                           "--n1", "10", "--n2", "4", "--grid-points", "400")
    assert code == 0
    row = dict(zip(parse_csv_table(out).columns, parse_csv_table(out).rows[0]))
    assert row["target"] == "powerlog"
    assert row["max_err"] < 1e-2


def test_fit_writes_file(tmp_path, capsys):
    out_path = tmp_path / "fit.csv"
    code, out, _ = run_cli(capsys, "fit", "--n1", "8", "--n2", "2",
                           "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert parse_csv_table(out_path.read_text()).rows


def test_input_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "fit", "--beta", "3.0")
    assert code == 1
    assert "input error" in err
    code, _, err = run_cli(capsys, "fit", "--n1", "-3")
    assert code == 1
    assert "input error" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_beta_minus_zero_is_beta_zero(capsys, fmt):
    args = ("--n1", "8", "--n2", "2", "--grid-points", "200", "--format", fmt)
    minus = run_cli(capsys, "fit", "--beta", "-0", *args)
    plus = run_cli(capsys, "fit", "--beta", "0", *args)
    assert minus == plus
    assert minus[0] == 0 and "-0.0" not in minus[1]


def test_usage_error_exit_1(capsys):
    assert run_cli(capsys, "nosuchcmd")[0] == 1
    assert run_cli(capsys, "fit", "--format", "xml")[0] == 1
    assert run_cli(capsys)[0] == 1  # missing subcommand


def test_help_and_version_exit_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "--version")[0] == 0
    assert run_cli(capsys, "fit", "--help")[0] == 0


def test_numeric_failure_exit_2(capsys):
    # a degree-59 polynomial on 60 points overflows between them
    code, _, err = run_cli(capsys, "fit", "--n1", "4", "--n2", "59",
                           "--grid-points", "60")
    assert code == 2
    assert "numeric failure" in err


def test_linalg_error_is_numeric_failure(monkeypatch, capsys):
    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd)
    spec = lightningfit.BasisSpec(lightningfit.tapered_poles(6, 8.0), poly_degree=2)
    grid = lightningfit.build_fit_grid(lightningfit.Domain.unit_interval())
    with pytest.raises(lightningfit.NumericError, match="SVD did not converge"):
        lightningfit.fit(lightningfit.Target.sqrt(), spec, grid, grid)
    code, out, err = run_cli(capsys, "fit")
    assert code == 2
    assert out == ""
    assert err.count("numeric failure:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("args, line", [
    ((), "numeric failure: out of memory\n"),
    (("Unable to allocate 8.00 GiB",),
     "numeric failure: out of memory: Unable to allocate 8.00 GiB\n")])
def test_memory_error_is_numeric_failure(monkeypatch, capsys, args, line):
    @functools.wraps(cli._COMMANDS["fit"][0])  # the parser reads its signature
    def runner(**kwargs):
        raise MemoryError(*args)

    monkeypatch.setitem(cli._COMMANDS, "fit", (runner, *cli._COMMANDS["fit"][1:]))
    code, out, err = run_cli(capsys, "fit")
    assert code == 2
    assert out == ""
    assert err == line


def test_tsvd_eps_nan_is_input_error(capsys):
    code, out, err = run_cli(capsys, "fit", "--n1", "6", "--n2", "2",
                             "--grid-points", "100", "--tsvd-eps", "nan")
    assert code == 1
    assert out == ""
    assert "input error" in err and "eps_rel" in err


@pytest.mark.parametrize("command", ["converge", "sigma-sweep", "grid", "vshape",
                                     "corner-sigma"])
@pytest.mark.parametrize("eps", ["0", "-1", "nan"])
def test_sweep_tsvd_eps_not_positive_exit_1(capsys, command, eps):
    # checked once before any fit, not turned into a status on every row
    code, out, err = run_cli(capsys, command, "--tsvd-eps", eps)
    assert code == 1
    assert out == ""
    assert err.count("input error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sigma-sweep", "--grid-points", "60", "--n1", "4", "--n2", "59"),
    ("corner-sigma", "--grid-points", "30", "--n1", "4", "--n2", "59"),
    ("sigma-sweep", "--grid-points", "3", "--n1", "4"),
])
def test_sweep_with_every_fit_failed_exit_2(capsys, argv):
    # no finite error to take the argmin sigma of: the degree-59 family
    # overflows between its 60 rows on either domain
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("numeric failure:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("converge", "--scale-c", "-1"),
    ("converge", "--scale-c", "nan"),
    ("vshape", "--n1", "0"),
    ("vshape", "--n2", "-3"),
    ("corner-sigma", "--n1", "0"),
    ("sigma-sweep", "--scale-c", "-1"),
    ("sigma-sweep", "--n1", "0"),
    ("sigma-sweep", "--n2", "-3"),
    ("grid", "--alpha", "0"),
    ("grid", "--alpha", "-1"),
])
def test_bad_sweep_arguments_exit_1(capsys, argv):
    # rejected before any fit runs, not turned into rows of nan
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("input error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("fit", "--sigma", "inf"),
    ("fit", "--sigma", "1e308"),
    ("grid", "--sigma", "inf"),
])
def test_sigma_beyond_float_range_exit_1(capsys, argv):
    # inf is refused, and 1e308 overflows the ladder's exponent so that the
    # poles underflow to -0.0: one input error line, no numpy warning
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_polynomial_degree_beyond_grid_fails_loudly(capsys):
    # 60 points carry degree 59 only in exact arithmetic: validation overflows
    code, out, err = run_cli(capsys, "fit", "--grid-points", "60", "--n1", "4",
                             "--n2", "59")
    assert code == 2
    assert "numeric failure" in err
    assert "nan" not in (out + err).lower()
    code, _, err = run_cli(capsys, "fit", "--grid-points", "60", "--n1", "4",
                           "--n2", "60")
    assert code == 1
    assert "input error" in err


@pytest.mark.parametrize("decades", ["400", "320"])
def test_decades_beyond_float_range_exit_1(capsys, decades):
    # 10**-decades underflows: the grid's smallest radii would all be zero
    code, out, err = run_cli(capsys, "fit", "--decades", decades,
                             "--grid-points", "100")
    assert code == 1
    assert out == ""
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("decades", ["1e-16", "1e-300"])
def test_decades_too_few_for_distinct_radii_exit_1(capsys, decades):
    # 2000 radii over 1e-16 decades round to 3 distinct values, over 1e-300 to 1
    code, out, err = run_cli(capsys, "fit", "--decades", decades)
    assert code == 1
    assert out == ""
    assert err.count("input error:") == 1 and "Traceback" not in err


def test_fit_sqrt_rejects_other_alpha(capsys):
    code, out, err = run_cli(capsys, "fit", "--alpha", "0.3")
    assert code == 1
    assert out == ""
    assert err.count("input error:") == 1 and "Traceback" not in err
    assert run_cli(capsys, "fit", "--target", "sqrt", "--alpha", "0.5") == \
        run_cli(capsys, "fit")


def test_grid_with_some_unbuildable_pole_sets_exits_0(capsys):
    # sigma = 100 underflows the poles of n1 = 81 and 100 only, 1000 those of every n1
    code, out, err = run_cli(capsys, "grid", "--sigma", "100")
    assert code == 0 and err == ""
    statuses = parse_csv_table(out).column("status")
    assert sum(bool(s) for s in statuses) == 32
    code, out, err = run_cli(capsys, "grid", "--sigma", "1000")
    assert code == 1 and out == ""
    assert err.count("input error:") == 1 and "Traceback" not in err


def _reject_constant(token):
    raise ValueError(f"invalid JSON constant {token}")


def test_json_writes_failed_rows_as_null(capsys):
    # 8 points carry polynomial degrees 0..7 only: degrees 8..15 fail per row
    code, out, _ = run_cli(capsys, "grid", "--grid-points", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    failed = [row for row in doc["rows"] if row[2] is None]
    assert len(failed) == 9 * 8
    assert all(n2 >= 8 and status for _, n2, _, status in failed)


def test_sigma_sweep_smoke(capsys):
    code, out, _ = run_cli(capsys, "sigma-sweep", "--n1", "4", "--n2", "2",
                           "--grid-points", "200", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["kind"] == "sigma-sweep"
    assert doc["metadata"]["alpha"] == pytest.approx(0.3141592653589793)
    assert "argmin_sigma_poly" in doc["metadata"]
    assert len(doc["rows"]) == 2 * 41


def test_verify_bounds_table(capsys):
    code, out, _ = run_cli(capsys, "verify-bounds")
    assert code == 0
    table = parse_csv_table(out)
    assert "identity_pass" in table.columns
    assert all(v == 1 for v in table.column("identity_pass"))
    assert all(v == 1 for v in table.column("conj_pass"))


def test_pole_ladder_table(capsys):
    code, out, _ = run_cli(capsys, "pole-ladder")
    assert code == 0
    table = parse_csv_table(out)
    assert set(table.column("n")) == {16, 36, 64}
    assert len(table) == 16 + 36 + 64


def test_determinism_across_invocations(capsys):
    _, out1, _ = run_cli(capsys, "fit", "--n1", "10", "--n2", "3",
                         "--grid-points", "300")
    _, out2, _ = run_cli(capsys, "fit", "--n1", "10", "--n2", "3",
                         "--grid-points", "300")
    assert out1 == out2


def _fresh_env():
    """Environment for a fresh interpreter that imports this checkout."""
    src = str(Path(lightningfit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=src if not path else src + os.pathsep + path)


@pytest.mark.parametrize("command",
                         ["fit", "pole-ladder", "verify-bounds", "sigma-sweep",
                          "grid", "vshape", "converge"])
def test_output_byte_identical_across_processes(command):
    """Two fresh interpreters at one BLAS thread print the same bytes."""
    outs = [subprocess.run([sys.executable, "-m", "lightningfit.cli", command],
                           env=_fresh_env(), capture_output=True,
                           check=True).stdout
            for _ in range(2)]
    assert outs[0] and outs[0] == outs[1]


def test_verify_bounds_byte_identical_across_blas_threads():
    """The oracle quadrature sums without BLAS, so the thread count is moot;
    `grid`, the tables that print resid_2norm, `fit` and `converge`, and
    the V-domain fits, `fit --beta`, `vshape` and `corner-sigma`, print
    the same bytes at 1 and 2 BLAS threads too, as the README says."""
    argvs = (['verify-bounds'], ['grid'], ['fit'], ['converge'],
             ['fit', '--beta', '1.0'], ['fit', '--beta', '0.5'], ['vshape'],
             ['corner-sigma'])
    code = ("from lightningfit.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    print(main(argv))\n")
    outs = [subprocess.run([sys.executable, "-c", code],
                           env=dict(_fresh_env(), OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, check=True).stdout
            for threads in ("1", "2")]
    assert outs[0].count(b"\n0\n") == len(argvs) and outs[0] == outs[1]


def test_parser_built_once_serves_every_call(capsys):
    """One process runs fit, a grid, a usage error and fit again on one
    parser, and prints what a fresh process prints for each."""
    argvs = [["fit"], ["grid", "--grid-points", "8"], ["grid", "--n1", "5"], ["fit"]]
    cli._build_parser.cache_clear()
    in_process = [run_cli(capsys, *argv)[:2] for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    procs = {argv: subprocess.Popen([sys.executable, "-m", "lightningfit.cli", *argv],
                                    env=_fresh_env(), stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True)
             for argv in map(tuple, argvs)}
    fresh = {argv: (proc.communicate(timeout=60)[0], proc.returncode)
             for argv, proc in procs.items()}
    assert in_process == [fresh[tuple(argv)][::-1] for argv in argvs]
    assert [code for code, _ in in_process] == [0, 0, 1, 0]


def test_package_and_pole_ladder_import_no_scipy():
    """The package, its CLI and the density inversion run on numpy alone."""
    code = ("import io, sys, contextlib\n"
            "import lightningfit, lightningfit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = lightningfit.cli.main(['pole-ladder'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 []\n"


# the flags each subcommand accepts, and the runner keyword each one sets
HONOURED = {
    "fit": {"--target": "target", "--alpha": "alpha", "--beta": "beta",
            "--n1": "n1", "--n2": "n2", "--sigma": "sigma", "--scale-c": "scale",
            "--grid-points": "per_arm", "--decades": "decades",
            "--tsvd-eps": "eps_rel"},
    "converge": {"--scale-c": "scale", "--grid-points": "per_arm",
                 "--decades": "decades", "--tsvd-eps": "eps_rel"},
    "sigma-sweep": {"--alpha": "alpha", "--n1": "n1", "--n2": "poly_degree",
                    "--scale-c": "scale", "--grid-points": "per_arm",
                    "--tsvd-eps": "eps_rel"},
    "grid": {"--alpha": "alpha", "--sigma": "sigma", "--grid-points": "per_arm",
             "--tsvd-eps": "eps_rel"},
    "vshape": {"--n1": "n1", "--n2": "n2", "--grid-points": "per_arm",
               "--tsvd-eps": "eps_rel"},
    "corner-sigma": {"--n1": "n1", "--n2": "n2", "--grid-points": "per_arm",
                     "--tsvd-eps": "eps_rel"},
    "pole-ladder": {},
    "verify-bounds": {},
}

# flag: (argv text, the value the runner must receive)
FLAG_VALUES = {
    "--target": ("power", "power"), "--alpha": ("0.3", 0.3),
    "--beta": ("0.5", 0.5), "--n1": ("7", 7), "--n2": ("5", 5),
    "--sigma": ("4.5", 4.5), "--scale-c": ("1.5", 1.5),
    "--grid-points": ("300", 300), "--decades": ("12", 12.0),
    "--tsvd-eps": ("1e-12", 1e-12),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in HONOURED.items()
    for flag in FLAG_VALUES if flag not in flags])
def test_flag_a_subcommand_ignores_is_usage_error(capsys, command, flag):
    # e.g. grid --target sqrt, pole-ladder --n1 5, verify-bounds --tsvd-eps 99
    code, out, err = run_cli(capsys, command, flag, FLAG_VALUES[flag][0])
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in HONOURED.items()
    for flag in (None, *flags)])
def test_flag_reaches_runner_keyword(monkeypatch, capsys, command, flag):
    runner, *rest = cli._COMMANDS[command]
    calls = []

    @functools.wraps(runner)  # the parser reads the runner's signature
    def recorder(**kwargs):
        calls.append(kwargs)
        return ResultTable(columns=("x",), rows=[(1,)])

    monkeypatch.setitem(cli._COMMANDS, command, (recorder, *rest))
    argv = [command] if flag is None else [command, flag, FLAG_VALUES[flag][0]]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("x\n")
    # only the flag that was set is passed, under a keyword the runner takes
    expected = {} if flag is None else {HONOURED[command][flag]: FLAG_VALUES[flag][1]}
    assert calls == [expected]
    assert set(expected) <= set(inspect.signature(runner).parameters)


@pytest.mark.parametrize("command", [c for c, flags in HONOURED.items()
                                     if "--tsvd-eps" in flags])
@pytest.mark.parametrize("eps", ["inf", "1e308", "2"])
def test_tsvd_eps_above_one_exit_1(capsys, command, eps):
    # a cutoff above 1 keeps no singular value: refused before any fit,
    # with no numpy warning on the way
    code, out, err = run_cli(capsys, command, "--tsvd-eps", eps)
    assert code == 1
    assert out == ""
    assert err == f"input error: eps_rel must lie in (0, 1], got {float(eps)}\n"


_NOT_A_NUMBER = st.sampled_from(["nan", "inf", "-inf", "", "abc", "1e", "0x10"])
_NOT_POSITIVE = st.floats(max_value=0.0).map(repr) | _NOT_A_NUMBER
_NOT_A_COUNT = st.integers(max_value=0).map(str) | _NOT_A_NUMBER | st.just("2.5")

# flag: values it refuses, whatever the subcommand and the other flags'
# defaults; every text is passed as --flag=text, so that argparse reads
# "-1" or "-inf" as the flag's value
INVALID = {
    "--target": st.text(max_size=8).filter(lambda t: t not in ("sqrt", "power",
                                                               "powerlog")),
    # an integer power is no singular target, and sqrt fixes alpha = 1/2
    "--alpha": _NOT_POSITIVE | st.integers(1, 5).map(repr),
    "--beta": st.floats(max_value=-5e-324).map(repr)
              | st.floats(min_value=2.0).map(repr) | _NOT_A_NUMBER,
    "--n1": _NOT_A_COUNT,
    "--n2": st.integers(max_value=-2).map(str) | _NOT_A_NUMBER | st.just("2.5"),
    # past 1e300 every tapered pole underflows to -0.0
    "--sigma": _NOT_POSITIVE | st.floats(min_value=1e300).map(repr),
    "--scale-c": _NOT_POSITIVE,
    "--grid-points": _NOT_A_COUNT,
    "--decades": _NOT_POSITIVE | st.floats(min_value=308.0).map(repr),
    "--tsvd-eps": _NOT_POSITIVE | st.floats(min_value=1.0, exclude_min=True).map(repr),
    "--format": st.text(max_size=8).filter(lambda t: t not in ("csv", "json")),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_invalid_flag_value_exits_1(data):
    """One invalid value for one flag, the others at their defaults: exit
    1, nothing on stdout, no traceback and no numpy warning."""
    command, flag = data.draw(st.sampled_from([
        (command, flag) for command, flags in HONOURED.items()
        for flag in (*flags, "--format")]))
    value = data.draw(INVALID[flag])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, f"{flag}={value}"])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() and "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
