"""Command-line interface: subcommands, flags, formats, exit codes."""

import ast
import collections
import contextlib
import csv
import functools
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightningfit
from lightningfit import ResultTable, TrapApproximant, cli, quadrature, validity_floor
from lightningfit.cli import main
from lightningfit.errors import MAX_ENTRIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    """The rows of CSV output, each a dict of its cells' text by column."""
    return list(csv.DictReader(io.StringIO(text)))


def test_fit_csv_stdout(capsys):
    code, out, err = run_cli(capsys, "fit", "--n1", "12", "--n2", "4")
    assert code == 0
    assert out.splitlines()[0].split(",")[:6] == ["target", "alpha", "beta", "n1",
                                                 "n2", "sigma"]
    row, = csv_rows(out)
    assert row["n1"] == "12" and row["n2"] == "4"
    assert 0 < float(row["max_err"]) < 1e-3


def test_fit_json_format(capsys):
    code, out, _ = run_cli(capsys, "fit", "--n1", "8", "--n2", "2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["kind"] == "fit"
    assert doc["metadata"]["config"]["n_clustered"] == 8
    # every flag set: the echo is the runner's values, and the grid depth
    code, out, _ = run_cli(capsys, "fit", "--target", "power", "--alpha", "0.3",
                           "--beta", "0.5", "--n1", "12", "--n2", "3", "--sigma", "5",
                           "--scale-c", "1.5", "--grid-points", "400",
                           "--tsvd-eps", "1e-12", "--format", "json")
    assert code == 0
    assert json.loads(out)["metadata"]["config"] == {
        "alpha": 0.3, "beta": 0.5, "decades": 16.0, "eps_rel": 1e-12,
        "grid_per_arm": 400, "n_clustered": 12, "n_extra": 0,
        "pole_scheme": "tapered", "poly_degree": 3, "scale_c": 1.5, "sigma": 5.0,
        "target": "power", "total_degree": 15}


def test_fit_defaults_follow_rules(capsys):
    # n2 defaults to ceil(1.3 sqrt(n1)) = 9, sigma to 2 sqrt(2) pi
    code, out, _ = run_cli(capsys, "fit", "--n1", "49", "--grid-points", "500")
    assert code == 0
    row, = csv_rows(out)
    assert row["n2"] == "10"  # ceil(1.3 * 7)
    assert float(row["sigma"]) == pytest.approx(8.885765876316732, rel=1e-12)


def test_fit_powerlog_target(capsys):
    code, out, _ = run_cli(capsys, "fit", "--target", "powerlog", "--alpha", "1.0",
                           "--n1", "10", "--n2", "4", "--grid-points", "400")
    assert code == 0
    row, = csv_rows(out)
    assert row["target"] == "powerlog"
    assert float(row["max_err"]) < 1e-2


def test_fit_writes_file(tmp_path, capsys):
    out_path = tmp_path / "fit.csv"
    code, out, _ = run_cli(capsys, "fit", "--n1", "8", "--n2", "2",
                           "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert csv_rows(out_path.read_text())


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
    with pytest.raises(lightningfit.NumericError, match="SVD did not converge"):
        lightningfit.fit(lightningfit.Target("sqrt"), spec, lightningfit.Domain())
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


@pytest.mark.parametrize("argv", [
    # at the default sigma the smallest of 200000 poles underflows first
    ("fit", "--n1", "200000", "--sigma", "1"),
    ("fit", "--grid-points", "1000000000"),
])
def test_array_above_the_cap_exits_1_before_allocating(argv):
    """An array above the cap is refused from its size: the traced peak
    stays far below the bytes it would have taken."""
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out.getvalue()) == (1, "")
    entries = int(re.search(r"needs (\d+) float64 entries, above the cap of "
                            f"{MAX_ENTRIES}\n$", err.getvalue()).group(1))
    assert entries > MAX_ENTRIES and peak < 8 * entries / 100


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
    assert sum(bool(row["status"]) for row in csv_rows(out)) == 32
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
    rows = csv_rows(out)
    assert "identity_pass" in rows[0]
    assert all(row["identity_pass"] == row["conj_pass"] == "1" for row in rows)


def test_verify_bounds_over_the_evaluation_budget_exit_2(capsys, monkeypatch):
    """The nt = 16 floor row alone needs 2,130 evaluations, every other
    default row fewer: one fewer is a one-line numeric failure naming it."""
    monkeypatch.setattr(quadrature, "MAX_EVALS", 2_129)
    code, out, err = run_cli(capsys, "verify-bounds")
    floor = validity_floor(TrapApproximant(16))
    assert (code, out) == (2, "")
    assert err == (f"numeric failure: quadrature of the rectangle of nt=16, beta=0, "
                   f"radius={floor:.6g} failed to reach tol=1.2e-12 within 2129 "
                   f"evaluations\n")


def test_pole_ladder_table(capsys):
    code, out, _ = run_cli(capsys, "pole-ladder")
    assert code == 0
    rows = csv_rows(out)
    assert {row["n"] for row in rows} == {"16", "36", "64"}
    assert len(rows) == 16 + 36 + 64


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
            "--grid-points": "per_arm", "--tsvd-eps": "eps_rel"},
    "converge": {"--scale-c": "scale", "--grid-points": "per_arm",
                 "--tsvd-eps": "eps_rel"},
    "sigma-sweep": {"--alpha": "alpha", "--n1": "n1", "--n2": "n2",
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
    "--grid-points": ("300", 300), "--tsvd-eps": ("1e-12", 1e-12),
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


@pytest.mark.parametrize("command", HONOURED)
def test_grid_depth_is_no_flag(capsys, command):
    # every grid spans problems.DECADES; no subcommand sets the depth
    code, out, err = run_cli(capsys, command, "--decades", "30")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --decades 30" in err and "Traceback" not in err


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


def _output_digests():
    """scripts/output_digests.py as a module, with the environment it
    pins (the BLAS thread count, the terminal width) restored after."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("_output_digests", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_every_runner_parameter_has_a_caller():
    """Each parameter of a subcommand's runner is set by a flag or by a
    runner call of the output listing, never by tests alone; and the
    listing loads, this file's tables included."""
    digests = _output_digests()
    called = collections.defaultdict(set)
    for name, kwargs in digests.RUNNER_CALLS:
        called[name] |= set(kwargs)
    for command, (runner, _) in cli._COMMANDS.items():
        params = set(inspect.signature(runner).parameters)
        assert params - set(cli._FLAGS) - called[runner.__name__] == set(), command
    assert ("sigma-sweep", "--n2", FLAG_VALUES["--n2"][0], "--format", "csv") \
        in digests.argvs()


def _package_calls(roots):
    """(positions, keywords) by callee name over every call in the .py
    files under roots: the most arguments passed by position and the
    keywords passed.  A name used as a value, or a call with *args or
    **kwargs, passes every parameter by position (positions inf)."""
    positions, keywords = collections.defaultdict(int), collections.defaultdict(set)
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            callees = {id(node.func) for node in ast.walk(tree)
                       if isinstance(node, ast.Call)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    spread = any(isinstance(a, ast.Starred) for a in node.args) \
                        or any(k.arg is None for k in node.keywords)
                    positions[name] = max(positions[name],
                                          math.inf if spread else len(node.args))
                    keywords[name] |= {k.arg for k in node.keywords}
                elif isinstance(node, (ast.Name, ast.Attribute)) \
                        and isinstance(node.ctx, ast.Load) and id(node) not in callees:
                    positions[getattr(node, "attr", getattr(node, "id", None))] = math.inf
    return positions, keywords


def _uncalled_defaults(roots):
    """The defaulted parameters, as "function.parameter", of the functions
    the package exports that no call under roots passes."""
    positions, keywords = _package_calls(roots)
    return sorted(
        f"{name}.{param.name}" for name, func in vars(lightningfit).items()
        if inspect.isfunction(func)
        for k, param in enumerate(inspect.signature(func).parameters.values())
        if param.default is not param.empty and k >= positions[name]
        and param.name not in keywords[name])


def test_every_package_parameter_has_a_caller():
    """Each defaulted parameter of an exported function is passed by some
    call in the package, the scripts or the benchmark, never by tests
    alone: a default every caller keeps is a constant."""
    root = Path(__file__).resolve().parents[1]
    assert _uncalled_defaults([root / "src", root / "scripts", root / "bench"]) == []


def test_the_package_guard_sees_an_uncalled_default(tmp_path):
    (tmp_path / "calls.py").write_text(
        "tapered_poles(8, 2.0)\nfit(t, s, d, n, eps_rel=e)\nf = fit_nested\n"
        "evaluate(a, *points)\n")
    uncalled = _uncalled_defaults([tmp_path])
    assert "tapered_poles.scale" in uncalled
    assert not {"fit.per_arm", "fit.eps_rel", "fit_nested.per_arm",
                "fit_nested.eps_rel"} & set(uncalled)


def _referenced_names(roots):
    """Every name a .py file under roots loads, as a variable or an
    attribute, or spells as a string that is not a docstring (getattr)."""
    names = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                          if isinstance(node, (ast.Module, ast.ClassDef,
                                               ast.FunctionDef, ast.AsyncFunctionDef))
                          and node.body and isinstance(node.body[0], ast.Expr)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Name, ast.Attribute)) \
                        and isinstance(node.ctx, ast.Load):
                    names.add(getattr(node, "id", getattr(node, "attr", None)))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and id(node) not in docstrings:
                    names.add(node.value)
    return names


# exports only the acceptance battery and the tests call
BATTERY_ONLY = {"trap_partial_fractions", "large_pole_tail", "trap_error_bound",
                "density_leading", "density_correction", "large_pole_estimate"}


def test_every_export_is_referenced():
    """Each name the package exports is used in the package, the scripts
    or the benchmark, never by tests alone: an export nothing uses is
    dead code or a test helper."""
    root = Path(__file__).resolve().parents[1]
    referenced = _referenced_names([root / "src", root / "scripts", root / "bench"])
    exports = {name for name, value in vars(lightningfit).items()
               if not name.startswith("_") and not inspect.ismodule(value)}
    assert exports - referenced == BATTERY_ONLY


def test_the_export_guard_skips_docstrings(tmp_path):
    (tmp_path / "uses.py").write_text(
        '"""fit_nested"""\ndef f():\n    """tapered_poles"""\n    return fit(t)\n'
        'getattr(fitting, "max_error")\nx = lightningfit.evaluate\n')
    assert _referenced_names([tmp_path]) >= {"fit", "max_error", "evaluate"}
    assert not {"fit_nested", "tapered_poles"} & _referenced_names([tmp_path])


def _users(roots, name):
    """The .py files under roots that load name, as a variable or an
    attribute: that call it or pass it on."""
    return sorted(
        path.name for root in roots for path in sorted(root.rglob("*.py"))
        if any(isinstance(node, (ast.Name, ast.Attribute))
               and isinstance(node.ctx, ast.Load)
               and getattr(node, "id", getattr(node, "attr", None)) == name
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))


def test_only_fitting_builds_fit_grids():
    """fitting builds both grids of every fit: no other package module
    calls build_fit_grid."""
    src = Path(__file__).resolve().parents[1] / "src"
    assert _users([src], "build_fit_grid") == ["fitting.py"]


def test_the_grid_guard_sees_a_call(tmp_path):
    (tmp_path / "a.py").write_text("problems.build_fit_grid(d, 10)\n")
    (tmp_path / "b.py").write_text("grid = build_fit_grid\n")
    (tmp_path / "c.py").write_text('"""build_fit_grid"""\n'
                                   "from .problems import build_fit_grid\n")
    assert _users([tmp_path], "build_fit_grid") == ["a.py", "b.py"]


def test_every_fit_grid_size_defaults_to_fit_per_arm():
    """fit, fit_nested and each subcommand's runner that takes per_arm
    default it to fitting.FIT_PER_ARM, the one literal 2000 of the
    package."""
    runners = [runner for runner, _ in cli._COMMANDS.values()
               if "per_arm" in inspect.signature(runner).parameters]
    assert len(runners) == 6
    for func in (lightningfit.fit, lightningfit.fit_nested, *runners):
        default = inspect.signature(func).parameters["per_arm"].default
        assert default == lightningfit.fitting.FIT_PER_ARM == 2000, func.__name__
    src = Path(__file__).resolve().parents[1] / "src" / "lightningfit"
    literals = [path.name for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Constant) and node.value == 2000]
    assert literals == ["fitting.py"]


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
    # above the cap a grid is refused before it is allocated
    "--grid-points": _NOT_A_COUNT | st.integers(min_value=MAX_ENTRIES + 1).map(str),
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
