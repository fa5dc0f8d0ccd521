"""Command-line interface: subcommands, flags, formats, exit codes."""

import json

import pytest

from lightningfit import parse_csv_table
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


def test_usage_error_exit_1(capsys):
    assert run_cli(capsys, "nosuchcmd")[0] == 1
    assert run_cli(capsys, "fit", "--format", "xml")[0] == 1
    assert run_cli(capsys)[0] == 1  # missing subcommand


def test_help_and_version_exit_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "--version")[0] == 0
    assert run_cli(capsys, "fit", "--help")[0] == 0


def test_numeric_failure_exit_2(capsys):
    # an absurd tsvd threshold > 1 truncates every singular value
    code, _, err = run_cli(capsys, "fit", "--n1", "6", "--n2", "2",
                           "--grid-points", "100", "--tsvd-eps", "10.0")
    assert code == 2
    assert "numeric failure" in err


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


def test_seedless_flag_accepted(capsys):
    code, out, _ = run_cli(capsys, "fit", "--n1", "6", "--n2", "2",
                           "--grid-points", "100", "--seedless")
    assert code == 0


def test_determinism_across_invocations(capsys):
    _, out1, _ = run_cli(capsys, "fit", "--n1", "10", "--n2", "3",
                         "--grid-points", "300")
    _, out2, _ = run_cli(capsys, "fit", "--n1", "10", "--n2", "3",
                         "--grid-points", "300")
    assert out1 == out2
