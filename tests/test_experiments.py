"""Tests for the experiment drivers.

These are slower than the unit tests (each driver runs dozens of fits);
each default table runs in under half a second, so the tests run the
tables' own designs, trimmed only where a runner takes a list (the n1 of
`run_grid`, the openings of `run_corner_sigma`).
Numerical targets were frozen from direct runs; tolerances are loose enough
to survive BLAS/libm variation but tight enough to catch real regressions.
"""

import collections
import math
import sys

import numpy as np
import pytest

from lightningfit import contour, fitting, quadrature
from lightningfit.contour import ContourSetup, error_identity_report, validity_floor
from lightningfit.errors import InputError, LightningError, NumericError
from lightningfit.experiments import (
    CONVERGENCE_VARIANTS,
    DEFAULT_N1_LIST,
    GRID_N2,
    VSHAPE_SIGMA_RULES,
    corner_sigma_rule,
    corner_target,
    poly_degree_rule,
    refine_argmin,
    run_convergence,
    run_corner_sigma,
    run_grid,
    run_pole_ladder,
    run_sigma_sweep,
    run_verify_bounds,
    run_vshape,
    slope_vs_sqrt_n,
)
from lightningfit.fitting import BasisSpec, fit, fit_nested
from lightningfit.poles import tapered_poles
from lightningfit.problems import Domain, Target
from lightningfit.trapezoid import TrapApproximant


def col(table, name):
    i = table.columns.index(name)
    return [row[i] for row in table.rows]


# ---------------------------------------------------------------- rules


def test_poly_degree_rule_values():
    assert poly_degree_rule(49) == 10  # ceil(1.3*7)
    assert poly_degree_rule(4) == 3
    assert poly_degree_rule(1) == 2
    # always at least ceil(1.3*sqrt(n1))
    for n1 in [2, 9, 16, 25, 36, 64, 100]:
        assert poly_degree_rule(n1) == math.ceil(1.3 * math.sqrt(n1))


def test_poly_degree_rule_rejects_bad_n1():
    with pytest.raises(InputError):
        poly_degree_rule(0)
    with pytest.raises(InputError):
        poly_degree_rule(-3)


def test_corner_sigma_rule():
    # sqrt(2*(2-beta)*beta)*pi, symmetric about beta=1 where it peaks
    assert corner_sigma_rule(1.0) == pytest.approx(math.sqrt(2.0) * math.pi)
    assert corner_sigma_rule(0.5) == pytest.approx(corner_sigma_rule(1.5))
    assert corner_sigma_rule(0.5) < corner_sigma_rule(1.0)
    vals = [corner_sigma_rule(b) for b in np.linspace(0.45, 1.55, 23)]
    assert all(math.isfinite(v) and v > 0 for v in vals)


def test_corner_target_dispatch():
    # reentrant corners with integer 1/beta exponent need the log term
    t = corner_target(0.5)
    assert t.kind == "powerlog"
    assert t.alpha == pytest.approx(2.0)
    t = corner_target(0.75)
    assert t.kind == "power"
    assert t.alpha == pytest.approx(4.0 / 3.0)


# ---------------------------------------------------------------- argmin


def test_refine_argmin_interior_parabola():
    sig = [1.0, 2.0, 4.0, 8.0, 16.0]
    err = [5.0, 1.2, 1.0, 1.4, 9.0]
    ref = refine_argmin(sig, err)
    # log-space parabola through the three points around the minimum
    assert ref == pytest.approx(3.5636, rel=1e-3)


def test_refine_argmin_boundary_falls_back():
    sig = [1.0, 2.0, 4.0]
    err = [0.1, 0.5, 0.9]
    assert refine_argmin(sig, err) == 1.0


def test_refine_argmin_without_finite_value_is_numeric_error():
    with pytest.raises(NumericError):
        refine_argmin([1.0, 2.0, 3.0], [math.nan] * 3)


def test_refine_argmin_rejects_mismatch():
    with pytest.raises(InputError):
        refine_argmin([1.0, 2.0], [1.0])


# ---------------------------------------------------------------- convergence


@pytest.fixture(scope="module")
def conv_table():
    return run_convergence()


def test_convergence_structure(conv_table):
    assert tuple(conv_table.columns[:4]) == ("variant", "scheme", "n", "n1")
    variants = set(col(conv_table, "variant"))
    assert variants == set(CONVERGENCE_VARIANTS)
    assert all(s == "" for s in col(conv_table, "status"))


def test_convergence_errors_decrease(conv_table):
    for variant in ("tapered", "tapered+poly", "uniform+big"):
        errs = [
            row[conv_table.columns.index("max_err")]
            for row in conv_table.rows
            if row[0] == variant
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_convergence_poly_augmentation_wins(conv_table):
    # at equal clustered-pole count the augmented fit is far more accurate
    idx_err = conv_table.columns.index("max_err")
    idx_n1 = conv_table.columns.index("n1")
    plain = {r[idx_n1]: r[idx_err] for r in conv_table.rows if r[0] == "tapered"}
    aug = {r[idx_n1]: r[idx_err] for r in conv_table.rows if r[0] == "tapered+poly"}
    for n1 in plain:
        assert aug[n1] < 0.1 * plain[n1]
    # and the gap widens with size (doubled rate constant)
    assert aug[25] < 1e-3 * plain[25]


def test_convergence_plain_tapered_rate(conv_table):
    # root-exponential with the single-rate constant pi/sqrt(2)
    slope, npts = slope_vs_sqrt_n(conv_table, "tapered", err_lo=1e-14, err_hi=1.0)
    assert npts == len(DEFAULT_N1_LIST)
    assert slope == pytest.approx(-math.pi / math.sqrt(2.0), rel=0.2)


def test_slope_needs_two_rows(conv_table):
    with pytest.raises(LightningError):
        slope_vs_sqrt_n(conv_table, "tapered", err_lo=1e-30, err_hi=1e-29)


def test_big_poles_emulate_polynomial(conv_table):
    errs = [row[conv_table.columns.index("max_err")] for row in conv_table.rows
            if row[0] in ("tapered+poly", "tapered+big") and row[3] == 25]
    assert len(errs) == 2
    # same clustering, same count of smooth-part dof: comparable accuracy
    assert errs[1] < 30.0 * errs[0]
    assert errs[1] < 1e-5


# ---------------------------------------------------------------- sigma sweep


@pytest.fixture(scope="module")
def sweep_table():
    return run_sigma_sweep()


def test_sigma_sweep_shape(sweep_table):
    variants = col(sweep_table, "variant")
    assert variants.count("plain") == variants.count("poly")
    assert variants.count("poly") >= 40
    sig = [s for s, v in zip(col(sweep_table, "sigma"), variants) if v == "poly"]
    assert sig == sorted(sig)
    assert sig[0] == pytest.approx(2.0)
    assert sig[-1] == pytest.approx(30.0)


def test_sigma_sweep_argmin_near_rule(sweep_table):
    meta = sweep_table.meta
    rule = meta["sigma_rule"]
    assert rule == pytest.approx(2.0 * math.pi / math.sqrt(math.pi / 10.0), rel=1e-12)
    assert abs(math.log(meta["argmin_sigma_poly"] / rule)) < math.log(1.3)
    # plain fits favor roughly half the augmented spacing
    assert meta["argmin_sigma_plain"] < meta["argmin_sigma_poly"]


def test_sigma_sweep_v_shape(sweep_table):
    # error curve rises steeply on both sides of the optimum
    idx_e = sweep_table.columns.index("max_err")
    idx_v = sweep_table.columns.index("variant")
    for variant, min_ratio in [("plain", 5.0), ("poly", 50.0)]:
        errs = [r[idx_e] for r in sweep_table.rows if r[idx_v] == variant]
        best = min(errs)
        assert errs[0] > min_ratio * best
        assert errs[-1] > min_ratio * best


# ---------------------------------------------------------------- n1 x n2 grid


def test_grid_near_optimal_follows_rule():
    tab = run_grid(n1_list=(25, 100))
    chosen = {d["n1"]: d["n2"] for d in tab.meta["near_optimal"]}
    assert 2 <= chosen[25] <= 7
    assert 7 <= chosen[100] <= 15
    # without augmentation the same pole budget is useless
    idx = {c: i for i, c in enumerate(tab.columns)}
    row100 = {r[idx["n2"]]: r[idx["max_err"]] for r in tab.rows if r[idx["n1"]] == 100}
    best100 = min(row100.values())
    assert row100[0] > 100.0 * best100


def test_grid_rows_match_fits_on_fresh_grids():
    """Each n1 of the sweep is one fit_nested group, solved from a single
    factorization at its largest degree: the rows are bit for bit that
    call, and within the rounding gate of one fit per degree."""
    tab = run_grid(n1_list=(16,))
    assert tab.column("n2") == list(GRID_N2)
    domain = Domain()
    target = Target("power", tab.meta["alpha"])
    specs = [BasisSpec(tapered_poles(16, tab.meta["sigma"], 1.0), poly_degree=n2)
             for n2 in GRID_N2]
    nested = fit_nested(target, specs, domain)
    assert tab.column("max_err") == [rep.max_err for _, rep in nested]
    for spec, (_, rep) in zip(specs, nested):
        _, alone = fit(target, spec, domain)
        assert rep.eff_rank == alone.eff_rank
        assert abs(rep.max_err - alone.max_err) <= 1e-4 * alone.max_err + 1e-13


def test_nested_reports_do_not_depend_on_degree_order():
    domain = Domain()
    target = Target("power", math.pi / 10)
    poles = tapered_poles(16, 2.0 * math.pi / math.sqrt(target.alpha), 1.0)

    def reports(degrees):
        specs = [BasisSpec(poles, poly_degree=d) for d in degrees]
        return dict(zip(degrees, (rep for _, rep in fit_nested(
            target, specs, domain))))

    assert reports((9, 2, 15, 5)) == reports((15, 9, 5, 2))


def test_group_beyond_the_grid_fails_only_its_rows(monkeypatch, factored):
    """Degrees the grid's 8 points cannot carry fail their rows; the other
    degrees are solved from the group's one factorization, bit for bit a
    call without the failed specs, on one build of the polynomial block
    and one evaluation of it per validation chunk."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_poly_chain_build", "_poly_chain_eval"):
        monkeypatch.setattr(fitting, name, counted(name, getattr(fitting, name)))
    tab = run_grid(n1_list=(4,), per_arm=8)
    assert len(factored) == 1
    chunks = math.ceil(fitting.VAL_PER_ARM / fitting._chunk_points(4, 1, 7))
    assert calls == {"_poly_chain_build": 1, "_poly_chain_eval": chunks}
    monkeypatch.undo()
    statuses = tab.column("status")
    assert [s == "" for s in statuses] == [n2 < 8 for n2 in GRID_N2]
    assert all("needs more than the grid's 8 points" in s for s in statuses[8:])
    domain = Domain()
    specs = [BasisSpec(tapered_poles(4, tab.meta["sigma"], 1.0), poly_degree=n2)
             for n2 in range(8)]
    feasible = fit_nested(Target("power", tab.meta["alpha"]), specs, domain, 8)
    assert tab.column("max_err")[:8] == [rep.max_err for _, rep in feasible]


def test_grid_n1_whose_poles_underflow_fails_only_its_rows():
    """At sigma = 100 the poles of n1 = 81 and 100 underflow to -0.0: those
    32 rows carry the pole set's error, and the other 112 are the sweep
    without them, bit for bit."""
    with pytest.raises(InputError) as exc:
        BasisSpec(tapered_poles(81, 100.0, 1.0))
    tab = run_grid(sigma=100.0)
    failed = [row for row in tab.rows if row[0] in (81, 100)]
    assert len(failed) == 32 and all(row[3] == str(exc.value) for row in failed)
    kept = run_grid(sigma=100.0, n1_list=(4, 9, 16, 25, 36, 49, 64))
    assert [row for row in tab.rows if row[0] not in (81, 100)] == kept.rows
    assert not any(kept.column("status"))
    with pytest.raises(InputError):
        run_grid(sigma=100.0, n1_list=(81, 100))
    with pytest.raises(InputError, match="must be integral"):
        run_grid(n1_list=(16.5,))  # no row of 17 poles


def test_spec_above_the_cap_fails_only_its_rows():
    """20000 poles on 2000 points need a system of more than 2000 x 20000
    float64 entries, above the cap: those rows carry the refusal, and the
    n1 = 4 rows are the sweep without them, bit for bit."""
    tab = run_grid(sigma=1.0, n1_list=(4, 20000))
    capped = tab.rows[len(GRID_N2):]
    assert all(math.isnan(row[2]) and "above the cap" in row[3] for row in capped)
    assert tab.rows[:len(GRID_N2)] == run_grid(sigma=1.0, n1_list=(4,)).rows


def test_sweep_without_a_buildable_spec_is_input_error():
    with pytest.raises(InputError, match="number of poles must be >= 1"):
        run_vshape(n1=0)


def test_sweep_reports_specs_that_fail_for_some_keys():
    # at sigma = 30, the grid's last, the smallest of 676 poles,
    # exp(-30 * 25), underflows to -0.0; at the one before, 28.04, it is
    # a normal float
    tab = run_sigma_sweep(n1=676, per_arm=20)
    statuses = tab.column("status")
    assert statuses[:-2] == [""] * 80
    assert all(math.isfinite(e) for e in tab.column("max_err")[:-2])
    assert tab.column("sigma")[-2:] == [30.0, 30.0]
    assert all("finite and strictly negative" in s for s in statuses[-2:])
    assert math.isfinite(tab.meta["argmin_sigma_poly"])


# ---------------------------------------------------------------- corners


@pytest.fixture(scope="module")
def vshape_table():
    return run_vshape()


def test_vshape_opening_matched_wins(vshape_table):
    idx = {c: i for i, c in enumerate(vshape_table.columns)}
    by_rule = {}
    for r in vshape_table.rows:
        by_rule.setdefault(r[idx["rule"]], {})[r[idx["beta"]]] = r[idx["max_err"]]
    assert set(by_rule) == set(VSHAPE_SIGMA_RULES)
    for beta in (0.5, 1.0, 1.5):
        assert by_rule["opening-matched"][beta] < by_rule["tapered-default"][beta]
    # the mismatch grows as the corner closes up
    deficit = [
        by_rule["tapered-default"][b] / by_rule["opening-matched"][b]
        for b in (0.5, 1.0, 1.5)
    ]
    assert deficit[0] < deficit[1] < deficit[2]


def test_vshape_flat_rule_is_never_best(vshape_table):
    idx = {c: i for i, c in enumerate(vshape_table.columns)}
    for beta in (0.5, 1.5):
        errs = {
            r[idx["rule"]]: r[idx["max_err"]]
            for r in vshape_table.rows
            if r[idx["beta"]] == beta
        }
        assert errs["opening-matched"] < errs["four"]


def test_corner_sigma_argmin():
    tab = run_corner_sigma(beta_list=(1.0,))
    rec = tab.meta["argmin"][0]
    assert rec["beta"] == 1.0
    assert rec["rule_sigma"] == pytest.approx(math.sqrt(2.0) * math.pi)
    assert abs(math.log(rec["argmin_sigma"] / rec["rule_sigma"])) < math.log(1.3)


# ---------------------------------------------------------------- pole ladder


def test_pole_ladder_matches_models():
    tab = run_pole_ladder(n_list=(36,))
    idx = {c: i for i, c in enumerate(tab.columns)}
    rows = {r[idx["j"]]: r for r in tab.rows}
    assert set(rows) == set(range(1, 37))
    # deepest rung follows the tapered-spacing model in log magnitude
    r1 = rows[1]
    got = math.log(r1[idx["density_pole_mag"]])
    model = math.log(r1[idx["tapered_model"]])
    assert abs(got - model) < 0.1 * abs(model)
    # top rung has left the cluster and sits on the coarse outer ladder
    top = rows[36]
    assert top[idx["density_pole_mag"]] == pytest.approx(
        top[idx["big_model"]], rel=0.15)
    # crossover population ~ 0.4 sqrt(n)
    n_big = tab.meta["counts"][0]["count_large"]
    assert n_big == pytest.approx(0.4 * 6.0, abs=1.5)


# ---------------------------------------------------------------- bounds


def test_verify_bounds_smoke():
    tab = run_verify_bounds(nt_list=(16,), vshape_nt_list=())
    idx = {c: i for i, c in enumerate(tab.columns)}
    assert all(r[idx["identity_pass"]] for r in tab.rows)
    assert all(r[idx["conj_pass"]] for r in tab.rows)
    assert set(tab.meta) >= {"residue_rates_matched", "residue_rates_mismatched"}


def _setup_of(table, row):
    cells = dict(zip(table.columns, row))
    return ContourSetup(cells["radius"], cells["nt"], cells["beta"])


def test_verify_bounds_integrand_evaluations(monkeypatch):
    """Only the rectangle integrals, which carry delta, run quadrature: one
    integrate_many call per table, whose integrand evaluations are those
    of its rows run alone, exactly 6,540 = 2,130 + 1,710 + 1,710 + 990 at
    nt = 16."""
    calls, evals = [], []

    def counting(engine):
        def counted(func, *args, **kwargs):
            calls.append(func)

            def g(t, k):
                evals.append(np.size(t))
                return func(t, k)
            return engine(g, *args, **kwargs)
        return counted

    for name, module in list(sys.modules.items()):
        if name.startswith("lightningfit") and hasattr(module, "integrate_many"):
            monkeypatch.setattr(module, "integrate_many",
                                counting(module.integrate_many))
    tab = run_verify_bounds(nt_list=(16,), vshape_nt_list=(64,))
    assert len(calls) == 1 and len(tab) == 4
    assert sum(evals) == 6_540
    alone = []
    for row in tab.rows:
        evals.clear()
        contour.contour_terms([_setup_of(tab, row)])
        alone.append(sum(evals))
    assert alone == [2_130, 1_710, 1_710, 990]


def test_verify_bounds_evaluates_the_contour_once_per_table(monkeypatch):
    calls = []
    terms = contour.contour_terms

    def counted(setups):
        calls.append(list(setups))
        return terms(calls[-1])

    monkeypatch.setattr(contour, "contour_terms", counted)
    tab = run_verify_bounds()
    assert len(calls) == 1 and len(calls[0]) == len(tab) == 11
    monkeypatch.undo()
    for row in tab.rows:
        cells = dict(zip(tab.columns, row))
        report = error_identity_report([_setup_of(tab, row)])[0]
        assert cells["gamma_ratio"] == report.gamma_ratio
        assert cells["conj_pass"] == int(report.conj_pass)
        assert cells["identity_pass"] == int(report.identity_pass)


def test_verify_bounds_names_the_row_over_the_evaluation_budget(monkeypatch):
    """The nt = 16 floor row alone needs 2,130 evaluations; one fewer
    refuses it, by its nt, beta and radius."""
    monkeypatch.setattr(quadrature, "MAX_EVALS", 2_129)
    floor = validity_floor(TrapApproximant(16))
    with pytest.raises(NumericError, match=rf"^quadrature of the rectangle of "
                                           rf"nt=16, beta=0, radius={floor:.6g} "
                                           rf"failed to reach tol=1\.2e-12 "):
        run_verify_bounds(nt_list=(16,), vshape_nt_list=(64,))


def test_verify_bounds_budget_is_per_row(monkeypatch):
    """A budget each row meets alone passes the table, though the rows'
    6,540 evaluations together exceed it; the table is unchanged."""
    want = run_verify_bounds(nt_list=(16,), vshape_nt_list=(64,))
    monkeypatch.setattr(quadrature, "MAX_EVALS", 2_130)
    got = run_verify_bounds(nt_list=(16,), vshape_nt_list=(64,))
    assert got.rows == want.rows and got.meta == want.meta
