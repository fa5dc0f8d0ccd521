"""Tests for the experiment drivers.

These are slower than the unit tests (each driver runs dozens of fits) so
the configurations are trimmed: fewer sizes, fewer betas, one corner angle.
Numerical targets were frozen from direct runs; tolerances are loose enough
to survive BLAS/libm variation but tight enough to catch real regressions.
"""

import collections
import math
import sys

import numpy as np
import pytest

from lightningfit import contour, fitting
from lightningfit.contour import ContourSetup, error_identity_report
from lightningfit.errors import InputError, LightningError, NumericError
from lightningfit.experiments import (
    CONVERGENCE_VARIANTS,
    VAL_PER_ARM,
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
from lightningfit.problems import Domain, Target, build_fit_grid


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
    return run_convergence(
        n1_list=(9, 16, 25),
        variants=("tapered", "tapered+poly", "uniform+big"),
    )


def test_convergence_structure(conv_table):
    assert tuple(conv_table.columns[:4]) == ("variant", "scheme", "n", "n1")
    variants = set(col(conv_table, "variant"))
    assert variants == {"tapered", "tapered+poly", "uniform+big"}
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
    assert npts == 3
    assert slope == pytest.approx(-math.pi / math.sqrt(2.0), rel=0.2)


def test_slope_needs_two_rows(conv_table):
    with pytest.raises(LightningError):
        slope_vs_sqrt_n(conv_table, "tapered", err_lo=1e-30, err_hi=1e-29)


def test_big_poles_emulate_polynomial():
    tab = run_convergence(n1_list=(25,), variants=("tapered+poly", "tapered+big"))
    errs = col(tab, "max_err")
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
    factorization at its largest degree: the rows are bit for bit that call
    on fresh grids, and within the rounding gate of one fit per degree."""
    n2_list = (9, 2, 15, 5)
    tab = run_grid(n1_list=(16,), n2_list=n2_list)
    assert tab.column("n2") == list(n2_list)
    domain = Domain.unit_interval()
    target = Target.power(tab.meta["alpha"])
    specs = [BasisSpec(tapered_poles(16, tab.meta["sigma"], 1.0), poly_degree=n2)
             for n2 in n2_list]
    nested = fit_nested(target, specs, build_fit_grid(domain),
                        build_fit_grid(domain, per_arm=VAL_PER_ARM))
    assert tab.column("max_err") == [rep.max_err for _, rep in nested]
    for spec, (_, rep) in zip(specs, nested):
        _, alone = fit(target, spec, build_fit_grid(domain),
                       build_fit_grid(domain, per_arm=VAL_PER_ARM))
        assert rep.eff_rank == alone.eff_rank
        assert abs(rep.max_err - alone.max_err) <= 1e-4 * alone.max_err + 1e-13


def test_grid_rows_do_not_depend_on_degree_order():
    rows = run_grid(n1_list=(16,), n2_list=(9, 2, 15, 5)).rows
    assert sorted(rows) == sorted(run_grid(n1_list=(16,), n2_list=(15, 9, 5, 2)).rows)


def test_group_beyond_the_grid_fails_only_its_rows(monkeypatch, factored):
    """Degrees the grid's 40 points cannot carry fail their rows; the other
    degrees are solved from the group's one factorization, bit for bit a
    call without the failed specs, on one build of the polynomial block
    and one evaluation of it on the validation grid."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_poly_chain_build", "_poly_chain_eval"):
        monkeypatch.setattr(fitting, name, counted(name, getattr(fitting, name)))
    tab = run_grid(n1_list=(4,), n2_list=(3, 45, 5, 40), per_arm=40)
    assert len(factored) == 1
    assert calls == {"_poly_chain_build": 1, "_poly_chain_eval": 1}
    monkeypatch.undo()
    statuses = tab.column("status")
    assert [s == "" for s in statuses] == [True, False, True, False]
    assert all("needs more than the grid's 40 points" in s for s in statuses[1::2])
    domain = Domain.unit_interval()
    specs = [BasisSpec(tapered_poles(4, tab.meta["sigma"], 1.0), poly_degree=n2)
             for n2 in (3, 5)]
    feasible = fit_nested(Target.power(tab.meta["alpha"]), specs,
                          build_fit_grid(domain, per_arm=40),
                          build_fit_grid(domain, per_arm=VAL_PER_ARM))
    assert tab.column("max_err")[::2] == [rep.max_err for _, rep in feasible]


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


def test_sweep_without_a_buildable_spec_is_input_error():
    with pytest.raises(InputError, match="need at least one pole"):
        run_vshape(n1=0)


def test_sweep_reports_specs_that_fail_for_some_keys():
    # at sigma = 100 the smallest of 100 poles underflows to -0.0
    tab = run_sigma_sweep(n1=100, sigma_max=100.0, n_sigma=5, per_arm=200,
                          include_plain=False)
    statuses = tab.column("status")
    assert statuses[:4] == [""] * 4
    assert all(math.isfinite(e) for e in tab.column("max_err")[:4])
    assert tab.column("sigma")[4] == 100.0
    assert "finite and strictly negative" in statuses[4]


# ---------------------------------------------------------------- corners


@pytest.fixture(scope="module")
def vshape_table():
    return run_vshape(beta_list=(0.5, 1.0, 1.5), n1=40, n2=10)


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


def test_verify_bounds_integrand_evaluations(monkeypatch):
    """Only the rectangle integral, which carries delta, runs quadrature:
    one integrate call per row, and an nt = 16 run makes at most the
    6,540 integrand evaluations of that call alone."""
    calls, evals = [], []

    def counting(integrate):
        def counted(func, *args, **kwargs):
            calls.append(func)

            def g(x):
                evals.append(np.size(x))
                return func(x)
            return integrate(g, *args, **kwargs)
        return counted

    for name, module in list(sys.modules.items()):
        if name.startswith("lightningfit") and hasattr(module, "integrate"):
            monkeypatch.setattr(module, "integrate", counting(module.integrate))
    tab = run_verify_bounds(nt_list=(16,), vshape_nt_list=(64,))
    assert len(calls) == len(tab) == 4
    assert 0 < sum(evals) <= 6_540


def test_verify_bounds_evaluates_the_contour_once_per_row(monkeypatch):
    calls = []
    terms = contour.contour_terms

    def counted(setup):
        calls.append(setup)
        return terms(setup)

    monkeypatch.setattr(contour, "contour_terms", counted)
    tab = run_verify_bounds()
    assert len(calls) == len(tab) == 11
    monkeypatch.undo()
    for row in tab.rows:
        cells = dict(zip(tab.columns, row))
        beta, r = cells["beta"], cells["radius"]
        report = error_identity_report(ContourSetup(r, cells["nt"], beta))
        assert cells["gamma_ratio"] == report.gamma_ratio
        assert cells["conj_pass"] == int(report.conj_pass)
