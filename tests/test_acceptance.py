"""Acceptance battery: the headline numerical claims, one test per claim.

Run with `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion.  Every check recomputes from scratch through the public API; no
stored tables.  Inequalities marked "exact" carry no floating-point slack.

Criterion 7 is expected to FAIL: the stated constant 3/2 in the comb-kernel
bound is falsified by the point u = i*h/(2*pi), where the sharp constant is
1/(1 - 1/e) ~ 1.582.  The failure message carries the counterexample; see
the test docstring for the analysis.  All other criteria pass.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from lightningfit.contour import quadrature_error_kernel
from lightningfit.density import (
    count_large_poles,
    density_leading,
    invert_stahl_density,
    large_pole_estimate,
    stahl_density,
)
from lightningfit.experiments import (
    corner_sigma_rule,
    run_convergence,
    run_corner_sigma,
    run_sigma_sweep,
    run_verify_bounds,
    run_vshape,
    slope_vs_sqrt_n,
)
from lightningfit.fitting import VAL_PER_ARM, BasisSpec, fit
from lightningfit.poles import tapered_poles
from lightningfit.problems import (
    Domain,
    Target,
    build_fit_grid,
)
from lightningfit.trapezoid import (
    TrapApproximant,
    default_step,
    large_pole_tail,
    t_parameter,
    trap_error_bound,
    trap_eval,
    trap_partial_fractions,
)


@pytest.fixture(scope="module")
def bounds_table():
    # shared by criteria 5 and 6: 3 radii x 3 step counts on the interval
    return run_verify_bounds(nt_list=(16, 64, 144), vshape_nt_list=())


def _rows(table):
    idx = {c: i for i, c in enumerate(table.columns)}
    return [{c: row[i] for c, i in idx.items()} for row in table.rows]


def test_01_sqrt_tapered_poly_best_rate():
    """Doubled-rate convergence of the tapered + polynomial fit of sqrt(x).

    Slope of log(max_err) against sqrt(N) must equal -pi*sqrt(2) within
    15%, and the largest run must reach 1e-11.
    """
    table = run_convergence(scale=2.0)
    assert all(s == "" for s in table.column("status"))
    slope, npts = slope_vs_sqrt_n(table, "tapered+poly")
    target = -math.pi * math.sqrt(2.0)
    final_err = [row[table.columns.index("max_err")] for row in table.rows
                 if row[0] == "tapered+poly"][-1]
    print(f"criterion 1: slope={slope:.4f} target={target:.4f} "
          f"({npts} pts in window), final max_err={final_err:.3e}")
    assert npts >= 2
    assert abs(slope / target - 1.0) <= 0.15
    assert final_err <= 1e-11


def test_02_trap_rule_error_bound():
    """max |trap_eval - sqrt| <= 20 exp(-pi sqrt(nt/2)); exact inequality."""
    xs = build_fit_grid(Domain(), per_arm=VAL_PER_ARM)
    lines = []
    for nt in (8, 16, 32, 64, 128):
        t = TrapApproximant(nt)
        err = np.max(np.abs(trap_eval(t, xs) - np.sqrt(xs)))
        bound = trap_error_bound(nt)
        lines.append(f"nt={nt}: err={err:.3e} bound={bound:.3e}")
        assert err <= bound
    print("criterion 2: " + "; ".join(lines))


def test_03_partial_fraction_identity():
    """Pole-sum form of the nt = 64 rule agrees to 1e-13 relative.

    The identity is exact in real arithmetic but the naive float sum
    cancels ~8 digits (constant ~6e15), so the pole sum is carried out in
    60-digit arithmetic; the rule side stays in doubles.
    """
    n1 = 16
    h = default_step()
    t = TrapApproximant(4 * n1)
    xs = np.logspace(-16, 0, 100)
    worst = 0.0
    with mp.workdps(60):
        hh = 2 * mp.sqrt(mp.mpf(h))
        rn1 = mp.sqrt(n1)
        poles = [-mp.e ** (-hh * (rn1 - mp.sqrt(j)))
                 for j in range(1, 4 * n1 + 1)]
        weights = [mp.sqrt(h) / mp.pi * mp.sqrt(-p / j)
                   for j, p in enumerate(poles, start=1)]
        const = mp.fsum(weights)
        for xv in xs:
            ref = const + mp.fsum(w * p / (mp.mpf(xv) - p)
                                  for w, p in zip(weights, poles))
            got = trap_eval(t, float(xv))
            worst = max(worst, abs(got - float(ref)) / abs(float(ref)))
    print(f"criterion 3: worst relative defect {worst:.3e} on 100 points")
    assert worst <= 1e-13


def test_04_tail_chebyshev_decay_factor():
    """Per-degree decay of polynomial fits to the outer-pole tail.

    The tail is analytic past x = -1, giving Bernstein-ellipse decay with
    factor 1/(3 + 2 sqrt 2) per degree in the many-pole limit.  At finite
    pole count the nearest singularity sits at -exp(sqrt(h/n1))-ish, a bit
    left of -1, so the measured factor approaches the limit from below;
    n1 = 4096 is the largest count that stays inside double range.
    """
    pf = trap_partial_fractions(4096, default_step())
    xs = 0.5 + 0.5 * np.cos(np.pi * np.arange(1201) / 1200)
    tail = np.array([large_pole_tail(pf, x) for x in xs])
    u = 2.0 * xs - 1.0
    errs = []
    for d in range(0, 23):
        c = np.polynomial.chebyshev.chebfit(u, tail, d)
        errs.append(np.max(np.abs(tail - np.polynomial.chebyshev.chebval(u, c))))
    errs = np.array(errs)
    ratios = errs[1:] / errs[:-1]
    keep = (errs[:-1] < 1e-5) & (errs[1:] > 1e-13)
    factor = math.exp(float(np.mean(np.log(ratios[keep]))))
    target = 1.0 / (3.0 + 2.0 * math.sqrt(2.0))
    print(f"criterion 4: per-degree factor {factor:.4f} vs {target:.4f} "
          f"({int(keep.sum())} clean ratios)")
    assert abs(factor / target - 1.0) <= 0.20


def test_05_contour_identity_defect(bounds_table):
    """I - S = end integrals + curved-leg integral - residue sum.

    Checked to max(1e-10, 0.1% of |I - S|) on the 3x3 (radius, nt) grid.
    """
    rows = _rows(bounds_table)
    assert len(rows) == 9
    worst = max(r["identity_defect"] for r in rows)
    print(f"criterion 5: worst identity defect {worst:.3e} over 9 cells")
    for r in rows:
        assert r["identity_defect"] <= max(1e-10, 1e-3 * r["i_minus_s_abs"])


def test_06_curved_leg_integral_bound(bounds_table):
    """|curved-leg integral| < 12 exp(-T); exact inequality on all 9 cells."""
    rows = _rows(bounds_table)
    ratios = sorted(r["gamma_ratio"] for r in rows)
    print(f"criterion 6: gamma/exp(-T) in [{ratios[0]:.2f}, {ratios[-1]:.2f}]"
          f" (bound 12)")
    for r in rows:
        assert r["gamma_abs"] < 12.0 * r["exp_neg_t"]


def test_07_comb_kernel_exponential_bound():
    """|delta(u)| <= 1.5 exp(-2 pi |Im u|/h) for |Im u| >= h/(2 pi); exact.

    EXPECTED FAILURE.  At u = i h/(2 pi) the kernel is 1/(e - 1) ~ 0.58198
    while the stated bound is 1.5/e ~ 0.55182.  On the closed half-plane
    |Im u| >= h/(2 pi) the sharp constant is 1/(1 - 1/e) ~ 1.58198
    (attained at that point); the constant 3/2 only becomes valid once
    |Im u| >= h ln(3)/(2 pi).  The sampled set below deliberately contains
    the extremal point, so this test documents the defect instead of
    dodging it.
    """
    h = default_step()
    im_lo = h / (2.0 * math.pi)
    ims = np.linspace(1.0, 12.0, 25) * im_lo
    res = np.linspace(0.0, h, 20, endpoint=False)
    pts = np.array([re + 1j * sgn * im
                    for sgn in (1.0, -1.0) for im in ims for re in res])
    assert pts.size == 1000
    vals = np.abs(quadrature_error_kernel(pts, h))
    bound = 1.5 * np.exp(-2.0 * math.pi * np.abs(pts.imag) / h)
    n_bad = int(np.sum(vals > bound))
    sharp = 1.0 / (1.0 - math.exp(-1.0))
    corrected = sharp * np.exp(-2.0 * math.pi * np.abs(pts.imag) / h)
    n_fix = int(np.sum(vals <= corrected * (1.0 + 1e-12)))
    k = int(np.argmax(vals - bound))
    print(f"criterion 7: {n_bad}/1000 points violate; worst at "
          f"u={pts[k]:.6g}: |delta|={vals[k]:.6f} > {bound[k]:.6f}; "
          f"constant {sharp:.6f} instead of 1.5 covers {n_fix}/1000")
    assert n_bad == 0, (
        f"{n_bad}/1000 points violate 1.5*exp(-2pi|Im u|/h): at "
        f"u = i*h/(2pi) = {pts[k]:.6g} the kernel is 1/(e-1) = {vals[k]:.6f} "
        f"but the bound is 1.5/e = {bound[k]:.6f}.  The sharp constant on "
        f"|Im u| >= h/(2pi) is 1/(1-1/e) = {sharp:.6f}, attained exactly "
        f"there; 3/2 is only valid from |Im u| >= h*ln(3)/(2pi) upward.  "
        f"With the sharp constant {n_fix}/1000 points pass.")


def test_08_pole_density_asymptotics():
    """Density inversion reproduces the outer-pole formula and counts."""
    n = 10 ** 4
    lines = []
    for k in (0, 1, 2):
        got = -invert_stahl_density(2 * n, n - k) ** 2
        ref = large_pole_estimate(n, k)
        lines.append(f"k={k}: {got:.6g} vs {ref:.6g}")
        assert abs(got / ref - 1.0) <= 0.03
    excess = n - stahl_density(2 * n, 1.0)
    assert abs(excess / (0.4 * math.sqrt(n)) - 1.0) <= 0.05
    assert excess == pytest.approx(count_large_poles(n), rel=1e-10)
    f1_at_1 = density_leading(1.0)
    assert abs(f1_at_1 - 0.2805) <= 0.005
    print(f"criterion 8: {'; '.join(lines)}; excess={excess:.3f} "
          f"vs {0.4 * math.sqrt(n):.1f}; leading(1)={f1_at_1:.4f}")


def test_09_optimal_sigma_rule_flat():
    """argmin over sigma for x^alpha lands within 30% of 2 pi/sqrt(alpha)."""
    lines = []
    for alpha in (0.25, math.pi / 10, 0.75):
        table = run_sigma_sweep(alpha=alpha, n1=10, n2=10)
        got = table.meta["argmin_sigma_poly"]
        rule = 2.0 * math.pi / math.sqrt(alpha)
        lines.append(f"alpha={alpha:.3f}: argmin={got:.2f} rule={rule:.2f}")
        assert abs(got / rule - 1.0) <= 0.30
    print("criterion 9: " + "; ".join(lines))


def test_10_optimal_sigma_rule_vshape():
    """Opening-matched clustering beats the flat-interval default on V."""
    table = run_vshape(n1=40, n2=10)
    idx = {c: i for i, c in enumerate(table.columns)}
    errs = {}
    for r in table.rows:
        errs[(r[idx["beta"]], r[idx["rule"]])] = r[idx["max_err"]]
    for beta in (0.5, 1.0, 1.5):
        assert errs[(beta, "opening-matched")] <= errs[(beta, "tapered-default")]

    corner = run_corner_sigma(beta_list=(1.0,))
    rec = corner.meta["argmin"][0]
    assert abs(rec["argmin_sigma"] / rec["rule_sigma"] - 1.0) <= 0.30

    betas = np.linspace(0.45, 1.55, 111)
    rules = np.array([corner_sigma_rule(b) for b in betas])
    spread = np.max(np.abs(rules - 4.0))
    gains = "; ".join(
        f"beta={b}: {errs[(b, 'tapered-default')] / errs[(b, 'opening-matched')]:.1f}x"
        for b in (0.5, 1.0, 1.5))
    print(f"criterion 10: matched-rule gain {gains}; argmin "
          f"{rec['argmin_sigma']:.2f} vs {rec['rule_sigma']:.2f}; "
          f"max |rule-4| = {spread:.3f}")
    assert spread <= 1.1


def test_11_coefficient_norm_floor():
    """Polynomial augmentation shrinks the coefficient norm by >= 100x.

    Two fits at equal total degree 59: bare tapered poles versus tapered
    poles plus a degree-10 polynomial.  The augmented error must also sit
    at the norm-scaled plateau 100 * eps * ||c||_2 with eps = 2e-14.
    """
    domain = Domain()
    plain = BasisSpec(tapered_poles(59, math.sqrt(2.0) * math.pi, 1.0),
                      poly_degree=0)
    aug = BasisSpec(tapered_poles(49, 2.0 * math.sqrt(2.0) * math.pi, 1.0),
                    poly_degree=10)
    _, rep_p = fit(Target("sqrt"), plain, domain, eps_rel=2e-14)
    _, rep_a = fit(Target("sqrt"), aug, domain, eps_rel=2e-14)
    ratio = rep_p.coeff_2norm / rep_a.coeff_2norm
    floor = 100.0 * 2e-14 * rep_a.coeff_2norm
    print(f"criterion 11: norm ratio {ratio:.3e} (>= 100); augmented "
          f"max_err {rep_a.max_err:.3e} <= {floor:.3e}")
    assert ratio >= 100.0
    assert rep_a.max_err <= floor
