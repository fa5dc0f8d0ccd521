"""Sweep studies as deterministic table-producing pipelines.

Each run_* function runs one fit, one sweep of fits or one verification
battery and returns a ResultTable whose metadata echoes the full
configuration.  The sweeps declare their keys and spec rule to one
engine, _sweep, which records a failed fit as its row's status instead
of aborting.  The acceptance checks read everything from these tables.
"""

from __future__ import annotations

import math

import numpy as np

from .contour import (ContourSetup, error_identity_report, residue_rate_check,
                      validity_floor)
from .density import count_large_poles, pole_from_density
from .errors import InputError, LightningError, NumericError
from .fitting import (DEFAULT_TSVD_EPS, FIT_PER_ARM, VAL_PER_ARM, BasisSpec,
                      FitReport, fit, fit_nested)
from .poles import big_poles, tapered_poles, uniform_poles
from .problems import DECADES, Domain, Target
from .tables import ResultTable
from .trapezoid import TrapApproximant, default_step

# each default table's design: the sweep axes no flag sets
DEFAULT_N1_LIST = (9, 16, 25, 36, 49, 64)

# scheme, sigma, augmentation for each convergence variant; the augmented
# variants use N2 = ceil(1.3 sqrt(N1)), the plain ones a bare constant
CONVERGENCE_VARIANTS = {
    "tapered": ("tapered", math.sqrt(2.0) * math.pi, "none"),
    "uniform": ("uniform", math.pi, "none"),
    "tapered+poly": ("tapered", 2.0 * math.sqrt(2.0) * math.pi, "poly"),
    "uniform+poly": ("uniform", 2.0 * math.pi, "poly"),
    "tapered+big": ("tapered", 2.0 * math.sqrt(2.0) * math.pi, "big"),
    "uniform+big": ("uniform", 2.0 * math.pi, "big"),
}
_POLE_SCHEMES = {"tapered": tapered_poles, "uniform": uniform_poles}
GRID_N2 = tuple(range(16))  # the (N1, N2) surface's polynomial degrees
VSHAPE_BETAS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
# sigma(beta) of each V-domain clustering rule
VSHAPE_SIGMA_RULES = {
    "tapered-default": lambda beta: 2.0 * math.sqrt(2.0) * math.pi,
    "opening-matched": lambda beta: 2.0 * math.sqrt(2.0 - beta) * math.pi,
    "four": lambda beta: 4.0,
}
# both sigma sweeps: 41 geometric values from 2 to 30
SIGMA_GRID = tuple(float(s) for s in np.geomspace(2.0, 30.0, 41))


def poly_degree_rule(n1: int) -> int:
    """Polynomial degree that balances the clustered poles: ceil(1.3 sqrt(N1))."""
    return math.ceil(1.3 * math.sqrt(InputError.check_count("n1", n1)))


# the report of a failed row: nan errors, rank 0
_FAILED = FitReport(max_err=math.nan, resid_2norm=math.nan,
                    coeff_2norm=math.nan, eff_rank=0)


def _sweep(target, domain, per_arm, eps_rel, keys, spec_of):
    """Fit spec_of(key) for each key in one fit_nested call on the domain,
    per_arm fit-grid points per arm, after building every spec; raises the
    first key's error when none can be built, before any grid is built.
    Returns [(key, report, "")] in key order, with (key, _FAILED, reason)
    where the spec or the fit raised a LightningError.
    """
    keys = list(keys)
    specs, results = {}, {}  # by key index; a result is a report or an error
    for i, key in enumerate(keys):
        try:
            specs[i] = spec_of(key)
        except LightningError as exc:
            results[i] = exc
    if results and not specs:
        raise results[0]
    for i, result in zip(specs, fit_nested(
            target, list(specs.values()), domain, per_arm, eps_rel)):
        results[i] = result if isinstance(result, LightningError) else result[1]
    return [(key, _FAILED, str(results[i])) if isinstance(results[i], LightningError)
            else (key, results[i], "") for i, key in enumerate(keys)]


def run_fit(target: str = "sqrt", alpha: float = 0.5, beta: float = 0.0,
            n1: int = 40, n2: int | None = None, sigma: float | None = None,
            scale: float = 1.0, per_arm: int = FIT_PER_ARM,
            eps_rel: float = DEFAULT_TSVD_EPS) -> ResultTable:
    """One fit of sqrt, x^alpha or x^alpha log x on the opening-beta domain.

    target names one of `TARGET_KINDS`; sqrt takes only alpha = 0.5.  n2
    defaults to ceil(1.3 sqrt(n1)), sigma to 2 sqrt(2 - beta) pi.  Unlike
    the sweeps, a failed fit raises.
    """
    domain, fitted = Domain(beta), Target(target, alpha)
    if n2 is None:
        n2 = poly_degree_rule(n1)
    if sigma is None:
        sigma = VSHAPE_SIGMA_RULES["opening-matched"](domain.beta)
    spec = BasisSpec(tapered_poles(n1, sigma, scale), poly_degree=n2)
    _, rep = fit(fitted, spec, domain, per_arm, eps_rel)
    row = (target, fitted.alpha, domain.beta, n1, n2, sigma, scale,
           rep.max_err, rep.coeff_2norm, rep.resid_2norm, rep.eff_rank)
    config = {"target": fitted.kind, "alpha": fitted.alpha,
              "beta": domain.beta, "n_clustered": n1, "pole_scheme": "tapered",
              "sigma": sigma, "scale_c": scale, "n_extra": 0, "poly_degree": n2,
              "total_degree": spec.total_degree, "grid_per_arm": per_arm,
              "decades": DECADES, "eps_rel": eps_rel}
    return ResultTable(
        columns=("target", "alpha", "beta", "n1", "n2", "sigma", "scale_c",
                 "max_err", "coeff_2norm", "resid_2norm", "eff_rank"),
        rows=[row], meta={"kind": "fit", "config": config})


def run_convergence(scale: float = 2.0, eps_rel: float = DEFAULT_TSVD_EPS,
                    per_arm: int = FIT_PER_ARM) -> ResultTable:
    """Degree sweep of sqrt(x) fits over DEFAULT_N1_LIST for every
    pole/augmentation variant of CONVERGENCE_VARIANTS.

    Every row is fitted in one sweep on the shared grids; errors in a row
    are recorded, not raised.
    """
    keys = [(name, n1, 0 if augment == "none" else poly_degree_rule(n1))
            for name, (_, _, augment) in CONVERGENCE_VARIANTS.items()
            for n1 in DEFAULT_N1_LIST]

    def spec_of(key):
        name, n1, n2 = key
        scheme, sigma, augment = CONVERGENCE_VARIANTS[name]
        poles = _POLE_SCHEMES[scheme](n1, sigma, scale)
        if augment == "big":
            poles = np.concatenate([poles, big_poles(n1 + n2, n2)])
        return BasisSpec(poles, poly_degree=n2 if augment == "poly" else 0)

    rows = []
    for (name, n1, n2), rep, status in _sweep(
            Target("sqrt"), Domain(), per_arm, eps_rel, keys, spec_of):
        scheme, sigma, _ = CONVERGENCE_VARIANTS[name]
        rows.append((name, scheme, n1 + n2, n1, n2, sigma, rep.max_err,
                     rep.coeff_2norm, rep.resid_2norm, rep.eff_rank, status))
    meta = {"kind": "convergence", "target": "sqrt",
            "n1_list": list(DEFAULT_N1_LIST), "variants": list(CONVERGENCE_VARIANTS),
            "scale": scale, "eps_rel": eps_rel, "per_arm": per_arm,
            "decades": DECADES, "val_per_arm": VAL_PER_ARM}
    return ResultTable(
        columns=("variant", "scheme", "n", "n1", "n2", "sigma", "max_err",
                 "coeff_2norm", "resid_2norm", "eff_rank", "status"),
        rows=rows, meta=meta)


def slope_vs_sqrt_n(table: ResultTable, variant: str,
                    err_lo: float = 1e-10, err_hi: float = 1e-3):
    """Least-squares slope of log(max_err) against sqrt(N) for one variant.

    Restricted to the clean-convergence window err_lo <= max_err <= err_hi,
    which drops the preasymptotic head and the roundoff floor.  Returns
    (slope, points_used).
    """
    names = table.column("variant")
    ns = table.column("n")
    errs = table.column("max_err")
    xs, ys = [], []
    for name, n, err in zip(names, ns, errs):
        if name == variant and isinstance(err, float) and math.isfinite(err) \
                and err_lo <= err <= err_hi:
            xs.append(math.sqrt(n))
            ys.append(math.log(err))
    if len(xs) < 2:
        raise LightningError(
            f"variant {variant!r} has {len(xs)} rows in the error window; need >= 2")
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope), len(xs)


def refine_argmin(xs, ys):
    """Parabolic refinement of argmin over a positive grid.

    Fits a parabola through the discrete minimizer and its neighbours in
    (log x, y); falls back to the grid point at the boundary or when the
    parabola degenerates.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise InputError(f"grid/value shape mismatch: {xs.shape} vs {ys.shape}")
    if not np.any(np.isfinite(ys)):
        raise NumericError("no finite value to minimize: every fit of the family failed")
    i = int(np.nanargmin(ys))
    if i == 0 or i == len(xs) - 1:
        return float(xs[i])
    u = np.log(xs[i - 1:i + 2])
    v = ys[i - 1:i + 2]
    if not np.all(np.isfinite(v)):
        return float(xs[i])
    a, b, _ = np.polyfit(u, v, 2)
    if a <= 0:
        return float(xs[i])
    u_star = -b / (2.0 * a)
    u_star = min(max(u_star, u[0]), u[2])
    return float(math.exp(u_star))


def _argmin_sigma(errs) -> float:
    """The refined argmin over SIGMA_GRID of log(max_err), one error per
    sigma; a failed fit's nan is no candidate."""
    return refine_argmin(SIGMA_GRID, [math.log(e) if math.isfinite(e) else math.nan
                                      for e in errs])


def run_sigma_sweep(alpha: float = math.pi / 10, n1: int = 10, n2: int = 3,
                    scale: float = 1.0, eps_rel: float = DEFAULT_TSVD_EPS,
                    per_arm: int = FIT_PER_ARM) -> ResultTable:
    """Clustering-parameter sweep over SIGMA_GRID for x^alpha on the unit
    interval.

    Two fit families per sigma: clustered poles with a bare constant, and
    the same poles plus a degree-n2 polynomial.  The refined argmin of
    each family lands in the metadata next to the 2 pi / sqrt(alpha) rule.
    """
    InputError.check_count("n2", n2, least=-1)  # else no argmin
    variants = (("plain", 0), ("poly", n2))
    keys = [(sigma, name, degree) for sigma in SIGMA_GRID
            for name, degree in variants]
    rows = []
    errs = {name: [] for name, _ in variants}
    for (sigma, name, _), rep, status in _sweep(
            Target("power", alpha), Domain(), per_arm, eps_rel, keys,
            lambda key: BasisSpec(tapered_poles(n1, key[0], scale),
                                  poly_degree=key[2])):
        rows.append((name, sigma, rep.max_err, status))
        errs[name].append(rep.max_err)
    meta = {"kind": "sigma-sweep", "alpha": alpha, "n1": n1, "poly_degree": n2,
            "scale": scale, "eps_rel": eps_rel, "per_arm": per_arm,
            "sigma_grid": list(SIGMA_GRID),
            "sigma_rule": 2.0 * math.pi / math.sqrt(alpha)}
    for name, _ in variants:
        meta[f"argmin_sigma_{name}"] = _argmin_sigma(errs[name])
    return ResultTable(columns=("variant", "sigma", "max_err", "status"),
                       rows=rows, meta=meta)


def run_grid(alpha: float = math.pi / 10,
             n1_list=(4, 9, 16, 25, 36, 49, 64, 81, 100), sigma: float | None = None,
             eps_rel: float = DEFAULT_TSVD_EPS,
             per_arm: int = FIT_PER_ARM) -> ResultTable:
    """(N1, N2) error surface for x^alpha over n1_list x GRID_N2; where does
    more polynomial stop helping."""
    target = Target("power", alpha)  # validates alpha
    if sigma is None:
        sigma = 2.0 * math.pi / math.sqrt(alpha)
    rows = [(n1, n2, rep.max_err, status) for (n1, n2), rep, status in _sweep(
        target, Domain(), per_arm, eps_rel,
        [(n1, n2) for n1 in n1_list for n2 in GRID_N2],
        lambda key: BasisSpec(tapered_poles(key[0], sigma, 1.0),
                              poly_degree=key[1]))]
    near_optimal = []
    for k, n1 in enumerate(n1_list):
        row_errs = [row[2] for row in rows[k * len(GRID_N2):(k + 1) * len(GRID_N2)]]
        finite = [e for e in row_errs if math.isfinite(e)]
        if finite:
            best = min(finite)
            chosen = next(n2 for n2, e in zip(GRID_N2, row_errs)
                          if math.isfinite(e) and e <= 3.0 * best)
            near_optimal.append({"n1": int(n1), "n2": int(chosen),
                                 "best_err": best})
    meta = {"kind": "n1-n2-grid", "alpha": alpha, "sigma": sigma,
            "eps_rel": eps_rel, "per_arm": per_arm,
            "n1_list": [int(n) for n in n1_list], "n2_list": list(GRID_N2),
            "near_optimal": near_optimal, "n2_rule": "1.1*sqrt(n1) - 1"}
    return ResultTable(columns=("n1", "n2", "max_err", "status"),
                       rows=rows, meta=meta)


def run_vshape(n1: int = 40, n2: int = 10, eps_rel: float = DEFAULT_TSVD_EPS,
               per_arm: int = FIT_PER_ARM) -> ResultTable:
    """sqrt(z) on V-domains: one row per (opening of VSHAPE_BETAS, rule of
    VSHAPE_SIGMA_RULES)."""
    rows = []
    for beta in VSHAPE_BETAS:
        keys = [(rule, sigma_of(beta)) for rule, sigma_of in VSHAPE_SIGMA_RULES.items()]
        for (rule, sigma), rep, status in _sweep(
                Target("sqrt"), Domain(beta), per_arm, eps_rel, keys,
                lambda key: BasisSpec(tapered_poles(n1, key[1], 1.0),
                                      poly_degree=n2)):
            rows.append((beta, rule, sigma, rep.max_err, status))
    meta = {"kind": "vshape-angle", "target": "sqrt", "n1": n1, "n2": n2,
            "eps_rel": eps_rel, "per_arm": per_arm, "beta_list": list(VSHAPE_BETAS)}
    return ResultTable(columns=("beta", "rule", "sigma", "max_err", "status"),
                       rows=rows, meta=meta)


def _corner_opening(beta) -> float:
    """beta, if it is a positive real that opens a V-domain: a corner."""
    return Domain(InputError.check_positive("beta", beta)).beta


def corner_target(beta: float) -> Target:
    """Dominant corner behaviour z^{1/beta}, with a log factor at integer powers."""
    exponent = 1.0 / _corner_opening(beta)
    nearest = round(exponent)
    if abs(exponent - nearest) < 1e-12:
        return Target("powerlog", float(nearest))
    return Target("power", exponent)


def corner_sigma_rule(beta: float) -> float:
    """Optimal clustering rule sqrt(2 (2-beta) beta) pi for corner targets."""
    beta = _corner_opening(beta)
    return math.sqrt(2.0 * (2.0 - beta) * beta) * math.pi


def run_corner_sigma(beta_list=(0.5, 1.0, 1.5), n1: int = 20, n2: int = 20,
                     eps_rel: float = DEFAULT_TSVD_EPS,
                     per_arm: int = FIT_PER_ARM) -> ResultTable:
    """Per-opening sigma sweep over SIGMA_GRID for the corner target z^{1/beta}."""
    betas = [_corner_opening(beta) for beta in beta_list]
    rows, argmins = [], []
    for beta in betas:
        errs = []
        for sigma, rep, status in _sweep(
                corner_target(beta), Domain(beta), per_arm, eps_rel, SIGMA_GRID,
                lambda sigma: BasisSpec(tapered_poles(n1, sigma, 1.0),
                                        poly_degree=n2)):
            rows.append((beta, sigma, rep.max_err, status))
            errs.append(rep.max_err)
        argmins.append({"beta": beta, "argmin_sigma": _argmin_sigma(errs),
                        "rule_sigma": corner_sigma_rule(beta)})
    meta = {"kind": "corner-sigma", "n1": n1, "n2": n2, "eps_rel": eps_rel,
            "per_arm": per_arm, "beta_list": betas,
            "sigma_grid": list(SIGMA_GRID), "argmin": argmins}
    return ResultTable(columns=("beta", "sigma", "max_err", "status"),
                       rows=rows, meta=meta)


def run_pole_ladder(n_list=(16, 36, 64)) -> ResultTable:
    """Pole ladder of the best approximant from the density inversion.

    Per degree n, inverts the integrated density at j = 1..n and lines the
    magnitudes up against the tapered clustering model and the large-pole
    asymptote for the top rungs.
    """
    sigma_best = 2.0 * math.sqrt(2.0) * math.pi
    rows = []
    counts = []
    for n in n_list:
        count = count_large_poles(n)
        counts.append({"n": int(n), "count_large": count})
        # one inversion places the whole ladder; if it fails, every rung
        # carries its status
        try:
            poles, status = pole_from_density(n, np.arange(1.0, n + 1.0)).tolist(), ""
        except LightningError as exc:
            poles, status = [math.nan] * n, str(exc)
        for j, pole in enumerate(poles, start=1):
            tapered_model = math.exp(-sigma_best * (math.sqrt(n) - math.sqrt(j)))
            # |large_pole_estimate(n, n - j)|, whose checks 1 <= j <= n passes
            big_model = 8.0 * n / ((2 * (n - j) + 1) ** 2 * math.pi**2)
            rows.append((int(n), j, abs(pole), tapered_model, big_model,
                         count, status))
    meta = {
        "kind": "pole-ladder",
        "n_list": [int(n) for n in n_list],
        "sigma_model": sigma_best,
        "counts": counts,
    }
    return ResultTable(
        columns=("n", "j", "density_pole_mag", "tapered_model", "big_model",
                 "count_large", "status"),
        rows=rows, meta=meta)


def run_verify_bounds(nt_list=(16, 64, 144), vshape_nt_list=(64, 144)) -> ResultTable:
    """Quadrature-error identity, conjectured contour bound, and residue rates.

    Interval rows cover the 3x3 grid (radius near the validity floor, 0.5,
    1.0) x nt_list with the matched step; V-domain rows record the bound
    ratio at |z| = 1 on the opening beta = 1.  Every row's setup is built
    first, and all rows go through one `error_identity_report` call, so
    the table's rectangle integrals share one adaptive pass; a row's
    values do not depend on the other rows.  Pass flags are stored as 0/1
    ints.
    """
    setups = [ContourSetup(r, nt) for nt in nt_list
              for r in (validity_floor(TrapApproximant(nt)), 0.5, 1.0)]
    setups += [ContourSetup(1.0, nt, 1.0) for nt in vshape_nt_list]
    rows = []
    for setup, report in zip(setups, error_identity_report(setups)):
        t_param = setup.rule.t_param
        scale = math.exp(-t_param)
        rows.append((
            float(setup.beta), int(setup.nt), float(setup.radius), t_param,
            abs(report.lhs), report.defect, int(report.identity_pass),
            abs(report.terms.end_ints),
            abs(report.terms.gamma_int),
            abs(report.terms.residue_term),
            scale,
            report.gamma_ratio, report.conj_bound, int(report.conj_pass),
            abs(report.terms.residue_term) / scale,
        ))
    meta = {
        "kind": "verify-bounds",
        "nt_list": [int(n) for n in nt_list],
        "vshape_nt_list": [int(n) for n in vshape_nt_list],
        "vshape_beta": 1.0,
        "tol": ContourSetup.tol,
        "residue_rates_matched": residue_rate_check(default_step(0.0), nt_list),
        "residue_rates_mismatched": residue_rate_check(math.pi**2, nt_list),
    }
    return ResultTable(
        columns=("beta", "nt", "radius", "t_param", "i_minus_s_abs",
                 "identity_defect", "identity_pass", "end_ints_abs",
                 "gamma_abs", "residue_abs", "exp_neg_t", "gamma_ratio",
                 "conj_bound", "conj_pass", "residue_ratio"),
        rows=rows, meta=meta)
