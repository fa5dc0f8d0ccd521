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

from .contour import ContourSetup, error_identity_report, residue_rate_check
from .density import count_large_poles, large_pole_estimate, pole_from_density
from .errors import InputError, LightningError, NumericError
from .fitting import DEFAULT_TSVD_EPS, BasisSpec, FitReport, fit, fit_nested
from .poles import big_poles, tapered_poles, uniform_poles
from .problems import Domain, Target, build_fit_grid
from .tables import ResultTable
from .trapezoid import TrapApproximant, default_step

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
VAL_PER_ARM = 10000  # validation-grid points per arm of every fit
SIGMA_MIN = 2.0  # the sigma sweeps' grids start here


def poly_degree_rule(n1: int) -> int:
    """Polynomial degree that balances the clustered poles: ceil(1.3 sqrt(N1))."""
    if n1 < 1:
        raise InputError(f"pole count must be >= 1, got {n1}")
    return math.ceil(1.3 * math.sqrt(n1))


# the report of a failed row: nan errors, rank 0
_FAILED = FitReport(max_err=math.nan, resid_2norm=math.nan,
                    coeff_2norm=math.nan, eff_rank=0)


def _sweep(target, domain, per_arm, eps_rel, keys, spec_of, decades=16.0):
    """Fit spec_of(key) for each key in one fit_nested call, on the fit and
    validation grids of the domain it builds, after building every spec;
    raises the first key's error when none can be built.  Returns
    [(key, report, "")] in key order, with (key, _FAILED, reason) where the
    spec or the fit raised a LightningError.
    """
    grid = build_fit_grid(domain, decades=decades, per_arm=per_arm)
    vgrid = build_fit_grid(domain, decades=decades, per_arm=VAL_PER_ARM)
    keys = list(keys)
    specs, results = {}, {}  # by key index; a result is a report or an error
    for i, key in enumerate(keys):
        try:
            specs[i] = spec_of(key)
        except LightningError as exc:
            results[i] = exc
    if results and not specs:
        raise results[0]
    for i, result in zip(specs, fit_nested(target, list(specs.values()), grid,
                                           vgrid, eps_rel)):
        results[i] = result if isinstance(result, LightningError) else result[1]
    return [(key, _FAILED, str(results[i])) if isinstance(results[i], LightningError)
            else (key, results[i], "") for i, key in enumerate(keys)]


def run_fit(target: str = "sqrt", alpha: float = 0.5, beta: float = 0.0,
            n1: int = 40, n2: int | None = None, sigma: float | None = None,
            scale: float = 1.0, per_arm: int = 2000, decades: float = 16.0,
            eps_rel: float = DEFAULT_TSVD_EPS) -> ResultTable:
    """One fit of sqrt, x^alpha or x^alpha log x on the opening-beta domain.

    target names a TargetKind; sqrt takes only alpha = 0.5.  n2 defaults to
    ceil(1.3 sqrt(n1)), sigma to 2 sqrt(2 - beta) pi.  Unlike the sweeps,
    a failed fit raises.
    """
    domain, fitted = Domain(beta), Target(target, alpha)
    if n2 is None:
        n2 = poly_degree_rule(n1)
    if sigma is None:
        sigma = _vshape_sigma("opening-matched", beta)
    spec = BasisSpec(tapered_poles(n1, sigma, scale), poly_degree=n2)
    grid = build_fit_grid(domain, decades=decades, per_arm=per_arm)
    vgrid = build_fit_grid(domain, decades=decades, per_arm=VAL_PER_ARM)
    _, rep = fit(fitted, spec, grid, vgrid, eps_rel)
    row = (target, fitted.alpha, domain.beta, n1, n2, sigma, scale,
           rep.max_err, rep.coeff_2norm, rep.resid_2norm, rep.eff_rank)
    config = {"target": fitted.kind.value, "alpha": fitted.alpha,
              "beta": domain.beta, "n_clustered": n1, "pole_scheme": "tapered",
              "sigma": sigma, "scale_c": scale, "n_extra": 0, "poly_degree": n2,
              "total_degree": spec.total_degree, "grid_per_arm": per_arm,
              "decades": float(decades), "eps_rel": eps_rel}
    return ResultTable(
        columns=("target", "alpha", "beta", "n1", "n2", "sigma", "scale_c",
                 "max_err", "coeff_2norm", "resid_2norm", "eff_rank"),
        rows=[row], meta={"kind": "fit", "config": config})


def run_convergence(n1_list=DEFAULT_N1_LIST, variants=None, scale: float = 2.0,
                    eps_rel: float = DEFAULT_TSVD_EPS, per_arm: int = 2000,
                    decades: float = 16.0) -> ResultTable:
    """Degree sweep of sqrt(x) fits for every pole/augmentation variant.

    Every row is fitted in one sweep on the shared grids; errors in a row
    are recorded, not raised.
    """
    if variants is None:
        variants = tuple(CONVERGENCE_VARIANTS)
    keys = [(name, n1, 0 if CONVERGENCE_VARIANTS[name][2] == "none"
             else poly_degree_rule(n1)) for name in variants for n1 in n1_list]

    def spec_of(key):
        name, n1, n2 = key
        scheme, sigma, augment = CONVERGENCE_VARIANTS[name]
        poles = _POLE_SCHEMES[scheme](n1, sigma, scale)
        if augment == "big":
            poles = np.concatenate([poles, big_poles(n1 + n2, n2)])
        return BasisSpec(poles, poly_degree=n2 if augment == "poly" else 0)

    rows = []
    for (name, n1, n2), rep, status in _sweep(
            Target.sqrt(), Domain.unit_interval(), per_arm, eps_rel, keys,
            spec_of, decades):
        scheme, sigma, _ = CONVERGENCE_VARIANTS[name]
        rows.append((name, scheme, n1 + n2, n1, n2, sigma, rep.max_err,
                     rep.coeff_2norm, rep.resid_2norm, rep.eff_rank, status))
    meta = {
        "kind": "convergence",
        "target": "sqrt",
        "n1_list": list(n1_list),
        "variants": list(variants),
        "scale": scale,
        "eps_rel": eps_rel,
        "per_arm": per_arm,
        "decades": decades,
        "val_per_arm": VAL_PER_ARM,
    }
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


def run_sigma_sweep(alpha: float = math.pi / 10, n1: int = 10,
                    poly_degree: int = 3, sigma_max: float = 30.0, n_sigma: int = 41,
                    scale: float = 1.0, eps_rel: float = DEFAULT_TSVD_EPS,
                    per_arm: int = 2000, include_plain: bool = True) -> ResultTable:
    """Clustering-parameter sweep for x^alpha on the unit interval.

    Two fit families per sigma: clustered poles with a bare constant, and
    the same poles plus a low-degree polynomial.  The refined argmin of
    each family lands in the metadata next to the 2 pi / sqrt(alpha) rule.
    """
    BasisSpec.check_poly_degree(poly_degree)  # else the poly family has no argmin
    sigmas = np.geomspace(SIGMA_MIN, sigma_max, n_sigma)
    variants = (("plain", 0), ("poly", poly_degree)) if include_plain \
        else (("poly", poly_degree),)
    keys = [(float(sigma), name, degree) for sigma in sigmas
            for name, degree in variants]
    rows = []
    errs = {name: [] for name, _ in variants}
    for (sigma, name, _), rep, status in _sweep(
            Target.power(alpha), Domain.unit_interval(), per_arm, eps_rel, keys,
            lambda key: BasisSpec(tapered_poles(n1, key[0], scale),
                                  poly_degree=key[2])):
        rows.append((name, sigma, rep.max_err, status))
        errs[name].append(rep.max_err)
    meta = {
        "kind": "sigma-sweep",
        "alpha": alpha,
        "n1": n1,
        "poly_degree": poly_degree,
        "scale": scale,
        "eps_rel": eps_rel,
        "per_arm": per_arm,
        "sigma_grid": [float(s) for s in sigmas],
        "sigma_rule": 2.0 * math.pi / math.sqrt(alpha),
    }
    for name, _ in variants:
        log_err = [math.log(e) if math.isfinite(e) else math.nan for e in errs[name]]
        meta[f"argmin_sigma_{name}"] = refine_argmin(sigmas, log_err)
    return ResultTable(columns=("variant", "sigma", "max_err", "status"),
                       rows=rows, meta=meta)


def run_grid(alpha: float = math.pi / 10,
             n1_list=(4, 9, 16, 25, 36, 49, 64, 81, 100),
             n2_list=tuple(range(0, 16)), sigma: float | None = None,
             eps_rel: float = DEFAULT_TSVD_EPS, per_arm: int = 2000) -> ResultTable:
    """(N1, N2) error surface for x^alpha; where does more polynomial stop helping."""
    target = Target.power(alpha)  # validates alpha
    if sigma is None:
        sigma = 2.0 * math.pi / math.sqrt(alpha)
    rows = [(n1, n2, rep.max_err, status) for (n1, n2), rep, status in _sweep(
        target, Domain.unit_interval(), per_arm, eps_rel,
        [(n1, n2) for n1 in n1_list for n2 in n2_list],
        lambda key: BasisSpec(tapered_poles(key[0], sigma, 1.0),
                              poly_degree=key[1]))]
    near_optimal = []
    for k, n1 in enumerate(n1_list):
        row_errs = [row[2] for row in rows[k * len(n2_list):(k + 1) * len(n2_list)]]
        finite = [e for e in row_errs if math.isfinite(e)]
        if finite:
            best = min(finite)
            chosen = next(n2 for n2, e in zip(n2_list, row_errs)
                          if math.isfinite(e) and e <= 3.0 * best)
            near_optimal.append({"n1": int(n1), "n2": int(chosen),
                                 "best_err": best})
    meta = {
        "kind": "n1-n2-grid",
        "alpha": alpha,
        "sigma": sigma,
        "eps_rel": eps_rel,
        "per_arm": per_arm,
        "n1_list": [int(n) for n in n1_list],
        "n2_list": [int(n) for n in n2_list],
        "near_optimal": near_optimal,
        "n2_rule": "1.1*sqrt(n1) - 1",
    }
    return ResultTable(columns=("n1", "n2", "max_err", "status"),
                       rows=rows, meta=meta)


VSHAPE_SIGMA_RULES = ("tapered-default", "opening-matched", "four")


def _vshape_sigma(rule: str, beta: float) -> float:
    if rule == "tapered-default":
        return 2.0 * math.sqrt(2.0) * math.pi
    if rule == "opening-matched":
        return 2.0 * math.sqrt(2.0 - beta) * math.pi
    if rule == "four":
        return 4.0
    raise LightningError(f"unknown sigma rule {rule!r}")


def run_vshape(beta_list=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5), n1: int = 40,
               n2: int = 10, eps_rel: float = DEFAULT_TSVD_EPS,
               per_arm: int = 2000) -> ResultTable:
    """sqrt(z) on V-domains: one row per (opening, sigma rule)."""
    rows = []
    for beta in beta_list:
        keys = [(rule, _vshape_sigma(rule, beta)) for rule in VSHAPE_SIGMA_RULES]
        for (rule, sigma), rep, status in _sweep(
                Target.sqrt(), Domain.vshape(beta), per_arm, eps_rel, keys,
                lambda key: BasisSpec(tapered_poles(n1, key[1], 1.0),
                                      poly_degree=n2)):
            rows.append((float(beta), rule, sigma, rep.max_err, status))
    meta = {
        "kind": "vshape-angle",
        "target": "sqrt",
        "n1": n1,
        "n2": n2,
        "eps_rel": eps_rel,
        "per_arm": per_arm,
        "beta_list": [float(b) for b in beta_list],
    }
    return ResultTable(columns=("beta", "rule", "sigma", "max_err", "status"),
                       rows=rows, meta=meta)


def corner_target(beta: float) -> Target:
    """Dominant corner behaviour z^{1/beta}, with a log factor at integer powers."""
    exponent = 1.0 / beta
    nearest = round(exponent)
    if abs(exponent - nearest) < 1e-12:
        return Target.power_log(float(nearest))
    return Target.power(exponent)


def corner_sigma_rule(beta: float) -> float:
    """Optimal clustering rule sqrt(2 (2-beta) beta) pi for corner targets."""
    return math.sqrt(2.0 * (2.0 - beta) * beta) * math.pi


def run_corner_sigma(beta_list=(0.5, 1.0, 1.5), n1: int = 20, n2: int = 20,
                     eps_rel: float = DEFAULT_TSVD_EPS,
                     per_arm: int = 2000) -> ResultTable:
    """Per-opening sigma sweep for the corner target z^{1/beta}, over 41
    geometric sigmas from SIGMA_MIN to 30."""
    sigmas = np.geomspace(SIGMA_MIN, 30.0, 41)
    rows = []
    argmins = []
    for beta in beta_list:
        log_err = []
        for sigma, rep, status in _sweep(
                corner_target(beta), Domain.vshape(beta), per_arm, eps_rel,
                [float(s) for s in sigmas],
                lambda sigma: BasisSpec(tapered_poles(n1, sigma, 1.0),
                                        poly_degree=n2)):
            rows.append((float(beta), sigma, rep.max_err, status))
            log_err.append(math.log(rep.max_err) if math.isfinite(rep.max_err)
                           else math.nan)
        argmins.append({"beta": float(beta),
                        "argmin_sigma": refine_argmin(sigmas, log_err),
                        "rule_sigma": corner_sigma_rule(beta)})
    meta = {
        "kind": "corner-sigma",
        "n1": n1,
        "n2": n2,
        "eps_rel": eps_rel,
        "per_arm": per_arm,
        "beta_list": [float(b) for b in beta_list],
        "sigma_grid": [float(s) for s in sigmas],
        "argmin": argmins,
    }
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
        for j in range(1, n + 1):
            try:
                magnitude = abs(pole_from_density(n, float(j)))
                status = ""
            except LightningError as exc:
                magnitude, status = math.nan, str(exc)
            tapered_model = math.exp(-sigma_best * (math.sqrt(n) - math.sqrt(j)))
            big_model = abs(large_pole_estimate(n, n - j))
            rows.append((int(n), int(j), magnitude, tapered_model, big_model,
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
    ratio at |z| = 1 on the opening beta = 1.  Pass flags are stored as 0/1
    ints.
    """
    rows = []
    for beta, nts in ((0.0, tuple(nt_list)), (1.0, tuple(vshape_nt_list))):
        for nt in nts:
            if beta == 0.0:
                radii = (math.exp(4.0 - 2.0 * TrapApproximant(nt).t_param), 0.5, 1.0)
            else:
                radii = (1.0,)
            for r in radii:
                setup = ContourSetup(r, nt, beta)
                report = error_identity_report(setup)
                t_param = setup.rule.t_param
                scale = math.exp(-t_param)
                lhs_abs = abs(report.lhs)
                identity_pass = report.defect <= max(1e-10, 1e-3 * lhs_abs)
                rows.append((
                    float(beta), int(nt), float(r), t_param,
                    lhs_abs, report.defect, int(identity_pass),
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
        "residue_rates_matched": residue_rate_check(
            default_step(0.0), 0.0, nt_list),
        "residue_rates_mismatched": residue_rate_check(
            math.pi**2, 0.0, nt_list),
    }
    return ResultTable(
        columns=("beta", "nt", "radius", "t_param", "i_minus_s_abs",
                 "identity_defect", "identity_pass", "end_ints_abs",
                 "gamma_abs", "residue_abs", "exp_neg_t", "gamma_ratio",
                 "conj_bound", "conj_pass", "residue_ratio"),
        rows=rows, meta=meta)
