"""Design matrices, truncated-SVD least squares, and fitted approximants.

The basis is a set of scaled partial fractions p_j / (z - p_j) for the
preassigned poles plus an optional polynomial generated by the
multiply-by-coordinate-then-orthogonalize recurrence (each new column is
z times the previous one, orthogonalized against all earlier polynomial
columns and normalized).  The recurrence coefficients form an upper
Hessenberg matrix that re-evaluates the same polynomials at arbitrary
points, which keeps evaluation stable where a Vandermonde basis would
long have degenerated.

The least-squares solve truncates singular values below eps_rel times the
largest one and returns the minimum-norm solution, so the basis may be
(and with clustered poles always is) numerically rank deficient on
purpose.

What does not depend on the poles is computed once per grid and kept in
the grid's derived data: the target values, the polynomial block on the
fit grid, and that block's values on a validation grid.  The block is
kept at the highest degree built so far; the recurrence makes the
degree-d columns and coefficients exact prefixes of the degree-D ones,
so a lower degree is served as a slice, bit for bit what a build at that
degree gives.  Partial-fraction columns move with the poles and are
never kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, InputError, NumericError
from .poles import PoleSet
from .problems import (ApproxProblem, SampleGrid, Target, build_fit_grid,
                       build_validation_grid, eval_target)

DEFAULT_TSVD_EPS = 2e-14


@dataclass(frozen=True)
class BasisSpec:
    """Basis layout: clustered poles, optional extra finite poles, polynomial degree.

    poly_degree = -1 means no polynomial columns at all; 0 means a constant
    column only.  The polynomial contributes max(poly_degree, 0) to the
    total degree (a constant adds none).
    """

    clustered: PoleSet | None = None
    extra_finite: PoleSet | None = None
    poly_degree: int = 0

    def __post_init__(self):
        if self.poly_degree < -1:
            raise InputError(f"poly_degree must be >= -1, got {self.poly_degree}")
        if self.n_columns == 0:
            raise InputError("basis is empty")

    @property
    def finite_poles(self) -> np.ndarray:
        parts = []
        if self.clustered is not None:
            parts.append(self.clustered.poles)
        if self.extra_finite is not None:
            parts.append(self.extra_finite.poles)
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    @property
    def n_columns(self) -> int:
        return len(self.finite_poles) + self.poly_degree + 1

    @property
    def total_degree(self) -> int:
        return len(self.finite_poles) + max(self.poly_degree, 0)


def _poly_chain_build(z: np.ndarray, degree: int):
    """Orthonormal polynomial columns on the grid z, degrees 0..degree.

    Returns (Q, hess, norm0) where Q has orthonormal columns in the plain
    Euclidean inner product, hess holds the recurrence coefficients
    (including one full reorthogonalization pass folded in), and norm0 is
    the normalization of the constant column.
    """
    m = len(z)
    dtype = complex if np.iscomplexobj(z) else float
    q = np.empty((m, degree + 1), dtype=dtype)
    norm0 = math.sqrt(m)
    q[:, 0] = 1.0 / norm0
    hess = np.zeros((degree + 1, degree), dtype=dtype)
    for k in range(degree):
        v = z * q[:, k]
        for _ in range(2):  # classical Gram-Schmidt, two passes
            proj = q[:, : k + 1].conj().T @ v
            v = v - q[:, : k + 1] @ proj
            hess[: k + 1, k] += proj
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise NumericError("grid cannot support the requested polynomial degree")
        hess[k + 1, k] = nrm
        q[:, k + 1] = v / nrm
    return q, hess, norm0


def _poly_chain_eval(pts: np.ndarray, hess: np.ndarray, norm0: float) -> np.ndarray:
    """Re-evaluate the recurrence polynomials at new points."""
    degree = hess.shape[1]
    dtype = complex if (np.iscomplexobj(pts) or np.iscomplexobj(hess)) else float
    w = np.empty((len(pts), degree + 1), dtype=dtype)
    w[:, 0] = 1.0 / norm0
    for k in range(degree):
        v = pts * w[:, k] - w[:, : k + 1] @ hess[: k + 1, k]
        w[:, k + 1] = v / hess[k + 1, k]
    return w


def _partial_fraction_columns(pts: np.ndarray, poles: np.ndarray) -> np.ndarray:
    diff = pts[:, None] - poles[None, :]
    if np.any(diff == 0):
        raise EvaluationError("a point coincides with a pole")
    return poles[None, :] / diff


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _target_values(target: Target, grid: SampleGrid) -> np.ndarray:
    """The target on the grid's points, evaluated once per (grid, target)."""
    key = ("target", target)
    if key not in grid._derived:
        grid._derived[key] = _frozen(eval_target(target, grid.points))
    return grid._derived[key]


def _poly_block(grid: SampleGrid, degree: int):
    """(Q, hess, norm0) of the grid's polynomial chain up to `degree`."""
    block = grid._derived.get("poly")
    if block is None or block[1].shape[1] < degree:
        q, hess, norm0 = _poly_chain_build(grid.points, degree)
        block = grid._derived["poly"] = (_frozen(q), _frozen(hess), norm0)
    q, hess, norm0 = block
    return q[:, : degree + 1], hess[: degree + 1, :degree], norm0


def _poly_values(design: DesignMatrix, grid: SampleGrid) -> np.ndarray:
    """The design's polynomial columns on `grid`, evaluated once per fit grid."""
    degree = design.spec.poly_degree
    key = ("poly_at", id(design.grid))
    entry = grid._derived.get(key)
    if entry is None or entry[1].shape[1] <= degree:
        # the entry holds the fit grid, so that its id is not reused
        w = _poly_chain_eval(grid.points, design.poly_hess, design.poly_norm0)
        entry = grid._derived[key] = (design.grid, _frozen(w))
    return entry[1][:, : degree + 1]


@dataclass(frozen=True)
class DesignMatrix:
    """Sampled basis: column order is clustered poles, extra poles, polynomial 0..N2."""

    matrix: np.ndarray
    grid: SampleGrid
    spec: BasisSpec
    pf_scales: np.ndarray
    poly_hess: np.ndarray | None
    poly_norm0: float

    @property
    def shape(self):
        return self.matrix.shape

    def columns_at(self, pts: np.ndarray) -> np.ndarray:
        """Rebuild the basis columns at arbitrary points."""
        pts = np.atleast_1d(np.asarray(pts))
        poly = None
        if self.poly_hess is not None:
            poly = _poly_chain_eval(pts, self.poly_hess, self.poly_norm0)
        return self._columns(pts, poly)

    def _columns(self, pts: np.ndarray, poly: np.ndarray | None) -> np.ndarray:
        """Basis columns at pts, given the polynomial block there (or None)."""
        blocks = []
        poles = self.spec.finite_poles
        if len(poles):
            blocks.append(_partial_fraction_columns(pts, poles) / self.pf_scales)
        if poly is not None:
            blocks.append(poly)
        return np.hstack(blocks)


def build_design_matrix(grid: SampleGrid, spec: BasisSpec) -> DesignMatrix:
    """Sample the basis on the fit grid.

    Partial-fraction columns are p/(z-p) rescaled to unit discrete max
    modulus on the grid; polynomial columns are discretely orthonormal.
    """
    if spec.poly_degree >= len(grid):
        raise InputError(f"polynomial degree {spec.poly_degree} needs more than "
                         f"the grid's {len(grid)} points")
    z = grid.points
    blocks = []
    poles = spec.finite_poles
    if len(poles):
        pf = _partial_fraction_columns(z, poles)
        scales = np.abs(pf).max(axis=0)
        if np.any(scales == 0):
            raise NumericError("a partial-fraction column vanished on the grid")
        pf = pf / scales
        blocks.append(pf)
    else:
        scales = np.empty(0)

    poly_hess = None
    norm0 = math.sqrt(len(z))
    if spec.poly_degree >= 0:
        q, poly_hess, norm0 = _poly_block(grid, spec.poly_degree)
        blocks.append(q)

    return DesignMatrix(matrix=np.hstack(blocks), grid=grid, spec=spec,
                        pf_scales=scales, poly_hess=poly_hess, poly_norm0=norm0)


def tsvd_solve(a, f: np.ndarray, eps_rel: float = DEFAULT_TSVD_EPS):
    """Minimum-norm least squares keeping singular values >= eps_rel * s_max.

    Returns (coeffs, effective_rank).
    """
    mat = a.matrix if isinstance(a, DesignMatrix) else np.asarray(a)
    f = np.asarray(f)
    if mat.shape[0] != len(f):
        raise InputError("matrix and data lengths differ")
    if eps_rel <= 0:
        raise InputError(f"eps_rel must be positive, got {eps_rel}")
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    if not np.all(np.isfinite(s)) or s[0] == 0.0:
        raise NumericError("all singular values below threshold; matrix is degenerate")
    rank = int(np.count_nonzero(s >= eps_rel * s[0]))
    if rank == 0:
        raise NumericError("all singular values below threshold; matrix is degenerate")
    coeffs = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ f) / s[:rank])
    return coeffs, rank


@dataclass(frozen=True)
class Approximant:
    """A fitted rational function: partial fractions plus polynomial."""

    design: DesignMatrix
    coeffs: np.ndarray
    domain: object

    def __call__(self, pts):
        return evaluate(self, pts)


@dataclass(frozen=True)
class FitReport:
    max_err: float
    resid_2norm: float
    coeff_2norm: float
    eff_rank: int
    config: dict = field(default_factory=dict)


def evaluate(approx: Approximant, pts) -> np.ndarray:
    """Evaluate the approximant; raises if a point coincides with a pole."""
    pts = np.asarray(pts)
    scalar = pts.ndim == 0
    cols = approx.design.columns_at(np.atleast_1d(pts))
    out = cols @ approx.coeffs
    return out[0] if scalar else out


def max_error(approx: Approximant, target: Target, grid: SampleGrid) -> float:
    """Max modulus deviation from the target over the grid."""
    design = approx.design
    poly = None if design.poly_hess is None else _poly_values(design, grid)
    values = design._columns(grid.points, poly) @ approx.coeffs
    return float(np.max(np.abs(values - _target_values(target, grid))))


def fit(problem: ApproxProblem, spec: BasisSpec, grid: SampleGrid | None = None,
        eps_rel: float = DEFAULT_TSVD_EPS,
        validation_grid: SampleGrid | None = None):
    """Least-squares fit of the target over the fit grid.

    Returns (Approximant, FitReport).  The report's max_err is measured on
    the denser validation grid, not the fit grid; by default that grid
    spans the fit grid's decades.  Reusing both grids across fits lets
    the work that does not depend on the poles be done once.
    """
    if grid is None:
        grid = build_fit_grid(problem.domain)
    design = build_design_matrix(grid, spec)
    fvec = _target_values(problem.target, grid)
    coeffs, rank = tsvd_solve(design, fvec, eps_rel)
    approx = Approximant(design=design, coeffs=coeffs, domain=problem.domain)
    if validation_grid is None:
        validation_grid = build_validation_grid(problem.domain,
                                                decades=grid.decades)
    with np.errstate(over="ignore", invalid="ignore"):
        err = max_error(approx, problem.target, validation_grid)
    if not math.isfinite(err):
        raise NumericError("the approximant overflows on the validation grid")
    resid = float(np.linalg.norm(design.matrix @ coeffs - fvec))
    clustered = spec.clustered
    report = FitReport(
        max_err=err,
        resid_2norm=resid,
        coeff_2norm=float(np.linalg.norm(coeffs)),
        eff_rank=rank,
        config={
            "target": problem.target.kind.value,
            "alpha": problem.target.alpha,
            "beta": problem.domain.beta,
            "n_clustered": 0 if clustered is None else len(clustered),
            "pole_scheme": None if clustered is None else clustered.scheme,
            "sigma": None if clustered is None else clustered.params.get("sigma"),
            "scale_c": None if clustered is None else clustered.params.get("scale"),
            "n_extra": 0 if spec.extra_finite is None else len(spec.extra_finite),
            "poly_degree": spec.poly_degree,
            "total_degree": spec.total_degree,
            "grid_per_arm": grid.per_arm,
            "decades": grid.decades,
            "eps_rel": eps_rel,
        },
    )
    return approx, report
