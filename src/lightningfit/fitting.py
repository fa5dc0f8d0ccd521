"""Basis, truncated-SVD least squares, and fitted approximants.

The basis is a set of scaled partial fractions p_j / (z - p_j) for the
preassigned poles plus an optional polynomial generated by the
multiply-by-coordinate-then-orthogonalize recurrence (each new column is
z times the previous one, orthogonalized against all earlier polynomial
columns and normalized).  The recurrence coefficients form an upper
Hessenberg matrix that re-evaluates the same polynomials at arbitrary
points, which keeps evaluation stable where a Vandermonde basis would
long have degenerated.  The columns on the fit grid are the recurrence's
own values, so the fit and every later evaluation use the same basis.

The solve truncates singular values below eps_rel times the largest one
and returns the minimum-norm solution, so the basis may be (and with
clustered poles always is) numerically rank deficient on purpose.  It
forms no orthogonal factor: [A | f] is written into one column-major array
(LAPACK's layout) and factored in place by LAPACK's geqrf, so one
Householder QR leaves R = [R_A | R_f] with A's singular values in R_A and
Q^T f in R_f, the truncated SVD runs on a small block of R, and as
Q^T [A | f] = R, the residual ||A c - f|| = ||R_A c - R_f||.
Fits that share their poles and differ in polynomial degree share that
factorization (a `fit_nested` group; `fit` is a group of one): written
at the largest degree with the polynomial columns last, R's leading
n1 + d + 1 columns solve degree d, exactly in exact arithmetic, because
Householder QR factors every column prefix by the leading block of R.

Every problem here is conjugate-symmetric: the poles are real and the
targets satisfy f(conj z) = conj f(z).  So a V-domain grid holds only its
upper arm, and each complex point stands for itself and its mirror image
(_weight decides that once, for the inner product, the row count and the
residual norm).  The row map (s(z), s(conj z)) -> (sqrt(2) Re s(z),
sqrt(2) Im s(z)) is unitary, so the complex system over both arms and
the real system over the upper arm, each point's real row followed by
its imaginary row, have the same singular values up to one common factor
sqrt(2), hence the same truncation rank and the same minimum-norm
solution, which is real.  That row order is the memory layout of a
complex128 array, so values.view(float) is a column of the system; on
the interval it is the identity.  The polynomial block is real rows in
this layout, orthogonalized by the real projection 2 Q^T v, which is
2 Re<u, v> over the arm, both arms' inner product for conjugate-symmetric
columns: its recurrence coefficients are real, its symmetry is exact,
and every BLAS product of a fit is real.  With real coefficients the approximant is
conjugate-symmetric bit for bit, so its maximum error on the upper arm is
exactly that over both arms; the residual norm is reported over both.

`fit_nested` computes what does not depend on the poles once, before any
fit: the target on both grids and the polynomial block on both, at the
largest degree any spec asks for and the grid carries.  The degree-d
block is an exact prefix of the degree-D one, so a lower degree is a
slice, bit for bit what a build at that degree gives.
An approximant is its partial-fraction scales, its polynomial recurrence
and its coefficients; it holds no grid.  Evaluation is matrix-free: the
polynomial block at the points times its coefficients, plus the partial
fractions summed over row chunks of _EVAL_CHUNK points, each chunk's
block built once per group of fits.  `evaluate` and `max_error` share
that routine, so both give the same values bit for bit.  A point's value
does not depend on the other points evaluated with it: the partial-fraction
sums at complex points run through einsum, which calls no BLAS, and the
other products through _matvec, whose padding gives that property on the
BLAS kernel it was checked on (OpenBLAS 0.3.31, Haswell), not on every BLAS.

The poles are real, so at a complex point z = x + iy the partial
fraction is p/(z - p) = p (x - p) / D - i p y / D with D = (x - p)^2 + y^2,
computed in real arithmetic, pole by pole: the system takes its real and
imaginary rows straight from D, and a validation chunk sums
Re = w (G o (x - p)) and Im = -y (w G) with G = p / D.  Points where D
could leave the normal range take complex division instead.  On the
interval the columns are p / (x - p) themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .errors import EvaluationError, InputError, LightningError, NumericError
from .problems import SampleGrid, Target, eval_target

DEFAULT_TSVD_EPS = 2e-14
_EVAL_CHUNK = 4096  # rows of partial-fraction columns evaluated at a time
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


@dataclass(frozen=True)
class BasisSpec:
    """Basis layout: preassigned poles and a polynomial degree.

    The poles are distinct, finite and strictly negative, held as a
    read-only float64 copy, so the caller's array is left as it was.
    poly_degree = -1 means no polynomial columns at all; 0 means a constant
    column only.  The polynomial contributes max(poly_degree, 0) to the
    total degree (a constant adds none).
    """

    poles: np.ndarray = ()
    poly_degree: int = 0

    def __post_init__(self):
        p = np.array(self.poles, dtype=float)
        if p.ndim != 1:
            raise InputError("poles must form a 1-d array")
        if np.any(p >= 0) or not np.all(np.isfinite(p)):
            raise InputError("every pole must be finite and strictly negative")
        if len(np.unique(p)) != len(p):
            raise InputError("poles must be distinct")
        p.flags.writeable = False
        object.__setattr__(self, "poles", p)
        self.check_poly_degree(self.poly_degree)
        if self.n_columns == 0:
            raise InputError("basis is empty")

    @staticmethod
    def check_poly_degree(poly_degree: int):
        if InputError.check_number("poly_degree", poly_degree, integral=True) < -1:
            raise InputError(f"poly_degree must be >= -1, got {poly_degree}")

    @property
    def n_columns(self) -> int:
        return len(self.poles) + self.poly_degree + 1

    @property
    def total_degree(self) -> int:
        return len(self.poles) + max(self.poly_degree, 0)


def _weight(pts: np.ndarray) -> int:
    """How many points each of pts stands for: a complex point (on a
    V-domain's upper arm) itself and its mirror image, a real one itself."""
    return 2 if np.iscomplexobj(pts) else 1


def _poly_chain_build(arm: np.ndarray, degree: int):
    """Orthonormal polynomial columns on a grid's points, degrees 0..degree,
    as real rows in the system's layout (see _write_system), up to where
    the recurrence breaks down: a block that stops at degree k < degree
    is all the grid carries.

    Returns (Q, hess, norm0) where hess holds the real recurrence
    coefficients (including one full reorthogonalization pass folded in),
    norm0 is the normalization of the constant column, and Q holds the
    recurrence's values on the points, bit for bit what _poly_chain_eval
    gives there, so that the fit and every later evaluation use the same
    basis functions.  The columns are orthonormal over the whole grid: on
    a real grid in the plain inner product, on a complex one, where the
    real recurrence makes every column conjugate-symmetric, in
    2 Re<u, v> over the arm.
    """
    weight = _weight(arm)
    norm0 = math.sqrt(weight * len(arm))
    q = np.empty((arm.view(float).size, degree + 1))
    hess = np.zeros((degree + 1, degree))
    q[:, 0] = col = np.ones_like(arm).view(float) / norm0
    for k in range(degree):
        v = (arm * col.view(arm.dtype)).view(float)
        for _ in range(2):  # classical Gram-Schmidt, two passes
            proj = weight * (q[:, : k + 1].T @ v)
            v = v - _matvec(q[:, : k + 1], proj)
            hess[: k + 1, k] += proj
        nrm = math.sqrt(weight) * np.linalg.norm(v)
        if nrm == 0.0:
            return q[:, :k + 1], hess[:k + 1, :k], norm0
        hess[k + 1, k] = nrm
        col = _chain_step(arm, q, hess, k, col)
    return q, hess, norm0


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x with each row's value independent of the number of rows.

    BLAS matrix-vector kernels such as OpenBLAS's work on rows in groups
    of four and round the leftover rows differently; a one-row product
    even goes to another routine.  So a is padded with zero rows to a
    multiple of four, and a point's value, one row or, on a complex arm,
    its real and imaginary rows, does not depend on how many points share
    the call.  That rests on how the BLAS kernel groups its rows: it
    holds on OpenBLAS 0.3.31's Haswell kernel, and the property test
    checks it on whatever BLAS it runs with.  A BLAS that groups rows
    otherwise would need einsum here too (see _vecmat), at about 2.7 times
    the GEMV's cost per 4096 x 20 block.
    """
    rows = len(a)
    if rows % 4:
        a = np.concatenate([a, np.zeros((-rows % 4, a.shape[1]), dtype=a.dtype)])
    return (a @ x)[:rows]


def _vecmat(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x @ a with each column's value independent of the number of columns.

    einsum runs over a's columns in its inner loop and sums over the rows
    in the same order at every column; a single column it would sum as one
    reduction, in another order, so it is computed as two.
    """
    if a.shape[1] == 1:
        return np.einsum("j,ji->i", x, np.repeat(a, 2, axis=1))[:1]
    return np.einsum("j,ji->i", x, a)


def _chain_step(pts: np.ndarray, w: np.ndarray, hess: np.ndarray, k: int,
                col: np.ndarray) -> np.ndarray:
    """Write column k + 1 of the recurrence at pts into w, from its columns
    0..k, all real rows in the system's layout, and return it; col is
    column k, contiguous, so that it views as complex on a complex arm."""
    v = (pts * col.view(pts.dtype)).view(float) - _matvec(w[:, : k + 1], hess[: k + 1, k])
    w[:, k + 1] = v = v / hess[k + 1, k]
    return v


def _poly_chain_eval(pts: np.ndarray, hess: np.ndarray, norm0: float) -> np.ndarray:
    """Re-evaluate the recurrence polynomials at new points (a contiguous
    float64 or complex128 array), as real rows in the system's layout."""
    w = np.empty((pts.view(float).size, hess.shape[1] + 1))
    w[:, 0] = col = np.ones_like(pts).view(float) / norm0
    for k in range(hess.shape[1]):
        col = _chain_step(pts, w, hess, k, col)
    return w


def _partial_fraction_columns(pts: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Unscaled p / (z - p) at pts, a row per point or per pole as broadcast."""
    diff = pts - poles
    if np.any(diff == 0):
        raise EvaluationError("a point coincides with a pole")
    return np.divide(poles, diff, out=diff)


def _pf_kernel(z: np.ndarray, poles: np.ndarray):
    """p/(z - p) at complex points z = x + iy for real poles p, in real
    arithmetic: p/(z - p) = p (dx - iy) / D with dx = x - p and
    D = dx^2 + y^2.

    Returns (d, dx, hard, exact), d and dx pole by pole: one row per pole,
    one column per point.  At the points indexed by hard, where a D or p/D
    could leave the normal range (within about 1e-154 of a pole, or so
    far out that D overflows or p/D underflows), the values are `exact`,
    one row per point, from complex division, which raises where a point
    is a pole (None when hard is empty); there d is inf and dx 0.  Each
    point is decided on its own, so its value does not depend on the
    other points.
    """
    p_min, p_max = float(np.min(np.abs(poles))), float(np.max(np.abs(poles)))
    d_lo = max(_TINY, p_max / _HUGE)  # D >= d_lo: D normal, p/D finite
    z_max = math.sqrt(min(_HUGE, p_min / _TINY)) - p_max  # |z| <= z_max: D, p/D normal
    y = z.imag
    dx = np.ascontiguousarray(z.real) - poles[:, None]
    with np.errstate(over="ignore"):
        y2 = y * y
        d = np.square(dx)
        d += y2
    near = y2 < d_lo  # only here can D fall below d_lo
    if near.any():
        near[near] = d[:, near].min(axis=0) < d_lo
    hard = np.flatnonzero(near | ~(np.abs(z) <= z_max))
    exact = _partial_fraction_columns(z[hard, None], poles) if len(hard) else None
    d[:, hard], dx[:, hard] = np.inf, 0.0
    return d, dx, hard, exact


def _write_partial_fractions(rows: np.ndarray, arm: np.ndarray,
                             poles: np.ndarray) -> np.ndarray:
    """Write the partial fractions p/(z - p) on a grid's upper arm into the
    real system's rows, pole by pole, each column divided by its maximum
    modulus on the arm, and return those scales.  On a complex arm each
    point's real part p (x - p) / D goes into an even row and its imaginary
    part -p y / D into the next, written straight from D: the largest
    modulus |p| / sqrt(D) sits at the smallest D."""
    if not np.iscomplexobj(arm):
        pf = _partial_fraction_columns(arm, poles[:, None])
        scales = np.abs(pf).max(axis=1)
        _check_scales(scales)
        np.divide(pf, scales[:, None], out=rows.T)
        return scales
    d, dx, hard, exact = _pf_kernel(arm, poles)
    scales = np.abs(poles) / np.sqrt(d.min(axis=1))
    if len(hard):
        scales = np.maximum(scales, np.abs(exact).max(axis=0))
    _check_scales(scales)
    g = np.divide((poles / scales)[:, None], d, out=d)
    np.multiply(g, dx, out=rows[0::2].T)
    np.multiply(g, -arm.imag, out=rows[1::2].T)
    if len(hard):
        exact /= scales
        rows[2 * hard], rows[2 * hard + 1] = exact.real, exact.imag
    return scales


def _check_eps(eps_rel: float):
    """A cutoff above 1 would keep no singular value at all."""
    if not 0 < InputError.check_number("eps_rel", eps_rel) <= 1:
        raise InputError(f"eps_rel must lie in (0, 1], got {eps_rel}")


def _check_scales(scales: np.ndarray):
    if np.any(scales == 0):
        raise NumericError("a partial-fraction column vanished on the grid")


def _write_system(grid: SampleGrid, spec: BasisSpec, fvec: np.ndarray, block):
    """(system, pf_scales): the real system [PF | Q | f] in one
    column-major array, f the target on the grid.  Its rows are on a
    V-domain each point's real part, then its imaginary part
    (values.view(float)); on the interval the columns themselves.  Q is
    the leading columns of the polynomial block (None without one)."""
    poles, n = spec.poles, spec.n_columns
    system = np.empty((_weight(grid.points) * len(grid), n + 1), order="F")
    scales = np.empty(0)
    if len(poles):
        scales = _write_partial_fractions(system[:, :len(poles)], grid.points, poles)
    if spec.poly_degree >= 0:
        system[:, len(poles):n] = block[:, :spec.poly_degree + 1]
    system[:, n] = fvec.view(float)
    return system, scales


def _factor(system: np.ndarray) -> np.ndarray:
    """R of one Householder QR of the augmented system [A | f], factored in
    place by LAPACK's dgeqrf: the float64 column-major system _write_system
    writes is overwritten with R and the reflectors.  The call and its
    workspace are numpy.linalg.qr's, so R is bit for bit numpy's, and
    C-contiguous like it.  lapack_lite checks the arrays' dtype and layout
    but not their sizes, so every size passed is read off the arrays
    passed with it, nor the writeable flag, which the caller answers for."""
    # min and max propagate nan and allocate no m x n mask
    if not (np.isfinite(np.min(system)) and np.isfinite(np.max(system))):
        raise NumericError("the least-squares system has non-finite entries")
    m, n = system.shape
    tau = np.empty(min(m, n))

    def geqrf(work, lwork):  # lapack_lite takes the C-order transpose
        return lapack_lite.dgeqrf(m, n, system.T, max(1, m), tau, work, lwork, 0)["info"]

    query = np.empty(1)
    info = geqrf(query, -1)  # the optimal workspace size, into query[0]
    if not info:
        work = np.empty(max(1, n, int(query[0])))
        info = geqrf(work, len(work))
    if info:
        raise NumericError(f"geqrf failed with info = {info}")
    return np.triu(system[:min(m, n)])


def _solve_r(r: np.ndarray, n: int, eps_rel: float):
    """(coeffs, effective_rank) of A's leading n columns, from R of [A | f]:
    R's leading columns stand in for A's, its last column for Q^T f."""
    rows = min(len(r), n + 1)
    try:
        u, s, vh = np.linalg.svd(r[:rows, :n], full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd failed: {exc}") from exc
    rank = int(np.count_nonzero(s >= eps_rel * s[0]))
    if s[0] == 0.0 or rank == 0:
        raise NumericError("all singular values below threshold; matrix is degenerate")
    coeffs = vh[:rank].T @ ((u[:, :rank].T @ r[:rows, -1]) / s[:rank])
    return coeffs, rank


@dataclass(frozen=True)
class Approximant:
    """A fitted rational function: coefficients of the partial fractions
    p/(z - p) divided by pf_scales, then of the recurrence's polynomials
    (hess and norm0 are None without polynomial columns)."""

    spec: BasisSpec
    pf_scales: np.ndarray
    hess: np.ndarray | None
    norm0: float | None
    coeffs: np.ndarray

    def __call__(self, pts):
        return evaluate(self, pts)


@dataclass(frozen=True)
class FitReport:
    max_err: float
    resid_2norm: float
    coeff_2norm: float
    eff_rank: int


def _approximant_values(approxes, pts: np.ndarray, polys) -> list:
    """Values at pts of approximants sharing poles and scales, given their
    polynomial blocks there (or None); one partial-fraction block per chunk."""
    poles, scales = approxes[0].spec.poles, approxes[0].pf_scales
    n_pf = len(scales)
    outs = [np.zeros(len(pts), dtype=pts.dtype) for _ in approxes]
    if n_pf:
        weights = [a.coeffs[:n_pf] / scales for a in approxes]
        for start in range(0, len(pts), _EVAL_CHUNK):
            rows = slice(start, start + _EVAL_CHUNK)
            for out, values in zip(outs, _pf_sums(pts[rows], poles, weights)):
                out[rows] = values
    for out, a, poly in zip(outs, approxes, polys):
        if poly is not None:
            out.view(float)[:] += _matvec(poly, a.coeffs[n_pf:])
    return outs


def _pf_sums(pts: np.ndarray, poles: np.ndarray, weights) -> list:
    """sum_j w_j p_j / (z - p_j) at pts for each real weight vector w.  On
    complex points Re = w (g o dx) and Im = -y (w g), with g = p / D
    (see _pf_kernel)."""
    if not np.iscomplexobj(pts):
        block = _partial_fraction_columns(pts[:, None], poles)
        return [_matvec(block, w) for w in weights]
    d, dx, hard, exact = _pf_kernel(pts, poles)
    g = np.divide(poles[:, None], d, out=d)
    gdx = np.multiply(g, dx, out=dx)

    def weighted_sum(w):
        values = np.empty(len(pts), dtype=complex)
        values.real = _vecmat(w, gdx)
        values.imag = -pts.imag * _vecmat(w, g)
        if len(hard):
            values[hard] = _matvec(exact, w)
        return values

    return [weighted_sum(w) for w in weights]


def evaluate(approx: Approximant, pts) -> np.ndarray:
    """Evaluate the approximant at finite points of any shape, real as
    float64, complex as complex128.  Raises InputError at a point that is
    not finite or coincides with a pole, NumericError where a value
    overflows."""
    pts = np.asarray(pts)
    flat = np.ascontiguousarray(pts.ravel(),
                                dtype=complex if np.iscomplexobj(pts) else float)
    if not np.all(np.isfinite(flat)):
        raise InputError("evaluation points must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        poly = None if approx.hess is None else \
            _poly_chain_eval(flat, approx.hess, approx.norm0)
        values = _approximant_values([approx], flat, [poly])[0]
    if not np.all(np.isfinite(values)):
        raise NumericError("the approximant overflows at a point")
    return values.reshape(pts.shape)[()]


def max_error(approx: Approximant, target: Target, grid: SampleGrid) -> float:
    """Max modulus deviation from the target over the grid, and on a
    V-domain over its mirror image too: the approximant and the target are
    conjugate-symmetric bit for bit, so the mirror repeats their values."""
    return float(np.max(np.abs(evaluate(approx, grid.points)
                               - eval_target(target, grid.points))))


def fit(target: Target, spec: BasisSpec, grid: SampleGrid,
        validation_grid: SampleGrid, eps_rel: float = DEFAULT_TSVD_EPS):
    """Least-squares fit of the target over the fit grid.

    Returns (Approximant, FitReport).  The report's max_err is measured on
    the validation grid, not the fit grid.  A sweep passes all its specs
    to one `fit_nested` call instead, which shares the pole-independent
    work.
    """
    result, = fit_nested(target, [spec], grid, validation_grid, eps_rel)
    if isinstance(result, LightningError):
        raise result
    return result


def fit_nested(target: Target, specs, grid: SampleGrid, validation_grid: SampleGrid,
               eps_rel: float = DEFAULT_TSVD_EPS) -> list:
    """Fit every spec of a sweep on the same grids, whatever its poles.

    What does not depend on the poles is computed first, once: the target
    on both grids and the polynomial block on both, at the largest degree
    any spec asks for and the fit grid carries.  That decides each spec's
    degree failure: InputError at a degree the grid's rows cannot carry,
    NumericError past a breakdown of the recurrence.  The other specs that
    share their poles form a group: one system, written and factored once
    at the group's largest degree, solves every degree in it, and one
    validation pass serves them all.  Returns per spec `fit`'s
    (Approximant, FitReport) or the LightningError it raised.  An eps_rel
    outside (0, 1], or two grids on different domains, raises InputError
    before any fit.
    """
    _check_eps(eps_rel)
    if grid.domain != validation_grid.domain:
        raise InputError(f"a fit grid on beta = {grid.domain.beta} cannot be "
                         f"validated on beta = {validation_grid.domain.beta}")
    specs = list(specs)
    rows = _weight(grid.points) * len(grid)
    carried = max((s.poly_degree for s in specs if s.poly_degree < rows), default=-1)
    chain = (None, None, None)
    if carried >= 0:
        chain = _poly_chain_build(grid.points, carried)
        carried = chain[1].shape[1]  # lower where the recurrence broke down
    fvec, vpts = eval_target(target, grid.points), validation_grid.points
    with np.errstate(over="ignore", invalid="ignore"):
        validation = (vpts, eval_target(target, vpts),
                      None if carried < 0 else _poly_chain_eval(vpts, *chain[1:]))
    results, groups = [None] * len(specs), {}
    for i, spec in enumerate(specs):
        if spec.poly_degree >= rows:
            results[i] = InputError(f"polynomial degree {spec.poly_degree} needs "
                                    f"more than the grid's {rows} points")
        elif spec.poly_degree > carried:
            results[i] = NumericError("grid cannot support the requested polynomial degree")
        else:
            groups.setdefault(spec.poles.tobytes(), []).append(i)
    for group in groups.values():
        fits = _fit_group([specs[i] for i in group], grid, eps_rel, fvec, chain,
                          validation)
        for i, result in zip(group, fits):
            results[i] = result
    return results


def _fit_group(specs, grid: SampleGrid, eps_rel: float, fvec: np.ndarray, chain,
               validation) -> list:
    """fit_nested's results for specs that share their poles and
    whose degrees the grid carries, all from one system at their largest
    degree.  fvec is the target on the fit grid, chain the polynomial
    block there with its recurrence (Q, hess, norm0), and validation the
    validation grid's points with the target and the block on them."""
    (q, hess, norm0), (vpts, vvec, vq) = chain, validation
    try:
        system, scales = _write_system(
            grid, max(specs, key=lambda s: s.poly_degree), fvec, q)
        r = _factor(system)
    except LightningError as exc:
        return [exc] * len(specs)
    del system  # the residual norms come from R
    results, solved = [None] * len(specs), {}
    for i, spec in enumerate(specs):
        try:
            coeffs, rank = _solve_r(r, spec.n_columns, eps_rel)
        except NumericError as exc:
            results[i] = exc
            continue
        d = spec.poly_degree
        recurrence = (hess[:d + 1, :d], norm0) if d >= 0 else (None, None)
        solved[i] = (Approximant(spec, scales, *recurrence, coeffs), rank)
    approxes = [a for a, _ in solved.values()]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = _approximant_values(approxes, vpts, [
                None if a.hess is None else vq[:, :a.spec.poly_degree + 1]
                for a in approxes]) if approxes else []
            errs = [float(np.max(np.abs(v - vvec))) for v in values]
    except LightningError as exc:
        errs = [exc] * len(solved)
    for (i, (a, rank)), err in zip(solved.items(), errs):
        if isinstance(err, LightningError):
            results[i] = err
        elif not math.isfinite(err):
            results[i] = NumericError("the approximant overflows on the validation grid")
        else:
            results[i] = (a, FitReport(
                max_err=err,
                resid_2norm=math.sqrt(_weight(grid.points)) * float(np.linalg.norm(
                    r[:, :a.spec.n_columns] @ a.coeffs - r[:, -1])),
                coeff_2norm=float(np.linalg.norm(a.coeffs)),
                eff_rank=rank))
    return results
