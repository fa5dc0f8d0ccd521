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
fit: the target on the fit grid and the polynomial block there, at the
largest degree any spec asks for and the grid carries.  The degree-d
block is an exact prefix of the degree-D one, so a lower degree is a
slice, bit for bit what a build at that degree gives.  It solves every
group of fits first and then validates them all in one pass over the
validation grid, chunk by chunk: per chunk one evaluation of the target,
of the polynomial block and of the points' pole-independent parts
(_point_parts), shared by every group, one partial-fraction block per
group, and a running maximum per fit.  Validation holds no array of the
validation grid's size but its points.
An approximant is its partial-fraction scales, its polynomial recurrence
and its coefficients; it holds no grid.  Evaluation is matrix-free: the
polynomial block times its coefficients plus the partial fractions,
summed over chunks of points that hold at most _CHUNK_ENTRIES float64
entries of basis values (see _chunk_points), each chunk's
partial-fraction block built once per group of fits.  No chunk holds a
(points x poles) array but those entries: a point on a pole is found
from the division's zero-divide flag (_partial_fraction_columns).
`evaluate` and the validation pass share that routine, so `max_error`
and max_err give the same values bit for bit.  A point's value
does not depend on the other points evaluated with it: the partial-fraction
sums at complex points run through einsum, which calls no BLAS, and the
other products through _matvec, whose padding gives that property on the
BLAS kernel it was checked on (OpenBLAS 0.3.31, Haswell), not on every BLAS.

The poles are real, so at a complex point z = x + iy the partial
fraction is p/(z - p) = p (x - p) / D - i p y / D with D = (x - p)^2 + y^2,
computed in real arithmetic.  The system is written one pole at a time,
x - p in its column's real rows and D in one vector of the arm's length,
so the write holds no (poles x points) array beside the system; a chunk
of points builds G = p / D for all its poles at once and sums
Re = w (G o (x - p)) and Im = -y (w G).  Points where D could leave the
normal range take complex division instead; _hard_points decides which,
for the system and the chunks alike.  On the interval the columns are
p / (x - p) themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .errors import InputError, LightningError, NumericError
from .problems import Domain, Target, build_fit_grid, eval_target

DEFAULT_TSVD_EPS = 2e-14
# float64 entries of basis values an evaluation holds per chunk of points:
# 1 MiB, so that a chunk's partial-fraction block stays in a 2 MiB per-core
# L2 cache (the Xeon it was timed on) across the products that read it
_CHUNK_ENTRIES = 2**17
FIT_PER_ARM = 2000  # fit-grid points per arm, unless the caller asks for others
VAL_PER_ARM = 10000  # validation-grid points per arm of every fit
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
        p = InputError.check_reals(self.poles, "poles must form a 1-d array of reals")
        if p.ndim != 1:
            raise InputError("poles must form a 1-d array")
        if np.any(p >= 0) or not np.all(np.isfinite(p)):
            raise InputError("every pole must be finite and strictly negative")
        if len(np.unique(p)) != len(p):
            raise InputError("poles must be distinct")
        p.flags.writeable = False
        object.__setattr__(self, "poles", p)
        InputError.check_count("poly_degree", self.poly_degree, least=-1)
        if self.n_columns == 0:
            raise InputError("basis is empty")

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


def _on_a_pole(*_):
    """numpy's floating-point error callback for a zero divide in
    _partial_fraction_columns."""
    raise InputError("a point coincides with a pole")


def _partial_fraction_columns(pts: np.ndarray, poles: np.ndarray,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled p / (z - p) at pts, a row per point or per pole as broadcast,
    written into out if given.  The points are copied into the output
    before the poles are subtracted there, as a ufunc buffers each
    broadcast operand (64 KiB at numpy's default buffer size) and the copy
    none.  A pole is nonzero, so the division is by zero exactly where a
    point is a pole, and its floating-point flag, not a (points x poles)
    mask, finds such a point; the other flags are the caller's to handle."""
    if out is None:
        out = np.empty(np.broadcast_shapes(pts.shape, poles.shape),
                       np.result_type(pts, poles))
    out[...] = pts
    diff = np.subtract(out, poles, out=out)
    with np.errstate(divide="call", call=_on_a_pole):
        return np.divide(poles, diff, out=diff)


def _point_parts(pts: np.ndarray):
    """What the partial fractions at complex points need of the points
    whatever the poles (see _pf_kernel): x, y and y^2, contiguous, and
    |z|, so that one chunk computes them once for every pole group; None
    at real points, which need nothing more."""
    if not np.iscomplexobj(pts):
        return None
    x, y = np.ascontiguousarray(pts.real), np.ascontiguousarray(pts.imag)
    with np.errstate(over="ignore"):
        return x, y, y * y, np.abs(pts)


def _hard_points(z: np.ndarray, poles: np.ndarray, parts):
    """(hard, exact) for complex points z = x + iy and real poles p, parts
    being _point_parts(z): the indices of the points where a D =
    (x - p)^2 + y^2 or p/D could leave the normal range (within about
    1e-154 of a pole, or so far out that D overflows or p/D underflows),
    and p/(z - p) there, one row per point, from complex division, which
    raises where a point is a pole (None when hard is empty).  Each point
    is decided on its own, so its value does not depend on the other
    points; only the points within about 1e-154 of the real axis take
    their D, one (poles x such points) array."""
    x, _, y2, modulus = parts
    p_min, p_max = float(np.min(np.abs(poles))), float(np.max(np.abs(poles)))
    d_lo = max(_TINY, p_max / _HUGE)  # D >= d_lo: D normal, p/D finite
    z_max = math.sqrt(min(_HUGE, p_min / _TINY)) - p_max  # |z| <= z_max: D, p/D normal
    hard = ~(modulus <= z_max)
    near = np.flatnonzero(y2 < d_lo)  # only here can D fall below d_lo
    if len(near):
        with np.errstate(over="ignore"):
            d = np.square(x[near] - poles[:, None])
            d += y2[near]
        hard[near] |= d.min(axis=0) < d_lo
    hard = np.flatnonzero(hard)
    exact = _partial_fraction_columns(z[hard, None], poles) if len(hard) else None
    return hard, exact


def _pf_kernel(z: np.ndarray, poles: np.ndarray, parts=None):
    """p/(z - p) at complex points z = x + iy for real poles p, in real
    arithmetic: p/(z - p) = p (dx - iy) / D with dx = x - p and
    D = dx^2 + y^2.  parts is _point_parts(z), computed here if not given.

    Returns (d, dx, hard, exact), d and dx pole by pole: one row per pole,
    one column per point.  hard and exact are _hard_points': the points
    whose values come from complex division, where d is inf and dx 0.  So
    a chunk of points holds two (poles x points) arrays, which _pf_sums
    turns into p/D and its product with dx in place; _chunk_points counts
    both.
    """
    parts = _point_parts(z) if parts is None else parts
    x, _, y2, _ = parts
    hard, exact = _hard_points(z, poles, parts)
    dx = np.subtract(x, poles[:, None])
    with np.errstate(over="ignore"):
        d = np.square(dx)
        d += y2
    d[:, hard], dx[:, hard] = np.inf, 0.0
    return d, dx, hard, exact


def _write_partial_fractions(rows: np.ndarray, arm: np.ndarray,
                             poles: np.ndarray) -> np.ndarray:
    """Write the partial fractions p/(z - p) on a grid's upper arm into the
    real system's rows, each column divided by its maximum modulus on the
    arm, and return those scales.  On the interval the values are
    computed in the rows themselves.  On a complex arm the columns are
    written one pole at a time, with D = (x - p)^2 + y^2 in one vector of
    the arm's length: x - p goes straight into the column's even rows; the
    scale is |p| / sqrt(min D), the largest modulus, raised to the complex
    division's largest at the points _hard_points takes; and with
    g = (p / scale) / D the even rows become g (x - p), each point's real
    part, and the odd rows -g y, its imaginary part.  So beside the system
    the write holds a few vectors of the arm's length and the hard
    points' values, no (poles x points) array."""
    if not np.iscomplexobj(arm):
        pf = _partial_fraction_columns(arm, poles[:, None], out=rows.T)
        scales = np.maximum(pf.max(axis=1), -pf.min(axis=1))
        _check_scale(scales.min())
        pf /= scales[:, None]
        return scales
    parts = _point_parts(arm)
    x, y, y2, _ = parts
    hard, exact = _hard_points(arm, poles, parts)
    floors = np.abs(exact).max(axis=0) if len(hard) else np.zeros(len(poles))
    scales, minus_y, d = np.empty(len(poles)), -y, np.empty(len(arm))
    with np.errstate(over="ignore"):  # D overflows only at hard points
        for j, (p, floor, dx, im) in enumerate(zip(
                poles.tolist(), floors.tolist(), rows[0::2].T, rows[1::2].T)):
            np.subtract(x, p, out=dx)
            np.square(dx, out=d)
            d += y2
            if len(hard):
                d[hard], dx[hard] = np.inf, 0.0
            scales[j] = scale = max(abs(p) / math.sqrt(d.min()), floor)
            _check_scale(scale)
            g = np.divide(p / scale, d, out=d)
            dx *= g
            np.multiply(g, minus_y, out=im)
    if len(hard):
        # numpy divides a complex by a real s as a product with 1/s, which
        # overflows for s below 1/_HUGE: those columns divide part by part
        small = scales < 1 / _HUGE
        exact /= np.where(small, 1.0, scales)
        exact.real[:, small] /= scales[small]
        exact.imag[:, small] /= scales[small]
        rows[2 * hard], rows[2 * hard + 1] = exact.real, exact.imag
    return scales


def _check_eps(eps_rel: float):
    """A cutoff above 1 would keep no singular value at all."""
    if not 0 < InputError.check_number("eps_rel", eps_rel) <= 1:
        raise InputError(f"eps_rel must lie in (0, 1], got {eps_rel}")


def _check_scale(scale: float):
    if scale == 0:
        raise NumericError("a partial-fraction column vanished on the grid")


def _write_system(points: np.ndarray, spec: BasisSpec, fvec: np.ndarray, block):
    """(system, pf_scales): the real system [PF | Q | f] in one
    column-major array, f the target at the fit grid's points.  Its rows
    are on a V-domain each point's real part, then its imaginary part
    (values.view(float)); on the interval the columns themselves.  Q is
    the leading columns of the polynomial block (None without one)."""
    poles, n = spec.poles, spec.n_columns
    system = np.empty((_weight(points) * len(points), n + 1), order="F")
    scales = np.empty(0)
    if len(poles):
        scales = _write_partial_fractions(system[:, :len(poles)], points, poles)
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


def _chunk_points(n_poles: int, weight: int, degree: int) -> int:
    """Points per chunk of an evaluation: as many as keep what the chunk
    holds within _CHUNK_ENTRIES float64 entries, in a multiple of four, so
    that _matvec pads no chunk but the last.  A point holds
    weight x (n_poles + degree + 1) entries: its degree-`degree`
    polynomial block, weight rows a point, and its partial fractions, one
    (poles x points) array on the interval and two on a V-domain (see
    _pf_kernel).  Beside them a chunk holds a few arrays of one entry a
    point, its target values and _point_parts among them, and numpy's
    buffer for a broadcast operand, 64 KiB.  A chunk of four points, the
    smallest, holds 4 x weight x n_columns entries of a spec's basis;
    _refusal refuses a spec for which that is above the cap."""
    return max(4, _CHUNK_ENTRIES // (weight * (n_poles + degree + 1)) // 4 * 4)


def _chunk_values(approxes, pts: np.ndarray, block, parts):
    """Values at pts of approximants sharing poles and scales, one at a
    time, from one partial-fraction block: block is the polynomial block
    at pts (None if no approximant has one), at least as wide as any
    approximant's, which takes its leading columns, and parts is
    _point_parts(pts)."""
    n_pf = len(approxes[0].pf_scales)
    if n_pf:
        outs = _pf_sums(pts, approxes[0].spec.poles,
                        [a.coeffs[:n_pf] / a.pf_scales for a in approxes], parts)
    else:
        outs = (np.zeros(len(pts), dtype=pts.dtype) for _ in approxes)
    for out, a in zip(outs, approxes):
        if a.hess is not None:
            values = out.view(float)
            values += _matvec(block[:, :a.spec.poly_degree + 1], a.coeffs[n_pf:])
        yield out


def _pf_sums(pts: np.ndarray, poles: np.ndarray, weights, parts):
    """sum_j w_j p_j / (z - p_j) at pts for each real weight vector w, one
    at a time, from one partial-fraction block.  On complex points
    Re = w (g o dx) and Im = -y (w g), with g = p / D and parts
    _point_parts(pts) (see _pf_kernel)."""
    if parts is None:
        block = _partial_fraction_columns(pts[:, None], poles)
        return (_matvec(block, w) for w in weights)
    d, dx, hard, exact = _pf_kernel(pts, poles, parts=parts)
    g = np.divide(poles[:, None], d, out=d)
    gdx = np.multiply(g, dx, out=dx)
    y = parts[1]

    def weighted_sum(w):
        values = np.empty(len(pts), dtype=complex)
        values.real = _vecmat(w, gdx)
        values.imag = -y * _vecmat(w, g)
        if len(hard):
            values[hard] = _matvec(exact, w)
        return values

    return (weighted_sum(w) for w in weights)


def evaluate(approx: Approximant, pts) -> np.ndarray:
    """Evaluate the approximant at finite points of any shape, real as
    float64, complex as complex128.  Raises InputError at a point that is
    not a finite number (see `InputError.check_points`) or coincides with
    a pole, NumericError where a value overflows."""
    pts = InputError.check_points(pts)
    flat = np.ascontiguousarray(pts.ravel())
    values = np.empty_like(flat)
    size = _chunk_points(len(approx.pf_scales), _weight(flat), approx.spec.poly_degree)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(flat), size):
            chunk = flat[start:start + size]
            block = None if approx.hess is None else _poly_chain_eval(
                chunk, approx.hess, approx.norm0)
            values[start:start + size], = _chunk_values(
                [approx], chunk, block, _point_parts(chunk))
    if not np.all(np.isfinite(values)):
        raise NumericError("the approximant overflows at a point")
    return values.reshape(pts.shape)[()]


def max_error(approx: Approximant, target: Target, points) -> float:
    """Max modulus deviation from the target over the points, and over
    their mirror images too: the approximant and the target are
    conjugate-symmetric bit for bit, so the mirror repeats their values.
    Raises InputError on no points, and where `evaluate` does."""
    pts = InputError.check_points(points)
    if pts.size == 0:
        raise InputError("max_error needs at least one point")
    return float(np.max(np.abs(evaluate(approx, pts) - eval_target(target, pts))))


def fit(target: Target, spec: BasisSpec, domain: Domain,
        per_arm: int = FIT_PER_ARM, eps_rel: float = DEFAULT_TSVD_EPS):
    """Least-squares fit of the target over `build_fit_grid(domain, per_arm)`.

    Returns (Approximant, FitReport).  max_err is measured on VAL_PER_ARM
    log-spaced points per arm of the domain, not on the fit grid;
    `max_error` measures at any other points.  A sweep passes all its
    specs to one `fit_nested` call instead, which shares the pole-independent work.
    """
    result, = fit_nested(target, [spec], domain, per_arm, eps_rel)
    if isinstance(result, LightningError):
        raise result
    return result


def fit_nested(target: Target, specs, domain: Domain,
               per_arm: int = FIT_PER_ARM, eps_rel: float = DEFAULT_TSVD_EPS) -> list:
    """Fit every spec of a sweep, whatever its poles, on the one fit grid
    `build_fit_grid(domain, per_arm)`, and validate every fit on
    `build_fit_grid(domain, VAL_PER_ARM)`.

    The fit grid is built first, so a bad per_arm is refused before a bad
    eps_rel.  A spec whose fit would allocate an array above the cap (see
    `InputError.check_entries`) is refused next, with InputError.  What
    does not depend on the poles is computed next, once: the target on
    the fit grid and the polynomial block there, at the largest degree
    any spec asks for and the grid carries.  That decides each spec's
    degree failure: InputError at a degree the grid's rows cannot carry,
    NumericError past a breakdown of the recurrence.  The other specs that
    share their poles form a group: one system, written and factored once
    at the group's largest degree, solves every degree in it, and is
    dropped once they are solved.  Then one pass over the validation grid,
    chunk by chunk, validates every group: per chunk one evaluation of
    the target and of the polynomial block and, per group, one
    partial-fraction block.
    Returns per spec `fit`'s (Approximant, FitReport) or the
    LightningError it raised.  An eps_rel outside (0, 1] raises InputError
    before any fit.
    """
    points = build_fit_grid(domain, per_arm)
    _check_eps(eps_rel)
    specs = list(specs)
    results = [_refusal(spec, points) for spec in specs]
    carried = max((s.poly_degree for s, refused in zip(specs, results)
                   if refused is None), default=-1)
    q = hess = norm0 = None
    if carried >= 0:
        q, hess, norm0 = _poly_chain_build(points, carried)
        carried = hess.shape[1]  # lower where the recurrence broke down
    fvec = eval_target(target, points)
    groups = {}
    for i, spec in enumerate(specs):
        if results[i] is not None:
            continue
        if spec.poly_degree > carried:
            results[i] = NumericError("grid cannot support the requested polynomial degree")
        else:
            groups.setdefault(spec.poles.tobytes(), []).append(i)
    solved = {}  # by spec index: (approximant, rank, resid_2norm)
    for group in groups.values():
        fits = _solve_group([specs[i] for i in group], points, eps_rel, fvec, q,
                            hess, norm0)
        for i, result in zip(group, fits):
            if isinstance(result, LightningError):
                results[i] = result
            else:
                solved[i] = result
    del q, fvec  # validation needs neither
    errs = _validate(target, domain, [[i for i in group if i in solved]
                                      for group in groups.values()],
                     {i: a for i, (a, _, _) in solved.items()}, hess, norm0)
    for i, (a, rank, resid) in solved.items():
        if isinstance(errs[i], LightningError):
            results[i] = errs[i]
        elif not math.isfinite(errs[i]):
            results[i] = NumericError("the approximant overflows on the validation grid")
        else:
            results[i] = (a, FitReport(max_err=float(errs[i]), resid_2norm=resid,
                                       coeff_2norm=float(np.linalg.norm(a.coeffs)),
                                       eff_rank=rank))
    return results


def _refusal(spec: BasisSpec, points: np.ndarray):
    """The InputError of a spec at a polynomial degree at or beyond the
    rows of the fit grid's points, or whose system or smallest validation
    chunk (see _chunk_points) is above the cap; else None.  The polynomial
    block on the fit grid lies inside the system, and the chunk can
    outgrow the system only on a grid of under four points per arm."""
    weight = _weight(points)  # the validation grid's too: one domain
    rows = weight * len(points)
    try:
        if spec.poly_degree >= rows:
            raise InputError(f"polynomial degree {spec.poly_degree} needs "
                             f"more than the grid's {rows} points")
        InputError.check_entries("the least-squares system",
                                 rows * (spec.n_columns + 1))
        InputError.check_entries("a validation chunk", 4 * weight * spec.n_columns)
    except InputError as exc:
        return exc
    return None


def _solve_group(specs, points: np.ndarray, eps_rel: float, fvec: np.ndarray, q,
                 hess, norm0) -> list:
    """Per spec (Approximant, rank, resid_2norm) or the LightningError, for
    specs that share their poles and whose degrees the fit grid's points
    carry, all from one system at their largest degree.  fvec is the
    target at the points, q the polynomial block there and (hess, norm0)
    its recurrence."""
    try:
        system, scales = _write_system(
            points, max(specs, key=lambda s: s.poly_degree), fvec, q)
        r = _factor(system)
    except LightningError as exc:
        return [exc] * len(specs)
    del system  # the residual norms come from R
    results = []
    for spec in specs:
        try:
            coeffs, rank = _solve_r(r, spec.n_columns, eps_rel)
        except NumericError as exc:
            results.append(exc)
            continue
        d = spec.poly_degree
        recurrence = (hess[:d + 1, :d], norm0) if d >= 0 else (None, None)
        resid = math.sqrt(_weight(points)) * float(np.linalg.norm(
            r[:, :spec.n_columns] @ coeffs - r[:, -1]))
        results.append((Approximant(spec, scales, *recurrence, coeffs), rank, resid))
    return results


def _validate(target: Target, domain: Domain, groups, approxes: dict, hess,
              norm0) -> dict:
    """By spec index, the maximum error of approxes[i] on the validation
    grid, or the LightningError its group's evaluation raised.  groups
    lists the indices of approximants that share their poles.  One pass
    over the grid, chunk by chunk: the target, the polynomial block
    (hess, norm0) and the points' parts at the chunk, for every group, and
    each group's partial fractions there, for all its approximants.  A
    maximum is exact in any order and a point's value, the target's too,
    does not depend on its chunk, so the result is the whole grid's;
    np.maximum keeps a nan."""
    groups = [group for group in groups if group]
    errs = dict.fromkeys(approxes, 0.0)
    if not groups:
        return errs
    pts = build_fit_grid(domain, VAL_PER_ARM)
    degree = -1 if hess is None else hess.shape[1]
    size = _chunk_points(max(len(approxes[g[0]].pf_scales) for g in groups),
                         _weight(pts), degree)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(pts), size):
            chunk = pts[start:start + size]
            values = eval_target(target, chunk)
            block = None if hess is None else _poly_chain_eval(chunk, hess, norm0)
            parts = _point_parts(chunk)
            for group in groups:
                if isinstance(errs[group[0]], LightningError):
                    continue
                try:
                    for i, v in zip(group, _chunk_values(
                            [approxes[i] for i in group], chunk, block, parts)):
                        errs[i] = np.maximum(errs[i], np.max(np.abs(v - values)))
                except LightningError as exc:
                    errs.update(dict.fromkeys(group, exc))
    return errs
