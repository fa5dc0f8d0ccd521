"""Integrated pole density of best rational approximants to sqrt.

The poles of the degree-N best approximant on [0,1] lie on the negative
axis; mapped to the imaginary axis coordinate y = sqrt(|p|), their
integrated (counting) density above height y is asymptotically

    H(N, y) = (N+1)/2 - sqrt(N) * L(y) - Q(y)

where L is the leading tail integral and Q an O(1) correction, both
vanishing as y -> infinity.  Inverting H on its monotone branch places
individual poles; the largest ones come out at -8N/((2k+1)^2 pi^2), and
the number of poles with magnitude > 1 grows like 0.4 sqrt(N).

Both L and Q have closed forms, so H and its inversion need no
quadrature.  With W = asinh(1/y), L(y) = W/pi, and substituting
t = e^{-s}/y and then t = sinh(u) in Q,

    -pi^2 Q(y) = int_0^{1/y} asinh(t)/t dt = int_0^W u coth(u) du
               = W^2/2 + W log(1-q) - Li2(q)/2 + pi^2/12,   q = e^{-2W},

from coth(u) = 1 + 2 sum_k e^{-2ku}, integrated term by term.  Li2 is
evaluated here: for q <= 1/2 by the Bernoulli series in u = -log(1-q),
Li2 = u - u^2/4 + sum_{k=1..9} B_{2k} u^{2k+1}/(2k+1)!, and for q > 1/2 by
the reflection Li2(q) = pi^2/6 - log(q) log(1-q) - Li2(1-q), log q = -2W.
Measured against a 30-digit mpmath quadrature of the defining integral at
401 log-spaced y from 1e-8 to 1e12, Q is within 7.1e-15 absolute, two
ulps of |Q| ~ 17 at the small-y end.

H is NOT monotone all the way down: it has a shallow minimum (about 0.58)
near y = 1/sinh(pi sqrt(N)) before diverging as y -> 0, so the inversion
bracket must stop at that turning point.  Above it the inversion is a
safeguarded Newton iteration in t = log y on the closed derivative
dH/dt = sqrt(N)/(pi sqrt(1+y^2)) - W/pi^2, run as one array Newton over
all the rungs of a ladder: H and its helpers are written once, for arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericError

# B_{2k}/(2k+1)!, k = 1..9: the dilogarithm's Bernoulli-series coefficients
_DILOG_SERIES = tuple(
    num / (den * math.factorial(2 * k + 1)) for k, (num, den) in enumerate(
        ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
         (-3617, 510), (43867, 798)), start=1))
_LOG2 = math.log(2.0)
_NEWTON_CAP = 100  # bisection alone closes the widest bracket in under 60 steps


def density_leading(y):
    """Leading tail integral (1/pi) int_y^inf dt/(t sqrt(1+t^2)).

    Closed form asinh(1/y)/pi; for large y it behaves like
    1/(pi y) - 1/(6 pi y^3) + O(y^-5).
    """
    y = InputError.check_reals(y, "y must be positive")
    if not np.all(y > 0):
        raise InputError("y must be positive")
    out = np.arcsinh(1.0 / y) / math.pi
    return float(out) if out.ndim == 0 else out


def density_correction(y: float) -> float:
    """O(1) correction term Q(y) = -(1/pi^2) int_0^inf asinh(1/(y e^s)) ds.

    Always negative.  Evaluated in closed form: with W = asinh(1/y) and
    1 - q = -expm1(-2W),

        Q(y) = -(W^2/2 + W log(1-q) - Li2(q)/2 + pi^2/12) / pi^2,

    with Li2 from this module's Bernoulli series, reflected for q > 1/2
    (within 4.4e-16 absolute of mpmath's Li2).  The integral equals
    -(1/pi^2) int_0^{1/y} asinh(t)/t dt (see the module docstring for the
    derivation).  Within 7.1e-15 absolute of a 30-digit mpmath quadrature
    for y in [1e-8, 1e12]; the error is absolute, not relative, because the
    terms cancel to the O(1/y) result for large y.
    """
    y = np.array([InputError.check_positive("y", y)])
    return float(_correction(np.arcsinh(1.0 / y))[0])


def _correction(w):
    """Q as a function of W = asinh(1/y), elementwise over an array."""
    log_one_minus_q = np.log(-np.expm1(-2.0 * w))
    return -(0.5 * w * w + w * log_one_minus_q - 0.5 * _dilog(w, log_one_minus_q)
             + math.pi**2 / 12.0) / math.pi**2


def _dilog(w, log_one_minus_q):
    """Li2(q) for q = e^{-2w}, given log(1 - q), elementwise: the series in
    u = -log(1-q) for q <= 1/2, else the reflection, whose series runs at
    1 - q with u = 2w."""
    two_w = 2.0 * w
    reflect = two_w < _LOG2
    # exp's argument is clamped to q <= 1/2, where its branch is taken, so
    # a reflected w near 0 never reaches log1p(-1)
    u = np.where(reflect, two_w, -np.log1p(-np.exp(-np.maximum(two_w, _LOG2))))
    u2 = u * u
    tail = _DILOG_SERIES[-1]
    for c in reversed(_DILOG_SERIES[:-1]):
        tail = tail * u2 + c
    series = u - 0.25 * u2 + u * u2 * tail
    reflected = math.pi**2 / 6.0 + two_w * log_one_minus_q - series
    return np.where(reflect, reflected, series)


def _h_minus_j(root_n, w, margin):
    """H(n, y) - j from W = asinh(1/y) and the margin (n+1)/2 - j.

    The margin comes first, so it keeps its own precision as j nears
    (n+1)/2, where H - j would cancel to H's rounding of about ulp(n/2).
    """
    return margin - root_n * (w / math.pi) - _correction(w)


def stahl_density(n: int, y: float) -> float:
    """Integrated pole density H(n, y) of the degree-n best approximant.

    Scalar y; L(y) = W/pi and Q(y) share W = asinh(1/y), computed once.
    """
    InputError.check_count("n", n)
    y = np.array([InputError.check_positive("y", y)])
    return float(_h_minus_j(math.sqrt(n), np.arcsinh(1.0 / y), (n + 1) / 2.0)[0])


def _bracket_low(n: int) -> float:
    # turning point of H sits near 1/sinh(pi sqrt(n)); clamp the argument
    # so sinh does not overflow
    return 1.0 / math.sinh(min(math.pi * math.sqrt(n), 700.0))


def invert_stahl_density(n: int, j):
    """The y > 0 with H(n, y) = j, on the monotone branch; j a real or an
    array of reals, whose shape y has.

    Requires each j strictly between the turning-point value of H (about
    0.58) and the y -> infinity limit (n+1)/2.  Newton in t = log y from
    the leading-order inverse W0 = pi((n+1)/2 - j)/sqrt(n), run in lockstep
    over all j, with H evaluated only at the rungs still iterating; each
    evaluation shrinks a rung's bracket by its sign, and a step leaving it
    bisects instead.  A rung's y does not depend on the other j.
    """
    InputError.check_count("n", n)
    j = InputError.check_reals(j, "j must be real")
    shape, j = j.shape, j.ravel()
    half = (n + 1) / 2.0
    margin = half - j
    if not (margin > 0.0).all():
        raise InputError(f"j must be below (n+1)/2 = {half}, "
                         f"got {j[~(margin > 0.0)][0]}")
    root_n = math.sqrt(n)
    hi, lo = 1e12, _bracket_low(n)
    h_hi, h_lo = _h_minus_j(root_n, np.arcsinh(1.0 / np.array([hi, lo])), half)
    if not (j < h_hi).all():
        raise NumericError("upper bracket failed; j too close to (n+1)/2")
    if not (j > h_lo).all():
        raise InputError(f"j={j[~(j > h_lo)][0]} is below the monotone range of H "
                         f"(H({lo:.3e}) = {h_lo:.4f})")

    y_out = np.empty(j.shape)
    rung = np.arange(j.size)
    t_lo, t_hi = np.full(j.shape, math.log(lo)), np.full(j.shape, math.log(hi))
    # -log sinh(W0), written so that neither a large nor a tiny W0 overflows
    w0 = math.pi * margin / root_n
    t = np.minimum(np.maximum(-(w0 + np.log(-np.expm1(-2.0 * w0) / 2.0)), t_lo), t_hi)
    for _ in range(_NEWTON_CAP):
        if rung.size == 0:
            break
        y = np.exp(t)
        w = np.arcsinh(1.0 / y)
        g = _h_minus_j(root_n, w, margin)
        below = g < 0.0
        t_lo, t_hi = np.where(below, t, t_lo), np.where(below, t_hi, t)
        tol = 1e-13 * np.maximum(1.0, np.abs(t))
        slope = (root_n / np.hypot(1.0, y) - w / math.pi) / math.pi
        step = np.divide(g, slope, out=np.full(g.shape, math.inf), where=slope > 0.0)
        t = t - step
        # near the turning point H's rounding stalls Newton and the bracket
        # closes instead; the step is tested before the safeguard, so a root
        # on a bracket end is kept
        closed = t_hi - t_lo <= tol
        done = closed | (np.abs(step) <= tol)
        if done.any():
            y_out[rung[done]] = np.where(closed, y, np.exp(t))[done]
            going = ~done
            rung, t, t_lo, t_hi, margin = (
                a[going] for a in (rung, t, t_lo, t_hi, margin))
        t = np.where((t_lo < t) & (t < t_hi), t, 0.5 * (t_lo + t_hi))
    if rung.size:
        raise NumericError(f"density inversion for n={n}, j={j[rung[0]]} "
                           "did not converge")
    y = y_out.reshape(shape)
    return float(y) if y.ndim == 0 else y


def large_pole_estimate(n: int, k: int):
    """Asymptotic location -8n/((2k+1)^2 pi^2) of the (k+1)-largest pole."""
    InputError.check_count("n", n)
    if not 0 <= InputError.check_number("k", k, integral=True) < n:
        raise InputError(f"k must satisfy 0 <= k < n, got {k}")
    return -8.0 * n / ((2 * k + 1) ** 2 * math.pi**2)


def pole_from_density(n: int, j):
    """Pole location -y^2 with H(2n, y) = j; j a real or an array of reals,
    whose shape the result has.

    The density of the degree-n approximant's poles to sqrt is that of the
    degree-2n approximant to |x| on [-1,1], hence the doubled argument.
    """
    y = invert_stahl_density(2 * InputError.check_number("n", n, integral=True), j)
    return -(y * y)


def count_large_poles(n: int) -> float:
    """Expected number of best-approximant poles with magnitude > 1.

    n - H(2n, 1), approximately 0.4 sqrt(n); returned as a real since the
    statement is asymptotic, not a literal count.
    """
    return InputError.check_count("n", n, least=4) - stahl_density(2 * n, 1.0)
