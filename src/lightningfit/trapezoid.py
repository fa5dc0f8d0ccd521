"""Trapezoidal-quadrature rational approximant to sqrt on [0,1] and V-domains.

The rule h * sum_j f(j h) over Nt nodes, with f the integrand of
sqrt(z)'s integral representation (`error_integrand`), is a rational
function of degree Nt whose error decays like exp(-sqrt(Nt*h)/2).
Written in partial fractions it has Nt simple poles on the negative real
axis; the Nt/4 poles of magnitude <= 1 are exactly the tapered clustered
family with sigma = 2 sqrt(h), and the remaining large poles plus the
constant are polynomial-like on the domain.  This approximant is the
constructive benchmark the fitted ones are measured against.

The rule's integral over its window, and the contour identity's real
stubs, are closed forms of one arctangent (`_window_integral`).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .problems import Domain


def default_step(beta: float = 0.0) -> float:
    """Quadrature step matched to the validated opening: h = (2 - beta) pi^2."""
    return (2.0 - Domain(beta).beta) * math.pi**2


def checked_step(beta: float, step: float | None = None) -> float:
    """Validate the opening beta and the step; None gives the default step."""
    default = default_step(beta)
    return default if step is None else InputError.check_positive("step", step)


def t_parameter(nt: int, step: float) -> float:
    """Half-width T of the integration window, T = sqrt(Nt h)/2."""
    return math.sqrt(nt * step) / 2.0


@dataclass(frozen=True)
class TrapApproximant:
    """Nt-node trapezoidal approximant; step defaults to (2-beta) pi^2."""

    nt: int
    beta: float = 0.0
    step: float | None = None
    t_param: float = field(init=False)

    def __post_init__(self):
        InputError.check_count("nt", self.nt)
        object.__setattr__(self, "step", checked_step(self.beta, self.step))
        object.__setattr__(self, "t_param", t_parameter(self.nt, self.step))

    def __call__(self, z):
        return trap_eval(self, z)


def error_integrand(u, z, t_param):
    """Kernel f(u) = (z/pi) u^{-1/2} e^{sqrt(u)-T} / (e^{2(sqrt(u)-T)} + z).

    Principal square root; callers keep Re u > 0 except for the u -> 0
    endpoint where f ~ u^{-1/2} is integrable.  z and T may be arrays
    that broadcast against u.  z/pi is formed componentwise, as Python
    divides a complex by a real (numpy's complex z / pi multiplies by the
    reciprocal and can differ in the last bit), so a Python complex z and
    the same z in an array of any shape give the same bits.  Raises
    InputError unless u and z are finite numbers and T finite reals > 0.
    """
    for name, value in (("u", u), ("z", z)):
        try:
            InputError.check_points(value)
        except InputError:
            raise InputError(f"{name} must hold finite real or complex numbers, "
                             f"got {value!r}") from None
    t = InputError.check_reals(t_param, f"t_param must hold reals, got {t_param!r}")
    if not np.all((t > 0) & (t < np.inf)):
        raise InputError(f"t_param must be finite and positive, got {t_param!r}")
    return _error_integrand(u, z, t_param)


def _error_integrand(u, z, t_param):
    """error_integrand without its checks, for the contour's legs, whose
    u, z and T are valid by construction and which call it once per batch
    of quadrature nodes.

    With s = sqrt(u) - T the kernel is (z/pi) / (sqrt(u) (e^s + z e^{-s}))
    as written wherever that denominator and the quotient are finite.
    Where either is not (|Re s| near 709 or above: T past that, or a huge
    u or z), the summand 1/(e^s + z e^{-s}) is taken in a form without
    overflow instead (see _far_kernel)."""
    uu, zz = np.asarray(u, dtype=complex), np.asarray(z, dtype=complex)
    root = np.sqrt(uu)
    s = root - t_param
    z_over_pi = (np.ascontiguousarray(zz).view(float) / math.pi).view(complex)
    z_over_pi = z_over_pi.reshape(zz.shape)
    with np.errstate(all="ignore"):
        den = np.exp(s) + zz * np.exp(-s)
        bottom = root * den
        value = z_over_pi / bottom
        # |bottom value| = |z|/pi where both are finite, else not finite
        tame = np.isfinite(bottom * value)
    if np.any(den == 0):
        raise InputError("evaluation point coincides with a pole")
    if tame.all():
        return value
    far = ~tame
    value = np.array(value)  # writable, also when it is a scalar
    s, zz, z_over_pi, root = np.broadcast_arrays(s, zz, z_over_pi, root)
    value[far] = _far_kernel(s[far], zz[far], z_over_pi[far], root[far])
    return value[()]


def _far_kernel(s, z, z_over_pi, root):
    """The kernel with the summand 1/(e^s + z e^{-s}) taken as
    e^{-s}/(1 + z e^{-2s}) for Re s > 0 and e^s/(e^{2s} + z) for
    Re s < 0, so that only e^t, with t = -s or s and Re t <= 0, is taken,
    and divided by the rest last.  At z = 0 the kernel, z times a finite
    value, is 0, so the denominator e^{2s} + z, whose e^{2s} may
    underflow to 0, is taken as 1 there."""
    up = s.real > 0
    t = np.where(up, -s, s)
    with np.errstate(over="ignore"):  # 2t passes -max-float when T does
        e, e2 = np.exp(t), np.exp(2 * t)
    den = np.where(up | (z == 0), 1 + z * e2, e2 + z)
    return z_over_pi / den / root * e


def trap_eval(t: TrapApproximant, z):
    """Evaluate the trapezoidal approximant step * sum_j f(j step) at z.

    f is `error_integrand`, summed over the nodes in ascending order; z is
    a scalar or an array, and real z gives real values.  With z/pi
    componentwise on every path, each point gets the bits of its scalar
    sum.  The summand is evaluated as 1/(e^s + z e^{-s}), which stays
    bounded at every node, unlike the textbook e^s/(e^{2s} + z) form, and
    past the exponential's range (T above about 709.8) in a form without
    overflow (see _error_integrand).
    """
    z = InputError.check_points(z)
    nodes = t.step * np.arange(1, t.nt + 1)
    out = t.step * np.sum(error_integrand(nodes, z[..., None], t.t_param), axis=-1)
    return out if np.iscomplexobj(z) else out.real


def trap_error_bound(nt: int) -> float:
    """Max-norm error bound 20 e^{-T} on [0, 1] with the default step."""
    return 20.0 * math.exp(-TrapApproximant(nt).t_param)


@dataclass(frozen=True)
class PartialFractionForm:
    """Exact partial fractions of the Nt = 4 N1 node approximant.

    poles p_j = -exp(-2 sqrt(h)(sqrt(N1) - sqrt(j))), j = 1..4N1, ascending
    magnitude; residues w_j p_j and constant sum(w_j) with weights
    w_j = (sqrt(h)/pi) sqrt(|p_j|/j).  Only the first N1 poles have
    magnitude <= 1 (the tapered family with sigma = 2 sqrt(h)); beyond
    roughly N1 = 6000 the large-pole weights overflow double precision.
    """

    n1: int
    step: float
    poles: np.ndarray
    term_weights: np.ndarray

    def __post_init__(self):
        self.poles.flags.writeable = False
        self.term_weights.flags.writeable = False

    @property
    def nt(self) -> int:
        return 4 * self.n1

    @property
    def large_poles(self) -> np.ndarray:
        return self.poles[self.n1:]


def trap_partial_fractions(n1: int, step: float) -> PartialFractionForm:
    InputError.check_count("n1", n1)
    step = checked_step(0.0, step)
    j = np.arange(1, 4 * n1 + 1)
    root_h = math.sqrt(step)
    with np.errstate(over="ignore"):
        poles = -np.exp(-2.0 * root_h * (math.sqrt(n1) - np.sqrt(j)))
    if not np.all(np.isfinite(poles)):
        # outermost pole is exp(2 sqrt(step*n1)); past ~e^709 doubles give inf
        raise NumericError(
            f"pole ladder exceeds double range at n1={n1}, step={step:g}")
    weights = (root_h / math.pi) * np.sqrt(np.abs(poles) / j)
    return PartialFractionForm(n1=n1, step=step, poles=poles, term_weights=weights)


def large_pole_tail(pf: PartialFractionForm, z):
    """Constant plus large-pole partial fractions, evaluated stably.

    Algebraically C + sum_{|p_j|>1} a_j/(z - p_j), regrouped as
    sum_{j<=N1} w_j + sum_{j>N1} w_j z/(z - p_j) so no huge intermediates
    appear.  On the domain this function is smooth and polynomial-like:
    its analyticity region is bounded by the smallest large pole.
    """
    z = InputError.check_points(z)[..., None]
    diff = z - pf.large_poles
    if np.any(diff == 0):
        raise InputError("evaluation point coincides with a pole")
    head = pf.term_weights[: pf.n1].sum()
    return head + (pf.term_weights[pf.n1:] * z / diff).sum(axis=-1)


def truncated_sqrt_integral(z, t_param: float):
    """Window-truncated integral representation of sqrt(z).

    (2z/pi) * integral over s in [-T, T] of ds/(e^s + z e^{-s}), in closed
    form, independent of the trapezoidal discretization it serves as an
    oracle for.  Converges to sqrt(z) as T grows; the truncation error is
    below (4/pi) e^{-T} on the closed unit interval.
    """
    InputError.check_positive("t_param", t_param)
    if (not isinstance(z, numbers.Complex) or not cmath.isfinite(z)
            or (z.imag == 0 and z.real < 0)):
        raise InputError(f"z must be finite and off the negative real axis, got {z!r}")
    if z == 0:
        return 0.0
    return _window_integral(z, -t_param, 2.0 * t_param)


def _window_integral(z, s_lo: float, width: float):
    """(2z/pi) * integral over s in [s_lo, s_lo + width] of ds/(e^s + z e^{-s}).

    The antiderivative (2 sqrt(z)/pi) atan(e^s/sqrt(z)) changes across the
    window by one arctangent, atan((1 - e^{-width})/(c + e^{-width}/c)) with
    c = e^{s_lo}/sqrt(z): no two values near pi/2 are subtracted, and each
    exponential takes an exact argument.  For z off (-inf, 0] the argument
    lies in the right half-plane, where the principal arctangent has no cut.
    Where c or e^{-width}/c leaves the double range (T past about 708, or
    |z| near the float limits) the quotient is nan or inf; the argument is
    then huge, and atan(x) = pi/2 - atan(1/x), whose 1/x has the terms
    c and e^{-width - s_lo} sqrt(z), neither divided by an underflow.
    """
    root = np.sqrt(z)
    with np.errstate(all="ignore"):
        c, rise = np.exp(s_lo) / root, -np.expm1(-width)  # rise = 1 - e^{-width}
        value = (2.0 * root / math.pi) * np.arctan(rise / (c + np.exp(-width) / c))
        if not cmath.isfinite(value):
            inverse = (c + np.exp(-width - s_lo) * root) / rise
            value = root - (2.0 * root / math.pi) * np.arctan(inverse)
    if not cmath.isfinite(value):
        raise NumericError(f"the window integral at z = {z!r} leaves the double range")
    return value
