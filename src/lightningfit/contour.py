"""Contour-integral decomposition of the trapezoidal quadrature error.

The gap between the window-truncated integral representation of sqrt(z)
and the Nt-node trapezoidal approximant `trapezoid.trap_eval` is, exactly,

    integral - sum = end_ints + gamma_int - residue_term

where end_ints integrates the rule's kernel f (`trapezoid.error_integrand`)
over the two real stubs the rectangle does not cover, gamma_int
integrates kernel * delta over a positively oriented rectangle enclosing
the quadrature nodes, and residue_term collects the kernel's two primary
poles.  delta is the quadrature-error kernel: the piecewise-constant sign
weight minus the cotangent comb whose residues reproduce the node sum.

A `ContourSetup` is a radius on the domain plus the `TrapApproximant`
it measures.  Everything here is double-checked machinery:
`error_identity_report` checks the identity to quadrature tolerance and
measures gamma_int against its conjectured ceiling in the same record;
`residue_rate_check` measures the decay rate of the residue term.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .problems import Domain
from .quadrature import integrate_many
from .trapezoid import (TrapApproximant, _error_integrand, _window_integral,
                        trap_eval, truncated_sqrt_integral)


def quadrature_error_kernel(u, step):
    """delta(u): -1/2 + (i/2)cot(pi u/step) above the real axis, +1/2 + ... below.

    Evaluated through e^{2 pi i u/step} on whichever side keeps that factor
    small, so only a u/step beyond the double range overflows; it is
    refused, as are a u that is not finite and a step that is not a finite
    positive real (one value, or one per point).
    """
    uu = np.atleast_1d(np.asarray(InputError.check_points(u), dtype=complex))
    steps = InputError.check_reals(step, "step must be real")
    if steps.size:
        for extreme in (steps.min(), steps.max()):  # a nan is either extreme
            InputError.check_positive("step", extreme)
    with np.errstate(all="ignore"):
        out = _comb_kernel(uu / steps, np.where(uu.imag >= 0, 1.0, -1.0))
    if not np.isfinite(out).all():
        raise InputError("delta leaves the double range at this u and step")
    return out[0] if np.asarray(u).ndim == 0 else out


def _comb_kernel(scaled, sign):
    """delta at u = scaled * step by the upper (sign +1) or lower (-1)
    expression, whatever the side of u: contour legs that touch the real
    axis use it to stay on their one-sided limit."""
    on_lattice = (np.abs(scaled.imag) < 1e-12) \
        & (np.abs(scaled.real - np.round(scaled.real)) < 1e-12)
    if np.any(on_lattice):
        raise InputError("delta evaluated on a quadrature node of the comb")
    q = np.exp(2j * math.pi * sign * scaled)
    return sign * q / (1.0 - q)


@dataclass(frozen=True)
class PoleResidue:
    pole: complex
    residue: complex
    k: int
    branch: int  # +1 for the upper family, -1 for the lower


def pole_residue_pairs(z: complex, t_param: float, kmax: int = 0):
    """Poles of u -> f(u, z) right of the imaginary axis, with residues.

    The k-th pole of the upper (+) / lower (-) family is w^2 with
    w = T + log|z|/2 + i(arg z + (2k+1) pi (+/-1))/2; its residue is
    -/+ i (-1)^k sqrt(z)/pi.  Ordered k = 0..kmax, upper before lower.
    """
    if not isinstance(z, numbers.Complex):
        raise InputError(f"z must be complex, got {z!r}")
    z = complex(z)
    r = abs(z)
    if not 0 < r <= 1 + 1e-12:
        raise InputError(f"|z| must lie in (0, 1], got {r}")
    InputError.check_count("kmax", kmax, least=0)
    t_param = InputError.check_positive("t_param", t_param)
    theta = cmath.phase(z)
    base = t_param + 0.5 * math.log(r)
    root_z = cmath.sqrt(z)
    pairs = []
    for k in range(kmax + 1):
        for eps in (1, -1):
            w = base + 1j * (theta / 2.0 + eps * (2 * k + 1) * math.pi / 2.0)
            residue = -1j * eps * (-1) ** k * root_z / math.pi
            pairs.append(PoleResidue(pole=w * w, residue=residue, k=k, branch=eps))
    return pairs


def residue_terms(cases) -> list:
    """2 pi i (r+ delta(pole+) + r- delta(pole-)) for the primary pole pair
    of each (z, t_param, step) in `cases`.

    delta is evaluated at every case's poles in one call; each product and
    sum is a scalar operation, in the order of a lone case.
    """
    pairs = [pole_residue_pairs(z, t_param, kmax=0) for z, t_param, _ in cases]
    delta = quadrature_error_kernel(
        [pr.pole for pp in pairs for pr in pp],
        np.repeat([step for *_, step in cases], 2)).reshape(-1, 2)
    terms = []
    for pp, dd in zip(pairs, delta):
        total = 0.0j
        for pr, d in zip(pp, dd):
            total += pr.residue * d
        terms.append(2j * math.pi * total)
    return terms


def validity_floor(rule: TrapApproximant) -> float:
    """The smallest radius e^{4 + 2 beta - 2T} a `ContourSetup` takes on the
    rule's opening-beta domain."""
    return math.exp(4.0 + 2.0 * rule.beta - 2.0 * rule.t_param)


@dataclass(frozen=True)
class ContourSetup:
    """A radius on the opening-beta domain and the rule it measures.

    `rule` is `TrapApproximant(nt, beta)`, the owner of the step and T,
    and z the upper-arm point at `radius`.  Valid for radius in
    [e^{4+2 beta - 2T}, 1]: close enough to the outer end of the domain
    that the primary pole pair sits inside the rectangle
    [1-beta/2, 4T^2+1-beta/2] x [-ia, ia], a = 2 pi (T + log(radius)/2),
    and every other pole sits outside.
    """

    tol = 2e-13  # absolute tolerance of each rectangle leg; not a field

    radius: float
    nt: int
    beta: float = 0.0
    rule: TrapApproximant = field(init=False)
    z: complex = field(init=False)

    def __post_init__(self):
        r = float(InputError.check_number("radius", self.radius))
        object.__setattr__(self, "rule", TrapApproximant(self.nt, self.beta))
        # complex on the interval too: in real arithmetic the stubs round differently
        object.__setattr__(self, "z", complex(Domain(self.beta).arm_point(r)))
        if not 0 < r <= 1 + 1e-12:
            raise InputError(f"radius must lie in (0, 1], got {r}")
        floor = validity_floor(self.rule)
        if r < floor * (1.0 - 1e-9):
            raise InputError(f"radius {r:.3e} below the validity floor "
                             f"{floor:.3e} for nt={self.nt}")
        if self.rect_left < 1e-6:
            raise InputError("degenerate rectangle: left edge at the origin")

    @property
    def half_height(self) -> float:
        return 2.0 * math.pi * (self.rule.t_param + 0.5 * math.log(self.radius))

    @property
    def rect_left(self) -> float:
        return 1.0 - self.beta / 2.0

    @property
    def rect_right(self) -> float:
        return 4.0 * self.rule.t_param**2 + 1.0 - self.beta / 2.0

    @property
    def corners(self) -> list:
        """The rectangle's vertices counterclockwise from the bottom left,
        with the sides' real-axis points: seven corners of six legs."""
        x0, x1, a = self.rect_left, self.rect_right, self.half_height
        return [x0 - 1j * a, x1 - 1j * a, x1 + 0j, x1 + 1j * a, x0 + 1j * a,
                x0 + 0j, x0 - 1j * a]


@dataclass(frozen=True)
class ContourTerms:
    end_ints: complex
    gamma_int: complex
    residue_term: complex


def _end_ints(setup: ContourSetup) -> complex:
    """The real stubs' integral, in closed form (see `contour_terms`)."""
    z, tp = setup.z, setup.rule.t_param
    x0, x1 = setup.rect_left, setup.rect_right
    # sqrt(x1) - 2T from x1 - 4T^2 rounded once, in integers: 4.0 * tp**2
    # would round at T^2's scale
    (p, q), (m, n) = x1.as_integer_ratio(), tp.as_integer_ratio()
    width = (p * n * n - 4 * m * m * q) / (q * n * n) / (math.sqrt(x1) + 2.0 * tp)
    return _window_integral(z, -tp, math.sqrt(x0)) - _window_integral(z, tp, width)


def contour_terms(setups) -> list:
    """The three pieces of the quadrature-error identity, for each setup.

    In s = sqrt(u) - T the real stubs u in [0, x0] and [4T^2, x1] are the
    windows [-T, sqrt(x0) - T] and [T, sqrt(x1) - T] of the truncated
    integral's kernel, so end_ints is in closed form.  gamma_int, which
    carries delta, is by quadrature: the six rectangle legs are integrated
    in one adaptive pass over t in [0, 6], leg k being t in [k, k + 1],
    with an edge at every vertex so that no panel spans two legs; each leg
    keeps the tolerance `setup.tol`.  The vertical legs are split at the
    real axis, where delta jumps by 1, and each leg evaluates delta on its
    own explicit one-sided branch.  Every setup's rectangle goes through
    one `integrate_many` call and every primary pole through one
    `residue_terms` call; a setup's terms are the bits it gets alone.  The
    legs evaluate `trap_eval`'s integrand, z/pi componentwise on every path.
    """
    setups = list(setups)
    if not setups:
        return []
    tp = np.array([s.rule.t_param for s in setups])
    h = np.array([s.rule.step for s in setups])
    z = np.array([s.z for s in setups])
    corners = np.array([s.corners for s in setups])
    # the legs' sides of the real axis: below, below, above, above, above, below
    sign = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
    start, dz = corners[:, :-1], np.diff(corners, axis=1)

    def on_legs(t, row):
        k = np.minimum(t.astype(int), 5)  # quadrature nodes avoid the vertices
        u = start[row, k] + (t - k) * dz[row, k]
        delta = _comb_kernel(u / h[row], sign[k])
        return _error_integrand(u, z[row], tp[row]) * delta * dz[row, k]

    gammas = integrate_many(
        on_legs, np.arange(7.0), [6 * s.tol for s in setups],
        [f"the rectangle of nt={s.nt}, beta={s.beta:g}, radius={s.radius:.6g}"
         for s in setups])
    residues = residue_terms([(s.z, s.rule.t_param, s.rule.step) for s in setups])
    return [ContourTerms(end_ints=_end_ints(s), gamma_int=gamma, residue_term=res)
            for s, gamma, res in zip(setups, gammas, residues)]


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the identity, and |gamma_int| against its conjectured
    ceiling `conj_bound`: the sharp 12 e^{-T} on the interval, 100 e^{-T}
    on V-domains, where only the rate is claimed and `gamma_ratio` =
    |gamma_int| / e^{-T} is the measurement.  The identity passes when
    the defect is at most max(1e-10, 1e-3 |lhs|)."""

    integral_value: complex
    node_sum: complex
    terms: ContourTerms
    lhs: complex
    rhs: complex
    defect: float
    gamma_ratio: float
    conj_bound: float
    conj_pass: bool
    identity_pass: bool


def error_identity_report(setups) -> list:
    """Evaluate both sides of the quadrature-error identity independently,
    for each setup.

    lhs = truncated integral minus node sum (each computed directly),
    rhs = end_ints + gamma_int - residue_term, the terms of all setups
    coming from one `contour_terms` call.  The defect |lhs - rhs| is
    bounded by the stacked quadrature tolerances when the machinery is
    correct; it is the master self-check of this module.
    """
    setups = list(setups)
    reports = []
    for setup, terms in zip(setups, contour_terms(setups)):
        i_val = truncated_sqrt_integral(setup.z, setup.rule.t_param)
        s_val = trap_eval(setup.rule, setup.z)
        lhs = i_val - s_val
        rhs = terms.end_ints + terms.gamma_int - terms.residue_term
        gamma_abs = abs(terms.gamma_int)
        scale = math.exp(-setup.rule.t_param)
        conj_bound = (12.0 if setup.beta == 0.0 else 100.0) * scale
        defect = abs(lhs - rhs)
        reports.append(IdentityReport(
            integral_value=i_val, node_sum=s_val, terms=terms, lhs=lhs, rhs=rhs,
            defect=defect, gamma_ratio=gamma_abs / scale, conj_bound=conj_bound,
            conj_pass=gamma_abs < conj_bound,
            identity_pass=defect <= max(1e-10, 1e-3 * abs(lhs))))
    return reports


def residue_rate_check(step: float, nt_list):
    """Rows of |residue_term| / e^{-T} on [0, 1] across node counts and the
    radii 0.1, 0.5 and 1.0.

    With the step matched to the domain the ratio is bounded by an
    nt-independent constant (it equals 4 |sin(phase)| to leading order, so
    it can dip near phase zeros but never exceeds ~4).  A mismatched step
    makes it drift exponentially in nt, which is how a wrong step is
    detected.
    """
    rules = [TrapApproximant(nt, step=step) for nt in nt_list]
    cases = [(rule, r) for rule in rules for r in (0.1, 0.5, 1.0)]
    residues = residue_terms([(r, rule.t_param, rule.step) for rule, r in cases])
    rows = []
    for (rule, r), residue in zip(cases, residues):
        mag = float(abs(residue))
        rows.append({
            "nt": int(rule.nt),
            "radius": float(r),
            "t_param": rule.t_param,
            "residue_abs": mag,
            "ratio": mag / math.exp(-rule.t_param),
        })
    return rows
