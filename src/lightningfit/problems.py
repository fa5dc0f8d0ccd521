"""Target functions, domains, and sample grids.

Targets are branch-point functions z^alpha and z^alpha log z evaluated on
the principal branch.  Domains are the unit interval [0, 1] or a V-shaped
pair of arms r exp(+-i beta pi / 2), r in (0, 1], with opening parameter
beta in [0, 2); beta = 0 degenerates to the interval.  Grids are
exponentially spaced in radius so that the clustering of the singularity
at 0 is resolved down to 1e-16.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


class TargetKind(str, enum.Enum):
    SQRT = "sqrt"
    POWER = "power"
    POWER_LOG = "powerlog"


@dataclass(frozen=True)
class Target:
    """A singular model function: sqrt(z), z**alpha, or z**alpha * log(z)."""

    kind: TargetKind
    alpha: float = 0.5

    def __post_init__(self):
        if not isinstance(self.kind, TargetKind):
            object.__setattr__(self, "kind", TargetKind(self.kind))
        a = float(self.alpha)
        if not math.isfinite(a) or a <= 0:
            raise InputError(f"alpha must be positive and finite, got {self.alpha}")
        if self.kind is TargetKind.SQRT and a != 0.5:
            raise InputError("sqrt target fixes alpha = 1/2")
        if self.kind is TargetKind.POWER and a == int(a):
            # integer powers are polynomials, not singular targets
            raise InputError(f"power target needs non-integer alpha, got {a}")
        object.__setattr__(self, "alpha", a)

    @classmethod
    def sqrt(cls) -> "Target":
        return cls(TargetKind.SQRT, 0.5)

    @classmethod
    def power(cls, alpha: float) -> "Target":
        return cls(TargetKind.POWER, alpha)

    @classmethod
    def power_log(cls, alpha: float) -> "Target":
        return cls(TargetKind.POWER_LOG, alpha)


def eval_target(target: Target, z):
    """Evaluate the target on the principal branch; exact zeros map to 0.

    Accepts scalars or arrays.  Real positive input stays real.
    """
    z = np.asarray(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.iscomplexobj(z):
        bad = (z.real < 0) & (z.imag == 0) & (z != 0)
        if np.any(bad):
            raise InputError("points on the negative real axis hit the branch cut")
    elif np.any(z < 0):
        raise InputError("negative real points hit the branch cut")

    zero = z == 0
    zsafe = np.where(zero, 1.0, z)
    if target.kind is TargetKind.SQRT:
        out = np.sqrt(zsafe)
    else:
        out = zsafe ** target.alpha
        if target.kind is TargetKind.POWER_LOG:
            out = out * np.log(zsafe)
    out = np.where(zero, 0.0, out)
    return out[0] if scalar else out


@dataclass(frozen=True)
class Domain:
    """Approximation domain: beta = 0 is [0, 1], else two arms at +-beta pi/2."""

    beta: float = 0.0

    def __post_init__(self):
        b = float(self.beta)
        if not (0.0 <= b < 2.0):
            raise InputError(f"beta must lie in [0, 2), got {self.beta}")
        object.__setattr__(self, "beta", b)

    @classmethod
    def unit_interval(cls) -> "Domain":
        return cls(0.0)

    @classmethod
    def vshape(cls, beta: float) -> "Domain":
        return cls(beta)

    @property
    def kind(self) -> str:
        return "interval" if self.beta == 0.0 else "vshape"

    @property
    def arm_angle(self) -> float:
        return self.beta * math.pi / 2.0

    def contains(self, z, tol: float = 1e-12) -> bool:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        r = np.abs(z)
        if np.any(r > 1 + tol):
            return False
        on_arm = np.abs(np.abs(np.angle(np.where(z == 0, 1.0, z))) - self.arm_angle) <= tol
        return bool(np.all(on_arm | (r <= tol)))


@dataclass(frozen=True)
class ApproxProblem:
    target: Target
    domain: Domain


@dataclass(frozen=True)
class SampleGrid:
    """Immutable point set with its construction parameters.

    `_derived` holds data computed from the points (target values, the
    polynomial block) for the fitting module to reuse across fits on this
    grid; it is not part of the grid's value.
    """

    points: np.ndarray
    domain: Domain
    decades: float
    per_arm: int
    label: str = "fit"
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        self.points.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)


def _radii(decades: float, per_arm: int) -> np.ndarray:
    if per_arm < 1:
        raise InputError(f"grid needs at least one point per arm, got {per_arm}")
    if decades <= 0:
        raise InputError(f"decades must be positive, got {decades}")
    if per_arm == 1:
        return np.array([1.0])
    return np.logspace(-decades, 0.0, per_arm)


def build_fit_grid(domain: Domain, decades: float = 16.0, per_arm: int = 2000,
                   label: str = "fit") -> SampleGrid:
    """Log-spaced grid over `decades` decades of radius, densest near 0.

    On the interval the points are real; on a V-domain each arm gets
    `per_arm` points and the set is closed under conjugation.
    """
    r = _radii(decades, per_arm)
    if domain.beta == 0.0:
        pts = r
    else:
        arm = r * np.exp(1j * domain.arm_angle)
        pts = np.concatenate([arm, np.conj(arm)])
    return SampleGrid(points=pts, domain=domain, decades=float(decades),
                      per_arm=per_arm, label=label)


def build_validation_grid(domain: Domain, per_arm: int = 10000,
                          decades: float = 16.0) -> SampleGrid:
    """Denser companion grid used to report max errors."""
    return build_fit_grid(domain, decades=decades, per_arm=per_arm,
                          label="validation")
