"""Target functions, domains, and sample grids.

Targets are branch-point functions z^alpha and z^alpha log z evaluated on
the principal branch.  Domains are the unit interval [0, 1] or a V-shaped
pair of arms r exp(+-i beta pi / 2), r in (0, 1], with opening parameter
beta in [0, 2); beta = 0 degenerates to the interval.  Grids are
exponentially spaced in radius so that the clustering of the singularity
at 0 is resolved down to 1e-16.  A V-domain grid holds its upper arm
only: the targets are conjugate-symmetric, so it stands for both arms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
            try:
                kind = TargetKind(self.kind)
            except ValueError:
                kinds = ", ".join(k.value for k in TargetKind)
                raise InputError(f"target kind must be one of {kinds}, "
                                 f"got {self.kind!r}") from None
            object.__setattr__(self, "kind", kind)
        a = float(InputError.check_number("alpha", self.alpha))
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
        b = float(InputError.check_number("beta", self.beta))
        if not (0.0 <= b < 2.0):
            raise InputError(f"beta must lie in [0, 2), got {self.beta}")
        object.__setattr__(self, "beta", b + 0.0)  # -0.0 becomes 0.0

    @classmethod
    def unit_interval(cls) -> "Domain":
        return cls(0.0)

    @classmethod
    def vshape(cls, beta: float) -> "Domain":
        return cls(beta)

    @property
    def arm_angle(self) -> float:
        return self.beta * math.pi / 2.0

    def arm_point(self, r):
        """The upper-arm point at radius r (scalar or array); real on [0, 1]."""
        return r if self.beta == 0.0 else r * np.exp(1j * self.arm_angle)


@dataclass(frozen=True)
class SampleGrid:
    """Immutable points on a domain.

    Complex points are a V-domain's upper arm, and each stands for itself
    and its mirror image (see `fitting`), so a grid of n points per arm
    has len n on either domain.  `fitting` reads the points as real rows,
    so they are held as a contiguous float64 or complex128 array.  A grid
    holds nothing computed from its points: what fits share is computed
    once per `fitting.fit_nested` call.
    """

    points: np.ndarray
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "points", np.ascontiguousarray(
            self.points, dtype=complex if np.iscomplexobj(self.points) else float))
        self.points.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)


def _radii(decades: float, per_arm: int) -> np.ndarray:
    if InputError.check_number("per_arm", per_arm, integral=True) < 1:
        raise InputError(f"grid needs at least one point per arm, got {per_arm}")
    if InputError.check_number("decades", decades) <= 0:
        raise InputError(f"decades must be positive, got {decades}")
    if not 10.0 ** -decades >= np.finfo(float).tiny:
        # beyond ~307.6 decades the smallest radii underflow to duplicate zeros
        raise InputError(f"decades must leave 10**-decades a normal float "
                         f"(at most about 307.6), got {decades}")
    if per_arm == 1:
        return np.array([1.0])
    r = np.logspace(-decades, 0.0, per_arm)
    if not np.all(np.diff(r) > 0):
        raise InputError(f"decades = {decades} is too few for {per_arm} distinct "
                         f"radii per arm")
    return r


def build_fit_grid(domain: Domain, decades: float = 16.0,
                   per_arm: int = 2000) -> SampleGrid:
    """Log-spaced grid over `decades` decades of radius, densest near 0.

    On the interval the points are real; on a V-domain they are the
    upper arm's `per_arm` points, which stand for both arms.
    """
    return SampleGrid(points=domain.arm_point(_radii(decades, per_arm)), domain=domain)
