"""Target functions, domains, and fit grids.

Targets are branch-point functions z^alpha and z^alpha log z evaluated on
the principal branch.  Domains are the unit interval [0, 1] or a V-shaped
pair of arms r exp(+-i beta pi / 2), r in (0, 1], with opening parameter
beta in [0, 2); beta = 0 degenerates to the interval.  Grids are
exponentially spaced in radius so that the clustering of the singularity
at 0 is resolved down to 10**-DECADES.  A V-domain grid holds its upper
arm only: the targets are conjugate-symmetric, so it stands for both arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


TARGET_KINDS = ("sqrt", "power", "powerlog")
DECADES = 16.0  # decades of radius every grid spans


@dataclass(frozen=True)
class Target:
    """A singular model function: sqrt(z), z**alpha, or z**alpha * log(z)."""

    kind: str  # one of TARGET_KINDS
    alpha: float = 0.5

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in TARGET_KINDS):
            raise InputError(f"target kind must be one of {', '.join(TARGET_KINDS)}, "
                             f"got {self.kind!r}")
        a = InputError.check_positive("alpha", self.alpha)
        if self.kind == "sqrt" and a != 0.5:
            raise InputError("sqrt target fixes alpha = 1/2")
        if self.kind == "power" and a == int(a):
            # integer powers are polynomials, not singular targets
            raise InputError(f"power target needs non-integer alpha, got {a}")
        object.__setattr__(self, "alpha", a)


def eval_target(target: Target, z):
    """Evaluate the target on the principal branch; exact zeros map to 0.

    Accepts finite scalars or arrays (see `InputError.check_points`).  Real
    positive input stays real.
    """
    z = InputError.check_points(z)
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
    if target.kind == "sqrt":
        out = np.sqrt(zsafe)
    else:
        out = zsafe ** target.alpha
        if target.kind == "powerlog":
            out = np.multiply(out, np.log(zsafe))  # the same order at any size
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

    @property
    def arm_angle(self) -> float:
        return self.beta * math.pi / 2.0

    def arm_point(self, r):
        """The upper-arm point at radius r (scalar or array); real on [0, 1]."""
        return r if self.beta == 0.0 else r * np.exp(1j * self.arm_angle)


def build_fit_grid(domain: Domain, per_arm: int) -> np.ndarray:
    """Log-spaced points over DECADES decades of radius, densest near 0,
    as a read-only, C-contiguous float64 or complex128 array.

    On the interval the points are real; on a V-domain they are the
    upper arm's `per_arm` points, each of which stands for itself and its
    mirror image (see `fitting`), so the array has len per_arm on either
    domain.  A single point sits at radius 1.  A grid of more float64
    entries than the cap (see `InputError.check_entries`) is refused
    before any is allocated; below it, DECADES decades keep every radius
    normal and distinct.
    """
    InputError.check_count("per_arm", per_arm)
    InputError.check_entries(f"a grid of {per_arm} points per arm",
                             per_arm if domain.beta == 0.0 else 2 * per_arm)
    radii = np.array([1.0]) if per_arm == 1 else np.logspace(-DECADES, 0.0, per_arm)
    points = domain.arm_point(radii)
    points.flags.writeable = False
    return points
