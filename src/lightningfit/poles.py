"""Preassigned pole families on the negative real axis.

Two clustered families approach the branch point at 0 exponentially:

  uniform   p_j = -C exp(-sigma j / sqrt(N1)),        j = 0 .. N1-1
  tapered   p_j = -C exp(-sigma (sqrt(N1) - sqrt(j))), j = 1 .. N1

The tapered spacing mimics the pole distribution of the best rational
approximant of sqrt; it is what the trapezoidal reference approximant
produces.  A third family places a few "big" poles that stand in for a
polynomial term (poles clustering towards infinity):

  big       p_i = -8 N / ((2i+1)^2 pi^2),             i = 1 .. N2

Each family returns a plain float64 array; `fitting.BasisSpec` checks the
poles a fit is given, and the caller records the family and parameters.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def _check_counts(n: int, sigma: float | None = None, scale: float | None = None):
    if InputError.check_number("the number of poles", n, integral=True) < 1:
        raise InputError(f"need at least one pole, got {n}")
    for name, value in (("sigma", sigma), ("scale", scale)):
        if value is not None and not InputError.check_number(name, value) > 0:
            raise InputError(f"{name} must be positive, got {value}")
        if value == math.inf:
            raise InputError(f"{name} must be finite, got {value}")


def uniform_poles(n1: int, sigma: float, scale: float = 1.0) -> np.ndarray:
    """Exponentially spaced poles with uniform log-gap sigma/sqrt(N1)."""
    _check_counts(n1, sigma, scale)
    j = np.arange(n1)
    with np.errstate(over="ignore"):  # BasisSpec reports poles that underflow
        return -scale * np.exp(-sigma * j / math.sqrt(n1))


def tapered_poles(n1: int, sigma: float, scale: float = 1.0) -> np.ndarray:
    """Clustered poles with log-gaps that shrink like sigma/(2 sqrt(j)).

    Ascending magnitude: |p_1| = C exp(-sigma (sqrt(N1)-1)) up to |p_N1| = C.
    """
    _check_counts(n1, sigma, scale)
    j = np.arange(1, n1 + 1)
    with np.errstate(over="ignore"):  # BasisSpec reports poles that underflow
        return -scale * np.exp(-sigma * (math.sqrt(n1) - np.sqrt(j)))


def big_poles(n: int, n2: int) -> np.ndarray:
    """Large negative poles emulating a degree-N2 polynomial term.

    Descending magnitude, scale set by the total degree n of the target
    approximant; independent of any clustering scale.
    """
    _check_counts(n)
    if InputError.check_number("n2", n2, integral=True) < 1:
        raise InputError(f"need at least one big pole, got {n2}")
    i = np.arange(1, n2 + 1)
    return -8.0 * n / ((2 * i + 1) ** 2 * math.pi**2)
