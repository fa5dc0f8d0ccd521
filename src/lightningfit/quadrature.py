"""Panel-doubling composite Simpson quadrature.

Deliberately self-contained: these integrals serve as independent oracles
for the trapezoidal quadrature under test, so they must not share its
discretization.  The composite trapezoid sum is refined by doubling
(reusing all previous evaluations) and extrapolated to Simpson; iteration
stops when two successive Simpson estimates agree to the given absolute
tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

MAX_PANELS = 2**20


def doubling_simpson(func, a: float, b: float, tol: float,
                     max_panels: int = MAX_PANELS):
    """Integrate vectorized `func` over [a, b] to absolute tolerance `tol`."""
    if b == a:
        return 0.0 * func(np.asarray([a]))[0]
    n = 16
    x = np.linspace(a, b, n + 1)
    fx = func(x)
    h = (b - a) / n
    trap = h * (0.5 * fx[0] + fx[1:-1].sum() + 0.5 * fx[-1])
    simpson_prev = None
    while n <= max_panels:
        n *= 2
        h = (b - a) / n
        mids = a + h * (2 * np.arange(n // 2) + 1)
        trap_new = 0.5 * trap + h * func(mids).sum()
        simpson = (4.0 * trap_new - trap) / 3.0
        if simpson_prev is not None and abs(simpson - simpson_prev) < tol:
            return simpson
        trap, simpson_prev = trap_new, simpson
    raise NumericError(
        f"quadrature failed to reach tol={tol:g} within {max_panels} panels")


def line_integral(func, z0: complex, z1: complex, tol: float) -> complex:
    """Integral of `func` along the straight segment from z0 to z1."""
    dz = z1 - z0

    def g(t):
        return func(z0 + t * dz) * dz

    return doubling_simpson(g, 0.0, 1.0, tol)
