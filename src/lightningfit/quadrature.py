"""Adaptive Gauss-Kronrod oracle quadrature.

Deliberately self-contained: these integrals serve as independent oracles
for the trapezoidal quadrature under test, so they must not share its
discretization.  Each panel is integrated by the 15-point Kronrod rule
with its embedded 7-point Gauss rule (QUADPACK's qk15; Piessens et al.
1983), with qk15's error estimate r min(1, (200 |K15 - G7| / r)^1.5),
r being the K15 integral of |f - mean f| over the panel.  A panel whose
estimate exceeds its share of the tolerance is bisected; every panel
still active at a level, of every integral that shares the edges, is
evaluated in one call, so the cost in numpy overhead is one call per
level, not one per panel or per integral.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError

MAX_EVALS = 2**20

# qk15: Kronrod abscissae on [0, 1] in descending order (Gauss ones at odd
# positions), Kronrod weights, and Gauss weights (zero off the Gauss nodes)
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
NODES = np.array([-x for x in _XK[:-1]] + list(_XK[::-1]))
KRONROD, GAUSS = (np.array(w[:-1] + w[::-1]) for w in (_WK, _WG))


def integrate_many(func, edges, tols, names):
    """Integrate len(tols) integrands over [edges[0], edges[-1]], the k-th
    to absolute tols[k].

    func(t, k) is integrand k[i] at t[i], for arrays t and k of one
    length.  The panels start as the intervals between consecutive
    `edges` and are only ever bisected, so no panel straddles an edge: put
    an edge at every point where an integrand jumps or changes formula.
    A panel of integral k and width w is accepted once its error estimate
    is at most tols[k] * w / (edges[-1] - edges[0]).  At each level the
    active panels of every integral go to `func` in one call; each
    integral keeps its own panels, in the order and coordinates it has
    when integrated alone, and its accepted panels are summed in that
    order, so its value does not depend on the others.  Raises
    NumericError, naming names[k], when integral k would take more than
    MAX_EVALS evaluations.
    """
    tols = np.array([InputError.check_positive("tol", tol) for tol in tols])
    edges = np.asarray(edges, dtype=float)
    if (edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges))
            or np.any(np.diff(edges) < 0)):
        raise InputError("edges must be a non-decreasing sequence of at least two points")
    count = tols.size
    span = edges[-1] - edges[0]
    if span == 0:
        return [0.0 * value for value in func(np.repeat(edges[:1], count),
                                               np.arange(count))]
    a, b = np.tile(edges[:-1], count), np.tile(edges[1:], count)
    row = np.repeat(np.arange(count), edges.size - 1)
    per_width = tols / span
    totals, evals = [0.0] * count, np.zeros(count, dtype=int)
    while a.size:
        active = np.bincount(row, minlength=count)
        evals += active * NODES.size
        over = np.flatnonzero(evals > MAX_EVALS)
        if over.size:
            raise NumericError(
                f"quadrature of {names[over[0]]} failed to reach "
                f"tol={tols[over[0]]:g} within {MAX_EVALS} evaluations")
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        fx = func((mid[:, None] + half[:, None] * NODES).ravel(),
                  np.repeat(row, NODES.size)).reshape(a.size, -1)
        # elementwise products, not fx @ w: the sums must not depend on BLAS
        ksum, gsum = (fx * KRONROD).sum(axis=1), (fx * GAUSS).sum(axis=1)
        # qk15's estimate, per unit half-width: |K15 - G7| scaled by resasc,
        # the K15 integral of |f - mean f|, so that a panel which does not
        # resolve f is not passed on a chance agreement of the two rules
        resasc = (np.abs(fx - 0.5 * ksum[:, None]) * KRONROD).sum(axis=1)
        ratio = np.divide(200.0 * np.abs(ksum - gsum), resasc,
                          out=np.ones_like(resasc), where=resasc > 0)
        done = resasc * np.minimum(1.0, ratio) ** 1.5 <= 2.0 * per_width[row]
        accepted, accepted_row = half[done] * ksum[done], row[done]
        for k in np.flatnonzero(active):
            totals[k] = totals[k] + accepted[accepted_row == k].sum()
        a, mid, b, row = a[~done], mid[~done], b[~done], row[~done]
        a, b, row = np.concatenate((a, mid)), np.concatenate((mid, b)), np.tile(row, 2)
    return totals
