"""Adaptive Gauss-Kronrod engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightningfit import InputError, NumericError, integrate_many, quadrature
from lightningfit.quadrature import GAUSS, KRONROD, NODES


def integrate_one(func, edges, tol):
    """`integrate_many` with the one integrand func(t) to absolute tol."""
    return integrate_many(lambda t, k: func(t), edges, [tol], ["the integral"])[0]


def segment(func, z0, z1):
    """func along the straight segment from z0 to z1, parametrised by [0, 1]."""
    dz = z1 - z0
    return lambda t: func(z0 + t * dz) * dz


def test_polynomial_near_exact():
    # K15 integrates cubics exactly; only roundoff remains
    val = integrate_one(lambda x: x**3 - 2 * x, (0.0, 2.0), 1e-14)
    assert val == pytest.approx(0.0, abs=1e-13)


def test_smooth_oscillatory():
    val = integrate_one(np.sin, (0.0, math.pi), 1e-13)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_exp_tail():
    val = integrate_one(lambda s: np.exp(-s), (0.0, 40.0), 1e-13)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_sharp_peak():
    # width-0.01 bump forces several bisections before the tolerance is met
    val = integrate_one(lambda x: 1.0 / (1e-4 + x**2), (-1.0, 1.0), 1e-10)
    exact = 2.0 * math.atan(1e2) / 1e-2
    assert val == pytest.approx(exact, rel=1e-11)


def test_zero_width_interval():
    assert integrate_one(lambda x: np.exp(x), (1.0, 1.0), 1e-13) == 0.0


def test_tolerance_is_absolute():
    big = integrate_one(lambda x: 1e8 * np.ones_like(x), (0.0, 1.0), 1e-4)
    assert big == pytest.approx(1e8, abs=1e-4)


def test_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_EVALS", 2**13)

    def noisy(x):
        # deterministic per-point jitter at 1e-3; no quadrature can settle to 1e-14
        return np.sin(x) + 1e-3 * np.sin(1e7 * x)

    with pytest.raises(NumericError):
        integrate_one(noisy, (0.0, 1.0), 1e-15)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    # checked before any evaluation, not after the evaluation budget runs out
    calls = []
    with pytest.raises(InputError, match="tol must be"):
        integrate_one(lambda x: calls.append(x) or np.sin(x), (0.0, 1.0), tol)
    assert calls == []


@pytest.mark.parametrize("edges", [(1.0, 0.0), (0.0,), (0.0, np.inf), (0.0, np.nan, 1.0)])
def test_edges_must_be_an_ordered_finite_sequence(edges):
    with pytest.raises(InputError):
        integrate_one(np.sin, edges, 1e-13)


def test_complex_integrand():
    val = integrate_one(lambda t: np.exp(1j * t), (0.0, math.pi / 2), 1e-13)
    assert val == pytest.approx(1.0 + 1j, abs=1e-12)


def test_line_integral_cauchy():
    """Integral of 1/z over a square around the origin is 2 pi i."""
    corners = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    total = 0.0j
    for z0, z1 in zip(corners[:-1], corners[1:]):
        total += integrate_one(segment(lambda z: 1.0 / z, z0, z1), (0.0, 1.0), 1e-12)
    assert total == pytest.approx(2j * math.pi, abs=1e-11)


def test_line_integral_entire_function_path_independence():
    f = lambda z: z * np.exp(z)
    direct = integrate_one(segment(f, 0.0, 1 + 1j), (0.0, 1.0), 1e-13)
    dogleg = integrate_one(segment(f, 0.0, 1.0), (0.0, 1.0), 1e-13) \
        + integrate_one(segment(f, 1.0, 1 + 1j), (0.0, 1.0), 1e-13)
    assert direct == pytest.approx(dogleg, abs=1e-12)


def test_rule_degrees_of_exactness():
    """On [0, 1], K15 is exact for x^d through d = 22 and G7 through d = 13."""
    x, half = 0.5 * (1.0 + NODES), 0.5
    for d in range(23):
        exact = 1.0 / (d + 1)
        assert half * (KRONROD * x**d).sum() == pytest.approx(exact, abs=1e-15), d
        gauss = half * (GAUSS * x**d).sum()
        assert (abs(gauss - exact) < 1e-15) == (d <= 13), d


def test_jump_at_an_edge_is_cheap():
    calls = []

    def step(x):
        calls.append(x.size)
        return np.where(x < 0.3, np.cos(x), 2.0 + np.cos(x))

    val = integrate_one(step, (0.0, 0.3, 1.0), 1e-13)
    assert val == pytest.approx(math.sin(1.0) + 1.4, abs=1e-13)
    assert sum(calls) < 200


# integrand families of one parameter c > 0, for the shared-edges engine
FAMILIES = (lambda c, t: np.sin(c * t), lambda c, t: np.exp(-c * t),
            lambda c, t: 1.0 / (c + t * t))


def family_sum(cases):
    """func(t, k) of integrate_many for the (family, c) cases."""
    def func(t, k):
        out = np.empty_like(t)
        for j, (family, c) in enumerate(cases):
            out[k == j] = FAMILIES[family](c, t[k == j])
        return out
    return func


def bits(x):
    return np.asarray(x).dtype.str, np.asarray(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(cases=st.lists(st.tuples(st.integers(0, 2), st.floats(0.1, 30.0),
                                st.floats(1e-12, 1e-6)), min_size=1, max_size=5),
       edges=st.sampled_from([(0.0, 1.0), (0.0, 0.3, 1.0), (0.0, 0.5, 2.0, 5.0)]))
def test_each_integral_gets_the_bits_it_gets_alone(cases, edges):
    """Integrals on shared edges, each to its own tolerance, return the
    bits each returns when integrated alone.  The integrands are at most
    10 in modulus on t >= 0, so every tolerance is within reach."""
    together = integrate_many(family_sum([case[:2] for case in cases]), edges,
                              [tol for *_, tol in cases],
                              [f"integral {j}" for j in range(len(cases))])
    for (family, c, tol), value in zip(cases, together):
        alone = integrate_one(lambda t: FAMILIES[family](c, t), edges, tol)
        assert bits(value) == bits(alone)


def test_the_budget_is_per_integral(monkeypatch):
    """Two integrals that each fit the budget pass together, though their
    evaluations sum past it; of two where only one does not, that one is
    refused by name."""
    def peak(t, k):
        return 1.0 / (1e-4 + t * t)

    used = []
    integrate_one(lambda x: used.append(x.size) or peak(x, None), (-1.0, 1.0), 1e-10)
    monkeypatch.setattr(quadrature, "MAX_EVALS", sum(used))
    assert len(integrate_many(peak, (-1.0, 1.0), [1e-10] * 2, ["a", "b"])) == 2
    monkeypatch.setattr(quadrature, "MAX_EVALS", sum(used) - 1)
    with pytest.raises(NumericError, match=f"^quadrature of b failed to reach "
                                            f"tol=1e-10 within {sum(used) - 1} "):
        integrate_many(peak, (-1.0, 1.0), [1e-6, 1e-10], ["a", "b"])
