"""Preassigned pole families.

The frozen reference values below were generated with mpmath at 40
digits from the defining formulas and rounded to double precision.
"""

import math

import numpy as np
import pytest

from lightningfit import InputError, PoleSet, big_poles, tapered_poles, uniform_poles

# -exp(-2 (sqrt(4) - sqrt(j))), j = 1..4
TAPERED_4_2_1 = np.array([
    -0.13533528323661269,
    -0.30987915649682614,
    -0.58514336999496869,
    -1.0,
])

# -2 exp(-j / sqrt(3)), j = 0..2
UNIFORM_3_1_2 = np.array([
    -2.0,
    -1.1227678275978563,
    -0.63030379734440478,
])

# -800 / ((2i+1)^2 pi^2), i = 1..3
BIG_100_3 = np.array([
    -9.0063274348744686,
    -3.2422778765548087,
    -1.6542234064055146,
])


def test_tapered_frozen_values():
    p = tapered_poles(4, 2.0, 1.0)
    assert np.allclose(p.poles, TAPERED_4_2_1, rtol=1e-15, atol=0)


def test_uniform_frozen_values():
    p = uniform_poles(3, 1.0, 2.0)
    assert np.allclose(p.poles, UNIFORM_3_1_2, rtol=1e-15, atol=0)


def test_big_frozen_values():
    p = big_poles(100, 3)
    assert np.allclose(p.poles, BIG_100_3, rtol=1e-15, atol=0)


def test_tapered_ordering_and_extremes():
    """Tapered sets ascend in magnitude from exp(-sigma(sqrt(N1)-1)) to the scale."""
    n1, sigma, c = 25, 4.0, 1.5
    p = tapered_poles(n1, sigma, c).poles
    mags = np.abs(p)
    assert np.all(np.diff(mags) > 0)
    assert mags[-1] == pytest.approx(c, rel=1e-15)
    assert mags[0] == pytest.approx(c * math.exp(-sigma * (math.sqrt(n1) - 1)), rel=1e-14)


def test_uniform_ordering_and_gap():
    """Uniform sets descend from the scale with constant log gap sigma/sqrt(N1)."""
    n1, sigma, c = 16, 3.0, 2.0
    p = uniform_poles(n1, sigma, c).poles
    mags = np.abs(p)
    assert np.all(np.diff(mags) < 0)
    assert mags[0] == pytest.approx(c, rel=1e-15)
    gaps = np.diff(np.log(mags))
    assert np.allclose(gaps, -sigma / math.sqrt(n1), rtol=1e-12)


def test_big_descends_and_scales_linearly_in_n():
    p = big_poles(50, 5).poles
    assert np.all(np.diff(np.abs(p)) < 0)
    q = big_poles(100, 5).poles
    assert np.allclose(q, 2.0 * p, rtol=1e-15)


def test_smallest_tapered_pole_magnitude_rule():
    # |p_1| ~ exp(-sigma sqrt(N1)) up to the exp(sigma) factor from j = 1
    for n1, sigma in ((9, 2.0), (49, 7.0)):
        p = tapered_poles(n1, sigma)
        expected = math.exp(-sigma * (math.sqrt(n1) - 1.0))
        assert abs(p.poles[0]) == pytest.approx(expected, rel=1e-13)


def test_pole_set_validation():
    with pytest.raises(InputError):
        PoleSet(np.array([-1.0, 0.0]))
    with pytest.raises(InputError):
        PoleSet(np.array([-1.0, 1.0]))
    with pytest.raises(InputError):
        PoleSet(np.array([-1.0, -1.0]))
    with pytest.raises(InputError):
        PoleSet(np.array([[-1.0], [-2.0]]))
    with pytest.raises(InputError):
        PoleSet(np.array([-math.inf]))


def test_pole_set_immutable():
    p = tapered_poles(3, 1.0)
    with pytest.raises(ValueError):
        p.poles[0] = -5.0


def test_family_parameter_validation():
    with pytest.raises(InputError):
        tapered_poles(0, 1.0)
    with pytest.raises(InputError):
        uniform_poles(3, -1.0)
    with pytest.raises(InputError):
        tapered_poles(3, 1.0, 0.0)
    with pytest.raises(InputError):
        big_poles(10, 0)
    with pytest.raises(InputError):
        big_poles(0, 3)
    with pytest.raises(InputError, match="sigma must be positive, got nan"):
        tapered_poles(3, math.nan)
    with pytest.raises(InputError, match="scale must be positive, got nan"):
        uniform_poles(3, 1.0, math.nan)


def test_counts_must_be_integers():
    """16.5 poles would silently build 17, the last one beyond C."""
    for make in (lambda: tapered_poles(16.5, 3.0), lambda: uniform_poles(16.0, 3.0),
                 lambda: big_poles(None, 3)):
        with pytest.raises(InputError, match="number of poles must be integral"):
            make()
    with pytest.raises(InputError, match="n2 must be integral"):
        big_poles(10, 2.5)
    with pytest.raises(InputError, match="sigma must be real"):
        tapered_poles(16, "3.0")
    assert len(tapered_poles(np.int64(16), np.float32(3.0))) == 16


def test_len_counts_poles():
    assert len(tapered_poles(7, 2.5, 3.0)) == 7
