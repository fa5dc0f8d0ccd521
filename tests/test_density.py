"""Integrated pole density of the best approximant and its inversion."""

import json
import math
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightningfit import (InputError, NumericError, count_large_poles,
                          density_correction, density_leading, invert_stahl_density,
                          large_pole_estimate, pole_from_density,
                          pole_residue_pairs, stahl_density,
                          trap_partial_fractions)
from lightningfit import density
from lightningfit.experiments import run_pole_ladder


def test_leading_closed_form_vs_quadrature():
    """asinh(1/y)/pi equals the defining integral (1/pi) int_y^inf dt/(t sqrt(1+t^2))."""
    for y in (0.1, 1.0, 10.0, 100.0):
        with mp.workdps(30):
            ref = mp.quad(lambda t: 1 / (t * mp.sqrt(1 + t * t)), [y, mp.inf]) / mp.pi
        assert density_leading(y) == pytest.approx(float(ref), rel=1e-12)


def test_leading_frozen_value_and_vectorization():
    assert density_leading(1.0) == pytest.approx(0.28054992616959007, rel=1e-15)
    y = np.array([0.5, 1.0, 2.0])
    out = density_leading(y)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(0.28054992616959007, rel=1e-15)


def test_leading_large_y_expansion():
    """1/(pi y) - 1/(6 pi y^3) + O(y^-5); the cubic coefficient is -1/6, not -1/4."""
    for y in (10.0, 30.0, 100.0):
        model = 1.0 / (math.pi * y) - 1.0 / (6.0 * math.pi * y**3)
        err = abs(density_leading(y) - model)
        assert err < 0.3 / y**5
        # a -1/(4 pi y^3) term would miss by ~1/(12 pi y^3), far above y^-5
        wrong = 1.0 / (math.pi * y) - 1.0 / (4.0 * math.pi * y**3)
        assert abs(density_leading(y) - wrong) > 3.0 * err


def test_correction_negative_and_decaying():
    vals = [density_correction(y) for y in (0.1, 1.0, 10.0, 100.0)]
    assert all(v < 0 for v in vals)
    mags = [-v for v in vals]
    assert mags == sorted(mags, reverse=True)
    # frozen spot value: -(1/pi^2) int_0^1 asinh(t)/t dt
    with mp.workdps(30):
        ref = -mp.quad(lambda t: mp.asinh(t) / t, [0, 1]) / mp.pi**2
    assert density_correction(1.0) == pytest.approx(float(ref), rel=1e-10)


def test_correction_closed_form_vs_mpmath():
    """The closed form equals -(1/pi^2) int_0^inf asinh(e^-s/y) ds to 1e-14."""
    for y in np.geomspace(1e-8, 1e12, 41):
        y = float(y)
        with mp.workdps(30):
            # for y < 1 the integrand bends at e^-s/y = 1: split the interval there
            kink = [mp.log(1 / mp.mpf(y))] if y < 1 else []
            ref = -mp.quad(lambda s: mp.asinh(mp.exp(-s) / y),
                           [0, *kink, mp.inf]) / mp.pi**2
        assert abs(density_correction(y) - float(ref)) < 1e-14


def test_dilog_vs_mpmath():
    """The in-module Li2(e^{-2W}) is within 4.4e-16 absolute of mpmath's."""
    w = np.geomspace(1e-12, 40.0, 2001)
    ours = density._dilog(w, np.log(-np.expm1(-2.0 * w)))
    worst = 0.0
    with mp.workdps(40):
        for wk, value in zip(w.tolist(), ours.tolist()):
            ref = mp.polylog(2, mp.exp(-2 * mp.mpf(wk)))
            worst = max(worst, abs(float(value - ref)))
    assert worst <= 4.4e-16


def test_pole_ladder_runs_without_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the pole density called a quadrature")

    for name, module in list(sys.modules.items()):
        if name.startswith("lightningfit") and hasattr(module, "integrate_many"):
            monkeypatch.setattr(module, "integrate_many", no_quadrature)
    assert pole_from_density(64, 30.0) < 0
    assert count_large_poles(2500) > 0


H0 = 2.0 * math.pi**2


@pytest.mark.parametrize("call", [
    lambda: trap_partial_fractions(2.5, H0),
    lambda: trap_partial_fractions(None, H0),
    lambda: stahl_density(None, 1.0),
    lambda: stahl_density(4.5, 1.0),
    lambda: invert_stahl_density(None, 1.0),
    lambda: pole_from_density(None, 1.0),
    lambda: pole_from_density(2.5, 1.0),
    lambda: count_large_poles(None),
    lambda: count_large_poles(8.5),
    lambda: large_pole_estimate(None, 1),
    lambda: large_pole_estimate(8, 1.5),
    lambda: pole_residue_pairs(1.0, 5.0, None),
    lambda: pole_residue_pairs(1.0, 5.0, kmax=1.5),
    lambda: density_correction(None),
    lambda: density_correction("1"),
    lambda: run_pole_ladder((8.5,)),
])
def test_oracle_counts_of_the_wrong_kind_are_input_errors(call):
    """Counts must be integers and y a real number: InputError, not the
    TypeError of a comparison or of numpy."""
    with pytest.raises(InputError):
        call()


def test_density_rejects_nonpositive_y():
    with pytest.raises(InputError):
        density_leading(0.0)
    with pytest.raises(InputError):
        density_correction(-1.0)
    with pytest.raises(InputError):
        stahl_density(0, 1.0)
    for check in (density_leading, density_correction,
                  lambda y: stahl_density(4, y)):
        with pytest.raises(InputError, match="y must be positive"):
            check(math.nan)
    with pytest.raises(InputError, match="y must be positive"):
        density_leading(np.array([1.0, math.nan]))


@pytest.mark.parametrize("y", ["a", 1j, [1.0, "a"], [[1.0], [1.0, 2.0]],
                               np.array([1.0 + 1j]), "1.0"])
def test_density_leading_input_that_is_not_real_is_an_input_error(y):
    """Also a complex array, which numpy would cut to its real part with
    a ComplexWarning, and numeric text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="y must be positive"):
            density_leading(y)


def test_density_limits():
    """H -> (n+1)/2 as y -> infinity; H is increasing on the monotone branch."""
    n = 100
    assert stahl_density(n, 1e8) == pytest.approx((n + 1) / 2.0, rel=1e-9)
    ys = np.geomspace(1e-3, 1e3, 40)
    hs = [stahl_density(n, float(y)) for y in ys]
    assert all(b > a for a, b in zip(hs, hs[1:]))


def test_invert_round_trips():
    n = 400
    for y0 in (0.5, 1.0, 5.0):
        j = stahl_density(n, y0)
        y1 = invert_stahl_density(n, j)
        assert y1 == pytest.approx(y0, rel=1e-11)


@pytest.mark.parametrize("n, j", [(400, 200.499999999), (10**6, 500000.499999999)])
def test_invert_next_to_the_limit_vs_mpmath(n, j):
    """A billionth below (n+1)/2, H - j would cancel to H's rounding of
    about ulp(n/2) and move the root by 1e-5 (n = 400) to 3e-4 (n = 1e6)
    relative.  The margin (n+1)/2 - j is exact, so only Q's absolute
    rounding is left, against a 50-digit root of the same closed form."""
    with mp.workdps(50):
        def h_minus_j(w):
            q = mp.exp(-2 * w)
            big_q = -(w**2 / 2 + w * mp.log(1 - q) - mp.polylog(2, q) / 2
                      + mp.pi**2 / 12) / mp.pi**2
            return (mp.mpf(n + 1) / 2 - mp.mpf(j)) - mp.sqrt(n) * w / mp.pi - big_q

        w0 = mp.pi * (mp.mpf(n + 1) / 2 - mp.mpf(j)) / mp.sqrt(n)
        ref = float(1 / mp.sinh(mp.findroot(h_minus_j, w0)))
    assert invert_stahl_density(n, j) == pytest.approx(ref, rel=1e-7)


def test_invert_evaluations_per_pole(monkeypatch):
    """Newton places a pole in at most 8 evaluations of H on average, the
    two bracket ends included: each _correction call is counted by the
    rungs it evaluates."""
    rungs = []
    correction = density._correction
    monkeypatch.setattr(density, "_correction",
                        lambda w: rungs.append(np.size(w)) or correction(w))
    poles = 0
    for n in (8, 64, 144):
        pole_from_density(n, np.arange(1.0, n + 1.0))
        poles += n
    assert sum(rungs) / poles <= 8.0


def test_pole_ladder_matches_frozen_values():
    """Every rung for n in {16, 36, 64, 144} within 1e-12 relative of values
    frozen from the earlier root finder (Brent's method, xtol 1e-13)."""
    path = Path(__file__).with_name("data") / "density_poles.json"
    frozen = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(frozen, key=int) == ["16", "36", "64", "144"]
    for n, values in frozen.items():
        n = int(n)
        assert len(values) == n
        for j, ref in enumerate(values, start=1):
            assert pole_from_density(n, float(j)) == pytest.approx(ref, rel=1e-12)


def test_invert_near_turning_point_converges():
    """Close to H's minimum the slope vanishes and H's rounding stalls
    Newton; the shrinking bracket still ends the iteration."""
    n = 2 * 10**4
    for j in (0.585, 0.59, 0.6):
        y = invert_stahl_density(n, j)
        assert abs(stahl_density(n, y) - j) < 1e-11


def test_invert_range_validation():
    with pytest.raises(InputError):
        invert_stahl_density(100, 50.5)  # (n+1)/2 limit
    with pytest.raises(InputError):
        invert_stahl_density(100, 0.1)  # below the turning-point value
    # n is checked before the bracket's 1/sinh(pi sqrt(n)) divides by zero
    for invert in (invert_stahl_density, pole_from_density):
        with pytest.raises(InputError, match="n must be >= 1"):
            invert(0, 0.3)


@pytest.mark.parametrize("js, match", [
    ([1.0, 0.1, 2.0], "j=0.1 is below the monotone range"),
    ([1.0, 50.5, 2.0], "j must be below"),
    ([1.0, math.nan], "j must be below"),
])
def test_one_rung_outside_the_range_fails_the_call(js, match):
    with pytest.raises(InputError, match=match):
        invert_stahl_density(100, np.array(js))


@pytest.mark.parametrize("j", [np.array([1.0 + 1j]), np.array([1.0, 2.0 + 0j]),
                               [1.0, "a"], 1j, "1.0", ["1.0"]])
def test_complex_or_text_rungs_are_input_errors(j):
    """A complex j is refused, not cut to its real part, and text is not
    parsed as a number."""
    for invert in (invert_stahl_density, pole_from_density):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="j must be real"):
                invert(8, j)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(8, 2 * 10**4))
def test_a_rung_is_the_same_alone_and_in_any_ladder(data, n):
    """Each rung runs its own Newton iteration in lockstep with the others,
    so its y is the same bit for bit alone, in a ladder and in reverse."""
    rung = st.one_of(st.integers(1, n // 2).map(float),
                     st.floats(0.59, (n + 1) / 2.0 - 1e-6))
    js = np.array(data.draw(st.lists(rung, min_size=1, max_size=12)))
    ladder = invert_stahl_density(n, js)
    assert invert_stahl_density(n, js[::-1])[::-1].tobytes() == ladder.tobytes()
    alone = np.array([invert_stahl_density(n, float(j)) for j in js])
    assert alone.tobytes() == ladder.tobytes()


def test_a_rung_that_does_not_converge_becomes_its_row_status(monkeypatch):
    """Capped at one Newton step, the inversion fails; every ladder row
    still comes back, nan with a status or finite without one."""
    monkeypatch.setattr(density, "_NEWTON_CAP", 1)
    with pytest.raises(NumericError, match="did not converge"):
        pole_from_density(8, np.arange(1.0, 9.0))
    rows = run_pole_ladder((8,)).rows
    assert len(rows) == 8
    assert any(row[-1] for row in rows)
    for row in rows:
        assert math.isnan(row[2]) == bool(row[-1])
        assert all(math.isfinite(v) for v in row[3:6])


def test_invert_example_value():
    # near the middle of the ladder of the n = 2e4 approximant
    y = invert_stahl_density(2 * 10**4, 10**4)
    assert y == pytest.approx(89.827, rel=1e-3)


def test_large_pole_estimate_values_and_validation():
    assert large_pole_estimate(100, 1) == pytest.approx(-800.0 / (9 * math.pi**2),
                                                        rel=1e-15)
    with pytest.raises(InputError):
        large_pole_estimate(100, -1)
    with pytest.raises(InputError):
        large_pole_estimate(100, 100)


def test_top_rungs_match_large_pole_asymptote():
    """-(invert(2n, n-k))^2 within 3% of -8n/((2k+1)^2 pi^2) at n = 1e4."""
    n = 10**4
    for k in (0, 1, 2):
        exact = pole_from_density(n, float(n - k))
        model = large_pole_estimate(n, k)
        assert abs(exact / model - 1.0) < 0.03


def test_count_large_poles_rule():
    n = 10**4
    count = count_large_poles(n)
    assert abs(count / (0.4 * math.sqrt(n)) - 1.0) < 0.05
    with pytest.raises(InputError):
        count_large_poles(3)


def test_count_consistent_with_density_at_one():
    n = 2500
    count = count_large_poles(n)
    assert n - stahl_density(2 * n, 1.0) == pytest.approx(count, rel=1e-12)
    assert abs(count / (0.4 * math.sqrt(n)) - 1.0) < 0.05


def test_pole_from_density_squared_correspondence():
    """y coordinate squares to the pole magnitude."""
    n, j = 64, 30.0
    y = invert_stahl_density(2 * n, j)
    assert pole_from_density(n, j) == pytest.approx(-(y * y), rel=1e-13)
