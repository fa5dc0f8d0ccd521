"""Trapezoidal reference approximant and its partial-fraction form."""

import math

import mpmath as mp
import numpy as np
import pytest

from lightningfit import (ContourSetup, EvaluationError, InputError,
                          TrapApproximant, default_step, large_pole_tail,
                          residue_rate_check, t_parameter,
                          tapered_poles, trap_error_bound,
                          trap_partial_fractions, trap_eval,
                          truncated_sqrt_integral)


def naive_partial_fraction_sum(pf, x):
    """The literal partial fractions C + sum a_j/(x - p_j), with residues
    a_j = w_j p_j and constant C = sum w_j, in floating point: the
    constant cancels against the large-pole terms near x = 0."""
    residues = pf.term_weights * pf.poles
    return pf.term_weights.sum() + (residues / (x[:, None] - pf.poles)).sum(axis=1)


def test_default_step_values():
    assert default_step() == pytest.approx(2 * math.pi**2)
    assert default_step(1.0) == pytest.approx(math.pi**2)
    with pytest.raises(InputError):
        default_step(2.0)


def test_t_parameter():
    assert t_parameter(64, 2 * math.pi**2) == pytest.approx(
        math.sqrt(64 * 2 * math.pi**2) / 2)


@pytest.mark.parametrize("nt", [8, 16, 32, 64, 128])
def test_error_bound_holds_exactly(nt):
    """Max validation error stays below 20 e^{-T}; no tolerance slack."""
    t = TrapApproximant(nt)
    x = np.logspace(-16, 0, 4001)
    err = np.max(np.abs(trap_eval(t, x) - np.sqrt(x)))
    assert err <= trap_error_bound(nt)


def test_error_bound_ratio_per_quadrupling():
    # T doubles when nt quadruples, so the bound squares (up to the constant)
    b1, b4 = trap_error_bound(16), trap_error_bound(64)
    t16 = t_parameter(16, default_step())
    assert b4 / b1 == pytest.approx(math.exp(-t16), rel=1e-12)


def test_trap_eval_at_zero_and_scalar():
    t = TrapApproximant(16)
    assert trap_eval(t, 0.0) == 0.0
    assert np.isscalar(trap_eval(t, 0.25)) or trap_eval(t, 0.25).ndim == 0
    assert trap_eval(t, 0.25) == pytest.approx(0.5, abs=trap_error_bound(16))


def test_trap_eval_rejects_pole_hit():
    t = TrapApproximant(4)
    # z = -e^{2 s_j} is a pole of the j-th term
    s1 = math.sqrt(t.step) - t.t_param
    with pytest.raises(EvaluationError):
        trap_eval(t, -math.exp(2 * s1))


@pytest.mark.parametrize("nt", [16.5, None])
def test_node_count_of_the_wrong_kind_is_an_input_error(nt):
    with pytest.raises(InputError, match="nt must be integral"):
        TrapApproximant(nt)


def test_trap_validation():
    with pytest.raises(InputError):
        TrapApproximant(0)
    with pytest.raises(InputError):
        TrapApproximant(8, beta=2.5)
    with pytest.raises(InputError):
        TrapApproximant(8, step=-1.0)
    with pytest.raises(InputError, match="step must be positive"):
        trap_partial_fractions(4, -1.0)
    with pytest.raises(InputError, match="step must be positive"):
        trap_partial_fractions(4, math.nan)


@pytest.mark.parametrize("make, takes_step", [
    (TrapApproximant, True),
    (lambda nt, **kw: ContourSetup(1.0, nt, **kw), False),
    (lambda nt, step=None, beta=0.0: residue_rate_check(step, beta, [nt]), True)],
    ids=["TrapApproximant", "ContourSetup", "residue_rate_check"])
def test_nan_step_and_beta_rejected(make, takes_step):
    # each validates the step in trapezoid.checked_step and beta through
    # Domain; a ContourSetup has no step of its own, only the matched one
    if takes_step:
        with pytest.raises(InputError, match="step must be positive"):
            make(16, step=math.nan)
    with pytest.raises(InputError, match="beta must lie"):
        make(16, beta=math.nan)


def test_partial_fractions_reject_double_overflow():
    # outermost pole is exp(2 sqrt(step * n1)); past ~e^709 it leaves float64
    from lightningfit import NumericError
    with pytest.raises(NumericError):
        trap_partial_fractions(8000, default_step())
    trap_partial_fractions(4096, default_step())  # largest supported scale


def test_partial_fraction_structure():
    """Nt = 4 N1 poles; exactly N1 of magnitude <= 1; 3 N1 beyond."""
    pf = trap_partial_fractions(16, default_step())
    assert pf.nt == 64
    assert len(pf.poles) == 64
    mags = np.abs(pf.poles)
    assert np.all(np.diff(mags) > 0)
    assert np.count_nonzero(mags <= 1.0) == 16
    assert np.all(mags[: pf.n1] <= 1.0)
    assert len(pf.large_poles) == 48
    assert np.array_equal(pf.large_poles, pf.poles[pf.n1:])


def test_small_poles_are_tapered_family():
    """First N1 partial-fraction poles = tapered set with sigma = 2 sqrt(h)."""
    n1, h = 16, default_step()
    pf = trap_partial_fractions(n1, h)
    model = tapered_poles(n1, 2.0 * math.sqrt(h), 1.0)
    assert np.allclose(pf.poles[: pf.n1], model, rtol=1e-15, atol=0)


def test_partial_fraction_identity_float_small():
    """Literal partial fractions match the node sum while cancellation is mild.

    At N1 = 2 (Nt = 8) the constant is ~3e5, so the naive form still keeps
    ~1e-12 relative accuracy for x in [0.01, 1]; larger N1 or smaller x
    loses digits linearly in the constant's size.
    """
    pf = trap_partial_fractions(2, default_step())
    t = TrapApproximant(8)
    x = np.logspace(-2, 0, 80)
    naive = naive_partial_fraction_sum(pf, x)
    direct = trap_eval(t, x)
    assert np.max(np.abs(naive - direct) / np.abs(direct)) < 5e-12


def test_partial_fraction_identity_mpmath():
    """Extended-precision check of the exact algebraic identity at Nt = 64.

    The float naive form is useless here (the constant is ~6e15), so the
    partial-fraction side is summed with mpmath at 60 digits.
    """
    n1, h = 16, default_step()
    pf = trap_partial_fractions(n1, h)
    t = TrapApproximant(64)
    x = np.logspace(-16, 0, 25)
    with mp.workdps(60):
        hh = 2 * mp.sqrt(mp.mpf(h))
        rn1 = mp.sqrt(n1)
        poles = [-mp.e**(-hh * (rn1 - mp.sqrt(j))) for j in range(1, 4 * n1 + 1)]
        weights = [mp.sqrt(h) / mp.pi * mp.sqrt(-p / j)
                   for j, p in enumerate(poles, start=1)]
        const = mp.fsum(weights)
        for xv in x:
            ref = const + mp.fsum(w * p / (mp.mpf(xv) - p)
                                  for w, p in zip(weights, poles))
            got = trap_eval(t, float(xv))
            assert abs(got - float(ref)) <= 1e-15 * abs(float(ref))


def test_stable_partial_fraction_matches_trap_eval():
    """C + sum a_j/(x - p_j) collapses to sum w_j x/(x - p_j), whose terms
    are all positive on [0, 1]; summed at 60 digits over the float poles
    and weights, it matches trap_eval to 1e-14 relative down to 1e-16."""
    pf = trap_partial_fractions(16, default_step())
    t = TrapApproximant(64)
    x = np.logspace(-16, 0, 200)
    direct = trap_eval(t, x)
    with mp.workdps(60):
        stable = np.array([float(mp.fsum(mp.mpf(w) * mp.mpf(xv) / (mp.mpf(xv) - mp.mpf(p))
                                         for w, p in zip(pf.term_weights, pf.poles)))
                           for xv in x])
    assert np.max(np.abs(stable - direct) / np.abs(direct)) < 1e-14


def test_naive_form_loses_accuracy_near_zero():
    """The documented cancellation: naive float form is O(1)-wrong at x = 1e-16."""
    pf = trap_partial_fractions(16, default_step())
    t = TrapApproximant(64)
    x = 1e-16
    naive = naive_partial_fraction_sum(pf, np.array([x]))[0]
    direct = trap_eval(t, x)
    assert abs(naive - direct) / abs(direct) > 1e-4


def test_large_pole_tail_plus_small_fractions_reconstructs():
    """tail + small-pole fractions = full approximant.

    Absolute check: near x = 0 the small-pole sum approaches -sum(w_j)
    and cancels the tail's head constant, so relative accuracy there is
    bounded by eps * sum(w_j) / f(x), not by the summation quality.
    """
    pf = trap_partial_fractions(8, default_step())
    x = np.logspace(-12, 0, 50)
    small_poles = pf.poles[: pf.n1]
    small = (pf.term_weights[: pf.n1] * small_poles
             / (x[:, None] - small_poles)).sum(axis=1)
    total = large_pole_tail(pf, x) + small
    direct = trap_eval(TrapApproximant(32), x)
    assert np.max(np.abs(total - direct)) < 1e-13
    mask = x >= 1e-4
    assert np.max(np.abs(total - direct)[mask] / np.abs(direct)[mask]) < 1e-10


def test_large_pole_tail_is_smooth_near_zero():
    # the tail is analytic past the smallest large pole; near 0 it is ~ C1 + C2 z
    pf = trap_partial_fractions(16, default_step())
    z = np.array([0.0, 1e-8, 2e-8])
    vals = large_pole_tail(pf, z)
    curvature = vals[0] - 2 * vals[1] + vals[2]
    assert abs(curvature) < 1e-12 * abs(vals[0])


def test_truncated_integral_converges_to_sqrt():
    """I(z, T) < sqrt(z) with gap below (2/pi)(1 + x) e^{-T} on (0, 1].

    At x = 1 the bound is tight to a relative e^{-2T}, which for T >= 10
    sinks below the oracle's own tolerance; hence the 1e-12 slack.
    """
    for t_param in (5.0, 10.0, 15.0):
        for xv in (1e-3, 0.1, 0.5, 1.0):
            bound = (2.0 / math.pi) * (1.0 + xv) * math.exp(-t_param)
            val = truncated_sqrt_integral(xv, t_param)
            gap = math.sqrt(xv) - val
            assert 0 < gap <= bound + 1e-12
    # comfortably strict case: margin ~1.3e-7 at T = 5, x = 1
    assert math.sqrt(1.0) - truncated_sqrt_integral(1.0, 5.0) \
        < (4.0 / math.pi) * math.exp(-5.0)


def test_truncated_integral_frozen_value():
    # closed form (2/pi)(atan(e^T) - atan(e^-T)) at z = 1, T = 5
    got = truncated_sqrt_integral(1.0, 5.0)
    assert got == pytest.approx(0.99142110925587544, rel=1e-13)


def test_truncated_integral_tiny_z():
    """Small z, where the raw integral over s is ~pi/(2 sqrt z) ~ 1e7 and
    the result ~1e-7: the textbook difference of arctangents
    (2 sqrt z/pi)(atan(e^T/sqrt z) - atan(e^{-T}/sqrt z)) pins the value."""
    z = 2e-14
    t_param = 17.0
    val = truncated_sqrt_integral(z, t_param)
    rz = math.sqrt(z)
    exact = (2 * rz / math.pi) * (math.atan(math.exp(t_param) / rz)
                                  - math.atan(math.exp(-t_param) / rz))
    assert val == pytest.approx(exact, rel=1e-10)
    assert val < rz
    # truncation error here is ~18% relative but within the absolute bound
    assert rz - val <= (2.0 / math.pi) * (1.0 + z) * math.exp(-t_param)


def test_truncated_integral_edge_cases():
    assert truncated_sqrt_integral(0.0, 5.0) == 0.0
    assert truncated_sqrt_integral(0j, 5.0) == 0.0


@pytest.mark.parametrize("z, t_param", [
    (0.5, 0.0), (0.5, -1.0), (0.5, math.nan), (0.5, math.inf), (0.5, None),
    (math.inf, 5.0), (complex(0.5, math.inf), 5.0), (math.nan, 5.0),
    (-1.0, 5.0), (complex(-1.0, -0.0), 5.0), (None, 5.0), ("1", 5.0)])
def test_truncated_integral_rejects_bad_input(z, t_param):
    """T finite and positive; z finite and off the negative real axis,
    where the closed form would otherwise return nan or take the wrong
    branch."""
    with pytest.raises(InputError):
        truncated_sqrt_integral(z, t_param)


@pytest.mark.parametrize("z, t_param", [
    (0.5, 750.0), (1e300, 400.0), (1e300 + 1e300j, 400.0), (1.0, 710.0)])
def test_truncated_integral_beyond_the_exponentials_range(z, t_param):
    """Where e^{-T} / sqrt(z) or e^{-2T} leaves the double range the value
    is still finite, with no numpy warning (the suite turns one into an
    error), and sqrt(z) to rounding: the truncation error there is below
    (2/pi)(1 + |z|) e^{-T}, under 1e-23 relative."""
    val = truncated_sqrt_integral(z, t_param)
    assert val == pytest.approx(complex(z) ** 0.5, rel=4e-16)


def test_truncated_integral_complex_arm():
    z = 0.5 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    val = truncated_sqrt_integral(z, 12.0)
    root = complex(z) ** 0.5
    assert abs(val - root) <= (4.0 / math.pi) * math.exp(-12.0)
