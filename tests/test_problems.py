"""Targets, domains, and fit grids."""

import math

import numpy as np
import pytest

from lightningfit import (Domain, InputError, Target, build_fit_grid,
                          eval_target, experiments, fitting)
from lightningfit.errors import MAX_ENTRIES
from lightningfit.problems import DECADES


def test_sqrt_target_fixes_alpha():
    t = Target("sqrt")
    assert t.alpha == 0.5
    with pytest.raises(InputError):
        Target("sqrt", 0.3)


def test_power_target_rejects_integer_exponents():
    Target("power", 0.5)
    Target("power", 1.5)
    with pytest.raises(InputError):
        Target("power", 2.0)
    with pytest.raises(InputError):
        Target("power", -0.5)
    with pytest.raises(InputError):
        Target("power", math.inf)


@pytest.mark.parametrize("kind", ["cube", None])
def test_unknown_target_kind_is_an_input_error(kind):
    with pytest.raises(InputError, match="one of sqrt, power, powerlog"):
        Target(kind)


def test_power_log_allows_integer_exponents():
    # z^2 log z is still singular at 0, unlike plain z^2
    t = Target("powerlog", 2.0)
    assert t.alpha == 2.0


def test_eval_target_sqrt_matches_numpy():
    x = np.logspace(-16, 0, 50)
    assert np.allclose(eval_target(Target("sqrt"), x), np.sqrt(x), rtol=0, atol=0)


def test_eval_target_zero_maps_to_zero():
    assert eval_target(Target("sqrt"), 0.0) == 0.0
    assert eval_target(Target("powerlog", 0.5), 0.0) == 0.0
    out = eval_target(Target("power", 0.75), np.array([0.0, 1.0]))
    assert out[0] == 0.0 and out[1] == 1.0


def test_eval_target_power_log_value():
    t = Target("powerlog", 0.5)
    x = 0.25
    assert eval_target(t, x) == pytest.approx(math.sqrt(x) * math.log(x), rel=1e-15)


def test_eval_target_principal_branch_on_arm():
    z = 0.3 * np.exp(1j * math.pi / 4)
    got = eval_target(Target("sqrt"), z)
    assert got == pytest.approx(np.sqrt(0.3) * np.exp(1j * math.pi / 8), rel=1e-15)


def test_eval_target_rejects_branch_cut():
    with pytest.raises(InputError):
        eval_target(Target("sqrt"), -0.5)
    with pytest.raises(InputError):
        eval_target(Target("sqrt"), np.array([0.5 + 0j, -0.5 + 0j]))


def test_domain_validation():
    assert Domain(1.0).arm_angle == pytest.approx(math.pi / 2)
    assert math.copysign(1.0, Domain(-0.0).beta) == 1.0  # -0 is the interval
    with pytest.raises(InputError):
        Domain(2.0)
    with pytest.raises(InputError):
        Domain(-0.1)


@pytest.mark.parametrize("make", [lambda: Domain(None), lambda: Domain("abc"),
                                  lambda: Domain(0.5j),
                                  lambda: Target("power", None),
                                  lambda: Target("power", "0.5")])
def test_numeric_argument_of_the_wrong_kind_is_an_input_error(make):
    with pytest.raises(InputError, match="must be real"):
        make()


@pytest.mark.parametrize("per_arm", [None, 100.5])
def test_grid_size_of_the_wrong_kind_is_an_input_error(per_arm):
    with pytest.raises(InputError, match="must be integral"):
        build_fit_grid(Domain(), per_arm)


def test_fit_grid_interval_is_real_logspaced():
    g = build_fit_grid(Domain(), per_arm=100)
    assert len(g) == 100
    assert not np.iscomplexobj(g)
    assert g[0] == pytest.approx(1e-16)
    assert g[-1] == 1.0
    # uniform log spacing
    ratios = g[1:] / g[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_fit_grid_vshape_conjugate_closed():
    """The grid holds the upper arm; with its mirror image, which each
    point stands for, it covers both arms of the domain."""
    g = build_fit_grid(Domain(0.5), per_arm=64)
    assert len(g) == 64
    radii = build_fit_grid(Domain(), per_arm=64)
    assert np.allclose(np.abs(g), radii, rtol=1e-15)
    assert np.allclose(np.angle(np.conj(g)), -0.25 * np.pi, rtol=1e-15)


def test_grid_upper_arm():
    interval = build_fit_grid(Domain(), per_arm=10)
    assert len(interval) == 10 and not np.iscomplexobj(interval)
    vshape = build_fit_grid(Domain(0.5), per_arm=10)
    assert len(vshape) == 10
    assert np.all(vshape.imag > 0)


@pytest.mark.parametrize("beta, dtype", [(0.0, np.float64), (1.0, np.complex128)])
def test_grid_points_read_only(beta, dtype):
    """The points are a read-only, C-contiguous float64 array on the
    interval and complex128 on a V-domain, the layouts `fitting` reads as
    real rows."""
    g = build_fit_grid(Domain(beta), per_arm=10)
    assert g.dtype == dtype and g.flags.c_contiguous
    with pytest.raises(ValueError):
        g[0] = 2.0


def test_grid_rejects_bad_parameters():
    with pytest.raises(InputError):
        build_fit_grid(Domain(), per_arm=0)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_single_point_grid_sits_at_radius_one(beta):
    domain = Domain(beta)
    g = build_fit_grid(domain, per_arm=1)
    assert g.tolist() == [domain.arm_point(1.0)]


def test_grid_radii_stay_normal_and_distinct_up_to_the_cap():
    """The checks the fixed depth made redundant: at DECADES the smallest
    radius is a normal float, and the most points per arm the cap allows
    still round to distinct radii."""
    assert 10.0 ** -DECADES >= np.finfo(float).tiny
    assert 10.0 ** (DECADES / (MAX_ENTRIES - 1)) > 1.0 + 1000 * np.finfo(float).eps


def test_validation_grid_default_density(monkeypatch):
    """fitting builds both grids of run_fit and of the sweeps: the fit
    grid, then the validation grid of 10000 points per arm, over the fit
    grid's DECADES."""
    seen = []

    def recorded(domain, per_arm):
        grid = build_fit_grid(domain, per_arm)
        seen.append((len(grid), grid[0]))
        return grid

    monkeypatch.setattr(fitting, "build_fit_grid", recorded)
    experiments.run_fit(n1=6, per_arm=300)
    experiments.run_grid(n1_list=(4,), per_arm=300)
    first = pytest.approx(1e-16, rel=1e-15)
    assert seen == [(300, first), (10000, first)] * 2


def test_powerlog_values_do_not_depend_on_the_array_length():
    """x^alpha log x on a 20000-point V-domain arm, past the size where
    numpy reuses a temporary and multiplies in the other order, is bit for
    bit its two 10000-point halves."""
    target = Target("powerlog", 0.5)
    arm = Domain(0.5).arm_point(np.logspace(-DECADES, 0.0, 20000))
    halves = [eval_target(target, arm[:10000]), eval_target(target, arm[10000:])]
    assert np.array_equal(eval_target(target, arm), np.concatenate(halves))
