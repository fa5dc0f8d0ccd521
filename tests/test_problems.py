"""Targets, domains, and sample grids."""

import math

import numpy as np
import pytest

from lightningfit import (BasisSpec, Domain, InputError, SampleGrid, Target,
                          build_fit_grid, eval_target, experiments, fit,
                          fitting, tapered_poles)


def test_sqrt_target_fixes_alpha():
    t = Target.sqrt()
    assert t.alpha == 0.5
    with pytest.raises(InputError):
        Target("sqrt", 0.3)


def test_power_target_rejects_integer_exponents():
    Target.power(0.5)
    Target.power(1.5)
    with pytest.raises(InputError):
        Target.power(2.0)
    with pytest.raises(InputError):
        Target.power(-0.5)
    with pytest.raises(InputError):
        Target.power(math.inf)


@pytest.mark.parametrize("kind", ["cube", None])
def test_unknown_target_kind_is_an_input_error(kind):
    with pytest.raises(InputError, match="one of sqrt, power, powerlog"):
        Target(kind)


def test_power_log_allows_integer_exponents():
    # z^2 log z is still singular at 0, unlike plain z^2
    t = Target.power_log(2.0)
    assert t.alpha == 2.0


def test_eval_target_sqrt_matches_numpy():
    x = np.logspace(-16, 0, 50)
    assert np.allclose(eval_target(Target.sqrt(), x), np.sqrt(x), rtol=0, atol=0)


def test_eval_target_zero_maps_to_zero():
    assert eval_target(Target.sqrt(), 0.0) == 0.0
    assert eval_target(Target.power_log(0.5), 0.0) == 0.0
    out = eval_target(Target.power(0.75), np.array([0.0, 1.0]))
    assert out[0] == 0.0 and out[1] == 1.0


def test_eval_target_power_log_value():
    t = Target.power_log(0.5)
    x = 0.25
    assert eval_target(t, x) == pytest.approx(math.sqrt(x) * math.log(x), rel=1e-15)


def test_eval_target_principal_branch_on_arm():
    z = 0.3 * np.exp(1j * math.pi / 4)
    got = eval_target(Target.sqrt(), z)
    assert got == pytest.approx(np.sqrt(0.3) * np.exp(1j * math.pi / 8), rel=1e-15)


def test_eval_target_rejects_branch_cut():
    with pytest.raises(InputError):
        eval_target(Target.sqrt(), -0.5)
    with pytest.raises(InputError):
        eval_target(Target.sqrt(), np.array([0.5 + 0j, -0.5 + 0j]))


def test_domain_validation():
    assert Domain.vshape(1.0).arm_angle == pytest.approx(math.pi / 2)
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


@pytest.mark.parametrize("kwargs, kind", [({"per_arm": None}, "integral"),
                                          ({"per_arm": 100.5}, "integral"),
                                          ({"decades": None}, "real")])
def test_grid_size_of_the_wrong_kind_is_an_input_error(kwargs, kind):
    with pytest.raises(InputError, match=f"must be {kind}"):
        build_fit_grid(Domain(), **kwargs)


def test_fit_grid_interval_is_real_logspaced():
    g = build_fit_grid(Domain.unit_interval(), decades=16.0, per_arm=100)
    assert len(g) == 100
    assert not np.iscomplexobj(g.points)
    assert g.points[0] == pytest.approx(1e-16)
    assert g.points[-1] == 1.0
    # uniform log spacing
    ratios = g.points[1:] / g.points[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_fit_grid_vshape_conjugate_closed():
    """The grid holds the upper arm; with its mirror image, which each
    point stands for, it covers both arms of the domain."""
    g = build_fit_grid(Domain.vshape(0.5), per_arm=64)
    assert len(g) == 64
    radii = build_fit_grid(Domain.unit_interval(), per_arm=64).points
    assert np.allclose(np.abs(g.points), radii, rtol=1e-15)
    assert np.allclose(np.angle(np.conj(g.points)), -0.25 * np.pi, rtol=1e-15)


def test_grid_upper_arm():
    interval = build_fit_grid(Domain.unit_interval(), per_arm=10)
    assert len(interval) == 10 and not np.iscomplexobj(interval.points)
    vshape = build_fit_grid(Domain.vshape(0.5), per_arm=10)
    assert len(vshape) == 10
    assert np.all(vshape.points.imag > 0)


def test_grid_holds_contiguous_float64_or_complex128_points():
    """A hand-built grid of strided float32 or complex64 points holds and
    fits them bit for bit as their contiguous float64 or complex128 copy."""
    spec = BasisSpec(tapered_poles(6, 4.0), poly_degree=4)
    for domain in (Domain.unit_interval(), Domain.vshape(1.0)):
        grid = build_fit_grid(domain, per_arm=200)
        narrow = grid.points.astype(np.complex64 if domain.beta else np.float32)
        coarse = SampleGrid(points=np.repeat(narrow, 2)[::2], domain=domain)
        wide = SampleGrid(points=narrow.astype(grid.points.dtype), domain=domain)
        assert coarse.points.dtype == grid.points.dtype
        assert coarse.points.flags.c_contiguous
        vgrid = build_fit_grid(domain, per_arm=500)
        assert np.array_equal(fit(Target.sqrt(), spec, coarse, vgrid)[0].coeffs,
                              fit(Target.sqrt(), spec, wide, vgrid)[0].coeffs)


def test_grid_points_read_only():
    g = build_fit_grid(Domain.unit_interval(), per_arm=10)
    with pytest.raises(ValueError):
        g.points[0] = 2.0


def test_grid_rejects_bad_parameters():
    with pytest.raises(InputError):
        build_fit_grid(Domain.unit_interval(), per_arm=0)
    with pytest.raises(InputError):
        build_fit_grid(Domain.unit_interval(), decades=0.0)
    with pytest.raises(InputError):  # the radii round to repeated values
        build_fit_grid(Domain.unit_interval(), decades=1e-16)


def test_validation_grid_default_density(monkeypatch):
    """run_fit and the sweeps validate on 10000 points per arm, over the
    fit grid's decades."""
    seen = []

    def recorded(target, specs, grid, validation_grid, eps_rel):
        seen.append((len(grid), len(validation_grid), validation_grid.points[0]))
        return fit_nested(target, specs, grid, validation_grid, eps_rel)

    fit_nested = fitting.fit_nested
    for module in (experiments, fitting):  # run_fit calls fitting.fit
        monkeypatch.setattr(module, "fit_nested", recorded)
    experiments.run_fit(n1=6, per_arm=300, decades=8.0)
    experiments.run_grid(n1_list=(4,), n2_list=(2,), per_arm=300)
    assert seen == [(300, 10000, pytest.approx(1e-8, rel=1e-15)),
                    (300, 10000, pytest.approx(1e-16, rel=1e-15))]
