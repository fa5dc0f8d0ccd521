"""Basis columns, TSVD least squares, fitted approximants."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from lightningfit import (BasisSpec, Domain, InputError, NumericError,
                          SampleGrid, Target, big_poles, build_fit_grid,
                          eval_target, evaluate, fit, max_error, tapered_poles,
                          uniform_poles)
from lightningfit import fitting
from lightningfit.experiments import VAL_PER_ARM, run_fit, run_grid
from lightningfit.fitting import (DEFAULT_TSVD_EPS, _factor, _poly_chain_build,
                                  _poly_chain_eval, _solve_r, _write_system,
                                  fit_nested)

SQRT = Target.sqrt()
INTERVAL = Domain.unit_interval()


def _fit(spec, grid=None, validation_grid=None):
    """fit of sqrt on the grids given; by default on the interval's fit
    grid, and validated on VAL_PER_ARM points per arm of the fit grid's
    domain, the grids run_fit builds."""
    grid = build_fit_grid(INTERVAL) if grid is None else grid
    if validation_grid is None:
        validation_grid = build_fit_grid(grid.domain, per_arm=VAL_PER_ARM)
    return fit(SQRT, spec, grid, validation_grid)


def _basis(grid, spec):
    """The basis columns of spec on the grid, as the fit writes them: its
    system without the data column."""
    block = _poly_chain_build(grid.points, spec.poly_degree)[0] \
        if spec.poly_degree >= 0 else None
    data = np.zeros(len(grid), grid.points.dtype)
    return _write_system(grid, spec, data, block)[0][:, :-1]


def _tsvd(a, f, eps_rel=DEFAULT_TSVD_EPS):
    """(coeffs, rank) of the fit's solve, on the column-major [a | f]."""
    system = np.empty((len(f), a.shape[1] + 1), order="F")
    system[:, :-1], system[:, -1] = a, f
    return _solve_r(_factor(system), a.shape[1], eps_rel)


def test_basis_spec_counting():
    spec = BasisSpec(np.concatenate([tapered_poles(5, 2.0), big_poles(10, 3)]),
                     poly_degree=4)
    assert spec.n_columns == 5 + 3 + 5
    assert spec.total_degree == 5 + 3 + 4
    assert len(spec.poles) == 8
    # constant-only polynomial contributes a column but no degree
    just_const = BasisSpec(tapered_poles(5, 2.0), poly_degree=0)
    assert just_const.n_columns == 6
    assert just_const.total_degree == 5
    no_poly = BasisSpec(tapered_poles(5, 2.0), poly_degree=-1)
    assert no_poly.n_columns == 5
    assert no_poly.total_degree == 5


def test_basis_spec_rejects_empty_and_bad_degree():
    with pytest.raises(InputError):
        BasisSpec(poly_degree=-1)
    with pytest.raises(InputError):
        BasisSpec(tapered_poles(3, 1.0), poly_degree=-2)


def test_basis_spec_rejects_a_fractional_degree():
    with pytest.raises(InputError, match="poly_degree must be integral"):
        BasisSpec(poly_degree=2.5)


def test_polynomial_columns_orthonormal():
    grid = build_fit_grid(Domain.unit_interval(), per_arm=500)
    system = _basis(grid, BasisSpec(poly_degree=12))
    gram = system.T @ system
    assert np.max(np.abs(gram - np.eye(13))) < 1e-12


def test_polynomial_columns_orthonormal_complex_grid():
    # the real rows Re, Im of each upper-arm point: S^H S over the whole
    # grid is 2 S_fold^T S_fold
    grid = build_fit_grid(Domain.vshape(1.0), per_arm=400)
    system = _basis(grid, BasisSpec(poly_degree=8))
    gram = 2.0 * system.T @ system
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def test_polynomial_reevaluation_matches_grid():
    """The recurrence re-evaluated at the grid reproduces the system's columns."""
    grid = build_fit_grid(Domain.unit_interval(), per_arm=300)
    system = _basis(grid, BasisSpec(poly_degree=10))
    _, hess, norm0 = _poly_chain_build(grid.points, 10)
    again = _poly_chain_eval(grid.points, hess, norm0)
    assert np.max(np.abs(again - system)) < 1e-13


def test_polynomial_chain_spans_monomials():
    # degree-3 chain on a modest grid reproduces an exact cubic
    grid = build_fit_grid(Domain.unit_interval(), per_arm=200, decades=3.0)
    system = _basis(grid, BasisSpec(poly_degree=3))
    z = grid.points
    f = 1.0 - 2.0 * z + 0.5 * z**3
    coeffs, rank = _tsvd(system, f)
    assert rank == 4
    assert np.max(np.abs(system @ coeffs - f)) < 1e-13


def test_partial_fraction_columns_scaled_to_unit_max():
    grid = build_fit_grid(Domain.unit_interval(), per_arm=400)
    system = _basis(grid, BasisSpec(tapered_poles(8, 3.0), poly_degree=-1))
    assert np.allclose(np.abs(system).max(axis=0), 1.0, rtol=1e-14)


def test_vshape_partial_fraction_columns_scaled_to_unit_max():
    """Each arm point's real row, then its imaginary row: each column's
    largest modulus on the arm is 1."""
    grid = build_fit_grid(Domain.vshape(1.0), per_arm=400)
    system = _basis(grid, BasisSpec(tapered_poles(8, 3.0), poly_degree=-1))
    modulus = np.hypot(system[0::2], system[1::2]).max(axis=0)
    assert np.max(np.abs(modulus - 1.0)) <= 1e-14


def test_evaluate_reads_input_as_its_contiguous_copy():
    """A strided complex view, an int list and float32 input evaluate bit
    for bit as their contiguous complex128 or float64 copies."""
    spec = BasisSpec(tapered_poles(8, 4.0), poly_degree=5)
    vshape, _ = _fit(spec, build_fit_grid(Domain.vshape(1.0), per_arm=300))
    z = build_fit_grid(Domain.vshape(1.0), per_arm=101).points[::3]
    assert not z.flags.c_contiguous
    assert np.array_equal(evaluate(vshape, z), evaluate(vshape, z.copy()))
    interval, _ = _fit(spec, build_fit_grid(Domain.unit_interval(), per_arm=300))
    x32 = np.linspace(0.0, 1.0, 37, dtype=np.float32)
    for approx in (interval, vshape):
        values = evaluate(approx, x32)
        assert values.dtype == np.float64
        assert np.array_equal(values, evaluate(approx, x32.astype(float)))
        assert np.array_equal(evaluate(approx, [0, 1, 2]),
                              evaluate(approx, np.array([0.0, 1.0, 2.0])))


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_evaluate_keeps_the_input_shape(beta):
    """A (2, 2) input gives the values of its raveled 1-D call bit for bit,
    in the input's shape."""
    approx, _ = _fit(BasisSpec(tapered_poles(8, 4.0), poly_degree=5),
                     build_fit_grid(Domain(beta), per_arm=300))
    z = build_fit_grid(Domain(beta), per_arm=4).points.reshape(2, 2)
    values = evaluate(approx, z)
    assert values.shape == (2, 2)
    assert np.array_equal(values.ravel(), evaluate(approx, z.ravel()))
    assert np.array_equal(approx(z), values)


def test_evaluate_rejects_point_on_pole():
    grid = build_fit_grid(Domain.unit_interval(), per_arm=50)
    spec = BasisSpec(tapered_poles(4, 2.0), poly_degree=-1)
    approx, _ = _fit(spec, grid)
    with pytest.raises(InputError):
        evaluate(approx, np.array([spec.poles[0]]))


def test_tsvd_matches_normal_equations_when_well_conditioned():
    """On a well-conditioned random system TSVD equals the lstsq solution."""
    rng = np.random.default_rng(42)
    a = rng.standard_normal((50, 10))
    f = rng.standard_normal(50)
    coeffs, rank = _tsvd(a, f, eps_rel=1e-12)
    ref, *_ = np.linalg.lstsq(a, f, rcond=None)
    assert rank == 10
    assert np.allclose(coeffs, ref, rtol=1e-10)


def test_tsvd_truncates_tiny_directions():
    # second column is a 1e-20 perturbation of the first: rank collapses to 1
    base = np.linspace(1.0, 2.0, 30)
    a = np.column_stack([base, base * (1 + 1e-20)])
    f = 3.0 * base
    coeffs, rank = _tsvd(a, f, eps_rel=1e-14)
    assert rank == 1
    # minimum-norm solution splits the weight between the twin columns
    assert np.allclose(coeffs, [1.5, 1.5], rtol=1e-10)


def test_tsvd_input_validation():
    """The cutoff is checked before any fit; a zero matrix keeps no
    singular value."""
    spec = BasisSpec(tapered_poles(4, 2.0), poly_degree=2)
    grid = build_fit_grid(INTERVAL, per_arm=50)
    for eps_rel in (0.0, -1.0, math.nan, 2.0, math.inf, "1e-14"):
        with pytest.raises(InputError, match="eps_rel must"):
            fit(SQRT, spec, grid, grid, eps_rel=eps_rel)
    with pytest.raises(NumericError):
        _tsvd(np.zeros((3, 3)), np.ones(3))


def test_tsvd_rejects_non_finite_input():
    a = np.random.default_rng(3).standard_normal((20, 4))
    f = np.ones(20)
    a_nan = a.copy()
    a_nan[5, 2] = np.nan
    with pytest.raises(NumericError):
        _tsvd(a_nan, f)
    f_inf = f.copy()
    f_inf[7] = np.inf
    with pytest.raises(NumericError):
        _tsvd(a, f_inf)


def test_fit_sqrt_moderate_accuracy():
    spec = BasisSpec(tapered_poles(16, 2 * math.sqrt(2) * math.pi, 2.0),
                     poly_degree=6)
    approx, report = _fit(spec)
    assert report.max_err < 1e-6
    assert report.eff_rank > 0
    assert spec.total_degree == 22


def test_fit_scale_invariance_of_report():
    """Scaling all basis columns is absorbed by the per-column normalization.

    Fitting with scale C and with C' = C changes nothing; this pins the
    determinism of the pipeline (identical inputs, identical outputs).
    """
    spec = BasisSpec(tapered_poles(12, 6.0, 1.0), poly_degree=4)
    _, rep1 = _fit(spec)
    _, rep2 = _fit(spec)
    assert rep1.max_err == rep2.max_err
    assert rep1.coeff_2norm == rep2.coeff_2norm


def test_fit_vshape_conjugate_symmetry():
    """Real target on a conjugate-closed grid gives a real-on-axis approximant."""
    domain = Domain.vshape(1.0)
    spec = BasisSpec(tapered_poles(20, 2 * math.pi, 1.0), poly_degree=6)
    approx, report = _fit(spec, build_fit_grid(domain, per_arm=800))
    assert report.max_err < 1e-4
    x = np.linspace(0.05, 0.9, 7)
    vals = evaluate(approx, x.astype(complex))
    assert np.max(np.abs(vals.imag)) < 1e-10 * np.max(np.abs(vals))


def test_fit_residual_decreases_with_nested_basis():
    """Adding columns can only help the least-squares residual."""
    grid = build_fit_grid(Domain.unit_interval(), per_arm=600)
    f_resid = []
    for degree in (2, 5, 9):
        spec = BasisSpec(tapered_poles(10, 7.0), poly_degree=degree)
        _, rep = _fit(spec, grid)
        f_resid.append(rep.resid_2norm)
    assert f_resid[1] <= f_resid[0] * (1 + 1e-10)
    assert f_resid[2] <= f_resid[1] * (1 + 1e-10)


def test_uniform_poles_fit_worse_than_tapered_at_equal_budget():
    """The tapered family's doubled rate shows up already at N1 = 36."""
    n1 = 36
    tap = BasisSpec(tapered_poles(n1, 2 * math.sqrt(2) * math.pi, 2.0),
                    poly_degree=8)
    uni = BasisSpec(uniform_poles(n1, 2 * math.pi, 2.0), poly_degree=8)
    _, rep_tap = _fit(tap)
    _, rep_uni = _fit(uni)
    assert rep_tap.max_err < rep_uni.max_err / 10


def test_evaluate_scalar_and_array():
    spec = BasisSpec(tapered_poles(8, 5.0), poly_degree=2)
    approx, _ = _fit(spec)
    scalar = evaluate(approx, 0.5)
    arr = evaluate(approx, np.array([0.5, 0.7]))
    assert arr.ndim == 1
    # 1-row and 2-row matvecs may sum in different orders; ulp-level slack
    assert scalar == pytest.approx(arr[0], rel=1e-13)
    assert approx(0.5) == scalar


@pytest.mark.parametrize("beta, degree", [
    pytest.param(beta, degree, id=f"{name}-{degree}")
    for name, beta in (("interval", 0.0), ("vshape", 1.0))
    for degree in (-1, 0, 2, 8)])
def test_max_error_agrees_with_direct_computation(beta, degree):
    """max_error on the upper arm is the whole grid's maximum of evaluate."""
    spec = BasisSpec(tapered_poles(8, 5.0), poly_degree=degree)
    approx, _ = _fit(spec, build_fit_grid(Domain(beta), per_arm=400))
    grid = build_fit_grid(Domain(beta), per_arm=501)
    direct = np.max(np.abs(evaluate(approx, grid.points)
                           - eval_target(Target.sqrt(), grid.points)))
    assert max_error(approx, Target.sqrt(), grid) == direct
    assert max_error(approx, Target.sqrt(), grid) == direct  # and again


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_constant_column_is_exact(beta):
    grid = build_fit_grid(Domain(beta), per_arm=300)
    system = _basis(grid, BasisSpec(poly_degree=0))
    per_point = len(system) // len(grid)  # rows per arm point: Re, then Im
    assert per_point == (2 if beta else 1)
    assert np.all(system[::per_point] == 1.0 / math.sqrt(len(system)))
    if beta:
        assert np.all(system[1::2] == 0.0)
    _, hess, norm0 = _poly_chain_build(grid.points, 0)
    assert np.all(_poly_chain_eval(np.array([0.25, 0.5]), hess, norm0)
                  == system[0])


def _fit_on(target, degree, grid, vgrid):
    return fit(target, BasisSpec(tapered_poles(12, 6.0), poly_degree=degree),
               grid, vgrid)


def _grids(domain, per_arm=400):
    return build_fit_grid(domain, per_arm=per_arm), build_fit_grid(domain, per_arm=1500)


def _assert_same_fit(a, b):
    (approx_a, rep_a), (approx_b, rep_b) = a, b
    assert np.array_equal(approx_a.spec.poles, approx_b.spec.poles)
    assert approx_a.spec.poly_degree == approx_b.spec.poly_degree
    assert np.array_equal(approx_a.pf_scales, approx_b.pf_scales)
    assert np.array_equal(approx_a.hess, approx_b.hess)
    assert approx_a.norm0 == approx_b.norm0
    assert np.array_equal(approx_a.coeffs, approx_b.coeffs)
    assert (rep_a.max_err, rep_a.resid_2norm, rep_a.eff_rank) == \
        (rep_b.max_err, rep_b.resid_2norm, rep_b.eff_rank)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_lower_degree_served_from_higher_degree_block(beta):
    """One call over three pole sets at degrees 3, 15 and 3 gives bit for
    bit the fits on fresh grids: the degree-3 groups read a prefix of the
    degree-15 block."""
    specs = [BasisSpec(tapered_poles(12, sigma), poly_degree=degree)
             for sigma, degree in ((6.0, 3), (7.0, 15), (8.0, 3))]
    nested = fit_nested(SQRT, specs, *_grids(Domain(beta)))
    for spec, result in zip(specs, nested):
        _assert_same_fit(result, fit(SQRT, spec, *_grids(Domain(beta))))


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_one_call_over_mixed_pole_sets(monkeypatch, beta):
    """Specs of three pole sets, in mixed order, fitted in one call are bit
    for bit the per-group calls on fresh grids, and share one build of the
    polynomial block and one evaluation of it on the validation grid."""
    a, b = tapered_poles(12, 6.0), tapered_poles(10, 8.0)
    specs = [BasisSpec(a, poly_degree=2),
             BasisSpec(b, poly_degree=12),
             BasisSpec(np.concatenate([a, big_poles(16, 4)]), poly_degree=0),
             BasisSpec(a, poly_degree=9),
             BasisSpec(b, poly_degree=-1)]
    calls = {"build": 0, "eval": 0}
    build, chain_eval = fitting._poly_chain_build, fitting._poly_chain_eval

    def counted_build(*args):
        calls["build"] += 1
        return build(*args)

    def counted_eval(*args):
        calls["eval"] += 1
        return chain_eval(*args)

    monkeypatch.setattr(fitting, "_poly_chain_build", counted_build)
    monkeypatch.setattr(fitting, "_poly_chain_eval", counted_eval)
    nested = fit_nested(SQRT, specs, *_grids(Domain(beta)))
    assert calls == {"build": 1, "eval": 1}
    monkeypatch.undo()
    for group in ([0, 3], [1, 4], [2]):
        alone = fit_nested(SQRT, [specs[i] for i in group], *_grids(Domain(beta)))
        for i, result in zip(group, alone):
            _assert_same_fit(nested[i], result)


def test_grid_sweep_continues_the_recurrence(monkeypatch, factored):
    """A degree 0..15 sweep runs 15 recurrence steps on each grid, not the
    0 + 1 + ... + 15 = 120 of a rebuild at every degree, however many pole
    sets it covers; it also runs one QR per pole set and builds the partial
    fractions once on the fit grid and once per validation chunk, for all
    16 degrees."""
    steps = {}
    build, chain_eval = fitting._poly_chain_build, fitting._poly_chain_eval
    pf_columns = fitting._partial_fraction_columns

    def counted_build(z, degree):
        steps["build"] += degree
        return build(z, degree)

    def counted_eval(pts, hess, norm0):
        steps["eval"] += hess.shape[1]
        return chain_eval(pts, hess, norm0)

    def counted_pf(*args, **kwargs):
        steps["pf"] += 1
        return pf_columns(*args, **kwargs)

    monkeypatch.setattr(fitting, "_poly_chain_build", counted_build)
    monkeypatch.setattr(fitting, "_poly_chain_eval", counted_eval)
    monkeypatch.setattr(fitting, "_partial_fraction_columns", counted_pf)
    chunks = math.ceil(VAL_PER_ARM / fitting._EVAL_CHUNK)
    for n1_list in ((16,), (9, 16)):
        steps.update(build=0, eval=0, pf=0)
        factored.clear()
        table = run_grid(n1_list=n1_list)
        assert len(table) == 16 * len(n1_list) and not any(table.column("status"))
        groups = len(n1_list)
        assert steps == {"build": 15, "eval": 15, "pf": groups * (1 + chunks)}
        assert len(factored) == groups


def test_vshape_fit_folds_to_the_upper_arm(monkeypatch, factored):
    """A V-domain fit factors one real system of 2 len(grid) rows, the
    real and imaginary parts of its columns on the upper arm, and builds
    partial fractions in real arithmetic on the upper arms of its grids
    only."""
    kernel_points, complex_pf = [], []
    kernel, pf_columns = fitting._pf_kernel, fitting._partial_fraction_columns

    def counted_kernel(z, poles):
        kernel_points.append(len(z))
        return kernel(z, poles)

    def counted_pf(pts, poles):
        complex_pf.append(len(pts))
        return pf_columns(pts, poles)

    monkeypatch.setattr(fitting, "_pf_kernel", counted_kernel)
    monkeypatch.setattr(fitting, "_partial_fraction_columns", counted_pf)
    domain = Domain.vshape(1.0)
    grid, vgrid = _grids(domain)
    approx, report = _fit_on(SQRT, 8, grid, vgrid)
    assert [(a.dtype, a.shape) for a in factored] == \
        [(np.dtype(np.float64), (2 * len(grid), 12 + 9 + 1))]
    assert sum(kernel_points) == len(grid) + len(vgrid)
    assert complex_pf == []  # no point is near enough a pole to need it
    assert approx.coeffs.dtype == np.float64 and report.max_err < 1e-3
    # the residual norm is both arms'
    z = np.concatenate([grid.points, np.conj(grid.points)])
    whole = evaluate(approx, z) - eval_target(Target.sqrt(), z)
    assert report.resid_2norm == pytest.approx(np.linalg.norm(whole), rel=1e-8)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_system_is_column_major_and_factored_as_is(monkeypatch, factored, beta):
    """[PF | Q | f] is written column-major, the layout LAPACK factors, and
    a fit hands geqrf that very array; its R is bit for bit
    numpy.linalg.qr's R of the C-order copy, which LAPACK would first
    gather column by column."""
    domain = Domain(beta)
    grid, vgrid = _grids(domain)
    spec = BasisSpec(tapered_poles(12, 6.0), poly_degree=8)
    system, _ = _write_system(grid, spec, eval_target(SQRT, grid.points),
                              _poly_chain_build(grid.points, 8)[0])
    assert system.flags.f_contiguous
    assert np.array_equal(fitting._factor(system.copy(order="F")),
                          np.linalg.qr(np.ascontiguousarray(system), mode="r"))
    factored.clear()
    inputs, factor = [], fitting._factor

    def recorded_factor(a):
        inputs.append(a)
        return factor(a)

    monkeypatch.setattr(fitting, "_factor", recorded_factor)
    _fit_on(SQRT, 8, grid, vgrid)
    assert [a.flags.f_contiguous for a in inputs] == [True]
    assert [np.shares_memory(a, b) for a, b in zip(factored, inputs)] == [True]


def test_factor_overwrites_a_column_major_system_without_a_copy():
    """A float64 column-major system is factored where it lies: the
    workspace and R are all that _factor allocates, and its finiteness
    check allocates no m x n mask (one would be 172 KB here)."""
    system = np.asfortranarray(np.random.default_rng(0).standard_normal((4000, 43)))
    tracemalloc.start()
    try:
        fitting._factor(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < system.size / 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factor_refuses_a_non_finite_system(bad):
    system = np.ones((5, 3), order="F")
    system[2, 1] = bad
    with pytest.raises(NumericError, match="non-finite"):
        fitting._factor(system)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_residual_norm_from_r_is_the_direct_one(beta):
    """resid_2norm, computed from R, agrees with sqrt(w) ||A c - f|| on the
    fit grid, also for a degree solved from a prefix of a larger system,
    where the residual sits far above the rounding floor."""
    domain = Domain(beta)
    grid, vgrid = _grids(domain)
    fvec = eval_target(Target.sqrt(), grid.points).view(float)
    specs = [BasisSpec(tapered_poles(6, 4.0), poly_degree=d) for d in (2, 6)]
    for spec, (approx, report) in zip(specs, fit_nested(SQRT, specs, grid, vgrid)):
        residual = _basis(grid, spec) @ approx.coeffs - fvec
        direct = math.sqrt(2 if beta else 1) * np.linalg.norm(residual)
        assert report.resid_2norm > 1e-6
        assert report.resid_2norm == pytest.approx(direct, rel=1e-10)


def test_kept_data_separates_targets_and_fit_grids():
    domain = Domain.vshape(0.5)
    grid, vgrid = _grids(domain)
    other_grid = build_fit_grid(domain, per_arm=300)
    for target in (Target.sqrt(), Target.power(0.3)):
        for fit_grid in (grid, other_grid):
            fresh = build_fit_grid(domain, per_arm=len(fit_grid))
            _assert_same_fit(_fit_on(target, 8, fit_grid, vgrid),
                             _fit_on(target, 8, fresh, _grids(domain)[1]))


def test_polynomial_degree_must_fit_the_grid():
    grid = build_fit_grid(Domain.unit_interval(), per_arm=20)
    with pytest.raises(InputError):
        _fit(BasisSpec(poly_degree=20), grid=grid)


def test_degree_failures_are_decided_per_spec():
    """On ten equal points the recurrence breaks down after the constant:
    degree 0 fits, degree 3 fails past the breakdown and degree 12 at the
    grid's size, each in its own slot of the one call."""
    grid = SampleGrid(points=np.full(10, 0.5), domain=Domain(0.0))
    constant, past, beyond = fit_nested(
        SQRT, [BasisSpec(poly_degree=d) for d in (0, 3, 12)], grid,
        build_fit_grid(INTERVAL, per_arm=VAL_PER_ARM))
    assert (constant[1].max_err, constant[1].eff_rank) == (0.7071067711865476, 1)
    assert type(past) is NumericError
    assert str(past) == "grid cannot support the requested polynomial degree"
    assert type(beyond) is InputError
    assert str(beyond) == "polynomial degree 12 needs more than the grid's 10 points"


@pytest.mark.parametrize("which", ["grid", "validation_grid"])
def test_grids_must_lie_on_the_problems_domain(which):
    """The two grids lie on one domain, the problem's: a fit grid or a
    validation grid on another one is refused."""
    spec = BasisSpec(tapered_poles(10, 6.0), poly_degree=4)
    grids = dict(zip(("grid", "validation_grid"), _grids(Domain(1.0))))
    grids[which] = build_fit_grid(Domain(0.0))
    with pytest.raises(InputError, match="cannot be validated on beta"):
        fit(SQRT, spec, **grids)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_approximant_outlives_its_grids(beta):
    """An approximant holds no grid: its grids and their kept data are
    freed once dropped, and it evaluates as before."""
    grid, vgrid = _grids(Domain(beta))
    approx, _ = _fit_on(SQRT, 8, grid, vgrid)
    pts = build_fit_grid(Domain(beta), per_arm=777).points
    before = evaluate(approx, pts)
    refs = weakref.ref(grid), weakref.ref(vgrid)
    del grid, vgrid
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert np.array_equal(evaluate(approx, pts), before)


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("point, error", [
    (np.inf, InputError), (-np.inf, InputError), (np.nan, InputError),
    (complex(np.nan, 1.0), InputError), (complex(0.5, np.inf), InputError),
    (1e300, NumericError), (1e300j, NumericError)])
def test_evaluate_refuses_non_finite_points_and_overflow(beta, point, error):
    """No point gives a numpy warning or a silent nan (the suite turns a
    RuntimeWarning into an error): a point that is not finite is bad input,
    a value that overflows a numeric failure."""
    approx, _ = _fit_on(SQRT, 8, *_grids(Domain(beta)))
    with pytest.raises(error):
        evaluate(approx, [0.5, point])


def test_package_fits_call_no_public_solve_or_error(monkeypatch):
    """Package fits run through the factor-once path alone: the public
    max_error, which tracing tools may wrap, is not called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("package code called a public fitting entry point")

    monkeypatch.setattr(fitting, "max_error", forbidden)
    fitted = run_fit(beta=1.0)  # a failed fit raises
    assert len(fitted) == 1 and math.isfinite(fitted.column("max_err")[0])
    swept = run_grid(n1_list=(16,))
    assert len(swept) == 16 and not any(swept.column("status"))
