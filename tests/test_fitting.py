"""Design matrices, TSVD least squares, fitted approximants."""

import math

import numpy as np
import pytest

from lightningfit import (ApproxProblem, BasisSpec, Domain, InputError,
                          NumericError, Target, big_poles, build_design_matrix,
                          build_fit_grid, build_validation_grid, eval_target,
                          evaluate, fit, max_error, tapered_poles, tsvd_solve,
                          uniform_poles)

SQRT_PROBLEM = ApproxProblem(Target.sqrt(), Domain.unit_interval())


def test_basis_spec_counting():
    spec = BasisSpec(clustered=tapered_poles(5, 2.0),
                     extra_finite=big_poles(10, 3), poly_degree=4)
    assert spec.n_columns == 5 + 3 + 5
    assert spec.total_degree == 5 + 3 + 4
    assert len(spec.finite_poles) == 8
    # constant-only polynomial contributes a column but no degree
    just_const = BasisSpec(clustered=tapered_poles(5, 2.0), poly_degree=0)
    assert just_const.n_columns == 6
    assert just_const.total_degree == 5
    no_poly = BasisSpec(clustered=tapered_poles(5, 2.0), poly_degree=-1)
    assert no_poly.n_columns == 5
    assert no_poly.total_degree == 5


def test_basis_spec_rejects_empty_and_bad_degree():
    with pytest.raises(InputError):
        BasisSpec(poly_degree=-1)
    with pytest.raises(InputError):
        BasisSpec(clustered=tapered_poles(3, 1.0), poly_degree=-2)


def test_polynomial_columns_orthonormal():
    grid = build_fit_grid(Domain.unit_interval(), per_arm=500)
    spec = BasisSpec(poly_degree=12)
    design = build_design_matrix(grid, spec)
    gram = design.matrix.T @ design.matrix
    assert np.max(np.abs(gram - np.eye(13))) < 1e-12


def test_polynomial_columns_orthonormal_complex_grid():
    grid = build_fit_grid(Domain.vshape(1.0), per_arm=400)
    design = build_design_matrix(grid, BasisSpec(poly_degree=8))
    gram = design.matrix.conj().T @ design.matrix
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def test_polynomial_reevaluation_matches_grid():
    """columns_at on the original grid must reproduce the stored columns."""
    grid = build_fit_grid(Domain.unit_interval(), per_arm=300)
    design = build_design_matrix(grid, BasisSpec(poly_degree=10))
    again = design.columns_at(grid.points)
    assert np.max(np.abs(again - design.matrix)) < 1e-13


def test_polynomial_chain_spans_monomials():
    # degree-3 chain on a modest grid reproduces an exact cubic
    grid = build_fit_grid(Domain.unit_interval(), per_arm=200, decades=3.0)
    design = build_design_matrix(grid, BasisSpec(poly_degree=3))
    z = grid.points
    f = 1.0 - 2.0 * z + 0.5 * z**3
    coeffs, rank = tsvd_solve(design, f)
    assert rank == 4
    assert np.max(np.abs(design.matrix @ coeffs - f)) < 1e-13


def test_partial_fraction_columns_scaled_to_unit_max():
    grid = build_fit_grid(Domain.unit_interval(), per_arm=400)
    design = build_design_matrix(grid, BasisSpec(clustered=tapered_poles(8, 3.0),
                                                 poly_degree=-1))
    assert np.allclose(np.abs(design.matrix).max(axis=0), 1.0, rtol=1e-14)


def test_design_matrix_rejects_point_on_pole():
    grid = build_fit_grid(Domain.unit_interval(), per_arm=50)
    spec = BasisSpec(clustered=tapered_poles(4, 2.0), poly_degree=-1)
    design = build_design_matrix(grid, spec)
    with pytest.raises(InputError):
        design.columns_at(np.array([spec.finite_poles[0]]))


def test_tsvd_matches_normal_equations_when_well_conditioned():
    """On a well-conditioned random system TSVD equals the lstsq solution."""
    rng = np.random.default_rng(42)
    a = rng.standard_normal((50, 10))
    f = rng.standard_normal(50)
    coeffs, rank = tsvd_solve(a, f, eps_rel=1e-12)
    ref, *_ = np.linalg.lstsq(a, f, rcond=None)
    assert rank == 10
    assert np.allclose(coeffs, ref, rtol=1e-10)


def test_tsvd_truncates_tiny_directions():
    # second column is a 1e-20 perturbation of the first: rank collapses to 1
    base = np.linspace(1.0, 2.0, 30)
    a = np.column_stack([base, base * (1 + 1e-20)])
    f = 3.0 * base
    coeffs, rank = tsvd_solve(a, f, eps_rel=1e-14)
    assert rank == 1
    # minimum-norm solution splits the weight between the twin columns
    assert np.allclose(coeffs, [1.5, 1.5], rtol=1e-10)


def test_tsvd_input_validation():
    a = np.eye(3)
    with pytest.raises(InputError):
        tsvd_solve(a, np.ones(4))
    with pytest.raises(InputError):
        tsvd_solve(a, np.ones(3), eps_rel=0.0)
    with pytest.raises(NumericError):
        tsvd_solve(np.zeros((3, 3)), np.ones(3))


def test_fit_sqrt_moderate_accuracy():
    spec = BasisSpec(clustered=tapered_poles(16, 2 * math.sqrt(2) * math.pi, 2.0),
                     poly_degree=6)
    approx, report = fit(SQRT_PROBLEM, spec)
    assert report.max_err < 1e-6
    assert report.eff_rank > 0
    assert report.config["pole_scheme"] == "tapered"
    assert report.config["total_degree"] == 22


def test_fit_scale_invariance_of_report():
    """Scaling all basis columns is absorbed by the per-column normalization.

    Fitting with scale C and with C' = C changes nothing; this pins the
    determinism of the pipeline (identical inputs, identical outputs).
    """
    spec = BasisSpec(clustered=tapered_poles(12, 6.0, 1.0), poly_degree=4)
    _, rep1 = fit(SQRT_PROBLEM, spec)
    _, rep2 = fit(SQRT_PROBLEM, spec)
    assert rep1.max_err == rep2.max_err
    assert rep1.coeff_2norm == rep2.coeff_2norm


def test_fit_vshape_conjugate_symmetry():
    """Real target on a conjugate-closed grid gives a real-on-axis approximant."""
    domain = Domain.vshape(1.0)
    problem = ApproxProblem(Target.sqrt(), domain)
    spec = BasisSpec(clustered=tapered_poles(20, 2 * math.pi, 1.0), poly_degree=6)
    grid = build_fit_grid(domain, per_arm=800)
    approx, report = fit(problem, spec, grid=grid)
    assert report.max_err < 1e-4
    x = np.linspace(0.05, 0.9, 7)
    vals = evaluate(approx, x.astype(complex))
    assert np.max(np.abs(vals.imag)) < 1e-10 * np.max(np.abs(vals))


def test_fit_residual_decreases_with_nested_basis():
    """Adding columns can only help the least-squares residual."""
    grid = build_fit_grid(Domain.unit_interval(), per_arm=600)
    f_resid = []
    for degree in (2, 5, 9):
        spec = BasisSpec(clustered=tapered_poles(10, 7.0), poly_degree=degree)
        _, rep = fit(SQRT_PROBLEM, spec, grid=grid)
        f_resid.append(rep.resid_2norm)
    assert f_resid[1] <= f_resid[0] * (1 + 1e-10)
    assert f_resid[2] <= f_resid[1] * (1 + 1e-10)


def test_uniform_poles_fit_worse_than_tapered_at_equal_budget():
    """The tapered family's doubled rate shows up already at N1 = 36."""
    n1 = 36
    tap = BasisSpec(clustered=tapered_poles(n1, 2 * math.sqrt(2) * math.pi, 2.0),
                    poly_degree=8)
    uni = BasisSpec(clustered=uniform_poles(n1, 2 * math.pi, 2.0), poly_degree=8)
    _, rep_tap = fit(SQRT_PROBLEM, tap)
    _, rep_uni = fit(SQRT_PROBLEM, uni)
    assert rep_tap.max_err < rep_uni.max_err / 10


def test_evaluate_scalar_and_array():
    spec = BasisSpec(clustered=tapered_poles(8, 5.0), poly_degree=2)
    approx, _ = fit(SQRT_PROBLEM, spec)
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
    """max_error reads the grid's kept data; evaluate rebuilds everything."""
    problem = ApproxProblem(Target.sqrt(), Domain(beta))
    spec = BasisSpec(clustered=tapered_poles(8, 5.0), poly_degree=degree)
    approx, _ = fit(problem, spec, grid=build_fit_grid(Domain(beta), per_arm=400))
    grid = build_validation_grid(Domain(beta), per_arm=501)
    direct = np.max(np.abs(evaluate(approx, grid.points)
                           - eval_target(Target.sqrt(), grid.points)))
    assert max_error(approx, Target.sqrt(), grid) == direct
    assert max_error(approx, Target.sqrt(), grid) == direct  # from kept data


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_constant_column_is_exact(beta):
    grid = build_fit_grid(Domain(beta), per_arm=300)
    design = build_design_matrix(grid, BasisSpec(poly_degree=0))
    assert np.all(design.matrix == 1.0 / math.sqrt(len(grid)))
    assert np.all(design.columns_at(np.array([0.25, 0.5])) == design.matrix[0])


def _fit_on(problem, degree, grid, vgrid):
    spec = BasisSpec(clustered=tapered_poles(12, 6.0), poly_degree=degree)
    return fit(problem, spec, grid=grid, validation_grid=vgrid)


def _grids(domain, per_arm=400):
    return (build_fit_grid(domain, per_arm=per_arm),
            build_validation_grid(domain, per_arm=1500))


def _assert_same_fit(a, b):
    (approx_a, rep_a), (approx_b, rep_b) = a, b
    assert np.array_equal(approx_a.design.matrix, approx_b.design.matrix)
    assert np.array_equal(approx_a.coeffs, approx_b.coeffs)
    assert (rep_a.max_err, rep_a.resid_2norm, rep_a.eff_rank) == \
        (rep_b.max_err, rep_b.resid_2norm, rep_b.eff_rank)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_lower_degree_served_from_higher_degree_block(beta):
    """Fits of degree 3, 15, 3 on the same grids are bit for bit the fits on
    fresh grids: the block grows, then serves the lower degree as a prefix."""
    problem = ApproxProblem(Target.sqrt(), Domain(beta))
    grids = _grids(Domain(beta))
    for degree in (3, 15, 3):
        _assert_same_fit(_fit_on(problem, degree, *grids),
                         _fit_on(problem, degree, *_grids(Domain(beta))))


def test_kept_data_separates_targets_and_fit_grids():
    domain = Domain.vshape(0.5)
    grid, vgrid = _grids(domain)
    other_grid = build_fit_grid(domain, per_arm=300)
    for target in (Target.sqrt(), Target.power(0.3)):
        problem = ApproxProblem(target, domain)
        for fit_grid in (grid, other_grid):
            fresh = build_fit_grid(domain, per_arm=fit_grid.per_arm)
            _assert_same_fit(_fit_on(problem, 8, fit_grid, vgrid),
                             _fit_on(problem, 8, fresh, _grids(domain)[1]))


def test_kept_grid_data_is_read_only():
    grid, vgrid = _grids(Domain.vshape(1.0))
    _fit_on(ApproxProblem(Target.sqrt(), Domain.vshape(1.0)), 6, grid, vgrid)
    kept = [a for g in (grid, vgrid) for entry in g._derived.values()
            for a in (entry if isinstance(entry, tuple) else (entry,))
            if isinstance(a, np.ndarray)]
    assert len(kept) == 5  # two target vectors, Q and hess, validation block
    assert not any(a.flags.writeable for a in kept)


def test_default_validation_grid_spans_fit_grid_decades():
    grid = build_fit_grid(Domain.unit_interval(), decades=8.0, per_arm=500)
    spec = BasisSpec(clustered=tapered_poles(12, 6.0), poly_degree=4)
    approx, report = fit(SQRT_PROBLEM, spec, grid=grid)
    vgrid = build_validation_grid(Domain.unit_interval(), decades=8.0)
    assert report.max_err == max_error(approx, Target.sqrt(), vgrid)
    assert report.config["decades"] == 8.0


def test_polynomial_degree_must_fit_the_grid():
    grid = build_fit_grid(Domain.unit_interval(), per_arm=20)
    with pytest.raises(InputError):
        build_design_matrix(grid, BasisSpec(poly_degree=20))
