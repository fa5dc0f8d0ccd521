"""Basis columns, TSVD least squares, fitted approximants."""

import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from lightningfit import (BasisSpec, Domain, InputError, NumericError, Target,
                          big_poles, build_fit_grid, eval_target, evaluate, fit,
                          max_error, tapered_poles, uniform_poles)
from lightningfit import errors, fitting
from lightningfit.experiments import SIGMA_GRID, corner_target, run_fit, run_grid
from lightningfit.fitting import (DEFAULT_TSVD_EPS, FIT_PER_ARM, VAL_PER_ARM, _factor,
                                  _poly_chain_build, _poly_chain_eval, _solve_r,
                                  _write_system, fit_nested)

SQRT = Target("sqrt")
INTERVAL = Domain()


def _fit(spec, domain=INTERVAL, per_arm=FIT_PER_ARM):
    """fit of sqrt on the domain given, by default the interval, with
    per_arm fit-grid points per arm, by default run_fit's count."""
    return fit(SQRT, spec, domain, per_arm)


def _basis(points, spec):
    """The basis columns of spec at the points, as the fit writes them: its
    system without the data column."""
    block = _poly_chain_build(points, spec.poly_degree)[0] \
        if spec.poly_degree >= 0 else None
    data = np.zeros(len(points), points.dtype)
    return _write_system(points, spec, data, block)[0][:, :-1]


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


@pytest.mark.parametrize("poles", [["a"], ["-1.0"], [[-1.0], [-2.0, -3.0]], [-1j],
                                   np.array([-1 + 1j, -2])],
                         ids=["text", "numeric text", "ragged", "complex",
                              "complex array"])
def test_basis_spec_poles_that_are_not_reals_are_input_errors(poles):
    """A complex array is refused, not cut to its real part with numpy's
    ComplexWarning, and numeric text is not parsed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="poles must form a 1-d array of reals"):
            BasisSpec(poles)


def test_polynomial_columns_orthonormal():
    grid = build_fit_grid(Domain(), per_arm=500)
    system = _basis(grid, BasisSpec(poly_degree=12))
    gram = system.T @ system
    assert np.max(np.abs(gram - np.eye(13))) < 1e-12


def test_polynomial_columns_orthonormal_complex_grid():
    # the real rows Re, Im of each upper-arm point: S^H S over the whole
    # grid is 2 S_fold^T S_fold
    grid = build_fit_grid(Domain(1.0), per_arm=400)
    system = _basis(grid, BasisSpec(poly_degree=8))
    gram = 2.0 * system.T @ system
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def test_polynomial_reevaluation_matches_grid():
    """The recurrence re-evaluated at the grid reproduces the system's columns."""
    grid = build_fit_grid(Domain(), per_arm=300)
    system = _basis(grid, BasisSpec(poly_degree=10))
    _, hess, norm0 = _poly_chain_build(grid, 10)
    again = _poly_chain_eval(grid, hess, norm0)
    assert np.max(np.abs(again - system)) < 1e-13


def test_polynomial_chain_spans_monomials():
    # degree-3 chain on a modest grid reproduces an exact cubic
    z = np.logspace(-3.0, 0.0, 200)
    system = _basis(z, BasisSpec(poly_degree=3))
    f = 1.0 - 2.0 * z + 0.5 * z**3
    coeffs, rank = _tsvd(system, f)
    assert rank == 4
    assert np.max(np.abs(system @ coeffs - f)) < 1e-13


def test_partial_fraction_columns_scaled_to_unit_max():
    grid = build_fit_grid(Domain(), per_arm=400)
    system = _basis(grid, BasisSpec(tapered_poles(8, 3.0), poly_degree=-1))
    assert np.allclose(np.abs(system).max(axis=0), 1.0, rtol=1e-14)


def test_vshape_partial_fraction_columns_scaled_to_unit_max():
    """Each arm point's real row, then its imaginary row: each column's
    largest modulus on the arm is 1."""
    grid = build_fit_grid(Domain(1.0), per_arm=400)
    system = _basis(grid, BasisSpec(tapered_poles(8, 3.0), poly_degree=-1))
    modulus = np.hypot(system[0::2], system[1::2]).max(axis=0)
    assert np.max(np.abs(modulus - 1.0)) <= 1e-14


def test_evaluate_reads_input_as_its_contiguous_copy():
    """A strided complex view, an int list and float32 input evaluate bit
    for bit as their contiguous complex128 or float64 copies."""
    spec = BasisSpec(tapered_poles(8, 4.0), poly_degree=5)
    vshape, _ = _fit(spec, Domain(1.0), 300)
    z = build_fit_grid(Domain(1.0), per_arm=101)[::3]
    assert not z.flags.c_contiguous
    assert np.array_equal(evaluate(vshape, z), evaluate(vshape, z.copy()))
    interval, _ = _fit(spec, Domain(), 300)
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
    approx, _ = _fit(BasisSpec(tapered_poles(8, 4.0), poly_degree=5), Domain(beta), 300)
    z = build_fit_grid(Domain(beta), per_arm=4).reshape(2, 2)
    values = evaluate(approx, z)
    assert values.shape == (2, 2)
    assert np.array_equal(values.ravel(), evaluate(approx, z.ravel()))
    assert np.array_equal(approx(z), values)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_evaluate_memory_is_bounded_by_its_output(beta):
    """The polynomial block, like the partial fractions, is built chunk by
    chunk: at 10^6 points the traced peak stays within twice the returned
    array plus 4 MiB (a whole degree-10 block would be 88 or 176 MB)."""
    domain = Domain(beta)
    approx, _ = _fit(BasisSpec(tapered_poles(40, 8.0), poly_degree=10), domain)
    z = domain.arm_point(np.linspace(1e-6, 1.0, 10**6))
    tracemalloc.start()
    try:
        values = evaluate(approx, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * values.nbytes + 4 * 2**20


@pytest.mark.parametrize("beta", [0.0, 1.6])
def test_evaluation_chunk_holds_its_budget(beta):
    """A chunk holds its polynomial block and its partial fractions, one
    (poles x points) array on the interval and two on a V-domain, and is
    sized to that: evaluating a 64-pole, degree-11 approximant at 2 x 10^4
    points, the traced peak less the returned array stays within
    _CHUNK_ENTRIES float64 entries plus 128 KiB of per-point temporaries.
    A V-domain chunk that counted one partial-fraction array held 1.73
    times that, and an interval chunk that checked for a pole with a
    (points x poles) boolean mask 1.11 times."""
    domain = Domain(beta)
    spec = BasisSpec(tapered_poles(64, 2 * math.sqrt(0.4) * math.pi), poly_degree=11)
    approx, _ = fit(Target("powerlog", 0.9), spec, domain)
    z = build_fit_grid(domain, 2 * 10**4)
    tracemalloc.start()
    try:
        values = evaluate(approx, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes <= 8 * fitting._CHUNK_ENTRIES + 2**17


def test_v_domain_system_write_holds_vectors_of_the_arm():
    """The V-domain system is written pole by pole, D in one vector of the
    arm's length: writing the 64-pole, degree-11 system on beta = 1.6 (a
    4000 x 77 system of 2.35 MiB), the traced peak less the system stays
    within eight float64 vectors of the arm plus 128 KiB.  A writer that
    held D for every pole at once, a (poles x points) array, held 1.1 MiB
    beside the system."""
    domain = Domain(1.6)
    spec = BasisSpec(tapered_poles(64, 2 * math.sqrt(0.4) * math.pi), poly_degree=11)
    points = build_fit_grid(domain, FIT_PER_ARM)
    block = _poly_chain_build(points, spec.poly_degree)[0]
    fvec = eval_target(Target("powerlog", 0.9), points)
    tracemalloc.start()
    try:
        system, _ = _write_system(points, spec, fvec, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.shape == (2 * len(points), spec.n_columns + 1)
    assert peak - system.nbytes <= 8 * len(points) * 8 + 2**17


def test_evaluate_rejects_point_on_pole():
    spec = BasisSpec(tapered_poles(4, 2.0), poly_degree=-1)
    approx, _ = _fit(spec, Domain(), 50)
    with pytest.raises(InputError):
        evaluate(approx, np.array([spec.poles[0]]))


def test_pole_check_builds_no_mask_and_keeps_its_errors():
    """The check that no point is a pole reads the division's zero-divide
    flag: a point on a pole raises the same InputError, with no warning,
    among points on either side of it, on the interval and on a V-domain;
    a point beside a pole is none; and a value that overflows at a point
    off every pole, within 1e-320 above one, still reaches evaluate, which
    refuses it as before."""
    poles = -np.array([1e-3, 0.5, 2.0])
    for pts in (np.array([-0.75, poles[1], 0.25])[:, None],
                np.array([0.5j, complex(poles[1], 0.0)])[:, None]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^a point coincides with a pole$"):
                fitting._partial_fraction_columns(pts, poles)
    beside = np.array([np.nextafter(poles[1], 0.0), np.nextafter(poles[1], -1.0)])
    assert np.array_equal(fitting._partial_fraction_columns(beside[:, None], poles),
                          poles / (beside[:, None] - poles))
    approx = fitting.Approximant(BasisSpec(poles, poly_degree=-1), np.ones(3), None,
                                 None, np.array([1.0, -2.0, 3.0]))
    with pytest.raises(InputError, match="^a point coincides with a pole$"):
        evaluate(approx, [0.5, poles[2]])
    with pytest.raises(NumericError, match="overflows at a point"):
        evaluate(approx, [0.5j, complex(poles[1], 1e-320)])


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
    for eps_rel in (0.0, -1.0, math.nan, 2.0, math.inf, "1e-14"):
        with pytest.raises(InputError, match="eps_rel must"):
            fit(SQRT, spec, INTERVAL, 50, eps_rel=eps_rel)
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
    domain = Domain(1.0)
    spec = BasisSpec(tapered_poles(20, 2 * math.pi, 1.0), poly_degree=6)
    approx, report = _fit(spec, domain, 800)
    assert report.max_err < 1e-4
    x = np.linspace(0.05, 0.9, 7)
    vals = evaluate(approx, x.astype(complex))
    assert np.max(np.abs(vals.imag)) < 1e-10 * np.max(np.abs(vals))


def test_fit_residual_decreases_with_nested_basis():
    """Adding columns can only help the least-squares residual."""
    f_resid = []
    for degree in (2, 5, 9):
        spec = BasisSpec(tapered_poles(10, 7.0), poly_degree=degree)
        _, rep = _fit(spec, Domain(), 600)
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
    approx, _ = _fit(spec, Domain(beta), 400)
    pts = build_fit_grid(Domain(beta), per_arm=501)
    direct = np.max(np.abs(evaluate(approx, pts) - eval_target(Target("sqrt"), pts)))
    assert max_error(approx, Target("sqrt"), pts) == direct
    assert max_error(approx, Target("sqrt"), pts) == direct  # and again


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_fit_validates_on_its_domains_validation_grid(beta):
    """fit takes a domain alone; its max_err is, bit for bit, max_error
    on VAL_PER_ARM points per arm of that domain."""
    domain = Domain(beta)
    approx, report = fit(SQRT, BasisSpec(tapered_poles(12, 6.0), poly_degree=8),
                         domain)
    assert report.max_err == max_error(approx, SQRT,
                                       build_fit_grid(domain, VAL_PER_ARM))


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_constant_column_is_exact(beta):
    grid = build_fit_grid(Domain(beta), per_arm=300)
    system = _basis(grid, BasisSpec(poly_degree=0))
    per_point = len(system) // len(grid)  # rows per arm point: Re, then Im
    assert per_point == (2 if beta else 1)
    assert np.all(system[::per_point] == 1.0 / math.sqrt(len(system)))
    if beta:
        assert np.all(system[1::2] == 0.0)
    _, hess, norm0 = _poly_chain_build(grid, 0)
    assert np.all(_poly_chain_eval(np.array([0.25, 0.5]), hess, norm0)
                  == system[0])


_PER_ARM = 400  # fit-grid points per arm of the tests below


def _fit_on(target, degree, domain, per_arm=_PER_ARM):
    return fit(target, BasisSpec(tapered_poles(12, 6.0), poly_degree=degree),
               domain, per_arm)


def _grid(domain):
    """The fit grid of _fit_on on the domain."""
    return build_fit_grid(domain, per_arm=_PER_ARM)


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
def test_streamed_validation_is_max_error_on_the_validation_grid(monkeypatch, beta):
    """Every fit of a call over three pole sets and several degrees, each
    group validated chunk by chunk in one pass (here in chunks of a few
    hundred points), has as max_err, bit for bit, max_error on the whole
    validation grid: a point's value does not depend on its chunk and a
    maximum is exact in any order."""
    a, b = tapered_poles(12, 6.0), tapered_poles(16, 8.0)
    specs = [BasisSpec(a, poly_degree=3), BasisSpec(b, poly_degree=15),
             BasisSpec(a, poly_degree=-1), BasisSpec(b, poly_degree=6),
             BasisSpec(np.concatenate([a, big_poles(16, 4)]), poly_degree=0)]
    domain = Domain(beta)
    monkeypatch.setattr(fitting, "_CHUNK_ENTRIES", 2**14)
    nested = fit_nested(SQRT, specs, domain, _PER_ARM)
    monkeypatch.undo()
    vpts = build_fit_grid(domain, VAL_PER_ARM)
    for approx, report in nested:
        assert report.max_err == max_error(approx, SQRT, vpts)


def test_validation_memory_does_not_grow_with_the_degree(monkeypatch):
    """Ten times the validation points raise a degree-20 V-domain fit's
    traced peak by the points and their target values alone, 16 bytes
    each, plus 1 MiB: validation holds no array of VAL_PER_ARM x degree
    entries (a whole-grid degree-20 block would add 29 MiB)."""
    spec = BasisSpec(tapered_poles(20, 6.0), poly_degree=20)

    def traced_peak(per_arm):
        monkeypatch.setattr(fitting, "VAL_PER_ARM", per_arm)
        tracemalloc.start()
        try:
            (_, report), = fit_nested(SQRT, [spec], Domain(1.0))
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    peak, report = traced_peak(10**4)
    more_peak, more_report = traced_peak(10**5)
    assert more_peak - peak <= 2 * 16 * (10**5 - 10**4) + 2**20
    # a denser sample finds a maximum at least as large
    assert report.max_err <= more_report.max_err < 1e-5


@pytest.mark.parametrize("case", ["budget-grid", "corner-sweep"])
def test_validation_stays_under_the_solve(monkeypatch, case):
    """The validation pass holds the points and a few chunk arrays, less
    than the least-squares system it checks, so it does not raise a
    sweep's peak: on the benchmark's largest budget-grid op (x^0.9,
    100 tapered poles at sigma = 2 pi / sqrt(0.9), degrees 0 to 15 on the
    interval) and its largest corner-sweep op (z^(1/1.6) on beta = 1.6,
    20 poles and degree 20 at each sigma of SIGMA_GRID), the traced peak
    of the validation pass is at most that of the solve before it.  With
    2^18-entry chunks, the interval's (points x poles) pole mask and the
    target on the whole validation grid it was above it on both."""
    if case == "budget-grid":
        target, domain = Target("power", 0.9), INTERVAL
        specs = [BasisSpec(tapered_poles(100, 2 * math.pi / math.sqrt(0.9), 1.0),
                           poly_degree=degree) for degree in range(16)]
    else:
        target, domain = corner_target(1.6), Domain(1.6)
        specs = [BasisSpec(tapered_poles(20, sigma, 1.0), poly_degree=20)
                 for sigma in SIGMA_GRID]
    peaks, validate = [], fitting._validate

    def traced_validate(*args):  # the solve's peak, then the pass's
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        errs = validate(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return errs

    monkeypatch.setattr(fitting, "_validate", traced_validate)
    tracemalloc.start()
    try:
        results = fit_nested(target, specs, domain)
    finally:
        tracemalloc.stop()
    assert not any(isinstance(r, Exception) for r in results)
    solve_peak, validate_peak = peaks
    assert validate_peak <= solve_peak


def test_many_poles_on_a_small_grid_fit():
    """9000 poles on 100 points: a system of 0.9M entries, validated in
    chunks of 12 points, is fitted, not refused for a 4096-point
    partial-fraction block it never builds."""
    (approx, report), = fit_nested(SQRT, [BasisSpec(-np.logspace(-3, 2, 9000), -1)],
                                   INTERVAL, 100)
    assert math.isfinite(report.max_err) and len(approx.coeffs) == 9000


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_refusal_names_the_smallest_validation_chunk(monkeypatch, beta):
    """With the cap one entry below a 10-pole spec's smallest validation
    chunk, 4 x weight x 10 entries, grids of 1 to 3 points per arm refuse
    the spec for that chunk; from 4 points per arm on the system outgrows
    the chunk and is named instead, as it is whenever it is above the cap."""
    weight = 2 if beta else 1
    spec = BasisSpec(tapered_poles(10, 6.0), poly_degree=-1)
    monkeypatch.setattr(errors, "MAX_ENTRIES", 4 * weight * 10 - 1)
    for per_arm in (1, 2, 3, 4, 5):
        failed, = fit_nested(SQRT, [spec], Domain(beta), per_arm)
        what, entries = (("a validation chunk", 4 * weight * 10) if per_arm < 4 else
                         ("the least-squares system", weight * per_arm * 11))
        assert isinstance(failed, InputError)
        assert str(failed) == (f"{what} needs {entries} float64 entries, above the "
                               f"cap of {4 * weight * 10 - 1}")


def test_a_group_failing_validation_fails_only_its_specs():
    """On a 60-point grid a degree-59 fit overflows on the validation grid;
    a group of other poles validated in the same pass, on the same chunks
    of the degree-59 polynomial block, is bit for bit its lone call."""
    overflowing = BasisSpec(tapered_poles(4, 8.0), poly_degree=59)
    other = BasisSpec(tapered_poles(6, 6.0), poly_degree=2)
    failed, result = fit_nested(SQRT, [overflowing, other], INTERVAL, 60)
    assert isinstance(failed, NumericError)
    assert str(failed) == "the approximant overflows on the validation grid"
    alone, = fit_nested(SQRT, [other], INTERVAL, 60)
    _assert_same_fit(result, alone)
    assert result[1].max_err == 0.0017030935406122834


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_lower_degree_served_from_higher_degree_block(beta):
    """One call over three pole sets at degrees 3, 15 and 3 gives bit for
    bit the fits one at a time: the degree-3 groups read a prefix of the
    degree-15 block."""
    specs = [BasisSpec(tapered_poles(12, sigma), poly_degree=degree)
             for sigma, degree in ((6.0, 3), (7.0, 15), (8.0, 3))]
    nested = fit_nested(SQRT, specs, Domain(beta), _PER_ARM)
    for spec, result in zip(specs, nested):
        _assert_same_fit(result, fit(SQRT, spec, Domain(beta), _PER_ARM))


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_one_call_over_mixed_pole_sets(monkeypatch, beta):
    """Specs of three pole sets, in mixed order, fitted in one call are bit
    for bit the per-group calls, and share one build of the polynomial
    block and one evaluation of it per validation chunk: the chunks
    evaluated cover the validation grid once, not once per group."""
    a, b = tapered_poles(12, 6.0), tapered_poles(10, 8.0)
    specs = [BasisSpec(a, poly_degree=2),
             BasisSpec(b, poly_degree=12),
             BasisSpec(np.concatenate([a, big_poles(16, 4)]), poly_degree=0),
             BasisSpec(a, poly_degree=9),
             BasisSpec(b, poly_degree=-1)]
    calls, evaluated = {"build": 0}, []
    build, chain_eval = fitting._poly_chain_build, fitting._poly_chain_eval

    def counted_build(*args):
        calls["build"] += 1
        return build(*args)

    def counted_eval(pts, *args):
        evaluated.append(len(pts))
        return chain_eval(pts, *args)

    monkeypatch.setattr(fitting, "_poly_chain_build", counted_build)
    monkeypatch.setattr(fitting, "_poly_chain_eval", counted_eval)
    nested = fit_nested(SQRT, specs, Domain(beta), _PER_ARM)
    chunk = fitting._chunk_points(len(specs[2].poles), 2 if beta else 1, 12)
    assert calls == {"build": 1}
    assert len(evaluated) == math.ceil(VAL_PER_ARM / chunk) and sum(evaluated) == VAL_PER_ARM
    monkeypatch.undo()
    for group in ([0, 3], [1, 4], [2]):
        alone = fit_nested(SQRT, [specs[i] for i in group], Domain(beta), _PER_ARM)
        for i, result in zip(group, alone):
            _assert_same_fit(nested[i], result)


def test_grid_sweep_continues_the_recurrence(monkeypatch, factored):
    """A degree 0..15 sweep runs 15 recurrence steps on the fit grid and
    on each validation chunk, not the 0 + 1 + ... + 15 = 120 of a rebuild
    at every degree, however many pole sets it covers; it also runs one QR
    per pole set and builds the partial fractions once on the fit grid and
    once per validation chunk, for all 16 degrees."""
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
    chunks = math.ceil(VAL_PER_ARM / fitting._chunk_points(16, 1, 15))
    for n1_list in ((16,), (9, 16)):
        steps.update(build=0, eval=0, pf=0)
        factored.clear()
        table = run_grid(n1_list=n1_list)
        assert len(table) == 16 * len(n1_list) and not any(table.column("status"))
        groups = len(n1_list)
        assert steps == {"build": 15, "eval": 15 * chunks, "pf": groups * (1 + chunks)}
        assert len(factored) == groups


def test_vshape_fit_folds_to_the_upper_arm(monkeypatch, factored):
    """A V-domain fit factors one real system of 2 len(grid) rows, the
    real and imaginary parts of its columns on the upper arm, and builds
    partial fractions in real arithmetic on the upper arms of its grids
    only: the system's writer and the validation kernel each decide
    through _hard_points which of their points take complex division."""
    kernel_points, complex_pf = [], []
    kernel, pf_columns = fitting._hard_points, fitting._partial_fraction_columns

    def counted_kernel(z, poles, parts):
        kernel_points.append(len(z))
        return kernel(z, poles, parts)

    def counted_pf(pts, poles):
        complex_pf.append(len(pts))
        return pf_columns(pts, poles)

    monkeypatch.setattr(fitting, "_hard_points", counted_kernel)
    monkeypatch.setattr(fitting, "_partial_fraction_columns", counted_pf)
    domain = Domain(1.0)
    grid = _grid(domain)
    approx, report = _fit_on(SQRT, 8, domain)
    assert [(a.dtype, a.shape) for a in factored] == \
        [(np.dtype(np.float64), (2 * len(grid), 12 + 9 + 1))]
    assert sum(kernel_points) == len(grid) + VAL_PER_ARM
    assert complex_pf == []  # no point is near enough a pole to need it
    assert approx.coeffs.dtype == np.float64 and report.max_err < 1e-3
    # the residual norm is both arms'
    z = np.concatenate([grid, np.conj(grid)])
    whole = evaluate(approx, z) - eval_target(Target("sqrt"), z)
    assert report.resid_2norm == pytest.approx(np.linalg.norm(whole), rel=1e-8)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_system_is_column_major_and_factored_as_is(monkeypatch, factored, beta):
    """[PF | Q | f] is written column-major, the layout LAPACK factors, and
    a fit hands geqrf that very array; its R is bit for bit
    numpy.linalg.qr's R of the C-order copy, which LAPACK would first
    gather column by column."""
    grid = _grid(Domain(beta))
    spec = BasisSpec(tapered_poles(12, 6.0), poly_degree=8)
    system, _ = _write_system(grid, spec, eval_target(SQRT, grid),
                              _poly_chain_build(grid, 8)[0])
    assert system.flags.f_contiguous
    assert np.array_equal(fitting._factor(system.copy(order="F")),
                          np.linalg.qr(np.ascontiguousarray(system), mode="r"))
    factored.clear()
    inputs, factor = [], fitting._factor

    def recorded_factor(a):
        inputs.append(a)
        return factor(a)

    monkeypatch.setattr(fitting, "_factor", recorded_factor)
    _fit_on(SQRT, 8, Domain(beta))
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
    grid = _grid(Domain(beta))
    fvec = eval_target(Target("sqrt"), grid).view(float)
    specs = [BasisSpec(tapered_poles(6, 4.0), poly_degree=d) for d in (2, 6)]
    for spec, (approx, report) in zip(specs, fit_nested(SQRT, specs, Domain(beta),
                                                        _PER_ARM)):
        residual = _basis(grid, spec) @ approx.coeffs - fvec
        direct = math.sqrt(2 if beta else 1) * np.linalg.norm(residual)
        assert report.resid_2norm > 1e-6
        assert report.resid_2norm == pytest.approx(direct, rel=1e-10)


def test_kept_data_separates_targets_and_fit_grids():
    """A fit keeps nothing for the next: fits of two targets on two grid
    sizes are bit for bit the same fits run in the reverse order."""
    domain = Domain(0.5)
    calls = [(target, per_arm) for target in (Target("sqrt"), Target("power", 0.3))
             for per_arm in (_PER_ARM, 300)]
    forward = [_fit_on(target, 8, domain, per_arm) for target, per_arm in calls]
    backward = [_fit_on(target, 8, domain, per_arm) for target, per_arm in calls[::-1]]
    for a, b in zip(forward, backward[::-1]):
        _assert_same_fit(a, b)


def test_polynomial_degree_must_fit_the_grid():
    with pytest.raises(InputError):
        _fit(BasisSpec(poly_degree=20), Domain(), 20)


def test_degree_failures_are_decided_per_spec(monkeypatch):
    """On a fit grid of ten equal points the recurrence breaks down after
    the constant: degree 0 fits, degree 3 fails past the breakdown and
    degree 12 at the grid's size, each in its own slot of the one call."""
    build = fitting.build_fit_grid
    monkeypatch.setattr(fitting, "build_fit_grid", lambda domain, per_arm: (
        np.full(10, 0.5) if per_arm == 10 else build(domain, per_arm)))
    constant, past, beyond = fit_nested(
        SQRT, [BasisSpec(poly_degree=d) for d in (0, 3, 12)], INTERVAL, 10)
    assert (constant[1].max_err, constant[1].eff_rank) == (0.7071067711865476, 1)
    assert type(past) is NumericError
    assert str(past) == "grid cannot support the requested polynomial degree"
    assert type(beyond) is InputError
    assert str(beyond) == "polynomial degree 12 needs more than the grid's 10 points"


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_approximant_outlives_its_grids(monkeypatch, beta):
    """An approximant holds no grid: its fit grid, the validation grid the
    fit builds and their kept data are freed once dropped, and it
    evaluates as before."""
    built = []

    def recorded(domain, per_arm):
        built.append(build_fit_grid(domain, per_arm))
        return built[-1]

    monkeypatch.setattr(fitting, "build_fit_grid", recorded)
    approx, _ = _fit_on(SQRT, 8, Domain(beta))
    assert [len(g) for g in built] == [_PER_ARM, VAL_PER_ARM]
    pts = build_fit_grid(Domain(beta), per_arm=777)
    before = evaluate(approx, pts)
    refs = [weakref.ref(g) for g in built]
    built.clear()
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
    approx, _ = _fit_on(SQRT, 8, Domain(beta))
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
