"""Property tests: the TSVD solve against a reference, the folded
V-domain solve and its Arnoldi block, the real-arithmetic partial
fractions, conjugate symmetry, evaluation on the fit grid and its
independence of the other points evaluated."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightningfit import (Approximant, BasisSpec, Domain, EvaluationError,
                          Target, build_fit_grid, eval_target, evaluate, fit,
                          tapered_poles)
from lightningfit.experiments import VAL_PER_ARM
from lightningfit.fitting import (DEFAULT_TSVD_EPS, _factor, _pf_kernel,
                                  _poly_chain_build, _poly_chain_eval,
                                  _solve_r, _write_partial_fractions,
                                  _write_system)


def reference_tsvd(a, f, eps_rel):
    """Truncated SVD of A itself: the textbook formula the solver must match."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.count_nonzero(s >= eps_rel * s[0]))
    return vh[:rank].conj().T @ ((u[:, :rank].conj().T @ f) / s[:rank]), rank


def _augmented(a, f):
    """[a | f] in one column-major array, the layout the fit writes."""
    system = np.empty((len(f), a.shape[1] + 1), order="F")
    system[:, :-1], system[:, -1] = a, f
    return system


def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 40), rank=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
@example(m=1, n=1, rank=1, seed=0)
@example(m=300, n=160, rank=150, seed=1)
@example(m=300, n=160, rank=160, seed=2)
def test_factor_is_numpy_qr_bit_for_bit(m, n, rank, seed):
    """_factor's R is numpy.linalg.qr's, bit for bit and in the same
    C-order layout, for float64 column-major systems, tall and wide
    (m < n), of one row or one column, and of any rank down to 0: the
    product of an m x rank and a rank x n factor.  The larger examples
    take LAPACK's blocked path."""
    rng = np.random.default_rng(seed)
    rank = min(rank, m, n)
    x = _orthonormal(rng, m, rank) @ rng.standard_normal((rank, n)) if rank \
        else np.zeros((m, n))
    want = np.linalg.qr(x, mode="r")
    got = _factor(np.asfortranarray(x))
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 40),
       rank_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_tsvd_matches_reference_truncated_svd(m, n, rank_frac, seed):
    """Kept singular values span [1e-2, 1], dropped ones sit below 1e-17:
    a gap of fifteen decades around the 2e-14 cut."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    rank = max(1, round(rank_frac * k))
    s = np.concatenate([np.geomspace(1.0, 1e-2, rank),
                        np.geomspace(1e-17, 1e-19, k - rank)])
    a = (_orthonormal(rng, m, k) * s) @ _orthonormal(rng, n, k).T
    f = rng.standard_normal(m)
    coeffs, got_rank = _solve_r(_factor(_augmented(a, f)), n, DEFAULT_TSVD_EPS)
    ref, ref_rank = reference_tsvd(a, f, DEFAULT_TSVD_EPS)
    assert got_rank == ref_rank == rank
    assert np.linalg.norm(coeffs - ref) <= 1e-10 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), independent=st.lists(st.booleans(), min_size=1,
                                                  max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_prefix_solves_match_tsvd_on_leading_columns(m, independent, seed):
    """One factorization of [A | f] solves every column prefix of A.

    A column is independent, with a scale in [1e-2, 1] along its own
    orthonormal direction, or a bounded combination of the independent
    columns before it plus a 1e-17 perturbation.  So every prefix has one
    singular value in [1e-2, 7] per independent column and the rest below
    1e-16: the 2e-14 cut has a wide gap around it for every prefix.
    """
    rng = np.random.default_rng(seed)
    kinds = [True] + independent[1:]
    kinds = [k and sum(kinds[:j + 1]) <= m for j, k in enumerate(kinds)]
    n_ind = sum(kinds)
    basis = _orthonormal(rng, m, n_ind) * np.geomspace(1.0, 1e-2, n_ind)
    columns, k = [], 0
    for is_independent in kinds:
        if is_independent:
            columns.append(basis[:, k])
            k += 1
        else:
            mix = rng.uniform(-1.0, 1.0, k) / math.sqrt(k)
            noise = rng.standard_normal(m)
            columns.append(basis[:, :k] @ mix + 1e-17 * noise / np.linalg.norm(noise))
    a = np.column_stack(columns)
    f = rng.standard_normal(m)
    r = _factor(_augmented(a, f))
    for n in range(1, len(kinds) + 1):
        coeffs, rank = _solve_r(r, n, DEFAULT_TSVD_EPS)
        ref, ref_rank = reference_tsvd(a[:, :n], f, DEFAULT_TSVD_EPS)
        assert rank == ref_rank == sum(kinds[:n])
        assert np.linalg.norm(coeffs - ref) <= 1e-10 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 20), n=st.integers(1, 40), rank_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_folded_solve_matches_complex_tsvd_of_unfolded_system(h, n, rank_frac,
                                                              seed):
    """The conjugate-symmetric system [S; conj S] c = [f; conj f], written
    as fit writes a V-domain fit, each row of [S | f] as its real row over
    its imaginary row, and solved in real arithmetic, against the complex
    truncated SVD of the whole system.  The folded matrix, a row
    permutation of `folded`, has the singular values of
    test_tsvd_matches_reference_truncated_svd, the whole one those times
    sqrt(2): the same wide gap around the cut."""
    rng = np.random.default_rng(seed)
    k = min(2 * h, n)
    rank = max(1, round(rank_frac * k))
    s = np.concatenate([np.geomspace(1.0, 1e-2, rank),
                        np.geomspace(1e-17, 1e-19, k - rank)])
    folded = (_orthonormal(rng, 2 * h, k) * s) @ _orthonormal(rng, n, k).T
    arm = folded[:h] + 1j * folded[h:]
    f_arm = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    system = np.empty((2 * h, n + 1), order="F")
    system[0::2, :n], system[1::2, :n] = arm.real, arm.imag
    system[:, n] = f_arm.view(float)
    coeffs, got_rank = _solve_r(_factor(system), n, DEFAULT_TSVD_EPS)
    ref, ref_rank = reference_tsvd(np.concatenate([arm, arm.conj()]),
                                   np.concatenate([f_arm, f_arm.conj()]),
                                   DEFAULT_TSVD_EPS)
    assert coeffs.dtype == np.float64
    assert got_rank == ref_rank == rank
    assert np.linalg.norm(coeffs - ref) <= 1e-10 * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.05, 1.95), degree=st.integers(0, 24),
       per_arm=st.integers(30, 2000), decades=st.floats(1.0, 16.0))
def test_folded_arnoldi_block_is_orthonormal_on_the_whole_grid(beta, degree,
                                                               per_arm, decades):
    """Built on the upper arm in the inner product 2 Re<u, v>, the block is
    real rows, each point's real part over its imaginary part, with real
    recurrence coefficients, and re-evaluated on the whole grid it is
    orthonormal there and conjugate-symmetric bit for bit."""
    grid = build_fit_grid(Domain(beta), per_arm=per_arm, decades=decades)
    q, hess, norm0 = _poly_chain_build(grid.points, degree)
    assert q.dtype == hess.dtype == np.float64
    assert q.shape == (2 * per_arm, degree + 1)
    w = _poly_chain_eval(np.concatenate([grid.points, np.conj(grid.points)]),
                         hess, norm0)
    assert w.dtype == np.float64
    assert np.array_equal(w[:2 * per_arm], q)
    assert np.array_equal(w[2 * per_arm::2], q[0::2])
    assert np.array_equal(w[2 * per_arm + 1::2], -q[1::2])
    values = w[0::2] + 1j * w[1::2]
    assert np.max(np.abs(values.conj().T @ values - np.eye(degree + 1))) <= 1e-12


VSHAPE_TARGETS = [Target.sqrt(), Target.power(0.3), Target.power(1.0 / 1.5),
                  Target.power_log(1.0), Target.power_log(0.7)]


@settings(max_examples=40, deadline=None)
@given(beta=st.sampled_from([0.5, 1.0, 1.5]), target=st.sampled_from(VSHAPE_TARGETS),
       n1=st.integers(1, 30), sigma=st.floats(2.0, 15.0),
       degree=st.integers(-1, 20), per_arm=st.integers(30, 600),
       val_per_arm=st.integers(1, 5000))
# one validation point per arm, and a last chunk of one row on the arm
@example(beta=1.0, target=Target.sqrt(), n1=4, sigma=5.0, degree=3, per_arm=50,
         val_per_arm=1)
@example(beta=0.5, target=Target.power_log(1.0), n1=12, sigma=6.0, degree=8,
         per_arm=200, val_per_arm=4097)
def test_vshape_fit_is_conjugate_symmetric(beta, target, n1, sigma, degree,
                                           per_arm, val_per_arm):
    """Real coefficients, so the approximant is conjugate-symmetric bit for
    bit; max_err, measured on the validation grid's upper arm, is exactly
    the maximum over the whole grid; the approximant is real on the
    positive real axis."""
    domain = Domain(beta)
    vgrid = build_fit_grid(domain, per_arm=val_per_arm)
    spec = BasisSpec(tapered_poles(n1, sigma), poly_degree=degree)
    approx, report = fit(target, spec, build_fit_grid(domain, per_arm=per_arm), vgrid)
    assert approx.coeffs.dtype == np.float64
    z = np.concatenate([vgrid.points, np.conj(vgrid.points)])
    values = evaluate(approx, z)
    assert np.array_equal(evaluate(approx, np.conj(z)), np.conj(values))
    assert report.max_err == np.max(np.abs(values - eval_target(target, z)))
    x = np.geomspace(1e-12, 1.0, 25).astype(complex)
    assert np.all(evaluate(approx, x).imag == 0)


@settings(max_examples=25, deadline=None)
@given(beta=st.sampled_from([0.0, 0.5, 1.0, 1.5]), n1=st.integers(1, 24),
       sigma=st.floats(3.0, 12.0), degree=st.integers(-1, 10),
       per_arm=st.integers(60, 300),
       target=st.sampled_from([Target.sqrt(), Target.power(0.3)]))
# a coarse grid and a high degree: columns that are not the recurrence's own
# values on the grid drift from its re-evaluation there by ~1e-9
@example(beta=0.0, n1=1, sigma=3.0, degree=9, per_arm=60, target=Target.sqrt())
def test_evaluate_on_fit_grid_matches_fitted_system(beta, n1, sigma, degree,
                                                     per_arm, target):
    """evaluate on the fit grid's upper arm, viewed as real rows (each
    value's real part, then its imaginary part), against the rows of the
    system the fit solved.  Basis entries are at most 1 in
    modulus, so two summation orders of a value differ by rounding on the
    scale of the coefficients' 1-norm."""
    domain = Domain(beta)
    grid = build_fit_grid(domain, per_arm=per_arm)
    spec = BasisSpec(tapered_poles(n1, sigma), poly_degree=degree)
    approx, _ = fit(target, spec, grid, build_fit_grid(domain, per_arm=VAL_PER_ARM))
    block = _poly_chain_build(grid.points, degree)[0] if degree >= 0 else None
    system = _write_system(grid, spec, eval_target(target, grid.points), block)[0]
    direct = system[:, :-1] @ approx.coeffs
    values = evaluate(approx, grid.points).view(float)
    scale = max(1.0, float(np.abs(approx.coeffs).sum()))
    assert np.max(np.abs(values - direct)) <= 1e-13 * scale


def _kernel_values(z, poles):
    """p/(z - p) from _pf_kernel's parts, put together as its callers do."""
    d, dx, hard, exact = _pf_kernel(z, poles)
    values = (poles[:, None] / d * (dx - 1j * z.imag)).T
    if len(hard):
        values[hard] = exact
    return values


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
       log_radii=st.lists(st.floats(-16.0, 0.0), min_size=1, max_size=40),
       log_poles=st.lists(st.floats(-40.0, 1.0), min_size=1, max_size=30,
                          unique=True))
def test_real_arithmetic_kernel_matches_complex_division(beta, log_radii,
                                                         log_poles):
    """p (x - p) / D - i p y / D against numpy's complex p / (z - p), within
    1e-14 of the modulus, for points on an arm of any opening."""
    poles = -(10.0 ** np.array(log_poles))
    z = 10.0 ** np.array(log_radii) * np.exp(0.5j * math.pi * beta)
    ref = poles / (z[:, None] - poles)
    got = _kernel_values(z, poles)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(log_poles=st.lists(st.floats(-40.0, 1.0), min_size=1, max_size=10,
                          unique=True), hit=st.integers(0, 9))
def test_kernel_raises_exactly_at_a_pole(log_poles, hit):
    poles = -(10.0 ** np.array(log_poles))
    p = poles[hit % len(poles)]
    with pytest.raises(EvaluationError):
        _pf_kernel(np.array([0.5j, complex(p, 0.0)]), poles)
    # the nearest floats beside the pole, and a point 1e-170 above it, are no
    # pole, unless another drawn pole is that float (log_poles 1 and 1 - 1e-16)
    beside = np.array([complex(np.nextafter(p, 0.0), 0.0),
                       complex(np.nextafter(p, -np.inf), 0.0), complex(p, 1e-170)])
    on_pole = np.isin(beside, poles)
    assert np.all(np.isfinite(_kernel_values(beside[~on_pole], poles)))
    for z in beside[on_pole]:
        with pytest.raises(EvaluationError):
            _pf_kernel(np.array([z]), poles)


def test_kernel_outside_the_normal_range_of_d_is_complex_division():
    """Within 1e-170 of a pole D underflows, and at |z| = 1e170 it
    overflows: those points take numpy's complex division, neither inf,
    nan nor 0; evaluate gives the same values, and the system's rows, each
    point's real row then its imaginary row, hold them divided by the
    column scales."""
    poles = -np.array([1e-3, 0.5, 2.0])
    z = np.array([poles[1] + 1e-170 * np.exp(0.3j), poles[2] - 1e-170j,
                  1e170 * np.exp(0.7j), -1e170 + 1e150j, 0.25 + 0.5j])
    ref = poles / (z[:, None] - poles)
    got = _kernel_values(z, poles)
    assert np.all(np.isfinite(got)) and np.all(got != 0)
    assert np.array_equal(got[:4], ref[:4])
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
    rows = np.empty((2 * len(z), len(poles)))
    scaled = ref / _write_partial_fractions(rows, z, poles)
    assert np.array_equal(rows[0:8:2], scaled[:4].real)
    assert np.array_equal(rows[1:8:2], scaled[:4].imag)
    assert np.all(np.abs(rows[8] + 1j * rows[9] - scaled[4]) <= 1e-14 * np.abs(scaled[4]))
    approx = Approximant(BasisSpec(poles, poly_degree=-1),
                         np.ones(3), None, None, np.array([1.0, -2.0, 3.0]))
    values = evaluate(approx, z)
    want = ref @ approx.coeffs
    assert np.all(np.isfinite(values)) and np.all(values != 0)
    assert np.all(np.abs(values - want) <= 1e-14 * (np.abs(ref) @ [1, 2, 3]))


@settings(max_examples=30, deadline=None)
@given(beta=st.sampled_from([0.0, 0.5, 1.0, 1.5]), n1=st.integers(1, 24),
       sigma=st.floats(3.0, 12.0), degree=st.integers(-1, 10),
       start=st.integers(0, 5000), length=st.integers(1, 5000))
@example(beta=0.0, n1=20, sigma=8.0, degree=6, start=3, length=6)
@example(beta=1.0, n1=20, sigma=8.0, degree=6, start=4093, length=7)
def test_evaluate_on_a_slice_is_the_full_call_bit_for_bit(beta, n1, sigma,
                                                          degree, start, length):
    """A point's value does not depend on which other points share the
    call: a slice, and single points, against one call on 5000 points
    (more than one 4096-point chunk)."""
    domain = Domain(beta)
    spec = BasisSpec(tapered_poles(n1, sigma), poly_degree=degree)
    approx, _ = fit(Target.sqrt(), spec, build_fit_grid(domain, per_arm=300),
                    build_fit_grid(domain, per_arm=50))
    pts = build_fit_grid(domain, per_arm=5000).points
    full = evaluate(approx, pts)
    part = slice(start, start + length)
    assert np.array_equal(evaluate(approx, pts[part]), full[part])
    for i in range(start % 97, len(pts), 487):
        assert evaluate(approx, pts[i]) == full[i]
