"""Quadrature-error kernel, pole/residue bookkeeping, and the contour identity."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightningfit import contour
from lightningfit import (ContourSetup, InputError,
                          TrapApproximant, contour_terms,
                          default_step, error_identity_report, error_integrand,
                          integrate_many, pole_residue_pairs,
                          quadrature_error_kernel, residue_rate_check,
                          residue_terms, t_parameter, trap_eval,
                          truncated_sqrt_integral, validity_floor)

H0 = default_step()  # 2 pi^2


def test_kernel_frozen_value_mid_height():
    # u = i h/2: q = e^{-pi}, delta = 1/(e^pi - 1)
    val = quadrature_error_kernel(1j * H0 / 2, H0)
    assert val == pytest.approx(0.045165705363684115, rel=1e-13)
    assert abs(val.imag) < 1e-16


def test_kernel_periodicity():
    u = 0.3 * H0 + 1j * 2.0
    assert quadrature_error_kernel(u + 3 * H0, H0) == pytest.approx(
        quadrature_error_kernel(u, H0), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(re=st.floats(-0.5, 0.5, exclude_max=True), im=st.floats(1e-3, 2.0),
       below=st.booleans(), branch=st.sampled_from((1, -1)),
       k=st.integers(-3, 3), step=st.sampled_from((math.pi**2, 2 * math.pi**2)))
def test_kernel_periodicity_property(re, im, below, branch, k, step):
    """delta(u + k h) = delta(u) for u in the period centred on the origin,
    at least 1e-3 h off the real axis, on either forced branch.  Near the
    lattice |1 - q| falls to 6.3e-3 and divides the rounding of the phase
    2 pi u/h, hence a tolerance of 1e-12 relative rather than a few ulps."""
    u = np.complex128(complex(re * step, (-im if below else im) * step))
    want = contour._comb_kernel(u / step, branch)
    got = contour._comb_kernel((u + k * step) / step, branch)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_kernel_decay_rate():
    """|delta| halves in log by e^{-2 pi dIm/h} per height step."""
    u1 = 0.25 * H0 + 1j * H0
    u2 = 0.25 * H0 + 2j * H0
    ratio = abs(quadrature_error_kernel(u2, H0)) / abs(quadrature_error_kernel(u1, H0))
    assert ratio == pytest.approx(math.exp(-2 * math.pi), rel=0.2)


def test_kernel_conjugation_antisymmetry():
    """delta(conj u) = -conj(delta(u)).

    The two halves of the comb weight differ by the sign of mu, so
    conjugation flips the sign as well as conjugating; a symmetric rule
    delta(conj u) = conj(delta(u)) would make the error identity complex
    for real arguments.
    """
    for u in (0.2 * H0 + 0.7j * H0, 1.9 * H0 + 0.01j * H0, -0.4 * H0 + 2.3j * H0):
        lhs = quadrature_error_kernel(np.conj(u), H0)
        rhs = -np.conj(quadrature_error_kernel(u, H0))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_kernel_branch_forcing():
    """The upper (+1) expression below the axis continues the upper side."""
    u = 0.3 * H0 - 0.2j * H0
    forced = contour._comb_kernel(np.complex128(u) / H0, +1)
    q = cmath.exp(2j * math.pi * u / H0)
    assert forced == pytest.approx(q / (1 - q), rel=1e-13)
    # default branch on the lower side differs by the mu jump of -1
    free = quadrature_error_kernel(u, H0)
    assert forced - free == pytest.approx(-1.0, rel=1e-12)


def test_kernel_rejects_comb_nodes():
    with pytest.raises(InputError, match="on a quadrature node of the comb"):
        quadrature_error_kernel(3.0 * H0, H0)
    with pytest.raises(InputError, match="on a quadrature node of the comb"):
        quadrature_error_kernel(0.0, H0)


def test_kernel_no_overflow_high_above_axis():
    val = quadrature_error_kernel(0.1 + 1j * 1e6, H0)
    assert np.isfinite(val)
    assert abs(val) < 1e-300 or abs(val) == 0.0


# bound failure band: |Im u|/h in [1/(2 pi), ln3/(2 pi)); the proposed
# constant 3/2 is falsified there, the constant 1/(1 - 1/e) is not
def test_kernel_bound_counterexample():
    u = 1j * H0 / (2 * math.pi)
    val = abs(quadrature_error_kernel(u, H0))
    assert val == pytest.approx(1.0 / (math.e - 1.0), rel=1e-13)  # 0.581977
    claimed = 1.5 * math.exp(-2 * math.pi * abs(u.imag) / H0)     # 0.551819
    assert val > claimed


def test_kernel_bound_with_corrected_constant():
    """|delta| <= e^{-2 pi Im/h}/(1 - 1/e) holds on the whole half-plane band."""
    c = 1.0 / (1.0 - math.exp(-1.0))
    res = np.linspace(0.0, H0, 41)[:-1]
    ims = H0 * np.linspace(1.0 / (2 * math.pi), 3.0, 60)
    for im in ims:
        u = res + 1j * im
        vals = np.abs(quadrature_error_kernel(u, H0))
        envelope = c * math.exp(-2 * math.pi * im / H0)
        assert np.all(vals <= envelope * (1 + 1e-12))


def test_kernel_bound_three_halves_beyond_band():
    """The 3/2 constant does hold once |Im u| >= ln(3) h/(2 pi)."""
    res = np.linspace(0.0, H0, 41)[:-1]
    ims = H0 * np.linspace(math.log(3.0) / (2 * math.pi), 3.0, 60)
    for im in ims:
        vals = np.abs(quadrature_error_kernel(res + 1j * im, H0))
        assert np.all(vals <= 1.5 * math.exp(-2 * math.pi * im / H0) * (1 + 1e-12))


def test_identity_node_sum_is_trap_eval():
    """The identity's S is the package's approximant, bit for bit, and
    that equals the rule's textbook sum (z h/pi) sum_j 1/(sqrt(jh) den_j)."""
    for setup in (ContourSetup(0.5, 64), ContourSetup(1.0, 64, beta=1.0)):
        trap = TrapApproximant(setup.nt, setup.beta)
        assert error_identity_report([setup])[0].node_sum == trap_eval(trap, setup.z)
    for nt, x in ((8, 0.3), (32, 1.0), (64, 1e-5)):
        trap = TrapApproximant(nt)
        root = np.sqrt(np.arange(1, nt + 1) * H0)
        s = root - trap.t_param
        direct = x * H0 / math.pi * np.sum(1.0 / (root * (np.exp(s) + x * np.exp(-s))))
        assert trap_eval(trap, x) == pytest.approx(direct, rel=1e-14)


def test_pole_defining_equation():
    """Each listed pole solves e^{2(sqrt(u)-T)} = -z."""
    for z in (1.0, 0.37, 0.5 * cmath.exp(1j * math.pi / 4)):
        for pr in pole_residue_pairs(z, 9.0, kmax=2):
            w = cmath.sqrt(pr.pole)
            residual = cmath.exp(2 * (w - 9.0)) + z
            assert abs(residual) < 1e-10 * abs(z)


def test_pole_pairs_frozen_example():
    # x = 1, T = 10: primary pair (10 +- i pi/2)^2, residues -+ i/pi
    pairs = pole_residue_pairs(1.0, 10.0, kmax=0)
    up, down = pairs
    assert up.k == 0 and up.branch == 1 and down.branch == -1
    assert up.pole == pytest.approx(100 - math.pi**2 / 4 + 10j * math.pi, rel=1e-14)
    assert down.pole == pytest.approx(100 - math.pi**2 / 4 - 10j * math.pi, rel=1e-14)
    assert up.residue == pytest.approx(-1j / math.pi, rel=1e-14)
    assert down.residue == pytest.approx(1j / math.pi, rel=1e-14)


def test_pole_ordering_and_validation():
    pairs = pole_residue_pairs(0.5, 8.0, kmax=3)
    assert [p.k for p in pairs] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert [p.branch for p in pairs[:4]] == [1, -1, 1, -1]
    with pytest.raises(InputError):
        pole_residue_pairs(0.0, 8.0)
    with pytest.raises(InputError):
        pole_residue_pairs(1.5, 8.0)
    with pytest.raises(InputError):
        pole_residue_pairs(0.5, 8.0, kmax=-1)


def test_residue_against_circle_integral():
    """Residues match (1/2 pi i) of f around a small circle at the pole."""
    z, tp = 0.6, 9.0
    for pr in pole_residue_pairs(z, tp, kmax=1):
        rho = 1e-3 * abs(pr.pole)
        theta = np.linspace(0.0, 2 * math.pi, 4097)[:-1]
        ring = pr.pole + rho * np.exp(1j * theta)
        vals = error_integrand(ring, z, tp) * (ring - pr.pole)
        circ = np.mean(vals)  # midpoint rule on the circle; spectrally accurate
        assert circ == pytest.approx(pr.residue, rel=1e-6)


def test_residue_term_real_for_real_argument():
    val, = residue_terms([(0.5, t_parameter(32, H0), H0)])
    assert abs(val.imag) < 1e-16 * max(abs(val.real), 1e-300)


def test_primary_poles_inside_rectangle_secondary_outside():
    """k = 0 poles sit at half the rectangle height, k = 1 beyond it."""
    for beta, r in ((0.0, 1.0), (0.5, 1.0), (1.5, 1.0)):
        step = default_step(beta)
        nt = 64
        tp = t_parameter(nt, step)
        arm = beta * math.pi / 2
        z = r * cmath.exp(1j * arm) if beta else complex(r)
        setup = ContourSetup(r, nt, beta=beta)
        pairs = pole_residue_pairs(z, tp, kmax=1)
        for pr in pairs:
            inside = (setup.rect_left < pr.pole.real < setup.rect_right
                      and abs(pr.pole.imag) < setup.half_height)
            assert inside == (pr.k == 0)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_validity_floor_is_the_smallest_radius_a_setup_takes(beta):
    rule = TrapApproximant(64, beta)
    floor = validity_floor(rule)
    assert floor == math.exp(4.0 + 2.0 * beta - 2.0 * rule.t_param)
    assert ContourSetup(floor, 64, beta).radius == floor
    with pytest.raises(InputError, match="below the validity floor"):
        ContourSetup(floor * (1.0 - 1e-8), 64, beta)


def test_identity_pass_is_the_defect_within_its_tolerance():
    for setup in (ContourSetup(0.5, 16), ContourSetup(1.0, 64, 1.0)):
        report = error_identity_report([setup])[0]
        assert report.identity_pass
        assert report.identity_pass == (
            report.defect <= max(1e-10, 1e-3 * abs(report.lhs)))


def test_setup_validation():
    with pytest.raises(InputError):
        ContourSetup(1e-12, 16)  # below the validity floor
    with pytest.raises(InputError):
        ContourSetup(0.5, 0)
    with pytest.raises(InputError, match="radius must be real"):
        ContourSetup(1j, 64)
    assert ContourSetup(1, 64).z == 1.0
    ok = ContourSetup(math.exp(4 - 2 * t_parameter(16, H0)), 16)
    assert ok.radius > 0


def test_identity_small_case():
    rep = error_identity_report([ContourSetup(0.5, 32)])[0]
    assert rep.defect < 1e-12
    assert abs(rep.lhs.imag) < 1e-14
    assert rep.integral_value.real == pytest.approx(math.sqrt(0.5), abs=1e-3)


def test_identity_on_upper_arm():
    # beta = 1 arm sits at angle pi/2
    setup = ContourSetup(1.0, 64, beta=1.0)
    assert setup.z == pytest.approx(1j, abs=1e-15)
    assert error_identity_report([setup])[0].defect < 1e-12


def test_one_pass_gamma_matches_per_leg_integrals():
    """The six legs in one adaptive pass agree with six separate integrals."""
    for setup in (ContourSetup(0.5, 16), ContourSetup(1.0, 64, beta=1.0)):
        x0, x1, a = setup.rect_left, setup.rect_right, setup.half_height
        corners = [x0 - 1j * a, x1 - 1j * a, x1, x1 + 1j * a, x0 + 1j * a, x0,
                   x0 - 1j * a]
        total = 0.0j
        for z0, z1, branch in zip(corners[:-1], corners[1:], (-1, -1, 1, 1, 1, -1)):
            def leg(t, _, z0=z0, dz=z1 - z0, branch=branch):
                u = z0 + t * dz
                return error_integrand(u, setup.z, setup.rule.t_param) * dz \
                    * contour._comb_kernel(u / setup.rule.step, branch)
            total += integrate_many(leg, (0.0, 1.0), [setup.tol], ["a leg"])[0]
        assert abs(contour_terms([setup])[0].gamma_int - total) <= 6 * setup.tol


def _terms_bits(terms):
    return [np.complex128(x).tobytes()
            for x in (terms.end_ints, terms.gamma_int, terms.residue_term)]


def _lone_terms(setup):
    """The setup's terms with gamma_int from a lone pass over the scalar z,
    through error_integrand, and residue_term from scalar kernel calls."""
    x0, x1, a = setup.rect_left, setup.rect_right, setup.half_height
    tp, h = setup.rule.t_param, setup.rule.step
    corners = np.array([x0 - 1j * a, x1 - 1j * a, x1 + 0j, x1 + 1j * a,
                        x0 + 1j * a, x0 + 0j, x0 - 1j * a])
    sign = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
    start, dz = corners[:-1], np.diff(corners)

    def on_legs(t, _):
        k = np.minimum(t.astype(int), 5)
        u = start[k] + (t - k) * dz[k]
        delta = contour._comb_kernel(u / h, sign[k])
        return error_integrand(u, setup.z, tp) * delta * dz[k]

    total = 0.0j
    for pr in pole_residue_pairs(setup.z, tp):
        total += pr.residue * quadrature_error_kernel(pr.pole, h)
    return contour.ContourTerms(
        end_ints=contour_terms([setup])[0].end_ints,
        gamma_int=integrate_many(on_legs, np.arange(7.0), [6 * setup.tol],
                                 ["the rectangle"])[0],
        residue_term=2j * math.pi * total)


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(16, 400), st.sampled_from((0.0, 0.5, 1.0)),
                               st.floats(0.0, 1.0)), min_size=1, max_size=6))
# interval rows at the validity floor whose gamma_int moves in its last
# bits if z/pi is rounded as a numpy array division
@example(rows=[(23, 0.0, 0.0), (40, 0.5, 0.3)])
@example(rows=[(65, 0.0, 0.0), (16, 0.0, 0.0), (144, 1.0, 1.0)])
def test_a_row_gets_the_bits_it_gets_alone(rows):
    """Each setup of a table gets from one contour_terms call the bits of
    end_ints, gamma_int and residue_term it gets alone, in a call of its
    own and in scalar arithmetic on its own z.  The radius runs
    log-uniformly from the validity floor (w = 0) to 1 (w = 1)."""
    setups = [ContourSetup(validity_floor(TrapApproximant(nt, beta)) ** (1.0 - w),
                           nt, beta) for nt, beta, w in rows]
    for setup, terms in zip(setups, contour_terms(setups)):
        want = _terms_bits(_lone_terms(setup))
        assert _terms_bits(terms) == want, setup
        assert _terms_bits(contour_terms([setup])[0]) == want, setup


@pytest.mark.parametrize("nt", [16, 39, 40, 45, 144, 400])
def test_identity_defect_within_tolerance(nt):
    """At nt = 39..45 the top and bottom legs carry ~40 periods of delta at
    amplitude ~1e-12: a bare |K15 - G7| test passes them unresolved on a
    chance agreement of the two rules (defect 1.1e-12 at nt = 40, |z| = 1)."""
    for r in (0.5, 1.0):
        setup = ContourSetup(r, nt)
        assert error_identity_report([setup])[0].defect <= setup.tol


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5])
def test_window_integrals_match_mpmath(beta, monkeypatch):
    """The truncated integral and both real stubs, each against the kernel's
    antiderivative in mpmath, over the rectangle's own float endpoints: the
    truncated integral over s in [-T, T], the stubs over [-T, sqrt(x0) - T]
    and [T, sqrt(x1) - T].  The reference runs at 150 digits, so that the
    arctangents' cancellation leaves it 40 correct ones."""
    stubs = []

    def recording(*args):
        stubs.append(window(*args))
        return stubs[-1]

    window = contour._window_integral
    monkeypatch.setattr(contour, "_window_integral", recording)
    for nt in (16, 64, 144, 400):
        t_param = TrapApproximant(nt, beta).t_param
        floor = math.exp(4.0 + 2.0 * beta - 2.0 * t_param)
        for r in (floor, 0.5, 1.0):
            setup = ContourSetup(r, nt, beta)
            stubs.clear()
            contour_terms([setup])
            with mp.workdps(150):
                z, tp = mp.mpc(setup.z), mp.mpf(t_param)
                root = mp.sqrt(z)

                def exact(s_lo, s_hi):
                    return 2 * root / mp.pi * (mp.atan(mp.exp(s_hi) / root)
                                               - mp.atan(mp.exp(s_lo) / root))
                cases = (
                    (truncated_sqrt_integral(setup.z, t_param), exact(-tp, tp)),
                    (stubs[0], exact(-tp, mp.sqrt(setup.rect_left) - tp)),
                    (stubs[1], exact(tp, mp.sqrt(setup.rect_right) - tp)))
                for got, want in cases:
                    assert abs(got - want) <= 4e-15 * abs(want), (nt, r, got, want)


def test_end_ints_scale():
    """|end_ints| tracks e^{-T} with a modest constant."""
    for nt in (16, 64):
        setup = ContourSetup(0.5, nt)
        terms = contour_terms([setup])[0]
        assert abs(terms.end_ints) < 1.5 * math.exp(-setup.rule.t_param)
        assert abs(terms.end_ints) > 0.1 * math.exp(-setup.rule.t_param)


def test_residue_term_envelope():
    """|residue_term| <= 6 e^{-T}: two residues of modulus <= 1/pi times
    |2 pi i| times |delta| <= e^{-T+1}/(e-1) at the primary poles."""
    for nt in (16, 64, 144):
        tp = t_parameter(nt, H0)
        for x in (0.1, 0.5, 1.0):
            assert abs(residue_terms([(x, tp, H0)])[0]) <= 6.0 * math.exp(-tp)


def test_conjecture_bound_interval():
    setup = ContourSetup(1.0, 16)
    report = error_identity_report([setup])[0]
    assert report.conj_pass
    assert report.conj_bound == pytest.approx(12 * math.exp(-setup.rule.t_param),
                                              rel=1e-14)
    # measured ratio is ~9, comfortably below 12 but not small: the
    # conjectured constant is within ~30% of what the contour delivers
    assert 7.0 < report.gamma_ratio < 12.0


def test_residue_rates_matched_step():
    """Matched step: ratio = 4 |sin(phase)| + O(e^{-2T}), nt-independent at x = 1.

    Stepping nt by factors of 4 leaves the phase unchanged mod 2 pi at
    x = 1 (the phase is (T^2 - pi^2/4)/pi - pi/2 and T doubles), so the
    ratio is pinned at 2 sqrt 2.  At generic radii the phase moves and the
    ratio wanders below 4; near a phase zero it can dip arbitrarily (the
    x = 0.5, nt = 64 row is such a dip), so only the envelope is stable.
    """
    rows = residue_rate_check(H0, (16, 64, 144))
    by_radius = {}
    for row in rows:
        by_radius.setdefault(row["radius"], []).append(row["ratio"])
    for r, ratios in by_radius.items():
        assert all(t <= 4.0 + 1e-6 for t in ratios)
    assert by_radius[1.0] == pytest.approx([2 * math.sqrt(2)] * 3, rel=1e-6)
    # away from phase dips the spread across nt stays within a factor 20
    for r in (0.1, 1.0):
        ratios = by_radius[r]
        assert max(ratios) / min(ratios) < 20.0
    # the documented dip: x = 0.5 passes near a phase zero at nt = 64
    assert by_radius[0.5][1] < 0.5


def test_residue_rates_mismatched_step_drift():
    """step = pi^2 halves the kernel's decay length, so the ratio collapses
    with nt instead of plateauing; a wrong step is unmistakable."""
    rows = residue_rate_check(math.pi**2, (16, 144))
    by_radius = {}
    for row in rows:
        by_radius.setdefault(row["radius"], []).append(row["ratio"])
    for r, (first, last) in by_radius.items():
        assert last < first / 100.0
        assert first < 0.1  # already far below the matched-step plateau ~4


def test_residue_rate_check_validation():
    with pytest.raises(InputError):
        residue_rate_check(0.0, (16,))
    with pytest.raises(InputError, match="step must be positive"):
        residue_rate_check(math.nan, (16,))
    for nt in (0, -3):
        with pytest.raises(InputError, match="nt must be >= 1"):
            residue_rate_check(default_step(), [nt])
