"""Every count and positive real of the Python API has one check.

The property test is the Python-side twin of the CLI's
`test_every_invalid_flag_value_exits_1`: one invalid value for one
parameter, the other arguments valid, raises InputError with no numpy
warning on the way.  The guard test keeps the checks in one place.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightningfit import (BasisSpec, Domain, InputError, Target, TrapApproximant,
                          big_poles, build_fit_grid, count_large_poles,
                          density_correction, density_leading, eval_target,
                          evaluate, fit, integrate_many, invert_stahl_density,
                          large_pole_estimate, large_pole_tail, max_error,
                          pole_residue_pairs, quadrature_error_kernel,
                          stahl_density, tapered_poles,
                          trap_eval, trap_partial_fractions,
                          truncated_sqrt_integral, uniform_poles)
from lightningfit.errors import MAX_ENTRIES
from lightningfit.experiments import (corner_sigma_rule, corner_target,
                                      poly_degree_rule, run_corner_sigma, run_fit)

SRC = Path(__file__).resolve().parents[1] / "src" / "lightningfit"

NOT_REAL = ("a", None, 1j)
# 10**400 is an int beyond the float range: not finite once converted
NOT_POSITIVE = NOT_REAL + (math.nan, math.inf, -math.inf, 0, -1, 10**400)
# a corner's opening beta is a positive real that opens a V-domain, below 2
NOT_AN_OPENING = NOT_POSITIVE + (2.0, 2.5)
# evaluation points are finite numbers: text is not parsed
NOT_POINTS = ("abc", "0.5", b"0.5", {}, [0.5, [0.5, 0.25]], math.nan, math.inf)

APPROX, _ = fit(Target("sqrt"), BasisSpec(tapered_poles(8, 5.0), poly_degree=3),
                Domain(), 100)


def not_a_count(least=1):
    return NOT_REAL + (math.nan, math.inf, -math.inf, 2.5) + tuple(
        sorted(v for v in {least - 1, 0, -1} if v < least))


# parameter: (call with the one value, invalid values)
CASES = {
    "uniform_poles n1": (lambda v: uniform_poles(v, 5.0), not_a_count()),
    "tapered_poles n1": (lambda v: tapered_poles(v, 5.0), not_a_count()),
    "tapered_poles sigma": (lambda v: tapered_poles(8, v), NOT_POSITIVE),
    "tapered_poles scale": (lambda v: tapered_poles(8, 5.0, v), NOT_POSITIVE),
    "big_poles n": (lambda v: big_poles(v, 2), not_a_count()),
    "big_poles n2": (lambda v: big_poles(10, v), not_a_count()),
    "BasisSpec poly_degree": (lambda v: BasisSpec([-1.0], poly_degree=v),
                              not_a_count(-1)),
    # a grid above the cap is refused before np.logspace allocates it
    "build_fit_grid per_arm": (lambda v: build_fit_grid(Domain(), per_arm=v),
                               not_a_count() + (MAX_ENTRIES + 1, 10**30)),
    # a V-domain point is two float64 entries
    "build_fit_grid per_arm on a V-domain": (
        lambda v: build_fit_grid(Domain(1.0), per_arm=v), (MAX_ENTRIES // 2 + 1,)),
    # an array of kinds would make `in TARGET_KINDS` ambiguous
    "Target kind": (lambda v: Target(v), NOT_REAL + (
        "SQRT", np.array("sqrt"), np.array(["sqrt", "power"]))),
    "Target alpha": (lambda v: Target("powerlog", v), NOT_POSITIVE),
    "TrapApproximant nt": (lambda v: TrapApproximant(v), not_a_count()),
    # a step of None is the default step
    "TrapApproximant step": (lambda v: TrapApproximant(16, step=v),
                             tuple(v for v in NOT_POSITIVE if v is not None)),
    "trap_partial_fractions n1": (lambda v: trap_partial_fractions(v, 1.0),
                                  not_a_count()),
    "truncated_sqrt_integral t_param": (lambda v: truncated_sqrt_integral(0.5, v),
                                        NOT_POSITIVE),
    "density_correction y": (lambda v: density_correction(v), NOT_POSITIVE),
    # y = inf is the limit y -> inf of the array function, L = 0
    "density_leading y": (lambda v: density_leading(v),
                          tuple(v for v in NOT_POSITIVE if v != math.inf)),
    "stahl_density n": (lambda v: stahl_density(v, 1.0), not_a_count()),
    "stahl_density y": (lambda v: stahl_density(4, v), NOT_POSITIVE),
    "invert_stahl_density j": (lambda v: invert_stahl_density(8, v),
                               NOT_REAL + (math.nan, math.inf, -math.inf)),
    "large_pole_estimate n": (lambda v: large_pole_estimate(v, 0), not_a_count()),
    "count_large_poles n": (lambda v: count_large_poles(v), not_a_count(4)),
    "pole_residue_pairs kmax": (lambda v: pole_residue_pairs(0.5, 3.0, v),
                                not_a_count(0)),
    "pole_residue_pairs t_param": (lambda v: pole_residue_pairs(0.5, v), NOT_POSITIVE),
    # a point of the unit disk: text is not parsed; |z| = 0 and > 1 are out
    "pole_residue_pairs z": (lambda v: pole_residue_pairs(v, 3.0),
                             NOT_POINTS + (None, [0.5], 0, 1.5)),
    "quadrature_error_kernel step": (lambda v: quadrature_error_kernel(1 + 1j, v),
                                     NOT_POSITIVE),
    # residue_terms passes one step per pole
    "quadrature_error_kernel steps": (
        lambda v: quadrature_error_kernel([1 + 1j, 2 + 1j], [2.0, v]), NOT_POSITIVE),
    "poly_degree_rule n1": (lambda v: poly_degree_rule(v), not_a_count()),
    "run_fit n1": (lambda v: run_fit(n1=v), not_a_count()),
    "corner_target beta": (lambda v: corner_target(v), NOT_AN_OPENING),
    "corner_sigma_rule beta": (lambda v: corner_sigma_rule(v), NOT_AN_OPENING),
    "run_corner_sigma beta_list": (lambda v: run_corner_sigma(beta_list=(v,)),
                                   NOT_AN_OPENING),
    "integrate_many tols": (
        lambda v: integrate_many(lambda t, k: np.sin(t), (0.0, 1.0), [1e-10, v],
                                 ["a", "b"]), NOT_POSITIVE),
    "evaluate points": (lambda v: evaluate(APPROX, v), NOT_POINTS),
    # the maximum over no points is refused, not left to numpy's reduction
    "max_error points": (lambda v: max_error(APPROX, Target("sqrt"), v),
                         NOT_POINTS + ([], np.empty(0, dtype=complex))),
    "eval_target points": (lambda v: eval_target(Target("sqrt"), v), NOT_POINTS),
    "trap_eval points": (lambda v: trap_eval(TrapApproximant(16), v), NOT_POINTS),
    "quadrature_error_kernel points": (
        lambda v: quadrature_error_kernel(v, 2.0), NOT_POINTS + (1e308 + 1j,)),
    "large_pole_tail points": (
        lambda v: large_pole_tail(trap_partial_fractions(4, 2.0), v), NOT_POINTS),
}
PAIRS = [(name, value) for name, (_, values) in CASES.items() for value in values]


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(PAIRS))
# each of these once escaped as TypeError or ValueError, or gave nan
@example(pair=("poly_degree_rule n1", "a"))
@example(pair=("run_fit n1", "a"))
@example(pair=("stahl_density y", "a"))
@example(pair=("invert_stahl_density j", "a"))
@example(pair=("stahl_density y", math.inf))
@example(pair=("density_correction y", math.inf))
@example(pair=("TrapApproximant step", "a"))
@example(pair=("TrapApproximant step", math.inf))
@example(pair=("corner_target beta", 0))  # ZeroDivisionError
@example(pair=("corner_target beta", math.nan))  # ValueError
@example(pair=("corner_sigma_rule beta", 2.5))  # ValueError
@example(pair=("run_corner_sigma beta_list", "a"))  # TypeError
@example(pair=("evaluate points", "0.5"))  # parsed, returned 0.707
@example(pair=("max_error points", []))  # ValueError from numpy's maximum
@example(pair=("eval_target points", math.nan))  # returned nan
@example(pair=("trap_eval points", math.inf))  # RuntimeWarning, returned nan
@example(pair=("quadrature_error_kernel step", 0))  # RuntimeWarning, returned nan
@example(pair=("quadrature_error_kernel points", math.nan))  # RuntimeWarning, nan
@example(pair=("quadrature_error_kernel points", 1e308 + 1j))  # RuntimeWarning, nan
# these returned poles
@example(pair=("pole_residue_pairs t_param", math.nan))
@example(pair=("pole_residue_pairs t_param", -5.0))
@example(pair=("pole_residue_pairs z", "0.5"))
@example(pair=("pole_residue_pairs z", None))  # TypeError
# this one returned a target for an opening outside the domain
@example(pair=("corner_target beta", 2.5))
# each of these once escaped as OverflowError
@example(pair=("Target alpha", 10**400))
@example(pair=("tapered_poles sigma", 10**400))
def test_every_invalid_parameter_value_is_an_input_error(pair):
    """One invalid value for one parameter: InputError, no value and no
    numpy warning."""
    _assert_input_error(*pair)


@pytest.mark.parametrize("name, value", PAIRS,
                         ids=[f"{name}={value!r}" for name, value in PAIRS])
def test_each_invalid_parameter_value_is_an_input_error(name, value):
    """The same check over the whole finite list, each pair on every run."""
    _assert_input_error(name, value)


def _assert_input_error(name, value):
    call, _ = CASES[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(value)
        except InputError:
            result = None
    assert result is None, f"{name} = {value!r} returned {result!r}"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("call, message", [
    (lambda: quadrature_error_kernel(1 + 1j, None), "step must be real"),
    (lambda: invert_stahl_density(8, None), "j must be real"),
    (lambda: invert_stahl_density(8, [1.0, None]), "j must be real"),
], ids=["step", "j", "j in a list"])
def test_none_among_reals_is_refused_not_read_as_nan(call, message):
    """check_reals refuses None, so the refusal does not name nan."""
    with pytest.raises(InputError) as caught:
        call()
    assert str(caught.value) == message


def _check_number_bounds(tree):
    """Line numbers of one-sided comparisons (<, <=, >, >=) of a
    check_number(...) result."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))):
            continue
        calls = [n for operand in (node.left, *node.comparators)
                 for n in ast.walk(operand) if isinstance(n, ast.Call)]
        if any(getattr(call.func, "attr", getattr(call.func, "id", None))
               == "check_number" for call in calls):
            lines.append(node.lineno)
    return lines


def test_counts_and_positive_reals_are_checked_only_in_errors():
    """A lower bound on a checked number belongs to InputError.check_count or
    InputError.check_positive.  A two-sided range such as eps_rel in (0, 1]
    or k in [0, n) is that parameter's own check and stays where it is."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _check_number_bounds(ast.parse(path.read_text(encoding="utf-8")))
        if lines and path.name != "errors.py":
            found[path.name] = lines
    assert found == {}


def test_the_guard_sees_a_local_count_check():
    tree = ast.parse("if InputError.check_number('n', n, integral=True) < 1:\n"
                     "    raise InputError('n must be >= 1')\n"
                     "if not 0 < check_number('x', x) <= 1:\n"
                     "    pass\n")
    assert _check_number_bounds(tree) == [1]
