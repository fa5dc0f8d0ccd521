"""Exception taxonomy.

InputError covers precondition violations (bad parameters, off-domain or
pole-coincident points); NumericError covers runtime numerical failures
(quadrature non-convergence, degenerate matrices).  The CLI maps them to
exit codes 1 and 2; a numeric argument of the wrong kind is an InputError.
"""

import numbers


class LightningError(Exception):
    pass


class InputError(LightningError, ValueError):
    @staticmethod
    def check_number(name: str, value, integral: bool = False):
        """value, if it is a real number (an integer if integral)."""
        kind = numbers.Integral if integral else numbers.Real
        if not isinstance(value, kind):
            raise InputError(f"{name} must be {kind.__name__.lower()}, got {value!r}")
        return value


class EvaluationError(InputError):
    """A point hit a pole or otherwise cannot be evaluated."""


class NumericError(LightningError, RuntimeError):
    pass
