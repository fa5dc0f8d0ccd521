"""Exception taxonomy.

InputError covers precondition violations (bad parameters, off-domain or
pole-coincident points); NumericError covers runtime numerical failures
(quadrature non-convergence, degenerate matrices).  The CLI maps them to
exit codes 1 and 2.  A numeric argument of the wrong kind is an InputError;
every count and positive real is checked by check_count or check_positive.
"""

import math
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

    @staticmethod
    def check_count(name: str, value, least: int = 1):
        """value, if it is an integer >= least."""
        if InputError.check_number(name, value, integral=True) < least:
            raise InputError(f"{name} must be >= {least}, got {value}")
        return value

    @staticmethod
    def check_positive(name: str, value):
        """value, if it is a finite real > 0."""
        if not InputError.check_number(name, value) > 0:
            raise InputError(f"{name} must be positive, got {value}")
        if not value < math.inf:
            raise InputError(f"{name} must be finite, got {value}")
        return value


class EvaluationError(InputError):
    """A point hit a pole or otherwise cannot be evaluated."""


class NumericError(LightningError, RuntimeError):
    pass
