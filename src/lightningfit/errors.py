"""Exception taxonomy.

InputError covers precondition violations (bad parameters, off-domain or
pole-coincident points); NumericError covers runtime numerical failures
(quadrature non-convergence, degenerate matrices).  The CLI maps them to
exit codes 1 and 2.  A numeric argument of the wrong kind is an InputError;
every count and positive real is checked by check_count or check_positive,
every array of reals is converted by check_reals, every array of
evaluation points by check_points, and every array a fit would allocate
above MAX_ENTRIES is refused by check_entries.
"""

import math
import numbers

import numpy as np

MAX_ENTRIES = 2**25  # float64 entries (256 MiB): the largest array a fit may take


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
    def check_positive(name: str, value) -> float:
        """value as a float, if it is a finite real > 0."""
        try:
            x = float(InputError.check_number(name, value))
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if not x > 0:
            raise InputError(f"{name} must be positive, got {value}")
        if not x < math.inf:
            raise InputError(f"{name} must be finite, got {value}")
        return x

    @staticmethod
    def check_entries(what: str, entries: int):
        """Refuse, before it is allocated, an array of more than
        MAX_ENTRIES float64 entries."""
        if entries > MAX_ENTRIES:
            raise InputError(f"{what} needs {entries} float64 entries, above "
                             f"the cap of {MAX_ENTRIES}")

    @staticmethod
    def check_reals(value, message: str) -> np.ndarray:
        """value as a new float64 array, if it holds only reals; else
        InputError(message).  Complex and text arrays are refused, not cut
        to their real part or parsed, and so is None, not turned into nan."""
        try:
            array = np.asarray(value)
            if array.dtype.kind in "cSU" or (array.dtype == object and None in array.flat):
                raise TypeError
            return array.astype(float)
        except (TypeError, ValueError, OverflowError):
            raise InputError(message) from None

    @staticmethod
    def check_points(value) -> np.ndarray:
        """value as a float64 array, complex128 if it holds complex numbers,
        if every entry is a finite number; else InputError.  Text is
        refused, not parsed."""
        try:
            array = np.asarray(value)
            if array.dtype.kind in "SU":
                raise TypeError
            array = array.astype(complex if array.dtype.kind == "c" else float,
                                 copy=False)
        except (TypeError, ValueError, OverflowError):
            raise InputError("evaluation points must be real or complex numbers") from None
        if not np.all(np.isfinite(array)):
            raise InputError("evaluation points must be finite")
        return array


class NumericError(LightningError, RuntimeError):
    pass
