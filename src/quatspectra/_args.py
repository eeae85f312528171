"""The one rule for a public argument.  Each check returns the argument in the
type its caller computes with, or raises the caller's error class and message.

* An integer is a Python ``int`` that is not a ``bool``: integers reach JSON
  rows and seed hashes, so a numpy integer is not one.
* A real number is a ``numbers.Real``, not a ``bool``, that a float holds (an
  int past float range does not).  NaN never is valid; +inf only for a tolerance.
* A finite array converts to a float (or complex) array with no NaN and no infinity.
* A complex number (a spectral parameter ``z``) is a ``numbers.Complex``, not a
  ``bool``; an int past float range counts as infinite.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np


def positive(x) -> bool:
    return 0.0 < x < math.inf


def nonnegative(x) -> bool:
    return 0.0 <= x < math.inf


def upper_half_plane(z) -> bool:
    return cmath.isfinite(z) and z.imag > 0


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def integer(value, error, name: str, low: int = 0) -> int:
    if is_int(value) and value >= low:
        return value
    raise error(f"{name} must be an integer >= {low}, got {value!r}")


def integer_list(value, error, name: str) -> list:
    if isinstance(value, list) and value and all(is_int(v) and v >= 1 for v in value):
        return value
    raise error(f"{name} must be a nonempty list of integers >= 1, got {value!r}")


def real(value, error, message: str, valid=math.isfinite) -> float:
    """``float(value)`` if it is a real number in the range ``valid`` (false for NaN)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past float range
            x = math.nan
        if valid(x):
            return x
    raise error(f"{message}, got {value!r}")


def tolerance(value, error=ValueError) -> float:
    """A real number >= 0, +inf included: the tolerance that accepts every residual."""
    return real(value, error, "tol must be a nonnegative real number", lambda x: x >= 0.0)


def complex_number(value, error, message: str, valid=cmath.isfinite) -> complex:
    """``complex(value)`` if it is a complex number in the region ``valid``."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            z = complex(value)
        except OverflowError:  # an int past float range
            z = complex(math.inf)
        if valid(z):
            return z
    raise error(f"{message}, got {value!r}")


def finite_array(values, error, message: str, dtype=float) -> np.ndarray:
    """``values`` as an array of ``dtype`` with every entry finite.  A part's min
    and max are NaN or infinite if an entry is: no array-sized temporary."""
    try:
        if np.asarray(values).dtype.kind in "US":  # text, which numpy would parse
            raise TypeError
        out = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # not numbers, or an int past float range
        raise error(message) from None
    parts = (out.real, out.imag) if np.iscomplexobj(out) else (out,)
    if out.size and not all(math.isfinite(p.min()) and math.isfinite(p.max()) for p in parts):
        raise error(message)
    return out
