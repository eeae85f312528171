"""Quaternion arithmetic and the embedding into 2x2 complex matrices.

A quaternion ``x = a + b*i1 + c*i2 + d*i3`` (real coefficients, basis units
squaring to -1 and anticommuting pairwise: ``i1*i2 = i3``, ``i2*i3 = i1``,
``i3*i1 = i2``) is identified with the complex matrix

    [[lam,        om      ],          lam = a + b*1j
     [-conj(om),  conj(lam)]],        om  = c + d*1j

and this identification is a ring isomorphism:
``to_complex(x * y) == to_complex(x) @ to_complex(y)`` and
``det(to_complex(x)) == norm(x)**2``.

Coefficients are stored as finite 64-bit floats.  Values are immutable and safe to
share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._args import finite_array, real, tolerance

__all__ = [
    "Quaternion",
    "ShapeError",
    "UNIT",
    "I1",
    "I2",
    "I3",
    "multiply",
    "conjugate",
    "norm",
    "to_complex",
    "from_complex",
]


class ShapeError(ValueError):
    """A 2x2 complex matrix does not have the quaternion block shape."""


@dataclass(frozen=True)
class Quaternion:
    """Quaternion with real coefficients ``(a, b, c, d)`` of ``(1, i1, i2, i3)``."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in "abcd":
            value = real(getattr(self, name), ValueError,
                         f"quaternion coefficient {name} must be a finite real number")
            object.__setattr__(self, name, value)

    def coeffs(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return multiply(self, other)
        s = real(other, ValueError, "a quaternion's scalar factor must be a finite real number")
        return Quaternion(self.a * s, self.b * s, self.c * s, self.d * s)

    __rmul__ = __mul__  # a real scalar commutes with every quaternion


UNIT = Quaternion(1.0, 0.0, 0.0, 0.0)
I1 = Quaternion(0.0, 1.0, 0.0, 0.0)
I2 = Quaternion(0.0, 0.0, 1.0, 0.0)
I3 = Quaternion(0.0, 0.0, 0.0, 1.0)


def multiply(x: Quaternion, y: Quaternion) -> Quaternion:
    """Quaternion product ``x * y`` (associative, non-commutative).

    The coefficient formulas follow from the basis table ``i1*i2 = i3``,
    ``i2*i3 = i1``, ``i3*i1 = i2`` together with ``i_k**2 = -1``.
    """
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    return Quaternion(
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def conjugate(x: Quaternion) -> Quaternion:
    """Quaternion conjugate ``(a, -b, -c, -d)``.

    Involution with ``conjugate(x*y) == conjugate(y) * conjugate(x)``, and
    ``x * conjugate(x)`` is the real quaternion ``norm(x)**2``.
    """
    return Quaternion(x.a, -x.b, -x.c, -x.d)


def norm(x: Quaternion) -> float:
    """Euclidean norm ``sqrt(a^2+b^2+c^2+d^2)``; multiplicative over products."""
    try:
        r = float(np.sqrt(x.a**2 + x.b**2 + x.c**2 + x.d**2))
    except OverflowError:  # a square beyond the float range
        r = math.inf
    if not 0.0 < r < math.inf and (x.a or x.b or x.c or x.d):
        return math.hypot(x.a, x.b, x.c, x.d)  # the squares over- or underflowed
    return r


def to_complex(x: Quaternion) -> np.ndarray:
    """Embed a quaternion as its 2x2 complex matrix ``[[lam, om], [-conj(om), conj(lam)]]``."""
    lam = complex(x.a, x.b)
    om = complex(x.c, x.d)
    return np.array([[lam, om], [-om.conjugate(), lam.conjugate()]])


def from_complex(m: np.ndarray, tol: float = 1e-9) -> Quaternion:
    """Invert :func:`to_complex`.

    Parameters
    ----------
    m : (2, 2) complex array
    tol : float
        Absolute bound on the shape residual
        ``max(|m00 - conj(m11)|, |m01 + conj(m10)|)``.  The default leaves
        room for blocks that carry the quaternion shape only up to linear
        solver accuracy.

    Raises
    ------
    ValueError
        If ``tol`` is not a real number >= 0.
    ShapeError
        If an entry is not finite or the residual exceeds ``tol``.
    """
    tol = tolerance(tol)
    m = finite_array(m, ShapeError, "matrix entries must be finite", complex)
    if m.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 matrix, got shape {m.shape}")
    residual = float(max(abs(m[0, 0] - m[1, 1].conjugate()),
                         abs(m[0, 1] + m[1, 0].conjugate())))
    if not residual <= tol:
        raise ShapeError(
            f"quaternion shape residual {residual:.3e} exceeds tolerance {tol!r}")
    return Quaternion(m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag)
