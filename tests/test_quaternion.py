import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatspectra.quaternion import (I1, I2, I3, UNIT, Quaternion, ShapeError,
                                    conjugate, from_complex, multiply, norm,
                                    to_complex)

EPS = np.finfo(float).eps

# coefficients either zero or of normal-range magnitude (the floating-point
# contracts are stated for norms in [1e-6, 1e6])
coeff = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False, allow_subnormal=False).filter(
                      lambda v: v == 0.0 or abs(v) >= 1e-6)
quaternions = st.builds(Quaternion, coeff, coeff, coeff, coeff)


def test_basis_multiplication_table_exact():
    minus_unit = Quaternion(-1, 0, 0, 0)
    assert multiply(I1, I1) == minus_unit
    assert multiply(I2, I2) == minus_unit
    assert multiply(I3, I3) == minus_unit
    assert multiply(I1, I2) == I3
    assert multiply(I2, I1) == -I3
    assert multiply(I2, I3) == I1
    assert multiply(I3, I2) == -I1
    assert multiply(I3, I1) == I2
    assert multiply(I1, I3) == -I2


def test_matrix_basis_counterparts_exact():
    e = np.eye(2)
    i_mat = to_complex(I1)
    j_mat = to_complex(I2)
    k_mat = to_complex(I3)
    assert np.array_equal(i_mat, np.array([[1j, 0], [0, -1j]]))
    assert np.array_equal(j_mat, np.array([[0, 1], [-1, 0]]))
    assert np.array_equal(k_mat, np.array([[0, 1j], [1j, 0]]))
    for m in (i_mat, j_mat, k_mat):
        assert np.array_equal(m @ m, -e)
    assert np.array_equal(i_mat @ j_mat, k_mat)
    assert np.array_equal(j_mat @ k_mat, i_mat)
    assert np.array_equal(k_mat @ i_mat, j_mat)
    assert np.array_equal(j_mat @ i_mat, -k_mat)


def test_unit_is_identity():
    x = Quaternion(3.5, -2.0, 0.25, 7.0)
    assert multiply(UNIT, x) == x
    assert multiply(x, UNIT) == x


def test_times_own_conjugate_is_squared_norm():
    x = Quaternion(1, 1, 1, 1)
    assert multiply(x, conjugate(x)) == Quaternion(4, 0, 0, 0)


def test_noncommutativity_witness():
    assert multiply(I1, I2) == -multiply(I2, I1)


def test_conjugate_examples():
    assert conjugate(Quaternion(1, 2, 3, 4)) == Quaternion(1, -2, -3, -4)
    assert conjugate(Quaternion(5, 0, 0, 0)) == Quaternion(5, 0, 0, 0)
    assert conjugate(multiply(I1, I2)) == -I3
    assert conjugate(multiply(I1, I2)) == multiply(conjugate(I2), conjugate(I1))


@given(quaternions, quaternions)
def test_conjugate_antihomomorphism(x, y):
    left = conjugate(multiply(x, y)).coeffs()
    right = multiply(conjugate(y), conjugate(x)).coeffs()
    assert np.allclose(left, right, rtol=0, atol=8 * EPS * norm(x) * norm(y))


@given(quaternions)
def test_conjugate_involution(x):
    assert conjugate(conjugate(x)) == x


def test_norm_examples():
    assert norm(Quaternion(1, 1, 1, 1)) == 2.0
    assert norm(Quaternion(0, 0, 0, 0)) == 0.0
    # multiplicativity checked against the explicit product
    prod = multiply(Quaternion(1, 2, 3, 4), Quaternion(4, 3, 2, 1))
    assert norm(prod) == pytest.approx(30.0, rel=1e-12)


@given(quaternions, quaternions)
def test_norm_multiplicative(x, y):
    assert norm(multiply(x, y)) == pytest.approx(norm(x) * norm(y),
                                                 rel=1e-12, abs=1e-12)


def test_to_complex_examples():
    assert np.array_equal(to_complex(I1), np.array([[1j, 0], [0, -1j]]))
    assert np.array_equal(to_complex(UNIT), np.eye(2))


@given(quaternions, quaternions)
@settings(max_examples=200)
def test_to_complex_is_ring_homomorphism(x, y):
    lhs = to_complex(x) @ to_complex(y)
    rhs = to_complex(multiply(x, y))
    assert np.max(np.abs(lhs - rhs)) <= 4 * EPS * norm(x) * norm(y)


@given(quaternions)
def test_determinant_is_squared_norm(x):
    det = np.linalg.det(to_complex(x))
    n2 = norm(x) ** 2
    assert abs(det.imag) <= 1e-12 * max(n2, 1.0)
    assert det.real == pytest.approx(n2, rel=1e-12, abs=1e-12)


def test_determinant_norm_identity_across_magnitudes():
    base = Quaternion(0.5, -0.5, 0.5, 0.5)  # unit norm
    for mag in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        x = mag * base
        det = np.linalg.det(to_complex(x)).real
        assert det == pytest.approx(norm(x) ** 2, rel=1e-12)


def test_from_complex_examples():
    assert from_complex(np.array([[1j, 0], [0, -1j]])) == I1
    assert from_complex(np.eye(2)) == UNIT
    with pytest.raises(ShapeError):
        from_complex(np.array([[1, 1], [1, 1]]))
    with pytest.raises(ShapeError):
        from_complex(np.eye(3))


@given(quaternions)
def test_from_complex_roundtrip_exact(x):
    assert from_complex(to_complex(x)) == x


def test_from_complex_tolerance_is_configurable():
    m = to_complex(Quaternion(1, 2, 3, 4)).astype(complex)
    m[0, 1] += 1e-7
    with pytest.raises(ShapeError):
        from_complex(m, tol=1e-9)
    recovered = from_complex(m, tol=1e-6)
    assert recovered.a == 1.0


def test_scalar_and_additive_operators():
    x = Quaternion(1, -2, 3, -4)
    assert 2 * x == Quaternion(2, -4, 6, -8)
    assert x - x == Quaternion(0, 0, 0, 0)
    assert x + (-x) == Quaternion(0, 0, 0, 0)
    assert (x * 0.5).coeffs() == pytest.approx([0.5, -1, 1.5, -2])


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


@given(quaternions, non_finite, st.integers(0, 3), st.data())
@settings(max_examples=60)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quaternion_rejects_non_finite_input(x, bad, slot, data):
    coeffs = list(x.coeffs())
    coeffs[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        Quaternion(*coeffs)
    with pytest.raises(ValueError, match="finite"):
        x * bad
    with pytest.raises(ValueError, match="finite"):
        bad * x
    # a product that overflows is not a quaternion either
    huge = Quaternion(*[1e300] * 4)
    with pytest.raises(ValueError, match="finite"):
        multiply(huge, huge)
    m = to_complex(x).astype(complex)
    m.flat[slot] = data.draw(st.sampled_from([bad, complex(0.0, bad)]), label="entry")
    for tol in (1e-9, np.inf):
        with pytest.raises(ValueError):
            from_complex(m, tol)
