import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatspectra.ensemble import sample_gse
from quatspectra.spectra import embed
from quatspectra.structure import (BlockMatrix, DecompositionError,
                                   SingularError, classify, d_partner,
                                   d_related, is_type_t, make_type2,
                                   quaternion_parts, schur_block_inverse,
                                   u_partner, u_related, verify_type2_inverse)

from oracles import type2_by_loop

complex_entry = st.builds(complex,
                          st.floats(-10, 10, allow_nan=False),
                          st.floats(-10, 10, allow_nan=False))
blocks_2x2 = st.builds(lambda a, b, c, d: np.array([[a, b], [c, d]]),
                       complex_entry, complex_entry, complex_entry, complex_entry)


def random_type2(n, seed, shift=1.0):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(n) + 1j * (rng.standard_normal(n) + shift)
    coeffs = rng.standard_normal((n, n, 4)) + 1j * rng.standard_normal((n, n, 4))
    return make_type2(n, t, coeffs)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_is_type_t():
    t = 3 + 4j
    assert is_type_t(t * np.eye(2), tol=0.0)
    assert not is_type_t(np.diag([1.0, 2.0]), tol=1e-12)
    for tol in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tol"):
            is_type_t(np.eye(2), tol=tol)
    with pytest.raises(DecompositionError):
        is_type_t(np.eye(3), tol=0.0)


def test_resolvent_diagonal_blocks_are_type_t():
    w = sample_gse(6, seed=9)
    A = embed(w).values
    R = np.linalg.inv(A - 1j * np.eye(12))
    for j in range(6):
        assert is_type_t(R[2 * j:2 * j + 2, 2 * j:2 * j + 2], tol=1e-8)


def test_d_related_examples():
    e, g, h, f = 1.0, 2.0, 3.0, 4.0
    p = np.array([[e, g], [h, f]])
    q = np.array([[f, -g], [-h, e]])
    assert d_related(p, q, tol=0.0)
    t = 2 - 1j
    assert d_related(t * np.eye(2), t * np.eye(2), tol=0.0)
    assert not d_related(np.eye(2), 2 * np.eye(2), tol=1e-12)
    with pytest.raises(ValueError, match="tol"):
        d_related(np.eye(2), np.eye(2), tol=np.nan)


@given(blocks_2x2)
def test_d_relation_is_symmetric(p):
    q = d_partner(p)
    assert d_related(p, q, tol=1e-12)
    assert d_related(q, p, tol=1e-12)


def test_u_related_zero_blocks():
    z = np.zeros((2, 2), dtype=complex)
    assert u_related(z, z, tol=0.0)


def test_u_related_on_constructed_type2_pair():
    m = random_type2(4, seed=3)
    assert u_related(m.block(1, 2), m.block(2, 1), tol=1e-12)
    assert u_related(m.block(3, 4), m.block(4, 3), tol=1e-12)


def test_u_related_rejects_bad_input():
    with pytest.raises(DecompositionError):
        u_related(np.full((2, 2), np.nan), np.zeros((2, 2)), tol=1.0)
    with pytest.raises(DecompositionError):
        u_related(np.zeros((3, 3)), np.zeros((2, 2)), tol=1.0)
    with pytest.raises(ValueError, match="tol"):
        u_related(np.eye(2), np.eye(2), tol=np.nan)


@given(blocks_2x2)
def test_quaternion_parts_reconstruct(p):
    B, C = quaternion_parts(p)
    assert np.max(np.abs(B + 1j * C - p)) <= 1e-12 * max(1.0, np.abs(p).max())
    # quaternion shape of both parts
    for M in (B, C):
        assert M[1, 1] == M[0, 0].conjugate()
        assert M[1, 0] == -M[0, 1].conjugate()


@given(blocks_2x2)
@settings(max_examples=200)
def test_u_and_d_mirrors_coincide(p):
    # The two off-block symmetries are two parametrizations of the same
    # involution; keeping both computations lets them cross-check each other.
    assert np.max(np.abs(u_partner(p) - d_partner(p))) \
        <= 1e-12 * max(1.0, np.abs(p).max())


def test_mirrors_of_a_stack_are_blockwise():
    rng = np.random.default_rng(21)
    stack = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    for mirror in (d_partner, u_partner):
        out = mirror(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(3, 4):
            assert np.array_equal(out[idx], mirror(stack[idx]))
    B, C = quaternion_parts(stack)
    assert np.array_equal(B[1, 2], quaternion_parts(stack[1, 2])[0])
    assert np.array_equal(C[1, 2], quaternion_parts(stack[1, 2])[1])


def test_make_type2_matches_blockwise_loop():
    rng = np.random.default_rng(22)
    for n in range(1, 9):
        t = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coeffs = rng.standard_normal((n, n, 4)) + 1j * rng.standard_normal((n, n, 4))
        got = make_type2(n, t, coeffs).values
        want = type2_by_loop(n, t, coeffs)
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.abs(want).max()


@given(blocks_2x2)
def test_u_relation_is_symmetric(p):
    q = u_partner(p)
    assert u_related(p, q, tol=1e-10 * max(1.0, np.abs(p).max()))
    assert u_related(q, p, tol=1e-10 * max(1.0, np.abs(p).max()))


def test_product_closure_is_type2():
    # Row of blocks A_j + B_j i against the column of A_j^* + B_j^* i:
    # the product must carry the Type-II structure.
    rng = np.random.default_rng(17)
    m = 6

    def qpat(x, y):
        return np.array([[x, y], [-np.conj(y), np.conj(x)]])

    rows, cols = [], []
    for _ in range(m):
        A = qpat(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        B = qpat(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        rows.append(A + 1j * B)
        cols.append(A.conj().T + 1j * B.conj().T)
    product = np.vstack(cols) @ np.hstack(rows)
    report = classify(product, tol=1e-10)
    assert report.passes("TypeII")
    # diagonal blocks collapse to scalars
    for j in range(1, m + 1):
        assert is_type_t(BlockMatrix(product).block(j, j),
                         tol=1e-10 * np.abs(product).max())
    # off-diagonal pairs are u-related
    bm = BlockMatrix(product)
    assert u_related(bm.block(1, 2), bm.block(2, 1),
                     tol=1e-10 * np.abs(product).max())


# ---------------------------------------------------------------------------
# block matrix mechanics
# ---------------------------------------------------------------------------

def test_block_accessor_is_one_based():
    blocks = np.arange(16, dtype=float).reshape(2, 2, 2, 2)
    m = BlockMatrix.from_blocks(blocks)
    assert m.n == 2
    assert np.array_equal(m.block(1, 1), blocks[0, 0])
    assert np.array_equal(m.block(2, 1), blocks[1, 0])
    assert np.array_equal(m.blocks, blocks)
    with pytest.raises(IndexError):
        m.block(0, 1)
    with pytest.raises(IndexError):
        m.block(1, 3)
    with pytest.raises(ValueError):
        BlockMatrix(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_identity_reports_type2_with_all_passing():
    report = classify(BlockMatrix.identity(5), tol=1e-12)
    assert report.classification == "TypeII"
    assert report.passing == ("TypeII", "TypeI", "TypeT-diagonal-only")
    assert report.max_residual == 0.0


def test_classify_shifted_embedding_is_type2():
    w = sample_gse(8, seed=4)
    A = embed(w).values - 1j * np.eye(16)
    report = classify(A, tol=1e-12)
    assert report.classification == "TypeII"
    assert report.max_residual <= 1e-14


def test_classify_resolvent_passes_type1():
    w = sample_gse(8, seed=5)
    A = embed(w).values
    R = np.linalg.inv(A - 1j * np.eye(16))
    report = classify(R, tol=1e-8)
    assert report.passes("TypeI")
    assert report.residuals["TypeI"] <= 1e-10


def test_classify_perturbed_off_block_witness():
    tol = 1e-9
    A = np.eye(8, dtype=complex)
    A[2, 5] += 10 * tol  # inside block (2, 3)
    report = classify(A, tol=tol)
    assert "TypeII" not in report.passing
    assert "TypeI" not in report.passing
    assert report.classification == "TypeT-diagonal-only"
    j, k, res = report.witness
    assert {j, k} == {2, 3}
    assert res > tol


def test_classify_perturbed_diagonal_block_is_none():
    tol = 1e-9
    A = np.eye(6, dtype=complex)
    A[0, 1] += 10 * tol  # inside block (1, 1)
    report = classify(A, tol=tol)
    assert report.classification == "None"
    assert report.max_residual > tol
    assert report.witness[:2] == (1, 1)


def test_classify_rejects_non_finite():
    A = np.eye(6, dtype=complex)
    A[0, 0] = np.nan
    with pytest.raises(DecompositionError):
        classify(A, tol=1e-8)
    for tol in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tol"):
            classify(np.eye(4), tol)


def test_classify_none_iff_residual_exceeds_tol():
    m = random_type2(3, seed=8)
    inv = np.linalg.inv(m.values)
    loose = classify(inv, tol=1e-6)
    tight = classify(inv, tol=0.0)
    assert loose.classification != "None" and loose.max_residual <= 1e-6
    assert tight.classification == "None" and tight.max_residual > 0.0


# ---------------------------------------------------------------------------
# Schur-complement inversion
# ---------------------------------------------------------------------------

def test_schur_inverse_of_block_diagonal():
    m = np.diag([2.0, 2.0, 3.0, 3.0]).astype(complex)
    inv = schur_block_inverse(m, split=1)
    assert np.allclose(inv.values, np.diag([0.5, 0.5, 1 / 3, 1 / 3]),
                       rtol=0, atol=1e-15)


def test_schur_inverse_matches_dense_oracle():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) \
        + 4j * np.eye(8)
    dense = np.linalg.inv(m)
    inv = schur_block_inverse(m, split=2)
    assert np.max(np.abs(inv.values - dense)) <= 1e-10 * np.abs(dense).max()
    assert np.max(np.abs(inv.values @ m - np.eye(8))) <= 1e-10


def test_schur_inverse_well_conditioned_sweep():
    rng = np.random.default_rng(22)
    for n, split in ((2, 1), (3, 1), (5, 2), (6, 4)):
        m = rng.standard_normal((2 * n, 2 * n)) \
            + 1j * rng.standard_normal((2 * n, 2 * n)) + 3j * np.eye(2 * n)
        cond = np.linalg.cond(m)
        assert cond <= 1e6
        dense = np.linalg.inv(m)
        inv = schur_block_inverse(m, split=split)
        assert np.max(np.abs(inv.values - dense)) <= 1e-9 * np.abs(dense).max()


def test_schur_inverse_singular_leading_block():
    m = np.zeros((4, 4), dtype=complex)
    m[2:, 2:] = np.eye(2)
    m[:2, 2:] = np.eye(2)
    m[2:, :2] = np.eye(2)
    with pytest.raises(SingularError):
        schur_block_inverse(m, split=1)


def test_schur_inverse_singular_schur_complement():
    # S22.1 = S22 - S21 S11^-1 S12 = 1 - 1 = 0
    m = np.array([[1, 1], [1, 1]], dtype=complex)
    m2 = np.kron(m, np.eye(2))
    with pytest.raises(SingularError):
        schur_block_inverse(m2, split=1)


def test_schur_inverse_split_range():
    with pytest.raises(ValueError):
        schur_block_inverse(np.eye(4, dtype=complex), split=2)


# ---------------------------------------------------------------------------
# randomized inversion lemma check
# ---------------------------------------------------------------------------

def test_inversion_check_block_dim_one():
    report = verify_type2_inverse(1, trials=10, seed=0)
    assert report.passes == 10
    assert report.max_residual <= 1e-12


def test_inversion_check_moderate():
    report = verify_type2_inverse(4, trials=50, seed=123, tol=1e-9)
    assert report.all_passed()
    assert report.max_residual <= 1e-9
    assert report.resamples == 0


def test_inversion_check_is_deterministic():
    a = verify_type2_inverse(3, trials=25, seed=7)
    b = verify_type2_inverse(3, trials=25, seed=7)
    assert a == b


def test_inversion_report_json_schema():
    report = verify_type2_inverse(2, trials=5, seed=1)
    payload = report.to_json()
    assert set(payload) == {"n", "trials", "passes", "resamples",
                            "max_residual", "worst_witness"}
    assert payload["trials"] == 5


def test_t1_zero_continuity_case():
    rng = np.random.default_rng(31)
    n = 8
    t = rng.standard_normal(n) + 1j * (rng.standard_normal(n) + 1.0)
    t[0] = 0.0
    coeffs = rng.standard_normal((n, n, 4)) + 1j * rng.standard_normal((n, n, 4))
    m = make_type2(n, t, coeffs)
    inv = np.linalg.inv(m.values)
    assert classify(inv, tol=1e-9).passes("TypeI")


def test_inversion_check_rejects_bad_args():
    with pytest.raises(ValueError):
        verify_type2_inverse(0, trials=1, seed=0)
    with pytest.raises(ValueError):
        verify_type2_inverse(1, trials=0, seed=0)
    for tol in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tol"):
            verify_type2_inverse(1, trials=1, seed=0, tol=tol)
