import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quatspectra import structure
from quatspectra.ensemble import sample_gse
from quatspectra.spectra import embed
from quatspectra.structure import (BlockMatrix, DecompositionError,
                                   SingularError, classify, d_partner,
                                   d_related, is_type_t, make_type2,
                                   quaternion_parts, schur_block_inverse,
                                   u_partner, u_related, verify_type2_inverse)

from memtrace import traced_peak
from oracles import (exact_inverse, exact_matmul, gaussian_rationals, invert_by_svd_test,
                     j_transpose, type1_deviations_by_blocks, type2_by_loop,
                     type2_inverse_by_loop, u_mirror_by_split)

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


def test_u_functions_are_the_d_functions():
    assert u_partner is d_partner
    assert u_related is d_related


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, -np.inf)])
def test_d_mirror_rejects_a_non_finite_block(bad):
    p = np.eye(2, dtype=complex)
    p[0, 1] = bad
    with pytest.raises(DecompositionError, match="finite"):
        d_partner(p)
    for args in ((p, np.eye(2)), (np.eye(2), p)):
        with pytest.raises(DecompositionError, match="finite"):
            d_related(*args, tol=1.0)


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
    # The u-mirror recombined from the split is the d-mirror, so the package
    # computes both as one; the split-based form is the independent check.
    want = u_mirror_by_split(p)
    for mirror in (u_partner, d_partner):
        assert np.max(np.abs(mirror(p) - want)) <= 1e-12 * max(1.0, np.abs(p).max())


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


@pytest.mark.parametrize("j, k", [(0, 1), (1, 0), (-1, 1), (1, -1), (4, 1), (1, 4),
                                  (True, 1), (1, True), (1.5, 1), (1, 1.5)])
def test_block_rejects_an_index_outside_one_to_n(j, k):
    # 0 and -1 would slice from the wrong row, True would be read as 1, and
    # 1.5 would fail in the slice with an untyped TypeError.
    m = BlockMatrix(np.arange(36, dtype=complex).reshape(6, 6))
    with pytest.raises(IndexError, match="out of range for n=3"):
        m.block(j, k)
    assert np.array_equal(m.block(3, 3), m.values[4:, 4:])


@pytest.mark.parametrize("n", [True, -1, 2.0])
def test_identity_rejects_a_dimension_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="n must be an integer >= 0"):
        BlockMatrix.identity(n)
    assert BlockMatrix.identity(0).n == 0


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
    for kwargs in ({"n": 0}, {"n": 2.5}, {"n": True}, {"n": "2"},
                   {"trials": 0}, {"trials": 2.5}, {"trials": False},
                   {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": None}):
        args = {"n": 1, "trials": 1, "seed": 0, **kwargs}
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            verify_type2_inverse(**args)
    for tol in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tol"):
            verify_type2_inverse(1, trials=1, seed=0, tol=tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", range(1, 9))
def test_inversion_check_matches_loop_oracle(n):
    # Blocks of 64 trials: one partial block, one exactly full, one spilling
    # over by a trial, and several.  At n = 1 the t_1 = 0 copy is the zero
    # matrix, which the condition test must reject without dividing 0/0.
    for seed in (3, 40 + n):
        for tol in (1e-8, 0.0):
            for trials in (1, 63, 64, 65, 250):
                assert verify_type2_inverse(n, trials, seed, tol).to_json() == \
                    type2_inverse_by_loop(n, trials, seed, tol).to_json()


@pytest.mark.parametrize("n, redraws", [(2, 1), (3, 4), (4, 9)])
def test_inversion_check_redraws_like_the_loop(monkeypatch, n, redraws):
    # A low condition limit makes some draws too ill-conditioned, so trials
    # redraw from their own streams, some more than once.
    monkeypatch.setattr(structure, "_COND_LIMIT", 30)
    report = verify_type2_inverse(n, trials=130, seed=5 + n)
    assert report.resamples == redraws
    assert report.to_json() == type2_inverse_by_loop(n, 130, 5 + n).to_json()


@pytest.mark.parametrize("block", [1, 7])
def test_inversion_check_is_independent_of_block_size(monkeypatch, block):
    monkeypatch.setattr(structure, "_COND_LIMIT", 30)  # so that some trials redraw
    cases = [(4, 30, 9, 1e-8), (3, 20, 11, 1e-8), (1, 9, 2, 0.0)]
    want = [verify_type2_inverse(*case).to_json() for case in cases]
    assert sum(report["resamples"] for report in want) > 0
    monkeypatch.setattr(structure, "_BLOCK_TRIALS", block)
    assert [verify_type2_inverse(*case).to_json() for case in cases] == want


@pytest.mark.parametrize("n, trials, cond_limit", [(1, 9, 1e7), (3, 70, 30), (8, 65, 1e7)])
def test_inversion_check_draws_each_trial_in_one_call(monkeypatch, n, trials, cond_limit):
    # One generator per call, on which each trial's stream is set in turn.
    # Every draw, a redraw included, is one standard_normal call on it; no
    # other method of the generator is used.
    monkeypatch.setattr(structure, "_COND_LIMIT", cond_limit)
    want = verify_type2_inverse(n, trials, seed=2).to_json()
    calls, generators = [], []
    make_generator = np.random.Generator

    class CountingGenerator:
        def __init__(self, bit_generator):
            generators.append(1)
            self._rng = make_generator(bit_generator)

        def standard_normal(self, *args, **kwargs):
            calls.append(1)
            return self._rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    report = verify_type2_inverse(n, trials, seed=2)
    assert report.to_json() == want
    assert len(generators) == 1
    assert len(calls) == trials + report.resamples
    assert cond_limit > 100 or report.resamples > 0


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 7, 10**30])
def test_trial_states_are_the_seed_sequence_states(seed):
    # A seed or trial index of 2^32 or more has more than one 32-bit word.
    # A seed below 2^64 and any uint64 trial fill at most the pool of 4 words,
    # and take the vectorized pass; 2^64 - 1 and 2^64 are the two sides of
    # that branch, and from 2^64 (3 and more words) numpy seeds each trial.
    trials = [0, 1, 63, 64, 65, 2**32 - 1, 2**32, 2**40, 2**64 - 1]
    states = structure._pcg64_states(seed, np.array(trials, dtype=np.uint64))
    assert states == [np.random.PCG64(np.random.SeedSequence((seed, t))).state
                      for t in trials]


@pytest.mark.parametrize("seed", [2**32, 2**64 + 7, 10**30])
def test_inversion_check_matches_loop_oracle_at_large_seeds(monkeypatch, seed):
    monkeypatch.setattr(structure, "_COND_LIMIT", 30)  # so that some trials redraw
    report = verify_type2_inverse(4, 70, seed)
    assert report.resamples > 0
    assert report.to_json() == type2_inverse_by_loop(4, 70, seed).to_json()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type2_inverse_is_exactly_type1_over_gaussian_rationals(n):
    # The lemma with no rounding: a Type-II matrix A is A = E A^T E^-1, so an
    # invertible one has A^-1 = E (A^-1)^T E^-1, which is Type-I.  Entries are
    # Gaussian integers in [-3, 3]; the inverse is exact, by Gauss-Jordan.
    rng = np.random.default_rng(n)
    identity = gaussian_rationals(np.eye(2 * n))
    invertible = 0
    for _ in range(20):
        t = rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)
        coeffs = rng.integers(-3, 4, (n, n, 4)) + 1j * rng.integers(-3, 4, (n, n, 4))
        values = make_type2(n, t, coeffs).values
        a = gaussian_rationals(values)
        assert j_transpose(a) == a
        inverse = exact_inverse(a)
        if inverse is None:
            assert np.linalg.matrix_rank(values) < 2 * n
            continue
        invertible += 1
        assert exact_matmul(a, inverse) == identity
        assert j_transpose(inverse) == inverse
        rounded = np.array([[complex(float(re), float(im)) for re, im in row]
                            for row in inverse])
        report = classify(rounded, 1e-8)
        assert report.passes("TypeI") and report.residuals["TypeI"] == 0.0
        assert np.allclose(np.linalg.inv(values), rounded, rtol=0, atol=1e-10)
        if n > 1 and np.linalg.matrix_rank(values[:2, :2]) == 2:
            assert np.allclose(schur_block_inverse(values, 1).values, rounded, rtol=0, atol=1e-10)
    assert invertible >= 15


@pytest.mark.parametrize("n", range(1, 9))
def test_one_normal_call_is_the_four_call_draw(n):
    # A generator's normals come in sequence, so one call of the summed
    # length is the draw the oracle makes in four, and builds its matrix.
    seed = np.random.SeedSequence((17, n))
    normals = np.random.default_rng(seed).standard_normal(2 * n + 8 * n * n)
    rng = np.random.default_rng(seed)
    parts = [rng.standard_normal(n), rng.standard_normal(n),
             rng.standard_normal((n, n, 4)), rng.standard_normal((n, n, 4))]
    assert np.array_equal(normals, np.concatenate([p.ravel() for p in parts]))
    t = parts[0] + 1j * (parts[1] + 1.0)
    coeffs = parts[2] + 1j * parts[3]
    built = structure._type2_from_normals(normals[None], n)
    assert built.shape == (1, 2 * n, 2 * n)
    assert np.array_equal(built[0], make_type2(n, t, coeffs).values)


@pytest.mark.parametrize("n", range(1, 7))
def test_type1_deviations_match_the_block_loop(n):
    # Absolute deviations, divided by the scale afterwards, give the block
    # loop's relative ones to the bit, and so does their largest value.
    rng = np.random.default_rng(30 + n)
    noise = rng.standard_normal((2, 2 * n, 2 * n)) + 1j * rng.standard_normal((2, 2 * n, 2 * n))
    inverse = np.linalg.inv(random_type2(n, seed=n).values)
    stack = np.stack([inverse, inverse + 1e-9 * noise[0], noise[1], np.zeros_like(inverse)])
    scale, diag_dev, d_dev = structure._type1_deviations(stack.reshape(2, 2, 2 * n, 2 * n))
    scale, diag_dev, d_dev = scale.ravel(), diag_dev.reshape(4, n), d_dev.reshape(4, n, n)
    for i, values in enumerate(stack):
        want_scale, want_diag, want_d = type1_deviations_by_blocks(values)
        denom = scale[i] if scale[i] > 0 else 1.0
        assert scale[i] == want_scale
        assert np.array_equal(diag_dev[i] / denom, want_diag)
        assert np.array_equal(d_dev[i] / denom, want_d)
        assert max(diag_dev[i].max(), d_dev[i].max()) / denom == \
            max(want_diag.max(), want_d.max())


def test_inversion_check_classifies_one_inverse(monkeypatch):
    calls = []

    def counting_classify(m, tol):
        calls.append(1)
        return classify(m, tol)

    monkeypatch.setattr(structure, "classify", counting_classify)
    report = verify_type2_inverse(5, trials=150, seed=3)
    assert report.worst_witness is not None
    assert len(calls) <= 1


def _with_condition(rng, m, conds):
    """Complex ``m x m`` matrices with singular values ``[c, 1, ..., 1]`` for each ``c``."""
    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        return q
    return np.array([unitary() @ np.diag([c] + [1.0] * (m - 1)) @ unitary() for c in conds])


@pytest.mark.parametrize("m", [2, 16])
def test_invert_first_matches_the_svd_test(monkeypatch, m):
    # cond_2 just under and over the limit and half the limit: at m = 2 the
    # Frobenius bound is within 1e-14 of cond_2, so the matrices under half
    # the limit pass on the bound, and the others go to the SVD test.
    limit = structure._COND_LIMIT
    conds = [c * (1 + d) for c in (limit / 2, limit) for d in (-1e-6, 1e-6)] + [3.0, 1e3]
    stack = _with_condition(np.random.default_rng(m), m, conds)
    svd_tested = []
    svd_test = structure._well_conditioned

    def counting(s):
        svd_tested.append(len(s))
        return svd_test(s)

    monkeypatch.setattr(structure, "_well_conditioned", counting)
    inverse, well = structure._invert_well_conditioned(stack)
    monkeypatch.setattr(structure, "_well_conditioned", svd_test)
    want_well, want_inverses = invert_by_svd_test(stack)
    assert well.tolist() == want_well.tolist() == [True, True, True, False, True, True]
    for got, want in zip(inverse, want_inverses):
        if want is not None:
            assert got.tobytes() == want.tobytes()
    if m == 2:
        assert svd_tested == [3]


def test_invert_first_falls_back_on_an_exactly_singular_matrix():
    rng = np.random.default_rng(1)
    stack = _with_condition(rng, 4, [2.0, 1e8, 10.0])
    stack[1, 2] = 0.0  # a zero row: inv raises on the whole stack
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(stack)
    inverse, well = structure._invert_well_conditioned(stack)
    want_well, want_inverses = invert_by_svd_test(stack)
    assert well.tolist() == want_well.tolist() == [True, False, True]
    assert inverse[0].tobytes() == want_inverses[0].tobytes()
    assert inverse[2].tobytes() == want_inverses[2].tobytes()
    assert not inverse[1].any()


def test_inversion_check_peak_memory():
    # 64 trials at n = 8, 0.26 MB per stack of 64 matrices.  Before the
    # inverses were computed first the peak was 2,714,209 bytes, in the
    # Type-I deviations of the inverses with the draws, their t_1 = 0 copies
    # and one more inverse stack held; now about 2.21 MB, when a block is built.
    verify_type2_inverse(8, 64, seed=0)
    assert traced_peak(lambda: verify_type2_inverse(8, 64, seed=0)) <= 2_714_209


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

def _raises_value_error(fn, *args):
    """``fn(*args)`` raises ``ValueError`` (or a subclass), not ``LinAlgError``."""
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert not isinstance(info.value, np.linalg.LinAlgError), info.value


def test_schur_inverse_rejects_non_finite():
    m = random_type2(3, seed=4).values.copy()
    for bad in (np.nan, np.inf):
        m[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            schur_block_inverse(m, split=1)


def test_make_type2_rejects_non_finite_and_misshapen_input():
    n = 3
    t = np.ones(n, dtype=complex)
    coeffs = np.zeros((n, n, 4), dtype=complex)
    for bad in (np.nan, np.inf):
        t_bad = t.copy()
        t_bad[1] = bad
        with pytest.raises(DecompositionError):
            make_type2(n, t_bad, coeffs)
    for t_shape, c_shape in (((n + 1,), (n, n, 4)), ((n,), (n, n, 2)),
                             ((n,), (n - 1, n - 1, 4))):
        with pytest.raises(ValueError, match=re.escape(f"{t_shape} and {c_shape}")):
            make_type2(n, np.ones(t_shape), np.zeros(c_shape))


def _with_non_finite(values, mask, fill):
    out = np.array(values, dtype=complex)
    out[mask] = fill
    return out


def _non_finite_case(shape):
    """A finite complex array of ``shape`` with NaN or inf at random positions."""
    finite = st.floats(-10, 10, allow_nan=False)
    return st.builds(
        _with_non_finite,
        hnp.arrays(np.float64, shape, elements=finite),
        hnp.arrays(np.bool_, shape).filter(np.any),
        st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf),
                         complex(np.nan, 1.0)]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_structure_rejects_non_finite_input(data):
    n = data.draw(st.integers(1, 4), label="n")
    _raises_value_error(classify, data.draw(_non_finite_case((2 * n, 2 * n))), 1e-8)
    stack = data.draw(_non_finite_case((n, 2, 2)))
    _raises_value_error(quaternion_parts, stack)
    _raises_value_error(u_partner, stack)
    finite_t = np.ones(n, dtype=complex)
    finite_coeffs = np.zeros((n, n, 4), dtype=complex)
    _raises_value_error(make_type2, n, data.draw(_non_finite_case((n,))), finite_coeffs)
    _raises_value_error(make_type2, n, finite_t, data.draw(_non_finite_case((n, n, 4))))
    m = data.draw(_non_finite_case((2 * n + 2, 2 * n + 2)))
    _raises_value_error(schur_block_inverse, m, data.draw(st.integers(1, n), label="split"))
