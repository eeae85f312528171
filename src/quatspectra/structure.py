"""Structural classes of 2n x 2n block matrices and the inversion check.

A matrix built from 2x2 blocks ``B[j,k]`` is *Type-T* on the diagonal when
every ``B[j,j]`` is a complex scalar times the identity.  Off-diagonal block
pairs can satisfy two mirror symmetries:

* the *d-relation*: ``B[k,j] == [[p22, -p12], [-p21, p11]]`` where
  ``p = B[j,k]`` (equivalently ``B[k,j] == J @ B[j,k].T @ J^-1`` with
  ``J = [[0,1],[-1,0]]``);
* the *u-relation*: writing ``B[j,k] = P + Q*1j`` with quaternion-shaped
  2x2 parts ``P, Q`` (this splitting always exists and is unique),
  ``B[k,j] == P^* + Q^* * 1j`` with ``*`` the conjugate transpose.

A matrix whose diagonal is Type-T and whose pairs are all d-related is
*Type-I*; with u-related pairs it is *Type-II*.  Worked out entrywise, the
u-mirror ``P^* + Q^* * 1j`` is the d-mirror ``[[p22, -p12], [-p21, p11]]``
(the J-transpose identity of the complex adjoint), so the two relations, and
the two classes, coincide pointwise: :func:`u_partner` and :func:`u_related`
are :func:`d_partner` and :func:`d_related`, which raise
:class:`DecompositionError` on a non-finite block.  The tests check that
d-mirror against the u-mirror built from the split.

With ``E = I_n (x) J``, block ``(j, k)`` of ``E A^T E^-1`` is the d-mirror
of block ``(k, j)`` of ``A``, and a diagonal block is its own d-mirror iff it
is a scalar matrix.  So Type-I is the single identity ``A = E A^T E^-1``, and
the paper's lemma, that an invertible Type-II matrix inverts to Type-I, takes
two lines: ``A^-1 = (E A^T E^-1)^-1 = E (A^-1)^T E^-1``.
:func:`verify_type2_inverse` checks that closure at random; what it measures
is the rounding of a floating-point inverse against its 1e-8 tolerance, not
the lemma, which the tests check exactly over the Gaussian rationals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ._args import finite_array, integer, is_int, tolerance

__all__ = [
    "BlockMatrix",
    "StructureReport",
    "InversionCheckReport",
    "SingularError",
    "DecompositionError",
    "is_type_t",
    "d_partner",
    "u_partner",
    "d_related",
    "u_related",
    "quaternion_parts",
    "classify",
    "make_type2",
    "schur_block_inverse",
    "verify_type2_inverse",
]

# Draws whose condition number exceeds this are treated as numerically
# singular and resampled: double-precision inversion error ~ eps * cond
# would otherwise swamp the 1e-8 structural tolerance.
_COND_LIMIT = 1e7

# verify_type2_inverse stacks this many trials at a time: enough to amortize
# the per-call overhead of the batched SVD and inverse on 2n <= 16 matrices,
# small enough that the stacks add no measurable peak memory.
_BLOCK_TRIALS = 64

# numpy's SeedSequence: its hash multipliers and initial constants, the
# multipliers of its mixing step, its pool of 4 words; then the multiplier of
# PCG64's 128-bit LCG.
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class SingularError(np.linalg.LinAlgError):
    """A required sub-block (or its Schur complement) is numerically singular."""


class DecompositionError(ValueError):
    """A 2x2 block cannot be split into quaternion-shaped parts."""


class BlockMatrix:
    """A 2n x 2n complex matrix addressed by its n x n grid of 2x2 blocks.

    ``block(j, k)`` uses 1-based block indices: it is the submatrix of rows
    ``2j-1..2j`` and columns ``2k-1..2k`` in 1-based numbering.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] % 2:
            raise ValueError(f"expected a square 2n x 2n array, got shape {values.shape}")
        self.values = values
        self.n = values.shape[0] // 2

    @classmethod
    def from_blocks(cls, blocks: np.ndarray) -> "BlockMatrix":
        """Assemble from an (n, n, 2, 2) array of blocks."""
        blocks = np.asarray(blocks, dtype=complex)
        n = blocks.shape[0]
        return cls(blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n))

    @classmethod
    def identity(cls, n: int) -> "BlockMatrix":
        """The 2n x 2n identity; ValueError unless ``n`` is an integer >= 0."""
        return cls(np.eye(2 * integer(n, ValueError, "n"), dtype=complex))

    @property
    def blocks(self) -> np.ndarray:
        """(n, n, 2, 2) view with ``blocks[j, k]`` the 0-based (j, k) block."""
        n = self.n
        return self.values.reshape(n, 2, n, 2).swapaxes(1, 2)

    def block(self, j: int, k: int) -> np.ndarray:
        """Block at 1-based position (j, k); IndexError unless both are integers
        in ``[1, n]``."""
        if not all(is_int(i) and 1 <= i <= self.n for i in (j, k)):
            raise IndexError(f"block index ({j!r}, {k!r}) out of range for n={self.n}")
        return self.values[2 * (j - 1):2 * j, 2 * (k - 1):2 * k]

    def __repr__(self):
        return f"BlockMatrix(n={self.n})"


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, BlockMatrix):
        return m.values
    return np.asarray(m, dtype=complex)


@dataclass
class StructureReport:
    """Outcome of :func:`classify`.

    ``classification`` is the strongest class passed under the precedence
    TypeII > TypeI > TypeT-diagonal-only, or ``"None"``.  ``passing`` lists
    every class whose residual is within tolerance.  ``max_residual`` is the
    worst structural deviation of the reported class, relative to the max
    block norm of the matrix (for ``"None"`` it is the smallest residual
    among the candidate classes, i.e. the distance to the nearest class).
    ``witness`` is the 1-based ``(j, k, residual)`` of the worst block pair.
    """

    classification: str
    passing: tuple
    max_residual: float
    witness: Optional[tuple]
    scale: float
    residuals: dict

    def passes(self, name: str) -> bool:
        return name in self.passing


def _as_blocks(p) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    if p.shape[-2:] != (2, 2):
        raise DecompositionError(f"expected a 2x2 block, got shape {p.shape}")
    return p


def _finite_blocks(p) -> np.ndarray:
    return finite_array(_as_blocks(p), DecompositionError, "block entries must be finite", complex)


def _type_t_deviation(b) -> np.ndarray:
    """``max(|b01|, |b10|, |b00 - b11|)`` of each block of a ``(..., 2, 2)`` stack."""
    b = _as_blocks(b)
    return np.maximum(np.maximum(np.abs(b[..., 0, 1]), np.abs(b[..., 1, 0])),
                      np.abs(b[..., 0, 0] - b[..., 1, 1]))


def is_type_t(b: np.ndarray, tol: float) -> bool:
    """True when the 2x2 block is a scalar multiple of the identity, within ``tol``.

    A ``(..., 2, 2)`` stack is true when every block is.
    """
    tol = tolerance(tol)
    return bool(np.all(_type_t_deviation(b) <= tol))


def _quaternion_shaped(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Blocks ``[[x, y], [-conj(y), conj(x)]]``, stacked like ``x``."""
    out = np.empty(x.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = x, y, -y.conj(), x.conj()
    return out


# The d-mirror q of a 2x2 block p, one entry a row: (r, s, negate, r', s')
# for q[r, s] = -p[r', s'] if negate else p[r', s'].
_D_MIRROR = ((0, 0, False, 1, 1), (0, 1, True, 0, 1), (1, 0, True, 1, 0), (1, 1, False, 0, 0))


def d_partner(p: np.ndarray) -> np.ndarray:
    """The d-mirror ``[[p22, -p12], [-p21, p11]]`` of a 2x2 block.

    Applies blockwise to a ``(..., 2, 2)`` stack; raises
    :class:`DecompositionError` like :func:`quaternion_parts`.
    """
    p = _finite_blocks(p)
    out = np.empty_like(p)
    for r, s, negate, r2, s2 in _D_MIRROR:
        out[..., r, s] = -p[..., r2, s2] if negate else p[..., r2, s2]
    return out


def quaternion_parts(p: np.ndarray) -> tuple:
    """Split 2x2 complex blocks as ``p = B + C*1j`` with quaternion-shaped parts.

    Quaternion-shaped means ``[[x, y], [-conj(y), conj(x)]]``.  The split is
    unique: the 8 real degrees of freedom of ``p`` match the 4+4 of ``(B, C)``.
    Applies blockwise to a ``(..., 2, 2)`` stack.

    Raises
    ------
    DecompositionError
        If ``p`` is not a finite 2x2 block or stack of them.
    """
    p = _finite_blocks(p)
    b1 = (p[..., 0, 0] + p[..., 1, 1].conj()) / 2
    c1 = (p[..., 0, 0] - p[..., 1, 1].conj()) / 2j
    b2 = (p[..., 0, 1] - p[..., 1, 0].conj()) / 2
    c2 = (p[..., 0, 1] + p[..., 1, 0].conj()) / 2j
    return _quaternion_shaped(b1, b2), _quaternion_shaped(c1, c2)


def d_related(p: np.ndarray, q: np.ndarray, tol: float) -> bool:
    """True when ``q`` is the d-mirror of ``p`` within ``tol`` entrywise; raises
    :class:`DecompositionError` like :func:`d_partner` for ``p`` or ``q``."""
    tol = tolerance(tol)
    return bool(np.max(np.abs(_finite_blocks(q) - d_partner(p))) <= tol)


# The u-mirror is the d-mirror (see the module docstring): the same functions.
u_partner, u_related = d_partner, d_related


def _type1_deviations(values: np.ndarray) -> tuple:
    """Scale and Type-I deviations of each matrix of a ``(..., 2n, 2n)`` stack.

    Returns ``(scale, diag_dev, d_dev)``: the largest entry modulus of each
    matrix; ``diag_dev[..., j]``, how far diagonal block ``j`` is from a
    scalar matrix; and ``d_dev[..., j, k]``, how far block ``(k, j)`` is from
    the d-mirror of block ``(j, k)``, zero for ``j == k``.  Deviations are
    absolute; the relative ones divide them by the scale (by 1 for a zero
    matrix), and since rounding is monotone the largest relative deviation
    is the largest absolute one divided, to the bit.
    """
    n = values.shape[-1] // 2
    v = values.reshape(values.shape[:-2] + (n, 2, n, 2))  # v[..., j, r, k, s]
    vt = v.swapaxes(-4, -2)  # entry (r, s) of block (k, j)
    d_dev = np.zeros(values.shape[:-2] + (n, n))
    for r, s, negate, r2, s2 in _D_MIRROR:  # block (k, j) minus d_partner(block (j, k))
        q, p = vt[..., r, :, s], v[..., r2, :, s2]
        np.maximum(d_dev, np.abs(q + p if negate else q - p), out=d_dev)
    diag = np.arange(n)
    d_dev[..., diag, diag] = 0.0  # not pairs
    diag_dev = _type_t_deviation(np.moveaxis(np.diagonal(v, axis1=-4, axis2=-2), -1, -3))
    return np.abs(values).max(axis=(-2, -1)), diag_dev, d_dev


def classify(m, tol: float) -> StructureReport:
    """Classify a block matrix as TypeII, TypeI, TypeT-diagonal-only or None.

    Residuals are measured relative to the max block norm of the matrix, so
    inverses of poorly scaled inputs are judged on structure rather than
    magnitude.  When several classes pass, the strongest one is reported
    (TypeII first: it is the input side of the inversion check) and all
    passing classes are listed in ``passing``.
    """
    tol = tolerance(tol)
    values = finite_array(BlockMatrix(_as_matrix(m)).values,  # a 2n x 2n shape check
                          DecompositionError, "matrix entries must be finite", complex)

    scale, diag_dev, d_dev = _type1_deviations(values)
    scale = float(scale)
    denom = scale if scale > 0 else 1.0
    diag_dev, d_dev = diag_dev / denom, d_dev / denom
    diag_res = float(diag_dev.max())
    off_res = max(diag_res, float(d_dev.max()))  # d_dev is zero on the diagonal

    class_res = {"TypeII": off_res, "TypeI": off_res, "TypeT-diagonal-only": diag_res}
    passing = tuple(name for name, res in class_res.items() if res <= tol)  # in precedence
    classification = passing[0] if passing else "None"
    max_residual = class_res.get(classification, diag_res)  # "None": of the nearest class
    # The witness is the worst block: a diagonal block or an off-diagonal pair.
    np.fill_diagonal(d_dev, -1.0)  # pairs only
    jd = int(diag_dev.argmax())
    j, k = np.unravel_index(int(d_dev.argmax()), d_dev.shape)
    residual, wj, wk = max((float(diag_dev[jd]), jd + 1, jd + 1),
                           (float(d_dev[j, k]), int(j) + 1, int(k) + 1))
    return StructureReport(
        classification=classification,
        passing=passing,
        max_residual=max_residual,
        witness=(wj, wk, residual),
        scale=scale,
        residuals={"diagonal": diag_res, "TypeI": off_res, "TypeII": off_res},
    )


def _type2_values(t: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Type-II matrices ``(..., 2n, 2n)`` from ``t (..., n)`` and ``pairs (..., m, 4)``.

    The stacked form of :func:`make_type2`, which documents the layout;
    ``pairs`` holds the ``m = n(n-1)/2`` entries ``coeffs[j, k]``, ``j < k``,
    in ``np.triu_indices(n, 1)`` order.
    """
    n = t.shape[-1]
    j, k = np.triu_indices(n, 1)
    a, b, c, d = np.moveaxis(pairs, -1, 0)
    upper = _quaternion_shaped(a, b) + 1j * _quaternion_shaped(c, d)
    values = np.zeros(t.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    blocks = values.reshape(t.shape + (2, n, 2)).swapaxes(-3, -2)  # a view
    diag = np.arange(n)
    blocks[..., diag, diag, 0, 0] = t
    blocks[..., diag, diag, 1, 1] = t
    blocks[..., j, k, :, :] = upper
    blocks[..., k, j, :, :] = d_partner(upper)
    return values


def make_type2(n: int, t: np.ndarray, coeffs: np.ndarray) -> BlockMatrix:
    """Build a Type-II matrix from diagonal scalars and off-block coefficients.

    Parameters
    ----------
    t : (n,) complex
        Diagonal scalars; block ``(j, j)`` is ``t[j] * I2``.
    coeffs : (n, n, 4) complex
        Entries ``a, b, c, d`` used for block ``(j, k)`` with ``j < k``:

            [[a + c*1j,                  b + d*1j               ],
             [-conj(b) - conj(d)*1j,     conj(a) + conj(c)*1j   ]]

        and block ``(k, j)`` is its u-mirror, which is its d-mirror.  Only
        the strict upper triangle of ``coeffs`` is read.

    Raises
    ------
    ValueError
        If ``n`` is not an integer >= 0, or ``t`` or ``coeffs`` does not have
        the shape above.
    DecompositionError
        If ``t`` or ``coeffs`` has a non-finite entry.
    """
    integer(n, ValueError, "n")
    t, coeffs = (finite_array(a, DecompositionError, "t and coeffs must be finite", complex)
                 for a in (t, coeffs))
    if t.shape != (n,) or coeffs.shape != (n, n, 4):
        raise ValueError(f"expected t of shape ({n},) and coeffs of shape "
                         f"({n}, {n}, 4), got {t.shape} and {coeffs.shape}")
    return BlockMatrix(_type2_values(t, coeffs[np.triu_indices(n, 1)]))


def schur_block_inverse(m, split: int) -> BlockMatrix:
    """Invert via the 2x2 partitioned (Schur complement) formula.

    The matrix is split after block row/column ``split``; with
    ``S = S22 - S21 S11^-1 S12`` the inverse is assembled as

        [[S11^-1 + S11^-1 S12 S^-1 S21 S11^-1,   -S11^-1 S12 S^-1],
         [-S^-1 S21 S11^-1,                       S^-1           ]].

    Raises
    ------
    ValueError
        If ``m`` has a non-finite entry, or ``split`` is not an integer with
        ``1 <= split < n``.
    SingularError
        If ``S11`` or the Schur complement is numerically singular (smallest
        singular value below ``1e-12 * ||m||``).
    """
    A = finite_array(_as_matrix(m), ValueError, "matrix entries must be finite", complex)
    n2 = A.shape[0]
    if not (is_int(split) and 1 <= split < n2 // 2):
        raise ValueError(f"split must be an integer in [1, n = {n2 // 2}), got {split!r}")
    s = 2 * split
    norm_m = np.linalg.norm(A, 2)
    floor = 1e-12 * norm_m

    s11 = A[:s, :s]
    s12 = A[:s, s:]
    s21 = A[s:, :s]
    s22 = A[s:, s:]

    if np.linalg.svd(s11, compute_uv=False)[-1] <= floor:
        raise SingularError("leading block S11 is numerically singular")
    inv11 = np.linalg.inv(s11)
    schur = s22 - s21 @ inv11 @ s12
    if np.linalg.svd(schur, compute_uv=False)[-1] <= floor:
        raise SingularError("Schur complement S22.1 is numerically singular")
    inv_schur = np.linalg.inv(schur)

    out = np.empty_like(A)
    out[:s, :s] = inv11 + inv11 @ s12 @ inv_schur @ s21 @ inv11
    out[:s, s:] = -inv11 @ s12 @ inv_schur
    out[s:, :s] = -inv_schur @ s21 @ inv11
    out[s:, s:] = inv_schur
    return BlockMatrix(out)


@dataclass
class InversionCheckReport:
    """Randomized check that invertible Type-II matrices invert to Type-I."""

    n: int
    trials: int
    passes: int
    resamples: int
    max_residual: float
    worst_witness: Optional[tuple]

    def all_passed(self) -> bool:
        return self.passes == self.trials

    def to_json(self) -> dict:
        return {**asdict(self),
                "worst_witness": list(self.worst_witness) if self.worst_witness else None}


def _well_conditioned(stack: np.ndarray) -> np.ndarray:
    """Which matrices of a ``(..., m, m)`` stack have condition number below ``_COND_LIMIT``."""
    sv = np.linalg.svd(stack, compute_uv=False)
    largest, smallest = sv[..., 0], sv[..., -1]
    # A zero smallest singular value (the t_1 = 0 variant at n = 1 is the
    # zero matrix) is singular; skip the division rather than form 0/0.
    cond = np.divide(largest, smallest, out=np.full_like(largest, np.inf),
                     where=smallest > 0)
    return cond < _COND_LIMIT


def _invert_well_conditioned(stack: np.ndarray) -> tuple:
    """Inverses of a ``(k, m, m)`` stack, and which have ``cond_2`` below ``_COND_LIMIT``.

    ``||A||_F ||A^-1||_F`` bounds ``cond_2(A)`` from above, so a matrix whose
    bound is below half the limit passes without an SVD; :func:`_well_conditioned`
    decides the rest, and the whole stack if one matrix is exactly singular.
    """
    try:
        inverse = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        well = _well_conditioned(stack)
        inverse = np.zeros_like(stack)
        inverse[well] = np.linalg.inv(stack[well])
        return inverse, well
    fro_sq = [np.einsum("kij,kij->k", a.view(float), a.view(float)) for a in (stack, inverse)]
    with np.errstate(over="ignore"):  # an overflowing bound: the SVD decides
        well = fro_sq[0] * fro_sq[1] < (_COND_LIMIT / 2) ** 2
    if not well.all():
        well[~well] = _well_conditioned(stack[~well])
    return inverse, well


def _type2_from_normals(normals: np.ndarray, n: int) -> np.ndarray:
    """Type-II matrices ``(k, 2n, 2n)`` from ``(k, 2n + 8n^2)`` rows of standard normals.

    Each row is one trial's draw, in the order it is drawn: the real and the
    imaginary parts of ``t``, then those of ``coeffs``.
    """
    t_re, t_im, c_re, c_im = np.split(normals, np.cumsum([n, n, 4 * n * n]), axis=-1)
    shape = normals.shape[:-1] + (n, n, 4)
    j, k = np.triu_indices(n, 1)  # only these coefficients are read
    t = t_re + 1j * (t_im + 1.0)
    pairs = c_re.reshape(shape)[..., j, k, :] + 1j * c_im.reshape(shape)[..., j, k, :]
    return _type2_values(t, pairs)


def _hash_constants(init: int, multiplier: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants ``init * multiplier^i`` mod 2^32, ``i < count``."""
    return np.array([init * pow(multiplier, i, 1 << 32) & _MASK32 for i in range(count)],
                    dtype=np.uint32)[:, None]  # a column, one constant a row


def _hashed(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each uint32 row of ``values``, row ``i`` with ``consts[i]``
    and ``consts[i + 1]``; a single row is hashed with each pair in turn.  Wraps
    modulo 2^32."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_L - y * _MIX_R  # wraps modulo 2^32
    return x ^ (x >> 16)


# The hash constants do not depend on the words hashed: those that fill and
# mix the pool of 4 entropy words, then those that hash it out.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL + 1)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL + 1)


def _pcg64_states(seed: int, trials: np.ndarray) -> list:
    """``PCG64(SeedSequence((seed, t))).state`` for each ``t`` of the uint64 array ``trials``.

    A seed below 2^64 and a uint64 trial fill at most the SeedSequence's pool
    of 4 words, and for them one numpy pass over uint32 words, a column per
    trial, reproduces it: ``seed`` and ``t`` are split into 32-bit words,
    least significant first (one word, 0, for 0), which it hashes into the
    pool, mixes there and hashes out into the generator's four 64-bit seed
    words.  With fewer than 4 entropy words the pool runs the hash on zeros,
    so a trial below 2^32 reads its high word, 0, there.  PCG64's seeding
    then takes two steps of its LCG, on Python ints.  A seed of 2^64 or more
    takes numpy's own seeding, one trial at a time.
    """
    if seed >> 64:
        return [np.random.PCG64(np.random.SeedSequence((seed, t))).state for t in trials.tolist()]
    seed_words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words = np.zeros((_POOL, len(trials)), dtype=np.uint32)
    words[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    words[len(seed_words)] = trials & _MASK32
    words[len(seed_words) + 1] = trials >> 32
    pool = _hashed(words, _HASH_A[:_POOL + 1])
    for src in range(_POOL):  # so that late words reach the early ones
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mixed(pool[dst], _hashed(pool[src], _HASH_A[4 + 3 * src:8 + 3 * src]))
    state = _hashed(np.concatenate((pool, pool)), _HASH_B)
    out = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(state.T, "<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        lcg = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc  # from 0: a step, + seed, a step
        out.append({"bit_generator": "PCG64", "state": {"state": lcg & _MASK128, "inc": inc},
                    "has_uint32": 0, "uinteger": 0})
    return out


def verify_type2_inverse(n: int, trials: int, seed: int, tol: float = 1e-8) -> InversionCheckReport:
    """Sample random invertible Type-II matrices and classify their inverses.

    Each trial draws diagonal scalars ``t_j`` from a standard complex normal
    shifted by ``+1j`` (distance from the real axis makes the draw invertible
    with probability one, mirroring resolvent usage) and off-block
    coefficients from a standard complex normal.  The dense inverse must
    classify as Type-I within ``tol`` (relative).  Each trial also re-checks
    the continuity corner case ``t_1 = 0`` whenever that variant is still
    invertible.

    Each draw is one ``standard_normal(2n + 8n^2)`` call on the trial's
    stream; its normals are, in order, the real and the imaginary parts
    of the ``t_j`` (the imaginary ones before the shift), then those of the
    coefficients, :func:`make_type2`'s ``(n, n, 4)`` array ``coeffs`` in
    row-major order.  Draws that are numerically too ill-conditioned for
    the tolerance (condition number above 1e7) are redrawn from the same
    trial's stream; the count is reported.  Trials run in blocks of a fixed
    size, each block as stacked arrays drawn into one buffer: one batched
    inverse per variant and round of draws, whose Frobenius bound spares
    most matrices the SVD condition test.
    Every trial draws from its own stream, that of
    ``default_rng(SeedSequence((seed, trial)))``, so the report depends
    neither on the block size nor on the order in which trials run.  The
    streams' PCG64 states are derived a block at a time in one pass
    (:func:`_pcg64_states`) and set in turn on one generator.  A redraw,
    rare at this limit, is one call too: the trial's stream from its start,
    its earlier draws and then the new one, of which it keeps the new one.
    ``worst_witness`` is the witness that :func:`classify` reports for the
    inverse with the largest Type-I residual (the first one, in trial
    order, on a tie).

    Raises
    ------
    ValueError
        If ``n`` or ``trials`` is not an integer >= 1, ``seed`` is not an
        integer >= 0, or ``tol`` is not a real number >= 0.
    """
    for name, value, low in (("n", n, 1), ("trials", trials, 1), ("seed", seed, 0)):
        integer(value, ValueError, name, low)
    tol = tolerance(tol)
    passes = 0
    resamples = 0
    max_residual = 0.0
    worst_inverse = None

    bit_generator = np.random.PCG64(0)  # each trial's stream is set on it in turn
    rng = np.random.Generator(bit_generator)
    for start in range(0, trials, _BLOCK_TRIALS):
        streams = _pcg64_states(seed, np.arange(start, min(start + _BLOCK_TRIALS, trials),
                                                dtype=np.uint64))
        size, width = len(streams), 2 * n + 8 * n * n
        normals = np.empty((size, width))  # row i: trial i's latest draw
        draws = np.ones(size, dtype=int)  # each trial's draws so far
        for state, row in zip(streams, normals):
            bit_generator.state = state
            rng.standard_normal(out=row)
        values = _type2_from_normals(normals, n)
        # inverses[i, v]: variant v (0 the draw, 1 its t_1 = 0 copy) of trial i;
        # an ill-conditioned t_1 = 0 copy is left at zero and not checked.
        inverses = np.empty((size, 2, 2 * n, 2 * n), dtype=complex)
        inverses[:, 0], well = _invert_well_conditioned(values)
        pending = np.flatnonzero(~well)
        while pending.size:  # redraw each ill-conditioned draw from its stream
            resamples += pending.size
            draws[pending] += 1
            for i in pending.tolist():  # all its draws from the start, in one call
                bit_generator.state = streams[i]
                normals[i] = rng.standard_normal(draws[i] * width)[-width:]
            values[pending] = _type2_from_normals(normals[pending], n)
            inverses[pending, 0], well = _invert_well_conditioned(values[pending])
            pending = pending[~well]

        values[:, 0, 0] = values[:, 1, 1] = 0.0  # t_1 = 0
        inverses[:, 1], has_zeroed = _invert_well_conditioned(values)
        inverses[~has_zeroed, 1] = 0.0
        del values  # the deviations below are the check's peak

        scale, diag_dev, d_dev = _type1_deviations(inverses)
        residuals = np.maximum(diag_dev.max(axis=-1), d_dev.max(axis=(-2, -1)))
        residuals /= np.where(scale > 0, scale, 1.0)
        residuals[~has_zeroed, 1] = -1.0  # unchecked: passes, is never the worst
        passes += int(np.all(residuals <= tol, axis=1).sum())
        # First occurrence in (trial, variant) order, as a running strict max.
        worst = int(residuals.argmax())
        if residuals.flat[worst] > max_residual:
            max_residual = float(residuals.flat[worst])
            worst_inverse = inverses.reshape(-1, 2 * n, 2 * n)[worst]

    worst_witness = None if worst_inverse is None else classify(worst_inverse, tol).witness
    return InversionCheckReport(
        n=n,
        trials=trials,
        passes=passes,
        resamples=resamples,
        max_residual=max_residual,
        worst_witness=worst_witness,
    )
