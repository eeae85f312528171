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
*Type-I*; with u-related pairs it is *Type-II*.  The two relations are two
parametrizations of one involution, so the classes coincide pointwise; both
predicates are kept as independent computations and cross-check each other.
The key structural fact, verified at random by :func:`verify_type2_inverse`,
is that the class is closed under matrix inversion: the inverse of an
invertible Type-II matrix is Type-I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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
        return cls(np.eye(2 * n, dtype=complex))

    @property
    def blocks(self) -> np.ndarray:
        """(n, n, 2, 2) view with ``blocks[j, k]`` the 0-based (j, k) block."""
        n = self.n
        return self.values.reshape(n, 2, n, 2).swapaxes(1, 2)

    def block(self, j: int, k: int) -> np.ndarray:
        if not (1 <= j <= self.n and 1 <= k <= self.n):
            raise IndexError(f"block index ({j}, {k}) out of range for n={self.n}")
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


def _type_t_deviation(b) -> np.ndarray:
    """``max(|b01|, |b10|, |b00 - b11|)`` of each block of a ``(..., 2, 2)`` stack."""
    b = _as_blocks(b)
    return np.maximum(np.maximum(np.abs(b[..., 0, 1]), np.abs(b[..., 1, 0])),
                      np.abs(b[..., 0, 0] - b[..., 1, 1]))


def is_type_t(b: np.ndarray, tol: float) -> bool:
    """True when the 2x2 block is a scalar multiple of the identity, within ``tol``.

    A ``(..., 2, 2)`` stack is true when every block is.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    return bool(np.all(_type_t_deviation(b) <= tol))


def _split(p: np.ndarray) -> tuple:
    """Coefficients ``b1, c1, b2, c2`` of the canonical split ``p = B + C*1j``.

    ``B = [[b1, b2], [-conj(b2), conj(b1)]]`` and ``C`` likewise, computed
    blockwise over a ``(..., 2, 2)`` stack.
    """
    p = _as_blocks(p)
    if not np.all(np.isfinite(p)):
        raise DecompositionError("block entries must be finite")
    b1 = (p[..., 0, 0] + p[..., 1, 1].conj()) / 2
    c1 = (p[..., 0, 0] - p[..., 1, 1].conj()) / 2j
    b2 = (p[..., 0, 1] - p[..., 1, 0].conj()) / 2
    c2 = (p[..., 0, 1] + p[..., 1, 0].conj()) / 2j
    return b1, c1, b2, c2


def _quaternion_shaped(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Blocks ``[[x, y], [-conj(y), conj(x)]]``, stacked like ``x``."""
    return np.stack([np.stack([x, y], axis=-1),
                     np.stack([-y.conj(), x.conj()], axis=-1)], axis=-2)


def d_partner(p: np.ndarray) -> np.ndarray:
    """The d-mirror ``[[p22, -p12], [-p21, p11]]`` of a 2x2 block.

    Applies blockwise to a ``(..., 2, 2)`` stack.
    """
    p = _as_blocks(p)
    out = np.empty_like(p)
    out[..., 0, 0] = p[..., 1, 1]
    out[..., 0, 1] = -p[..., 0, 1]
    out[..., 1, 0] = -p[..., 1, 0]
    out[..., 1, 1] = p[..., 0, 0]
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
    b1, c1, b2, c2 = _split(p)
    return _quaternion_shaped(b1, b2), _quaternion_shaped(c1, c2)


def u_partner(p: np.ndarray) -> np.ndarray:
    """The u-mirror ``B^* + C^* * 1j`` of ``p = B + C*1j`` (canonical split).

    Applies blockwise to a ``(..., 2, 2)`` stack; raises
    :class:`DecompositionError` like :func:`quaternion_parts`.
    """
    b1, c1, b2, c2 = _split(p)
    out = np.empty(np.shape(b1) + (2, 2), dtype=complex)
    out[..., 0, 0] = b1.conj() + 1j * c1.conj()
    out[..., 0, 1] = -b2 - 1j * c2
    out[..., 1, 0] = b2.conj() + 1j * c2.conj()
    out[..., 1, 1] = b1 + 1j * c1
    return out


def d_related(p: np.ndarray, q: np.ndarray, tol: float) -> bool:
    """True when ``q`` is the d-mirror of ``p`` within ``tol`` entrywise."""
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    q = np.asarray(q, dtype=complex)
    return bool(np.max(np.abs(q - d_partner(p))) <= tol)


def u_related(p: np.ndarray, q: np.ndarray, tol: float) -> bool:
    """True when ``q`` is the u-mirror of ``p`` within ``tol`` entrywise."""
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    q = np.asarray(q, dtype=complex)
    return bool(np.max(np.abs(q - u_partner(p))) <= tol)


def classify(m, tol: float) -> StructureReport:
    """Classify a block matrix as TypeII, TypeI, TypeT-diagonal-only or None.

    Residuals are measured relative to the max block norm of the matrix, so
    inverses of poorly scaled inputs are judged on structure rather than
    magnitude.  When several classes pass, the strongest one is reported
    (TypeII first: it is the input side of the inversion check) and all
    passing classes are listed in ``passing``.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    values = _as_matrix(m)
    bm = m if isinstance(m, BlockMatrix) else BlockMatrix(values)
    blocks = bm.blocks
    n = bm.n

    scale = float(np.max(np.abs(values)))
    denom = scale if scale > 0 else 1.0

    diag = blocks[np.arange(n), np.arange(n)]
    diag_dev = _type_t_deviation(diag) / denom

    transposed = blocks.swapaxes(0, 1)  # [j, k] -> block (k, j)
    d_dev = np.abs(transposed - d_partner(blocks)).max(axis=(2, 3)) / denom
    u_dev = np.abs(transposed - u_partner(blocks)).max(axis=(2, 3)) / denom
    off = ~np.eye(n, dtype=bool)

    diag_res = float(diag_dev.max())
    d_res = float(d_dev[off].max()) if n > 1 else 0.0
    u_res = float(u_dev[off].max()) if n > 1 else 0.0

    def _witness(kind):
        jd = int(diag_dev.argmax())
        best = (float(diag_dev[jd]), jd + 1, jd + 1)
        if kind != "TypeT-diagonal-only" and n > 1:
            dev = np.where(off, d_dev if kind == "TypeI" else u_dev, -1.0)
            j, k = np.unravel_index(int(dev.argmax()), dev.shape)
            best = max(best, (float(dev[j, k]), int(j) + 1, int(k) + 1))
        r, wj, wk = best
        return (wj, wk, r)

    precedence = ("TypeII", "TypeI", "TypeT-diagonal-only")
    class_res = {
        "TypeII": max(diag_res, u_res),
        "TypeI": max(diag_res, d_res),
        "TypeT-diagonal-only": diag_res,
    }
    passing = tuple(name for name in precedence if class_res[name] <= tol)
    failing = [name for name in precedence if class_res[name] > tol]
    if passing:
        classification = passing[0]
        max_residual = class_res[classification]
    else:
        classification = "None"
        max_residual = min(class_res.values())
    # The witness points at the worst block of the strongest failing class
    # (so a single perturbed pair is identified even when a weaker class
    # still passes); with nothing failing, at the worst block overall.
    witness_class = failing[0] if failing else classification
    residuals = {"diagonal": diag_res, "TypeI": class_res["TypeI"],
                 "TypeII": class_res["TypeII"]}
    return StructureReport(
        classification=classification,
        passing=passing,
        max_residual=float(max_residual),
        witness=_witness(witness_class),
        scale=scale,
        residuals=residuals,
    )


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

        and block ``(k, j)`` is its u-mirror.  Only the strict upper
        triangle of ``coeffs`` is read.
    """
    t = np.asarray(t, dtype=complex)
    j, k = np.triu_indices(n, 1)
    a, b, c, d = np.moveaxis(np.asarray(coeffs, dtype=complex)[j, k], -1, 0)
    upper = np.empty((j.size, 2, 2), dtype=complex)
    upper[:, 0, 0] = a + 1j * c
    upper[:, 0, 1] = b + 1j * d
    upper[:, 1, 0] = -b.conj() - 1j * d.conj()
    upper[:, 1, 1] = a.conj() + 1j * c.conj()
    blocks = np.zeros((n, n, 2, 2), dtype=complex)
    blocks[np.arange(n), np.arange(n), 0, 0] = t
    blocks[np.arange(n), np.arange(n), 1, 1] = t
    blocks[j, k] = upper
    blocks[k, j] = u_partner(upper)
    return BlockMatrix.from_blocks(blocks)


def schur_block_inverse(m, split: int) -> BlockMatrix:
    """Invert via the 2x2 partitioned (Schur complement) formula.

    The matrix is split after block row/column ``split``; with
    ``S = S22 - S21 S11^-1 S12`` the inverse is assembled as

        [[S11^-1 + S11^-1 S12 S^-1 S21 S11^-1,   -S11^-1 S12 S^-1],
         [-S^-1 S21 S11^-1,                       S^-1           ]].

    Raises
    ------
    SingularError
        If ``S11`` or the Schur complement is numerically singular (smallest
        singular value below ``1e-12 * ||m||``).
    """
    A = _as_matrix(m)
    n2 = A.shape[0]
    if not 1 <= split < n2 // 2:
        raise ValueError(f"split must satisfy 1 <= split < n = {n2 // 2}")
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
        return {
            "n": self.n,
            "trials": self.trials,
            "passes": self.passes,
            "resamples": self.resamples,
            "max_residual": self.max_residual,
            "worst_witness": list(self.worst_witness) if self.worst_witness else None,
        }


def _well_conditioned(A: np.ndarray) -> bool:
    sv = np.linalg.svd(A, compute_uv=False)
    return bool(sv[-1] > 0 and sv[0] / sv[-1] < _COND_LIMIT)


def verify_type2_inverse(n: int, trials: int, seed: int, tol: float = 1e-8) -> InversionCheckReport:
    """Sample random invertible Type-II matrices and classify their inverses.

    Each trial draws diagonal scalars ``t_j`` from a standard complex normal
    shifted by ``+1j`` (distance from the real axis makes the draw invertible
    with probability one, mirroring resolvent usage) and off-block
    coefficients from a standard complex normal.  The dense inverse must
    classify as Type-I within ``tol`` (relative).  Each trial also re-checks
    the continuity corner case ``t_1 = 0`` whenever that variant is still
    invertible.

    Draws that are numerically too ill-conditioned for the tolerance
    (condition number above 1e7) are resampled; the count is reported.
    Trials use deterministic sub-seeds derived from ``(seed, trial)``, so
    results do not depend on execution order.
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be at least 1")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    passes = 0
    resamples = 0
    max_residual = 0.0
    worst_witness = None

    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
        while True:
            t = rng.standard_normal(n) + 1j * (rng.standard_normal(n) + 1.0)
            coeffs = rng.standard_normal((n, n, 4)) + 1j * rng.standard_normal((n, n, 4))
            M = make_type2(n, t, coeffs)
            if _well_conditioned(M.values):
                break
            resamples += 1

        ok = True
        variants = [M.values]
        zeroed = M.values.copy()
        zeroed[0, 0] = zeroed[1, 1] = 0.0  # t_1 = 0
        if _well_conditioned(zeroed):
            variants.append(zeroed)
        for A in variants:
            report = classify(np.linalg.inv(A), tol)
            res = report.residuals["TypeI"]
            if res > max_residual:
                max_residual = res
                worst_witness = report.witness
            ok = ok and report.passes("TypeI")
        passes += int(ok)

    return InversionCheckReport(
        n=n,
        trials=trials,
        passes=passes,
        resamples=resamples,
        max_residual=max_residual,
        worst_witness=worst_witness,
    )
