"""Spectral side: embedding, eigenvalues, ESDs, semicircle law, resolvents.

The complex embedding of a self-dual quaternion matrix is a ``2n x 2n``
Hermitian matrix whose eigenvalues come in exact pairs; one eigenvalue per
pair is the spectrum of the quaternion matrix.  The empirical spectral
distribution of properly normalized ensembles approaches the semicircular
law with density ``sqrt(4 sigma^2 - x^2) / (2 pi sigma^2)``, whose Stieltjes
transform ``s(z) = -(z - sqrt(z^2 - 4)) / 2`` (unit sigma) satisfies
``s = -1/(z + s)``.
"""

from __future__ import annotations

import cmath
import csv
import ctypes
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .ensemble import SelfDualMatrix
from .structure import BlockMatrix, StructureReport, _as_matrix, classify

__all__ = [
    "DomainError",
    "NotHermitianError",
    "PairingError",
    "embed",
    "hermitian_eigenvalues",
    "dedup_pairs",
    "SpectralSample",
    "ESD",
    "StieltjesPoint",
    "semicircle_pdf",
    "semicircle_cdf",
    "semicircle_stieltjes",
    "empirical_stieltjes",
    "kolmogorov_distance",
    "levy_distance",
    "resolvent",
    "resolvent_structure_check",
    "trace_minor_check",
    "ResolventStructureReport",
    "TraceMinorReport",
    "esd_to_csv",
    "histogram_csv",
]


_PAIRING_TOL = 1e-8     # largest relative gap within an eigenvalue pair
_LEVY_TOL = 1e-6        # absolute accuracy of the Levy distance bisection
_HIST_HALF_WIDTH = 2.5  # least half-width of a histogram's range


class DomainError(ValueError):
    """Spectral parameter outside the open upper half plane."""


class NotHermitianError(ValueError):
    """Matrix fails the Hermitian residual precondition."""


class PairingError(ValueError):
    """Sorted eigenvalues do not split into near-degenerate pairs."""


def _upper_half_plane(z) -> complex:
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise DomainError(f"z must be finite with Im z > 0, got {z}")
    return z


def embed(w: SelfDualMatrix) -> BlockMatrix:
    """Represent a self-dual quaternion matrix as a 2n x 2n complex matrix.

    Block ``(j, k)`` is the 2x2 image of quaternion entry ``(j, k)``; the
    result is Hermitian by construction (exactly, not up to rounding).
    """
    co = w.coeffs
    n = w.n
    out = np.empty((2 * n, 2 * n), dtype=complex)
    planes = out.view(float).reshape(n, 2, n, 4)  # [j, row of block, k, re/im of 2 columns]
    planes[:, 0] = co  # lam = a + bi, om = c + di
    np.negative(co[..., 2], out=planes[:, 1, :, 0])  # -conj(om) = -c + di
    planes[:, 1, :, 1] = co[..., 3]
    planes[:, 1, :, 2] = co[..., 0]  # conj(lam) = a - bi
    np.negative(co[..., 1], out=planes[:, 1, :, 3])
    return BlockMatrix(out)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def _square_matrix(m) -> np.ndarray:
    A = _as_matrix(m)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def _load_two_stage():
    """LAPACKE ``zheevd_2stage`` of the OpenBLAS bundled with numpy, or None.

    The wheel's OpenBLAS exports it with 64-bit ``lapack_int`` under the
    ``scipy_`` prefix; another numpy build has no such library and falls back
    to ``eigvalsh``.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_LAPACKE_zheevd_2stage64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                       ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
        return fn
    return None


_TWO_STAGE = _load_two_stage()
# Order from which the two-stage driver is used.  On 2 cores (OpenBLAS
# 0.3.31) it tied one-stage ``zheevd`` near order 400 and won from 448 up,
# by 1.5x at 1600; see CHANGES.md for the measurement.
_TWO_STAGE_MIN = 512
_LAPACK_COL_MAJOR = 102
_TILE = 128  # side of the square tiles in which the Hermitian input check reads


def _two_stage_eigenvalues(A: np.ndarray, overwrite_a: bool) -> np.ndarray:
    """Eigenvalues of finite Hermitian ``A`` by ``zheevd_2stage`` (JOBZ=N, UPLO=L).

    The C-ordered array read as column-major is ``conj(A)``, with the same
    eigenvalues.  LAPACK overwrites it: ``A`` itself if ``overwrite_a`` and
    ``A`` is writeable and C-ordered, else a copy.
    """
    n = A.shape[0]
    to_c = np.asarray if overwrite_a and A.flags.writeable else np.array
    a = to_c(A, dtype=np.complex128, order="C")
    w = np.empty(n)
    info = _TWO_STAGE(_LAPACK_COL_MAJOR, b"N", b"L", n, a.ctypes.data, n, w.ctypes.data)
    if info:
        raise np.linalg.LinAlgError(f"zheevd_2stage failed with info={info}")
    return w


def _hermitian_residual(A: np.ndarray):
    """Exact ``(max |A|, max |A - A^H|)``, reading each tile with its mirror tile.

    A non-finite entry raises NotHermitianError before any subtraction.
    """
    scale = residual = 0.0
    for i in range(0, A.shape[0], _TILE):
        for j in range(i, A.shape[0], _TILE):
            a, b = A[i:i + _TILE, j:j + _TILE], A[j:j + _TILE, i:i + _TILE]
            # np.max, unlike the builtin max(), propagates NaN
            scale = np.max([scale, np.abs(a).max(), np.abs(b).max()])
            if not np.isfinite(scale):
                raise NotHermitianError("matrix entries must be finite")
            residual = np.maximum(residual, np.abs(a - b.conj().T).max())
    return float(scale), float(residual)


def hermitian_eigenvalues(m, *, overwrite_a: bool = False) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    The input must be finite and Hermitian within ``1e-10 * max|entry|``.
    From order ``_TWO_STAGE_MIN`` up they come from LAPACK's two-stage
    driver ``zheevd_2stage``, where numpy's OpenBLAS provides it; otherwise
    from ``np.linalg.eigvalsh`` (``zheevd``).  ``overwrite_a`` (as in ``scipy.linalg``)
    lets the two-stage driver overwrite the input after the checks, instead of
    a copy; by default the input is never modified.

    Raises
    ------
    NotHermitianError
        If an entry is not finite or the Hermitian residual precondition
        fails.
    """
    A = _square_matrix(m)
    scale, residual = _hermitian_residual(A)
    if not residual <= 1e-10 * max(scale, 1e-300):
        raise NotHermitianError(
            f"Hermitian residual {residual:.3e} exceeds 1e-10 * {scale:.3e}")
    if _TWO_STAGE is not None and A.shape[0] >= _TWO_STAGE_MIN:
        return _two_stage_eigenvalues(A, overwrite_a)
    return np.linalg.eigvalsh(A)


def dedup_pairs(eigs: np.ndarray, tol: float):
    """Collapse a doubly degenerate sorted spectrum to one value per pair.

    Consecutive sorted values are paired greedily; the first of each pair is
    kept.  The pairing residual is the largest intra-pair gap relative to
    ``max(1, spectral radius)``.

    Raises
    ------
    PairingError
        If the list has odd length or a non-finite value, or the residual is
        not within ``tol`` (a non-quaternionic input or an eigensolver failure).
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size % 2:
        raise PairingError(f"expected an even number of eigenvalues, got {eigs.size}")
    if eigs.size == 0:
        return np.empty(0), 0.0
    if not np.all(np.isfinite(eigs)):
        raise PairingError("eigenvalues must be finite")
    gaps = eigs[1::2] - eigs[0::2]
    residual = float(np.max(np.abs(gaps))) / max(1.0, float(np.max(np.abs(eigs))))
    if not residual <= tol:
        raise PairingError(
            f"pairing residual {residual:.3e} exceeds tolerance {tol:.3e}")
    return eigs[0::2].copy(), residual


@dataclass
class SpectralSample:
    """Spectrum of one draw: full doubled eigenvalues plus the deduped half."""

    n: int
    eigenvalues_full: np.ndarray
    eigenvalues_dedup: np.ndarray
    pairing_residual: float

    @classmethod
    def from_matrix(cls, w: SelfDualMatrix) -> "SpectralSample":
        full = hermitian_eigenvalues(embed(w), overwrite_a=True)
        dedup, residual = dedup_pairs(full, _PAIRING_TOL)
        return cls(n=w.n, eigenvalues_full=full, eigenvalues_dedup=dedup,
                   pairing_residual=residual)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "eigenvalues_full": self.eigenvalues_full.tolist(),
            "eigenvalues_dedup": self.eigenvalues_dedup.tolist(),
            "pairing_residual": self.pairing_residual,
        }


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

class ESD:
    """Empirical spectral distribution: right-continuous step CDF."""

    def __init__(self, values):
        self.points = np.sort(np.asarray(values, dtype=float))
        if self.points.size == 0:
            raise ValueError("ESD needs at least one support point")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("ESD support points must be finite")

    def cdf(self, x):
        """F(x) = fraction of points <= x (right-continuous)."""
        return np.searchsorted(self.points, x, side="right") / self.points.size

    def cdf_left(self, x):
        """Left limit F(x-)."""
        return np.searchsorted(self.points, x, side="left") / self.points.size

    def __call__(self, x):
        return self.cdf(x)

    def __len__(self):
        return self.points.size


@dataclass
class StieltjesPoint:
    """Value of a Stieltjes transform at a point of the upper half plane."""

    z: complex
    value: complex


def semicircle_pdf(x, sigma: float = 1.0):
    """Semicircle density ``sqrt(4 sigma^2 - x^2) / (2 pi sigma^2)`` on [-2 sigma, 2 sigma]."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 2.0 * sigma
    out[inside] = np.sqrt(4.0 * sigma**2 - x[inside] ** 2) / (2.0 * math.pi * sigma**2)
    return out if out.ndim else float(out)


def semicircle_cdf(x, sigma: float = 1.0):
    """Closed-form semicircle CDF, clamped to {0, 1} outside the support."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0 * sigma, 2.0 * sigma)
    out = (0.5
           + xc * np.sqrt(np.maximum(4.0 * sigma**2 - xc**2, 0.0)) / (4.0 * math.pi * sigma**2)
           + np.arcsin(xc / (2.0 * sigma)) / math.pi)
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def semicircle_stieltjes(z: complex) -> complex:
    """Stieltjes transform ``-(z - sqrt(z^2 - 4)) / 2`` of the unit semicircle.

    The square root branch is chosen so the image lies in the upper half
    plane; the closed form satisfies ``s(z) = -1 / (z + s(z))``.

    Raises
    ------
    DomainError
        If ``z`` is not finite or ``Im z <= 0``.
    """
    z = _upper_half_plane(z)
    root = np.sqrt(complex(z * z - 4.0))
    for w in (root, -root):
        s = (-z + w) / 2.0
        if s.imag > 0:
            return complex(s)
    raise ArithmeticError(f"no upper-half-plane branch at z={z}")  # unreachable


def empirical_stieltjes(sample, z: complex) -> StieltjesPoint:
    """Empirical Stieltjes transform ``(1/(2n)) sum 1/(lambda_i - z)``.

    ``sample`` may be a :class:`SpectralSample` (its full doubled spectrum is
    used) or a plain array of eigenvalues.  Equals the normalized trace of
    the resolvent of the embedded matrix.

    Raises
    ------
    DomainError
        If ``z`` is not finite or ``Im z <= 0``.
    ValueError
        If an eigenvalue is not finite.
    """
    z = _upper_half_plane(z)
    eigs = sample.eigenvalues_full if isinstance(sample, SpectralSample) \
        else np.asarray(sample, dtype=float)
    if not np.all(np.isfinite(eigs)):
        raise ValueError("eigenvalues must be finite")
    value = complex(np.mean(1.0 / (eigs - z)))
    return StieltjesPoint(z=z, value=value)


def _ks_to_cdf(f: ESD, ref: np.ndarray) -> float:
    """Sup distance between ``f`` and a continuous CDF with values ``ref`` at ``f.points``."""
    n = f.points.size
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def kolmogorov_distance(e: ESD, sigma: float = 1.0) -> float:
    """Sup distance between an ESD and the semicircle CDF (both one-sided limits)."""
    return _ks_to_cdf(e, semicircle_cdf(e.points, sigma))


def _ks_two_esds(f: ESD, g: ESD) -> float:
    grid = np.concatenate([f.points, g.points])
    return float(np.max(np.abs(f.cdf(grid) - g.cdf(grid))))


def _levy_feasible(f: ESD, g, eps: float, g_points: Optional[np.ndarray]) -> bool:
    slack = 1e-12
    if g_points is None:
        up = f.cdf(f.points) - np.asarray(g(f.points + eps), dtype=float)
        down = np.asarray(g(f.points - eps), dtype=float) - f.cdf_left(f.points)
        return bool(up.max() <= eps + slack and down.max() <= eps + slack)
    ev1 = np.concatenate([f.points, g_points - eps])
    sup1 = np.max(f.cdf(ev1) - g.cdf(ev1 + eps))
    ev2 = np.concatenate([f.points, g_points + eps])
    sup2 = np.max(g.cdf(ev2 - eps) - f.cdf(ev2))
    return bool(sup1 <= eps + slack and sup2 <= eps + slack)


def levy_distance(f: ESD, g) -> float:
    """Levy distance between an ESD and an ESD or continuous reference CDF.

    Computes ``inf { eps : g(x-eps) - eps <= f(x) <= g(x+eps) + eps }`` by
    bisection over the merged jump grid, to absolute accuracy ``_LEVY_TOL`` (the
    returned value is the feasible upper end of the bracket, so recorded
    inequalities remain valid).  Always at most the sup distance.
    """
    if isinstance(g, ESD):
        g_points = g.points
        hi = _ks_two_esds(f, g)
    else:
        g_points = None
        hi = _ks_to_cdf(f, np.asarray(g(f.points), dtype=float))
    lo = 0.0
    if hi <= _LEVY_TOL:
        return hi
    while hi - lo > _LEVY_TOL:
        mid = 0.5 * (lo + hi)
        if _levy_feasible(f, g, mid, g_points):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# resolvent diagnostics
# ---------------------------------------------------------------------------

def resolvent(m, z: complex) -> BlockMatrix:
    """Dense resolvent ``(m - z I)^{-1}`` for ``Im z != 0``.

    Raises
    ------
    DomainError
        If ``z`` is not finite or lies on the real axis.
    ValueError
        If ``m`` is not square or has a non-finite entry.
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag != 0):
        raise DomainError(f"z must be finite and off the real axis, got {z}")
    A = _square_matrix(m)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    shifted = A - z * np.eye(A.shape[0], dtype=complex)
    return BlockMatrix(np.linalg.solve(shifted, np.eye(A.shape[0], dtype=complex)))


@dataclass
class ResolventStructureReport:
    """Structural classification of a resolvent: Type-I with Type-T diagonal."""

    z: complex
    passed: bool
    classification: str
    passing: tuple
    max_residual: float
    witness: Optional[tuple]

    def to_json(self) -> dict:
        return {**asdict(self), "z": [self.z.real, self.z.imag],
                "passing": list(self.passing),
                "witness": list(self.witness) if self.witness else None}


def resolvent_structure_check(w: SelfDualMatrix, z: complex,
                              tol: float = 1e-8) -> ResolventStructureReport:
    """Check that the resolvent of the embedding carries the Type-I structure.

    In particular every diagonal 2x2 block must be a scalar multiple of the
    identity (the two resolvent diagonal entries of each pair coincide).
    Failures are reported, not raised.
    """
    z = _upper_half_plane(z)
    report: StructureReport = classify(resolvent(embed(w), z), tol)
    passed = report.passes("TypeI")
    return ResolventStructureReport(
        z=z,
        passed=passed,
        classification=report.classification,
        passing=report.passing,
        max_residual=report.residuals["TypeI"],
        witness=report.witness,
    )


@dataclass
class TraceMinorReport:
    """Resolvent trace versus all quaternion-principal minors."""

    z: complex
    bound: float
    max_difference: float
    differences: np.ndarray
    passed: bool


def trace_minor_check(w: SelfDualMatrix, z: complex) -> TraceMinorReport:
    """Check ``|tr R - tr R_k| <= 2 / Im(z)`` for every quaternion minor.

    ``R_k`` is the resolvent of the embedding with quaternion row and column
    ``k`` removed (two complex rows and columns).  Every difference comes
    from the one full resolvent ``R``: with ``K`` the two complex rows of
    quaternion row ``k``, the Schur complement gives
    ``tr R - tr R_k = tr((R_KK)^{-1} (R^2)_KK)``.
    """
    z = _upper_half_plane(z)
    n = w.n
    R = resolvent(embed(w), z)
    r = R.values
    # (R^2)_KK for every k: row pair k of R times column pair k of R
    r2_diag = np.einsum("kai,kbi->kab", r.reshape(n, 2, 2 * n), r.T.reshape(n, 2, 2 * n))
    r_diag = R.blocks[np.arange(n), np.arange(n)]
    diffs = np.abs(np.trace(np.linalg.solve(r_diag, r2_diag), axis1=1, axis2=2))
    bound = 2.0 / z.imag
    max_diff = float(diffs.max()) if n else 0.0
    return TraceMinorReport(
        z=z,
        bound=bound,
        max_difference=max_diff,
        differences=diffs,
        passed=bool(max_diff <= bound * (1.0 + 1e-12)),
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def esd_to_csv(e: ESD, path) -> None:
    """Write the jump points of an ESD as two columns ``x, F(x)``."""
    n = e.points.size
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "F"])
        for i, x in enumerate(e.points):
            writer.writerow([repr(float(x)), repr((i + 1) / n)])


def histogram_csv(values, path, bins: int = 40) -> None:
    """Histogram of finite eigenvalues with the unit semicircle overlay, as CSV."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("histogram values must be finite")
    lo = min(-_HIST_HALF_WIDTH, float(values.min()))
    hi = max(_HIST_HALF_WIDTH, float(values.max()))
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    mids = 0.5 * (edges[:-1] + edges[1:])
    overlay = semicircle_pdf(mids)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count", "semicircle_pdf"])
        for left, right, cnt, ref in zip(edges[:-1], edges[1:], counts, overlay):
            writer.writerow([repr(float(left)), repr(float(right)),
                             int(cnt), repr(float(ref))])
