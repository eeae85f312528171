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
import contextlib
import csv
import ctypes
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ._args import (complex_number, finite_array, integer, positive, real, tolerance,
                    upper_half_plane)
from .ensemble import SelfDualMatrix, _hermitian_residual
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
    return complex_number(z, DomainError, "z must be finite with Im z > 0", upper_half_plane)


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


_OPENBLAS = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
    "libscipy_openblas64_*.so"))


def _load_symbol(name: str, restype, *argtypes):
    """Function ``name`` of the OpenBLAS bundled with numpy, or None.

    The wheel's OpenBLAS exports CBLAS and LAPACKE with 64-bit integers under
    the ``scipy_`` prefix; another numpy build has no such library, and its
    callers fall back to the embedding and leave the BLAS thread count alone.
    """
    for path in _OPENBLAS:
        try:
            fn = getattr(ctypes.CDLL(str(path)), name)
        except (OSError, AttributeError):
            continue
        fn.restype = restype
        fn.argtypes = argtypes
        return fn
    return None


_INT, _PTR = ctypes.c_int64, ctypes.c_void_p
_ZGEMM = _load_symbol("scipy_cblas_zgemm64_", None, *[ctypes.c_int] * 3, _INT, _INT, _INT,
                      _PTR, _PTR, _INT, _PTR, _INT, _PTR, _PTR, _INT)
_DSTERF = _load_symbol("scipy_LAPACKE_dsterf64_", _INT, _INT, _PTR, _PTR)
_GET_THREADS = _load_symbol("scipy_openblas_get_num_threads64_", ctypes.c_int)
_SET_THREADS = _load_symbol("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
# The one size rule for a draw of self-dual order n: from _QUAT_MIN up it takes the
# quaternion reduction, whose bits do not depend on the BLAS thread count; below it
# it runs on one thread, as a second gains no wall time (timings in CHANGES.md).
_QUAT_MIN = 128
_NB = 8  # reflectors per panel of the quaternion reduction


@contextlib.contextmanager
def _blas_threads(count: int):
    """Run the body on ``count`` OpenBLAS threads, then restore the process-global
    count; nothing changes without numpy's OpenBLAS or when the count is ``count``."""
    before = _GET_THREADS() if _GET_THREADS and _SET_THREADS else count
    if before != count:
        _SET_THREADS(count)
    try:
        yield
    finally:
        if before != count:
            _SET_THREADS(before)


def _draw_threads(n: int):
    """One BLAS thread for a draw of order ``n`` below ``_QUAT_MIN``, else the process's."""
    return _blas_threads(1) if n < _QUAT_MIN else contextlib.nullcontext()


def _require_hermitian(A: np.ndarray) -> float:
    """``max |entry|`` of finite ``A`` (as in :func:`_hermitian_residual`) once it
    passes the check; a modulus past float range fails it as a non-finite entry."""
    scale, residual = _hermitian_residual(A)
    if not math.isfinite(scale):
        raise NotHermitianError("matrix entries must be finite")
    if not residual <= 1e-10 * max(scale, 1e-300):
        raise NotHermitianError(
            f"Hermitian residual {residual:.3e} exceeds 1e-10 * {scale:.3e}")
    return scale


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, by ``np.linalg.eigvalsh``.

    The input must be finite and Hermitian within ``1e-10 * max|entry|``; it
    is never modified.

    Raises
    ------
    NotHermitianError
        If an entry is not finite or the Hermitian residual precondition
        fails.
    """
    A = finite_array(_square_matrix(m), NotHermitianError, "matrix entries must be finite",
                     complex)
    _require_hermitian(A)
    return np.linalg.eigvalsh(A)


_ONE, _MINUS_ONE = np.ones(1, complex), -np.ones(1, complex)
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112  # CBLAS enums


def _quaternion_tridiagonal(w: SelfDualMatrix, overwrite: bool = False):
    """``(d, e, exp)``: ``2^exp`` times the symmetric tridiagonal ``(d, e)`` has the
    eigenvalues of self-dual ``w``, each once, found without the embedding.

    It works in the coefficient layout, the complex ``n x 2n`` matrix ``M`` with
    ``M[i, 2k] = z1[i, k]``, ``M[i, 2k + 1] = z2[i, k]`` for ``q = z1 + z2 j``,
    scaled by ``2^-exp`` to ``max|entry|`` near 1: a copy, or with ``overwrite``
    ``w``'s own array (``w.coeffs`` is then None).  Quaternion Householder
    reflections ``I - tau v v^*`` (``tau`` real) leave a real diagonal ``d`` and
    off-diagonal moduli ``e``; a diagonal quaternion phase makes it real.  ``A v``
    is ``M u`` for the interleaved columns ``u = [(v1, -conj v2), (v2, conj v1)]``,
    and ``A -= v y^* + y v^*`` is ``M -= P R^T`` for ``P = [v1 v2 y1 y2]`` and
    ``R[2i] = conj[y1 y2 v1 v2]``, ``R[2i + 1] = [-y2 y1 -v2 v1]``.  As in LAPACK's
    LATRD, a panel of ``_NB`` reflectors corrects its own rows and products on the
    fly and reaches the rest by one in-place GEMM.  Raises NotHermitianError as
    :func:`hermitian_eigenvalues` does for ``embed(w)``, leaving ``w`` as it was.
    """
    n, nb = w.n, _NB
    exp = max(math.frexp(_require_hermitian(w.coeffs))[1], -1000)  # 2^-exp is finite
    co = w.coeffs
    if overwrite:  # w is spent from here; its array is reduced in place unless a view
        w.coeffs = None
        co.setflags(write=co.base is None)
    M = co.view(complex).reshape(n, 2 * n)
    M = np.multiply(M, math.ldexp(1.0, -exp), out=M if overwrite and M.flags.writeable else None)
    d, e = np.empty(n), np.zeros(max(n - 1, 0))
    P = np.empty((n, 4 * nb), dtype=complex)
    R = np.empty((2 * n, 4 * nb), dtype=complex)
    U, Y = np.empty((2, 2 * n), dtype=complex), np.empty((2, n), dtype=complex)
    for k in range(0, n, nb):
        P[k:], R[2 * k:] = 0.0, 0.0
        for j in range(min(nb, n - k)):
            c = k + j
            row = M[c, 2 * c:] - R[2 * c:, :4 * j] @ P[c, :4 * j]  # less the panel's updates
            d[c] = row[0].real
            x = row[2:]  # column c below the diagonal is (conj z1, -z2) of row c
            r = math.sqrt(np.vdot(x, x).real)
            if r == 0.0:  # also past the last column
                continue
            e[c] = r
            # v = (x + s r e_1) / (|x_0| + r), s = x_0 / |x_0| (1 if x_0 = 0): H x = -s r e_1
            x0 = math.hypot(abs(x[0]), abs(x[1]))
            tau = (x0 + r) / r
            m = n - c - 1
            u, y = U[:, :2 * m], Y[:, :m]
            np.conjugate(x, out=u[0])
            np.negative(x[1::2], out=u[1, 0::2])
            u[1, 1::2] = x[0::2]
            u[:, 2:] /= x0 + r
            u[:, :2] = u[:, :2] / x0 if x0 else np.eye(2)
            # y = tau (A - panel) v, then y -= (tau / 2) (v^* y) v
            np.matmul(M[c + 1:, 2 * c + 2:], u[0], out=y[0])
            np.matmul(M[c + 1:, 2 * c + 2:], u[1], out=y[1])
            if j:
                y -= (u @ R[2 * c + 2:, :4 * j]) @ P[c + 1:, :4 * j].T
            y *= tau
            v = u[:, 0::2]
            y -= (0.5 * tau * np.vdot(v, y).real) * v
            P[c + 1:, 4 * j:4 * j + 2], P[c + 1:, 4 * j + 2:4 * j + 4] = v.T, y.T
            ry = R[2 * c + 2:, 4 * j:4 * j + 2]
            np.conjugate(y.T, out=ry[0::2])
            np.negative(y[1], out=ry[1::2, 0])
            ry[1::2, 1] = y[0]
            np.conjugate(u.T, out=R[2 * c + 2:, 4 * j + 2:4 * j + 4])
        s = k + nb
        if s < n:  # M[s:, 2s:] -= P[s:] R[2s:]^T
            _ZGEMM(_ROW_MAJOR, _NO_TRANS, _TRANS, n - s, 2 * (n - s), 4 * nb,
                   _MINUS_ONE.ctypes.data, P[s:].ctypes.data, 4 * nb, R[2 * s:].ctypes.data,
                   4 * nb, _ONE.ctypes.data, M[s:, 2 * s:].ctypes.data, 2 * n)
    return d, e, exp


def _quaternion_eigenvalues(w: SelfDualMatrix, overwrite: bool = False) -> np.ndarray:
    """The n eigenvalues of self-dual ``w``, ascending: LAPACK ``dsterf`` of
    :func:`_quaternion_tridiagonal`; LinAlgError if it does not converge."""
    d, e, exp = _quaternion_tridiagonal(w, overwrite)
    info = _DSTERF(d.size, d.ctypes.data, e.ctypes.data)
    if info:
        raise np.linalg.LinAlgError(f"dsterf failed with info={info}")
    return np.ldexp(d, exp)


def dedup_pairs(eigs: np.ndarray, tol: float):
    """Collapse a doubly degenerate sorted spectrum to one value per pair.

    Consecutive sorted values are paired greedily; the first of each pair is
    kept.  The pairing residual is the largest intra-pair gap relative to
    ``max(1, spectral radius)``.

    Raises
    ------
    PairingError
        If ``tol`` is not a real number >= 0, the list is not 1-D, has odd
        length or a non-finite value, or the residual is not within ``tol`` (a
        non-quaternionic input or an eigensolver failure).
    """
    tol = tolerance(tol, PairingError)
    eigs = finite_array(eigs, PairingError, "eigenvalues must be finite")
    if eigs.ndim != 1:
        raise PairingError(f"expected a 1-D spectrum, got shape {eigs.shape}")
    if eigs.size % 2:
        raise PairingError(f"expected an even number of eigenvalues, got {eigs.size}")
    if eigs.size == 0:
        return np.empty(0), 0.0
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
    def from_matrix(cls, w: SelfDualMatrix, *, overwrite: bool = False) -> "SpectralSample":
        """Spectrum of ``w``: from ``n = _QUAT_MIN`` up by the quaternion reduction,
        whose pairs are exact by construction (``pairing_residual`` 0.0); below
        it, or without ``cblas_zgemm`` or ``dsterf``, from the embedding.
        ``overwrite`` lets the reduction use ``w``'s own array once the input
        checks pass, and spends ``w`` (``w.coeffs`` None); by default, or if
        the checks reject it, ``w`` is left as it was."""
        n = w.n
        if n >= _QUAT_MIN and _ZGEMM is not None and _DSTERF is not None:
            dedup = _quaternion_eigenvalues(w, overwrite)
            return cls(n=n, eigenvalues_full=np.repeat(dedup, 2),
                       eigenvalues_dedup=dedup, pairing_residual=0.0)
        full = hermitian_eigenvalues(embed(w))
        if overwrite:
            w.coeffs = None
        dedup, residual = dedup_pairs(full, _PAIRING_TOL)
        return cls(n=n, eigenvalues_full=full, eigenvalues_dedup=dedup,
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
        points = finite_array(values, ValueError, "ESD support points must be finite")
        if points.ndim != 1:
            raise ValueError(f"ESD support points must be a 1-D list, got shape {points.shape}")
        self.points = np.sort(points)
        if self.points.size == 0:
            raise ValueError("ESD needs at least one support point")

    def cdf(self, x):
        """F(x) = fraction of points <= x (right-continuous); ValueError unless x is finite."""
        x = finite_array(x, ValueError, "x must be finite")
        return np.searchsorted(self.points, x, side="right") / self.points.size

    def cdf_left(self, x):
        """Left limit F(x-); ValueError unless x is finite."""
        x = finite_array(x, ValueError, "x must be finite")
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
    sigma = real(sigma, ValueError, "sigma must be positive and finite", positive)
    x = finite_array(x, ValueError, "x must be finite")
    out = np.zeros_like(x)
    inside = np.abs(x) < 2.0 * sigma
    out[inside] = np.sqrt(4.0 * sigma**2 - x[inside] ** 2) / (2.0 * math.pi * sigma**2)
    return out if out.ndim else float(out)


def semicircle_cdf(x, sigma: float = 1.0):
    """Closed-form semicircle CDF, clamped to {0, 1} outside the support."""
    sigma = real(sigma, ValueError, "sigma must be positive and finite", positive)
    x = finite_array(x, ValueError, "x must be finite")
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
        If there is no eigenvalue or one is not finite.
    """
    z = _upper_half_plane(z)
    eigs = finite_array(sample.eigenvalues_full if isinstance(sample, SpectralSample)
                        else sample, ValueError, "eigenvalues must be finite")
    if not eigs.size:
        raise ValueError("eigenvalues must be nonempty and finite")
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


def _cdf_values(g, x) -> np.ndarray:
    return finite_array(g(x), ValueError, "reference CDF values must be finite")


def _levy_feasible(f: ESD, g, eps: float, g_points: Optional[np.ndarray]) -> bool:
    slack = 1e-12
    if g_points is None:
        up = f.cdf(f.points) - _cdf_values(g, f.points + eps)
        down = _cdf_values(g, f.points - eps) - f.cdf_left(f.points)
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

    Raises
    ------
    ValueError
        If the reference CDF ``g`` returns a value that is not finite.
    """
    if isinstance(g, ESD):
        g_points = g.points
        hi = _ks_two_esds(f, g)
    else:
        g_points = None
        hi = _ks_to_cdf(f, _cdf_values(g, f.points))
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
    z = complex_number(z, DomainError, "z must be finite and off the real axis",
                       lambda z: cmath.isfinite(z) and z.imag != 0)
    A = finite_array(_square_matrix(m), ValueError, "matrix entries must be finite", complex)
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
    return _structure_report(resolvent(embed(w), z), z, tol)


def _structure_report(R: BlockMatrix, z: complex, tol: float) -> ResolventStructureReport:
    """The report of :func:`resolvent_structure_check` from the resolvent ``R`` at ``z``."""
    report: StructureReport = classify(R, tol)
    return ResolventStructureReport(
        z=z,
        passed=report.passes("TypeI"),
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
    return _trace_minor_report(resolvent(embed(w), z), z)


def _trace_minor_report(R: BlockMatrix, z: complex) -> TraceMinorReport:
    """The report of :func:`trace_minor_check` from the resolvent ``R`` at ``z``."""
    r = R.values
    n = r.shape[0] // 2
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
    bins = integer(bins, ValueError, "bins", 1)
    values = finite_array(values, ValueError, "histogram values must be nonempty and finite")
    if not values.size:
        raise ValueError("histogram values must be nonempty and finite")
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
