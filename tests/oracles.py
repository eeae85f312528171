"""Independent oracles used to pin expected values in the tests.

Nothing here shares code with the package's computational paths: eigenvalues
come from Sylvester inertia bisection on LDL factorizations, integrals from
adaptive quadrature, and truncated moments from explicit enumeration.  The
one exception is ``type2_inverse_by_loop``, the reference for how
``verify_type2_inverse`` batches its trials: it reuses ``make_type2`` and
``classify`` one trial at a time, so the two must agree to the bit.  The
whole-array forms of ``embed``, the coefficient assembly, the Hermitian
input check and the self-dual check at the end are the references for their
temporary-free versions, which must agree with them exactly.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import ldl

from quatspectra import structure


def count_eigs_below(a: np.ndarray, t: float) -> int:
    """Number of eigenvalues of Hermitian ``a`` strictly below ``t`` (LDL inertia)."""
    shifted = a - t * np.eye(a.shape[0])
    _, d, _ = ldl(shifted, hermitian=True)
    count = 0
    i = 0
    n = d.shape[0]
    while i < n:
        if i + 1 < n and d[i + 1, i] != 0:
            block = d[i:i + 2, i:i + 2]
            tr = block[0, 0].real + block[1, 1].real
            det = (block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]).real
            disc = max(tr * tr - 4.0 * det, 0.0) ** 0.5
            count += int((tr - disc) / 2 < 0) + int((tr + disc) / 2 < 0)
            i += 2
        else:
            count += int(d[i, i].real < 0)
            i += 1
    return count


def eigenvalues_by_bisection(a: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix by inertia bisection (ascending)."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    radius = float(np.abs(a).sum(axis=1).max()) + 1.0  # Gershgorin
    out = np.empty(n)
    for k in range(n):
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_eigs_below(a, mid) <= k:
                lo = mid
            else:
                hi = mid
        out[k] = 0.5 * (lo + hi)
    return out


def semicircle_cdf_by_quadrature(x: float, sigma: float = 1.0) -> float:
    """CDF of the semicircle density by adaptive quadrature."""
    def pdf(t):
        return np.sqrt(max(4 * sigma**2 - t * t, 0.0)) / (2 * np.pi * sigma**2)
    if x <= -2 * sigma:
        return 0.0
    val, _ = quad(pdf, -2 * sigma, min(x, 2 * sigma), limit=200)
    return val


def semicircle_stieltjes_by_quadrature(z: complex) -> complex:
    """Stieltjes transform of the unit semicircle by quadrature of pdf/(x - z)."""
    def pdf(t):
        return np.sqrt(max(4.0 - t * t, 0.0)) / (2 * np.pi)
    re, _ = quad(lambda t: pdf(t) * ((t - z) ** -1).real, -2, 2, limit=400)
    im, _ = quad(lambda t: pdf(t) * ((t - z) ** -1).imag, -2, 2, limit=400)
    return complex(re, im)


def two_point_truncated_mean(values, probs, c):
    """E[x I(||x|| <= c)] for i.i.d. two-point coefficients, by enumeration."""
    mean = np.zeros(4)
    for combo in itertools.product(range(len(values)), repeat=4):
        x = np.array([values[i] for i in combo])
        p = np.prod([probs[i] for i in combo])
        if np.linalg.norm(x) <= c:
            mean += p * x
    return mean


def gse_tail_second_moment_by_quadrature(c: float) -> float:
    """E[||x||^2 I(||x|| >= c)] for chi-square(4)/4 entry norms, by quadrature."""
    def integrand(t):
        return (t / 4.0) * (t * np.exp(-t / 2.0) / 4.0)
    val, _ = quad(integrand, 4.0 * c * c, np.inf, limit=200)
    return val


def normal_tail_second_moment_by_quadrature(c: float) -> float:
    """E[v^2 I(|v| >= c)] for a standard normal v, by quadrature."""
    def integrand(v):
        return v * v * np.exp(-v * v / 2.0) / np.sqrt(2.0 * np.pi)
    val, _ = quad(integrand, c, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return 2.0 * val


def type2_by_loop(n: int, t: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Dense Type-II matrix from ``make_type2``'s parameters, one block pair at a time.

    Block ``(j, k)``, ``j < k``, is ``B + C*1j`` with the quaternion-shaped
    parts ``B = [[a, b], [-conj(b), conj(a)]]`` and ``C`` likewise from
    ``(c, d)``; block ``(k, j)`` is its u-mirror ``B^* + C^* * 1j``, taken
    from these parts rather than by splitting the assembled block.
    """
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = t[j] * np.eye(2)
        for k in range(j + 1, n):
            a, b, c, d = coeffs[j, k]
            B = np.array([[a, b], [-np.conj(b), np.conj(a)]])
            C = np.array([[c, d], [-np.conj(d), np.conj(c)]])
            out[2 * j:2 * j + 2, 2 * k:2 * k + 2] = B + 1j * C
            out[2 * k:2 * k + 2, 2 * j:2 * j + 2] = B.conj().T + 1j * C.conj().T
    return out


def trace_minor_differences_by_minors(a: np.ndarray, z: complex) -> np.ndarray:
    """``|tr R - tr R_k|`` for each quaternion minor, one dense solve per minor.

    ``a`` is a ``2n x 2n`` embedding; minor ``k`` drops complex rows and
    columns ``2k`` and ``2k + 1``, and each resolvent is solved afresh.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0] // 2

    def trace_of_resolvent(m):
        eye = np.eye(m.shape[0], dtype=complex)
        return np.trace(np.linalg.solve(m - z * eye, eye))

    tr_full = trace_of_resolvent(a)
    diffs = np.empty(n)
    for k in range(n):
        keep = np.ones(2 * n, dtype=bool)
        keep[2 * k:2 * k + 2] = False
        diffs[k] = abs(tr_full - trace_of_resolvent(a[np.ix_(keep, keep)]))
    return diffs


def type2_inverse_by_loop(n: int, trials: int, seed: int,
                          tol: float = 1e-8) -> structure.InversionCheckReport:
    """``verify_type2_inverse`` one trial at a time, classifying every inverse.

    Each trial redraws from its own ``(seed, trial)`` stream until the draw's
    condition number is below ``structure._COND_LIMIT`` (read at call time),
    then checks the draw and, when it is well conditioned too, its
    ``t_1 = 0`` copy.  The witness is updated on a strictly larger residual.
    """
    def well_conditioned(a):
        sv = np.linalg.svd(a, compute_uv=False)
        return bool(sv[-1] > 0 and sv[0] / sv[-1] < structure._COND_LIMIT)

    passes = resamples = 0
    max_residual = 0.0
    worst_witness = None
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
        while True:
            t = rng.standard_normal(n) + 1j * (rng.standard_normal(n) + 1.0)
            coeffs = rng.standard_normal((n, n, 4)) + 1j * rng.standard_normal((n, n, 4))
            m = structure.make_type2(n, t, coeffs).values
            if well_conditioned(m):
                break
            resamples += 1
        zeroed = m.copy()
        zeroed[0, 0] = zeroed[1, 1] = 0.0  # t_1 = 0
        ok = True
        for a in [m] + ([zeroed] if well_conditioned(zeroed) else []):
            report = structure.classify(np.linalg.inv(a), tol)
            res = report.residuals["TypeI"]
            if res > max_residual:
                max_residual = res
                worst_witness = report.witness
            ok = ok and report.passes("TypeI")
        passes += int(ok)
    return structure.InversionCheckReport(n=n, trials=trials, passes=passes,
                                          resamples=resamples,
                                          max_residual=max_residual,
                                          worst_witness=worst_witness)


def embed_by_complex_parts(coeffs: np.ndarray) -> np.ndarray:
    """The ``2n x 2n`` embedding, built from whole ``lam``/``om`` complex arrays."""
    n = coeffs.shape[0]
    lam = coeffs[..., 0] + 1j * coeffs[..., 1]
    om = coeffs[..., 2] + 1j * coeffs[..., 3]
    out = np.empty((2 * n, 2 * n), dtype=complex)
    out[0::2, 0::2] = lam
    out[0::2, 1::2] = om
    out[1::2, 0::2] = -om.conj()
    out[1::2, 1::2] = lam.conj()
    return out


def assemble_by_fancy_indexing(n: int, off: np.ndarray, diag: np.ndarray,
                               scale: float) -> np.ndarray:
    """Scaled ``(n, n, 4)`` coefficients via ``triu_indices``, scaled after assembly."""
    co = np.zeros((n, n, 4))
    if n > 1:
        iu = np.triu_indices(n, 1)
        co[iu] = off
        co[iu[1], iu[0]] = off * np.array([1.0, -1.0, -1.0, -1.0])
    co[np.arange(n), np.arange(n), 0] = diag
    return co * scale


def hermitian_check_by_full_temporaries(a: np.ndarray):
    """``(max |a|, max |a - a^H|)`` from whole-matrix temporaries.

    The residual is None when an entry is not finite: the check raises then,
    before it subtracts.
    """
    a = np.asarray(a, dtype=complex)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if not math.isfinite(scale):
        return scale, None
    return scale, float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def self_dual_check_by_whole_arrays(coeffs: np.ndarray):
    """The message ``SelfDualMatrix.check`` raises for ``coeffs``, or None.

    Compares the whole array with its conjugated transpose, then the
    diagonal's imaginary parts with zero.
    """
    n = coeffs.shape[0]
    mirrored = coeffs.transpose(1, 0, 2) * np.array([1.0, -1.0, -1.0, -1.0])
    if not np.all(np.abs(coeffs - mirrored) <= 0.0):
        return "matrix is not self-dual: entry(k,j) != conj(entry(j,k))"
    diag = coeffs[np.arange(n), np.arange(n)]
    if not np.all(np.abs(diag[:, 1:]) <= 0.0):
        return "diagonal entries are not real quaternions"
    return None
