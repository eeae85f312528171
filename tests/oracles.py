"""Independent oracles used to pin expected values in the tests.

Nothing here shares code with the package's computational paths: eigenvalues
come from Sylvester inertia bisection on LDL factorizations, integrals from
adaptive quadrature, and truncated moments from explicit enumeration.
"""

import itertools

import numpy as np
from scipy.integrate import quad
from scipy.linalg import ldl


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
