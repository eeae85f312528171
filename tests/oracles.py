"""Independent oracles used to pin expected values in the tests.

Nothing here shares code with the package's computational paths: eigenvalues
come from Sylvester inertia bisection on LDL factorizations, integrals from
adaptive quadrature, and truncated moments from explicit enumeration; a
tridiagonal matrix's eigenvalues are counted by its Sturm sequence.  The
one exception is ``type2_inverse_by_loop``, the reference for how
``verify_type2_inverse`` batches its trials: it reuses ``make_type2`` and
``classify`` one trial at a time, so the two must agree to the bit.  The
whole-array forms of ``embed``, the coefficient assembly, the Hermitian
input check and the self-dual check are the references for their
temporary-free versions, which must agree with them exactly.  A pipeline
stage's Levy bound is taken from the whole embedded difference.  The
verification suite's reuse of work has its references at the end: the
resolvent checks one public call at a time, the pipeline bounds with every
stage spectrum solved, the condition test by SVD alone, and the Type-I
deviations one block pair at a time; each must agree with the shared
version to the bit.  The u-mirror is built from the quaternion split of its
block, the way the u-relation is defined, as the check on the d-mirror that
the package computes for both relations.  The paper's lemma, that an
invertible Type-II matrix inverts to Type-I, is checked with no rounding at
all: Gauss-Jordan elimination over the Gaussian rationals (``fractions``).
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.linalg import ldl

from quatspectra import spectra, structure


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


def sturm_count(d: np.ndarray, e: np.ndarray, t: float) -> int:
    """Eigenvalues below ``t`` of the real symmetric tridiagonal ``(d, e)``.

    Counts the negative pivots of ``T - t I = L D L^T``, one row at a time
    (Sylvester inertia).  A zero pivot raises ZeroDivisionError; a random
    ``t`` does not meet one.
    """
    count, q = 0, 1.0
    for k, dk in enumerate(map(float, d)):
        q = dk - t - (float(e[k - 1]) ** 2 / q if k else 0.0)
        count += q < 0
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


def u_mirror_by_split(p: np.ndarray) -> np.ndarray:
    """The u-mirror ``B^* + C^* * 1j`` of one 2x2 block ``p = B + C*1j``.

    ``B = [[b1, b2], [-conj(b2), conj(b1)]]`` and ``C`` likewise from
    ``(c1, c2)`` are solved for from the four entries of ``p``, then
    recombined with their conjugate transposes.
    """
    p = np.asarray(p, dtype=complex)
    b1 = (p[0, 0] + np.conj(p[1, 1])) / 2
    c1 = (p[0, 0] - np.conj(p[1, 1])) / 2j
    b2 = (p[0, 1] - np.conj(p[1, 0])) / 2
    c2 = (p[0, 1] + np.conj(p[1, 0])) / 2j
    B = np.array([[b1, b2], [-np.conj(b2), np.conj(b1)]])
    C = np.array([[c1, c2], [-np.conj(c2), np.conj(c1)]])
    return B.conj().T + 1j * C.conj().T


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

    Each trial builds its own generator, ``default_rng(SeedSequence((seed,
    trial)))``, whose states the check derives in a pass of its own, and
    redraws from it until the draw's condition number is below
    ``structure._COND_LIMIT`` (read at call time),
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


def levy_cube_bound_by_embedding(old, new) -> float:
    """``tr(D D^*) / (2n)`` for ``D = embed(new) - embed(old)``, from whole matrices."""
    D = embed_by_complex_parts(new.coeffs) - embed_by_complex_parts(old.coeffs)
    return float(np.trace(D @ D.conj().T).real / (2 * old.n))


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


def assemble_scaled_first(n: int, off: np.ndarray, diag: np.ndarray,
                          scale: float) -> np.ndarray:
    """Scaled ``(n, n, 4)`` coefficients via ``triu_indices``, from draws scaled first."""
    return assemble_by_fancy_indexing(n, off * scale, diag * scale, 1.0)


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


def resolvent_checks_by_public_calls(w, config, names):
    """``experiment._resolvent_checks`` with one public check call, and so one
    resolvent, per check and grid point: at each point in z order, the
    structure result, then the trace-minor result."""
    for z in config.z_grid:
        if "resolvent_structure" in names:
            report = spectra.resolvent_structure_check(w, z, config.check_tol)
            yield ("resolvent_structure", z, report.passed, report.max_residual,
                   {"residual": report.max_residual})
        if "trace_minor" in names:
            report = spectra.trace_minor_check(w, z)
            yield ("trace_minor", z, report.passed, report.max_difference / report.bound,
                   {"max_difference": report.max_difference, "bound": report.bound})


def pipeline_bounds_with_every_spectrum(spec, w=None):
    """``experiment.check_pipeline_bounds`` solving all five stage spectra."""
    from quatspectra.ensemble import run_pipeline
    _, trace = run_pipeline(spec, w, keep_matrices=True)
    esds = [spectra.ESD(spectra.SpectralSample.from_matrix(m).eigenvalues_full)
            for _, m in trace.matrices]
    outcomes = []
    for record, prev, cur in zip(trace.stages, esds, esds[1:]):
        dist = spectra.levy_distance(prev, cur)
        entry = {"stage": record.name, "levy": dist,
                 "levy_cube_bound": record.levy_cube_bound,
                 "levy_ok": dist**3 <= record.levy_cube_bound + 4 * spectra._LEVY_TOL}
        if record.name == "truncate":
            sup = spectra._ks_two_esds(prev, cur)
            entry.update(sup_distance=sup, rank_bound=record.rank_bound,
                         rank_ok=sup <= record.rank_bound + 1e-9)
        outcomes.append(entry)
    return outcomes


def invert_by_svd_test(stack: np.ndarray):
    """Which matrices of a stack have ``cond_2`` below ``structure._COND_LIMIT``
    (by SVD alone), and their inverses, one ``np.linalg.inv`` call per matrix."""
    well = structure._well_conditioned(stack)
    inverses = [np.linalg.inv(a) if ok else None for a, ok in zip(stack, well)]
    return well, inverses


def type1_deviations_by_blocks(values: np.ndarray) -> tuple:
    """``structure._type1_deviations`` of one ``2n x 2n`` matrix, one block at a time.

    Block ``(k, j)`` is compared with the d-mirror ``[[p22, -p12], [-p21, p11]]``
    of block ``p = (j, k)``, written out here rather than read from the table
    that ``d_partner`` and the stacked version share, and the deviations are
    relative to the largest entry modulus (1 for a zero matrix); ``d_dev``
    has zeros on its diagonal.
    """
    n = values.shape[0] // 2
    block = lambda j, k: values[2 * j:2 * j + 2, 2 * k:2 * k + 2]
    mirror = lambda p: np.array([[p[1, 1], -p[0, 1]], [-p[1, 0], p[0, 0]]])
    scale = np.abs(values).max()
    denom = scale if scale > 0 else 1.0
    diag_dev = np.zeros(n)
    for j in range(n):
        b = block(j, j)
        diag_dev[j] = np.abs([b[0, 1], b[1, 0], b[0, 0] - b[1, 1]]).max() / denom
    d_dev = np.zeros((n, n))
    for j, k in itertools.permutations(range(n), 2):
        d_dev[j, k] = np.abs(block(k, j) - mirror(block(j, k))).max() / denom
    return scale, diag_dev, d_dev


# Gaussian rationals: a complex number as its (real, imaginary) pair of Fractions.
_G0, _G1 = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


def gaussian_rationals(values: np.ndarray) -> list:
    """A complex array whose parts are integers, as rows of Gaussian rationals."""
    assert np.array_equal(values, np.round(values.real) + 1j * np.round(values.imag))
    return [[(Fraction(int(v.real)), Fraction(int(v.imag))) for v in row] for row in values]


def _g_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _g_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def exact_matmul(a: list, b: list) -> list:
    """The product of two matrices of Gaussian rationals."""
    out = [[_G0] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            for j, y in enumerate(b[k]):
                if x != _G0 and y != _G0:
                    p = _g_mul(x, y)
                    out[i][j] = (out[i][j][0] + p[0], out[i][j][1] + p[1])
    return out


def exact_inverse(a: list):
    """The inverse of a square matrix of Gaussian rationals by Gauss-Jordan
    elimination with exact arithmetic; None if the matrix is singular."""
    m = len(a)
    rows = [list(row) + [_G1 if i == j else _G0 for j in range(m)] for i, row in enumerate(a)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != _G0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        re, im = rows[col][col]
        inv = (re / (re * re + im * im), -im / (re * re + im * im))
        rows[col] = [_g_mul(inv, x) for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != _G0:
                factor = rows[r][col]
                rows[r] = [_g_sub(x, _g_mul(factor, y)) for x, y in zip(rows[r], rows[col])]
    return [row[m:] for row in rows]


@functools.lru_cache
def _e_and_inverse(m: int) -> tuple:
    """``E = I_n (x) J`` of order ``m = 2n``, ``J = [[0, 1], [-1, 0]]``, and its
    inverse, solved for rather than assumed."""
    e = [[_G0] * m for _ in range(m)]
    for k in range(0, m, 2):
        e[k][k + 1], e[k + 1][k] = _G1, (Fraction(-1), Fraction(0))
    return e, exact_inverse(e)


def j_transpose(x: list) -> list:
    """``E X^T E^-1`` of a matrix of Gaussian rationals: it is Type-I exactly
    when it equals this."""
    e, e_inv = _e_and_inverse(len(x))
    return exact_matmul(exact_matmul(e, [list(col) for col in zip(*x)]), e_inv)
