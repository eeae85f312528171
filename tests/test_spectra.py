import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from quatspectra import spectra
from quatspectra.ensemble import (EnsembleSpec, EtaSchedule, GSECoefficients,
                                  RademacherCoefficients, SelfDualMatrix,
                                  TwoPointCoefficients, UniformCoefficients,
                                  run_pipeline, sample_general, sample_gse)
from quatspectra.spectra import (ESD, DomainError, NotHermitianError,
                                 PairingError, SpectralSample, dedup_pairs,
                                 embed, empirical_stieltjes, esd_to_csv,
                                 hermitian_eigenvalues, histogram_csv,
                                 kolmogorov_distance, levy_distance, resolvent,
                                 resolvent_structure_check, semicircle_cdf,
                                 semicircle_pdf, semicircle_stieltjes,
                                 trace_minor_check)
from quatspectra.experiment import (ConfigError, ExperimentConfig,
                                    default_verify_config)
from quatspectra.structure import classify

from oracles import (count_eigs_below, eigenvalues_by_bisection,
                     embed_by_complex_parts, hermitian_check_by_full_temporaries,
                     semicircle_cdf_by_quadrature,
                     semicircle_stieltjes_by_quadrature,
                     trace_minor_differences_by_minors)


def constant_matrix(n, a, scale=1.0):
    co = np.zeros((n, n, 4))
    co[np.arange(n), np.arange(n), 0] = a * scale
    return SelfDualMatrix(co, scale)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embed_scalar():
    w = constant_matrix(1, 5.0)
    assert np.array_equal(embed(w).values, 5.0 * np.eye(2))


def test_embed_is_exactly_hermitian():
    w = sample_gse(50, seed=1)
    A = embed(w).values
    assert np.max(np.abs(A - A.conj().T)) == 0.0


def test_embedding_shifted_is_type2():
    w = sample_gse(50, seed=2)
    A = embed(w).values - 1j * np.eye(100)
    assert classify(A, tol=1e-12).classification == "TypeII"


TILE = spectra._TILE
# Quaternion orders n whose embeddings (order 2n) end just before, on and just
# after a tile edge, and several tiles on.
TILE_ORDERS = [1, 2, 3, 2 * TILE - 1, 2 * TILE, 2 * TILE + 1, 4 * TILE + 3]
LAWS = [GSECoefficients(), RademacherCoefficients(), TwoPointCoefficients(-1.0, 3.0, 0.25)]


@pytest.mark.parametrize("n", TILE_ORDERS)
@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
def test_embed_matches_complex_parts_oracle(law, n):
    w = sample_general(EnsembleSpec(n=n, distribution=law, seed=n))
    assert np.array_equal(embed(w).values, embed_by_complex_parts(w.coeffs))


# ---------------------------------------------------------------------------
# eigensolvers
# ---------------------------------------------------------------------------

def test_eigenvalues_of_diagonal():
    m = np.diag([4.0, 2.0, 1.0, 3.0]).astype(complex)
    assert np.allclose(hermitian_eigenvalues(m), [1, 2, 3, 4], atol=1e-14)


def test_eigenvalues_scalar_self_dual():
    w = constant_matrix(1, 2.0)
    assert np.allclose(hermitian_eigenvalues(embed(w)), [2.0, 2.0])


def test_eigenvalues_match_inertia_bisection_oracle():
    w = sample_gse(6, seed=3)
    A = embed(w).values
    oracle = eigenvalues_by_bisection(A)
    assert np.max(np.abs(hermitian_eigenvalues(A) - oracle)) <= 1e-9


def test_eigenvalues_match_bisection_on_general_hermitian():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 7, 30):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (A + A.conj().T) / 2
        a = hermitian_eigenvalues(A)
        b = eigenvalues_by_bisection(A)
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.abs(a).max())
        assert a.sum() == pytest.approx(np.trace(A).real, abs=1e-9 * max(1, n))


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_eigenvalues_reject_non_finite(bad):
    # NaN compares False with any tolerance, so the residual test alone
    # cannot catch it.
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.diag([bad, 1.0, 1.0, 1.0]))


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


TWO_STAGE_MIN = spectra._TWO_STAGE_MIN
needs_two_stage = pytest.mark.skipif(spectra._TWO_STAGE is None,
                                     reason="numpy's LAPACK has no zheevd_2stage")


@pytest.fixture(scope="module", params=["gse_min", "gse_1600", "hermitian_odd"])
def large_hermitian(request):
    """A matrix on the two-stage side of the crossover, with its ``eigvalsh``."""
    if request.param == "gse_min":
        A = embed(sample_gse(TWO_STAGE_MIN // 2, seed=11)).values
    elif request.param == "gse_1600":
        A = embed(sample_gse(800, seed=12)).values
    else:
        A = _random_hermitian(TWO_STAGE_MIN + 1, seed=13)
    return A, np.linalg.eigvalsh(A)


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(spectra, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(spectra, name, counted)
    return calls


@needs_two_stage
def test_two_stage_path_matches_eigvalsh_and_inertia(large_hermitian, monkeypatch):
    A, reference = large_hermitian
    calls = _counting(monkeypatch, "_TWO_STAGE")
    got = hermitian_eigenvalues(A)
    assert len(calls) == 1
    assert np.max(np.abs(got - reference)) <= 1e-12 * max(1.0, np.abs(reference).max())
    # Midpoints after every 2nd eigenvalue avoid the pairs of an embedding.
    N = A.shape[0]
    for k in (2 * (j * N // 12) + 1 for j in range(1, 6)):
        assert count_eigs_below(A, 0.5 * (got[k] + got[k + 1])) == k + 1
    assert np.array_equal(hermitian_eigenvalues(A), got)


def test_eigvalsh_path_without_two_stage_driver(large_hermitian, monkeypatch):
    A, reference = large_hermitian
    monkeypatch.setattr(spectra, "_TWO_STAGE", None)
    assert np.array_equal(hermitian_eigenvalues(A), reference)


def test_eigvalsh_path_below_crossover(monkeypatch):
    A = _random_hermitian(TWO_STAGE_MIN - 1, seed=14)
    calls = _counting(monkeypatch, "_TWO_STAGE")
    assert np.array_equal(hermitian_eigenvalues(A), np.linalg.eigvalsh(A))
    assert calls == []


def _no_lapack(*args):
    raise AssertionError("LAPACK reached")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_two_stage_side_rejects_non_finite_before_lapack(bad, monkeypatch):
    monkeypatch.setattr(spectra, "_TWO_STAGE", _no_lapack)
    A = _random_hermitian(TWO_STAGE_MIN, seed=15)
    A[3, 7] = bad
    with pytest.raises(NotHermitianError, match="finite"):
        hermitian_eigenvalues(A)


def test_two_stage_failure_raises_linalg_error(monkeypatch):
    monkeypatch.setattr(spectra, "_TWO_STAGE", lambda *args: 1)
    with pytest.raises(np.linalg.LinAlgError, match="info=1"):
        hermitian_eigenvalues(_random_hermitian(TWO_STAGE_MIN, seed=16))


def _check_outcome(A, monkeypatch):
    """``hermitian_eigenvalues(A)`` with LAPACK stubbed out: None or the error text."""
    monkeypatch.setattr(spectra, "_TWO_STAGE", lambda *args: 0)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.zeros(len(a)))
    try:
        hermitian_eigenvalues(A)
    except NotHermitianError as exc:
        return str(exc)
    return None


def _oracle_outcome(A):
    scale, residual = hermitian_check_by_full_temporaries(A)
    if residual is None:
        return "matrix entries must be finite"
    if not residual <= 1e-10 * max(scale, 1e-300):
        return f"Hermitian residual {residual:.3e} exceeds 1e-10 * {scale:.3e}"
    return None


def _spoilt_copies(A):
    """``A`` with one entry changed on each side of a tile edge.

    The changes are a rounding-level perturbation (passes), a large one
    (fails the residual test), NaN and an infinite real or imaginary part.
    """
    N = A.shape[0]
    cells = {(0, 0), (N - 1, 0)} | {(r, c) for r in (TILE - 1, TILE) for c in (TILE - 1, TILE)
                                    if max(r, c) < N}
    scale = max(1.0, float(np.abs(A).max()))
    for cell in sorted(cells):
        for change in (1e-13 * scale, 1e-6 * scale, math.nan, math.inf, complex(0, -math.inf)):
            B = A.copy()
            B[cell] += change
            yield B


def _assert_check_matches_oracle(A, monkeypatch):
    for B in itertools.chain([A], _spoilt_copies(A)):  # one copy alive at a time
        scale, residual = hermitian_check_by_full_temporaries(B)
        if residual is None:
            with pytest.raises(NotHermitianError, match="finite"):
                spectra._hermitian_residual(B)
        else:
            assert spectra._hermitian_residual(B) == (scale, residual)
        assert _check_outcome(B, monkeypatch) == _oracle_outcome(B)


@pytest.mark.parametrize("n", TILE_ORDERS)
@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
def test_tiled_hermitian_check_matches_full_temporaries(law, n, monkeypatch):
    w = sample_general(EnsembleSpec(n=n, distribution=law, seed=n))
    _assert_check_matches_oracle(embed(w).values, monkeypatch)


@pytest.mark.parametrize("order", [TWO_STAGE_MIN - 1, TWO_STAGE_MIN])
def test_tiled_hermitian_check_around_the_two_stage_crossover(order, monkeypatch):
    # A general Hermitian matrix, of odd order on one side of the crossover.
    _assert_check_matches_oracle(_random_hermitian(order, seed=order), monkeypatch)


@needs_two_stage
def test_spectral_sample_peak_memory_is_one_embedding():
    # Order 600 goes to zheevd_2stage, which overwrites the embedding
    # itself; the input check works in tiles.  LAPACK's own workspace is not
    # allocated through Python.
    w = sample_gse(300, seed=21)
    embedding_bytes = 16 * (2 * w.n) ** 2
    tracemalloc.start()
    try:
        SpectralSample.from_matrix(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * embedding_bytes


BOTH_DRIVERS = [200, 600]  # orders below and above _TWO_STAGE_MIN


def _embedded_gse(order, seed):
    return embed(sample_gse(order // 2, seed=seed)).values


@pytest.mark.parametrize("order", BOTH_DRIVERS)
def test_eigenvalues_leave_the_input_alone_by_default(order):
    A = _embedded_gse(order, seed=23)
    before = A.copy()
    hermitian_eigenvalues(A)
    assert A.tobytes() == before.tobytes()


@pytest.mark.parametrize("order", BOTH_DRIVERS)
def test_overwrite_a_gives_the_same_eigenvalues(order):
    A = _embedded_gse(order, seed=24)
    expected = hermitian_eigenvalues(A)
    B = A.copy()
    got = hermitian_eigenvalues(B, overwrite_a=True)
    assert got.tobytes() == expected.tobytes()
    if spectra._TWO_STAGE is not None and order >= TWO_STAGE_MIN:
        assert not np.array_equal(B, A)  # LAPACK worked in the caller's array


@pytest.mark.parametrize("change", [1e-6, math.nan, math.inf])
@pytest.mark.parametrize("order", BOTH_DRIVERS)
def test_rejected_input_is_not_overwritten(order, change, monkeypatch):
    monkeypatch.setattr(spectra, "_TWO_STAGE", _no_lapack)
    A = _random_hermitian(order, seed=25)
    A[order - 1, 0] += change
    before = A.copy()
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(A, overwrite_a=True)
    assert A.tobytes() == before.tobytes()


@needs_two_stage
def test_overwrite_a_copies_input_it_cannot_overwrite():
    A = _random_hermitian(TWO_STAGE_MIN + 8, seed=26)
    expected = hermitian_eigenvalues(A)
    padded = np.zeros((2 * A.shape[0], A.shape[0]), dtype=complex)
    padded[::2] = A
    strided, fortran, read_only = padded[::2], np.asfortranarray(A), A.copy()
    read_only.setflags(write=False)
    owners = (padded, fortran, read_only)
    snapshots = [B.copy() for B in owners]
    for B in (strided, fortran, read_only):
        assert hermitian_eigenvalues(B, overwrite_a=True).tobytes() == expected.tobytes()
    assert all(np.array_equal(B, snap) for B, snap in zip(owners, snapshots))
    # A real symmetric float64 input is converted to complex, and left alone.
    S = np.ascontiguousarray(A.real)
    S_before = S.copy()
    got = hermitian_eigenvalues(S, overwrite_a=True)
    assert got.tobytes() == hermitian_eigenvalues(S.astype(complex)).tobytes()
    assert S.tobytes() == S_before.tobytes()
    assert np.max(np.abs(got - np.linalg.eigvalsh(S))) <= 1e-12 * np.abs(got).max()


def test_trace_identity_zero_diagonal():
    w = sample_gse(40, seed=5)
    co = w.coeffs.copy()
    co[np.arange(40), np.arange(40)] = 0.0
    wz = SelfDualMatrix(co, w.scale)
    eigs = hermitian_eigenvalues(embed(wz))
    assert abs(eigs.sum()) <= 1e-9


# ---------------------------------------------------------------------------
# pair deduplication
# ---------------------------------------------------------------------------

def test_dedup_exact_pairs():
    dedup, residual = dedup_pairs(np.array([1.0, 1.0, 2.0, 2.0]), tol=0.0)
    assert np.array_equal(dedup, [1.0, 2.0])
    assert residual == 0.0


def test_dedup_near_degenerate():
    eigs = np.array([1.0, 1.0 + 1e-12, 3.0, 3.0 + 1e-12])
    dedup, residual = dedup_pairs(eigs, tol=1e-8)
    assert np.array_equal(dedup, [1.0, 3.0])
    assert residual <= 1e-12 / 3.0 * 3.1


def test_dedup_rejects_unpaired_spectrum():
    with pytest.raises(PairingError):
        dedup_pairs(np.array([1.0, 2.0, 3.0, 4.0]), tol=1e-8)
    with pytest.raises(PairingError):
        dedup_pairs(np.array([1.0, 2.0, 3.0]), tol=1e-8)


def test_dedup_rejects_nan_spectrum():
    with pytest.raises(PairingError):
        dedup_pairs(np.array([math.nan, math.nan, 1.0, 1.0]), tol=1e-8)
    # inf - inf in the pair gaps must not warn before the error
    with pytest.raises(PairingError, match="finite"):
        dedup_pairs(np.array([1.0, 1.0, math.inf, math.inf]), tol=1e-8)


def test_pair_degeneracy_of_sampled_ensembles():
    for seed in range(5):
        w = sample_gse(30, seed=seed)
        sample = SpectralSample.from_matrix(w)
        assert sample.pairing_residual <= 1e-8
        assert sample.eigenvalues_dedup.size == 30
        assert sample.eigenvalues_full.size == 60


# ---------------------------------------------------------------------------
# semicircle reference
# ---------------------------------------------------------------------------

def test_semicircle_pdf_values():
    assert semicircle_pdf(0.0) == pytest.approx(1 / math.pi, rel=1e-12)
    assert semicircle_pdf(2.0) == 0.0
    assert semicircle_pdf(-2.0) == 0.0
    assert semicircle_pdf(2.9, sigma=1.5) != 0.0
    with pytest.raises(ValueError):
        semicircle_pdf(0.0, sigma=0.0)


def test_semicircle_pdf_integrates_to_one():
    val, _ = quad(lambda t: semicircle_pdf(t), -2, 2, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_semicircle_cdf_values():
    assert semicircle_cdf(0.0) == 0.5
    assert semicircle_cdf(2.0) == 1.0
    assert semicircle_cdf(-2.0) == 0.0
    assert semicircle_cdf(5.0) == 1.0
    # frozen from the quadrature oracle (0.80449889052211468 to 17 digits)
    assert semicircle_cdf(1.0) == pytest.approx(0.8044988905221147, abs=1e-12)
    assert semicircle_cdf(1.0) == pytest.approx(semicircle_cdf_by_quadrature(1.0),
                                                abs=1e-12)


def test_semicircle_cdf_matches_quadrature_on_grid():
    for x in np.linspace(-1.9, 1.9, 13):
        assert semicircle_cdf(x) == pytest.approx(
            semicircle_cdf_by_quadrature(x), abs=1e-12)


def test_semicircle_stieltjes_reference_points():
    # frozen values, double-checked by quadrature of pdf / (x - z)
    s_i = semicircle_stieltjes(1j)
    assert s_i == pytest.approx(1j * (math.sqrt(5) - 1) / 2, abs=1e-14)
    assert s_i == pytest.approx(semicircle_stieltjes_by_quadrature(1j), abs=1e-9)
    s_2i = semicircle_stieltjes(2j)
    assert s_2i == pytest.approx(1j * (math.sqrt(2) - 1), abs=1e-14)
    assert s_2i == pytest.approx(semicircle_stieltjes_by_quadrature(2j), abs=1e-9)


def test_semicircle_stieltjes_fixed_point_and_branch():
    rng = np.random.default_rng(6)
    zs = rng.uniform(-3, 3, 100) + 1j * rng.uniform(0.05, 3, 100)
    for z in zs:
        s = semicircle_stieltjes(z)
        assert s.imag > 0
        assert abs(s + 1 / (z + s)) <= 1e-12


def test_semicircle_stieltjes_domain():
    with pytest.raises(DomainError):
        semicircle_stieltjes(1.0)
    with pytest.raises(DomainError):
        semicircle_stieltjes(1 - 1j)


# ---------------------------------------------------------------------------
# empirical transform
# ---------------------------------------------------------------------------

def test_empirical_stieltjes_single_pair():
    a, z = 1.5, 0.3 + 0.7j
    point = empirical_stieltjes(np.array([a, a]), z)
    assert point.value == pytest.approx(1 / (a - z), rel=1e-14)


def test_empirical_stieltjes_positive_imaginary():
    w = sample_gse(20, seed=7)
    sample = SpectralSample.from_matrix(w)
    for z in (1j, 2j, 1 + 1j, -1 + 1j, 0.1 + 0.05j):
        assert empirical_stieltjes(sample, z).value.imag > 0


def test_empirical_stieltjes_matches_resolvent_trace():
    for seed in range(3):
        w = sample_gse(30, seed=seed)
        sample = SpectralSample.from_matrix(w)
        for z in (1j, 1 + 1j):
            s_eig = empirical_stieltjes(sample, z).value
            s_res = np.trace(resolvent(embed(w), z).values) / 60
            assert abs(s_eig - s_res) <= 1e-9


def test_empirical_stieltjes_domain():
    with pytest.raises(DomainError):
        empirical_stieltjes(np.array([1.0, 1.0]), 1.0 - 0.5j)
    # 1/(nan - z) would turn the whole transform into NaN
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            empirical_stieltjes(np.array([bad, 1.0]), 1j)


def test_shifted_transform_magnitude_lower_bound():
    # |z + s(z)| >= Im(z + s(z)) >= Im z for any transform of a real measure
    w = sample_gse(25, seed=18)
    sample = SpectralSample.from_matrix(w)
    for z in (1j, 2j, 1 + 1j, 0.4 + 0.3j):
        for s in (empirical_stieltjes(sample, z).value, semicircle_stieltjes(z)):
            assert abs(z + s) >= z.imag


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_kolmogorov_of_quantile_construction():
    n = 1000
    # quantiles F^{-1}((i - 1/2) / n) via bisection on the closed-form CDF
    targets = (np.arange(1, n + 1) - 0.5) / n
    points = np.empty(n)
    for i, q in enumerate(targets):
        lo, hi = -2.0, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if semicircle_cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        points[i] = 0.5 * (lo + hi)
    d = kolmogorov_distance(ESD(points))
    assert d <= 1 / (2 * n) + 1e-6


def test_kolmogorov_single_atom():
    a = 0.4
    d = kolmogorov_distance(ESD([a]))
    assert d == pytest.approx(max(semicircle_cdf(a), 1 - semicircle_cdf(a)), rel=1e-12)


def test_kolmogorov_gse_draw():
    w = sample_gse(1000, seed=8)
    sample = SpectralSample.from_matrix(w)
    assert kolmogorov_distance(ESD(sample.eigenvalues_dedup)) <= 0.06


def test_levy_identical_is_zero():
    e = ESD([0.0, 1.0, 2.0])
    assert levy_distance(e, e) == 0.0


def test_levy_of_shift_is_bounded_by_shift():
    rng = np.random.default_rng(9)
    points = rng.standard_normal(200)
    for delta in (0.01, 0.1, 0.5):
        f = ESD(points)
        g = ESD(points + delta)
        d = levy_distance(f, g)
        assert d <= delta + 1e-6
        assert d > 0


def test_levy_never_exceeds_kolmogorov():
    rng = np.random.default_rng(10)
    for _ in range(5):
        f = ESD(rng.standard_normal(100))
        g = ESD(rng.standard_normal(150) * 1.3 + 0.2)
        grid = np.concatenate([f.points, g.points])
        ks = np.max(np.abs(f.cdf(grid) - g.cdf(grid)))
        assert levy_distance(f, g) <= ks + 1e-12


def test_levy_against_continuous_reference():
    w = sample_gse(200, seed=11)
    sample = SpectralSample.from_matrix(w)
    esd = ESD(sample.eigenvalues_dedup)
    lev = levy_distance(esd, semicircle_cdf)
    kol = kolmogorov_distance(esd)
    assert 0 <= lev <= kol + 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distances_reject_non_finite_points(bad):
    # A non-finite point would turn both distances into nan.
    with pytest.raises(ValueError, match="finite"):
        kolmogorov_distance(ESD([0.1, bad, -0.2]))
    with pytest.raises(ValueError, match="finite"):
        levy_distance(ESD([0.1, bad, -0.2]), semicircle_cdf)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("fn", [semicircle_pdf, semicircle_cdf,
                                lambda x, sigma: kolmogorov_distance(ESD([x]), sigma)],
                         ids=["pdf", "cdf", "kolmogorov"])
def test_semicircle_rejects_bad_sigma(fn, sigma):
    # NaN compares False with 0 and inf puts nan into the formulas.
    with pytest.raises(ValueError, match="sigma"):
        fn(0.1, sigma=sigma)


# ---------------------------------------------------------------------------
# resolvent diagnostics
# ---------------------------------------------------------------------------

def test_resolvent_closed_forms():
    z = 1j
    r = resolvent(np.zeros((2, 2), dtype=complex), z)
    assert np.allclose(r.values, 1j * np.eye(2), atol=1e-15)
    r2 = resolvent(np.eye(2, dtype=complex), z)
    assert np.allclose(r2.values, (1 + 1j) / 2 * np.eye(2), atol=1e-15)
    with pytest.raises(DomainError):
        resolvent(np.eye(2, dtype=complex), 0.5)


def _nan_entry_matrix():
    co = sample_gse(3, seed=0).coeffs.copy()
    co[1, 1, 0] = math.nan
    return SelfDualMatrix(co, 1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: resolvent(np.array([[math.nan, 0.0], [0.0, 1.0]]), 1j), "matrix entries"),
    (lambda: resolvent(np.diag([math.inf, 1.0]), 1j), "matrix entries"),
    (lambda: resolvent(np.ones((2, 4)), 1j), "square"),
    (lambda: resolvent_structure_check(_nan_entry_matrix(), 1j), "matrix entries"),
    (lambda: trace_minor_check(_nan_entry_matrix(), 1j), "matrix entries"),
], ids=["nan", "inf", "non_square", "resolvent_structure_check", "trace_minor_check"])
def test_resolvent_rejects_bad_matrix(call, match):
    # solve() turns a NaN entry into an all-NaN resolvent, and the checks
    # would then fail later with an error that does not name the input.
    with pytest.raises(ValueError, match=match):
        call()


def test_resolvent_residual_is_small():
    w = sample_gse(12, seed=12)
    A = embed(w).values
    for z in (1j, 0.5 + 0.2j):
        R = resolvent(A, z).values
        shifted = A - z * np.eye(24)
        res = np.max(np.abs(shifted @ R - np.eye(24)))
        assert res <= 1e-10 * (1 + 1 / abs(z.imag))


def test_resolvent_structure_scalar_case():
    w = constant_matrix(1, 3.0)
    report = resolvent_structure_check(w, 1j, tol=1e-12)
    assert report.passed
    assert report.max_residual <= 1e-15


def test_resolvent_structure_gse_and_rademacher():
    w = sample_gse(10, seed=13)
    report = resolvent_structure_check(w, 1j, tol=1e-8)
    assert report.passed and report.passing[0] in ("TypeI", "TypeII")

    spec = EnsembleSpec(n=10, distribution=RademacherCoefficients(), seed=14)
    wr = sample_general(spec)
    report2 = resolvent_structure_check(wr, 0.5 + 0.1j, tol=1e-8)
    assert report2.passed
    assert set(report2.to_json()) == {"z", "passed", "classification",
                                      "passing", "max_residual", "witness"}


def test_resolvent_structure_domain():
    with pytest.raises(DomainError):
        resolvent_structure_check(sample_gse(3, 0), 1 - 1j)


def _config_with_z(z):
    obj = default_verify_config().to_json()
    obj["z_grid"] = [[z.real, z.imag]]
    return ExperimentConfig.from_json(obj)


@pytest.mark.parametrize("z", [complex(0, math.nan), complex(math.nan, 1),
                               complex(0, math.inf)], ids=["nan_im", "nan_re", "inf_im"])
@pytest.mark.parametrize("call, error", [
    (semicircle_stieltjes, DomainError),
    (lambda z: empirical_stieltjes(np.array([1.0, 1.0]), z), DomainError),
    (lambda z: resolvent(np.eye(2), z), DomainError),
    (lambda z: resolvent_structure_check(sample_gse(3, 0), z), DomainError),
    (lambda z: trace_minor_check(sample_gse(3, 0), z), DomainError),
    (_config_with_z, ConfigError),
], ids=["semicircle_stieltjes", "empirical_stieltjes", "resolvent",
        "resolvent_structure_check", "trace_minor_check", "config"])
def test_non_finite_spectral_parameter_is_rejected(call, error, z):
    with pytest.raises(error):
        call(z)


def test_trace_minor_small_case():
    w = sample_gse(2, seed=15)
    report = trace_minor_check(w, 1j)
    assert report.passed
    assert report.bound == 2.0
    assert report.differences.shape == (2,)


def test_trace_minor_gse_20():
    w = sample_gse(20, seed=16)
    report = trace_minor_check(w, 0.3 + 0.2j)
    assert report.passed
    assert report.max_difference <= 10.0


_ORACLE_LAWS = {"gse": GSECoefficients(), "rademacher": RademacherCoefficients(),
                "uniform": UniformCoefficients(),
                "two_point": TwoPointCoefficients(lo=-1.0, hi=9.0, p=0.1)}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 48])
@pytest.mark.parametrize("law", sorted(_ORACLE_LAWS))
def test_trace_minor_matches_per_minor_oracle(law, n):
    # One resolvent plus the Schur-complement identity against n + 1 dense
    # solves; n = 1 compares with the empty minor, whose trace is 0.
    spec = EnsembleSpec(n=n, distribution=_ORACLE_LAWS[law], seed=n + 7,
                        eta=EtaSchedule("power", 0.35))
    raw = sample_general(spec)
    piped, _ = run_pipeline(spec, raw, keep_matrices=False)
    for w in (raw, piped):
        for z in (1j, 1 + 1j, -1 + 1j, 0.3 + 0.05j, 2j, 0.01 + 0.01j):
            expected = trace_minor_differences_by_minors(embed(w).values, z)
            got = trace_minor_check(w, z).differences
            assert got.shape == (n,)
            assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-12


def test_trace_minor_solves_one_resolvent(monkeypatch):
    calls = []

    def counting(m, z):
        calls.append(z)
        return resolvent(m, z)

    monkeypatch.setattr(spectra, "resolvent", counting)
    trace_minor_check(sample_gse(6, seed=19), 0.5 + 0.5j)
    assert len(calls) == 1


def test_trace_minor_zero_matrix():
    z = 0.3 + 0.4j
    w = constant_matrix(3, 0.0)
    report = trace_minor_check(w, z)
    assert report.max_difference == pytest.approx(abs(2 / z), rel=1e-12)
    assert report.passed


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_esd_csv_export(tmp_path):
    esd = ESD([0.5, -0.25, 1.0])
    path = tmp_path / "esd.csv"
    esd_to_csv(esd, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,F"
    assert len(lines) == 4
    assert lines[1].startswith("-0.25,")


def test_histogram_csv_counts_sum(tmp_path):
    w = sample_gse(64, seed=17)
    sample = SpectralSample.from_matrix(w)
    path = tmp_path / "hist.csv"
    histogram_csv(sample.eigenvalues_dedup, path, bins=20)
    rows = path.read_text().strip().splitlines()[1:]
    counts = [int(r.split(",")[2]) for r in rows]
    assert sum(counts) == 64
    assert len(rows) == 20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_histogram_csv_rejects_non_finite(tmp_path, bad):
    # np.histogram drops a NaN without a word and counts only the others.
    path = tmp_path / "hist.csv"
    with pytest.raises(ValueError):
        histogram_csv([bad, 1.0, 0.5], path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

def _raises_value_error(fn, *args):
    """``fn(*args)`` raises ``ValueError`` (or a subclass), not ``LinAlgError``."""
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert not isinstance(info.value, np.linalg.LinAlgError), info.value


_BIG_HERMITIAN = _random_hermitian(TWO_STAGE_MIN, seed=17)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _spoiled(data, base, fills):
    """A copy of ``base`` with values of ``fills`` at 1 to 5 random positions."""
    out = np.array(base)
    for _ in range(data.draw(st.integers(1, 5), label="count")):
        index = tuple(data.draw(st.integers(0, d - 1)) for d in out.shape)
        out[index] = data.draw(fills, label="fill")
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectra_rejects_non_finite_input(data):
    n = data.draw(st.integers(1, 6), label="n")
    complex_fills = st.one_of(_NON_FINITE, st.sampled_from([complex(0, math.inf),
                                                             complex(math.nan, 1.0)]))
    for base in (_random_hermitian(2 * n, seed=n), _BIG_HERMITIAN):
        _raises_value_error(hermitian_eigenvalues, _spoiled(data, base, complex_fills))
    _raises_value_error(resolvent, _spoiled(data, _random_hermitian(2 * n, seed=n),
                                            complex_fills), 1j)
    eigs = _spoiled(data, np.repeat(np.linspace(-2.0, 2.0, n), 2), _NON_FINITE)
    _raises_value_error(dedup_pairs, eigs, 1e-8)
    _raises_value_error(ESD, eigs)
    _raises_value_error(empirical_stieltjes, eigs, 1j)
    _raises_value_error(histogram_csv, eigs, os.devnull)
