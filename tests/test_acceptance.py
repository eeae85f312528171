"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are pinned
here; the Monte Carlo criteria use fixed seeds so results are reproducible.
"""

import time

import numpy as np
import pytest

from quatspectra.ensemble import (EnsembleSpec, EtaSchedule, GSECoefficients,
                                  RademacherCoefficients, TwoPointCoefficients,
                                  UniformCoefficients, lindeberg_statistic,
                                  sample_general)
from quatspectra.experiment import (ExperimentConfig, check_pipeline_bounds,
                                    emit, run, trial_seed)
from quatspectra.quaternion import (I1, I2, I3, UNIT, Quaternion, multiply,
                                    norm, to_complex)
from quatspectra.spectra import (ESD, SpectralSample, dedup_pairs, embed,
                                 empirical_stieltjes, hermitian_eigenvalues,
                                 kolmogorov_distance, resolvent_structure_check,
                                 semicircle_stieltjes, trace_minor_check)
from quatspectra.structure import verify_type2_inverse

EPS = np.finfo(float).eps

ENSEMBLES = {
    "gse": GSECoefficients,
    "rademacher": RademacherCoefficients,
    "uniform": UniformCoefficients,
}


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def shared_draws():
    """10 draws per (ensemble, n) for the pair-degeneracy and resolvent criteria."""
    draws = {}
    for kind, dist_cls in ENSEMBLES.items():
        for n in (10, 50, 200):
            entries = []
            for trial in range(10):
                spec = EnsembleSpec(n=n, distribution=dist_cls(),
                                    seed=trial_seed(1000, n, trial))
                w = sample_general(spec)
                entries.append((w, SpectralSample.from_matrix(w)))
            draws[kind, n] = entries
    return draws


def test_criterion_1_inversion_suite():
    t0 = time.perf_counter()
    total = passes = resamples = 0
    worst = 0.0
    for n in range(1, 9):
        rep = verify_type2_inverse(n, trials=125, seed=4200 + n, tol=1e-8)
        total += rep.trials
        passes += rep.passes
        resamples += rep.resamples
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    ok = total >= 1000 and passes == total and worst <= 1e-8 and elapsed <= 30
    report(1, ok, f"{passes}/{total} inverses Type-I, max residual {worst:.2e}, "
                  f"{resamples} resamples, {elapsed:.1f}s")


def test_criterion_2_embedding_homomorphism():
    rng = np.random.default_rng(2026)
    worst_ratio = 0.0
    for _ in range(10_000):
        x = Quaternion(*rng.standard_normal(4))
        y = Quaternion(*rng.standard_normal(4))
        err = np.max(np.abs(to_complex(x) @ to_complex(y)
                            - to_complex(multiply(x, y))))
        bound = 4 * EPS * norm(x) * norm(y)
        worst_ratio = max(worst_ratio, err / bound if bound else 0.0)

    minus = Quaternion(-1, 0, 0, 0)
    basis_ok = (
        multiply(I1, I1) == minus and multiply(I2, I2) == minus
        and multiply(I3, I3) == minus
        and multiply(I1, I2) == I3 and multiply(I2, I1) == -I3
        and multiply(I2, I3) == I1 and multiply(I3, I2) == -I1
        and multiply(I3, I1) == I2 and multiply(I1, I3) == -I2
        and multiply(UNIT, I1) == I1
    )
    for a, b, c in ((I1, I2, I3), (I2, I3, I1), (I3, I1, I2)):
        basis_ok &= bool(np.array_equal(to_complex(a) @ to_complex(b), to_complex(c)))

    ok = worst_ratio <= 1.0 and basis_ok
    report(2, ok, f"10^4 pairs within 4*eps*norms (worst ratio {worst_ratio:.3f}), "
                  f"basis relations exact: {basis_ok}")


def test_criterion_3_eigenvalue_pair_degeneracy(shared_draws):
    # The pairs of the embedding's own spectrum, at every n: from n = 128 a
    # draw's SpectralSample pairs its eigenvalues by construction.
    worst = 0.0
    count = 0
    for (kind, n), entries in shared_draws.items():
        for w, _ in entries:
            _, residual = dedup_pairs(hermitian_eigenvalues(embed(w)), 1e-8)
            worst = max(worst, residual)
            count += 1
    ok = worst <= 1e-8 and count == 90
    report(3, ok, f"{count} draws over 3 ensembles x n in (10,50,200), "
                  f"max pairing residual {worst:.2e}")


def test_criterion_4_resolvent_structure(shared_draws):
    worst = 0.0
    failures = 0
    count = 0
    for (kind, n), entries in shared_draws.items():
        for w, _ in entries:
            for z in (1j, 1 + 1j):
                rep = resolvent_structure_check(w, z, tol=1e-8)
                worst = max(worst, rep.max_residual)
                failures += 0 if rep.passed else 1
                count += 1
    ok = failures == 0 and worst <= 1e-8
    report(4, ok, f"{count} resolvents Type-I with Type-T diagonals, "
                  f"max residual {worst:.2e}, failures {failures}")


def test_criterion_5_global_law_trend():
    t0 = time.perf_counter()
    medians = {}
    for kind in ENSEMBLES:
        for n in (50, 200, 800):
            dists = []
            for trial in range(10):
                spec = EnsembleSpec(n=n, distribution=ENSEMBLES[kind](),
                                    seed=trial_seed(7, n, trial))
                sample = SpectralSample.from_matrix(sample_general(spec))
                dists.append(kolmogorov_distance(ESD(sample.eigenvalues_dedup)))
            medians[kind, n] = float(np.median(dists))
    elapsed = time.perf_counter() - t0

    ok = elapsed <= 600
    for kind in ("gse", "rademacher"):
        ok &= medians[kind, 200] <= 0.10
        ok &= medians[kind, 800] <= 0.06
    for kind in ENSEMBLES:  # decreasing for every built-in ensemble
        ok &= medians[kind, 50] > medians[kind, 200] > medians[kind, 800]
    detail = ", ".join(
        f"{kind}: " + "/".join(f"{medians[kind, n]:.4f}" for n in (50, 200, 800))
        for kind in ENSEMBLES)
    report(5, ok, f"median Kolmogorov distances {detail} ({elapsed:.0f}s)")


def test_criterion_6_stieltjes_convergence():
    z = 2j
    s_ref = semicircle_stieltjes(z)
    errors = []
    positive = True
    for trial in range(10):
        spec = EnsembleSpec(n=500, distribution=GSECoefficients(),
                            seed=trial_seed(8, 500, trial))
        sample = SpectralSample.from_matrix(sample_general(spec))
        for zz in (1j, 2j, 1 + 1j):
            positive &= empirical_stieltjes(sample, zz).value.imag > 0
        errors.append(abs(empirical_stieltjes(sample, z).value - s_ref))
    mean_err = float(np.mean(errors))

    rng = np.random.default_rng(99)
    grid = rng.uniform(-3, 3, 100) + 1j * rng.uniform(0.05, 3.0, 100)
    fp_worst = max(abs(semicircle_stieltjes(zz) + 1 / (zz + semicircle_stieltjes(zz)))
                   for zz in grid)

    ok = mean_err <= 0.05 and fp_worst <= 1e-12 and positive
    report(6, ok, f"mean |s_n(2i) - s(2i)| = {mean_err:.4f} over 10 draws at n=500, "
                  f"fixed-point residual {fp_worst:.1e} on 100 z, Im>0: {positive}")


def test_criterion_7_inequality_suite():
    rng = np.random.default_rng(20260810)
    spiky = lambda p, hi: TwoPointCoefficients(lo=-p * hi / (1 - p), hi=hi, p=p)
    dists = [GSECoefficients, RademacherCoefficients, UniformCoefficients,
             lambda: spiky(0.05, 2.179449), lambda: spiky(0.2, 1.0)]
    levy_checks = rank_checks = minor_checks = violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 41))
        dist = dists[int(rng.integers(len(dists)))]()
        eta = float(rng.uniform(0.25, 1.0))
        spec = EnsembleSpec(n=n, distribution=dist, seed=int(rng.integers(2**32)),
                            eta=EtaSchedule("constant", eta))
        for entry in check_pipeline_bounds(spec):
            if "levy_ok" in entry:
                levy_checks += 1
                violations += 0 if entry["levy_ok"] else 1
            if "rank_ok" in entry:
                rank_checks += 1
                violations += 0 if entry["rank_ok"] else 1
        z = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        minor = trace_minor_check(sample_general(spec), z)
        minor_checks += 1
        violations += 0 if minor.passed else 1
    ok = violations == 0
    report(7, ok, f"100 randomized configurations: {levy_checks} Levy, "
                  f"{rank_checks} rank, {minor_checks} trace-minor checks, "
                  f"{violations} violations")


def test_criterion_8_lindeberg_diagnostic():
    t0 = time.perf_counter()
    # bounded coefficients: exactly zero once n > (bound/eta)^2
    eta = 0.5
    rad = EnsembleSpec(n=5, distribution=RademacherCoefficients(), seed=0)
    uni = EnsembleSpec(n=13, distribution=UniformCoefficients(), seed=0)
    exact_zero = (lindeberg_statistic(rad, eta) == 0.0
                  and lindeberg_statistic(uni, eta) == 0.0)

    values = []
    for n in (100, 1000, 10000):
        spec = EnsembleSpec(n=n, distribution=GSECoefficients(), seed=0)
        values.append(lindeberg_statistic(spec, eta=spec.eta_n()))
    decreasing = values[0] > values[1] > values[2] >= 0.0
    elapsed = time.perf_counter() - t0

    ok = exact_zero and decreasing and elapsed <= 10
    report(8, ok, f"bounded laws exactly 0: {exact_zero}; GSE along eta_n=n^-1/8: "
                  f"{values[0]:.2e} > {values[1]:.2e} > {values[2]:.2e} "
                  f"({elapsed:.1f}s)")


def test_criterion_9_sweep_determinism(tmp_path):
    config = ExperimentConfig(
        ensemble=EnsembleSpec(n=10, distribution=GSECoefficients(), seed=31,
                              eta=EtaSchedule("power", 0.125)),
        sizes=[10, 20],
        trials_per_size=2,
        z_grid=[1j, 2j, 1 + 1j, -1 + 1j],
        pipeline=True,
        output_path=str(tmp_path / "sweep.csv"),
        output_format="csv",
    )
    a = emit(run(config), "csv", tmp_path / "a.csv")
    b = emit(run(config), "csv", tmp_path / "b.csv")
    identical = a.read_bytes() == b.read_bytes()
    report(9, identical, f"two sweeps of the same config byte-identical: {identical}")
