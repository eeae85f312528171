"""Reproducible Monte Carlo sweeps and the structural verification suite.

A sweep draws ``trials_per_size`` matrices at each size, optionally pushes
them through the reduction pipeline, and records distribution distances and
Stieltjes transform errors per trial.  Trial seeds are derived with a stable
hash (SHA-256 of ``"{seed}:{n}:{trial}"``, first 8 bytes little-endian), so
adding sizes or trials never perturbs existing draws and results are
identical regardless of scheduling.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import spectra
from .ensemble import (EnsembleSpec, EtaSchedule, SelfDualMatrix,
                       run_pipeline, sample_general)
from .spectra import (ESD, SpectralSample, empirical_stieltjes, histogram_csv,
                      kolmogorov_distance, levy_distance,
                      resolvent_structure_check, semicircle_cdf,
                      semicircle_stieltjes, trace_minor_check)
from .structure import verify_type2_inverse

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ConvergenceRow",
    "CheckResult",
    "VerificationReport",
    "trial_seed",
    "stieltjes_label",
    "run",
    "verify",
    "emit",
]

KNOWN_CHECKS = ("type2_inverse", "resolvent_structure", "trace_minor",
                "levy_bounds", "rank_bounds")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def trial_seed(seed: int, n: int, trial: int) -> int:
    """Stable per-trial seed: SHA-256 of ``"{seed}:{n}:{trial}"``, 8 bytes."""
    digest = hashlib.sha256(f"{seed}:{n}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _fmt_part(x: float) -> str:
    return f"{x:g}"


def stieltjes_label(z: complex) -> str:
    """CSV column label for the transform error at ``z``."""
    return f"serr_re{_fmt_part(z.real)}_im{_fmt_part(z.imag)}"


@dataclass
class ExperimentConfig:
    """Full description of a sweep / verification run."""

    ensemble: EnsembleSpec
    sizes: list
    trials_per_size: int = 1
    z_grid: list = field(default_factory=lambda: [1j, 2j, 1 + 1j, -1 + 1j])
    pipeline: bool = False
    checks: tuple = ()
    output_path: str = "sweep.csv"
    output_format: str = "csv"
    histograms: bool = False
    check_tol: float = 1e-8
    check_params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not self.sizes:
            raise ConfigError("sizes must be nonempty")
        if any(int(n) < 1 for n in self.sizes):
            raise ConfigError("sizes must be positive")
        if list(self.sizes) != sorted(set(int(n) for n in self.sizes)):
            raise ConfigError(f"sizes must be strictly increasing, got {self.sizes}")
        if self.trials_per_size < 1:
            raise ConfigError("trials_per_size must be at least 1")
        for z in self.z_grid:
            z = complex(z)
            if not (cmath.isfinite(z) and z.imag > 0):
                raise ConfigError(f"z grid point {z} is not a finite point "
                                  "of the upper half plane")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        unknown = set(self.checks) - set(KNOWN_CHECKS)
        if unknown:
            raise ConfigError(f"unknown checks {sorted(unknown)}")
        if self.check_tol < 0:
            raise ConfigError("check_tol must be nonnegative")
        self.ensemble.validate()

    def to_json(self) -> dict:
        return {
            "ensemble": self.ensemble.to_json(),
            "sizes": [int(n) for n in self.sizes],
            "trials_per_size": self.trials_per_size,
            "z_grid": [[complex(z).real, complex(z).imag] for z in self.z_grid],
            "pipeline": self.pipeline,
            "checks": list(self.checks),
            "output": {"path": self.output_path, "format": self.output_format},
            "histograms": self.histograms,
            "check_tol": self.check_tol,
            "check_params": self.check_params,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        try:
            ensemble = EnsembleSpec.from_json(obj["ensemble"])
            output = obj.get("output", {})
            cfg = cls(
                ensemble=ensemble,
                sizes=[int(n) for n in obj["sizes"]],
                trials_per_size=int(obj.get("trials_per_size", 1)),
                z_grid=[complex(re, im) for re, im in obj.get(
                    "z_grid", [[0, 1], [0, 2], [1, 1], [-1, 1]])],
                pipeline=bool(obj.get("pipeline", False)),
                checks=tuple(obj.get("checks", ())),
                output_path=output.get("path", "sweep.csv"),
                output_format=output.get("format", "csv"),
                histograms=bool(obj.get("histograms", False)),
                check_tol=float(obj.get("check_tol", 1e-8)),
                check_params=dict(obj.get("check_params", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed configuration: {exc}") from exc
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass
class ConvergenceRow:
    """One (size, trial) result."""

    n: int
    seed: int
    trial: int
    kolmogorov: float
    levy: float
    stieltjes_errors: dict
    pipeline_summary: Optional[dict]
    check_failures: list
    wall_time: float

    def to_json(self) -> dict:
        # wall_time is excluded: emitted artifacts must be byte-identical
        # across reruns, and timing is scheduling noise.
        return {
            "n": self.n,
            "seed": self.seed,
            "trial": self.trial,
            "kolmogorov": self.kolmogorov,
            "levy": self.levy,
            "stieltjes_errors": self.stieltjes_errors,
            "pipeline_summary": self.pipeline_summary,
            "check_failures": self.check_failures,
        }


def _draws(config: ExperimentConfig):
    """``(trial, spec)`` of every draw of a run, in ``(n, trial)`` order."""
    for n in config.sizes:
        for trial in range(config.trials_per_size):
            yield trial, _trial_spec(config, int(n), trial)


def _trial_spec(config: ExperimentConfig, n: int, trial: int) -> EnsembleSpec:
    base = config.ensemble
    return EnsembleSpec(
        n=n,
        distribution=base.distribution,
        seed=trial_seed(base.seed, n, trial),
        diagonal_bound=base.diagonal_bound,
        eta=base.eta,
    )


def _run_trial(payload) -> ConvergenceRow:
    config_json, n, trial, hist_dir = payload
    config = ExperimentConfig.from_json(config_json)
    spec = _trial_spec(config, n, trial)
    t0 = time.perf_counter()

    w = sample_general(spec)
    summary = None
    if config.pipeline:
        w, trace = run_pipeline(spec, w, keep_matrices=False)
        summary = trace.to_json()

    sample = SpectralSample.from_matrix(w)
    esd = ESD(sample.eigenvalues_dedup)
    kolmogorov = kolmogorov_distance(esd)
    levy = levy_distance(esd, semicircle_cdf)
    serrs = {}
    for z in config.z_grid:
        point = empirical_stieltjes(sample, z)
        serrs[stieltjes_label(complex(z))] = abs(point.value - semicircle_stieltjes(z))

    failures = []
    try:
        if "resolvent_structure" in config.checks:
            for z in config.z_grid:
                report = resolvent_structure_check(w, z, config.check_tol)
                if not report.passed:
                    failures.append(
                        f"resolvent_structure z={z}: residual {report.max_residual:.3e}")
        if "trace_minor" in config.checks:
            for z in config.z_grid:
                report = trace_minor_check(w, z)
                if not report.passed:
                    failures.append(
                        f"trace_minor z={z}: max {report.max_difference:.3e} "
                        f"> bound {report.bound:.3e}")
    except Exception as exc:  # never abort the sweep
        failures.append(f"check error: {exc}")

    if hist_dir is not None:
        histogram_csv(sample.eigenvalues_dedup,
                      Path(hist_dir) / f"hist_n{n}_t{trial}.csv")

    return ConvergenceRow(
        n=n,
        seed=spec.seed,
        trial=trial,
        kolmogorov=kolmogorov,
        levy=levy,
        stieltjes_errors=serrs,
        pipeline_summary=summary,
        check_failures=failures,
        wall_time=time.perf_counter() - t0,
    )


def run(config: ExperimentConfig, jobs: int = 1) -> list:
    """Execute the sweep; rows are sorted by (n, trial) and deterministic."""
    config.validate()
    hist_dir = None
    if config.histograms:
        hist_dir = str(Path(config.output_path).resolve().parent)
        Path(hist_dir).mkdir(parents=True, exist_ok=True)
    config_json = config.to_json()
    payloads = [(config_json, spec.n, trial, hist_dir)
                for trial, spec in _draws(config)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_trial, payloads))
    else:
        rows = [_run_trial(p) for p in payloads]
    rows.sort(key=lambda r: (r.n, r.trial))
    return rows


def emit(rows, output_format: str, path) -> Path:
    """Write rows as CSV (fixed column order) or a JSON array.

    CSV columns: ``n, seed, kolmogorov, levy`` then one ``serr_*`` column per
    transform point, in the z-grid order.  Floats are written with ``repr``
    so reruns of the same configuration are byte-identical.
    """
    if not rows:
        raise ValueError("rows must be nonempty")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    serr_labels = list(rows[0].stieltjes_errors)
    if output_format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "seed", "kolmogorov", "levy", *serr_labels])
            for row in rows:
                writer.writerow([
                    row.n, row.seed, repr(row.kolmogorov), repr(row.levy),
                    *(repr(row.stieltjes_errors[label]) for label in serr_labels),
                ])
    elif output_format == "json":
        with open(path, "w") as fh:
            json.dump([row.to_json() for row in rows], fh, indent=2)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format {output_format!r}")
    return path


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class VerificationReport:
    checks: list

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.all_passed(),
                "checks": [c.to_json() for c in self.checks]}


def _check_type2_inverse(config: ExperimentConfig) -> CheckResult:
    params = config.check_params
    dims = params.get("inversion_dims", list(range(1, 9)))
    trials_total = int(params.get("inversion_trials", 1000))
    per_dim = max(1, -(-trials_total // len(dims)))  # ceil division
    reports = []
    for n in dims:
        reports.append(verify_type2_inverse(int(n), per_dim,
                                            seed=config.ensemble.seed + int(n),
                                            tol=config.check_tol))
    passed = all(r.all_passed() for r in reports)
    return CheckResult(
        name="type2_inverse",
        passed=passed,
        details={
            "trials": sum(r.trials for r in reports),
            "passes": sum(r.passes for r in reports),
            "resamples": sum(r.resamples for r in reports),
            "max_residual": max(r.max_residual for r in reports),
            "reports": [r.to_json() for r in reports],
        },
    )


def _check_resolvent_structure(config: ExperimentConfig) -> CheckResult:
    worst = 0.0
    failures = []
    count = 0
    for _, spec in _draws(config):
        w = sample_general(spec)
        for z in config.z_grid:
            report = resolvent_structure_check(w, z, config.check_tol)
            worst = max(worst, report.max_residual)
            count += 1
            if not report.passed:
                failures.append({"n": spec.n, "seed": spec.seed,
                                 "z": [complex(z).real, complex(z).imag],
                                 "residual": report.max_residual})
    return CheckResult("resolvent_structure", not failures,
                       {"checks": count, "max_residual": worst, "failures": failures})


def _check_trace_minor(config: ExperimentConfig) -> CheckResult:
    failures = []
    worst_ratio = 0.0
    count = 0
    for _, spec in _draws(config):
        w = sample_general(spec)
        for z in config.z_grid:
            report = trace_minor_check(w, z)
            worst_ratio = max(worst_ratio, report.max_difference / report.bound)
            count += 1
            if not report.passed:
                failures.append({"n": spec.n, "seed": spec.seed,
                                 "z": [complex(z).real, complex(z).imag],
                                 "max_difference": report.max_difference,
                                 "bound": report.bound})
    return CheckResult("trace_minor", not failures,
                       {"checks": count, "worst_ratio": worst_ratio,
                        "failures": failures})


def _stage_esd(w: SelfDualMatrix) -> ESD:
    return ESD(spectra.hermitian_eigenvalues(spectra.embed(w)))


def check_pipeline_bounds(spec: EnsembleSpec):
    """Run the pipeline once and verify its recorded Levy/rank bounds.

    Returns one dict of outcomes per stage: every stage has the Levy
    entries, the truncation stage also the rank entries.  Levy: the cubed
    distance between consecutive stage ESDs must not exceed the recorded
    trace bound (with a small slack absorbing the Levy bisection bracket).
    Rank: the sup ESD distance across the truncation stage must not exceed
    the recorded rank bound.
    """
    _, trace = run_pipeline(spec, keep_matrices=True)
    esds = [_stage_esd(m) for _, m in trace.matrices]
    outcomes = []
    for i, record in enumerate(trace.stages):
        prev = esds[i]
        cur = esds[i + 1]
        entry = {"stage": record.name}
        dist = levy_distance(prev, cur)
        entry["levy"] = dist
        entry["levy_cube_bound"] = record.levy_cube_bound
        entry["levy_ok"] = dist**3 <= record.levy_cube_bound + 4e-6
        if record.name == "truncate":
            grid = np.concatenate([prev.points, cur.points])
            sup = float(np.max(np.abs(prev.cdf(grid) - cur.cdf(grid))))
            entry["sup_distance"] = sup
            entry["rank_bound"] = record.rank_bound
            entry["rank_ok"] = sup <= record.rank_bound + 1e-9
        outcomes.append(entry)
    return outcomes


def _check_bounds(config: ExperimentConfig, which: str) -> CheckResult:
    key = "levy_ok" if which == "levy" else "rank_ok"
    failures = []
    count = 0
    for _, spec in _draws(config):
        for entry in check_pipeline_bounds(spec):
            if key in entry:
                count += 1
                if not entry[key]:
                    failures.append({"n": spec.n, "seed": spec.seed, **entry})
    return CheckResult(f"{which}_bounds", not failures,
                       {"checks": count, "failures": failures})


def verify(config: ExperimentConfig) -> VerificationReport:
    """Run the configured structural checks; failures are reported, not raised."""
    config.validate()
    checks = config.checks or KNOWN_CHECKS
    results = []
    for name in checks:
        if name == "type2_inverse":
            results.append(_check_type2_inverse(config))
        elif name == "resolvent_structure":
            results.append(_check_resolvent_structure(config))
        elif name == "trace_minor":
            results.append(_check_trace_minor(config))
        elif name == "levy_bounds":
            results.append(_check_bounds(config, "levy"))
        elif name == "rank_bounds":
            results.append(_check_bounds(config, "rank"))
        else:
            raise ConfigError(f"unknown check {name!r}")
    return VerificationReport(checks=results)


def default_verify_config(seed: int = 0) -> ExperimentConfig:
    """Small, fast configuration exercising every check."""
    from .ensemble import GSECoefficients
    return ExperimentConfig(
        ensemble=EnsembleSpec(n=8, distribution=GSECoefficients(), seed=seed,
                              eta=EtaSchedule("power", 0.125)),
        sizes=[4, 8, 12],
        trials_per_size=2,
        z_grid=[1j, 1 + 1j],
        pipeline=True,
        checks=KNOWN_CHECKS,
        check_params={"inversion_dims": list(range(1, 9)), "inversion_trials": 200},
    )
