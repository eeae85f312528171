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
import functools
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import spectra
from .ensemble import (EnsembleSpec, SelfDualMatrix, _is_int, _is_real,
                       run_pipeline, sample_general)
from .spectra import (ESD, SpectralSample, empirical_stieltjes, histogram_csv,
                      kolmogorov_distance, levy_distance, resolvent_structure_check,
                      semicircle_cdf, semicircle_stieltjes, trace_minor_check)
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
# The type2_inverse check's parameters and their defaults.
_CHECK_PARAMS = {"inversion_dims": list(range(1, 9)), "inversion_trials": 1000}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


def _z_grid_from_json(pairs) -> list:
    """Grid points of the JSON form, a list of ``[re, im]`` pairs of numbers."""
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_real, p)) for p in pairs)):
        raise ConfigError(f"z_grid must be a list of [re, im] pairs of numbers, "
                          f"got {pairs!r}")
    return [complex(re, im) for re, im in pairs]


def trial_seed(seed: int, n: int, trial: int) -> int:
    """Stable per-trial seed: SHA-256 of ``"{seed}:{n}:{trial}"``, 8 bytes."""
    if not all(map(_is_int, (seed, n, trial))):
        raise ConfigError(f"seed, n and trial must be integers, got {(seed, n, trial)!r}")
    digest = hashlib.sha256(f"{seed}:{n}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stieltjes_label(z: complex) -> str:
    """CSV column label for the transform error at ``z``."""
    if not cmath.isfinite(z):
        raise ConfigError(f"z must be finite, got {z!r}")
    return f"serr_re{z.real:g}_im{z.imag:g}"


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
        """Check every field's type and range; raise ConfigError (or SpecError)."""
        sizes = self.sizes
        if not (isinstance(sizes, list) and sizes and all(map(_is_count, sizes))):
            raise ConfigError(f"sizes must be a nonempty list of integers >= 1, "
                              f"got {sizes!r}")
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"sizes must be strictly increasing, got {sizes}")
        if not _is_count(self.trials_per_size):
            raise ConfigError(f"trials_per_size must be an integer >= 1, "
                              f"got {self.trials_per_size!r}")
        for z in self.z_grid:
            if not (isinstance(z, complex) and cmath.isfinite(z) and z.imag > 0):
                raise ConfigError(f"z grid point {z!r} is not a finite point "
                                  "of the upper half plane")
        for name, value in (("pipeline", self.pipeline), ("histograms", self.histograms)):
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        if not isinstance(self.output_path, (str, os.PathLike)):
            raise ConfigError(f"output path must be a string, got {self.output_path!r}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        checks = self.checks
        if not (isinstance(checks, tuple) and all(c in KNOWN_CHECKS for c in checks)):
            raise ConfigError(f"checks must be a list of names from {list(KNOWN_CHECKS)}, "
                              f"got {checks!r}")
        if not (_is_real(self.check_tol) and 0 <= self.check_tol < math.inf):
            raise ConfigError(f"check_tol must be finite and nonnegative, "
                              f"got {self.check_tol!r}")
        if not isinstance(self.check_params, dict):
            raise ConfigError(f"check_params must be an object, got {self.check_params!r}")
        params = {**_CHECK_PARAMS, **self.check_params}
        dims, trials = params.pop("inversion_dims"), params.pop("inversion_trials")
        if params:
            raise ConfigError(f"unknown check_params {sorted(params)}")
        if not (isinstance(dims, list) and dims and all(map(_is_count, dims))):
            raise ConfigError(f"inversion_dims must be a nonempty list of integers "
                              f">= 1, got {dims!r}")
        if not _is_count(trials):
            raise ConfigError(f"inversion_trials must be an integer >= 1, got {trials!r}")
        self.ensemble.validate()

    def to_json(self) -> dict:
        return {
            "ensemble": self.ensemble.to_json(),
            "sizes": list(self.sizes),
            "trials_per_size": self.trials_per_size,
            "z_grid": [[z.real, z.imag] for z in self.z_grid],
            "pipeline": self.pipeline,
            "checks": list(self.checks),
            "output": {"path": self.output_path, "format": self.output_format},
            "histograms": self.histograms,
            "check_tol": self.check_tol,
            "check_params": self.check_params,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; an absent key takes the field default.

        Only the keys whose JSON form differs from the field are converted:
        ``ensemble``, ``z_grid`` (``[re, im]`` pairs), ``output`` (``{"path",
        "format"}``) and ``checks`` (a list).  An unknown key raises
        ConfigError, and :meth:`validate` checks every value's type.
        """
        try:
            kwargs = {**obj, "ensemble": EnsembleSpec.from_json(obj["ensemble"])}
            if "z_grid" in obj:
                kwargs["z_grid"] = _z_grid_from_json(obj["z_grid"])
            if isinstance(obj.get("checks"), list):
                kwargs["checks"] = tuple(obj["checks"])
            output = kwargs.pop("output", {})
            if not isinstance(output, dict):
                raise ConfigError(f"output must be an object, got {output!r}")
            if kwargs.keys() & {"output_path", "output_format"}:
                raise ConfigError('output path and format belong in "output"')
            cfg = cls(**kwargs, **{f"output_{key}": value for key, value in output.items()})
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
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
        return {k: v for k, v in asdict(self).items() if k != "wall_time"}


def _draws(config: ExperimentConfig):
    """``(trial, spec)`` of every draw of a run, in ``(n, trial)`` order."""
    base = config.ensemble
    for n in config.sizes:
        for trial in range(config.trials_per_size):
            yield trial, replace(base, n=n, seed=trial_seed(base.seed, n, trial))


# Sweep message of a failed resolvent check, filled from its failure fields.
_SWEEP_FAILURE = {
    "resolvent_structure": "residual {residual:.3e}",
    "trace_minor": "max {max_difference:.3e} > bound {bound:.3e}",
}


def _resolvent_checks(w: SelfDualMatrix, config: ExperimentConfig, names):
    """Run the resolvent checks listed in ``names`` on ``w`` at each grid point.

    Yields ``(name, z, passed, value, failure)``: ``value`` is the Type-I
    residual or the largest trace-minor difference over its bound, and
    ``failure`` holds the fields a failure report carries.
    """
    if "resolvent_structure" in names:
        for z in config.z_grid:
            report = resolvent_structure_check(w, z, config.check_tol)
            yield ("resolvent_structure", z, report.passed, report.max_residual,
                   {"residual": report.max_residual})
    if "trace_minor" in names:
        for z in config.z_grid:
            report = trace_minor_check(w, z)
            yield ("trace_minor", z, report.passed, report.max_difference / report.bound,
                   {"max_difference": report.max_difference, "bound": report.bound})


def _run_trial(config: ExperimentConfig, hist_dir, draw) -> ConvergenceRow:
    trial, spec = draw
    n = spec.n
    t0 = time.perf_counter()

    failures = []
    stage, w, summary, sample = "sample", None, None, None
    kolmogorov = levy = math.nan
    serrs = dict.fromkeys(map(stieltjes_label, config.z_grid), math.nan)
    try:
        drawn = sample_general(spec)
        if config.pipeline:
            stage = "pipeline"
            drawn, trace = run_pipeline(spec, drawn, keep_matrices=False)
            summary = trace.to_json()
        w, stage = drawn, "eigensolve"
        sample = SpectralSample.from_matrix(w)
    except (ValueError, np.linalg.LinAlgError) as exc:
        # one bad draw must not abort the sweep: its row keeps NaN distances
        failures.append(f"{stage} error: {exc}")
    else:
        esd = ESD(sample.eigenvalues_dedup)
        kolmogorov = kolmogorov_distance(esd)
        levy = levy_distance(esd, semicircle_cdf)
        for z in config.z_grid:
            point = empirical_stieltjes(sample, z)
            serrs[stieltjes_label(z)] = abs(point.value - semicircle_stieltjes(z))

    if w is not None:  # a draw that failed to sample or reduce has nothing to check
        try:
            for name, z, passed, _, failure in _resolvent_checks(w, config, config.checks):
                if not passed:
                    failures.append(f"{name} z={z}: " + _SWEEP_FAILURE[name].format(**failure))
        except Exception as exc:  # never abort the sweep
            failures.append(f"check error: {exc}")

    if hist_dir is not None and sample is not None:
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
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    hist_dir = None
    if config.histograms:
        hist_dir = str(Path(config.output_path).resolve().parent)
        Path(hist_dir).mkdir(parents=True, exist_ok=True)
    trial_fn = functools.partial(_run_trial, config, hist_dir)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(trial_fn, _draws(config)))
    else:
        rows = [trial_fn(draw) for draw in _draws(config)]
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
        return asdict(self)


@dataclass
class VerificationReport:
    checks: list

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.all_passed(),
                "checks": [c.to_json() for c in self.checks]}


def _check_type2_inverse(config: ExperimentConfig) -> CheckResult:
    params = {**_CHECK_PARAMS, **config.check_params}
    dims = params["inversion_dims"]
    per_dim = -(-params["inversion_trials"] // len(dims))  # ceil division
    reports = [verify_type2_inverse(n, per_dim, seed=config.ensemble.seed + n,
                                    tol=config.check_tol)
               for n in dims]
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


def check_pipeline_bounds(spec: EnsembleSpec, w: Optional[SelfDualMatrix] = None):
    """Run the pipeline once and verify its recorded Levy/rank bounds.

    The pipeline runs on ``w``, or on a draw of ``spec`` when ``w`` is None.
    Returns one dict of outcomes per stage: every stage has the Levy
    entries, the truncation stage also the rank entries.  Levy: the cubed
    distance between consecutive stage ESDs must not exceed the recorded
    trace bound, up to a slack for the bisection bracket.  Rank: the sup ESD
    distance across the truncation stage must not exceed the recorded rank
    bound.
    """
    _, trace = run_pipeline(spec, w, keep_matrices=True)
    esds = [ESD(spectra.hermitian_eigenvalues(spectra.embed(m), overwrite_a=True))
            for _, m in trace.matrices]
    outcomes = []
    for record, prev, cur in zip(trace.stages, esds, esds[1:]):
        entry = {"stage": record.name}
        dist = levy_distance(prev, cur)
        entry["levy"] = dist
        entry["levy_cube_bound"] = record.levy_cube_bound
        # levy_distance returns the top of a bracket of width _LEVY_TOL, so
        # for a distance of at most 1 its cube overshoots by under 4 * _LEVY_TOL.
        entry["levy_ok"] = dist**3 <= record.levy_cube_bound + 4 * spectra._LEVY_TOL
        if record.name == "truncate":
            sup = spectra._ks_two_esds(prev, cur)
            entry["sup_distance"] = sup
            entry["rank_bound"] = record.rank_bound
            entry["rank_ok"] = sup <= record.rank_bound + 1e-9
        outcomes.append(entry)
    return outcomes


# Per-draw checks: the report key of their worst value, if they have one.
_WORST_KEYS = {"resolvent_structure": "max_residual", "trace_minor": "worst_ratio"}
# The bound checks: the outcome key each reads from check_pipeline_bounds.
_BOUND_KEYS = {"levy_bounds": "levy_ok", "rank_bounds": "rank_ok"}


def verify(config: ExperimentConfig) -> VerificationReport:
    """Run the configured structural checks; failures are reported, not raised.

    Every check but ``type2_inverse`` runs on the draws of ``config``, in
    one pass: each draw is sampled once, and that matrix goes to the
    resolvent checks and through the pipeline once for both bound checks.
    """
    config.validate()
    checks = config.checks or KNOWN_CHECKS
    per_draw = [name for name in checks if name != "type2_inverse"]
    counts = dict.fromkeys(per_draw, 0)
    worst = dict.fromkeys(per_draw, 0.0)
    failures = {name: [] for name in per_draw}
    for _, spec in _draws(config) if per_draw else ():
        w = sample_general(spec)
        if _WORST_KEYS.keys() & counts.keys():
            for name, z, passed, value, failure in _resolvent_checks(w, config, checks):
                counts[name] += 1
                worst[name] = max(worst[name], value)
                if not passed:
                    failures[name].append({"n": spec.n, "seed": spec.seed,
                                           "z": [z.real, z.imag],
                                           **failure})
        if _BOUND_KEYS.keys() & counts.keys():
            for entry in check_pipeline_bounds(spec, w):
                for name, key in _BOUND_KEYS.items():
                    if name in counts and key in entry:
                        counts[name] += 1
                        if not entry[key]:
                            failures[name].append({"n": spec.n, "seed": spec.seed, **entry})
    results = []
    for name in checks:
        if name == "type2_inverse":
            results.append(_check_type2_inverse(config))
            continue
        details = {"checks": counts[name]}
        if name in _WORST_KEYS:
            details[_WORST_KEYS[name]] = worst[name]
        details["failures"] = failures[name]
        results.append(CheckResult(name, not failures[name], details))
    return VerificationReport(checks=results)


def default_verify_config(seed: int = 0) -> ExperimentConfig:
    """Small, fast configuration exercising every check."""
    from .ensemble import GSECoefficients
    return ExperimentConfig(
        ensemble=EnsembleSpec(n=8, distribution=GSECoefficients(), seed=seed),
        sizes=[4, 8, 12],
        trials_per_size=2,
        z_grid=[1j, 1 + 1j],
        pipeline=True,
        checks=KNOWN_CHECKS,
        check_params={"inversion_trials": 200},
    )
