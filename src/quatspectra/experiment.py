"""Reproducible Monte Carlo sweeps and the structural verification suite.

A sweep draws ``trials_per_size`` matrices at each size, optionally pushes
them through the reduction pipeline, and records distribution distances and
Stieltjes transform errors per trial.  Trial seeds are derived with a stable
hash (SHA-256 of ``"{seed}:{n}:{trial}"``, first 8 bytes little-endian), so
adding sizes or trials never perturbs existing draws and results are
identical regardless of scheduling.
"""

from __future__ import annotations

import copy
import csv
import functools
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import spectra
from ._args import (complex_number, integer, integer_list, is_int, nonnegative, real,
                    upper_half_plane)
from .ensemble import EnsembleSpec, SelfDualMatrix, run_pipeline, sample_general
from .spectra import (ESD, SpectralSample, empirical_stieltjes, histogram_csv,
                      kolmogorov_distance, levy_distance, semicircle_cdf,
                      semicircle_stieltjes)
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


def _z_grid_from_json(pairs) -> list:
    """Grid points of the JSON form, a list of ``[re, im]`` pairs of numbers."""
    if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise ConfigError(f"z_grid must be a list of [re, im] pairs of numbers, "
                          f"got {pairs!r}")
    return [complex(*(real(x, ConfigError, "z_grid values must be finite numbers") for x in p))
            for p in pairs]


def trial_seed(seed: int, n: int, trial: int) -> int:
    """Stable per-trial seed: SHA-256 of ``"{seed}:{n}:{trial}"``, 8 bytes."""
    if not all(map(is_int, (seed, n, trial))):
        raise ConfigError(f"seed, n and trial must be integers, got {(seed, n, trial)!r}")
    digest = hashlib.sha256(f"{seed}:{n}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stieltjes_label(z: complex) -> str:
    """CSV column label for the transform error at ``z``."""
    z = complex_number(z, ConfigError, "z must be finite")
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
        sizes = integer_list(self.sizes, ConfigError, "sizes")
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"sizes must be strictly increasing, got {sizes}")
        integer(self.trials_per_size, ConfigError, "trials_per_size", 1)
        labels = {}  # each point's CSV column label: one column per point
        for z in self.z_grid:
            complex_number(z, ConfigError, "z grid points must be finite points of the "
                           "upper half plane", upper_half_plane)
            label = stieltjes_label(z)
            if label in labels:
                raise ConfigError(f"z grid points {labels[label]!r} and {z!r} share "
                                  f"the column label {label}")
            labels[label] = z
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
        real(self.check_tol, ConfigError, "check_tol must be finite and nonnegative", nonnegative)
        if not isinstance(self.check_params, dict):
            raise ConfigError(f"check_params must be an object, got {self.check_params!r}")
        params = {**_CHECK_PARAMS, **self.check_params}
        dims, trials = params.pop("inversion_dims"), params.pop("inversion_trials")
        if params:
            raise ConfigError(f"unknown check_params {sorted(params)}")
        integer_list(dims, ConfigError, "inversion_dims")
        integer(trials, ConfigError, "inversion_trials", 1)
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
            "check_params": copy.deepcopy(self.check_params),
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
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed configuration: {exc}") from exc
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path} is not a UTF-8 JSON file: {exc}") from exc
        return cls.from_json(obj)


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
    """``(trial, spec)`` of every draw of a run: largest n first, trials in order."""
    base = config.ensemble
    for n in reversed(config.sizes):  # validated strictly increasing
        for trial in range(config.trials_per_size):
            yield trial, replace(base, n=n, seed=trial_seed(base.seed, n, trial))


def _pin_blas_threads(count: int) -> None:
    """Pool initializer: a worker keeps ``count`` BLAS threads for its lifetime."""
    if spectra._SET_THREADS:
        spectra._SET_THREADS(count)


# Sweep message of a failed resolvent check, filled from its z and failure fields.
_SWEEP_FAILURE = {
    "resolvent_structure": "resolvent_structure z={z}: residual {residual:.3e}",
    "trace_minor": "trace_minor z={z}: max {max_difference:.3e} > bound {bound:.3e}",
}
# What ends a draw in a sweep or verify: the draw is recorded as failed, and the next runs.
_DRAW_ERRORS = (ValueError, MemoryError, np.linalg.LinAlgError)


def _resolvent_checks(w: SelfDualMatrix, config: ExperimentConfig, names):
    """Run the resolvent checks listed in ``names`` on ``w`` at each grid point.

    Yields ``(name, z, passed, value, failure)``: ``value`` is the Type-I
    residual or the largest trace-minor difference over its bound, and
    ``failure`` holds the fields a failure report carries.  Both checks read
    one resolvent per point and yield there, in z order, the structure outcome
    and then the trace-minor one; an error ends the generator at its point.
    """
    structure, minor = "resolvent_structure" in names, "trace_minor" in names
    for z in config.z_grid if structure or minor else ():
        R = spectra.resolvent(spectra.embed(w), z)
        if structure:
            report = spectra._structure_report(R, z, config.check_tol)
            yield ("resolvent_structure", z, report.passed, report.max_residual,
                   {"residual": report.max_residual})
        if minor:
            report = spectra._trace_minor_report(R, z)
            yield ("trace_minor", z, report.passed, report.max_difference / report.bound,
                   {"max_difference": report.max_difference, "bound": report.bound})
        del R  # not held while the next point's resolvent is solved


def _nan_row(config: ExperimentConfig, draw, failures: list) -> ConvergenceRow:
    """The row of a draw with no spectrum (yet): NaN distances, no pipeline summary."""
    trial, spec = draw
    serrs = dict.fromkeys(map(stieltjes_label, config.z_grid), math.nan)
    return ConvergenceRow(n=spec.n, seed=spec.seed, trial=trial, kolmogorov=math.nan,
                          levy=math.nan, stieltjes_errors=serrs, pipeline_summary=None,
                          check_failures=failures, wall_time=0.0)


def _run_trial(config: ExperimentConfig, hist_dir, draw) -> ConvergenceRow:
    t0 = time.perf_counter()
    trial, spec = draw
    row = _nan_row(config, draw, [])
    stage = "sample"
    with spectra._draw_threads(spec.n):
        try:
            w = sample_general(spec)
            if config.pipeline:
                stage = "pipeline"
                w, trace = run_pipeline(spec, w, keep_matrices=False)
                row.pipeline_summary = trace.to_json()
            try:  # before the eigensolve takes over w's array
                for name, z, passed, _, failure in _resolvent_checks(w, config, config.checks):
                    if not passed:
                        row.check_failures.append(_SWEEP_FAILURE[name].format(z=z, **failure))
            except Exception as exc:  # never abort the sweep
                row.check_failures.append(f"check error: {exc}")
            stage = "eigensolve"
            sample = SpectralSample.from_matrix(w, overwrite=True)
        except _DRAW_ERRORS as exc:
            # one bad draw must not abort the sweep: its row keeps NaN distances
            row.check_failures.append(f"{stage} error: {exc}")
        else:
            esd = ESD(sample.eigenvalues_dedup)
            row.kolmogorov = kolmogorov_distance(esd)
            row.levy = levy_distance(esd, semicircle_cdf)
            for z in config.z_grid:
                point = empirical_stieltjes(sample, z).value
                row.stieltjes_errors[stieltjes_label(z)] = abs(point - semicircle_stieltjes(z))
            if hist_dir is not None:
                histogram_csv(sample.eigenvalues_dedup,
                              Path(hist_dir) / f"hist_n{spec.n}_t{trial}.csv")
    row.wall_time = time.perf_counter() - t0
    return row


def run(config: ExperimentConfig, jobs: int = 1) -> list:
    """Execute the sweep; rows are sorted by (n, trial) and deterministic.

    Draws run largest n first, in trial order within a size, in-process and
    in the pool alike.  The largest draw takes its memory first and every
    smaller one reuses what it freed, so a sweep peaks at one draw of its
    largest n; a pool gets its longest tasks first, and a size that does not
    fit fails on the first draw instead of the last.  A pool worker that dies
    breaks the pool: each draw it left unfinished is a failed row
    (``pool error: ...``, NaN distances), and every finished row is kept.
    """
    config.validate()
    integer(jobs, ConfigError, "jobs", 1)
    hist_dir = None
    if config.histograms:
        hist_dir = str(Path(config.output_path).resolve().parent)
        Path(hist_dir).mkdir(parents=True, exist_ok=True)
    trial_fn = functools.partial(_run_trial, config, hist_dir)
    draws = list(_draws(config))
    workers = min(jobs, len(draws))  # no idle worker
    if workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor  # only for a pool
        threads = spectra._GET_THREADS() if spectra._GET_THREADS else 1  # shared by the workers
        with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads,
                                 initargs=(max(1, threads // workers),)) as pool:
            futures = [pool.submit(trial_fn, draw) for draw in draws]
            rows = []
            for draw, future in zip(draws, futures):
                try:
                    rows.append(future.result())
                except BrokenExecutor as exc:  # a dead worker: finished rows stay
                    rows.append(_nan_row(config, draw, [f"pool error: {exc}"]))
    else:
        rows = [trial_fn(draw) for draw in draws]
    rows.sort(key=lambda r: (r.n, r.trial))
    return rows


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def emit(rows, output_format: str, path) -> Path:
    """Write rows as CSV (fixed column order) or a JSON array.

    CSV columns: ``n, seed, kolmogorov, levy`` then one ``serr_*`` column per
    transform point, in the z-grid order.  Floats are written with ``repr``
    so reruns of the same configuration are byte-identical.  The JSON is
    standard: a non-finite float, such as a failed draw's distances, is
    ``null`` there (the CSV keeps ``nan``).
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
            json.dump([_finite_or_null(row.to_json()) for row in rows], fh, indent=2,
                      allow_nan=False)
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
    with spectra._draw_threads(max(dims)):
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
    esds = []
    for i, (_, m) in enumerate(trace.matrices):  # a stage that changed nothing keeps its ESD
        same = i and np.array_equal(m.coeffs, trace.matrices[i - 1][1].coeffs)
        esds.append(esds[-1] if same else ESD(SpectralSample.from_matrix(m).eigenvalues_full))
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
    one pass in :func:`run`'s order, largest n first: each draw is sampled
    once, and that matrix goes to the resolvent checks and through the
    pipeline once for both bound checks.
    A draw that raises one of ``_DRAW_ERRORS`` adds ``{"n", "seed", "error"}``
    to the failures of every per-draw check, the error naming its stage
    (sample, check or pipeline); what the draw recorded before it stays.
    """
    config.validate()
    checks = config.checks or KNOWN_CHECKS
    per_draw = [name for name in checks if name != "type2_inverse"]
    counts = dict.fromkeys(per_draw, 0)
    worst = dict.fromkeys(per_draw, 0.0)
    failures = {name: [] for name in per_draw}
    for _, spec in _draws(config) if per_draw else ():
        stage, origin = "sample", {"n": spec.n, "seed": spec.seed}
        with spectra._draw_threads(spec.n):
            try:
                w = sample_general(spec)
                stage = "check"
                for name, z, passed, value, failure in _resolvent_checks(w, config, checks):
                    counts[name] += 1
                    worst[name] = max(worst[name], value)
                    if not passed:
                        failures[name].append({**origin, "z": [z.real, z.imag], **failure})
                if _BOUND_KEYS.keys() & counts.keys():
                    stage = "pipeline"
                    for entry in check_pipeline_bounds(spec, w):
                        for name, key in _BOUND_KEYS.items():
                            if name in counts and key in entry:
                                counts[name] += 1
                                if not entry[key]:
                                    failures[name].append({**origin, **entry})
            except _DRAW_ERRORS as exc:
                for name in per_draw:
                    failures[name].append({**origin, "error": f"{stage} error: {exc}"})
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
