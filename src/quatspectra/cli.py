"""Command line driver: sample, sweep, verify, pipeline."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .ensemble import (_BUILTINS, EnsembleSpec, EtaSchedule, SpecError,
                       distribution_from_json, run_pipeline, sample_general)
from .experiment import (ConfigError, ExperimentConfig, default_verify_config,
                         emit, run, verify)
from .spectra import ESD, DomainError, SpectralSample, esd_to_csv

_CLI_DISTRIBUTIONS = tuple(kind for kind, law in _BUILTINS.items() if not law.param_names)


def _write_or_print(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _ensemble_from_args(args) -> EnsembleSpec:
    dist = distribution_from_json({"kind": args.distribution, "params": {}})
    return EnsembleSpec(n=args.n, distribution=dist, seed=args.seed,
                        eta=EtaSchedule("power", args.eta_exponent))


def _cmd_sample(args) -> int:
    spec = _ensemble_from_args(args)
    w = sample_general(spec)
    sample = SpectralSample.from_matrix(w)
    if args.format == "csv":
        if args.out == "-":
            raise ConfigError("csv sample output requires --out <path>")
        esd_to_csv(ESD(sample.eigenvalues_dedup), args.out)
        return 0
    payload = {
        "spec": spec.to_json(),
        "scale": w.scale,
        "coefficients": w.coeffs.tolist(),
        "spectrum": sample.to_json(),
    }
    _write_or_print(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_pipeline(args) -> int:
    spec = _ensemble_from_args(args)
    _, trace = run_pipeline(spec, keep_matrices=False)
    _write_or_print(json.dumps(trace.to_json(), indent=2), args.out)
    return 0


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config)
    if args.seed is not None:
        config.ensemble.seed = args.seed
    if getattr(args, "out", None):
        config.output_path = args.out
    if getattr(args, "format", None):
        config.output_format = args.format
    config.validate()
    return config


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    rows = run(config, jobs=args.jobs)
    path = emit(rows, config.output_format, config.output_path)
    failures = sum(len(r.check_failures) for r in rows)
    total_time = sum(r.wall_time for r in rows)
    print(f"wrote {path} ({len(rows)} rows, {total_time:.1f}s of trial time)")
    if failures:
        print(f"{failures} per-trial check failure(s) recorded", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        config = _load_config(args)
    else:
        config = default_verify_config(seed=args.seed if args.seed is not None else 0)
    report = verify(config)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = {k: v for k, v in check.details.items()
                  if k in ("trials", "passes", "checks", "max_residual", "worst_ratio")}
        print(f"{status} {check.name} {detail}")
    if args.out:
        _write_or_print(json.dumps(report.to_json(), indent=2), args.out)
    return 0 if report.all_passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatspectra",
        description="Self-dual quaternion random matrices: sampling, "
                    "reduction pipeline, spectral sweeps and structure checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ensemble_flags(p):
        p.add_argument("--n", type=int, required=True, help="quaternion dimension")
        p.add_argument("--distribution", choices=_CLI_DISTRIBUTIONS, default="gse")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eta-exponent", type=float, default=EtaSchedule.value,
                       help="truncation level eta_n = n**(-exponent)")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")

    p_sample = sub.add_parser("sample", help="draw one matrix and its spectrum")
    add_ensemble_flags(p_sample)
    p_sample.add_argument("--format", choices=("json", "csv"), default="json")
    p_sample.set_defaults(func=_cmd_sample)

    p_pipe = sub.add_parser("pipeline", help="run the reduction stages with trace")
    add_ensemble_flags(p_pipe)
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_sweep = sub.add_parser("sweep", help="run a configured Monte Carlo sweep")
    p_sweep.add_argument("--config", required=True, help="JSON configuration path")
    p_sweep.add_argument("--seed", type=int, default=None, help="override base seed")
    p_sweep.add_argument("--out", default=None, help="override output path")
    p_sweep.add_argument("--format", choices=("csv", "json"), default=None)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the structural check suite")
    p_verify.add_argument("--config", default=None, help="JSON configuration path")
    p_verify.add_argument("--seed", type=int, default=None, help="override base seed")
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpecError, DomainError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
