"""Benchmark of ``quatspectra sweep`` and ``quatspectra verify``, with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the library is imported from ``src``.  The
workloads are defined in ``workloads.py``.  Every sample is a fresh
interpreter (``worker.py``) doing what one CLI call does, and samples run one
after another, so the load is a closed loop with a single client.  Samples
keep starting until ``--seconds`` have passed (at least three untraced
samples, or one traced pair).

``--trace 0`` reports the end-to-end metrics, medians over the samples:

* ``setup_s``: import ``quatspectra`` and load and validate the config in a
  fresh interpreter, timed in every sample after one dropped warm-up.
* ``wall_s``: the ``run`` + ``emit`` or ``verify`` call.
* ``cpu_s``: user + system CPU of the process and its children over that call.
* ``peak_rss_mb``: largest resident set of the process or any pool worker.

``--trace 1`` alternates untraced samples with traced ones (at jobs=1) that
wrap each layer's public functions (see ``tracing.py``) and reports the
per-layer metrics: medians over the traced samples, plus the tracing
overhead, traced minus untraced ``wall_s`` at jobs=1.

Every sample's output is checked: the expected rows or check counts, finite
values, a passing verify report, identical outputs across the samples of a
run (for ``sweep_jobs2``, identical to the same config at jobs=1), and, at the
default seed, the sweep CSV against ``reference/`` (``REL_TOL``, and
``LEVY_ABS_TOL`` for the Levy column).  A trial or check that fails any of
these counts in ``failed``.  The reference CSVs are the outputs of this
benchmark at the default seed, copied from the run directory.

A human-readable table goes to stdout, then, as the last line, the JSON
result.  Samples, checks, the machine and (with tracing) the spans are
written to ``.perfbench/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 3
LAST_START_S = 120     # no sample starts after this many seconds
DEADLINE_S = 165       # a worker still running then is killed
REL_TOL = 1e-9
LEVY_ABS_TOL = 2e-6    # the Levy distance is a bisection bracket of width 1e-6

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Per-layer values derived from matrix sizes, not measured.
COMPUTED_SUFFIXES = (".gflop", ".gflop_per_s", ".bytes", ".solve_n3")


class WorkerError(RuntimeError):
    pass


def _unit(name: str) -> str:
    if name.endswith(".gflop_per_s"):
        return "gflop/s"
    if name.endswith(".gflop"):
        return "gflop"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_residual", "_max")):
        return "ratio"
    return "count"


def _summary(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted: int, failed: int, problems=()):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


class Session:
    def __init__(self, root: Path, workload, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.start = time.monotonic()
        self.dir = root / ".perfbench" / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out_dir = self.dir / "out"
        self.out_dir.mkdir(parents=True)
        self.csv_path = self.out_dir / "sweep.csv"
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(
            workload.config_json(seed, str(self.csv_path)), indent=2))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.tally = Tally()
        self.expected_csv = None
        self.expected_report = None
        self.csv_sha256 = set()
        self.reference = None
        if workload.reference_csv and seed == DEFAULT_SEED:
            self.reference = (HERE / "reference" / workload.reference_csv).read_bytes()
        self.last_spans = None

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, jobs=1, setup_only=False, trace=False) -> dict:
        result = self.dir / "worker.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(self.config),
               "--kind", self.workload.kind, "--jobs", str(jobs), "--result", str(result)]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise WorkerError("no time left to start a worker")
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise WorkerError(f"worker killed after {timeout:.0f} s")
        finally:
            _kill_group(proc.pid)  # pool workers a crashed worker left behind
        if proc.returncode != 0:
            lines = err.strip().splitlines()
            raise WorkerError(lines[-1] if lines else f"worker exit code {proc.returncode}")
        return json.loads(result.read_text())

    def sample(self, jobs: int, trace: bool = False):
        """One checked run of the workload; None if the worker failed."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()
        try:
            res = self.worker(jobs=jobs, trace=trace)
        except WorkerError as exc:
            self.tally.add(self.workload.operations, self.workload.operations,
                           [f"jobs={jobs} trace={trace}: {exc}"])
            return None
        if self.workload.kind == "sweep":
            self.check_sweep(res, jobs)
        else:
            self.check_verify(res["report"])
        if trace:
            self.last_spans = res.pop("spans")
            res["layers"] = layer_metrics(self.last_spans, res.pop("counters"))
        return res

    def check_sweep(self, res: dict, jobs: int):
        trials = self.workload.trials()
        label = f"jobs={jobs}"
        try:
            data = self.csv_path.read_bytes()
        except OSError as exc:
            self.tally.add(len(trials), len(trials), [f"{label}: no CSV ({exc})"])
            return
        self.csv_sha256.add(hashlib.sha256(data).hexdigest())
        header, *body = list(csv.reader(io.StringIO(data.decode())))
        n_z = len(self.workload.config["z_grid"])
        if header[:4] != ["n", "seed", "kolmogorov", "levy"] or len(header) != 4 + n_z \
                or len(body) != len(trials):
            self.tally.add(len(trials), len(trials),
                           [f"{label}: CSV has header {header} and {len(body)} rows"])
            return
        bad = {i: "check failure recorded" for i in res["failed_trials"]}
        reference = None
        if self.reference is not None:
            reference = list(csv.reader(io.StringIO(self.reference.decode())))[1:]
        expected = None
        if self.expected_csv is not None:
            expected = list(csv.reader(io.StringIO(self.expected_csv.decode())))[1:]
        for i, (row, (n, trial)) in enumerate(zip(body, trials)):
            values = [float(x) for x in row[2:]]
            if int(row[0]) != n:
                bad[i] = f"n={row[0]}, expected {n}"
            elif not all(math.isfinite(v) and v >= 0 for v in values) \
                    or max(values[:2]) > 1:
                bad[i] = f"values out of range: {row}"
            elif reference is not None and not _close(row, reference[i]):
                bad[i] = f"differs from reference: {row} vs {reference[i]}"
            elif expected is not None and row != expected[i]:
                bad[i] = f"differs from the first jobs=1 output: {row} vs {expected[i]}"
            elif self.workload.config.get("histograms") and \
                    not (self.out_dir / f"hist_n{n}_t{trial}.csv").is_file():
                bad[i] = "histogram missing"
        if self.expected_csv is None:
            self.expected_csv = data
        self.tally.add(len(trials), len(bad),
                       [f"{label} row {i}: {why}" for i, why in sorted(bad.items())])

    def check_verify(self, report: dict):
        got = {c["name"]: c for c in report["checks"]}
        problems = []
        for name, count in self.workload.expected_checks().items():
            check = got.get(name)
            details = check["details"] if check else {}
            done = details.get("trials" if name == "type2_inverse" else "checks")
            health = [details[k] for k in ("max_residual", "worst_ratio") if k in details]
            expected = self.expected_report["checks"] if self.expected_report else None
            if check is None:
                problems.append(f"{name}: missing")
            elif not check["passed"] or details.get("passes", done) != done:
                problems.append(f"{name}: failed")
            elif done != count:
                problems.append(f"{name}: {done} checks, expected {count}")
            elif not all(math.isfinite(v) for v in health):
                problems.append(f"{name}: non-finite {health}")
            elif expected is not None and check not in expected:
                problems.append(f"{name}: differs from the first sample's report")
        if self.expected_report is None:
            self.expected_report = report
        self.tally.add(self.workload.operations, len(problems), problems)


def _close(row, ref) -> bool:
    if row[:2] != ref[:2] or len(row) != len(ref):
        return False
    for col, (a, b) in enumerate(zip(row[2:], ref[2:])):
        a, b = float(a), float(b)
        tol = LEVY_ABS_TOL if col == 1 else REL_TOL * max(abs(a), abs(b))
        if abs(a - b) > tol:
            return False
    return True


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _verify_health(report) -> dict:
    details = [c["details"] for c in report["checks"]] if report else []
    return {
        "experiment.verify.worst_ratio": max(
            (d["worst_ratio"] for d in details if "worst_ratio" in d), default=0.0),
        "experiment.verify.max_residual": max(
            (d["max_residual"] for d in details if "max_residual" in d), default=0.0),
    }


def _pool_metrics(samples, jobs) -> dict:
    sums = [s.get("trial_time_sum_s", 0.0) for s in samples]
    busy = [t / (jobs * s["wall_s"]) for t, s in zip(sums, samples)]
    return {"experiment.trial_time_sum_s": statistics.median(sums),
            "experiment.pool_busy_ratio": statistics.median(busy)}


def measure(session: Session, seconds: float, trace: bool):
    """Run the samples; return (metrics, detail for the results file)."""
    workload = session.workload
    # Warm-up: writes the bytecode caches of a fresh checkout; its timing is dropped.
    machine = session.worker(setup_only=True)["machine"]
    jobs1 = []
    if workload.jobs > 1:
        # The same config at jobs=1: the CSV every pooled run must reproduce.
        ref = session.sample(jobs=1)
        jobs1 = [ref] if ref else []
    untraced, traced = [], []

    def enough():
        counted = bool(traced) if trace else len(untraced) >= MIN_SAMPLES
        return counted and session.elapsed() >= seconds

    while not enough() and session.elapsed() <= LAST_START_S:
        untraced.append(session.sample(jobs=workload.jobs))
        if trace:
            traced.append(session.sample(jobs=1, trace=True))
    untraced = [s for s in untraced if s]
    traced = [s for s in traced if s]
    if not untraced or (trace and not traced) or (workload.jobs > 1 and not jobs1):
        raise WorkerError("no sample completed: " + "; ".join(session.tally.problems[:3]))
    setups = untraced + jobs1
    samples = {
        "setup_s": [s["setup_s"] for s in setups],
        "wall_s": [s["wall_s"] for s in untraced],
        "cpu_s": [s["cpu_s"] for s in untraced],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
    }
    detail = {"machine": machine,
              "end_to_end": {k: _summary(v) for k, v in samples.items()},
              "samples": samples}
    if not trace:
        return {k: statistics.median(v) for k, v in samples.items()}, detail

    layers = {k: statistics.median(s["layers"][k] for s in traced)
              for k in traced[0]["layers"]}
    layers.update(_pool_metrics(untraced, workload.jobs))
    layers.update(_verify_health(untraced[-1].get("report")))
    layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    base = untraced if workload.jobs == 1 else jobs1
    layers["trace.traced_wall_s"] = statistics.median(s["wall_s"] for s in traced)
    layers["trace.untraced_wall_s"] = statistics.median(s["wall_s"] for s in base)
    layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
    detail["per_layer_samples"] = [s["layers"] for s in traced]
    return layers, detail


def _check_declared(bench: dict, metrics: dict, trace: bool):
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if declared != produced:
        differing = sorted(set(declared.items()) ^ set(produced.items()))
        raise SystemExit(f"perfbench: BENCHMARK.json does not match the benchmark "
                         f"(differing metrics {differing})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "quatspectra" / "__init__.py").is_file():
        print("perfbench: src/quatspectra not found; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload]

    session = Session(root, workload, args.seed, trace)
    try:
        values, detail = measure(session, args.seconds, trace)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = END_TO_END_UNITS if not trace else {k: _unit(k) for k in values}
    metrics = {k: (values[k], units[k]) for k in sorted(values)}
    _check_declared(bench, metrics, trace)

    tally = session.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update({
        "workload": workload.name, "why": workload.why, "kind": workload.kind,
        "jobs": workload.jobs, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "result": result,
        "fail_rate": tally.failed / tally.attempted,
        "computed_not_measured": [k for k in metrics if k.endswith(COMPUTED_SUFFIXES)],
        "checks": {
            "problems": tally.problems,
            "csv_sha256": sorted(session.csv_sha256),
            "reference": workload.reference_csv if session.reference else None,
            "reference_sha256": (hashlib.sha256(session.reference).hexdigest()
                                 if session.reference else None),
            "rel_tol": REL_TOL, "levy_abs_tol": LEVY_ABS_TOL,
        },
    })
    (session.dir / "results.json").write_text(json.dumps(detail, indent=2))
    if session.last_spans is not None:
        (session.dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "size"],
             "spans": session.last_spans}))

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} operations, {tally.failed} failed")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    for name, (value, unit) in metrics.items():
        note = "  (computed)" if name.endswith(COMPUTED_SUFFIXES) else ""
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
