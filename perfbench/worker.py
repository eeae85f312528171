"""One quatspectra invocation in a fresh interpreter, timed from outside the library.

``run.py`` starts this script once per sample, with ``src`` on
``PYTHONPATH``.  It does what the ``quatspectra`` console script does for
``sweep --config`` or ``verify --config``: import the package, load and
validate the config, then ``run`` + ``emit`` or ``verify``.  Timings and the
values the output checks need are written as JSON to ``--result``::

    python3 perfbench/worker.py --config CFG --kind sweep --jobs 1 --result OUT
        [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext

from tracing import Tracer

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_and_peak_rss():
    """CPU seconds and peak RSS (MB) of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0  # Linux reports KiB


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_configuration": blas.get("openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in _BLAS_ENV},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--kind", choices=("sweep", "verify"), required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import quatspectra.cli  # noqa: F401  what the console script imports
    from quatspectra import experiment
    t1 = time.perf_counter()
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        config = experiment.ExperimentConfig.load(args.config)
        t2 = time.perf_counter()
        out = {"import_s": t1 - t0, "setup_s": t2 - t0}
        if args.setup_only:
            out["machine"] = machine()
        else:
            cpu0, _ = _cpu_and_peak_rss()
            w0 = time.perf_counter()
            if args.kind == "sweep":
                rows = experiment.run(config, jobs=args.jobs)
                experiment.emit(rows, config.output_format, config.output_path)
            else:
                report = experiment.verify(config)
            out["wall_s"] = time.perf_counter() - w0
            cpu1, rss = _cpu_and_peak_rss()
            out["cpu_s"] = cpu1 - cpu0
            out["peak_rss_mb"] = rss
            if args.kind == "sweep":
                out["trial_time_sum_s"] = sum(r.wall_time for r in rows)
                out["failed_trials"] = [i for i, r in enumerate(rows) if r.check_failures]
            else:
                out["report"] = report.to_json()
    if tracer:
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
