"""The quatspectra benchmark workloads.

Each workload is one ``sweep`` or ``verify`` configuration.  It is generated
from the benchmark seed and reaches the library only as a config file, the
way ``quatspectra sweep --config`` and ``quatspectra verify --config`` receive
it.  Each workload is built so that a different layer does most of its work,
so a change to one layer can show a gain on one workload and no change on the
others.

The layer shares quoted next to each workload were measured on a 2-core
x86-64 machine (OpenBLAS 0.3.31, default BLAS threading, one process) with
the library as it stood when the benchmark was written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Seed at which the sweep CSVs are compared with the stored references.
DEFAULT_SEED = 0

_FIVE_CHECKS = ("type2_inverse", "resolvent_structure", "trace_minor",
                "levy_bounds", "rank_bounds")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sweep" or "verify"
    jobs: int
    config: dict              # ExperimentConfig JSON without seed and output path
    why: str
    reference_csv: Optional[str] = None   # file under reference/, at DEFAULT_SEED

    def config_json(self, seed: int, output_path: str) -> dict:
        cfg = dict(self.config)
        cfg["ensemble"] = {**cfg["ensemble"], "seed": seed}
        cfg["output"] = {"path": output_path, "format": "csv"}
        return cfg

    def trials(self) -> list:
        """``(n, trial)`` of every sweep row, in output order."""
        return [(n, t) for n in self.config["sizes"]
                for t in range(self.config["trials_per_size"])]

    def expected_checks(self) -> dict:
        """Number of elementary checks each verify check must report."""
        draws = len(self.config["sizes"]) * self.config["trials_per_size"]
        params = self.config["check_params"]
        dims = params["inversion_dims"]
        per_dim = -(-params["inversion_trials"] // len(dims))
        z = len(self.config["z_grid"])
        return {
            "type2_inverse": per_dim * len(dims),
            "resolvent_structure": draws * z,
            "trace_minor": draws * z,
            "levy_bounds": draws * 4,     # one per pipeline stage
            "rank_bounds": draws,         # truncation stage only
        }

    @property
    def operations(self) -> int:
        """Operations one iteration attempts: trials of a sweep, checks of a verify."""
        return len(self.trials()) if self.kind == "sweep" else len(_FIVE_CHECKS)


_GSE = {"kind": "gse", "params": {}}
_TWO_POINT_SWEEP = {
    "ensemble": {"n": 8,
                 "distribution": {"kind": "two_point",
                                  "params": {"lo": -1.0, "hi": 9.0, "p": 0.1}},
                 "eta": {"kind": "power", "exponent": 0.35}},
    "sizes": [50, 100, 200],
    "trials_per_size": 40,
    "z_grid": [[0, 1], [0, 2], [1, 1], [-1, 1]],
    "pipeline": True,
    "histograms": True,
}

WORKLOADS = {w.name: w for w in (
    # Few large GSE draws, nothing else switched on: this measures the
    # 2n x 2n complex Hermitian eigensolve.  spectra.hermitian_eigenvalues
    # took 91% of the ~3.9 s; the pipeline, structure checks and the process
    # pool do no work here.
    Workload(
        name="sweep_gse_large",
        kind="sweep",
        jobs=1,
        config={
            "ensemble": {"n": 8, "distribution": _GSE},
            "sizes": [400, 800],
            "trials_per_size": 3,
            "z_grid": [[0, 1], [0, 2], [1, 1], [-1, 1]],
        },
        why="few large GSE draws, no pipeline or checks: the 2n x 2n "
            "Hermitian eigensolve takes ~91% of the time",
        reference_csv="sweep_gse_large.csv",
    ),
    # Many small heavy-tailed trials that really truncate and recentre
    # (17,028 entries truncated, centering shift 0.073).  The eigensolve is
    # ~50% of the ~2.9 s, ensemble sampling and pipeline stages ~40%,
    # histogram and CSV writes ~3%.  ExperimentConfig.from_json runs once per
    # trial (121 calls with the load), so per-trial overhead in experiment
    # shows.
    # Not listed in BENCHMARK.json: its run medians drift with the host's
    # load more than the bound allows.  Over ten seeds at --seconds 35 the
    # interquartile range of wall_s was 0.30 of the median (cpu_s 0.28);
    # sweep_gse_large and verify_structural measured 0.13 and 0.18 in the
    # same session.  It stays runnable by name; the ensemble layer is still
    # measured on verify_structural, whose levy/rank checks run the pipeline.
    Workload(
        name="sweep_two_point_pipeline",
        kind="sweep",
        jobs=1,
        config=_TWO_POINT_SWEEP,
        why="many small two-point trials through the truncate/centralize/"
            "rescale pipeline: ensemble stages ~40%, eigensolve ~50%",
        reference_csv="sweep_two_point_pipeline.csv",
    ),
    # All five checks on small GSE draws.  spectra is used through dense
    # solves, not eigvalsh: the O(n^4) trace-minor resolvent solves take
    # ~49% of the ~4.0 s, structure.make_type2 (a Python double loop) ~25%,
    # classify ~10%; the eigensolve is ~1%.
    Workload(
        name="verify_structural",
        kind="verify",
        jobs=1,
        config={
            "ensemble": {"n": 8, "distribution": _GSE,
                         "eta": {"kind": "power", "exponent": 0.125}},
            "sizes": [48, 96],
            "trials_per_size": 2,
            "z_grid": [[0, 1], [1, 1]],
            "pipeline": True,
            "checks": list(_FIVE_CHECKS),
            "check_params": {"inversion_dims": list(range(1, 9)),
                             "inversion_trials": 2000},
        },
        why="all five structural checks: trace-minor resolvent solves ~49%, "
            "make_type2 ~25%, classify ~10%, eigensolve ~1%",
    ),
    # The sweep_two_point_pipeline config at jobs=2, the only path through
    # experiment.run's ProcessPoolExecutor.  Known defect, shown on purpose:
    # each forked worker starts 2 OpenBLAS threads on 2 cores, so this ran
    # 2-20x slower than jobs=1 (6.5-9 s on most runs, tails of 23 s and
    # 56 s) while its CSV stayed byte-identical.  No BLAS-thread environment
    # override is set, because one would hide the defect.
    # Not listed in BENCHMARK.json: too unsteady to gate.  Over five seeds at
    # --seconds 15 the run medians of wall_s ranged from 7.6 s to 126 s
    # (interquartile range 5.4x the median; cpu_s 5.6x).  It stays runnable
    # by name, for the change that fixes the BLAS thread policy.
    Workload(
        name="sweep_jobs2",
        kind="sweep",
        jobs=2,
        config=_TWO_POINT_SWEEP,
        why="the two-point pipeline sweep at jobs=2, the only process-pool "
            "path; shows the BLAS oversubscription defect",
        reference_csv="sweep_two_point_pipeline.csv",
    ),
)}
