"""Run the test suite against a fixed list of one-line mutants of the library.

    python tools/mutants.py

Run it from anywhere; the tree is the repository this file sits in.  Each
mutant names a file, one source line (stripped of its indentation) that must
occur exactly once in that file, and the line that replaces it (``None``
deletes it).  For each mutant in turn, the script copies the tree, without
``.git``, into a temporary directory, applies the mutant there and runs
``python -m pytest -x -q -p no:cacheprovider`` in the copy, for at most
``TIMEOUT_S`` seconds, one run at a time: first on the mutated module's own
test file, ``tests/test_<module>.py`` where one exists, and on the rest of
the suite only if the mutant survives there.  It prints the test that killed
the mutant, or ``survived``, and the time the runs took.  Only the copies are
edited.  ``tests/test_mutants.py`` is left out of the runs: it checks this
table against the unmutated tree, so it would fail on every mutant.

The exit code is 1 if a mutant survived or could not be applied, else 0.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900  # a full Tier-1 run takes 75-95 s on 2 cores
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench", "*.egg-info")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                   # relative to the repository root
    line: str                   # the source line, without its indentation
    replacement: Optional[str]  # None deletes the line


MUTANTS = [
    Mutant("tridiagonal-rank2-halved", "src/quatspectra/spectra.py",
           "y -= (0.5 * tau * np.vdot(v, y).real) * v",
           "y -= (0.25 * tau * np.vdot(v, y).real) * v"),
    Mutant("stage-levy-bound-halved", "src/quatspectra/ensemble.py",
           "return out, StageRecord(name=name, levy_cube_bound=float((delta**2).sum() / w.n), "
           "**fields)",
           "return out, StageRecord(name=name, levy_cube_bound=float((delta**2).sum() "
           "/ (2 * w.n)), **fields)"),
    Mutant("ks-lower-limit-shifted", "src/quatspectra/spectra.py",
           "lower = ref - np.arange(0, n) / n",
           "lower = ref - np.arange(1, n + 1) / n"),
    Mutant("dedup-keeps-upper-value", "src/quatspectra/spectra.py",
           "return eigs[0::2].copy(), residual",
           "return eigs[1::2].copy(), residual"),
    Mutant("trial-seed-byte-order", "src/quatspectra/experiment.py",
           'return int.from_bytes(digest[:8], "little")',
           'return int.from_bytes(digest[:8], "big")'),
    Mutant("trace-minor-bound-doubled", "src/quatspectra/spectra.py",
           "bound = 2.0 / z.imag",
           "bound = 4.0 / z.imag"),
    Mutant("truncate-threshold-tie", "src/quatspectra/ensemble.py",
           "mask = norms > threshold",
           "mask = norms >= threshold"),
    Mutant("diagonal-not-doubled", "src/quatspectra/ensemble.py",
           "return 2.0 * out[:, 0]",
           "return out[:, 0]"),
    Mutant("user-fill-last-columns", "src/quatspectra/ensemble.py",
           "np.multiply(self._draw(rng, len(out))[:, :out.shape[1]], self._scale, out=out)",
           "np.multiply(self._draw(rng, len(out))[:, -out.shape[1]:], self._scale, out=out)"),
    Mutant("rescale-diagonal-not-restored", "src/quatspectra/ensemble.py",
           "coeffs[idx, idx] = w.coeffs[idx, idx]",
           None),
    Mutant("centralize-shape-unchecked", "src/quatspectra/ensemble.py",
           "if truncated_mean.shape != (4,):",
           "if False:"),
    Mutant("pcg64-second-step-dropped", "src/quatspectra/structure.py",
           "lcg = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc  "
           "# from 0: a step, + seed, a step",
           "lcg = (s_hi << 64 | s_lo) + inc"),
    Mutant("long-seeds-vectorized-to-96-bits", "src/quatspectra/structure.py",
           "if seed >> 64:",
           "if seed >> 96:"),
]


def mutated_source(root: Path, mutant: Mutant) -> str:
    """The text of ``mutant.path`` under ``root`` with the mutant applied; ValueError
    unless its line occurs exactly once."""
    lines = (root / mutant.path).read_text().splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == mutant.line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: {len(hits)} lines of {mutant.path} "
                         f"read {mutant.line!r}, expected 1")
    i = hits[0]
    if mutant.replacement is None:
        del lines[i]
    else:
        indent = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
        lines[i] = indent + mutant.replacement + "\n"
    return "".join(lines)


def _killer(output: str) -> str:
    """The first failing or erroring test named in pytest's short summary."""
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return match.group(1) if match else "killed (no test named)"


def run_mutant(mutant: Mutant) -> tuple:
    """``(outcome, seconds)``: the killing test, ``survived`` or ``timeout``."""
    own = f"tests/test_{Path(mutant.path).stem}.py"
    rest = ["--ignore=tests/test_mutants.py"]
    runs = [[own], rest + [f"--ignore={own}"]] if (ROOT / own).exists() else [rest]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        (tree / mutant.path).write_text(mutated_source(ROOT, mutant))
        # the copy's library, never one that PYTHONPATH points at
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        for args in runs:
            try:
                proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                                       "-p", "no:cacheprovider", *args],
                                      cwd=tree, env=env, capture_output=True, text=True,
                                      timeout=max(TIMEOUT_S - (time.perf_counter() - t0), 1))
            except subprocess.TimeoutExpired:
                return "timeout", time.perf_counter() - t0
            if proc.returncode != 0:
                return _killer(proc.stdout), time.perf_counter() - t0
    return "survived", time.perf_counter() - t0


def main() -> int:
    failed = False
    for mutant in MUTANTS:
        try:
            outcome, seconds = run_mutant(mutant)
        except ValueError as exc:
            outcome, seconds = f"not applied: {exc}", 0.0
        failed |= outcome == "survived" or outcome.startswith("not applied")
        print(f"{mutant.name:32s} {seconds:7.1f} s  {outcome}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
