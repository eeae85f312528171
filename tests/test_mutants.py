"""The mutant table of ``tools/mutants.py`` stays applicable to the tree."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = runpy.run_path(str(ROOT / "tools" / "mutants.py"), run_name="mutants")


@pytest.mark.parametrize("mutant", TOOL["MUTANTS"], ids=lambda m: m.name)
def test_every_mutant_changes_one_line_and_compiles(mutant):
    # Its line occurs exactly once in its file, and the mutated file is still Python.
    original = (ROOT / mutant.path).read_text()
    mutated = TOOL["mutated_source"](ROOT, mutant)
    assert mutated != original
    assert abs(len(mutated.splitlines()) - len(original.splitlines())) <= 1
    compile(mutated, mutant.path, "exec")

