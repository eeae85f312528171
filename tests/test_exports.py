import importlib
import runpy
from pathlib import Path

import pytest


@pytest.mark.parametrize("name", ["quaternion", "structure", "ensemble",
                                  "spectra", "experiment"])
def test_every_exported_name_resolves(name):
    # A stale __all__ entry breaks ``from quatspectra.<module> import *``.
    module = importlib.import_module(f"quatspectra.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_every_benchmark_tracer_target_resolves():
    # perfbench/tracing.py wraps these names by string for a traced benchmark
    # run (``perfbench/run.py --trace 1``), so renaming one breaks it.
    # run_path only reads the file.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for mod_name, attr, *_ in runpy.run_path(str(path))["_TARGETS"]:
        module = importlib.import_module(f"quatspectra.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{mod_name}.{attr}"
        else:
            assert hasattr(module, attr), f"{mod_name}.{attr}"
