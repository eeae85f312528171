import importlib
import runpy
from pathlib import Path

import pytest

import quatspectra
from quatspectra import ensemble
from quatspectra.ensemble import EnsembleSpec, GSECoefficients


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


def test_benchmark_tracer_sees_every_pipeline_stage_and_restores():
    # The pipeline looks its stages up per call, so the tracer's wrappers
    # see them; afterwards every patched name is the original again.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracer = runpy.run_path(str(path))["Tracer"]()
    original = ensemble.centralize
    with tracer.installed():
        ensemble.run_pipeline(EnsembleSpec(n=6, distribution=GSECoefficients(), seed=1))
    names = {span[0] for span in tracer.spans}
    assert {"ensemble.run_pipeline", "ensemble.sample_general", "ensemble.truncate",
            "ensemble.zero_diagonal", "ensemble.centralize", "ensemble.rescale"} <= names
    assert ensemble.centralize is original
    assert ensemble.centralize_stage is original
    assert quatspectra.centralize is original
