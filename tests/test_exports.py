import importlib
import inspect
import runpy
from pathlib import Path

import pytest

import quatspectra
from quatspectra import ensemble
from quatspectra.ensemble import (EnsembleSpec, GSECoefficients, SelfDualMatrix,
                                  UserCoefficients, lindeberg_statistic)
from quatspectra.experiment import ExperimentConfig
from quatspectra.spectra import SpectralSample, histogram_csv, levy_distance


@pytest.mark.parametrize("func, param", [
    (SpectralSample.from_matrix, "tol"), (levy_distance, "tol"),
    (lindeberg_statistic, "mc_samples"), (SelfDualMatrix.check, "atol"),
    (histogram_csv, "sigma"), (histogram_csv, "support"),
    (UserCoefficients, "name"), (UserCoefficients, "check_seed"),
    (EnsembleSpec, "diagonal_bound"),
])
def test_settings_with_one_value_in_use_are_not_parameters(func, param):
    # Each of these is a module constant or gone; no caller set another value.
    assert param not in inspect.signature(func).parameters


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


def test_every_benchmark_workload_config_is_valid(tmp_path):
    # perfbench/run.py hands these configs to the library as they are, so a
    # stricter validation rule must still accept them.  run_path only reads.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(path))["WORKLOADS"]
    assert workloads
    for workload in workloads.values():
        config = ExperimentConfig.from_json(workload.config_json(0, tmp_path / "out.csv"))
        config.validate()
