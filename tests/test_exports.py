import importlib
import inspect
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

import quatspectra
from quatspectra import (ESD, UNIT, DomainError, Quaternion, SpecError, TwoPointCoefficients,
                         classify, d_related, embed, empirical_stieltjes, ensemble,
                         from_complex, is_type_t, rescale, resolvent, resolvent_structure_check,
                         sample_gse, semicircle_cdf, semicircle_pdf, semicircle_stieltjes,
                         trace_minor_check, truncate, u_related, verify_type2_inverse)
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


# Hostile scalars for one argument: None, bools, ints past float range,
# non-finite floats, a string and a complex number.
_HOSTILE = [None, True, False, 10**400, -10**400, math.nan, math.inf, -math.inf, "1", 1 + 1j]
# A count (n, trials, sizes) is never handed a huge value: it would just run.
_HOSTILE_COUNTS = [v for v in _HOSTILE if not (isinstance(v, int) and abs(v) > 2**64)]


def _typed_error_rows():
    """``(call, valid, position, errors, hostile)`` of each public scalar argument.

    ``call(*valid)`` succeeds; the argument at ``position`` is replaced by
    each hostile value, and the call must return or raise one of ``errors``.
    TypeError is listed only where Python's own wrong-type error reaches the
    caller.
    """
    eye, w = np.eye(2, dtype=complex), sample_gse(3, 0)
    spec = EnsembleSpec(n=4, distribution=GSECoefficients(), seed=0)
    esd = ESD([0.0, 1.0])
    z_errors = (DomainError, TypeError)  # complex(None) is a TypeError
    rows = [
        ("is_type_t", is_type_t, (eye, 1e-8), 1, ValueError),
        ("d_related", d_related, (eye, eye, 1e-8), 2, ValueError),
        ("u_related", u_related, (eye, eye, 1e-8), 2, ValueError),
        ("classify", classify, (np.eye(4), 1e-8), 1, ValueError),
        ("verify_type2_inverse.n", verify_type2_inverse, (1, 1, 0, 1e-8), 0, ValueError),
        ("verify_type2_inverse.trials", verify_type2_inverse, (1, 1, 0, 1e-8), 1, ValueError),
        ("verify_type2_inverse.seed", verify_type2_inverse, (1, 1, 0, 1e-8), 2, ValueError),
        ("verify_type2_inverse.tol", verify_type2_inverse, (1, 1, 0, 1e-8), 3, ValueError),
        ("from_complex.tol", from_complex, (eye, 1e-9), 1, (ValueError, TypeError)),
        ("Quaternion", Quaternion, (1.0, 0.0, 0.0, 0.0), 0, (ValueError, TypeError)),
        ("Quaternion.__mul__", lambda q, s: q * s, (UNIT, 2.0), 1, (ValueError, TypeError)),
        ("Quaternion.__rmul__", lambda s, q: s * q, (2.0, UNIT), 0, (ValueError, TypeError)),
        ("ESD", lambda x: ESD([0.0, x]), (1.0,), 0, (ValueError, TypeError)),
        ("levy_distance", lambda v: levy_distance(esd, lambda x: [v] * len(x)), (0.5,), 0,
         (ValueError, TypeError)),
        ("lindeberg_statistic", lindeberg_statistic, (spec, 0.5), 1, SpecError),
        ("truncate", truncate, (w, 0.5), 1, SpecError),
        ("rescale", rescale, (w, 1.0, 0), 1, SpecError),
        ("TwoPointCoefficients", lambda lo: TwoPointCoefficients(lo, 1, 0.5).validate(),
         (-1,), 0, SpecError),
        ("semicircle_pdf", semicircle_pdf, (0.0, 1.0), 1, ValueError),
        ("semicircle_cdf", semicircle_cdf, (0.0, 1.0), 1, ValueError),
        ("semicircle_stieltjes", semicircle_stieltjes, (1j,), 0, z_errors),
        ("empirical_stieltjes", empirical_stieltjes, (np.array([1.0, 1.0]), 1j), 1, z_errors),
        ("empirical_stieltjes.sample", lambda x: empirical_stieltjes([1.0, x], 1j), (1.0,), 0,
         (ValueError, TypeError)),
        ("resolvent", resolvent, (embed(w), 1j), 1, z_errors),
        ("resolvent_structure_check.z", resolvent_structure_check, (w, 1j, 1e-8), 1, z_errors),
        ("resolvent_structure_check.tol", resolvent_structure_check, (w, 1j, 1e-8), 2,
         ValueError),
        ("trace_minor_check", trace_minor_check, (w, 1j), 1, z_errors),
    ]
    counts = {"verify_type2_inverse.n", "verify_type2_inverse.trials"}
    return [pytest.param(call, valid, position, errors,
                         _HOSTILE_COUNTS if name in counts else _HOSTILE, id=name)
            for name, call, valid, position, errors in rows]


@pytest.mark.parametrize("call, valid, position, errors, hostile", _typed_error_rows())
def test_public_entry_points_raise_only_typed_errors(call, valid, position, errors, hostile):
    # Never a bare OverflowError, and never a NaN returned in place of an error.
    call(*valid)
    for value in hostile:
        args = list(valid)
        args[position] = value
        try:
            result = call(*args)
        except errors:
            continue
        assert not (isinstance(result, float) and math.isnan(result)), value
