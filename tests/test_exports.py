import importlib
import inspect
import math
import os
import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quatspectra
from quatspectra import (ESD, UNIT, DomainError, PairingError, Quaternion, SpecError,
                         TwoPointCoefficients, classify, d_related, dedup_pairs, embed,
                         empirical_stieltjes, ensemble, from_complex, is_type_t,
                         kolmogorov_distance, make_type2, rescale, resolvent,
                         resolvent_structure_check, sample_gse, schur_block_inverse,
                         semicircle_cdf, semicircle_pdf, semicircle_stieltjes,
                         trace_minor_check, truncate, u_related, verify_type2_inverse)
from quatspectra.ensemble import (EnsembleSpec, EtaSchedule, GSECoefficients, SelfDualMatrix,
                                  UserCoefficients, lindeberg_statistic)
from quatspectra.experiment import (ConfigError, ExperimentConfig, run, stieltjes_label,
                                    trial_seed)
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
# A count (n, trials, bins, jobs, sizes) is never handed a huge value: it would
# just run, or allocate.
_HOSTILE_COUNTS = [v for v in _HOSTILE if not (isinstance(v, int) and abs(v) > 2**64)]
_COUNTS = {"verify_type2_inverse.n", "verify_type2_inverse.trials", "make_type2.n",
           "EnsembleSpec.n", "sample_gse.n", "histogram_csv.bins",
           "ExperimentConfig.trials_per_size", "run.jobs"}


def _typed_error_rows():
    """``(id, parameter, call, valid, position, errors)`` of each public argument.

    ``call(*valid)`` succeeds; the argument at ``position`` is replaced by
    each hostile value, and the call must return or raise one of ``errors``.
    ``parameter`` is the perturbed parameter of the callable the id names.
    """
    eye, w = np.eye(2, dtype=complex), sample_gse(3, 0)
    spec = EnsembleSpec(n=4, distribution=GSECoefficients(), seed=0)
    config = ExperimentConfig(ensemble=spec, sizes=[2])
    esd = ESD([0.0, 1.0])
    t, coeffs = np.ones(2), np.zeros((2, 2, 4))
    rows = [
        ("is_type_t", "tol", is_type_t, (eye, 1e-8), 1, ValueError),
        ("d_related", "tol", d_related, (eye, eye, 1e-8), 2, ValueError),
        ("u_related", "tol", u_related, (eye, eye, 1e-8), 2, ValueError),
        ("classify", "tol", classify, (np.eye(4), 1e-8), 1, ValueError),
        ("make_type2.n", "n", make_type2, (2, t, coeffs), 0, ValueError),
        ("schur_block_inverse.split", "split", schur_block_inverse, (np.eye(4), 1), 1,
         ValueError),
        ("verify_type2_inverse.n", "n", verify_type2_inverse, (1, 1, 0, 1e-8), 0, ValueError),
        ("verify_type2_inverse.trials", "trials", verify_type2_inverse, (1, 1, 0, 1e-8), 1,
         ValueError),
        ("verify_type2_inverse.seed", "seed", verify_type2_inverse, (1, 1, 0, 1e-8), 2,
         ValueError),
        ("verify_type2_inverse.tol", "tol", verify_type2_inverse, (1, 1, 0, 1e-8), 3,
         ValueError),
        ("from_complex.tol", "tol", from_complex, (eye, 1e-9), 1, ValueError),
        ("Quaternion", "a", Quaternion, (1.0, 0.0, 0.0, 0.0), 0, ValueError),
        *((f"Quaternion.{name}", name, Quaternion, (1.0, 0.0, 0.0, 0.0), i, ValueError)
          for i, name in enumerate("bcd", 1)),
        ("Quaternion.__mul__", "__mul__", lambda q, s: q * s, (UNIT, 2.0), 1, ValueError),
        ("Quaternion.__rmul__", "__rmul__", lambda s, q: s * q, (2.0, UNIT), 0, ValueError),
        ("ESD", "values", lambda x: ESD([0.0, x]), (1.0,), 0, ValueError),
        ("ESD.cdf", "x", esd.cdf, (0.5,), 0, ValueError),
        ("ESD.cdf_left", "x", esd.cdf_left, (0.5,), 0, ValueError),
        ("levy_distance", "g", lambda v: levy_distance(esd, lambda x: [v] * len(x)), (0.5,), 0,
         ValueError),
        ("lindeberg_statistic", "eta", lindeberg_statistic, (spec, 0.5), 1, SpecError),
        ("truncate", "eta_n", truncate, (w, 0.5), 1, SpecError),
        ("rescale", "sigma_sq", rescale, (w, 1.0, 0), 1, SpecError),
        ("rescale.seed", "seed", rescale, (w, 0.1, 0), 2, SpecError),
        ("TwoPointCoefficients", "lo", lambda lo: TwoPointCoefficients(lo, 1, 0.5).validate(),
         (-1,), 0, SpecError),
        ("TwoPointCoefficients.hi", "hi", TwoPointCoefficients, (-1, 1, 0.5), 1, SpecError),
        ("TwoPointCoefficients.p", "p", TwoPointCoefficients, (-1, 1, 0.5), 2, SpecError),
        ("EtaSchedule.value", "value", lambda v: EtaSchedule("power", v).eta(4), (0.125,), 0,
         SpecError),
        ("EnsembleSpec.n", "n", lambda n: EnsembleSpec(n, GSECoefficients(), 0).validate(),
         (4,), 0, SpecError),
        ("EnsembleSpec.seed", "seed",
         lambda seed: EnsembleSpec(4, GSECoefficients(), seed).validate(), (0,), 0, SpecError),
        ("SelfDualMatrix.scale", "scale", SelfDualMatrix, (w.coeffs, 1.0), 1, ValueError),
        *((f"SelfDualMatrix.entry.{name}", name, w.entry, (1, 3), i, IndexError)
          for i, name in enumerate("jk")),
        *((f"BlockMatrix.block.{name}", name, embed(w).block, (1, 3), i, IndexError)
          for i, name in enumerate("jk")),
        ("sample_gse.n", "n", sample_gse, (3, 0), 0, SpecError),
        ("sample_gse.seed", "seed", sample_gse, (3, 0), 1, SpecError),
        ("semicircle_pdf", "sigma", semicircle_pdf, (0.0, 1.0), 1, ValueError),
        ("semicircle_pdf.x", "x", semicircle_pdf, (0.0, 1.0), 0, ValueError),
        ("semicircle_cdf", "sigma", semicircle_cdf, (0.0, 1.0), 1, ValueError),
        ("semicircle_cdf.x", "x", semicircle_cdf, (0.0, 1.0), 0, ValueError),
        ("kolmogorov_distance.sigma", "sigma", kolmogorov_distance, (esd, 1.0), 1, ValueError),
        ("semicircle_stieltjes", "z", semicircle_stieltjes, (1j,), 0, DomainError),
        ("empirical_stieltjes", "z", empirical_stieltjes, (np.array([1.0, 1.0]), 1j), 1,
         DomainError),
        ("empirical_stieltjes.sample", "sample", lambda x: empirical_stieltjes([1.0, x], 1j),
         (1.0,), 0, ValueError),
        ("resolvent", "z", resolvent, (embed(w), 1j), 1, DomainError),
        ("resolvent_structure_check.z", "z", resolvent_structure_check, (w, 1j, 1e-8), 1,
         DomainError),
        ("resolvent_structure_check.tol", "tol", resolvent_structure_check, (w, 1j, 1e-8), 2,
         ValueError),
        ("trace_minor_check", "z", trace_minor_check, (w, 1j), 1, DomainError),
        ("dedup_pairs.tol", "tol", dedup_pairs, (np.array([1.0, 1.0]), 1e-8), 1, PairingError),
        ("histogram_csv.bins", "bins", histogram_csv, ([0.0, 1.0], os.devnull, 40), 2,
         ValueError),
        ("ExperimentConfig.trials_per_size", "trials_per_size",
         lambda t: replace(config, trials_per_size=t).validate(), (1,), 0, ConfigError),
        ("ExperimentConfig.check_tol", "check_tol",
         lambda tol: replace(config, check_tol=tol).validate(), (1e-8,), 0, ConfigError),
        *((f"trial_seed.{name}", name, trial_seed, (0, 2, 0), i, ConfigError)
          for i, name in enumerate(("seed", "n", "trial"))),
        ("stieltjes_label.z", "z", stieltjes_label, (1j,), 0, ConfigError),
        ("run.jobs", "jobs", run, (config, 1), 1, ConfigError),
    ]
    return rows


@pytest.mark.parametrize("call, valid, position, errors, hostile", [
    pytest.param(call, valid, position, errors,
                 _HOSTILE_COUNTS if name in _COUNTS else _HOSTILE, id=name)
    for name, _, call, valid, position, errors in _typed_error_rows()])
def test_public_entry_points_raise_only_typed_errors(call, valid, position, errors, hostile):
    # Never a bare OverflowError or TypeError, and never a NaN returned in
    # place of an error.
    call(*valid)
    for value in hostile:
        args = list(valid)
        args[position] = value
        try:
            result = call(*args)
        except errors:
            continue
        assert not (isinstance(result, float) and math.isnan(result)), value


# Classes whose scalar fields are results the library fills in, not arguments.
_RESULT_RECORDS = {"StructureReport", "InversionCheckReport", "StageRecord", "PipelineTrace",
                   "SpectralSample", "StieltjesPoint", "ResolventStructureReport",
                   "TraceMinorReport", "ConvergenceRow"}


def test_every_annotated_scalar_parameter_has_a_typed_error_row():
    # Each int, float or complex parameter of an exported callable.
    covered = {f"{name.split('.')[0]}.{parameter}" for name, parameter, *_ in _typed_error_rows()}
    exported, missing = set(), []
    for name in ("quaternion", "structure", "ensemble", "spectra", "experiment"):
        module = importlib.import_module(f"quatspectra.{name}")
        exported |= set(module.__all__)
        for attr in set(module.__all__) - _RESULT_RECORDS:
            obj = getattr(module, attr)
            if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
                continue
            missing += [f"{attr}.{p.name}" for p in inspect.signature(obj).parameters.values()
                        if p.annotation in ("int", "float", "complex", int, float, complex)
                        and f"{attr}.{p.name}" not in covered]
    assert sorted(missing) == []
    assert _RESULT_RECORDS <= exported


@pytest.mark.parametrize("call", [
    lambda: Quaternion(True, 0, 0, 0),
    lambda: Quaternion("1", 0, 0, 0),
    lambda: from_complex(np.eye(2), tol=True),
    lambda: histogram_csv([0.0, 1.0], os.devnull, bins=True),
    lambda: schur_block_inverse(np.eye(4), True),
    lambda: make_type2(True, np.ones(1), np.zeros((1, 1, 4))),
    lambda: semicircle_pdf("1"),
    lambda: semicircle_cdf(b"1"),
    lambda: ESD(["0.5"]),
], ids=["Quaternion.bool", "Quaternion.str", "from_complex.tol", "histogram_csv.bins",
        "schur_block_inverse.split", "make_type2.n", "semicircle_pdf.str",
        "semicircle_cdf.bytes", "ESD.str"])
def test_a_bool_or_a_string_is_not_a_number_argument(call):
    # Python would take each as the number 1 (numpy parses a string as its number);
    # the table above only sees errors.
    with pytest.raises(ValueError):
        call()
