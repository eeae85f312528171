import copy
import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatspectra import ensemble, experiment, spectra
from quatspectra.cli import main
from quatspectra.ensemble import (EnsembleSpec, EtaSchedule, GSECoefficients,
                                  SpecError, UserCoefficients,
                                  distribution_from_json, sample_general)
from quatspectra.experiment import (KNOWN_CHECKS, ConfigError,
                                    ExperimentConfig, default_verify_config,
                                    emit, run, stieltjes_label, trial_seed,
                                    verify)
from quatspectra.spectra import SpectralSample, semicircle_cdf


def uniform_sampler(rng, size):
    # Module level, so a sweep with jobs > 1 can pickle it.
    return rng.uniform(-1.0, 1.0, size=(size, 4))


def small_config(tmp_path, **overrides):
    base = dict(
        ensemble=EnsembleSpec(n=8, distribution=GSECoefficients(), seed=5,
                              eta=EtaSchedule("power", 0.125)),
        sizes=[4, 8],
        trials_per_size=2,
        z_grid=[1j, 1 + 1j],
        pipeline=False,
        checks=(),
        output_path=str(tmp_path / "sweep.csv"),
        output_format="csv",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# seeds and labels
# ---------------------------------------------------------------------------

def test_trial_seed_matches_documented_hash():
    digest = hashlib.sha256(b"5:8:1").digest()
    assert trial_seed(5, 8, 1) == int.from_bytes(digest[:8], "little")
    assert trial_seed(5, 8, 1) != trial_seed(5, 8, 2)
    assert trial_seed(5, 8, 1) != trial_seed(5, 16, 1)


def test_stieltjes_labels():
    assert stieltjes_label(1j) == "serr_re0_im1"
    assert stieltjes_label(2j) == "serr_re0_im2"
    assert stieltjes_label(1 + 1j) == "serr_re1_im1"
    assert stieltjes_label(-1 + 1j) == "serr_re-1_im1"
    assert stieltjes_label(0.5 + 0.25j) == "serr_re0.5_im0.25"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        small_config(tmp_path, sizes=[]).validate()
    with pytest.raises(ConfigError):
        small_config(tmp_path, sizes=[8, 4]).validate()
    with pytest.raises(ConfigError):
        small_config(tmp_path, sizes=[4, 4]).validate()
    with pytest.raises(ConfigError):
        small_config(tmp_path, z_grid=[1j, 1 - 1j]).validate()
    with pytest.raises(ConfigError):
        small_config(tmp_path, trials_per_size=0).validate()
    with pytest.raises(ConfigError):
        small_config(tmp_path, output_format="xml").validate()
    with pytest.raises(ConfigError):
        small_config(tmp_path, checks=("levy_bounds", "spectral_gap")).validate()
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            small_config(tmp_path, check_tol=tol).validate()
    for params in ({"inversion_dims": []}, {"inversion_dims": [0]},
                   {"inversion_dims": ["a"]}, {"inversion_dims": [1.5]},
                   {"inversion_dims": 3}, {"inversion_trials": -1},
                   {"inversion_trials": 0}, {"inversion_trials": "10"},
                   {"inversion_dim": [1, 2]}):
        with pytest.raises(ConfigError):
            small_config(tmp_path, check_params=params).validate()


def test_config_json_roundtrip(tmp_path):
    config = small_config(tmp_path, pipeline=True, checks=("levy_bounds",),
                          histograms=True)
    clone = ExperimentConfig.from_json(config.to_json())
    assert clone.to_json() == config.to_json()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"sizes": [2]})


@pytest.mark.parametrize("change", [
    {"trails_per_size": 5},
    {"pipeline": "false"},
    {"histograms": "no"},
    {"sizes": "48"},
    {"trials_per_size": 2.7},
    {"sizes": [4.9, 8]},
    {"output": {"pth": "x.csv"}},
    {"output_path": "x.csv"},
    {"ensemble": {"n": 2.5}},
    {"ensemble": {"seed": -3}},
    {"ensemble": {"etta": {"kind": "constant", "value": 0.5}}},
    {"ensemble": {"eta": {"kind": "power", "exponant": 0.5}}},
    {"ensemble": {"eta": {"kind": "power", "exponent": True}}},
    {"ensemble": {"eta": {"kind": "constant", "value": "0.5"}}},
    {"ensemble": {"distribution": {"kind": "gse", "parmas": {}}}},
    {"ensemble": {"distribution": {"kind": "two_point",
                                   "params": {"lo": "-1", "hi": 1.0, "p": 0.5}}}},
], ids=["misspelled_key", "string_pipeline", "string_histograms", "string_sizes",
        "float_trials", "float_sizes", "misspelled_output_key", "unnested_output_key",
        "float_n", "negative_seed", "misspelled_eta_key", "misspelled_exponent_key",
        "bool_exponent", "string_eta_value", "misspelled_params_key",
        "string_two_point_param"])
def test_from_json_rejects_misread_config(tmp_path, change):
    obj = small_config(tmp_path).to_json()
    obj["ensemble"].update(change.get("ensemble", {}))
    obj.update({key: value for key, value in change.items() if key != "ensemble"})
    with pytest.raises((ConfigError, SpecError)):
        ExperimentConfig.from_json(obj)


def test_readme_config_example_loads():
    # The README documents the schema by example; every key must be there
    # and load to the value it shows.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("A sweep configuration is JSON:", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert ExperimentConfig.from_json(example).to_json() == example


# Every built-in law; a two-point law with mean zero, as validation requires.
_LAWS = st.one_of(
    st.sampled_from([{"kind": kind, "params": {}}
                     for kind in ("gse", "rademacher", "uniform")]),
    st.builds(lambda p, hi: {"kind": "two_point",
                             "params": {"lo": -p * hi / (1 - p), "hi": hi, "p": p}},
              st.floats(0.01, 0.99), st.floats(0.1, 10.0)),
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ETAS = st.one_of(st.builds(EtaSchedule, st.just("power"), _FINITE),
                  st.builds(EtaSchedule, st.just("constant"),
                            st.floats(min_value=1e-6, max_value=1e6)))
_CONFIGS = st.builds(
    ExperimentConfig,
    ensemble=st.builds(EnsembleSpec, n=st.integers(1, 100),
                       distribution=_LAWS.map(distribution_from_json),
                       seed=st.integers(0, 2**64), eta=_ETAS),
    sizes=st.lists(st.integers(1, 10**4), min_size=1, max_size=4, unique=True).map(sorted),
    trials_per_size=st.integers(1, 100),
    z_grid=st.lists(st.builds(complex, _FINITE, st.floats(min_value=1e-6, max_value=1e6)),
                    max_size=4),
    pipeline=st.booleans(),
    checks=st.lists(st.sampled_from(KNOWN_CHECKS), unique=True).map(tuple),
    output_path=st.text(max_size=8),
    output_format=st.sampled_from(["csv", "json"]),
    histograms=st.booleans(),
    check_tol=st.floats(min_value=0, max_value=1e6),
    check_params=st.fixed_dictionaries({}, optional={
        "inversion_dims": st.lists(st.integers(1, 16), min_size=1, max_size=4),
        "inversion_trials": st.integers(1, 5000)}),
)


@settings(max_examples=100, deadline=None)
@given(_CONFIGS)
def test_config_json_roundtrip_property(config):
    config.validate()
    text = json.dumps(config.to_json())
    assert json.dumps(ExperimentConfig.from_json(json.loads(text)).to_json()) == text


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


def _list_of(ok):
    return lambda value: isinstance(value, list) and all(map(ok, value))


# Each schema key, as a path into the JSON form, with a test for the values of
# the right JSON type.  Any other value must be rejected.
_WELL_TYPED = {
    ("ensemble",): lambda v: isinstance(v, dict),
    ("ensemble", "n"): _is_int,
    ("ensemble", "seed"): _is_int,
    ("ensemble", "distribution"): lambda v: isinstance(v, dict),
    ("ensemble", "eta"): lambda v: isinstance(v, dict),
    ("sizes",): _list_of(_is_int),
    ("trials_per_size",): _is_int,
    ("z_grid",): _list_of(lambda p: isinstance(p, list) and len(p) == 2
                          and all(map(_is_number, p))),
    ("pipeline",): lambda v: isinstance(v, bool),
    ("checks",): _list_of(lambda v: isinstance(v, str)),
    ("output",): lambda v: isinstance(v, dict),
    ("output", "path"): lambda v: isinstance(v, str),
    ("output", "format"): lambda v: isinstance(v, str),
    ("histograms",): lambda v: isinstance(v, bool),
    ("check_tol",): _is_number,
    ("check_params",): lambda v: isinstance(v, dict),
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_CONFIGS, st.data())
def test_from_json_rejects_wrong_typed_values(config, data):
    obj = config.to_json()
    path = data.draw(st.sampled_from(sorted(_WELL_TYPED)))
    value = data.draw(_JSON_VALUES.filter(lambda v: not _WELL_TYPED[path](v)))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises((ConfigError, SpecError)):
        ExperimentConfig.from_json(obj)


def _number_paths(obj, path=()):
    """Paths of the numbers in a JSON value."""
    if isinstance(obj, dict):
        return [p for key, value in obj.items() for p in _number_paths(value, path + (key,))]
    if isinstance(obj, list):
        return [p for i, value in enumerate(obj) for p in _number_paths(value, path + (i,))]
    return [path] if _is_number(obj) else []


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=150, deadline=None)
@given(_CONFIGS, _NON_FINITE, st.data())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_experiment_rejects_non_finite_input(config, bad, data):
    # Any number of the JSON form, replaced by a non-finite one.
    obj = config.to_json()
    path = data.draw(st.sampled_from(_number_paths(obj)), label="path")
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises((ConfigError, SpecError)):
        ExperimentConfig.from_json(obj)
    # The same through a config built in Python.
    for spoil in (lambda c: setattr(c, "check_tol", bad),
                  lambda c: c.z_grid.append(complex(bad, 1.0)),
                  lambda c: c.z_grid.append(complex(0.0, bad)),
                  lambda c: setattr(c.ensemble.eta, "value", bad),
                  lambda c: setattr(c.ensemble, "n", bad)):
        spoilt = copy.deepcopy(config)
        spoil(spoilt)
        for fn in (run, verify):
            with pytest.raises((ConfigError, SpecError)):
                fn(spoilt)
    slot = data.draw(st.integers(0, 2), label="slot")
    args = [5, 8, 1]
    args[slot] = bad
    with pytest.raises(ConfigError):
        trial_seed(*args)
    with pytest.raises(ConfigError):
        stieltjes_label(complex(bad, 1.0))
    w = sample_general(replace(config.ensemble, n=4))
    with pytest.raises(SpecError):
        experiment.check_pipeline_bounds(replace(config.ensemble, n=4,
                                                 eta=EtaSchedule("power", bad)), w)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_run_rows_sorted_and_deterministic(tmp_path):
    config = small_config(tmp_path)
    rows = run(config)
    assert [(r.n, r.trial) for r in rows] == [(4, 0), (4, 1), (8, 0), (8, 1)]
    rows2 = run(config)
    assert [r.to_json() for r in rows] == [r.to_json() for r in rows2]
    for row in rows:
        assert row.kolmogorov >= 0 and row.levy >= 0
        assert set(row.stieltjes_errors) == {"serr_re0_im1", "serr_re1_im1"}
        assert all(np.isfinite(v) for v in row.stieltjes_errors.values())


def test_run_single_atom_kolmogorov(tmp_path):
    config = small_config(tmp_path, sizes=[1], trials_per_size=1)
    row = run(config)[0]
    spec = EnsembleSpec(n=1, distribution=GSECoefficients(),
                        seed=trial_seed(5, 1, 0))
    a = SpectralSample.from_matrix(sample_general(spec)).eigenvalues_dedup[0]
    expected = max(semicircle_cdf(a), 1 - semicircle_cdf(a))
    assert row.kolmogorov == pytest.approx(expected, rel=1e-12)


def test_run_with_pipeline_and_checks(tmp_path):
    config = small_config(tmp_path, pipeline=True,
                          checks=("resolvent_structure", "trace_minor"))
    rows = run(config)
    for row in rows:
        assert row.check_failures == []
        assert row.pipeline_summary is not None
        assert [s["name"] for s in row.pipeline_summary["stages"]] == \
            ["truncate", "zero_diagonal", "centralize", "rescale"]


def test_run_parallel_matches_serial(tmp_path):
    config = small_config(tmp_path)
    serial = run(config, jobs=1)
    parallel = run(config, jobs=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


@pytest.mark.parametrize("error", [spectra.PairingError, spectra.NotHermitianError,
                                   np.linalg.LinAlgError])
def test_run_records_a_failed_eigensolve_and_keeps_going(tmp_path, monkeypatch, error):
    config = small_config(tmp_path, checks=("resolvent_structure",))
    clean = run(config)
    spec = EnsembleSpec(n=8, distribution=GSECoefficients(), seed=trial_seed(5, 8, 1))
    bad = spectra.embed(sample_general(spec)).values
    solve = spectra.hermitian_eigenvalues

    def failing(m, **kwargs):
        if np.array_equal(m.values, bad):
            raise error("injected failure")
        return solve(m, **kwargs)

    monkeypatch.setattr(spectra, "hermitian_eigenvalues", failing)
    rows = run(config)
    assert [(r.n, r.trial) for r in rows] == [(4, 0), (4, 1), (8, 0), (8, 1)]
    *good, failed = rows
    assert [r.to_json() for r in good] == [r.to_json() for r in clean[:3]]
    assert math.isnan(failed.kolmogorov) and math.isnan(failed.levy)
    assert all(math.isnan(v) for v in failed.stieltjes_errors.values())
    assert failed.seed == clean[3].seed
    assert failed.check_failures == ["eigensolve error: injected failure"]
    emit(rows, "csv", tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text().splitlines()[-1].endswith("nan,nan,nan,nan")


@pytest.mark.parametrize("stage, error", [
    ("sample", SpecError), ("sample", np.linalg.LinAlgError),
    ("pipeline", ValueError), ("pipeline", np.linalg.LinAlgError)])
def test_run_records_a_failed_draw_and_keeps_going(tmp_path, monkeypatch, stage, error):
    config = small_config(tmp_path, pipeline=True, checks=("resolvent_structure",))
    clean = run(config)
    bad_seed = trial_seed(5, 4, 1)
    name = {"sample": "sample_general", "pipeline": "run_pipeline"}[stage]
    original = getattr(experiment, name)

    def failing(spec, *args, **kwargs):
        if spec.seed == bad_seed:
            raise error("injected failure")
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(experiment, name, failing)
    rows = run(config)
    assert [(r.n, r.trial) for r in rows] == [(4, 0), (4, 1), (8, 0), (8, 1)]
    failed = rows[1]
    assert [r.to_json() for i, r in enumerate(rows) if i != 1] == \
        [r.to_json() for i, r in enumerate(clean) if i != 1]
    assert failed.seed == bad_seed == clean[1].seed
    assert math.isnan(failed.kolmogorov) and math.isnan(failed.levy)
    assert all(math.isnan(v) for v in failed.stieltjes_errors.values())
    assert failed.pipeline_summary is None
    assert failed.check_failures == [f"{stage} error: injected failure"]
    # The CLI exits 1, as for any recorded failure, and still writes every row.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_json()))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert len(Path(config.output_path).read_text().splitlines()) == 5


def test_run_accepts_a_user_law(tmp_path):
    # A user law cannot be written as JSON; the trials get the live config.
    config = small_config(tmp_path, pipeline=True, checks=("resolvent_structure",),
                          ensemble=EnsembleSpec(n=8, distribution=UserCoefficients(uniform_sampler),
                                                seed=5, eta=EtaSchedule("constant", 0.5)))
    serial = run(config, jobs=1)
    assert [(r.n, r.trial) for r in serial] == [(4, 0), (4, 1), (8, 0), (8, 1)]
    assert all(r.check_failures == [] for r in serial)
    parallel = run(config, jobs=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

def test_emit_csv_schema(tmp_path):
    config = small_config(tmp_path)
    rows = run(config)
    path = emit(rows, "csv", config.output_path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["n", "seed", "kolmogorov", "levy",
                        "serr_re0_im1", "serr_re1_im1"]
    assert len(parsed) == 5
    assert parsed[1][0] == "4"


def test_emit_single_row(tmp_path):
    config = small_config(tmp_path, sizes=[2], trials_per_size=1)
    rows = run(config)
    path = emit(rows, "csv", tmp_path / "one.csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2


def test_emit_json_roundtrip(tmp_path):
    config = small_config(tmp_path)
    rows = run(config)
    path = emit(rows, "json", tmp_path / "rows.json")
    parsed = json.loads(path.read_text())
    assert parsed == [r.to_json() for r in rows]


def test_emit_rejects_empty():
    with pytest.raises(ValueError):
        emit([], "csv", "nowhere.csv")


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def test_verify_default_config_passes():
    config = default_verify_config(seed=3)
    config.check_params["inversion_trials"] = 80
    config.sizes = [4, 8]
    config.trials_per_size = 1
    report = verify(config)
    assert report.all_passed()
    names = [c.name for c in report.checks]
    assert names == list(("type2_inverse", "resolvent_structure", "trace_minor",
                          "levy_bounds", "rank_bounds"))
    payload = report.to_json()
    assert payload["passed"] is True


def test_verify_zero_tolerance_fails_with_witnesses():
    config = default_verify_config(seed=3)
    config.checks = ("resolvent_structure",)
    config.sizes = [4]
    config.trials_per_size = 1
    config.check_tol = 0.0
    report = verify(config)
    assert not report.all_passed()
    failures = report.checks[0].details["failures"]
    assert failures and all(f["residual"] > 0 for f in failures)


def test_verify_restricted_to_inversion():
    config = default_verify_config(seed=1)
    config.checks = ("type2_inverse",)
    config.check_params = {"inversion_dims": [1, 2, 3], "inversion_trials": 30}
    report = verify(config)
    assert report.all_passed()
    assert report.checks[0].details["trials"] == 30


def test_verify_runs_the_pipeline_once_per_draw(monkeypatch):
    seeds = []
    real = experiment.check_pipeline_bounds

    def counting(spec, w=None):
        seeds.append(spec.seed)
        return real(spec, w)

    monkeypatch.setattr(experiment, "check_pipeline_bounds", counting)
    config = default_verify_config(seed=0)
    config.checks = ("levy_bounds", "rank_bounds")
    assert verify(config).all_passed()
    assert seeds == [trial_seed(0, n, trial) for n in config.sizes
                     for trial in range(config.trials_per_size)]


def count_draws(monkeypatch):
    """Record the seed of every ``sample_general`` call, from either module."""
    seeds = []
    real = ensemble.sample_general

    def counting(spec):
        seeds.append(spec.seed)
        return real(spec)

    monkeypatch.setattr(ensemble, "sample_general", counting)
    monkeypatch.setattr(experiment, "sample_general", counting)
    return seeds


def test_verify_samples_each_draw_once(monkeypatch):
    seeds = count_draws(monkeypatch)
    config = default_verify_config(seed=0)
    config.check_params["inversion_trials"] = 16
    assert verify(config).all_passed()
    assert seeds == [trial_seed(0, n, trial) for n in config.sizes
                     for trial in range(config.trials_per_size)]


def test_verify_type2_inverse_only_samples_no_draw(monkeypatch):
    seeds = count_draws(monkeypatch)
    config = default_verify_config(seed=0)
    config.checks = ("type2_inverse",)
    config.check_params["inversion_trials"] = 16
    assert verify(config).all_passed()
    assert seeds == []


def test_verify_one_pass_matches_single_check_runs():
    config = default_verify_config(seed=4)
    full = verify(config).checks
    assert [c.name for c in full] == list(KNOWN_CHECKS)
    for result in full:
        config.checks = (result.name,)
        assert verify(config).checks == [result]
    config.checks = tuple(reversed(KNOWN_CHECKS))
    assert verify(config).checks == full[::-1]


def test_verify_records_a_failing_bound_entry_under_both_checks(monkeypatch):
    entry = {"stage": "truncate", "levy": 0.5, "levy_cube_bound": 0.0,
             "levy_ok": False, "sup_distance": 0.5, "rank_bound": 0.0,
             "rank_ok": False}
    monkeypatch.setattr(experiment, "check_pipeline_bounds", lambda spec, w=None: [entry])
    config = default_verify_config(seed=0)
    config.checks = ("levy_bounds", "rank_bounds")
    config.sizes = [4]
    config.trials_per_size = 1
    report = verify(config)
    failure = {"n": 4, "seed": trial_seed(0, 4, 0), **entry}
    assert [(c.name, c.passed, c.details) for c in report.checks] == [
        ("levy_bounds", False, {"checks": 1, "failures": [failure]}),
        ("rank_bounds", False, {"checks": 1, "failures": [failure]}),
    ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_sample_json(tmp_path, capsys):
    out = tmp_path / "sample.json"
    assert main(["sample", "--n", "3", "--seed", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spec"]["n"] == 3
    assert len(payload["spectrum"]["eigenvalues_dedup"]) == 3
    assert np.asarray(payload["coefficients"]).shape == (3, 3, 4)


def test_cli_sample_csv(tmp_path):
    out = tmp_path / "esd.csv"
    assert main(["sample", "--n", "4", "--seed", "1", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,F" and len(lines) == 5


def test_cli_pipeline(tmp_path):
    out = tmp_path / "trace.json"
    assert main(["pipeline", "--n", "6", "--seed", "2", "--distribution",
                 "rademacher", "--out", str(out)]) == 0
    trace = json.loads(out.read_text())
    assert [s["name"] for s in trace["stages"]] == \
        ["truncate", "zero_diagonal", "centralize", "rescale"]


def test_cli_sweep_deterministic_and_overrides(tmp_path):
    config = small_config(tmp_path, histograms=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_json()))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "hist_n4_t0.csv").exists()
    assert (tmp_path / "hist_n8_t1.csv").exists()


def test_cli_verify_exit_codes(tmp_path):
    config = default_verify_config(seed=2)
    config.checks = ("resolvent_structure",)
    config.sizes = [4]
    config.trials_per_size = 1
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(config.to_json()))
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg_path), "--out",
                 str(report_path)]) == 0
    assert json.loads(report_path.read_text())["passed"] is True

    config.check_tol = 0.0
    cfg_path.write_text(json.dumps(config.to_json()))
    assert main(["verify", "--config", str(cfg_path)]) == 1


def test_cli_user_errors_exit_code_two(tmp_path, capsys):
    assert main(["sample", "--n", "0"]) == 2
    assert main(["pipeline", "--n", "4", "--eta-exponent", "nan"]) == 2
    assert main(["sample", "--n", "3", "--eta-exponent", "nan"]) == 2
    assert main(["sample", "--n", "3", "--eta-exponent", "inf"]) == 2
    assert "error:" in capsys.readouterr().err
    config = small_config(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_json()))
    for jobs in ("0", "-3"):
        assert main(["sweep", "--config", str(cfg_path), "--jobs", jobs]) == 2
        with pytest.raises(ConfigError):
            run(config, jobs=int(jobs))
    assert main(["sample", "--n", "3", "--seed", "-1"]) == 2
    assert main(["verify", "--seed", "-2"]) == 2
    config.ensemble.seed = -3
    cfg_path.write_text(json.dumps(config.to_json()))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_bad_config_exit_code(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["sweep", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sizes": [3, 1]}))
    assert main(["sweep", "--config", str(bad)]) == 2
    negative_eta = small_config(tmp_path, ensemble=EnsembleSpec(
        n=8, distribution=GSECoefficients(), seed=5,
        eta=EtaSchedule("constant", -1.0)))
    bad.write_text(json.dumps(negative_eta.to_json()))
    assert main(["sweep", "--config", str(bad)]) == 2
    bad.write_text(json.dumps(small_config(tmp_path, check_tol=math.nan).to_json()))
    assert main(["sweep", "--config", str(bad)]) == 2
    for params in ({"inversion_dims": []}, {"inversion_dims": [0]},
                   {"inversion_dims": ["a"]}, {"inversion_trials": -5},
                   {"inversion_trails": 10}):
        config = default_verify_config()
        config.check_params = params
        bad.write_text(json.dumps(config.to_json()))
        assert main(["verify", "--config", str(bad)]) == 2
    for change in ({"checks": [["trace_minor"]]}, {"output": "x.csv"}, {"sizes": "48"}):
        bad.write_text(json.dumps({**small_config(tmp_path).to_json(), **change}))
        assert main(["sweep", "--config", str(bad)]) == 2
    misspelled_eta = small_config(tmp_path).to_json()
    misspelled_eta["ensemble"]["etta"] = {"kind": "constant", "value": 0.5}
    bad.write_text(json.dumps(misspelled_eta))
    assert main(["sweep", "--config", str(bad)]) == 2
    assert not (tmp_path / "sweep.csv").exists()
