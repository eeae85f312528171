import copy
import csv
import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace import traced_peak
from oracles import (pipeline_bounds_with_every_spectrum,
                     resolvent_checks_by_public_calls)
from quatspectra import cli, ensemble, experiment, spectra
from quatspectra.cli import main
from quatspectra.ensemble import (EnsembleSpec, EtaSchedule, GSECoefficients,
                                  SpecError, TwoPointCoefficients, UserCoefficients,
                                  distribution_from_json, run_pipeline,
                                  sample_general)
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


def test_z_grid_points_sharing_a_label_are_rejected(tmp_path):
    # 1j and 1.0000001j both format as "im1": they would merge into one column.
    with pytest.raises(ConfigError, match=r"1j and 1\.0000001j share the column label "
                                          "serr_re0_im1"):
        small_config(tmp_path, z_grid=[1j, 1.0000001j, 2j, 2j]).validate()
    with pytest.raises(ConfigError, match=r"2j and 2j share"):
        small_config(tmp_path, z_grid=[2j] * 2).validate()
    small_config(tmp_path, z_grid=[1j, 1.00001j, 2j]).validate()  # im1, im1.00001, im2
    cfg_path = tmp_path / "config.json"
    obj = small_config(tmp_path).to_json()
    cfg_path.write_text(json.dumps({**obj, "z_grid": [[0, 1], [0, 1.0000001]]}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "sweep.csv").exists()


def test_config_json_roundtrip(tmp_path):
    config = small_config(tmp_path, pipeline=True, checks=("levy_bounds",),
                          histograms=True)
    clone = ExperimentConfig.from_json(config.to_json())
    assert clone.to_json() == config.to_json()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"sizes": [2]})


def _edit_in_place(value):
    """Add an item to every list and dict inside ``value``."""
    if isinstance(value, dict):
        for item in list(value.values()):
            _edit_in_place(item)
        value["edited"] = True
    elif isinstance(value, list):
        for item in value:
            _edit_in_place(item)
        value.append("edited")


def test_config_to_json_hands_out_its_own_copy(tmp_path):
    config = small_config(tmp_path, pipeline=True, checks=("levy_bounds",),
                          check_params={"inversion_dims": [1, 2], "inversion_trials": 4})
    want = json.dumps(config.to_json())
    obj = config.to_json()
    _edit_in_place(obj)
    assert "edited" in obj["check_params"]["inversion_dims"]
    assert json.dumps(config.to_json()) == want
    config.validate()


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
                    max_size=4, unique_by=stieltjes_label),
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


_HUGE = 10**400  # beyond float range


@pytest.mark.parametrize("load, obj", [
    (EtaSchedule.from_json, {"kind": "constant"}),
    (EtaSchedule.from_json, 3),
    (EtaSchedule.from_json, {"kind": ["power"]}),
    (EnsembleSpec.from_json, {"distribution": {"kind": "gse"}, "seed": 0}),
    (EnsembleSpec.from_json, {"n": 4, "distribution": {"kind": "gse"}}),
    (EnsembleSpec.from_json, [4, {"kind": "gse"}, 0]),
    (distribution_from_json, {"kind": "two_point", "params": {"lo": -1.0, "hi": 1.0}}),
    (distribution_from_json, {"kind": "gse", "params": {"p": 0.5}}),
    (distribution_from_json, {"kind": {}}),
    (distribution_from_json, "gse"),
    (distribution_from_json, {"kind": "two_point",
                              "params": {"lo": -_HUGE, "hi": 1.0, "p": 0.5}}),
    (lambda obj: distribution_from_json(obj).validate(),
     {"kind": "two_point", "params": {"lo": -1e200, "hi": 1e200, "p": 0.5}}),
], ids=["constant_eta_without_value", "eta_not_an_object", "unhashable_eta_kind",
        "ensemble_without_n", "ensemble_without_seed", "ensemble_as_list",
        "two_point_without_p", "gse_with_a_param", "unhashable_kind",
        "distribution_not_an_object", "two_point_param_past_float_range",
        "two_point_variance_past_float_range"])
def test_entry_points_raise_spec_error(load, obj):
    with pytest.raises(SpecError):
        load(obj)


@pytest.mark.parametrize("eta", [{"kind": "power", "exponent": _HUGE},
                                 {"kind": "constant", "value": _HUGE},
                                 {"kind": "constant", "value": -_HUGE}])
def test_an_eta_value_past_float_range_exits_two(tmp_path, capsys, eta):
    obj = small_config(tmp_path).to_json()
    obj["ensemble"]["eta"] = eta
    with pytest.raises(SpecError, match="eta schedule value must be a finite number"):
        ExperimentConfig.from_json(obj)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(obj))  # the int is written out in full
    assert "1" + "0" * 400 in cfg_path.read_text()
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "error: eta schedule value" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def _key_paths(obj, path=()):
    """Paths of every value in a JSON value: object keys and list indices."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    return [p for key, value in items
            for p in [path + (key,), *_key_paths(value, path + (key,))]]


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


def _loads_or_raises(load, obj, errors):
    try:
        load(obj)
    except errors:
        pass


@settings(max_examples=200, deadline=None)
@given(_CONFIGS, _ANY_JSON)
def test_config_entry_points_raise_only_typed_errors(config, value):
    # One JSON value at each key of a valid config in turn: it loads, or the
    # loader raises its typed error, never a KeyError, TypeError or
    # OverflowError.  The ensemble's loaders also get the value itself.
    for loader in (EnsembleSpec.from_json, distribution_from_json, EtaSchedule.from_json):
        _loads_or_raises(loader, value, SpecError)
    valid = config.to_json()
    for path in _key_paths(valid):
        obj = config.to_json()  # a fresh copy, for this edit alone
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        _loads_or_raises(ExperimentConfig.from_json, obj, (ConfigError, SpecError))
        spec = obj["ensemble"]
        _loads_or_raises(EnsembleSpec.from_json, spec, SpecError)
        if isinstance(spec, dict) and path[:1] == ("ensemble",):
            _loads_or_raises(distribution_from_json, spec.get("distribution"), SpecError)
            _loads_or_raises(EtaSchedule.from_json, spec.get("eta", {}), SpecError)


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


needs_thread_symbols = pytest.mark.skipif(
    spectra._GET_THREADS is None or spectra._SET_THREADS is None,
    reason="numpy's OpenBLAS exports no thread-count functions")


def test_run_jobs_reproduce_serial_rows_by_size(tmp_path):
    # Exact at every size: below _QUAT_MIN a draw runs on one BLAS thread, and
    # from it the quaternion route gives the same bits at any thread count.
    quat_min = spectra._QUAT_MIN
    sizes = [quat_min - 1, quat_min, 200, 256]
    config = small_config(tmp_path, sizes=sizes, pipeline=True,
                          checks=("resolvent_structure", "trace_minor"))
    serial = json.dumps([r.to_json() for r in run(config, jobs=1)])
    parallel = json.dumps([r.to_json() for r in run(config, jobs=2)])
    assert [r["n"] for r in json.loads(serial)] == [n for n in sizes for _ in range(2)]
    assert serial == parallel


def record_trials(monkeypatch):
    """Record the ``(n, trial)`` of every draw ``run`` hands ``_run_trial``."""
    seen = []
    real = experiment._run_trial

    def recording(config, hist_dir, draw):
        seen.append((draw[1].n, draw[0]))
        return real(config, hist_dir, draw)

    monkeypatch.setattr(experiment, "_run_trial", recording)
    return seen


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_hands_out_the_largest_draws_first(tmp_path, monkeypatch, jobs):
    # n descending, trials ascending within a size, in-process and in a pool
    # (run in-process here); the rows stay in (n, trial) order.
    pools = _inline_pools(monkeypatch, 2)
    seen = record_trials(monkeypatch)
    config = small_config(tmp_path, sizes=[4, 8, 12])
    rows = run(config, jobs=jobs)
    assert seen == [(12, 0), (12, 1), (8, 0), (8, 1), (4, 0), (4, 1)]
    assert [(r.n, r.trial) for r in rows] == sorted(seen)
    assert len(pools) == (jobs > 1)


def test_run_rows_are_the_trials_in_draw_order(tmp_path):
    # Running largest first changes no row and no histogram: each is what
    # _run_trial gives for that draw on its own, in (n, trial) order.
    config = small_config(tmp_path, sizes=[3, 6, 9], histograms=True, pipeline=True,
                          checks=("resolvent_structure",))
    got = [r.to_json() for r in run(config)]
    alone = tmp_path / "alone"
    alone.mkdir()
    want = [experiment._run_trial(config, str(alone), draw).to_json()
            for draw in sorted(experiment._draws(config), key=lambda draw: draw[1].n)]
    assert json.dumps(got) == json.dumps(want)
    names = sorted(p.name for p in alone.iterdir())
    assert len(names) == 6
    assert all((tmp_path / name).read_bytes() == (alone / name).read_bytes()
               for name in names)


def test_draws_below_the_threshold_run_on_one_blas_thread(tmp_path, monkeypatch):
    state = {"threads": 4}
    monkeypatch.setattr(spectra, "_GET_THREADS", lambda: state["threads"])
    monkeypatch.setattr(spectra, "_SET_THREADS", lambda count: state.update(threads=count))
    seen = []
    sample, type2 = experiment.sample_general, experiment.verify_type2_inverse

    def recording_sample(spec):
        seen.append((spec.n, state["threads"]))
        return sample(spec)

    def recording_type2(n, *args, **kwargs):
        seen.append(("type2", state["threads"]))
        return type2(n, *args, **kwargs)

    monkeypatch.setattr(experiment, "sample_general", recording_sample)
    monkeypatch.setattr(experiment, "verify_type2_inverse", recording_type2)
    small, large = spectra._QUAT_MIN - 1, spectra._QUAT_MIN
    config = small_config(tmp_path, sizes=[small, large], trials_per_size=1, z_grid=[1j],
                          checks=("type2_inverse", "resolvent_structure"),
                          check_params={"inversion_dims": [1, 2], "inversion_trials": 2})
    run(config)
    assert seen == [(large, 4), (small, 1)] and state["threads"] == 4
    seen.clear()
    assert verify(config).all_passed()
    assert seen == [(large, 4), (small, 1), ("type2", 1), ("type2", 1)]
    assert state["threads"] == 4


def _blas_thread_count():
    # Module level, so a pool worker can run it.
    return spectra._GET_THREADS()


@needs_thread_symbols
def test_pool_initializer_pins_the_share_it_is_given():
    from concurrent.futures import ProcessPoolExecutor
    with spectra._blas_threads(2):  # a forked worker would inherit 2
        with ProcessPoolExecutor(max_workers=1, initializer=experiment._pin_blas_threads,
                                 initargs=(1,)) as pool:
            assert pool.submit(_blas_thread_count).result(timeout=60) == 1


def _inline_pools(monkeypatch, threads):
    """Run pools in-process with ``threads`` BLAS threads; return the list of pools made."""
    import concurrent.futures
    pools = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            pools.append((max_workers, initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(spectra, "_GET_THREADS", lambda: threads)
    monkeypatch.setattr(spectra, "_SET_THREADS", lambda count: None)
    return pools


@pytest.mark.parametrize("jobs, share", [(2, 2), (3, 1), (8, 1)])
def test_run_gives_each_pool_worker_its_share_of_the_threads(tmp_path, monkeypatch,
                                                             jobs, share):
    pools = _inline_pools(monkeypatch, 5)
    config = small_config(tmp_path)  # 4 draws: no more than 4 workers
    assert [r.to_json() for r in run(config, jobs=jobs)] == \
        [r.to_json() for r in run(config, jobs=1)]
    assert pools == [(min(jobs, 4), experiment._pin_blas_threads, (share,))]


def test_run_caps_the_pool_at_the_draw_count(tmp_path, monkeypatch):
    # Far more jobs than draws: one worker per draw, each with its share of
    # the threads; a single draw runs in-process, with no pool at all.
    pools = _inline_pools(monkeypatch, 8)
    config = small_config(tmp_path)
    want = [r.to_json() for r in run(config, jobs=1)]
    assert [r.to_json() for r in run(config, jobs=64)] == want
    assert pools == [(4, experiment._pin_blas_threads, (2,))]
    pools.clear()
    single = small_config(tmp_path, sizes=[4], trials_per_size=1)
    assert [r.to_json() for r in run(single, jobs=64)] == want[:1]
    assert pools == []


def test_cli_import_leaves_the_process_pool_unloaded():
    # The pool's modules (multiprocessing, pickle, socket) load only for jobs > 1.
    src = str(Path(experiment.__file__).resolve().parent.parent)
    code = "import sys, quatspectra.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("jobs", [0, -1, 2.5, 1.0, "2", math.nan, True, None])
def test_run_rejects_a_job_count_that_is_not_a_positive_integer(tmp_path, jobs):
    with pytest.raises(ConfigError, match="jobs must be an integer >= 1"):
        run(small_config(tmp_path), jobs=jobs)


def test_sweep_rows_do_not_depend_on_overwrite(tmp_path, monkeypatch):
    # The checks read each draw before the eigensolve takes over its array;
    # at check_tol 0 every residual is reported, so they must see it intact.
    config = small_config(tmp_path, sizes=[spectra._QUAT_MIN], trials_per_size=1,
                          checks=("resolvent_structure", "trace_minor"), check_tol=0.0)
    rows = [r.to_json() for r in run(config)]
    assert any(f.startswith("resolvent_structure") for f in rows[0]["check_failures"])
    keep = SpectralSample.from_matrix
    monkeypatch.setattr(SpectralSample, "from_matrix", lambda w, overwrite: keep(w))
    assert json.dumps(rows) == json.dumps([r.to_json() for r in run(config)])


def test_sweep_trial_peak_memory(tmp_path):
    # Sampling into the draw's own array, then the reduction in that array
    # with O(n) panels: about 1.2 coefficient arrays at n = 300, 1.6 with the
    # raw triangle held apart, 2.2 with a working copy.
    config = small_config(tmp_path, sizes=[300], trials_per_size=1)
    draw = next(experiment._draws(config))
    experiment._run_trial(config, None, draw)
    peak = traced_peak(lambda: experiment._run_trial(config, None, draw))
    assert peak <= 1.25 * 32 * 300 ** 2


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


def test_run_and_verify_record_a_memory_error(tmp_path, monkeypatch):
    # A size too large for memory loses its own rows, not the sweep; it is
    # the largest, so its draws run first, in run and verify alike.  verify
    # records each of its draws under every per-draw check, ahead of the
    # smaller draws' outcomes, and keeps every other draw's results.
    config = small_config(tmp_path, pipeline=True, checks=("resolvent_structure",))
    clean = [r.to_json() for r in run(config)]
    # At check_tol 0 the n = 4 draws record structure failures, after the errors.
    per_draw = replace(config, checks=KNOWN_CHECKS[1:], check_tol=0.0)
    clean_checks = verify(replace(per_draw, sizes=[4])).to_json()["checks"]
    assert clean_checks[0]["details"]["failures"]
    sample = experiment.sample_general

    def failing(spec):
        if spec.n == 8:
            raise MemoryError("cannot allocate the draw")
        return sample(spec)

    monkeypatch.setattr(experiment, "sample_general", failing)
    rows = run(config)
    assert [r.to_json() for r in rows[:2]] == clean[:2]
    assert [(r.n, r.seed) for r in rows[2:]] == [(r["n"], r["seed"]) for r in clean[2:]]
    for row in rows[2:]:
        assert math.isnan(row.kolmogorov) and math.isnan(row.levy)
        assert all(math.isnan(v) for v in row.stieltjes_errors.values())
        assert row.check_failures == ["sample error: cannot allocate the draw"]
    report = verify(per_draw).to_json()
    assert report["passed"] is False
    errors = [{"n": r["n"], "seed": r["seed"], "error": "sample error: cannot allocate the draw"}
              for r in clean[2:]]
    assert [c["name"] for c in report["checks"]] == list(KNOWN_CHECKS[1:])
    for got, want in zip(report["checks"], clean_checks):
        details = want["details"]
        assert got["details"] == {**details, "failures": errors + details["failures"]}


def test_verify_records_a_failed_pipeline_and_keeps_the_resolvent_outcomes(monkeypatch):
    # At check_tol 0 every structure check fails, so each of its outcomes is
    # in the report; the failed draw keeps those it recorded before the error.
    # The n = 8 draw runs first: its outcomes, its error, then the n = 4 draw's.
    config = default_verify_config(seed=0)
    config.checks = KNOWN_CHECKS[1:]
    config.sizes = [4, 8]
    config.trials_per_size = 1
    config.check_tol = 0.0
    full = verify(config).to_json()["checks"]
    small = verify(replace(config, sizes=[4])).to_json()["checks"]
    bad_seed = trial_seed(0, 8, 0)
    bounds = experiment.check_pipeline_bounds

    def failing(spec, w=None):
        if spec.seed == bad_seed:
            raise np.linalg.LinAlgError("injected failure")
        return bounds(spec, w)

    monkeypatch.setattr(experiment, "check_pipeline_bounds", failing)
    report = verify(config).to_json()
    assert report["passed"] is False
    error = {"n": 8, "seed": bad_seed, "error": "pipeline error: injected failure"}
    assert any(f.get("n") == 8 for f in full[0]["details"]["failures"])
    for got, want in zip(report["checks"], full[:2] + small[2:]):
        details = want["details"]
        failures = details["failures"]
        first = [f for f in failures if f["n"] == 8]
        assert got["details"] == {**details, "failures": first + [error] + failures[len(first):]}


_REAL_RUN_TRIAL = experiment._run_trial


def _dying_trial(config, hist_dir, draw):
    # Module level, so a pool can pickle it.  The last draw handed out kills
    # its worker once the other draws have had time to finish.
    if (draw[1].n, draw[0]) == (4, 2):
        time.sleep(0.5)
        os._exit(1)
    return _REAL_RUN_TRIAL(config, hist_dir, draw)


def test_run_keeps_the_finished_rows_of_a_broken_pool(tmp_path, monkeypatch):
    # A dead worker breaks the pool: every draw that did not finish becomes a
    # failed row, and every finished row is the serial one.
    config = small_config(tmp_path, trials_per_size=3)
    serial = [r.to_json() for r in run(config)]
    monkeypatch.setattr(experiment, "_run_trial", _dying_trial)
    rows = [r.to_json() for r in run(config, jobs=2)]
    assert [(r["n"], r["trial"]) for r in rows] == [(r["n"], r["trial"]) for r in serial]
    failed = [r for r in rows if r["check_failures"]]
    assert rows[2] in failed and len(failed) < len(rows)
    for row in failed:
        assert row["check_failures"][0].startswith("pool error: ")
        assert math.isnan(row["kolmogorov"]) and math.isnan(row["levy"])
        assert all(math.isnan(v) for v in row["stieltjes_errors"].values())
    for row, want in zip(rows, serial):
        assert row in failed or row == want


@pytest.mark.skipif(spectra._DSTERF is None, reason="numpy's OpenBLAS lacks dsterf")
def test_run_records_a_failed_dsterf_and_keeps_going(tmp_path, monkeypatch):
    # Every draw takes the quaternion reduction; dsterf fails on the n = 8 draws.
    config = small_config(tmp_path, checks=("resolvent_structure",))
    monkeypatch.setattr(spectra, "_QUAT_MIN", 1)
    clean = run(config)
    dsterf = spectra._DSTERF
    monkeypatch.setattr(spectra, "_DSTERF", lambda n, d, e: 1 if n == 8 else dsterf(n, d, e))
    rows = run(config)
    assert [r.to_json() for r in rows[:2]] == [r.to_json() for r in clean[:2]]
    for failed in rows[2:]:
        assert math.isnan(failed.kolmogorov) and math.isnan(failed.levy)
        assert all(math.isnan(v) for v in failed.stieltjes_errors.values())
        assert failed.check_failures == ["eigensolve error: dsterf failed with info=1"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_json()))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert Path(config.output_path).read_text().splitlines()[-1].endswith("nan,nan,nan,nan")


@pytest.mark.parametrize("name", ["sweep_gse_large", "sweep_two_point_pipeline"])
def test_large_sweep_matches_the_benchmark_reference(tmp_path, monkeypatch, name):
    # A sweep workload at the benchmark's default seed, held to its reference
    # CSV by the benchmark's own comparison, so a drift of the large-n
    # eigenvalue path, or of sampling and the reduction pipeline, fails here
    # too.  run_path only reads the files.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    for module_name in ("tracing", "workloads"):  # run.py imports them by name
        module = SimpleNamespace(**runpy.run_path(str(bench / f"{module_name}.py")))
        monkeypatch.setitem(sys.modules, module_name, module)
    close = runpy.run_path(str(bench / "run.py"))["_close"]
    workloads = sys.modules["workloads"]
    workload = workloads.WORKLOADS[name]
    config = ExperimentConfig.from_json(
        workload.config_json(workloads.DEFAULT_SEED, str(tmp_path / "sweep.csv")))
    with open(emit(run(config), "csv", config.output_path), newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(bench / "reference" / workload.reference_csv, newline="") as fh:
        ref_header, *reference = csv.reader(fh)
    assert header == ref_header and len(rows) == len(reference) == len(workload.trials())
    for row, ref in zip(rows, reference):
        assert close(row, ref), (row, ref)


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


def _no_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_emit_json_writes_a_failed_draw_as_null(tmp_path, monkeypatch):
    config = small_config(tmp_path, pipeline=True)
    bad_seed = trial_seed(5, 8, 0)
    sample = experiment.sample_general

    def failing(spec):
        if spec.seed == bad_seed:
            raise SpecError("injected failure")
        return sample(spec)

    monkeypatch.setattr(experiment, "sample_general", failing)
    rows = run(config)
    path = emit(rows, "json", tmp_path / "rows.json")
    parsed = json.loads(path.read_text(), parse_constant=_no_constant)
    failed = parsed[2]
    assert (failed["n"], failed["trial"]) == (8, 0)
    assert failed["kolmogorov"] is failed["levy"] is None
    assert set(failed["stieltjes_errors"].values()) == {None}
    assert failed["check_failures"] == ["sample error: injected failure"]
    assert [row for i, row in enumerate(parsed) if i != 2] == \
        [r.to_json() for i, r in enumerate(rows) if i != 2]
    csv_text = emit(rows, "csv", tmp_path / "rows.csv").read_text()
    assert csv_text.splitlines()[3].endswith("nan,nan,nan,nan")


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
    assert seeds == [trial_seed(0, n, trial) for n in reversed(config.sizes)
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
    assert seeds == [trial_seed(0, n, trial) for n in reversed(config.sizes)
                     for trial in range(config.trials_per_size)]


def test_verify_samples_the_largest_draws_first(tmp_path, monkeypatch):
    # verify draws in run's order: n descending, trials ascending within a
    # size, so a size too large to allocate fails before any smaller draw.
    seen = []
    real = experiment.sample_general

    def recording(spec):
        seen.append(spec.n)
        return real(spec)

    monkeypatch.setattr(experiment, "sample_general", recording)
    config = small_config(tmp_path, sizes=[4, 8, 12], checks=("trace_minor",))
    verify(config)
    assert seen == [12, 12, 8, 8, 4, 4]
    assert [(draw[1].n, draw[0]) for draw in experiment._draws(config)] == \
        [(12, 0), (12, 1), (8, 0), (8, 1), (4, 0), (4, 1)]


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


_RESOLVENT_CHECKS = ("resolvent_structure", "trace_minor")


@pytest.mark.parametrize("names", [_RESOLVENT_CHECKS[:1], _RESOLVENT_CHECKS[1:],
                                   _RESOLVENT_CHECKS, _RESOLVENT_CHECKS[::-1]])
def test_resolvent_checks_match_the_public_checks(tmp_path, names):
    # One resolvent per grid point serves both checks; the results are the
    # public checks' to the bit, point by point, the structure result first.
    config = small_config(tmp_path, z_grid=[1j, 1 + 1j, -0.5 + 0.25j], check_tol=1e-14)
    w = sample_general(replace(config.ensemble, n=6))
    want = list(resolvent_checks_by_public_calls(w, config, names))
    assert len(want) == 3 * len(names)
    assert list(experiment._resolvent_checks(w, config, names)) == want


def test_verify_and_sweep_match_the_public_resolvent_checks(tmp_path, monkeypatch):
    # At check_tol 0 every structure check fails, so the reports carry values.
    verify_config = small_config(tmp_path, checks=_RESOLVENT_CHECKS, check_tol=0.0)
    sweep_config = small_config(tmp_path, pipeline=True, checks=_RESOLVENT_CHECKS,
                                check_tol=0.0)
    got = [verify(verify_config).to_json(), [r.to_json() for r in run(sweep_config)]]
    assert got[0]["checks"][0]["details"]["failures"]
    monkeypatch.setattr(experiment, "_resolvent_checks", resolvent_checks_by_public_calls)
    want = [verify(verify_config).to_json(), [r.to_json() for r in run(sweep_config)]]
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("names, failing, recorded", [
    (_RESOLVENT_CHECKS, "_trace_minor_report",
     ["resolvent_structure z=1j", "trace_minor z=1j", "resolvent_structure z=(1+1j)"]),
    (_RESOLVENT_CHECKS, "_structure_report", ["resolvent_structure z=1j"]),
    (("trace_minor",), "_trace_minor_report", ["trace_minor z=1j"]),
])
def test_a_check_error_keeps_the_failures_before_it(tmp_path, monkeypatch, names,
                                                    failing, recorded):
    # Every check fails at z = 1j and raises at z = 1 + 1j: a sweep row keeps
    # the failures recorded before the error, as with one public call each.
    config = small_config(tmp_path, sizes=[4], trials_per_size=1,
                          z_grid=[1j, 1 + 1j, 2j], checks=names, check_tol=0.0)
    real = getattr(spectra, failing)

    def injected(R, z, *args):
        if z == 1 + 1j:
            raise np.linalg.LinAlgError("injected failure")
        return replace(real(R, z, *args), passed=False)

    monkeypatch.setattr(spectra, failing, injected)
    (row,) = run(config)
    assert [f.split(":")[0] for f in row.check_failures] == [*recorded, "check error"]
    assert row.check_failures[-1] == "check error: injected failure"
    monkeypatch.setattr(experiment, "_resolvent_checks", resolvent_checks_by_public_calls)
    assert run(config)[0].check_failures == row.check_failures


def test_a_sweep_row_records_its_failures_in_the_order_they_happen(tmp_path, monkeypatch):
    # At check_tol 0 the structure checks fail before the eigensolve raises.
    config = small_config(tmp_path, sizes=[4], trials_per_size=1,
                          checks=("resolvent_structure",), check_tol=0.0)

    def failing(w, **kwargs):
        raise np.linalg.LinAlgError("injected failure")

    monkeypatch.setattr(SpectralSample, "from_matrix", failing)
    (row,) = run(config)
    assert [f.split(":")[0] for f in row.check_failures] == \
        ["resolvent_structure z=1j", "resolvent_structure z=(1+1j)", "eigensolve error"]
    assert row.check_failures[-1] == "eigensolve error: injected failure"


def count_spectra(monkeypatch):
    """Count ``SpectralSample.from_matrix`` calls."""
    calls = []
    real = SpectralSample.from_matrix

    def counting(w, **kwargs):
        calls.append(w.n)
        return real(w, **kwargs)

    monkeypatch.setattr(SpectralSample, "from_matrix", counting)
    return calls


@pytest.mark.parametrize("law, exponent, solved", [
    (GSECoefficients(), 0.125, 3), (TwoPointCoefficients(-1.0, 9.0, 0.1), 0.35, 5)])
def test_pipeline_bounds_match_every_stage_spectrum(monkeypatch, law, exponent, solved):
    # GSE: truncate, centralize and rescale leave an n = 48 draw as it was,
    # and their ESD is reused; the two-point law changes it at every stage.
    spec = EnsembleSpec(n=48, distribution=law, seed=3, eta=EtaSchedule("power", exponent))
    w = sample_general(spec)
    want = pipeline_bounds_with_every_spectrum(spec, w)
    calls = count_spectra(monkeypatch)
    assert experiment.check_pipeline_bounds(spec, w) == want
    assert len(calls) == solved


def test_verify_solves_each_resolvent_and_stage_spectrum_once(monkeypatch):
    config = default_verify_config(seed=0)
    config.checks = KNOWN_CHECKS[1:]  # every per-draw check
    draws = [spec for _, spec in experiment._draws(config)]
    distinct = 0
    for spec in draws:
        matrices = [m for _, m in run_pipeline(spec, sample_general(spec))[1].matrices]
        distinct += 1 + sum(not np.array_equal(a.coeffs, b.coeffs)
                            for a, b in zip(matrices, matrices[1:]))
    assert distinct < 5 * len(draws)
    resolvents = []
    real = spectra.resolvent
    monkeypatch.setattr(spectra, "resolvent",
                        lambda m, z: resolvents.append(z) or real(m, z))
    spectra_solved = count_spectra(monkeypatch)
    assert verify(config).all_passed()
    assert resolvents == config.z_grid * len(draws)
    assert len(spectra_solved) == distinct


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


def test_cli_distributions_are_the_laws_without_params():
    assert cli._CLI_DISTRIBUTIONS == ("gse", "rademacher", "uniform")
    parser = cli.build_parser()
    for command in ("sample", "pipeline"):
        for kind in cli._CLI_DISTRIBUTIONS:
            assert parser.parse_args([command, "--n", "2", "--distribution", kind]) \
                .distribution == kind
        with pytest.raises(SystemExit):  # its params have no flags
            parser.parse_args([command, "--n", "2", "--distribution", "two_point"])


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


def test_cli_verify_records_a_draw_too_large_for_memory(tmp_path, monkeypatch, capsys):
    # The draw raises as an allocation too large would, with nothing allocated:
    # it is a failure entry under each check, the report is written, and the
    # exit code is 1, as for any failed check.
    config = default_verify_config(seed=0)
    config.checks = ("resolvent_structure", "levy_bounds")
    config.sizes = [4, 8]
    config.trials_per_size = 1
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(config.to_json()))
    report_path = tmp_path / "report.json"
    bad_seed = trial_seed(0, 8, 0)
    sample = experiment.sample_general

    def failing(spec):
        if spec.seed == bad_seed:
            raise MemoryError("Unable to allocate 2.62 TiB")
        return sample(spec)

    monkeypatch.setattr(experiment, "sample_general", failing)
    assert main(["verify", "--config", str(cfg_path), "--out", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL resolvent_structure" in out and "FAIL levy_bounds" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is False
    error = {"n": 8, "seed": bad_seed, "error": "sample error: Unable to allocate 2.62 TiB"}
    assert [c["details"]["failures"] for c in report["checks"]] == [[error], [error]]
    assert [c["details"]["checks"] for c in report["checks"]] == [2, 4]


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


def test_a_check_tol_past_float_range_exits_two(tmp_path, capsys):
    # "finite number >= 0": an int a float cannot hold is not one, so the
    # config is rejected before any check runs or any file is written.
    obj = small_config(tmp_path, checks=("resolvent_structure",)).to_json()
    obj["check_tol"] = _HUGE
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(obj))
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(report)]) == 2
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.count("error: check_tol must be finite and nonnegative") == 2
    assert not report.exists() and not (tmp_path / "sweep.csv").exists()


def test_cli_reports_a_size_too_large_to_allocate(monkeypatch, capsys):
    def failing(spec):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(cli, "sample_general", failing)
    assert main(["sample", "--n", "100000"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 298. GiB for an array\n"


def test_cli_unreadable_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sizes": [4, 8],')
    assert main(["sweep", "--config", str(bad)]) == 2
    bad.write_bytes(b'{"sizes": [4, 8], "\xff": 1}')  # not UTF-8
    assert main(["verify", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.count(f"error: {bad} is not a UTF-8 JSON file") == 2
    with pytest.raises(ConfigError):
        ExperimentConfig.load(bad)


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
