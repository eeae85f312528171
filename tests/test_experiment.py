import csv
import hashlib
import json

import numpy as np
import pytest

from quatspectra.cli import main
from quatspectra.ensemble import (EnsembleSpec, EtaSchedule, GSECoefficients,
                                  sample_general)
from quatspectra.experiment import (ConfigError, ExperimentConfig,
                                    default_verify_config, emit, run,
                                    stieltjes_label, trial_seed, verify)
from quatspectra.spectra import SpectralSample, semicircle_cdf


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


def test_config_json_roundtrip(tmp_path):
    config = small_config(tmp_path, pipeline=True, checks=("levy_bounds",),
                          histograms=True)
    clone = ExperimentConfig.from_json(config.to_json())
    assert clone.to_json() == config.to_json()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"sizes": [2]})


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


def test_cli_user_errors_exit_code_two(capsys):
    assert main(["sample", "--n", "0"]) == 2
    assert main(["pipeline", "--n", "4", "--eta-exponent", "nan"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_config_exit_code(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["sweep", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sizes": [3, 1]}))
    assert main(["sweep", "--config", str(bad)]) == 2
