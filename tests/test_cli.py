"""End-to-end CLI behavior, including the exit-code contract."""

import csv
import io
import json

import pytest

from gnss_grnn import (
    SyntheticKind,
    SyntheticParams,
    generate_synthetic,
    write_series_csv,
)
from gnss_grnn.cli import _default_jobs, main


@pytest.fixture
def station_file(tmp_path):
    def _make(name="stat", kind=SyntheticKind.TREND_PLUS_ANNUAL, length=150,
              seed=1, params=None):
        series = generate_synthetic(kind, length, seed,
                                    params or SyntheticParams(noise_std_m=1e-3))
        path = tmp_path / f"{name}.csv"
        write_series_csv(series, path)
        return path
    return _make


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestInspect:
    def test_continuous(self, station_file, capsys):
        assert run_cli("inspect", station_file()) == 0
        out = capsys.readouterr().out
        assert "state: continuous" in out
        assert "amplitude" in out

    def test_discontinuous_counts_gaps(self, station_file, capsys):
        path = station_file(name="gappy", kind=SyntheticKind.GAPPED_TREND, length=400)
        assert run_cli("inspect", path) == 0
        assert "state: discontinuous, 1 gap" in capsys.readouterr().out

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run_cli("inspect", path) == 2
        assert "data error" in capsys.readouterr().err


class TestPredict:
    def test_constant_has_zero_errors(self, station_file, capsys):
        path = station_file(name="const", kind=SyntheticKind.CONSTANT, length=60)
        assert run_cli("predict", path, "-v", "5") == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3 * 55
        assert all(float(r["abs_error_m"]) == 0.0 for r in rows)

    def test_window_too_large_exits_2(self, station_file, capsys):
        path = station_file(length=150)
        assert run_cli("predict", path, "-v", "150") == 2
        assert "nothing to predict" in capsys.readouterr().err

    def test_seed_flag_is_a_usage_error(self, station_file, capsys):
        # only compare writes the seed; predict must not take it and ignore it
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", path, "-v", "5", "--seed", "7")
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err

    def test_modes_differ(self, station_file, capsys):
        path = station_file(length=200)
        run_cli("predict", path, "-v", "10", "--mode", "recursive")
        rec = capsys.readouterr().out
        run_cli("predict", path, "-v", "10", "--mode", "teacher-forced")
        tf = capsys.readouterr().out
        assert rec != tf

    def test_threshold_adds_adaptive_columns(self, station_file, capsys):
        path = station_file(length=80)
        assert run_cli("predict", path, "-v", "5", "--threshold", "0.01") == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert "training_size_used" in rows[0]
        assert "threshold_met" in rows[0]

    def test_json_output_to_file(self, station_file, tmp_path):
        path = station_file(length=60)
        out = tmp_path / "pred.json"
        assert run_cli("predict", path, "-v", "5", "--format", "json",
                       "--output", out) == 0
        rows = json.loads(out.read_text())
        assert {"station", "epoch_mjd", "component", "predicted_m",
                "observed_m", "abs_error_m"} == set(rows[0])

    def test_tiny_fixed_bandwidth_is_numeric_failure(self, station_file, capsys):
        path = station_file(length=60)
        assert run_cli("predict", path, "-v", "5", "--bandwidth", "1e-9") == 3
        assert "bandwidth too small" in capsys.readouterr().err

    def test_basis_anomaly_matches_raw(self, station_file, capsys):
        path = station_file(length=120)
        run_cli("predict", path, "-v", "10")
        raw = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        run_cli("predict", path, "-v", "10", "--basis", "anomaly")
        anom = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        for a, b in zip(raw, anom):
            assert float(b["predicted_m"]) == pytest.approx(float(a["predicted_m"]),
                                                            rel=1e-9)


class TestSweep:
    def test_v_max_one(self, station_file, capsys):
        path = station_file(length=60)
        assert run_cli("sweep", path, "--v-max", "1") == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 6  # three components, both update modes
        assert {r["component"] for r in rows} == {"X", "Y", "Z"}
        assert {r["mode"] for r in rows} == {"recursive", "teacher-forced"}

    def test_multiple_stations_refused(self, station_file, capsys):
        a, b = station_file(name="a"), station_file(name="b")
        assert run_cli("sweep", a, b, "--v-max", "2") == 2

    def test_range_to_file(self, station_file, tmp_path):
        path = station_file(length=80)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", path, "--v-max", "6", "--v-min", "2",
                       "--v-step", "2", "--output", out) == 0
        with out.open() as stream:
            rows = list(csv.DictReader(stream))
        assert {r["v"] for r in rows} == {"2", "4", "6"}

    def test_mode_flag_is_a_usage_error(self, station_file, capsys):
        # sweep always runs both update modes, so it must not accept --mode
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", path, "--v-max", "2", "--mode", "recursive")
        assert exc.value.code == 1
        assert "--mode" in capsys.readouterr().err

    def test_seed_flag_is_a_usage_error(self, station_file, capsys):
        # only compare writes the seed; sweep must not take it and ignore it
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", path, "--v-max", "2", "--seed", "7")
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err


class TestCompare:
    def test_writes_both_reports(self, station_file, tmp_path, capsys):
        paths = [station_file(name=f"s{i}", seed=i, length=200) for i in range(3)]
        out_dir = tmp_path / "out"
        assert run_cli("compare", *paths, "-v", "20",
                       "--output-dir", out_dir, "--jobs", "1") == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["stations"]) == 3
        assert doc["comparison"]["time_ratio"] is None
        with (out_dir / "stations.csv").open() as stream:
            table = list(csv.DictReader(stream))
        assert len(table) == 18
        out = capsys.readouterr().out
        assert "sMAPE" in out and "wrote" in out

    def test_deterministic_bytes(self, station_file, tmp_path):
        paths = [station_file(name=f"d{i}", seed=10 + i, length=200) for i in range(2)]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run_cli("compare", *paths, "-v", "20", "--seed", "7",
                           "--output-dir", d) == 0
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "stations.csv").read_bytes() == (d2 / "stations.csv").read_bytes()

    def test_jobs_do_not_change_results(self, station_file, tmp_path):
        paths = [station_file(name=f"j{i}", seed=20 + i, length=200) for i in range(3)]
        d1, d2 = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli("compare", *paths, "-v", "20", "--output-dir", d1,
                       "--jobs", "1") == 0
        assert run_cli("compare", *paths, "-v", "20", "--output-dir", d2,
                       "--jobs", "3") == 0
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()

    def test_timing_flag_adds_section(self, station_file, tmp_path):
        path = station_file(name="timed", length=250)
        out_dir = tmp_path / "timed"
        assert run_cli("compare", path, "-v", "20", "--time", "--reps", "3",
                       "--output-dir", out_dir, "--jobs", "1") == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["comparison"]["time_ratio"] > 0
        assert len(doc["comparison"]["timing"]["grnn_seconds"]) == 3

    def test_theta_window_and_fit_flags(self, station_file, tmp_path):
        path = station_file(name="tw", length=200)
        out_dir = tmp_path / "tw"
        assert run_cli("compare", path, "-v", "10", "--theta-window", "20",
                       "--theta-fit", "global", "--output-dir", out_dir,
                       "--jobs", "1") == 0
        doc = json.loads((out_dir / "report.json").read_text())
        settings = doc["stations"][0]["settings"]["theta"]
        assert settings == {"window": 20, "fit": "global"}

    def test_malformed_station_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch_mjd,x_m,y_m,z_m\n55000,a,b,c\n")
        assert run_cli("compare", bad) == 2


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("inspect", "--nope")
        assert exc.value.code == 1

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 1

    def test_bad_bandwidth_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", "whatever.csv", "--bandwidth", "narrow")
        assert exc.value.code == 1

    def test_missing_file_is_data_error(self, capsys):
        assert run_cli("inspect", "no-such-file.csv") == 2


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("GNSS_GRNN_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("GNSS_GRNN_JOBS", "not-a-number")
    assert _default_jobs() >= 1
    monkeypatch.delenv("GNSS_GRNN_JOBS")
    assert _default_jobs() >= 1
