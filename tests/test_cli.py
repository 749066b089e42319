"""End-to-end CLI behavior, including the exit-code contract."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnss_grnn
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

    @pytest.mark.parametrize("factor", ["nan", "inf", "-inf"])
    def test_non_finite_gap_factor_is_data_error(self, station_file, capsys, factor):
        # NaN and +inf would report the gapped series as continuous
        path = station_file(name="gappy", kind=SyntheticKind.GAPPED_TREND, length=400)
        assert run_cli("inspect", path, f"--gap-factor={factor}") == 2
        captured = capsys.readouterr()
        assert captured.err == ("gnss-grnn: data error: gap_factor must be a finite "
                                f"number >= 1, got {factor}\n")
        assert "state" not in captured.out

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run_cli("inspect", path) == 2
        assert "data error" in capsys.readouterr().err

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"epoch_mjd,x_m,y_m,z_m\n55000,1,2,3\xff\n")
        assert run_cli("inspect", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("gnss-grnn: data error: latin.csv: line 2: not UTF-8 text")


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

    def test_max_training_size_without_threshold_is_a_usage_error(self, station_file,
                                                                  capsys):
        # the cap only bounds threshold-driven growth; alone it would do nothing
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", path, "-v", "5", "--max-training-size", "20")
        assert exc.value.code == 1
        assert "--max-training-size requires --threshold" in capsys.readouterr().err

    def test_modes_differ(self, station_file, capsys):
        path = station_file(length=200)
        run_cli("predict", path, "-v", "10", "--mode", "recursive")
        rec = capsys.readouterr().out
        run_cli("predict", path, "-v", "10", "--mode", "teacher-forced")
        tf = capsys.readouterr().out
        assert rec != tf
        run_cli("predict", path, "-v", "10")
        assert capsys.readouterr().out == rec  # recursive is the default

    def test_threshold_refuses_explicit_recursive_mode(self, station_file, capsys):
        # the window search is teacher-forced; an explicit recursive would be ignored
        path = station_file(length=80)
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", path, "-v", "5", "--threshold", "0.01",
                    "--mode", "recursive")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gnss-grnn predict ")
        assert err.endswith("gnss-grnn predict: error: --mode recursive cannot be "
                            "combined with --threshold\n")

    def test_threshold_accepts_teacher_forced_mode(self, station_file, capsys):
        path = station_file(length=80)
        assert run_cli("predict", path, "-v", "5", "--threshold", "0.01") == 0
        default = capsys.readouterr().out
        assert run_cli("predict", path, "-v", "5", "--threshold", "0.01",
                       "--mode", "teacher-forced") == 0
        assert capsys.readouterr().out == default

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

    @pytest.mark.parametrize("threshold", [(), ("--threshold", "0.01")])
    def test_underflow_names_the_station(self, station_file, capsys, threshold):
        good = station_file(name="good", length=120)
        gappy = station_file(name="gappy", kind=SyntheticKind.GAPPED_TREND, length=120)
        assert run_cli("predict", good, gappy, "-v", "20", "--bandwidth", "0.3",
                       *threshold) == 3
        err = capsys.readouterr().err
        assert err.startswith("gnss-grnn: numeric failure: station gappy: "
                              "bandwidth too small: ")
        assert "predicting component X at MJD " in err

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

    def test_underflow_names_the_station(self, station_file, capsys):
        path = station_file(name="gappy", kind=SyntheticKind.GAPPED_TREND, length=120)
        assert run_cli("sweep", path, "--v-max", "2", "--bandwidth", "0.3") == 3
        err = capsys.readouterr().err
        assert err.startswith("gnss-grnn: numeric failure: station gappy: "
                              "bandwidth too small: ")
        assert "predicting component X at MJD " in err

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

    def test_reps_without_time_is_a_usage_error(self, station_file, tmp_path, capsys):
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", path, "-v", "5", "--reps", "5", "--jobs", "1",
                    "--output-dir", tmp_path)
        assert exc.value.code == 1
        assert "--reps requires --time" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, station_file, tmp_path, capsys, jobs):
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", path, "-v", "5", "--jobs", jobs, "--output-dir", tmp_path)
        assert exc.value.code == 1
        assert "argument --jobs: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_underflow_names_the_station(self, station_file, tmp_path, capsys, jobs):
        good = station_file(name="good", length=120)
        gappy = station_file(name="gappy", kind=SyntheticKind.GAPPED_TREND, length=120)
        out_dir = tmp_path / "out"
        assert run_cli("compare", good, gappy, "-v", "20", "--bandwidth", "0.3",
                       "--jobs", jobs, "--output-dir", out_dir) == 3
        err = capsys.readouterr().err
        assert err.startswith("gnss-grnn: numeric failure: station gappy: "
                              "bandwidth too small: ")
        assert "predicting component X at MJD " in err
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("factor", ["nan", "inf"])
    def test_non_finite_gap_factor_is_data_error(self, station_file, tmp_path, capsys,
                                                 factor):
        path = station_file(name="gappy", kind=SyntheticKind.GAPPED_TREND, length=120)
        out_dir = tmp_path / "out"
        assert run_cli("compare", path, "-v", "20", f"--gap-factor={factor}",
                       "--jobs", "1", "--output-dir", out_dir) == 2
        assert capsys.readouterr().err == ("gnss-grnn: data error: gap_factor must be a "
                                           f"finite number >= 1, got {factor}\n")
        assert not (out_dir / "report.json").exists()

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


def test_import_does_not_load_process_pool():
    # the pool machinery is imported only when compare runs with --jobs > 1
    src = str(Path(gnss_grnn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import gnss_grnn.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("GNSS_GRNN_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("GNSS_GRNN_JOBS", "not-a-number")
    with pytest.raises(argparse.ArgumentTypeError, match="GNSS_GRNN_JOBS"):
        _default_jobs()
    monkeypatch.setenv("GNSS_GRNN_JOBS", " ")
    assert _default_jobs() == (os.cpu_count() or 1)
    monkeypatch.delenv("GNSS_GRNN_JOBS")
    assert _default_jobs() == (os.cpu_count() or 1)


@pytest.mark.parametrize("env, message", [
    ("0", "GNSS_GRNN_JOBS: must be at least 1"),
    ("-3", "GNSS_GRNN_JOBS: must be at least 1"),
    ("abc", "GNSS_GRNN_JOBS: invalid int value: 'abc'"),
])
def test_bad_jobs_env_is_a_usage_error(station_file, tmp_path, capsys, monkeypatch,
                                       env, message):
    monkeypatch.setenv("GNSS_GRNN_JOBS", env)
    path = station_file(length=60)
    with pytest.raises(SystemExit) as exc:
        run_cli("compare", path, "-v", "5", "--output-dir", tmp_path)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    # an explicit --jobs wins, so the variable is not read
    assert run_cli("compare", path, "-v", "5", "--jobs", "1", "--output-dir", tmp_path) == 0
