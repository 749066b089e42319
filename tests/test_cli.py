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
    Mode,
    SyntheticKind,
    SyntheticParams,
    generate_synthetic,
    write_series_csv,
)
from gnss_grnn.cli import _default_jobs, main
from gnss_grnn.metrics import RATIO_LABELS


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


@pytest.fixture
def zero_x_file(tmp_path):
    """60 daily epochs whose X column is all 0.0: an sMAPE term of X is
    undefined at the first epoch scored."""
    path = tmp_path / "Z0.csv"
    lines = ["epoch_mjd,x_m,y_m,z_m"]
    for day in range(60):
        lines.append(f"{55000.0 + day!r},0.0,{931000.0 + 5e-5 * day!r},"
                     f"{4801000.0 + 5e-5 * day!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_station(path, x_values):
    """A daily epoch per value of ``x_values``, which X holds; Y and Z are gentle lines."""
    lines = ["epoch_mjd,x_m,y_m,z_m"]
    for day, x in enumerate(x_values):
        lines.append(f"{55000.0 + day!r},{x!r},{931000.0 + 5e-5 * day!r},"
                     f"{4801000.0 + 5e-5 * day!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def huge_x_file(tmp_path):
    """X alternates between +1e308 and -1e308: the kernel's deviations
    overflow, so its first forecast is not finite."""
    return _write_station(tmp_path / "huge.csv", [1e308, -1e308] * 20)


@pytest.fixture
def one_huge_x_file(tmp_path):
    """X is 1.0 but for one 1.5e308: the kernel's forecasts stay finite,
    while Theta's second differences overflow."""
    return _write_station(tmp_path / "one.csv", [1.0] * 10 + [1.5e308] + [1.0] * 29)


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

    @pytest.mark.parametrize("factor", ["nan", "inf", "-inf", "0.5"])
    def test_bad_gap_factor_is_a_usage_error(self, station_file, capsys, factor):
        # NaN and +inf would report the gapped series as continuous
        path = station_file(name="gappy", kind=SyntheticKind.GAPPED_TREND, length=400)
        with pytest.raises(SystemExit) as exc:
            run_cli("inspect", path, f"--gap-factor={factor}")
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.endswith("gnss-grnn inspect: error: argument --gap-factor: "
                                     "must be a finite number >= 1\n")
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
    @pytest.mark.parametrize("mode", ["recursive", "teacher-forced"])
    def test_one_station_walk_per_station(self, station_file, capsys, monkeypatch, mode):
        calls = []

        def forecast_series(station, config, modes=(Mode.RECURSIVE,)):
            calls.append((type(station).__name__, station.station_id,
                          [Mode(m).value for m in modes]))
            return gnss_grnn.forecast_series(station, config, modes)

        monkeypatch.setattr(gnss_grnn.cli, "forecast_series", forecast_series)
        a, b = station_file(name="a", length=60), station_file(name="b", length=60, seed=2)
        assert run_cli("predict", a, b, "-v", "5", "--mode", mode) == 0
        assert calls == [("StationSeries", "a", [mode]), ("StationSeries", "b", [mode])]
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["component"] for r in rows] == 2 * (55 * ["X"] + 55 * ["Y"] + 55 * ["Z"])

    def test_one_adaptive_search_per_station(self, station_file, capsys, monkeypatch):
        calls = []

        def adaptive_forecast_series(station, config, threshold_m, max_training_size=None):
            calls.append((type(station).__name__, station.station_id, threshold_m,
                          max_training_size))
            return gnss_grnn.adaptive_forecast_series(station, config, threshold_m,
                                                      max_training_size)

        monkeypatch.setattr(gnss_grnn.cli, "adaptive_forecast_series", adaptive_forecast_series)
        a, b = station_file(name="a", length=60), station_file(name="b", length=60, seed=2)
        assert run_cli("predict", a, b, "-v", "5", "--threshold", "0.001",
                       "--max-training-size", "20") == 0
        assert calls == [("StationSeries", "a", 0.001, 20), ("StationSeries", "b", 0.001, 20)]
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["component"] for r in rows] == 2 * (55 * ["X"] + 55 * ["Y"] + 55 * ["Z"])

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

    @pytest.mark.parametrize("threshold", [[], ["--threshold", "0.001"]])
    def test_short_station_is_named(self, station_file, capsys, threshold):
        long = station_file(name="long", length=150)
        short = station_file(name="short", length=40)
        assert run_cli("predict", long, short, "-v", "60", *threshold) == 2
        assert capsys.readouterr().err == ("gnss-grnn: data error: station short: nothing "
                                           "to predict: 40 samples with training_size 60\n")

    def test_seed_flag_is_a_usage_error(self, station_file, capsys):
        # only compare writes the seed; predict must not take it and ignore it
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", path, "-v", "5", "--seed", "7")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gnss-grnn predict ")
        assert "unrecognized arguments: --seed 7" in err

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

    def test_a_cap_below_the_window_is_a_usage_error(self, station_file, capsys):
        # refused by the command before the station is read, not by the
        # search inside the station's walk
        path = station_file(name="a", length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", path, "-v", "5", "--threshold", "0.001",
                    "--max-training-size", "2")
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "gnss-grnn predict: error: --max-training-size must be at least -v\n")

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

    def test_adaptive_underflow_in_a_later_component(self, tmp_path, capsys):
        # a 31-day gap: constant X passes at v=1 everywhere, while Y must grow
        # to v=2 after the gap, where a 0.5-day window-std underflows
        path = tmp_path / "late.csv"
        lines = ["epoch_mjd,x_m,y_m,z_m"]
        for day in [*range(20), *range(51, 61)]:
            curve = 1e-3 * day ** 2
            lines.append(f"{55000.0 + day!r},4075000.0,{931000.0 + curve!r},"
                         f"{4801000.0 - curve!r}")
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("predict", path, "-v", "1", "--threshold", "0.001",
                       "--max-training-size", "5") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gnss-grnn: numeric failure: station late: bandwidth too small: every kernel "
            "value underflowed (h=0.5, nearest distance 32.0 days) predicting component Y "
            "at MJD 55051.0\n")


    @pytest.mark.parametrize("flags", [(), ("--format", "json"), ("--threshold", "0.01")])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_forecast_is_a_numeric_failure(self, huge_x_file, tmp_path, capsys,
                                                      flags, to_file):
        out = tmp_path / "p.out"
        output = ("--output", out) if to_file else ()
        assert run_cli("predict", huge_x_file, "-v", "5", *flags, *output) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gnss-grnn: numeric failure: station huge: kernel forecast is not finite (-inf) "
            "predicting component X at MJD 55005.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [(), ("--format", "json"), ("--threshold", "0.01")])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_overflowing_error_is_a_numeric_failure(self, huge_x_file, tmp_path, capsys,
                                                    flags, to_file):
        # with one-value windows every forecast is the previous +-1e308, which
        # is finite; its distance from the truth is not
        out = tmp_path / "p.out"
        output = ("--output", out) if to_file else ()
        assert run_cli("predict", huge_x_file, "-v", "1", *flags, *output) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gnss-grnn: numeric failure: station huge: absolute error of the kernel forecast "
            "is not finite (inf) predicting component X at MJD 55001.0\n")
        assert not out.exists()

    def test_error_of_a_later_component_names_it(self, tmp_path, capsys):
        # X and Y are gentle; Z alternates, so its first error overflows
        path = tmp_path / "late.csv"
        lines = ["epoch_mjd,x_m,y_m,z_m"]
        for day in range(12):
            z = 1e308 if day % 2 else -1e308
            lines.append(f"{55000.0 + day!r},1.0,{2.0 + day!r},{z!r}")
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("predict", path, "-v", "1", "--mode", "teacher-forced") == 3
        assert capsys.readouterr().err == (
            "gnss-grnn: numeric failure: station late: absolute error of the kernel forecast "
            "is not finite (inf) predicting component Z at MJD 55001.0\n")


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
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", a, b, "--v-max", "2")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gnss-grnn sweep [-h]")
        assert err.endswith("gnss-grnn sweep: error: sweep handles one station at a time\n")

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
        # a fixed 0.3-day bandwidth underflows across the gap at the first size
        assert err.startswith("gnss-grnn: numeric failure: station gappy: "
                              "training size 1: bandwidth too small: ")
        assert "predicting component X at MJD " in err

    def test_underflow_names_the_training_size(self, station_file, capsys):
        # the 30-day hole: v=1 falls back to a 1.0-day bandwidth and reaches
        # across it, v=2's window-std of two daily epochs is only 0.5 days
        path = station_file(name="B", kind=SyntheticKind.GAPPED_TREND, length=200,
                            params=SyntheticParams())
        assert run_cli("sweep", path, "--v-max", "4") == 3
        assert capsys.readouterr().err == (
            "gnss-grnn: numeric failure: station B: training size 2: bandwidth too small: "
            "every kernel value underflowed (h=0.5, nearest distance 31.0 days) "
            "predicting component X at MJD 55130.0\n")
        assert run_cli("sweep", path, "--v-min", "1", "--v-max", "1") == 0
        assert run_cli("sweep", path, "--v-min", "3", "--v-max", "30") == 0

    def test_undefined_criterion_names_size_and_mode(self, zero_x_file, capsys):
        assert run_cli("sweep", zero_x_file, "--v-min", "3", "--v-max", "5") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gnss-grnn: numeric failure: station Z0: training size 3: component X: "
            "mode recursive: undefined sMAPE term at MJD 55003.0: |y| + |yhat| is zero\n")

    def test_overflowing_criterion_is_a_numeric_failure(self, tmp_path, capsys):
        # a one-value recursive walk forecasts X's first value, -1e308, at
        # every epoch, so its residual at the +1e308 overflows
        path = _write_station(tmp_path / "one.csv", [-1e308] + [1.0] * 9 + [1e308] + [1.0] * 29)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", path, "--v-max", "3", "--output", out) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gnss-grnn: numeric failure: station one: training size 1: component X: mode "
            "recursive: sMAPE is not finite (nan): the residuals overflow float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--mode", "recursive"), ("-v", "7"),
                                             ("--training-size", "7")])
    def test_mode_flag_is_a_usage_error(self, station_file, capsys, flag, value):
        # sweep always runs both update modes and takes its training sizes
        # from --v-min/--v-max, so it must not accept --mode or -v
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", path, "--v-max", "2", flag, value)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        # the usage line is the subcommand's, not the root parser's
        assert err.startswith("usage: gnss-grnn sweep ")
        assert f"unrecognized arguments: {flag} {value}" in err

    def test_seed_flag_is_a_usage_error(self, station_file, capsys):
        # only compare writes the seed; sweep must not take it and ignore it
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", path, "--v-max", "2", "--seed", "7")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gnss-grnn sweep ")
        assert "unrecognized arguments: --seed 7" in err


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
        assert (d1 / "stations.csv").read_bytes() == (d2 / "stations.csv").read_bytes()

    def test_timing_flag_adds_section(self, station_file, tmp_path):
        path = station_file(name="timed", length=250)
        out_dir = tmp_path / "timed"
        assert run_cli("compare", path, "-v", "20", "--time", "--reps", "3",
                       "--output-dir", out_dir, "--jobs", "1") == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["comparison"]["time_ratio"] > 0
        assert len(doc["comparison"]["timing"]["grnn_seconds"]) == 3

    def test_stdout_prints_the_written_ratios(self, station_file, tmp_path, capsys):
        paths = [station_file(name=f"p{i}", seed=40 + i, length=200) for i in range(2)]
        out_dir = tmp_path / "printed"
        assert run_cli("compare", *paths, "-v", "20", "--time", "--reps", "3",
                       "--output-dir", out_dir, "--jobs", "1") == 0
        comparison = json.loads((out_dir / "report.json").read_text())["comparison"]
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            f"{comp}: " + ", ".join(f"{label} {comparison['aggregated'][comp][key]:.6g}"
                                    for key, label in RATIO_LABELS.items())
            for comp in ("X", "Y", "Z")
        ]
        assert lines[3] == f"time ratio (kernel/theta): {comparison['time_ratio']:.3f}"
        assert lines[4] == (f"wrote {out_dir / 'report.json'} and "
                            f"{out_dir / 'stations.csv'}")
        assert len(lines) == 5

    def test_stdout_prints_undefined_ratios(self, station_file, tmp_path, capsys):
        # Theta forecasts a flat series exactly, so every ratio divides by 0
        path = station_file(name="flat", kind=SyntheticKind.CONSTANT, length=60)
        assert run_cli("compare", path, "-v", "10", "--output-dir", tmp_path,
                       "--jobs", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [f"{comp}: sMAPE undefined, StD undefined, MAbs undefined"
                             for comp in ("X", "Y", "Z")]
        assert lines[3].startswith("wrote ")

    def test_mode_is_recorded(self, station_file, tmp_path):
        path = station_file(name="tf", length=200)
        out_dir = tmp_path / "tf"
        assert run_cli("compare", path, "-v", "10", "--mode", "teacher-forced",
                       "--output-dir", out_dir, "--jobs", "1") == 0
        doc = json.loads((out_dir / "report.json").read_text())
        # schema 1 still carries the adaptive search's keys, always null
        assert doc["stations"][0]["settings"]["grnn"] == {
            "training_size": 10, "bandwidth": "window-std", "threshold_m": None,
            "max_training_size": None, "mode": "teacher-forced"}

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

    @pytest.mark.parametrize("reps", ["2", "0"])
    def test_reps_below_three_fails_before_any_backtest(self, station_file, tmp_path, capsys,
                                                         monkeypatch, reps):
        # the median needs 3 samples; refusing late would waste every backtest
        def evaluate_station(*args, **kwargs):
            raise AssertionError("a backtest ran")

        monkeypatch.setattr(gnss_grnn.harness, "evaluate_station", evaluate_station)
        path = station_file(length=60)
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", path, "-v", "5", "--time", "--reps", reps, "--jobs", "1",
                    "--output-dir", tmp_path)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gnss-grnn compare ")
        assert "argument --reps: must be at least 3" in err
        assert not (tmp_path / "report.json").exists()

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_undefined_criterion_names_station_component_and_epoch(
            self, station_file, zero_x_file, tmp_path, capsys, jobs):
        # two stations, so --jobs 2 scores Z0 in a worker process
        good = station_file(name="good", length=60)
        out_dir = tmp_path / "out"
        assert run_cli("compare", good, zero_x_file, "-v", "10", "--jobs", jobs,
                       "--output-dir", out_dir) == 3
        assert capsys.readouterr().err == (
            "gnss-grnn: numeric failure: station Z0: component X: method grnn: "
            "undefined sMAPE term at MJD 55010.0: |y| + |yhat| is zero\n")
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("bad, message", [
        ("huge_x_file", "station huge: kernel forecast is not finite (-inf) predicting "
                        "component X at MJD 55005.0"),
        ("one_huge_x_file", "station one: Theta forecast is not finite (inf) predicting "
                            "component X at MJD 55011.0"),
    ])
    def test_non_finite_forecast_is_a_numeric_failure(self, station_file, tmp_path, capsys,
                                                      request, jobs, bad, message):
        # two stations, so --jobs 2 walks the bad one in a worker process
        good = station_file(name="good", length=60)
        out_dir = tmp_path / "out"
        assert run_cli("compare", good, request.getfixturevalue(bad), "-v", "5",
                       "--jobs", jobs, "--output-dir", out_dir) == 3
        assert capsys.readouterr().err == f"gnss-grnn: numeric failure: {message}\n"
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_short_station_is_named(self, station_file, tmp_path, capsys, jobs):
        long = station_file(name="long", length=150)
        short = station_file(name="short", length=40)
        out_dir = tmp_path / "out"
        assert run_cli("compare", long, short, "-v", "60", "--jobs", jobs,
                       "--output-dir", out_dir) == 2
        assert capsys.readouterr().err == ("gnss-grnn: data error: station short: series "
                                           "too short for evaluation: need at least 2 "
                                           "shared predictions\n")
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("factor", ["nan", "inf", "0.5"])
    def test_bad_gap_factor_is_a_usage_error(self, station_file, tmp_path, capsys, factor):
        path = station_file(name="gappy", kind=SyntheticKind.GAPPED_TREND, length=120)
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", path, "-v", "20", f"--gap-factor={factor}",
                    "--jobs", "1", "--output-dir", out_dir)
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            "gnss-grnn compare: error: argument --gap-factor: must be a finite number >= 1\n")
        assert not (out_dir / "report.json").exists()

    def test_malformed_station_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch_mjd,x_m,y_m,z_m\n55000,a,b,c\n")
        assert run_cli("compare", bad) == 2

    def test_bad_theta_window_exits_1_before_any_walk(self, station_file, tmp_path,
                                                      capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(gnss_grnn.harness, "forecast_series",
                            lambda *args, **kwargs: calls.append(args))
        path = station_file(length=120)
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", path, "-v", "20", "--theta-window", "2",
                    "--jobs", "1", "--output-dir", out_dir)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gnss-grnn compare [-h]")
        assert err.endswith("gnss-grnn compare: error: argument --theta-window: "
                            "must be at least 3\n")
        assert calls == []
        assert not (out_dir / "report.json").exists()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("inspect", "--nope")
        assert exc.value.code == 1

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 1

    @pytest.mark.parametrize("spec", ["narrow", "0", "-1", "nan", "inf"])
    def test_bad_bandwidth_spec(self, capsys, spec):
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", "whatever.csv", f"--bandwidth={spec}")
        assert exc.value.code == 1

    def test_missing_file_is_data_error(self, capsys):
        assert run_cli("inspect", "no-such-file.csv") == 2

    def test_missing_file_stops_inspect_before_any_output(self, station_file, capsys):
        # every file is parsed before the first station is printed
        good = station_file(length=60)
        assert run_cli("inspect", good, good.parent / "missing.csv") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing.csv" in captured.err

    @pytest.mark.parametrize("command, flags", [
        ("predict", ["--output"]),
        ("sweep", ["--v-max", "3", "--output"]),
        ("compare", ["--jobs", "1", "--output-dir"]),
    ])
    def test_basis_flag_is_gone(self, station_file, tmp_path, capsys, command, flags):
        # every command works on the raw positions; there is no basis to choose
        path, out = station_file(length=60), tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, path, *flags, out, "--basis", "raw")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gnss-grnn {command} [-h]")
        assert err.endswith(f"gnss-grnn {command}: error: "
                            "unrecognized arguments: --basis raw\n")
        assert not out.exists()


def test_import_does_not_load_process_pool():
    # the pool machinery is imported only when compare runs with --jobs > 1,
    # and the timing medians are numpy's, so statistics (with fractions and
    # decimal) is never loaded
    src = str(Path(gnss_grnn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import gnss_grnn.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent', "
            "'statistics', 'fractions', 'decimal')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_non_finite_forecast_fails_in_one_line(huge_x_file, tmp_path):
    # a fresh process with Python's default warning filters: the walk's
    # overflows print no RuntimeWarning, and the failure no traceback
    src = str(Path(gnss_grnn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    out = tmp_path / "p.json"
    done = subprocess.run([sys.executable, "-m", "gnss_grnn.cli", "predict", str(huge_x_file),
                           "-v", "5", "--format", "json", "--output", str(out)],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == (
        "gnss-grnn: numeric failure: station huge: kernel forecast is not finite (-inf) "
        "predicting component X at MJD 55005.0\n")
    assert not out.exists()


def test_overflowing_error_fails_in_one_line(huge_x_file, tmp_path):
    # a fresh process with Python's default warning filters: the error's
    # overflow prints no RuntimeWarning, and the failure no traceback
    src = str(Path(gnss_grnn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    out = tmp_path / "p.json"
    done = subprocess.run([sys.executable, "-m", "gnss_grnn.cli", "predict", str(huge_x_file),
                           "-v", "1", "--format", "json", "--output", str(out)],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == (
        "gnss-grnn: numeric failure: station huge: absolute error of the kernel forecast "
        "is not finite (inf) predicting component X at MJD 55001.0\n")
    assert not out.exists()


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
    err = capsys.readouterr().err
    # the usage line is the subcommand's, not the root parser's
    assert err.startswith("usage: gnss-grnn compare [-h]")
    assert err.endswith(f"gnss-grnn compare: error: {message}\n")
    assert not (tmp_path / "report.json").exists()
    # an explicit --jobs wins, so the variable is not read
    assert run_cli("compare", path, "-v", "5", "--jobs", "1", "--output-dir", tmp_path) == 0


@pytest.mark.parametrize("argv, env, message", [
    (["predict", "--max-training-size", "20"], None,
     "--max-training-size requires --threshold"),
    (["predict", "--threshold", "0.01", "--mode", "recursive"], None,
     "--mode recursive cannot be combined with --threshold"),
    (["predict", "--bandwidth", "inf"], None,
     "argument --bandwidth: bandwidth must be positive and finite"),
    (["predict", "--threshold", "0"], None, "argument --threshold: must be a positive number"),
    (["predict", "--threshold", "nan"], None,
     "argument --threshold: must be a positive number"),
    (["predict", "--threshold", "-1"], None,
     "argument --threshold: must be a positive number"),
    (["predict", "--threshold", "abc"], None,
     "argument --threshold: invalid float value: 'abc'"),
    (["inspect", "--gap-factor", "0.5"], None,
     "argument --gap-factor: must be a finite number >= 1"),
    (["compare", "--gap-factor", "nan"], None,
     "argument --gap-factor: must be a finite number >= 1"),
    (["predict", "-v", "0"], None, "argument -v/--training-size: must be at least 1"),
    (["predict", "--threshold", "0.01", "--max-training-size", "0"], None,
     "argument --max-training-size: must be at least 1"),
    (["predict", "-v", "100", "--threshold", "0.001", "--max-training-size", "50"], None,
     "--max-training-size must be at least -v"),
    (["compare", "--training-size", "-3"], None,
     "argument -v/--training-size: must be at least 1"),
    (["compare", "--theta-window", "2"], None, "argument --theta-window: must be at least 3"),
    (["compare", "-v", "2"], None,
     "--theta-window defaults to -v, which is below 3: give --theta-window 3 or more"),
    (["sweep", "second-station.csv", "--v-max", "3"], None,
     "sweep handles one station at a time"),
    (["sweep", "--v-max", "3", "--v-min", "0"], None, "invalid training-size range"),
    (["sweep", "--v-max", "3", "--v-step", "0"], None, "invalid training-size range"),
    (["sweep", "--v-max", "3", "--v-min", "5"], None, "invalid training-size range"),
    (["compare", "--reps", "5"], None, "--reps requires --time"),
    (["compare"], "abc", "GNSS_GRNN_JOBS: invalid int value: 'abc'"),
])
def test_flag_rules_are_checked_before_any_file_is_read(tmp_path, capsys, monkeypatch,
                                                        argv, env, message):
    # a missing station would be a data error (exit 2); the broken rule wins
    missing = tmp_path / "no-such-station.csv"
    if env is not None:
        monkeypatch.setenv("GNSS_GRNN_JOBS", env)
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        run_cli(command, missing, *flags)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: gnss-grnn {command} [-h]")
    assert err.endswith(f"gnss-grnn {command}: error: {message}\n")


@pytest.mark.parametrize("command, choices", [
    ("predict", ["{recursive,teacher-forced}"]),
    ("compare", ["{recursive,teacher-forced}", "{rolling,global}"]),
])
def test_help_lists_the_values_enum_flags_accept(capsys, command, choices):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for listed in choices:
        assert listed in out
    for enum_name in ("Mode.", "ThetaFit."):
        assert enum_name not in out
