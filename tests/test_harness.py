"""Sweeps, station evaluation, comparison, timing, synthetic data, writers."""

import csv
import io
import json
import re
import statistics
from types import SimpleNamespace

import numpy as np
import pytest

import gnss_grnn.harness
from gnss_grnn import (
    DataError,
    GrnnConfig,
    Mode,
    NumericError,
    SeriesState,
    StationSeries,
    SyntheticKind,
    SyntheticParams,
    ThetaFit,
    UndefinedMetricError,
    amplitude,
    compare_methods,
    compute_report,
    detect_gaps,
    evaluate_station,
    evaluate_stations,
    forecast_series,
    generate_synthetic,
    run_sweep,
    theta_backtest,
    time_methods,
    write_reports_csv,
    write_reports_json,
    write_sweep_csv,
)
from gnss_grnn.harness import write_predictions_csv, write_predictions_json

from scalar_reference import estimate_theta, stepping_walk, theta_walk


class TestGenerateSynthetic:
    def test_deterministic(self):
        params = SyntheticParams(noise_std_m=0.002)
        a = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 42, params)
        b = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 42, params)
        for ca, cb in zip(a.components, b.components):
            np.testing.assert_array_equal(ca.values_m, cb.values_m)
        c = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 43, params)
        assert not np.array_equal(a.components[0].values_m, c.components[0].values_m)

    def test_constant_has_zero_amplitude_any_seed(self):
        for seed in (0, 1, 999):
            s = generate_synthetic(SyntheticKind.CONSTANT, 50, seed,
                                   SyntheticParams(noise_std_m=0.01))
            assert all(amplitude(c) == 0.0 for c in s.components)

    def test_linear_slope_recovered(self):
        s = generate_synthetic(SyntheticKind.LINEAR, 100, 0,
                               SyntheticParams(slope_m_per_day=0.01))
        for comp in s.components:
            assert estimate_theta(comp.values_m[:30]) == pytest.approx(0.01, rel=1e-6)

    def test_gapped_trend_hole_arithmetic(self):
        s = generate_synthetic(SyntheticKind.GAPPED_TREND, 400, 1)
        report = detect_gaps(s)
        assert report.state is SeriesState.DISCONTINUOUS
        assert len(report.gaps) == 1
        assert report.gaps[0].missing_count in (29, 30)
        assert s.count == 370

    def test_custom_gap_spans(self):
        params = SyntheticParams(gap_spans=((50, 10), (200, 5)))
        s = generate_synthetic(SyntheticKind.GAPPED_TREND, 300, 2, params)
        report = detect_gaps(s)
        assert len(report.gaps) == 2
        assert [g.missing_count for g in report.gaps] == [10, 5]

    def test_too_short_refused(self):
        with pytest.raises(DataError):
            generate_synthetic(SyntheticKind.CONSTANT, 9, 0)


class TestRunSweep:
    def test_constant_series_all_zero(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 200, 0)
        rows = run_sweep(s, range(1, 6))
        assert len(rows) == 5 * 3 * 2
        for row in rows:
            assert row["smape_percent"] == 0.0
            assert row["std_m"] == 0.0
            assert row["mabs_m"] == 0.0

    def test_single_v_runs_every_mode(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 50, 0)
        rows = run_sweep(s, [1])
        assert [(r["component"], r["mode"]) for r in rows] == [
            (c, m) for c in ("X", "Y", "Z") for m in ("recursive", "teacher-forced")]
        assert all(r["v"] == 1 and r["n"] == 49 for r in rows)

    def test_refusals(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 20, 0)
        with pytest.raises(DataError, match="refused"):
            run_sweep(s, [20])
        with pytest.raises(DataError, match="refused"):
            run_sweep(s, [19])
        with pytest.raises(DataError):
            run_sweep(s, [])

    @pytest.mark.parametrize("v, message", [
        (20, "refused: v_max 20 must be < series length 20"),
        (19, "refused: largest training size leaves fewer than 2 predictions"),
    ])
    def test_length_refusals_name_the_station(self, v, message):
        s = generate_synthetic(SyntheticKind.CONSTANT, 20, 0)
        with pytest.raises(DataError) as exc:
            run_sweep(s, [v])
        assert type(exc.value) is DataError
        assert str(exc.value) == f"station synthetic-constant-0: {message}"

    def test_oversized_range_refused_without_listing_its_sizes(self):
        # listing 10**12 sizes would take about 100 TB; the range's last
        # element alone decides the refusal
        s = generate_synthetic(SyntheticKind.CONSTANT, 20, 0)
        with pytest.raises(DataError, match=r"refused: v_max 999999999999 must be < "
                                            r"series length 20$"):
            run_sweep(s, range(1, 10**12))

    @pytest.mark.parametrize("sizes, message", [
        (range(0), "empty training-size range"),
        (range(6, -1, -3), "training_size must be >= 1; got 0$"),
        (range(3, 25, 4), "refused: v_max 23 must be < series length 20"),
    ])
    def test_range_refused_as_a_list_of_its_sizes(self, sizes, message):
        s = generate_synthetic(SyntheticKind.CONSTANT, 20, 0)
        for given in (sizes, list(sizes)):
            with pytest.raises(DataError, match=message):
                run_sweep(s, given)

    def test_descending_range_sweeps_in_ascending_order(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 20, 0)
        assert run_sweep(s, range(5, 0, -2)) == run_sweep(s, [1, 3, 5])

    @pytest.mark.parametrize("sizes, bad", [
        ([2.5, 3], 2.5),
        ([True], True),
        # equal to 3, so de-duplication would have hidden it
        ([3, 3.0], 3.0),
        ([np.float64(2.0)], np.float64(2.0)),
        (["7"], "7"),
    ])
    def test_non_integer_sizes_are_refused_before_any_walk(self, kernel_calls, sizes, bad):
        s = generate_synthetic(SyntheticKind.CONSTANT, 20, 0)
        with pytest.raises(DataError) as exc:
            run_sweep(s, sizes)
        assert str(exc.value) == f"training_size must be an integer; got {bad!r}"
        assert kernel_calls == []

    def test_sizes_below_one_name_the_value(self, kernel_calls):
        s = generate_synthetic(SyntheticKind.CONSTANT, 20, 0)
        for sizes in ([3, -2, 0], range(-2, 4)):
            with pytest.raises(DataError) as exc:
                run_sweep(s, sizes)
            assert str(exc.value) == "training_size must be >= 1; got -2"
        assert kernel_calls == []

    def test_numpy_integer_sizes_are_swept_as_int(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 20, 0)
        rows = run_sweep(s, [np.int64(3), np.int32(2), 3])
        assert rows == run_sweep(s, [2, 3])
        assert {type(row["v"]) for row in rows} == {int}


@pytest.fixture
def kernel_calls(monkeypatch):
    """``(series type, training size, modes)`` of every kernel walk the
    harness asks for."""
    calls = []

    def traced(station, config, modes=(Mode.RECURSIVE,)):
        calls.append((type(station), config.training_size, tuple(modes)))
        return forecast_series(station, config, modes)

    monkeypatch.setattr(gnss_grnn.harness, "forecast_series", traced)
    return calls


@pytest.fixture
def theta_calls(monkeypatch):
    """``(series type, window, fit)`` of every Theta walk the harness asks for."""
    calls = []

    def traced(station, window, *, fit):
        calls.append((type(station), window, fit))
        return theta_backtest(station, window, fit=fit)

    monkeypatch.setattr(gnss_grnn.harness, "theta_backtest", traced)
    return calls


class TestOneWalkPerStation:
    """The harness walks X, Y, Z (and every sweep mode) from one kernel pass."""

    def station(self):
        return generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 120, 1,
                                  SyntheticParams(noise_std_m=1e-3))

    def test_sweep_calls_once_per_training_size(self, kernel_calls):
        run_sweep(self.station(), [2, 5, 9])
        assert kernel_calls == [(StationSeries, v, tuple(Mode)) for v in (2, 5, 9)]

    def test_evaluation_calls_once(self, kernel_calls):
        evaluate_station(self.station(), GrnnConfig(training_size=10))
        assert kernel_calls == [(StationSeries, 10, (Mode.RECURSIVE,))]

    def test_bad_theta_window_walks_nothing(self, kernel_calls):
        with pytest.raises(DataError, match="theta window must be >= 3"):
            evaluate_station(self.station(), GrnnConfig(training_size=10), theta_window=2)
        assert kernel_calls == []

    def test_timing_bad_theta_window_walks_nothing(self, kernel_calls):
        with pytest.raises(DataError, match="theta window must be >= 3"):
            time_methods([self.station()], GrnnConfig(training_size=10), theta_window=2)
        assert kernel_calls == []

    def test_timing_calls_once_per_station_and_pass(self, kernel_calls, theta_calls):
        timing = time_methods([self.station(), self.station()],
                              GrnnConfig(training_size=10), theta_fit="global",
                              repetitions=3)
        # one warmup pass and three timed passes over two stations
        assert kernel_calls == 8 * [(StationSeries, 10, (Mode.RECURSIVE,))]
        assert theta_calls == 8 * [(StationSeries, 10, ThetaFit.GLOBAL)]
        assert timing["workload_predictions"] == 2 * 3 * 110
        assert timing["theta_predictions"] == 2 * 3 * 110

    def test_evaluation_walks_theta_once(self, theta_calls):
        evaluate_station(self.station(), GrnnConfig(training_size=10), theta_window=12,
                         theta_fit="global")
        assert theta_calls == [(StationSeries, 12, ThetaFit.GLOBAL)]

    @pytest.mark.parametrize("setting", ["mode", "theta_fit"])
    def test_bad_mode_or_fit_walks_nothing(self, kernel_calls, theta_calls, setting):
        config = GrnnConfig(training_size=10)
        with pytest.raises(ValueError, match="'bogus' is not a valid"):
            evaluate_station(self.station(), config, **{setting: "bogus"})
        with pytest.raises(ValueError, match="'bogus' is not a valid"):
            time_methods([self.station()], config, **{setting: "bogus"})
        assert kernel_calls == [] and theta_calls == []

    @pytest.mark.parametrize("window", [100.0, 3.5, True])
    def test_non_integer_theta_window_walks_nothing(self, kernel_calls, theta_calls, window):
        message = re.escape(f"theta window must be an integer; got {window!r}")
        config = GrnnConfig(training_size=10)
        with pytest.raises(DataError, match=message):
            evaluate_station(self.station(), config, theta_window=window)
        with pytest.raises(DataError, match=message):
            time_methods([self.station()], config, theta_window=window)
        assert kernel_calls == [] and theta_calls == []


def _linear_station(n=120, slope=0.001):
    return generate_synthetic(SyntheticKind.LINEAR, n, 0,
                              SyntheticParams(slope_m_per_day=slope))


def _one_huge_x(n=40):
    """A station whose X is 1.0 but for one 1.5e308 at index 10: the
    kernel's forecasts stay finite, Theta's second differences overflow."""
    s = _linear_station(n)
    values = s.values_m.copy()
    values[0] = 1.0
    values[0, 10] = 1.5e308
    return StationSeries("ONE", s.epochs_mjd, values)


class TestEvaluateStation:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("v, theta_window", [(10, 25), (30, 7)])
    def test_both_methods_score_the_stations_last_epochs(self, monkeypatch, mode, v,
                                                         theta_window):
        # the windows differ, so the walks start at different epochs; both are
        # scored on the station's last keep epochs and their truths
        station = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 120, 1,
                                     SyntheticParams(noise_std_m=1e-3))
        scored = []

        def recording(predicted, observed):
            scored.append((predicted.copy(), observed.copy()))
            return compute_report(predicted, observed)

        monkeypatch.setattr(gnss_grnn.harness, "compute_report", recording)
        cfg = GrnnConfig(training_size=v)
        report = evaluate_station(station, cfg, theta_window, mode=mode)
        keep = station.count - max(v, theta_window)
        assert report["n_predictions"] == keep
        want = []
        for comp in station.components:
            want.append((stepping_walk(station.epochs_mjd, comp, cfg, mode)[-keep:], comp.values_m[-keep:]))
            want.append((theta_walk(comp, theta_window)[-keep:], comp.values_m[-keep:]))
        assert len(scored) == len(want) == 6
        for (predicted, observed), (want_predicted, want_observed) in zip(scored, want):
            assert np.array_equal(predicted.view(np.int64), want_predicted.view(np.int64))
            assert np.array_equal(observed.view(np.int64), want_observed.view(np.int64))

    def test_non_finite_theta_forecast_names_station_and_method(self):
        s = _one_huge_x()
        with np.errstate(over="ignore", invalid="ignore"):
            predicted = theta_walk(s.components[0], 5)
        j = int(np.flatnonzero(~np.isfinite(predicted))[0])
        with pytest.raises(NumericError) as exc:
            evaluate_station(s, GrnnConfig(training_size=5))
        assert type(exc.value) is NumericError
        assert str(exc.value) == (
            f"station ONE: Theta forecast is not finite ({float(predicted[j])!r}) "
            f"predicting component X at MJD {float(s.epochs_mjd[5 + j])!r}")

    def test_constant_all_metrics_zero(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 120, 0)
        report = evaluate_station(s, GrnnConfig(training_size=10))
        for comp in ("X", "Y", "Z"):
            for method in ("grnn", "theta"):
                metrics = report["metrics"][method][comp]
                assert metrics["smape_percent"] == pytest.approx(0.0, abs=1e-12)
                assert metrics["std_m"] == pytest.approx(0.0, abs=1e-9)
                assert metrics["mabs_m"] == pytest.approx(0.0, abs=1e-9)

    def test_linear_theta_exact_kernel_biased(self):
        report = evaluate_station(_linear_station(), GrnnConfig(training_size=10))
        for comp in ("X", "Y", "Z"):
            # the trend line nails a noiseless ramp (to rounding at coordinate
            # scale); a convex combination cannot reach past its window
            assert report["metrics"]["theta"][comp]["mabs_m"] < 1e-7
            assert report["metrics"]["grnn"][comp]["mabs_m"] > 1e-5

    def test_gap_state_recorded(self):
        gapped = generate_synthetic(SyntheticKind.GAPPED_TREND, 400, 3)
        report = evaluate_station(gapped, GrnnConfig(training_size=20))
        assert report["state"] == SeriesState.DISCONTINUOUS.value
        assert report["gap_count"] == 1
        assert report["largest_gap_days"] > 1.5

    def test_gapped_at_least_as_hard_as_ungapped(self):
        params = SyntheticParams(slope_m_per_day=1e-3, annual_amplitude_m=0.005,
                                 noise_std_m=0.001)
        ungapped = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 2000, 7, params)
        gapped = generate_synthetic(
            SyntheticKind.GAPPED_TREND, 2000, 7,
            SyntheticParams(slope_m_per_day=1e-3, annual_amplitude_m=0.005,
                            noise_std_m=0.001,
                            gap_spans=((600, 30), (1100, 30), (1500, 30))),
        )
        cfg = GrnnConfig(training_size=100)
        a = evaluate_station(ungapped, cfg, mode=Mode.TEACHER_FORCED)
        b = evaluate_station(gapped, cfg, mode=Mode.TEACHER_FORCED)
        for comp in ("X", "Y", "Z"):
            assert (b["metrics"]["grnn"][comp]["smape_percent"]
                    >= a["metrics"]["grnn"][comp]["smape_percent"])

    def test_numpy_integer_theta_window_is_written(self):
        s = _linear_station(150)
        report = evaluate_station(s, GrnnConfig(training_size=10), theta_window=np.int64(50))
        assert type(report["settings"]["theta"]["window"]) is int
        buf = io.StringIO()
        write_reports_json([report], None, buf)
        doc = json.loads(buf.getvalue())
        assert doc["stations"][0]["settings"]["theta"] == {"window": 50, "fit": "rolling"}
        assert doc["stations"][0]["n_predictions"] == 100

    def test_differing_windows_are_aligned(self):
        s = _linear_station(150)
        report = evaluate_station(s, GrnnConfig(training_size=10), theta_window=30)
        assert report["n_predictions"] == 120
        for comp in ("X", "Y", "Z"):
            assert report["metrics"]["grnn"][comp]["n"] == 120
            assert report["metrics"]["theta"][comp]["n"] == 120

    def test_too_short(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 12, 0)
        with pytest.raises(DataError) as exc:
            evaluate_station(s, GrnnConfig(training_size=11))
        assert str(exc.value) == (f"station {s.station_id}: series too short for "
                                  "evaluation: need at least 2 shared predictions")

    def test_undefined_criterion_names_component_method_and_epoch(self):
        s = _linear_station(60)
        values = s.values_m.copy()
        values[0] = 0.0
        zero_x = StationSeries("Z0", s.epochs_mjd, values)
        with pytest.raises(UndefinedMetricError) as exc:
            evaluate_station(zero_x, GrnnConfig(training_size=10))
        assert str(exc.value) == ("station Z0: component X: method grnn: undefined sMAPE "
                                  "term at MJD 55010.0: |y| + |yhat| is zero")
        with pytest.raises(UndefinedMetricError) as exc:
            run_sweep(zero_x, [3])
        assert str(exc.value) == ("station Z0: training size 3: component X: mode "
                                  "recursive: undefined sMAPE term at MJD 55003.0: "
                                  "|y| + |yhat| is zero")

    def test_overflowing_criterion_names_size_component_and_mode(self):
        # a one-value recursive walk forecasts X's first value, -1e308, at
        # every epoch, so its residual at the +1e308 overflows
        s = _one_huge_x()
        values = s.values_m.copy()
        values[0, 0], values[0, 10] = -1e308, 1e308
        with pytest.raises(UndefinedMetricError) as exc:
            run_sweep(StationSeries("ONE", s.epochs_mjd, values), [1, 2])
        assert str(exc.value) == ("station ONE: training size 1: component X: mode "
                                  "recursive: sMAPE is not finite (nan): the residuals "
                                  "overflow float64")

    def test_non_finite_forecast_is_named_where_it_is_scored(self):
        with pytest.raises(DataError) as exc:
            with gnss_grnn.harness.at_station("S", "component Y", "method theta",
                                              epochs_mjd=np.array([55000.0])):
                compute_report(np.array([np.inf]), np.array([1.0]))
        assert str(exc.value) == ("station S: component Y: method theta: "
                                  "prediction pairs must be finite")

    @pytest.mark.parametrize("settings, message", [
        ({"theta_window": 2}, "theta window must be >= 3"),
        ({"gap_factor": 0.5}, "gap_factor must be a finite number >= 1, got 0.5"),
    ])
    def test_bad_setting_is_named_before_a_short_station(self, settings, message):
        # the settings are wrong whatever the station; its length is checked after
        s = generate_synthetic(SyntheticKind.LINEAR, 12, 0)
        with pytest.raises(DataError) as exc:
            evaluate_station(s, GrnnConfig(training_size=11), **settings)
        assert str(exc.value) == message

    def test_parallel_matches_serial(self):
        stations = [
            generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 150, seed,
                               SyntheticParams(noise_std_m=1e-3))
            for seed in (1, 2, 3)
        ]
        cfg = GrnnConfig(training_size=10)
        serial = evaluate_stations(stations, cfg, jobs=1)
        parallel = evaluate_stations(stations, cfg, jobs=3)
        assert [r["station_id"] for r in serial] == [r["station_id"] for r in parallel]
        for a, b in zip(serial, parallel):
            for comp in ("X", "Y", "Z"):
                assert (a["metrics"]["grnn"][comp]["smape_percent"]
                        == b["metrics"]["grnn"][comp]["smape_percent"])


def _metrics(smape_val, std_val, mabs_val, n=10):
    return {"smape_percent": smape_val, "std_m": std_val, "mabs_m": mabs_val, "n": n}


def _fake_report(station_id, grnn, theta):
    return {
        "station_id": station_id, "country": None,
        "span": {"first_mjd": 55000.0, "last_mjd": 55999.0, "label": "2009-2012"},
        "state": "continuous", "gap_count": 0, "largest_gap_days": 0.0,
        "n_predictions": 10,
        "metrics": {"grnn": {c: grnn for c in ("X", "Y", "Z")},
                    "theta": {c: theta for c in ("X", "Y", "Z")}},
        "settings": {
            "grnn": {"training_size": 100, "bandwidth": "window-std", "threshold_m": None,
                     "max_training_size": None, "mode": "recursive"},
            "theta": {"window": 100, "fit": "rolling"},
            "gap_factor": 1.5,
        },
    }


class TestCompareMethods:
    def test_identical_metrics_give_unit_ratios(self):
        m = _metrics(1.5, 0.2, 0.3)
        report = compare_methods([_fake_report("a", m, m), _fake_report("b", m, m)])
        for comp in ("X", "Y", "Z"):
            agg = report["aggregated"][comp]
            assert agg["smape_ratio"] == pytest.approx(1.0)
            assert agg["std_ratio"] == pytest.approx(1.0)
            assert agg["mabs_ratio"] == pytest.approx(1.0)

    def test_half_mabs_everywhere(self):
        reports = [
            _fake_report(f"s{i}", _metrics(1.0, 1.0, 0.5 * (i + 1)), _metrics(1.0, 1.0, 1.0 * (i + 1)))
            for i in range(3)
        ]
        report = compare_methods(reports)
        assert report["aggregated"]["X"]["mabs_ratio"] == pytest.approx(0.5)
        for row in report["per_station"]:
            assert row["X"]["mabs_ratio"] == pytest.approx(0.5)

    def test_zero_denominator_is_undefined_with_raw_values_kept(self):
        report = compare_methods([_fake_report("a", _metrics(1.0, 1.0, 1.0),
                                               _metrics(0.0, 0.0, 2.0))])
        agg = report["aggregated"]["X"]
        assert agg["smape_ratio"] is None and agg["std_ratio"] is None
        assert agg["mabs_ratio"] == pytest.approx(0.5)
        assert agg["theta"]["smape_percent"] == 0.0
        assert agg["grnn"]["smape_percent"] == 1.0

    def test_aggregation_is_mean_over_stations(self):
        reports = [
            _fake_report("a", _metrics(1.0, 1.0, 1.0), _metrics(2.0, 2.0, 2.0)),
            _fake_report("b", _metrics(3.0, 3.0, 3.0), _metrics(2.0, 2.0, 2.0)),
        ]
        agg = compare_methods(reports)["aggregated"]["Y"]
        assert agg["grnn"]["smape_percent"] == pytest.approx(2.0)
        assert agg["smape_ratio"] == pytest.approx(1.0)

    def test_needs_reports(self):
        with pytest.raises(DataError):
            compare_methods([])

    @pytest.mark.parametrize("timed", [False, True])
    def test_returns_the_block_report_json_writes(self, timed):
        reports = [
            _fake_report("a", _metrics(1.0, 1.0, 1.0), _metrics(2.0, 0.0, 4.0)),
            _fake_report("b", _metrics(3.0, 3.0, 3.0), _metrics(2.0, 0.0, 2.0)),
        ]
        timing = {"grnn_seconds": [0.3, 0.1, 0.2], "theta_seconds": [2.0, 1.0, 4.0],
                  "grnn_median_s": 0.2, "theta_median_s": 2.0,
                  "workload_predictions": 30, "theta_predictions": 20} if timed else None
        block = compare_methods(reports, timing)
        buf = io.StringIO()
        write_reports_json(reports, block, buf)
        written = json.loads(buf.getvalue())["comparison"]
        assert block == written
        # same keys in the same order, at every level
        assert json.dumps(block) == json.dumps(written)
        assert list(block) == ["aggregated", "per_station", "time_ratio", "timing"]
        assert list(block["aggregated"]["X"]) == [
            "smape_ratio", "std_ratio", "mabs_ratio", "grnn", "theta"]
        assert block["aggregated"]["X"]["std_ratio"] is None
        if timed:
            assert block["time_ratio"] == 0.2 / 2.0
            assert block["timing"] is timing
        else:
            assert block["time_ratio"] is None and block["timing"] is None


class TestTiming:
    def test_structure_and_phases(self):
        stations = [generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 1,
                                       SyntheticParams(noise_std_m=1e-3))]
        timing = time_methods(stations, GrnnConfig(training_size=20), repetitions=3)
        assert list(timing) == ["grnn_seconds", "theta_seconds", "grnn_median_s",
                                "theta_median_s", "workload_predictions", "theta_predictions"]
        assert len(timing["grnn_seconds"]) == 3
        assert len(timing["theta_seconds"]) == 3
        assert timing["workload_predictions"] == 3 * 180
        assert timing["grnn_median_s"] > 0 and timing["theta_median_s"] > 0
        assert all(t > 0 for t in timing["grnn_seconds"] + timing["theta_seconds"])
        assert timing["theta_predictions"] == timing["workload_predictions"]

    def test_theta_window_sets_theta_count(self):
        stations = [generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 1,
                                       SyntheticParams(noise_std_m=1e-3))]
        timing = time_methods(stations, GrnnConfig(training_size=20), theta_window=50,
                              repetitions=3)
        assert timing["workload_predictions"] == 3 * 180
        assert timing["theta_predictions"] == 3 * 150
        report = evaluate_station(stations[0], GrnnConfig(training_size=20), 50)
        buf = io.StringIO()
        write_reports_json([report], compare_methods([report], timing), buf)
        doc = json.loads(buf.getvalue())
        assert doc["schema_version"] == 1
        block = doc["comparison"]["timing"]
        assert (block["workload_predictions"], block["theta_predictions"]) == (540, 450)

    @pytest.mark.parametrize("count", [3, 4, 5, 6, 10, 11])
    def test_medians_are_statistics_median_bits(self, count, monkeypatch):
        # the medians in report_timed.json are statistics.median's; for an
        # even count both take the mean of the two middle samples
        monkeypatch.setattr(gnss_grnn.harness, "forecast_series", lambda *args: None)
        monkeypatch.setattr(gnss_grnn.harness, "theta_backtest", lambda *args, **kw: None)
        station = generate_synthetic(SyntheticKind.CONSTANT, 50, 0)
        rng = np.random.default_rng(count)
        for _ in range(300):
            samples = [float(x) for x in rng.lognormal(-3.0, 2.0, count)]
            # each timed pass reads the clock at 0 and then at its sample
            ticks = iter([t for s in samples + samples[::-1] for t in (0.0, s)])
            monkeypatch.setattr(gnss_grnn.harness, "time",
                                SimpleNamespace(perf_counter=lambda: next(ticks)))
            timing = time_methods([station], GrnnConfig(training_size=5), repetitions=count)
            assert timing["grnn_seconds"] == samples
            assert timing["theta_seconds"] == samples[::-1]
            want = statistics.median(samples)
            for method in ("grnn", "theta"):
                median = timing[f"{method}_median_s"]
                assert type(median) is float
                assert median.hex() == float(np.median(timing[f"{method}_seconds"])).hex()
                assert median.hex() == want.hex()

    def test_rep_floor(self):
        with pytest.raises(DataError):
            time_methods([generate_synthetic(SyntheticKind.CONSTANT, 50, 0)],
                         GrnnConfig(training_size=5), repetitions=2)


class TestWriters:
    def _station_report(self):
        s = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 150, 4,
                               SyntheticParams(noise_std_m=1e-3))
        return evaluate_station(s, GrnnConfig(training_size=10))

    def test_json_schema(self):
        report = self._station_report()
        comparison = compare_methods([report])
        buf = io.StringIO()
        write_reports_json([report], comparison, buf)
        doc = json.loads(buf.getvalue())
        assert doc["schema_version"] == 1
        station = doc["stations"][0]
        assert station["state"] == "continuous"
        assert set(station["metrics"]["grnn"].keys()) == {"X", "Y", "Z"}
        assert set(station["metrics"]["grnn"]["X"].keys()) == {
            "smape_percent", "std_m", "mabs_m", "n"}
        assert station["settings"]["grnn"]["training_size"] == 10
        assert doc["comparison"]["time_ratio"] is None

    @pytest.mark.parametrize("kind", [SyntheticKind.TREND_PLUS_ANNUAL,
                                      SyntheticKind.GAPPED_TREND])
    def test_evaluation_is_the_block_report_json_writes(self, kind):
        s = generate_synthetic(kind, 300, 5, SyntheticParams(noise_std_m=1e-3))
        block = evaluate_station(s, GrnnConfig(training_size=20))
        buf = io.StringIO()
        write_reports_json([block], None, buf)
        written = json.loads(buf.getvalue())["stations"][0]
        assert block == written
        # same keys in the same order, at every level
        assert json.dumps(block) == json.dumps(written)
        assert list(block) == ["station_id", "country", "span", "state", "gap_count",
                               "largest_gap_days", "n_predictions", "metrics", "settings"]
        assert block["state"] == (SeriesState.DISCONTINUOUS.value
                                  if kind is SyntheticKind.GAPPED_TREND
                                  else SeriesState.CONTINUOUS.value)

    def test_json_run_block_follows_schema_version(self):
        report = self._station_report()
        comparison = compare_methods([report])
        plain, with_run = io.StringIO(), io.StringIO()
        write_reports_json([report], comparison, plain)
        write_reports_json([report], comparison, with_run, run={"seed": 7, "basis": "raw"})
        assert list(json.loads(plain.getvalue())) == ["schema_version", "stations",
                                                      "comparison"]
        doc = json.loads(with_run.getvalue())
        assert list(doc) == ["schema_version", "run", "stations", "comparison"]
        assert doc["run"] == {"seed": 7, "basis": "raw"}

    def test_json_round_trip_precision(self):
        report = self._station_report()
        buf = io.StringIO()
        write_reports_json([report], None, buf)
        doc = json.loads(buf.getvalue())
        assert doc["stations"][0]["metrics"]["grnn"]["X"]["smape_percent"] == \
            report["metrics"]["grnn"]["X"]["smape_percent"]

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused_json_leaves_the_path_untouched(self, tmp_path, existing, bad):
        # the value that JSON cannot hold comes late in each document, after
        # much that it could
        report = self._station_report()
        report["metrics"]["theta"]["Z"]["mabs_m"] = bad
        rows = [{"station": "s", "predicted_m": 1.0}] * 50 + [{"station": "s",
                                                                "predicted_m": bad}]
        writers = {"report.json": lambda dest: write_reports_json([report], None, dest),
                   "predict.json": lambda dest: write_predictions_json(rows, dest)}
        for name, write in writers.items():
            dest = tmp_path / name
            if existing:
                dest.write_text("kept\n")
            with pytest.raises(ValueError, match="^Out of range float values are not JSON"):
                write(dest)
            if existing:
                assert dest.read_text() == "kept\n"
            else:
                assert not dest.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_unwritable_csv_row_leaves_the_path_untouched(self, tmp_path, existing):
        # the row that cannot be formatted comes after rows that can
        report = self._station_report()
        spanless = {key: value for key, value in report.items() if key != "span"}
        sweep = run_sweep(generate_synthetic(SyntheticKind.CONSTANT, 60, 0), [1, 2])
        sizeless = {key: value for key, value in sweep[0].items() if key != "n"}
        rows = [{"station": "s", "predicted_m": 1.0}] * 50
        writers = {
            "stations.csv": (lambda dest: write_reports_csv([report, spanless], dest),
                             KeyError),
            "sweep.csv": (lambda dest: write_sweep_csv([*sweep, sizeless], dest), KeyError),
            "predict.csv": (lambda dest: write_predictions_csv([*rows, None], dest),
                            AttributeError),
        }
        for name, (write, error) in writers.items():
            dest = tmp_path / name
            if existing:
                dest.write_bytes(b"kept\n")
            with pytest.raises(error):
                write(dest)
            if existing:
                assert dest.read_bytes() == b"kept\n"
            else:
                assert not dest.exists()

    def test_json_replaces_an_existing_file(self, tmp_path):
        report = self._station_report()
        buf = io.StringIO()
        write_reports_json([report], None, buf)
        dest = tmp_path / "report.json"
        dest.write_text("x" * (2 * len(buf.getvalue())))
        write_reports_json([report], None, dest)
        assert dest.read_text(encoding="utf-8") == buf.getvalue()
        rows = [{"station": "s", "predicted_m": 0.5}]
        write_predictions_json(rows, dest)
        assert dest.read_bytes() == b'[\n  {\n    "station": "s",\n    "predicted_m": 0.5\n  }\n]\n'

    def test_stations_csv_columns(self):
        report = self._station_report()
        buf = io.StringIO()
        write_reports_csv([report], buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["station", "span", "state", "component", "method",
                           "smape_percent", "std_m", "mabs_m"]
        assert len(rows) == 1 + 6  # 3 components x 2 methods
        assert {r[4] for r in rows[1:]} == {"grnn", "theta"}
        assert rows[1][1] == report["span"]["label"]

    def test_sweep_csv_columns(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 60, 0)
        rows = run_sweep(s, [1, 2])
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["v", "component", "mode", "smape_percent", "std_m", "mabs_m", "n"]
        assert len(rows) == 1 + 2 * 3 * 2
