"""Sweeps, station evaluation, comparison, timing, synthetic data, writers."""

import csv
import io
import json

import numpy as np
import pytest

from gnss_grnn import (
    BandwidthRule,
    DataError,
    EvaluationSettings,
    GrnnConfig,
    MetricsReport,
    Mode,
    SeriesState,
    StationReport,
    SyntheticKind,
    SyntheticParams,
    ThetaFit,
    amplitude,
    compare_methods,
    detect_gaps,
    estimate_theta,
    evaluate_station,
    evaluate_stations,
    generate_synthetic,
    run_sweep,
    time_methods,
    write_reports_csv,
    write_reports_json,
    write_sweep_csv,
)


class TestGenerateSynthetic:
    def test_deterministic(self):
        params = SyntheticParams(noise_std_m=0.002)
        a = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 42, params)
        b = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 42, params)
        for comp in ("X", "Y", "Z"):
            np.testing.assert_array_equal(a.component(comp).values_m,
                                          b.component(comp).values_m)
        c = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 43, params)
        assert not np.array_equal(a.component("X").values_m, c.component("X").values_m)

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
        result = run_sweep(s, range(1, 6))
        assert len(result.rows) == 5 * 3 * 2
        for row in result.rows:
            assert row.smape_percent == 0.0
            assert row.std_m == 0.0
            assert row.mabs_m == 0.0

    def test_single_v_single_mode(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 50, 0)
        result = run_sweep(s, [1], modes=[Mode.TEACHER_FORCED])
        assert len(result.rows) == 3
        assert {r.component for r in result.rows} == {"X", "Y", "Z"}
        assert all(r.training_size == 1 for r in result.rows)
        assert all(r.n == 49 for r in result.rows)

    def test_direction_on_trend_plus_annual(self):
        params = SyntheticParams(slope_m_per_day=5e-5, annual_amplitude_m=0.005,
                                 noise_std_m=0.001)
        s = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 2000, 42, params)
        result = run_sweep(s, [1, 100],
                           GrnnConfig(training_size=1,
                                      bandwidth=BandwidthRule.MEAN_SPACING),
                           modes=[Mode.TEACHER_FORCED])
        by_key = {(r.training_size, r.component): r for r in result.rows}
        for comp in ("X", "Y", "Z"):
            small, large = by_key[(1, comp)], by_key[(100, comp)]
            assert large.smape_percent < small.smape_percent
            assert large.std_m < small.std_m
            assert large.mabs_m < small.mabs_m

    def test_refusals(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 20, 0)
        with pytest.raises(DataError, match="refused"):
            run_sweep(s, [20])
        with pytest.raises(DataError, match="refused"):
            run_sweep(s, [19])
        with pytest.raises(DataError):
            run_sweep(s, [])


def _linear_station(n=120, slope=0.001):
    return generate_synthetic(SyntheticKind.LINEAR, n, 0,
                              SyntheticParams(slope_m_per_day=slope))


class TestEvaluateStation:
    def test_constant_all_metrics_zero(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 120, 0)
        report = evaluate_station(s, GrnnConfig(training_size=10))
        for comp in ("X", "Y", "Z"):
            for metrics in (report.grnn_metrics[comp], report.theta_metrics[comp]):
                assert metrics.smape_percent == pytest.approx(0.0, abs=1e-12)
                assert metrics.std_m == pytest.approx(0.0, abs=1e-9)
                assert metrics.mabs_m == pytest.approx(0.0, abs=1e-9)

    def test_linear_theta_exact_kernel_biased(self):
        report = evaluate_station(_linear_station(), GrnnConfig(training_size=10))
        for comp in ("X", "Y", "Z"):
            # the trend line nails a noiseless ramp (to rounding at coordinate
            # scale); a convex combination cannot reach past its window
            assert report.theta_metrics[comp].mabs_m < 1e-7
            assert report.grnn_metrics[comp].mabs_m > 1e-5

    def test_gap_state_recorded(self):
        gapped = generate_synthetic(SyntheticKind.GAPPED_TREND, 400, 3)
        report = evaluate_station(gapped, GrnnConfig(training_size=20))
        assert report.state is SeriesState.DISCONTINUOUS
        assert report.gap_count == 1
        assert report.largest_gap_days > 1.5

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
        cfg = GrnnConfig(training_size=100, mode=Mode.TEACHER_FORCED)
        a = evaluate_station(ungapped, cfg)
        b = evaluate_station(gapped, cfg)
        for comp in ("X", "Y", "Z"):
            assert b.grnn_metrics[comp].smape_percent >= a.grnn_metrics[comp].smape_percent

    def test_differing_windows_are_aligned(self):
        s = _linear_station(150)
        report = evaluate_station(s, GrnnConfig(training_size=10), theta_window=30)
        assert report.n_predictions == 120
        for comp in ("X", "Y", "Z"):
            assert report.grnn_metrics[comp].n == 120
            assert report.theta_metrics[comp].n == 120

    def test_too_short(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 12, 0)
        with pytest.raises(DataError, match="series too short"):
            evaluate_station(s, GrnnConfig(training_size=11))

    def test_value_offsets_restore_raw_scoring(self):
        from gnss_grnn import mean_center
        s = generate_synthetic(
            SyntheticKind.TREND_PLUS_ANNUAL, 300, 5, SyntheticParams(noise_std_m=1e-3)
        )
        centered, offsets = mean_center(s)
        cfg = GrnnConfig(training_size=20, mode=Mode.TEACHER_FORCED)
        raw = evaluate_station(s, cfg)
        shifted = evaluate_station(centered, cfg, value_offsets=offsets)
        for comp in ("X", "Y", "Z"):
            assert shifted.grnn_metrics[comp].smape_percent == pytest.approx(
                raw.grnn_metrics[comp].smape_percent, rel=1e-6
            )
            assert shifted.grnn_metrics[comp].mabs_m == pytest.approx(
                raw.grnn_metrics[comp].mabs_m, rel=1e-6, abs=1e-12
            )

    def test_parallel_matches_serial(self):
        stations = [
            generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 150, seed,
                               SyntheticParams(noise_std_m=1e-3))
            for seed in (1, 2, 3)
        ]
        cfg = GrnnConfig(training_size=10)
        serial = evaluate_stations(stations, cfg, jobs=1)
        parallel = evaluate_stations(stations, cfg, jobs=3)
        assert [r.station_id for r in serial] == [r.station_id for r in parallel]
        for a, b in zip(serial, parallel):
            for comp in ("X", "Y", "Z"):
                assert a.grnn_metrics[comp].smape_percent == b.grnn_metrics[comp].smape_percent


def _metrics(smape_val, std_val, mabs_val, n=10):
    return MetricsReport(smape_percent=smape_val, std_m=std_val, mabs_m=mabs_val,
                         n=n, residuals_m=np.zeros(n))


def _fake_report(station_id, grnn, theta):
    settings = EvaluationSettings(grnn=GrnnConfig(), theta_window=100,
                                  theta_fit=ThetaFit.ROLLING, gap_factor=1.5)
    return StationReport(
        station_id=station_id, country=None, first_mjd=55000.0, last_mjd=55999.0,
        state=SeriesState.CONTINUOUS, gap_count=0, largest_gap_days=0.0,
        n_predictions=10,
        grnn_metrics={c: grnn for c in ("X", "Y", "Z")},
        theta_metrics={c: theta for c in ("X", "Y", "Z")},
        settings=settings,
    )


class TestCompareMethods:
    def test_identical_metrics_give_unit_ratios(self):
        m = _metrics(1.5, 0.2, 0.3)
        report = compare_methods([_fake_report("a", m, m), _fake_report("b", m, m)])
        for comp in ("X", "Y", "Z"):
            agg = report.aggregated[comp]
            assert agg.smape_ratio == pytest.approx(1.0)
            assert agg.std_ratio == pytest.approx(1.0)
            assert agg.mabs_ratio == pytest.approx(1.0)

    def test_half_mabs_everywhere(self):
        reports = [
            _fake_report(f"s{i}", _metrics(1.0, 1.0, 0.5 * (i + 1)), _metrics(1.0, 1.0, 1.0 * (i + 1)))
            for i in range(3)
        ]
        report = compare_methods(reports)
        assert report.aggregated["X"].mabs_ratio == pytest.approx(0.5)
        for row in report.per_station:
            assert row["X"]["mabs_ratio"] == pytest.approx(0.5)

    def test_zero_denominator_is_undefined_with_raw_values_kept(self):
        report = compare_methods([_fake_report("a", _metrics(1.0, 1.0, 1.0),
                                               _metrics(0.0, 0.0, 2.0))])
        agg = report.aggregated["X"]
        assert agg.smape_ratio is None and agg.std_ratio is None
        assert agg.mabs_ratio == pytest.approx(0.5)
        assert agg.theta_smape_percent == 0.0
        assert agg.grnn_smape_percent == 1.0

    def test_aggregation_is_mean_over_stations(self):
        reports = [
            _fake_report("a", _metrics(1.0, 1.0, 1.0), _metrics(2.0, 2.0, 2.0)),
            _fake_report("b", _metrics(3.0, 3.0, 3.0), _metrics(2.0, 2.0, 2.0)),
        ]
        agg = compare_methods(reports).aggregated["Y"]
        assert agg.grnn_smape_percent == pytest.approx(2.0)
        assert agg.smape_ratio == pytest.approx(1.0)

    def test_needs_reports(self):
        with pytest.raises(DataError):
            compare_methods([])


class TestTiming:
    def test_structure_and_phases(self):
        stations = [generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 1,
                                       SyntheticParams(noise_std_m=1e-3))]
        timing = time_methods(stations, GrnnConfig(training_size=20), repetitions=3)
        assert len(timing.grnn_seconds) == 3
        assert len(timing.theta_seconds) == 3
        assert timing.workload_predictions == 3 * 180
        assert timing.time_ratio > 0
        assert all(t > 0 for t in timing.grnn_seconds + timing.theta_seconds)
        assert timing.theta_predictions == timing.workload_predictions

    def test_theta_window_sets_theta_count(self):
        stations = [generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 200, 1,
                                       SyntheticParams(noise_std_m=1e-3))]
        timing = time_methods(stations, GrnnConfig(training_size=20), theta_window=50,
                              repetitions=3)
        assert timing.workload_predictions == 3 * 180
        assert timing.theta_predictions == 3 * 150
        report = evaluate_station(stations[0], GrnnConfig(training_size=20), 50)
        buf = io.StringIO()
        write_reports_json([report], compare_methods([report], timing), buf)
        doc = json.loads(buf.getvalue())
        assert doc["schema_version"] == 1
        block = doc["comparison"]["timing"]
        assert (block["workload_predictions"], block["theta_predictions"]) == (540, 450)

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
            report.grnn_metrics["X"].smape_percent

    def test_stations_csv_columns(self):
        report = self._station_report()
        buf = io.StringIO()
        write_reports_csv([report], buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["station", "span", "state", "component", "method",
                           "smape_percent", "std_m", "mabs_m"]
        assert len(rows) == 1 + 6  # 3 components x 2 methods
        assert {r[4] for r in rows[1:]} == {"grnn", "theta"}
        assert rows[1][1] == report.span_label

    def test_sweep_csv_columns(self):
        s = generate_synthetic(SyntheticKind.CONSTANT, 60, 0)
        result = run_sweep(s, [1, 2], modes=[Mode.TEACHER_FORCED])
        buf = io.StringIO()
        write_sweep_csv(result, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["v", "component", "mode", "smape_percent", "std_m", "mabs_m", "n"]
        assert len(rows) == 1 + 6
