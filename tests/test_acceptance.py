"""Acceptance gate: nine go/no-go criteria, one test each.

Each criterion prints a PASS line when it holds (run with ``-v -s`` to
see them). Expected values come from independent oracles: 50-digit
arbitrary-precision kernel regression, exact rational arithmetic for the
trend-plus-curvature method, and compensated summation for StD.

Reference context recorded here, not asserted (magnitudes depend on the
exact station data, which this repository does not ship): published
kernel-vs-theta ratios around 1.7e-6 (sMAPE, X), 0.02 (StD, X),
0.003 (MAbs, Y) and a wall-time ratio of 0.219; discontinuous-series
error roughly ten times the continuous one.
"""

import math
import time

import numpy as np
import pytest

from gnss_grnn import (
    BandwidthRule,
    Component,
    ComponentSeries,
    GrnnConfig,
    Mode,
    PredictionPairs,
    SyntheticKind,
    SyntheticParams,
    evaluate_station,
    forecast_series,
    generate_synthetic,
    mean_abs_error,
    run_sweep,
    smape,
    std_of_errors,
    theta_backtest,
    time_methods,
    write_reports_csv,
    write_series_csv,
)
from gnss_grnn.cli import main as cli_main
from gnss_grnn.grnn import _convex_combinations, _weight_blocks

from oracles import nw_predict_mp, theta_forecast_fraction, theta_slope_fraction
from scalar_reference import estimate_theta, fit_theta_model, theta_forecast


def _ok(line: str) -> None:
    print(f"\n{line}")


def test_p1_weight_normalization_and_convexity():
    """P1: randomized windows keep weights normalized and forecasts bounded."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for case in range(1000):
        size = int(rng.integers(1, 51))
        epochs = np.cumsum(rng.uniform(0.25, 3.0, size=size)) + 1.0
        offset = 4.0e6 if case % 2 else 0.0
        values = offset + rng.uniform(-100.0, 100.0, size=size)
        target = float(epochs[-1] + rng.uniform(0.5, 3.0))
        max_distance = target - float(epochs[0])
        h = float(rng.uniform(max_distance / 35.0, max_distance * 10.0))
        # one target after the window, through the arithmetic the walks run
        ((rows, weights, _),) = _weight_blocks(np.append(epochs, target), np.array([size]),
                                               size, h)
        assert rows.tolist() == [0]
        yhat = _convex_combinations(weights, values[None, :])[0]
        weights = weights[0]
        assert abs(float(weights.sum()) - 1.0) < 1e-12
        assert np.all(weights >= 0.0)
        tol = 32 * np.finfo(float).eps * max(1.0, float(np.abs(values).max()))
        assert values.min() - tol <= yhat <= values.max() + tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(f"P1 PASS - 1000 randomized cases normalized and convex in {elapsed:.2f}s")


def test_p2_oracle_equivalence():
    """P2: both predictors match independent brute-force references."""
    t0 = time.perf_counter()
    spacing_patterns = {
        1: [()],
        2: [(1.0,), (2.5,)],
    }
    for size in range(3, 7):
        spacing_patterns[size] = [
            (1.0,) * (size - 1),
            (1.0, 2.0, 1.0, 3.0, 2.0)[: size - 1],
            (0.5, 1.5, 0.75, 2.5, 1.25)[: size - 1],
            (3.0,) * (size - 1),
        ]
    value_patterns = {
        "constant": lambda n: np.full(n, 4.2),
        "ramp": lambda n: np.arange(1.0, n + 1.0),
        "alternating": lambda n: np.array([1.5 * (-1) ** i for i in range(n)]),
        "mixed": lambda n: np.array([0.3, -1.7, 2.9, -0.4, 1.1, -2.2][:n]),
    }
    cases = 0
    for size, patterns in spacing_patterns.items():
        for spacing in patterns:
            epochs = np.concatenate([[1.0], 1.0 + np.cumsum(spacing)])
            for maker in value_patterns.values():
                values = maker(size)
                for h in (0.7, 1.0, 5.0, 200.0):
                    for ahead in (0.8, 1.0, 2.5):
                        target = float(epochs[-1] + ahead)
                        # a one-target walk: the window, then the target
                        s = ComponentSeries(Component.X, np.append(epochs, target),
                                            np.append(values, 0.0))
                        walk = forecast_series(s, GrnnConfig(training_size=size, bandwidth=h))
                        yhat = walk.predicted_m[0]
                        ref = nw_predict_mp(epochs, values, target, h)
                        assert yhat == pytest.approx(ref, rel=1e-10, abs=1e-12)
                        cases += 1
    rng = np.random.default_rng(31)
    theta_cases = 0
    for _ in range(40):
        p = int(rng.integers(3, 9))
        values = rng.integers(-8, 9, size=p).astype(float) / 4.0
        model = fit_theta_model(values)
        exact_theta = theta_slope_fraction(values)
        assert model.theta == pytest.approx(float(exact_theta), rel=1e-12, abs=1e-13)
        for k in range(3, p + 2):
            ref = float(theta_forecast_fraction(values, k, exact_theta))
            assert theta_forecast(model, k) == pytest.approx(ref, rel=1e-12, abs=1e-12)
            theta_cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(f"P2 PASS - {cases} kernel and {theta_cases} theta oracle cases in {elapsed:.2f}s")


def test_p3_theta_linear_exactness():
    """P3: theta recovers lines: slopes exactly, forecasts exactly."""
    slopes = np.linspace(-0.95, 0.95, 20)
    intercepts = [-750.0, -2.5, 0.0, 1.0, 980.0]
    t_axis = np.arange(1.0, 61.0)
    for b in slopes:
        for a in intercepts:
            y = a + b * t_axis
            theta = estimate_theta(y[:20])
            assert theta == pytest.approx(b, rel=1e-10, abs=1e-12)
            series = ComponentSeries(Component.X, 55000.0 + t_axis, y)
            res = theta_backtest(series, 20)
            scale = np.maximum(1.0, np.abs(res.observed_m))
            assert np.all(np.abs(res.errors_m()) <= 1e-9 * scale)
    _ok("P3 PASS - 20 slopes x 5 intercepts recovered and backtested exactly")


def test_p4_training_size_sweep_direction():
    """P4: on the pinned synthetic, v=100 beats v=1 on all three criteria."""
    t0 = time.perf_counter()
    params = SyntheticParams(slope_m_per_day=5e-5, annual_amplitude_m=0.005,
                             noise_std_m=0.001)
    series = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 2000, 42, params)
    result = run_sweep(
        series, [1, 100],
        GrnnConfig(training_size=1, bandwidth=BandwidthRule.MEAN_SPACING),
        modes=[Mode.TEACHER_FORCED],
    )
    by_key = {(r.training_size, r.component): r for r in result.rows}
    for comp in ("X", "Y", "Z"):
        small, large = by_key[(1, comp)], by_key[(100, comp)]
        assert large.metrics.smape_percent < small.metrics.smape_percent
        assert large.metrics.std_m < small.metrics.std_m
        assert large.metrics.mabs_m < small.metrics.mabs_m
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(f"P4 PASS - all three criteria shrink from v=1 to v=100 in {elapsed:.2f}s")


def test_p5_gap_penalty_direction():
    """P5: a gapped series never backtests better than its ungapped twin."""
    base = dict(slope_m_per_day=1e-3, annual_amplitude_m=0.005, noise_std_m=0.001)
    ungapped = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 2000, 7,
                                  SyntheticParams(**base))
    gapped = generate_synthetic(
        SyntheticKind.GAPPED_TREND, 2000, 7,
        SyntheticParams(**base, gap_spans=((600, 30), (1100, 30), (1500, 30))),
    )
    cfg = GrnnConfig(training_size=100, mode=Mode.TEACHER_FORCED)
    a = evaluate_station(ungapped, cfg)
    b = evaluate_station(gapped, cfg)
    ratios = []
    for comp in ("X", "Y", "Z"):
        s_ungapped = a.grnn_metrics[comp].smape_percent
        s_gapped = b.grnn_metrics[comp].smape_percent
        assert s_gapped >= s_ungapped
        ratios.append(s_gapped / s_ungapped)
    _ok(f"P5 PASS - gapped/ungapped sMAPE ratios {[f'{r:.2f}' for r in ratios]} all >= 1")


def test_p6_timing_direction():
    """P6: the kernel walk is faster than the theta walk on equal workload."""
    series = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 2100, 3,
                                SyntheticParams(noise_std_m=0.001))
    cfg = GrnnConfig(training_size=100)
    timing = time_methods([series], cfg, theta_window=100, repetitions=3)
    assert timing.workload_predictions == 3 * 2000
    assert timing.workload_predictions >= 2000
    assert timing.grnn_median < timing.theta_median
    _ok(f"P6 PASS - kernel/theta wall-time ratio "
        f"{timing.time_ratio:.3f} over {timing.workload_predictions} predictions")


def test_p7_metric_hand_arithmetic():
    """P7: the worked metric examples hold to hand arithmetic."""
    assert smape(PredictionPairs(np.array([3.0]), np.array([1.0]))) == 50.0
    two = smape(PredictionPairs(np.array([1.0, 0.5]), np.array([1.0, 1.0])))
    assert two == pytest.approx(100.0 / 6.0, rel=1e-12)
    assert std_of_errors(
        PredictionPairs(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
    ) == math.sqrt(2.0)
    assert std_of_errors(
        PredictionPairs(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 3.0]))
    ) == math.sqrt(3.0)
    assert mean_abs_error(
        PredictionPairs(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
    ) == 1.0
    assert mean_abs_error(PredictionPairs(np.array([0.0]), np.array([0.03]))) == 0.03
    _ok("P7 PASS - hand-arithmetic metric examples exact")


def test_p8_end_to_end_determinism(tmp_path):
    """P8: identical flags and seed give byte-identical compare output."""
    paths = []
    for i in range(2):
        series = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 300, 50 + i,
                                    SyntheticParams(noise_std_m=1e-3))
        path = tmp_path / f"p8-{i}.csv"
        write_series_csv(series, path)
        paths.append(str(path))
    outs = []
    for run in range(2):
        out_dir = tmp_path / f"run{run}"
        code = cli_main(["compare", *paths, "-v", "30", "--seed", "11",
                         "--output-dir", str(out_dir)])
        assert code == 0
        outs.append((out_dir / "report.json").read_bytes())
    assert outs[0] == outs[1]
    _ok(f"P8 PASS - two runs, {len(outs[0])} identical bytes of JSON")


def test_p9_station_report_shape_on_igs_like_series(tmp_path):
    """P9: a realistic daily multi-year series yields a full station table."""
    # eight years of daily solutions with two outages, coordinate-scale values
    params = SyntheticParams(
        start_mjd=54466.0, slope_m_per_day=3e-5, annual_amplitude_m=0.004,
        noise_std_m=0.002, gap_spans=((700, 45), (1900, 120)),
    )
    series = generate_synthetic(SyntheticKind.GAPPED_TREND, 2922, 99, params)
    report = evaluate_station(series, GrnnConfig(training_size=100))
    assert report.state.value == "discontinuous"
    assert report.n_predictions > 2000
    csv_path = tmp_path / "stations.csv"
    write_reports_csv([report], csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "station,span,state,component,method,smape_percent,std_m,mabs_m"
    assert len(lines) == 1 + 6
    for line in lines[1:]:
        station, span, state, component, method, s, sd, mb = line.split(",")
        assert station == series.station_id
        assert "-" in span
        assert state == "discontinuous"
        assert component in ("X", "Y", "Z") and method in ("grnn", "theta")
        assert float(s) >= 0.0 and float(sd) >= 0.0 and float(mb) >= 0.0
    _ok("P9 PASS - station report completes in the published table shape")
