"""The package's public names."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

import gnss_grnn
import gnss_grnn.cli


def test_every_export_resolves_once():
    names = gnss_grnn.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gnss_grnn, name)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gnss_grnn import *", namespace)
    assert set(gnss_grnn.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", ["ThetaModel", "estimate_theta", "fit_theta_model",
                                  "theta_forecast"])
def test_theta_backtest_is_the_only_theta_path(name):
    assert not hasattr(gnss_grnn, name)
    assert not hasattr(gnss_grnn.theta, name)


def test_sweep_rows_have_no_wrapper():
    assert "SweepResult" not in gnss_grnn.__all__
    assert not hasattr(gnss_grnn, "SweepResult")
    assert not hasattr(gnss_grnn.harness, "SweepResult")


def test_forecast_results_hold_only_what_outputs_read():
    # a walk gives arrays in the station's shape; epochs and truths stay the station's
    assert [f.name for f in fields(gnss_grnn.StationForecast)] == [
        "start", "predicted_m", "training_size_used", "threshold_met"]
    assert not hasattr(gnss_grnn.StationForecast, "__getitem__")
    for name in ("ForecastResult", "AdaptiveForecastResult"):
        assert name not in gnss_grnn.__all__
        assert not hasattr(gnss_grnn, name)
        assert not hasattr(gnss_grnn.grnn, name)


def parameters(function):
    return list(inspect.signature(function).parameters)


def test_every_setting_has_a_caller():
    assert [f.name for f in fields(gnss_grnn.StationSeries)] == [
        "station_id", "epochs_mjd", "values_m"]
    assert parameters(gnss_grnn.parse_series) == ["source", "station_id"]
    assert "interval_days" not in {f.name for f in fields(gnss_grnn.SyntheticParams)}
    assert parameters(gnss_grnn.run_sweep) == ["series", "v_values", "bandwidth"]
    assert not hasattr(gnss_grnn.StationSeries, "component")


def test_each_walk_takes_only_the_settings_it_reads():
    assert [f.name for f in fields(gnss_grnn.GrnnConfig)] == ["training_size", "bandwidth"]
    assert parameters(gnss_grnn.forecast_series) == ["station", "config", "modes"]
    assert parameters(gnss_grnn.adaptive_forecast_series) == [
        "station", "config", "threshold_m", "max_training_size"]
    assert parameters(gnss_grnn.run_sweep) == ["series", "v_values", "bandwidth"]
    assert parameters(gnss_grnn.theta_backtest) == ["station", "window", "fit"]
    for function in (gnss_grnn.evaluate_station, gnss_grnn.evaluate_stations,
                     gnss_grnn.time_methods):
        mode = inspect.signature(function).parameters["mode"]
        assert (mode.kind, mode.default) == (mode.KEYWORD_ONLY, gnss_grnn.Mode.RECURSIVE)


def test_each_fact_is_stored_once():
    assert "ComparisonReport" not in gnss_grnn.__all__
    for name in ("ComponentComparison", "ComparisonReport", "comparison_report_dict"):
        assert not hasattr(gnss_grnn.harness, name)
    assert [f.name for f in fields(gnss_grnn.GapReport)] == ["gaps"]


def test_a_station_result_has_one_form():
    for name in ("StationReport", "EvaluationSettings", "station_report_dict",
                 "_settings_dict"):
        assert name not in gnss_grnn.__all__
        assert not hasattr(gnss_grnn, name)
        assert not hasattr(gnss_grnn.harness, name)
    # the criteria table is plain rows of key, label, ratio key and format
    assert all(type(row) is tuple and len(row) == 4 for row in gnss_grnn.metrics.CRITERIA)


def test_every_result_is_the_block_its_writer_prints():
    for name in ("MetricsReport", "SweepRow", "MethodTiming"):
        assert name not in gnss_grnn.__all__
        for module in (gnss_grnn, gnss_grnn.harness, gnss_grnn.metrics):
            assert not hasattr(module, name)
    report = gnss_grnn.compute_report(np.array([1.0, 2.0]), np.array([1.5, 2.5]))
    assert list(report) == ["smape_percent", "std_m", "mabs_m", "n"]


def test_scoring_takes_two_arrays():
    for name in ("PredictionPairs", "Criteria"):
        assert name not in gnss_grnn.__all__
        for module in (gnss_grnn, gnss_grnn.metrics):
            assert not hasattr(module, name)
    assert parameters(gnss_grnn.compute_report) == ["predicted_m", "observed_m"]


def test_a_station_is_one_array():
    # a component is a labeled row of the station's values: the epochs and
    # the checks live on the station alone
    for name in ("epochs_mjd", "count", "__len__", "__post_init__"):
        assert not hasattr(gnss_grnn.ComponentSeries, name)
    assert isinstance(gnss_grnn.StationSeries.components, property)


def test_one_value_basis():
    assert [f.name for f in fields(gnss_grnn.ComponentSeries)] == ["component", "values_m"]
    assert "mean_center" not in gnss_grnn.__all__
    assert not hasattr(gnss_grnn, "mean_center")
    assert not hasattr(gnss_grnn.series, "mean_center")
    assert not hasattr(gnss_grnn.cli, "Basis")
