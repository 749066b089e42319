"""The package's public names."""

import inspect
from dataclasses import fields

import pytest

import gnss_grnn


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
    assert [f.name for f in fields(gnss_grnn.ForecastResult)] == [
        "epochs_mjd", "predicted_m", "observed_m"]
    assert [f.name for f in fields(gnss_grnn.AdaptiveForecastResult)] == [
        "epochs_mjd", "predicted_m", "observed_m", "training_size_used", "threshold_met"]
    assert [f.name for f in fields(gnss_grnn.StationForecast)] == ["results"]


def test_each_walk_takes_only_the_settings_it_reads():
    assert [f.name for f in fields(gnss_grnn.GrnnConfig)] == ["training_size", "bandwidth"]
    assert [f.name for f in fields(gnss_grnn.EvaluationSettings)] == [
        "grnn", "mode", "theta_window", "theta_fit", "gap_factor"]

    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(gnss_grnn.forecast_series) == ["station", "config", "modes"]
    assert parameters(gnss_grnn.adaptive_forecast_series) == [
        "station", "config", "threshold_m", "max_training_size"]
    assert parameters(gnss_grnn.run_sweep) == ["series", "v_values", "bandwidth", "modes"]
    for function in (gnss_grnn.evaluate_station, gnss_grnn.evaluate_stations,
                     gnss_grnn.time_methods):
        mode = inspect.signature(function).parameters["mode"]
        assert (mode.kind, mode.default) == (mode.KEYWORD_ONLY, gnss_grnn.Mode.RECURSIVE)


def test_each_fact_is_stored_once():
    assert "ComparisonReport" not in gnss_grnn.__all__
    for name in ("ComponentComparison", "ComparisonReport", "comparison_report_dict"):
        assert not hasattr(gnss_grnn.harness, name)
    assert [f.name for f in fields(gnss_grnn.GapReport)] == ["gaps"]
