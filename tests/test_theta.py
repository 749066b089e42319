"""Trend-plus-curvature (Theta) forecaster."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnss_grnn import (
    Component,
    ComponentSeries,
    DataError,
    SyntheticKind,
    SyntheticParams,
    ThetaFit,
    generate_synthetic,
    mean_center,
    theta_backtest,
)

from oracles import ols_slope, theta_forecast_fraction, theta_slope_fraction
from scalar_reference import (
    ThetaModel,
    estimate_theta,
    fit_theta_model,
    theta_forecast,
    theta_walk,
)


def comp_series(values, epochs=None):
    values = np.asarray(values, dtype=float)
    if epochs is None:
        epochs = np.arange(1.0, values.size + 1.0)
    return ComponentSeries(Component.X, epochs, values)


class TestEstimateTheta:
    def test_linear_recovers_slope(self):
        y = np.array([2.0 + 3.0 * t for t in range(1, 6)])
        assert estimate_theta(y) == pytest.approx(3.0, rel=1e-14)
        assert estimate_theta(y) == pytest.approx(ols_slope(y), rel=1e-12)

    def test_constant_is_zero(self):
        assert estimate_theta(np.full(7, 4.2)) == pytest.approx(0.0, abs=1e-15)

    def test_two_points(self):
        assert estimate_theta(np.array([1.0, 2.0])) == pytest.approx(1.0, rel=1e-15)

    def test_matches_literal_two_sum_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            y = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=rng.integers(2, 15))
            expected = float(theta_slope_fraction(y))
            got = estimate_theta(y)
            assert got == pytest.approx(expected, rel=1e-11, abs=1e-13)

    def test_insufficient_data(self):
        with pytest.raises(DataError, match="insufficient data"):
            estimate_theta(np.array([1.0]))

    @given(
        a=st.floats(min_value=-1e3, max_value=1e3),
        b=st.floats(min_value=-50.0, max_value=50.0),
        p=st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_slope_recovery_intercept_invariant(self, a, b, p):
        t = np.arange(1.0, p + 1.0)
        theta = estimate_theta(a + b * t)
        assert theta == pytest.approx(b, rel=1e-10, abs=1e-10)


class TestThetaForecast:
    def test_linear_is_exact_in_sample(self):
        y = 2.5 - 0.75 * np.arange(1.0, 11.0)
        model = fit_theta_model(y)
        for k in range(3, 11):
            assert theta_forecast(model, k) == pytest.approx(y[k - 1], rel=1e-12)

    def test_linear_one_step_ahead(self):
        y = 1.0 + 0.5 * np.arange(1.0, 9.0)
        model = fit_theta_model(y)
        assert theta_forecast(model, 9) == pytest.approx(1.0 + 0.5 * 9, rel=1e-12)

    def test_constant(self):
        model = fit_theta_model(np.full(6, 3.25))
        for k in (3, 5, 7):
            assert theta_forecast(model, k) == pytest.approx(3.25, rel=1e-15)

    def test_hand_value(self):
        model = fit_theta_model(np.array([0.0, 1.0, 3.0]))
        assert model.theta == pytest.approx(1.5, rel=1e-15)
        assert theta_forecast(model, 3) == pytest.approx(2.0 + model.theta, rel=1e-15)

    def test_k_out_of_range(self):
        model = fit_theta_model(np.array([0.0, 1.0, 3.0]))
        with pytest.raises(DataError, match="k out of range"):
            theta_forecast(model, 2)
        with pytest.raises(DataError, match="k out of range"):
            theta_forecast(model, 5)  # beyond p + 1

    def test_matches_exact_transcription_in_sample(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            p = int(rng.integers(3, 9))
            y = rng.integers(-8, 9, size=p).astype(float) / 4.0
            model = fit_theta_model(y)
            theta = theta_slope_fraction(y)
            for k in range(3, p + 2):
                expected = float(theta_forecast_fraction(y, k, theta))
                assert theta_forecast(model, k) == pytest.approx(expected, abs=1e-12)

    def test_model_needs_three_values(self):
        with pytest.raises(DataError):
            ThetaModel(theta=0.0, values_m=np.array([1.0, 2.0]))


class TestThetaBacktest:
    def test_linear_one_step_errors_vanish(self):
        y = 5.0 + 0.3 * np.arange(200.0)
        res = theta_backtest(comp_series(y), 12)
        np.testing.assert_allclose(res.predicted_m, res.observed_m, rtol=1e-9)

    def test_constant_zero_metrics(self):
        res = theta_backtest(comp_series(np.full(50, 1.25)), 5)
        np.testing.assert_allclose(res.predicted_m, 1.25, rtol=1e-12)

    def test_quadratic_matches_reference(self):
        t = np.arange(20.0)
        y = 0.5 + 0.2 * t + 0.05 * t * t
        res = theta_backtest(comp_series(y), 5)
        for i in range(len(res)):
            window = y[i:i + 5]
            expected = float(theta_forecast_fraction(window, 6))
            assert res.predicted_m[i] == pytest.approx(expected, rel=1e-10)

    def test_window_bounds(self):
        series = comp_series(np.arange(10.0))
        with pytest.raises(DataError, match="theta window must be >= 3"):
            theta_backtest(series, 2)
        with pytest.raises(DataError, match="nothing to predict"):
            theta_backtest(series, 10)

    def test_global_fit_matches_rolling_on_linear(self):
        y = 3.0 + 0.125 * np.arange(60.0)
        rolling = theta_backtest(comp_series(y), 8, fit=ThetaFit.ROLLING)
        fixed = theta_backtest(comp_series(y), 8, fit=ThetaFit.GLOBAL)
        np.testing.assert_allclose(rolling.predicted_m, fixed.predicted_m, rtol=1e-9)

    def test_global_fit_differs_on_curved(self):
        t = np.arange(60.0)
        y = np.sin(t / 5.0)
        rolling = theta_backtest(comp_series(y), 8, fit=ThetaFit.ROLLING)
        fixed = theta_backtest(comp_series(y), 8, fit=ThetaFit.GLOBAL)
        assert not np.allclose(rolling.predicted_m, fixed.predicted_m)

    def test_gaps_do_not_fabricate_targets(self):
        epochs = np.concatenate([np.arange(1.0, 21.0), np.arange(51.0, 71.0)])
        y = 0.1 * epochs
        res = theta_backtest(comp_series(y, epochs), 5)
        assert len(res) == 35
        np.testing.assert_array_equal(res.epochs_mjd, epochs[5:])

    @given(
        c=st.floats(min_value=-1e3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_equivariance(self, c, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=30)
        base = theta_backtest(comp_series(y), 6).predicted_m
        shifted = theta_backtest(comp_series(y + c), 6).predicted_m
        np.testing.assert_allclose(shifted, base + c, rtol=0, atol=1e-9 * max(1.0, abs(c)))


# earth-centered magnitudes, a 30-day hole and millimetre noise
_GAPPED = generate_synthetic(SyntheticKind.GAPPED_TREND, 700, 11,
                             SyntheticParams(noise_std_m=0.002))


class TestBacktestMatchesReference:
    """The fused loop reproduces the per-origin model-and-forecast walk."""

    @pytest.mark.parametrize("fit", list(ThetaFit))
    @pytest.mark.parametrize("p", [3, 4, 7, 100, 300])
    @pytest.mark.parametrize("station", [_GAPPED, mean_center(_GAPPED)],
                             ids=["raw", "centered"])
    def test_bit_identical(self, station, p, fit):
        for comp in station.components:
            res = theta_backtest(comp, p, fit=fit)
            assert np.array_equal(res.predicted_m, theta_walk(comp, p, fit))
