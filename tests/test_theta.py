"""Trend-plus-curvature (Theta) forecaster."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnss_grnn import (
    DataError,
    Mode,
    NumericError,
    StationSeries,
    SyntheticKind,
    SyntheticParams,
    ThetaFit,
    generate_synthetic,
    theta_backtest,
)

from oracles import ols_slope, theta_forecast_fraction, theta_slope_fraction
from scalar_reference import (
    ThetaModel,
    component_theta_walk,
    estimate_theta,
    fit_theta_model,
    station_theta_walk,
    theta_forecast,
    theta_walk,
)


def station_of(x, y=None, z=None, epochs=None):
    """A station whose X values are ``x``; Y and Z default to X's."""
    x = np.asarray(x, dtype=float)
    if epochs is None:
        epochs = np.arange(1.0, x.size + 1.0)
    columns = (x, x if y is None else y, x if z is None else z)
    return StationSeries("T", epochs, np.array([np.asarray(v, dtype=float) for v in columns]))


def walks(station, window, fit=ThetaFit.ROLLING):
    """The ``(3, m)`` forecasts of one station walk, rows X, Y and Z."""
    return theta_backtest(station, window, fit=fit).predicted_m[Mode.TEACHER_FORCED]


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


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
        station = station_of(y, -y, 2.0 * y - 7.0)
        for comp, res in zip(station.components, walks(station, 12)):
            np.testing.assert_allclose(res, comp.values_m[12:], rtol=1e-9)

    def test_constant_zero_metrics(self):
        for res in walks(station_of(np.full(50, 1.25)), 5):
            np.testing.assert_allclose(res, 1.25, rtol=1e-12)

    def test_quadratic_matches_reference(self):
        t = np.arange(20.0)
        y = 0.5 + 0.2 * t + 0.05 * t * t
        # rolling: the oracle fits each window itself; global: the first window's slope
        first_slope = theta_slope_fraction(y[:5])
        for fit, theta in ((ThetaFit.ROLLING, None), (ThetaFit.GLOBAL, first_slope)):
            for res in walks(station_of(y), 5, fit):
                for i in range(len(res)):
                    window = y[i:i + 5]
                    expected = float(theta_forecast_fraction(window, 6, theta))
                    assert res[i] == pytest.approx(expected, rel=1e-10)

    def test_window_bounds(self):
        station = station_of(np.arange(10.0))
        with pytest.raises(DataError, match="theta window must be >= 3"):
            theta_backtest(station, 2)
        with pytest.raises(DataError, match="nothing to predict"):
            theta_backtest(station, 10)

    @pytest.mark.parametrize("window", [3.5, 100.0, True, "7", None])
    def test_window_must_be_an_integer(self, window):
        with pytest.raises(DataError, match=re.escape(
                f"theta window must be an integer; got {window!r}")):
            theta_backtest(station_of(np.arange(200.0)), window)

    def test_numpy_integer_window(self):
        station = station_of(np.sin(np.arange(60.0) / 5.0))
        assert same_bits(walks(station, np.int64(8)), walks(station, 8))

    def test_keyed_teacher_forced_and_counted_together(self):
        res = theta_backtest(station_of(np.arange(30.0)), 5)
        assert res.start == 5
        assert list(res.predicted_m) == [Mode.TEACHER_FORCED]
        assert res.predicted_m[Mode.TEACHER_FORCED].shape == (3, 25)
        assert res.training_size_used is None and res.threshold_met is None
        assert len(res) == 3 * 25

    def test_global_fit_matches_rolling_on_linear(self):
        y = 3.0 + 0.125 * np.arange(60.0)
        station = station_of(y, -y, 0.5 * y)
        rolling = walks(station, 8, ThetaFit.ROLLING)
        fixed = walks(station, 8, ThetaFit.GLOBAL)
        np.testing.assert_allclose(rolling, fixed, rtol=1e-9)

    def test_global_fit_differs_on_curved(self):
        t = np.arange(60.0)
        station = station_of(np.sin(t / 5.0), np.cos(t / 5.0), np.sin(t / 3.0))
        rolling = walks(station, 8, ThetaFit.ROLLING)
        fixed = walks(station, 8, ThetaFit.GLOBAL)
        for a, b in zip(rolling, fixed):
            assert not np.allclose(a, b)

    def test_gaps_do_not_fabricate_targets(self):
        epochs = np.concatenate([np.arange(1.0, 21.0), np.arange(51.0, 71.0)])
        y = 0.1 * epochs
        station = station_of(y, epochs=epochs)
        res = theta_backtest(station, 5)
        # a column per epoch after the window, none for the gap's days
        assert res.start == 5
        assert res.predicted_m[Mode.TEACHER_FORCED].shape == (3, 35)
        assert len(res) == 3 * 35

    @pytest.mark.parametrize("fit", list(ThetaFit))
    @pytest.mark.parametrize("rows", [(0,), (1,), (2,), (1, 2)])
    def test_non_finite_forecast_is_refused(self, rows, fit):
        # components alternating between +1e308 and -1e308 overflow the second
        # differences; the walk refuses its first forecast that is not finite,
        # taking the components in X, Y, Z order, and stays silent before it
        y = 1.0 + 1e-3 * np.arange(40.0)
        columns = [y, y, y]
        for r in rows:
            columns[r] = np.tile([1e308, -1e308], 20)
        station = station_of(*columns, epochs=55000.0 + np.arange(40.0))
        comp = station.components[rows[0]]
        with np.errstate(over="ignore", invalid="ignore"):
            predicted = component_theta_walk(comp, 5, fit)
        j = int(np.flatnonzero(~np.isfinite(predicted))[0])
        with pytest.raises(NumericError) as exc:
            theta_backtest(station, 5, fit=fit)
        assert str(exc.value) == (
            f"Theta forecast is not finite ({float(predicted[j])!r}) predicting component "
            f"{comp.component.value} at MJD {55005.0 + j!r}")

    @given(
        c=st.floats(min_value=-1e3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_equivariance(self, c, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(3, 30))
        base = walks(station_of(*y), 6)
        shifted = walks(station_of(*(y + c)), 6)
        np.testing.assert_allclose(shifted, base + c, rtol=0, atol=1e-9 * max(1.0, abs(c)))


# earth-centered magnitudes, a 30-day hole and millimetre noise
_GAPPED = generate_synthetic(SyntheticKind.GAPPED_TREND, 700, 11,
                             SyntheticParams(noise_std_m=0.002))
# the same components less their means: millimetre values, where a
# reordered sum shows in the last bits
_CENTERED = station_of(*(c.values_m - c.values_m.mean() for c in _GAPPED.components),
                       epochs=_GAPPED.epochs_mjd)
# components six orders of magnitude apart: earth-centered X, then Y and Z
# scaled down by 1e6 and 1e12
_SPREAD = station_of(*(c.values_m * scale for c, scale in zip(_GAPPED.components,
                                                              (1.0, 1e-6, 1e-12))),
                     epochs=_GAPPED.epochs_mjd)


class TestBacktestMatchesReference:
    """The fused loop reproduces the per-origin model-and-forecast walk."""

    @pytest.mark.parametrize("fit", list(ThetaFit))
    @pytest.mark.parametrize("p", [3, 4, 7, 100, 300])
    @pytest.mark.parametrize("station", [_GAPPED, _CENTERED], ids=["raw", "centered"])
    def test_bit_identical(self, station, p, fit):
        for comp, res in zip(station.components, walks(station, p, fit)):
            assert np.array_equal(res, theta_walk(comp, p, fit))


class TestBacktestMatchesReferenceDrawn:
    """Drawn windows and lengths at earth-centered magnitudes, down to one
    origin (``n = p + 1``: exactly ``p - 1`` second differences) and one
    curvature term (``p = 3``)."""

    @given(
        p=st.integers(min_value=3, max_value=64),
        extra=st.integers(min_value=1, max_value=80),
        fit=st.sampled_from(list(ThetaFit)),
        offset=st.floats(min_value=3.8e6, max_value=4.2e6),
        sign=st.sampled_from([1.0, -1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(p=3, extra=1, fit=ThetaFit.ROLLING, offset=4e6, sign=1.0, seed=0)
    @example(p=3, extra=1, fit=ThetaFit.GLOBAL, offset=4e6, sign=-1.0, seed=1)
    @example(p=3, extra=80, fit=ThetaFit.ROLLING, offset=4e6, sign=1.0, seed=2)
    @example(p=3, extra=80, fit=ThetaFit.GLOBAL, offset=4e6, sign=1.0, seed=3)
    @example(p=64, extra=1, fit=ThetaFit.ROLLING, offset=4e6, sign=-1.0, seed=4)
    @example(p=64, extra=1, fit=ThetaFit.GLOBAL, offset=4e6, sign=1.0, seed=5)
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, p, extra, fit, offset, sign, seed):
        rng = np.random.default_rng(seed)
        station = station_of(*(sign * offset + rng.normal(scale=0.001, size=(3, p + extra))))
        for comp, res in zip(station.components, walks(station, p, fit)):
            assert np.array_equal(res, theta_walk(comp, p, fit))


class TestStationWalkMatchesComponentLoops:
    """One walk over X, Y and Z has the bits of the per-component loop it
    replaced, compared as int64 views (so a -0.0 or a NaN payload counts)."""

    @staticmethod
    def assert_matches(station, p, fit):
        res = theta_backtest(station, p, fit=fit)
        assert res.start == p
        predicted = res.predicted_m[Mode.TEACHER_FORCED]
        assert predicted.shape == (3, station.count - p)
        for comp, row in zip(station.components, predicted):
            assert same_bits(row, component_theta_walk(comp, p, fit))

    @pytest.mark.parametrize("fit", list(ThetaFit))
    @pytest.mark.parametrize("p", [3, 4, 7, 100, 300])
    @pytest.mark.parametrize("kind", list(SyntheticKind))
    def test_every_kind_and_window(self, kind, p, fit):
        for seed in range(3):
            station = generate_synthetic(kind, 700, seed, SyntheticParams(noise_std_m=0.002))
            self.assert_matches(station, p, fit)

    @pytest.mark.parametrize("fit", list(ThetaFit))
    @pytest.mark.parametrize("p", [3, 4, 7, 100, 300])
    @pytest.mark.parametrize("station", [_GAPPED, _CENTERED, _SPREAD],
                             ids=["gapped", "centered", "six-orders-apart"])
    def test_gapped_and_spread_stations(self, station, p, fit):
        self.assert_matches(station, p, fit)


class TestViewWalkMatchesStationLoop:
    """Reading window views built once per walk into buffers it owns, the
    walk keeps the bits of the stacked loop that sliced every origin,
    compared as int64 views."""

    @staticmethod
    def assert_matches(station, p, fit):
        assert same_bits(walks(station, p, fit), station_theta_walk(station, p, fit))

    @pytest.mark.parametrize("fit", list(ThetaFit))
    @pytest.mark.parametrize("p", [3, 4, 7, 100, 300])
    @pytest.mark.parametrize("kind", list(SyntheticKind))
    def test_every_kind_and_window(self, kind, p, fit):
        for seed in range(3):
            station = generate_synthetic(kind, 700, seed, SyntheticParams(noise_std_m=0.002))
            self.assert_matches(station, p, fit)

    @pytest.mark.parametrize("fit", list(ThetaFit))
    @pytest.mark.parametrize("p", [3, 4, 7, 100, 300])
    @pytest.mark.parametrize("station", [_GAPPED, _CENTERED, _SPREAD],
                             ids=["gapped", "centered", "six-orders-apart"])
    def test_gapped_and_spread_stations(self, station, p, fit):
        self.assert_matches(station, p, fit)

    @given(
        p=st.integers(min_value=3, max_value=64),
        extra=st.integers(min_value=1, max_value=80),
        fit=st.sampled_from(list(ThetaFit)),
        offset=st.floats(min_value=3.8e6, max_value=4.2e6),
        sign=st.sampled_from([1.0, -1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(p=3, extra=1, fit=ThetaFit.ROLLING, offset=4e6, sign=1.0, seed=0)
    @example(p=3, extra=1, fit=ThetaFit.GLOBAL, offset=4e6, sign=-1.0, seed=1)
    @example(p=3, extra=80, fit=ThetaFit.ROLLING, offset=4e6, sign=1.0, seed=2)
    @example(p=3, extra=80, fit=ThetaFit.GLOBAL, offset=4e6, sign=1.0, seed=3)
    @example(p=64, extra=1, fit=ThetaFit.ROLLING, offset=4e6, sign=-1.0, seed=4)
    @example(p=64, extra=1, fit=ThetaFit.GLOBAL, offset=4e6, sign=1.0, seed=5)
    @settings(max_examples=200, deadline=None)
    def test_drawn(self, p, extra, fit, offset, sign, seed):
        """Down to one origin (``n = p + 1``) and ``d2`` windows of length
        one (``p = 3``)."""
        rng = np.random.default_rng(seed)
        station = station_of(*(sign * offset + rng.normal(scale=0.001, size=(3, p + extra))))
        self.assert_matches(station, p, fit)


class TestWindowMeanOrder:
    """The window mean sums each window forward, as ``y.mean()`` does. On
    coordinate-scale inputs the theta term sits far below one ulp of the
    forecast, so no order shows there. Here the amplitude dwarfs the offset,
    and summing each window reversed changes forecasts' bits."""

    @pytest.mark.parametrize("fit", list(ThetaFit))
    @pytest.mark.parametrize("p, offset, scale, seed", [
        (9, 0.0, 1e3, 0), (9, 1.0, 1e2, 1), (9, 100.0, 1e3, 1),
        (100, 0.0, 1e3, 0), (100, 1.0, 1e2, 0), (100, 100.0, 1e3, 1),
    ])
    def test_bit_identical(self, p, offset, scale, seed, fit):
        values = offset + scale * np.random.default_rng(seed).standard_normal((3, p + 20))
        first = values[:, :p]
        # the first windows' sums depend on the order, so GLOBAL's slopes can too
        assert not same_bits(np.add.reduce(first, axis=-1), np.add.reduce(first[:, ::-1], axis=-1))
        station = station_of(*values)
        assert same_bits(walks(station, p, fit), station_theta_walk(station, p, fit))
