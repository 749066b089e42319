"""Kernel forecaster: weights, bandwidths, one-target forecasts, walks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnss_grnn import (
    BandwidthRule,
    BandwidthTooSmallError,
    Component,
    ComponentSeries,
    DataError,
    GrnnConfig,
    Mode,
    adaptive_forecast_series,
    decimal_year_to_mjd,
    forecast_series,
    gaussian_kernel,
    mjd_to_decimal_year,
)
from gnss_grnn.grnn import _BLOCK_ELEMENTS, _row_bandwidths, _weight_blocks

from oracles import nw_predict_mp, nw_weights_mp, window_std_mp
from scalar_reference import adaptive_predict, predict, stepping_walk


def comp_series(epochs, values, component=Component.X):
    return ComponentSeries(component, np.asarray(epochs, float), np.asarray(values, float))


def one_target_blocks(epochs, target, bandwidth):
    """The single ``(rows, weights, underflows)`` block of one target after
    the window ``epochs``."""
    axis = np.append(np.asarray(epochs, float), target)
    v = axis.size - 1
    (block,) = _weight_blocks(axis, np.array([v]), v, bandwidth)
    return block


def weights_at(epochs, target, bandwidth):
    rows, weights, underflows = one_target_blocks(epochs, target, bandwidth)
    assert rows.tolist() == [0] and not underflows
    return weights[0]


def predict_at(epochs, values, target, bandwidth):
    """The one-target ``forecast_series`` from the window ``epochs``/``values``."""
    s = comp_series(np.append(epochs, target), np.append(values, 0.0))
    cfg = GrnnConfig(training_size=len(values), bandwidth=bandwidth)
    return float(forecast_series(s, cfg).predicted_m[0])


def row_bandwidth(epochs, target, bandwidth):
    return float(_row_bandwidths((target - np.asarray(epochs, float))[None, :], bandwidth)[0])


class TestGaussianKernel:
    def test_at_zero(self):
        assert gaussian_kernel(0.0) == pytest.approx(0.3989422804014327, rel=1e-15)

    def test_at_one(self):
        assert gaussian_kernel(1.0) == pytest.approx(0.24197072451914337, rel=1e-15)

    def test_even(self):
        assert gaussian_kernel(-1.0) == gaussian_kernel(1.0)
        a = np.linspace(0.0, 30.0, 301)
        np.testing.assert_array_equal(gaussian_kernel(a), gaussian_kernel(-a))

    @given(st.floats(min_value=-37.0, max_value=37.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_positive_below_underflow(self, a):
        assert gaussian_kernel(a) > 0.0


class TestWeightBlocks:
    def test_two_entry_hand_value(self):
        w = weights_at([1.0, 2.0], 3.0, 1.0)
        np.testing.assert_allclose(w, [0.18242552380635634, 0.81757447619364366], rtol=1e-14)

    def test_huge_bandwidth_is_uniform(self):
        w = weights_at([1.0, 2.0], 3.0, 1e9)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-6)

    def test_single_entry(self):
        np.testing.assert_array_equal(weights_at([1.0], 5.0, 2.0), [1.0])

    def test_underflow_is_reported_not_weighted(self):
        rows, weights, underflows = one_target_blocks([0.0], 100.0, 0.5)
        assert rows.size == 0 and weights.shape == (0, 1)
        assert underflows == [(0, 0.5, 100.0)]

    def test_decay_with_distance(self):
        w = weights_at(np.arange(0.0, 10.0), 10.0, 3.0)
        assert np.all(np.diff(w) > 0)  # older entries are farther, weigh less
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_high_precision_reference(self):
        epochs = [0.0, 1.0, 3.5, 4.0, 7.25]
        w = weights_at(epochs, 9.0, 2.2)
        ref = [float(x) for x in nw_weights_mp(epochs, 9.0, 2.2)]
        np.testing.assert_allclose(w, ref, rtol=1e-13)


class TestRowBandwidths:
    def test_fixed(self):
        assert row_bandwidth(np.array([1.0, 2.0]), 10.0, 2.5) == 2.5

    def test_window_std_matches_epoch_std(self):
        epochs = np.array([55000.0, 55001.0, 55003.0, 55004.5])
        h = row_bandwidth(epochs, 55010.0, BandwidthRule.WINDOW_STD)
        assert h == pytest.approx(window_std_mp(epochs), rel=1e-12)

    def test_mean_spacing(self):
        epochs = np.array([55000.0, 55001.0, 55005.0])
        h = row_bandwidth(epochs, 55010.0, BandwidthRule.MEAN_SPACING)
        assert h == pytest.approx(2.5, rel=1e-15)

    def test_singleton_fallback(self):
        assert row_bandwidth(np.array([1.0]), 5.0, BandwidthRule.WINDOW_STD) == 1.0
        assert row_bandwidth(np.array([1.0]), 5.0, BandwidthRule.MEAN_SPACING) == 1.0


class TestOneTargetForecast:
    def test_constant_window_any_bandwidth(self):
        for h in (0.5, 1.0, 100.0):
            yhat = predict_at([1.0, 2.0, 3.0], [4.2, 4.2, 4.2], 4.0, h)
            assert yhat == pytest.approx(4.2, rel=1e-15)

    def test_two_point_hand_value(self):
        yhat = predict_at([1.0, 2.0], [10.0, 20.0], 3.0, 1.0)
        assert yhat == pytest.approx(18.175744761936437, rel=1e-12)
        assert weights_at([1.0, 2.0], 3.0, 1.0).sum() == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_window(self):
        for h in (0.3, 1.0, 42.0, 1e6):
            yhat = predict_at([1.0, 2.0], [0.0, 100.0], 3.0, h)
            assert 0.0 <= yhat <= 100.0

    def test_huge_bandwidth_tends_to_mean(self):
        values = [3.0, -1.0, 7.0, 2.5]
        yhat = predict_at([1.0, 2.0, 3.0, 4.0], values, 5.0, 1e9)
        assert yhat == pytest.approx(np.mean(values), rel=1e-6)

    @given(
        spacings=st.lists(st.floats(min_value=0.25, max_value=4.0), min_size=1, max_size=8),
        values=st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=9, max_size=9),
        shift=st.floats(min_value=-1e4, max_value=1e4),
        scale=st.floats(min_value=-32.0, max_value=32.0),
        h=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_shift_and_scale_behavior(self, spacings, values, shift, scale, h):
        # series epochs must be positive MJDs; kernel distances are shift-free
        epochs = np.concatenate([[1.0], 1.0 + np.cumsum(spacings)])
        values = np.asarray(values[: len(epochs)])
        target = float(epochs[-1]) + 1.0
        base = predict_at(epochs, values, target, h)
        w = weights_at(epochs, target, h)
        assert np.min(values) - 1e-9 <= base <= np.max(values) + 1e-9
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        shifted = predict_at(epochs, values + shift, target, h)
        assert shifted == pytest.approx(base + shift, rel=1e-9, abs=1e-9)
        scaled = predict_at(epochs, values * scale, target, h)
        assert scaled == pytest.approx(base * scale, rel=1e-9, abs=1e-9)


class TestWindowUpdate:
    """How one step of :func:`forecast_series` feeds the next window."""

    EPOCHS = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    VALUES = np.array([10.0, 11.0, 12.0, 12.5, 13.0])

    def walk(self, mode, v=3):
        cfg = GrnnConfig(training_size=v, bandwidth=1.0, mode=mode)
        return forecast_series(comp_series(self.EPOCHS, self.VALUES), cfg)

    def test_recursive_appends_prediction(self):
        res = self.walk(Mode.RECURSIVE)
        # epoch 5 is predicted from {11, 12, forecast at epoch 4}
        window = np.array([11.0, 12.0, res.predicted_m[0]])
        assert res.predicted_m[1] == predict(5.0 - self.EPOCHS[1:4], window, 1.0)[0]
        assert res.predicted_m[1] != predict(5.0 - self.EPOCHS[1:4], self.VALUES[1:4], 1.0)[0]
        np.testing.assert_array_equal(res.n_window_predicted, [0, 1])

    def test_teacher_forced_appends_observation(self):
        res = self.walk(Mode.TEACHER_FORCED)
        # epoch 5 is predicted from {11, 12, 12.5}: the truth, not the forecast
        assert res.predicted_m[1] == predict(5.0 - self.EPOCHS[1:4], self.VALUES[1:4], 1.0)[0]
        np.testing.assert_array_equal(res.observed_m, [12.5, 13.0])
        np.testing.assert_array_equal(res.n_window_predicted, [0, 0])

    @pytest.mark.parametrize("mode", list(Mode))
    def test_gap_epochs_are_never_forecast(self, mode):
        epochs = np.array([1.0, 2.0, 3.0, 7.0, 8.0, 9.0])
        cfg = GrnnConfig(training_size=2, bandwidth=2.0, mode=mode)
        res = forecast_series(comp_series(epochs, 0.5 * epochs), cfg)
        np.testing.assert_array_equal(res.epochs_mjd, [3.0, 7.0, 8.0, 9.0])

    def test_length_one_window_recursive(self):
        res = self.walk(Mode.RECURSIVE, v=1)
        # a single weight of 1 repeats the seed value along the whole walk
        np.testing.assert_array_equal(res.predicted_m, np.full(4, 10.0))
        np.testing.assert_array_equal(res.n_window_predicted, [0, 1, 1, 1])

    def test_length_one_window_teacher_forced(self):
        res = self.walk(Mode.TEACHER_FORCED, v=1)
        np.testing.assert_array_equal(res.predicted_m, self.VALUES[:-1])

    def test_window_seeded_with_first_observations(self):
        for mode in Mode:
            res = self.walk(mode)
            assert res.predicted_m[0] == predict(4.0 - self.EPOCHS[:3], self.VALUES[:3], 1.0)[0]


@pytest.mark.parametrize("kwargs, message", [
    ({"training_size": 0}, "training_size must be >= 1"),
    ({"max_training_size": 99}, "max_training_size must be >= training_size"),
    ({"bandwidth": 0.0}, "fixed bandwidth must be positive and finite"),
    ({"bandwidth": float("nan")}, "fixed bandwidth must be positive and finite"),
    ({"threshold_m": 0.0}, "threshold_m must be positive"),
    ({"threshold_m": -1.0}, "threshold_m must be positive"),
    ({"growth_step": 0}, "growth_step must be >= 1"),
])
def test_config_rejects(kwargs, message):
    with pytest.raises(DataError, match=message):
        GrnnConfig(**{"training_size": 100, **kwargs})

class TestAdaptiveAtOneTarget:
    def test_constant_accepts_first_size(self):
        s = comp_series(np.arange(20.0) + 1.0, np.full(20, 7.0))
        walk = adaptive_forecast_series(s, GrnnConfig(training_size=3, threshold_m=0.1))
        i = 10 - 3
        assert walk.threshold_met[i]
        assert walk.training_size_used[i] == 3
        assert walk.observed_m[i] - walk.predicted_m[i] == 0.0

    def test_linear_with_tight_threshold_exhausts(self):
        epochs = np.arange(30.0) + 1.0
        s = comp_series(epochs, epochs.copy())
        cfg = GrnnConfig(training_size=2, bandwidth=1.0, threshold_m=1e-9)
        walk = adaptive_forecast_series(s, cfg)
        i = 20 - 2
        assert not walk.threshold_met[i]
        # reference loop over the same admissible sizes, keeping the best
        best = None
        for v in range(2, 21):
            window = epochs[20 - v:20]
            ref = nw_predict_mp(window, window, float(epochs[20]), 1.0)
            err = float(epochs[20]) - ref
            if best is None or abs(err) < abs(best[1]):
                best = (v, err, ref)
        assert walk.training_size_used[i] == best[0]
        assert walk.predicted_m[i] == pytest.approx(best[2], rel=1e-12)

    def test_huge_threshold_accepts_immediately(self):
        s = comp_series(np.arange(30.0) + 1.0, np.arange(30.0) ** 1.5)
        walk = adaptive_forecast_series(s, GrnnConfig(training_size=4, threshold_m=1e12))
        i = 10 - 4
        assert walk.threshold_met[i] and walk.training_size_used[i] == 4

    def test_growth_respects_cap(self):
        s = comp_series(np.arange(30.0) + 1.0, np.arange(30.0))
        cfg = GrnnConfig(training_size=2, bandwidth=1.0, threshold_m=1e-12,
                         max_training_size=5)
        walk = adaptive_forecast_series(s, cfg)
        assert walk.training_size_used[20 - 2] <= 5

    def test_insufficient_history(self):
        # no threshold is met, so each target grows its window as far as the
        # history before it allows: index k has exactly k values behind it
        s = comp_series(np.arange(10.0) + 1.0, np.arange(10.0) ** 2)
        cfg = GrnnConfig(training_size=5, bandwidth=1.0, threshold_m=1e-12)
        walk = adaptive_forecast_series(s, cfg)
        assert not walk.threshold_met.any()
        assert walk.training_size_used[0] == 5
        assert np.all(walk.training_size_used <= np.arange(5, 10))

    def test_walk_shape(self):
        s = comp_series(np.arange(15.0) + 1.0, np.sin(np.arange(15.0)))
        cfg = GrnnConfig(training_size=4, threshold_m=0.5)
        walk = adaptive_forecast_series(s, cfg)
        assert len(walk) == 11
        assert walk.training_size_used.min() >= 4


def loop_reference(series, cfg):
    """The per-target loop the batched adaptive walk replaces: its
    forecasts, window sizes and threshold flags."""
    outcomes = [adaptive_predict(series, k, cfg) for k in range(cfg.training_size, series.count)]
    return [list(column) for column in zip(*outcomes)]


def assert_same_walk(series, cfg):
    """:func:`forecast_series` gives the bits of the stepping walk."""
    predicted, n_window_predicted = stepping_walk(series, cfg)
    fast = forecast_series(series, cfg)
    assert np.array_equal(fast.predicted_m, predicted)
    assert np.array_equal(fast.n_window_predicted, n_window_predicted)


def _axis(kind, length=160):
    rng = np.random.default_rng(5)
    daily = 55000.0 + np.arange(float(length))
    if kind == "daily":
        return daily
    if kind == "two-gap":
        return np.concatenate([daily[:60], daily[67:110], daily[130:]])
    if kind == "decimal-year":
        # stored as 4-decimal years, as many public series ship
        return decimal_year_to_mjd(np.round(mjd_to_decimal_year(daily), 4))
    if kind == "irregular":
        return np.cumsum(rng.uniform(0.5, 3.0, length)) + 1.0
    return daily + rng.uniform(-0.01, 0.01, daily.size)  # jittered


class TestAdaptiveForecastSeries:
    @pytest.mark.parametrize("axis", ["daily", "two-gap", "jittered"])
    @pytest.mark.parametrize("bandwidth", [BandwidthRule.WINDOW_STD,
                                           BandwidthRule.MEAN_SPACING, 2.5])
    @pytest.mark.parametrize("cap", [None, 40])
    @pytest.mark.parametrize("growth_step", [1, 3])
    @pytest.mark.parametrize("training_size", [1, 20])
    def test_matches_per_target_loop(self, axis, bandwidth, cap, growth_step,
                                     training_size):
        self.check_against_loop(_axis(axis), training_size, bandwidth, cap, growth_step)

    @pytest.mark.parametrize("axis", ["daily", "two-gap", "jittered"])
    @pytest.mark.parametrize("bandwidth", [BandwidthRule.WINDOW_STD,
                                           BandwidthRule.MEAN_SPACING, 2.5])
    @pytest.mark.parametrize("growth_step", [1, 3])
    def test_matches_per_target_loop_across_blocks(self, axis, bandwidth, growth_step):
        # at v=100 the targets span four blocks of _BLOCK_ELEMENTS // 100 rows;
        # the cap keeps the per-target loop fast
        epochs = _axis(axis, length=640)
        assert epochs.size - 100 > 3 * (_BLOCK_ELEMENTS // 100)
        self.check_against_loop(epochs, 100, bandwidth, 140, growth_step)

    @staticmethod
    def check_against_loop(epochs, training_size, bandwidth, cap, growth_step):
        rng = np.random.default_rng(11)
        # anomaly-sized values: a coordinate-sized offset would round away
        # last-bit differences of the dot product
        values = np.cumsum(rng.normal(0.0, 1e-3, epochs.size))
        s = comp_series(epochs, values, Component.Z)
        cfg = GrnnConfig(training_size=training_size, bandwidth=bandwidth,
                         threshold_m=4e-4, max_training_size=cap,
                         growth_step=growth_step, mode=Mode.TEACHER_FORCED)
        walk = adaptive_forecast_series(s, cfg)
        predicted, used, met = loop_reference(s, cfg)
        assert np.array_equal(walk.predicted_m, predicted)
        assert np.array_equal(walk.training_size_used, used)
        assert np.array_equal(walk.threshold_met, met)
        assert walk.training_size_used.dtype == np.int64
        assert walk.threshold_met.dtype == bool
        # both outcomes occur, so the test exercises passing and exhausted targets
        assert walk.threshold_met.any() and not walk.threshold_met.all()
        np.testing.assert_array_equal(walk.epochs_mjd, epochs[training_size:])
        np.testing.assert_array_equal(walk.observed_m, values[training_size:])

    def test_underflow_names_the_target_the_loop_stops_at(self):
        # a dense block, then spacings doubling up to target A; B lies far after A
        dense = 50000.0 + 0.01 * np.arange(100)
        geometric = dense[-1] + 0.02 * np.cumsum(2.0 ** np.arange(12))
        epochs = np.concatenate([dense, geometric, [geometric[-1] + 1e4]])
        a = epochs.size - 2
        values = np.zeros(epochs.size)
        values[a] = 1.0  # every other target passes at once
        s = comp_series(epochs, values)
        cfg = GrnnConfig(training_size=2, bandwidth=BandwidthRule.MEAN_SPACING,
                         threshold_m=0.5)
        # B underflows at the first size; A only once its window reaches the
        # dense block, so the loop stops at A
        with pytest.raises(BandwidthTooSmallError) as loop_exc:
            loop_reference(s, cfg)
        assert f"at MJD {float(epochs[a])!r}" in str(loop_exc.value)
        first_size_only = GrnnConfig(training_size=2, bandwidth=BandwidthRule.MEAN_SPACING,
                                     threshold_m=0.5, max_training_size=2)
        _, _, met = adaptive_predict(s, a, first_size_only)
        assert not met
        with pytest.raises(BandwidthTooSmallError):
            adaptive_predict(s, a + 1, first_size_only)
        with pytest.raises(BandwidthTooSmallError) as walk_exc:
            adaptive_forecast_series(s, cfg)
        assert str(walk_exc.value) == str(loop_exc.value)

    def test_threshold_required(self):
        s = comp_series(np.arange(10.0) + 1.0, np.zeros(10))
        with pytest.raises(DataError, match="requires a threshold"):
            adaptive_forecast_series(s, GrnnConfig(training_size=3))

    def test_nothing_to_predict(self):
        s = comp_series(np.arange(3.0) + 1.0, np.zeros(3))
        with pytest.raises(DataError, match="nothing to predict"):
            adaptive_forecast_series(s, GrnnConfig(training_size=3, threshold_m=1.0))


class TestUnderflowMessage:
    # a 46-day gap: the first epoch after it lies 47 days past the window
    EPOCHS = np.concatenate([55000.0 + np.arange(20.0), 55066.0 + np.arange(10.0)])

    def expected(self):
        return ("bandwidth too small: every kernel value underflowed (h=1.0, "
                "nearest distance 47.0 days) predicting component Y at MJD 55066.0")

    def series(self):
        return comp_series(self.EPOCHS, np.linspace(0.0, 1.0, self.EPOCHS.size), Component.Y)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_forecast_series(self, mode):
        cfg = GrnnConfig(training_size=5, bandwidth=1.0, mode=mode)
        with pytest.raises(BandwidthTooSmallError) as exc:
            forecast_series(self.series(), cfg)
        assert str(exc.value) == self.expected()

    @pytest.mark.parametrize("mode", list(Mode))
    def test_forecast_series_stops_at_first_target_beyond_first_block(self, mode):
        # 60- and 130-day gaps: the targets after them (indices 400 and 410)
        # both underflow at h=1 and share a block that is not the first
        epochs = np.concatenate([55000.0 + np.arange(400.0), 55460.0 + np.arange(10.0),
                                 55600.0 + np.arange(100.0)])
        rows = _BLOCK_ELEMENTS // 100
        assert 0 < (400 - 100) // rows == (410 - 100) // rows
        s = comp_series(epochs, np.linspace(0.0, 1.0, epochs.size), Component.Y)
        cfg = GrnnConfig(training_size=100, bandwidth=1.0, mode=mode)
        with pytest.raises(BandwidthTooSmallError) as step_exc:
            stepping_walk(s, cfg)
        with pytest.raises(BandwidthTooSmallError) as walk_exc:
            forecast_series(s, cfg)
        assert str(walk_exc.value) == (
            f"{step_exc.value} predicting component Y at MJD 55460.0")
        assert "nearest distance 61.0 days" in str(walk_exc.value)

    def test_adaptive_paths(self):
        cfg = GrnnConfig(training_size=5, bandwidth=1.0, threshold_m=1e-3)
        with pytest.raises(BandwidthTooSmallError) as loop_exc:
            adaptive_predict(self.series(), 20, cfg)
        with pytest.raises(BandwidthTooSmallError) as walk_exc:
            adaptive_forecast_series(self.series(), cfg)
        assert str(loop_exc.value) == str(walk_exc.value) == self.expected()


class TestForecastSeries:
    def test_prediction_count(self):
        s = comp_series(np.arange(10.0) + 1.0, np.random.default_rng(0).normal(size=10))
        res = forecast_series(s, GrnnConfig(training_size=3))
        assert len(res) == 7

    def test_constant_series_recursive_exact(self):
        s = comp_series(np.arange(50.0) + 1.0, np.full(50, 2.75))
        res = forecast_series(s, GrnnConfig(training_size=5, mode=Mode.RECURSIVE))
        np.testing.assert_allclose(res.predicted_m, 2.75, rtol=1e-15)
        np.testing.assert_array_equal(res.errors_m(), np.zeros(45))

    def test_nothing_to_predict(self):
        s = comp_series([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="nothing to predict"):
            forecast_series(s, GrnnConfig(training_size=3))

    def test_mode_changes_the_walk(self):
        epochs = np.arange(40.0) + 1.0
        values = 0.1 * epochs
        s = comp_series(epochs, values)
        rec = forecast_series(s, GrnnConfig(training_size=5, bandwidth=1.0,
                                            mode=Mode.RECURSIVE))
        tf = forecast_series(s, GrnnConfig(training_size=5, bandwidth=1.0,
                                           mode=Mode.TEACHER_FORCED))
        assert not np.allclose(rec.predicted_m, tf.predicted_m)
        np.testing.assert_array_equal(rec.n_window_predicted,
                                      np.minimum(np.arange(35), 5))
        np.testing.assert_array_equal(tf.n_window_predicted, np.zeros(35, dtype=int))

    def test_matches_manual_stepping_walk(self):
        rng = np.random.default_rng(3)
        epochs = np.sort(rng.choice(400, size=120, replace=False)).astype(float) + 1.0
        values = 4e6 + np.cumsum(rng.normal(0, 1e-3, size=120))
        s = comp_series(epochs, values)
        for mode in Mode:
            for bw in (BandwidthRule.WINDOW_STD, BandwidthRule.MEAN_SPACING, 2.0):
                cfg = GrnnConfig(training_size=7, bandwidth=bw, mode=mode)
                fast = forecast_series(s, cfg)
                predicted, n_window_predicted = stepping_walk(s, cfg)
                assert np.array_equal(fast.predicted_m, predicted)
                np.testing.assert_array_equal(fast.epochs_mjd, epochs[7:])
                np.testing.assert_array_equal(fast.n_window_predicted, n_window_predicted)

    def test_gap_walk_uses_pre_gap_window(self):
        # 12 daily epochs with a 3-day hole after the 6th
        epochs = np.array([1., 2., 3., 4., 5., 6., 10., 11., 12., 13., 14., 15.])
        values = epochs * 0.5
        s = comp_series(epochs, values)
        cfg = GrnnConfig(training_size=4, bandwidth=2.0, mode=Mode.TEACHER_FORCED)
        res = forecast_series(s, cfg)
        assert len(res) == 8
        # the prediction at epoch 10 must come from the pre-gap window {3..6}
        i = int(np.flatnonzero(res.epochs_mjd == 10.0)[0])
        w = weights_at(epochs[2:6], 10.0, 2.0)
        assert res.predicted_m[i] == pytest.approx(float(w @ values[2:6]), rel=1e-14)
        # step-by-step: the window holding epochs {5,6,10,11} predicts epoch 12
        j = int(np.flatnonzero(res.epochs_mjd == 12.0)[0])
        w2 = weights_at(epochs[4:8], 12.0, 2.0)
        assert res.predicted_m[j] == pytest.approx(float(w2 @ values[4:8]), rel=1e-14)

    def test_recursive_error_accumulates_on_ramp(self):
        epochs = np.arange(30.0) + 1.0
        s = comp_series(epochs, epochs.copy())
        res = forecast_series(s, GrnnConfig(training_size=5, bandwidth=1.0,
                                            mode=Mode.RECURSIVE))
        errors = np.abs(res.errors_m())[:10]
        assert np.all(np.diff(errors) >= -1e-12)

    @pytest.mark.parametrize("axis", ["irregular", "daily", "two-gap", "jittered",
                                      "decimal-year"])
    def test_blocked_walk_matches_stepping_walk(self, axis):
        epochs = _axis(axis, length=640)
        # v=100 spans more than three weight blocks; v=1 is the smallest window
        assert epochs.size - 100 > 3 * (_BLOCK_ELEMENTS // 100)
        rng = np.random.default_rng(9)
        # anomaly-sized values: a coordinate-sized offset would round away
        # last-bit differences of the dot product
        values = np.cumsum(rng.normal(0.0, 1e-3, epochs.size))
        s = comp_series(epochs, values)
        for v, bw, mode in itertools.product(
                (1, 100), (BandwidthRule.WINDOW_STD, BandwidthRule.MEAN_SPACING, 2.0), Mode):
            assert_same_walk(s, GrnnConfig(training_size=v, bandwidth=bw, mode=mode))

    @pytest.mark.parametrize("offset", [0.0, 4e6], ids=["anomaly", "coordinate"])
    @pytest.mark.parametrize("v", [1, 2, 7, 100, 300])
    def test_recursive_step_matches_stepping_walk(self, v, offset):
        # the step's arithmetic depends on v and the value magnitude, not on
        # the axis; coordinate-sized values catch a step that skips the shift
        # to the window's first value
        epochs = _axis("irregular", length=640)
        values = offset + np.cumsum(np.random.default_rng(9).normal(0.0, 1e-3, epochs.size))
        assert_same_walk(comp_series(epochs, values), GrnnConfig(training_size=v))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_walk_matches_stepping_walk_on_random_axes(self, data):
        n = data.draw(st.integers(min_value=2, max_value=60))
        v = data.draw(st.integers(min_value=1, max_value=min(10, n - 1)))
        # spacings this even keep every nearest kernel value from underflowing
        spacings = data.draw(st.lists(st.floats(min_value=0.25, max_value=4.0),
                                      min_size=n, max_size=n))
        values = data.draw(st.lists(st.floats(min_value=-1e7, max_value=1e7),
                                    min_size=n, max_size=n))
        bw = data.draw(st.sampled_from([BandwidthRule.WINDOW_STD,
                                        BandwidthRule.MEAN_SPACING, 2.0]))
        mode = data.draw(st.sampled_from(list(Mode)))
        cfg = GrnnConfig(training_size=v, bandwidth=bw, mode=mode)
        assert_same_walk(comp_series(55000.0 + np.cumsum(spacings), values), cfg)
