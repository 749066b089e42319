"""Kernel forecaster: weights, predictions, window updates, walks."""

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
    ForecastResult,
    GrnnConfig,
    GrnnState,
    Mode,
    Origin,
    adaptive_forecast_series,
    adaptive_predict,
    advance,
    compute_weights,
    decimal_year_to_mjd,
    forecast_series,
    gaussian_kernel,
    mjd_to_decimal_year,
    predict_one,
    resolve_bandwidth,
)
from gnss_grnn.grnn import _BLOCK_ELEMENTS

from oracles import nw_predict_mp, nw_weights_mp, window_std_mp


def comp_series(epochs, values, component=Component.X):
    return ComponentSeries(component, np.asarray(epochs, float), np.asarray(values, float))


def state_of(epochs, values):
    return GrnnState(np.asarray(epochs, float), np.asarray(values, float),
                     (Origin.OBSERVED,) * len(epochs))


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


class TestComputeWeights:
    def test_two_entry_hand_value(self):
        w = compute_weights(3.0, [1.0, 2.0], 1.0)
        np.testing.assert_allclose(w, [0.18242552380635634, 0.81757447619364366], rtol=1e-14)

    def test_huge_bandwidth_is_uniform(self):
        w = compute_weights(3.0, [1.0, 2.0], 1e9)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-6)

    def test_single_entry(self):
        np.testing.assert_array_equal(compute_weights(5.0, [1.0], 2.0), [1.0])

    def test_underflow_is_an_error(self):
        with pytest.raises(BandwidthTooSmallError):
            compute_weights(100.0, [0.0], 0.5)

    def test_target_must_follow_window(self):
        with pytest.raises(DataError):
            compute_weights(2.0, [1.0, 2.0], 1.0)

    def test_decay_with_distance(self):
        w = compute_weights(10.0, np.arange(0.0, 10.0), 3.0)
        assert np.all(np.diff(w) > 0)  # older entries are farther, weigh less
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_high_precision_reference(self):
        epochs = [0.0, 1.0, 3.5, 4.0, 7.25]
        w = compute_weights(9.0, epochs, 2.2)
        ref = [float(x) for x in nw_weights_mp(epochs, 9.0, 2.2)]
        np.testing.assert_allclose(w, ref, rtol=1e-13)


class TestResolveBandwidth:
    def test_fixed(self):
        assert resolve_bandwidth(2.5, 10.0, np.array([1.0, 2.0])) == 2.5

    def test_window_std_matches_epoch_std(self):
        epochs = np.array([55000.0, 55001.0, 55003.0, 55004.5])
        h = resolve_bandwidth(BandwidthRule.WINDOW_STD, 55010.0, epochs)
        assert h == pytest.approx(window_std_mp(epochs), rel=1e-12)

    def test_mean_spacing(self):
        epochs = np.array([55000.0, 55001.0, 55005.0])
        h = resolve_bandwidth(BandwidthRule.MEAN_SPACING, 55010.0, epochs)
        assert h == pytest.approx(2.5, rel=1e-15)

    def test_singleton_fallback(self):
        assert resolve_bandwidth(BandwidthRule.WINDOW_STD, 5.0, np.array([1.0])) == 1.0
        assert resolve_bandwidth(BandwidthRule.MEAN_SPACING, 5.0, np.array([1.0])) == 1.0


class TestPredictOne:
    def test_constant_window_any_bandwidth(self):
        s = state_of([1.0, 2.0, 3.0], [4.2, 4.2, 4.2])
        for h in (0.5, 1.0, 100.0):
            yhat, _ = predict_one(s, 4.0, GrnnConfig(training_size=3, bandwidth=h))
            assert yhat == pytest.approx(4.2, rel=1e-15)

    def test_two_point_hand_value(self):
        s = state_of([1.0, 2.0], [10.0, 20.0])
        yhat, w = predict_one(s, 3.0, GrnnConfig(training_size=2, bandwidth=1.0))
        assert yhat == pytest.approx(18.175744761936437, rel=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_window(self):
        s = state_of([1.0, 2.0], [0.0, 100.0])
        for h in (0.3, 1.0, 42.0, 1e6):
            yhat, _ = predict_one(s, 3.0, GrnnConfig(training_size=2, bandwidth=h))
            assert 0.0 <= yhat <= 100.0

    def test_huge_bandwidth_tends_to_mean(self):
        values = [3.0, -1.0, 7.0, 2.5]
        s = state_of([1.0, 2.0, 3.0, 4.0], values)
        yhat, _ = predict_one(s, 5.0, GrnnConfig(training_size=4, bandwidth=1e9))
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
        epochs = np.concatenate([[0.0], np.cumsum(spacings)])
        values = np.asarray(values[: len(epochs)])
        target = float(epochs[-1]) + 1.0
        cfg = GrnnConfig(training_size=len(epochs), bandwidth=h)
        base, w = predict_one(state_of(epochs, values), target, cfg)
        assert np.min(values) - 1e-9 <= base <= np.max(values) + 1e-9
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        shifted, _ = predict_one(state_of(epochs, values + shift), target, cfg)
        assert shifted == pytest.approx(base + shift, rel=1e-9, abs=1e-9)
        scaled, _ = predict_one(state_of(epochs, values * scale), target, cfg)
        assert scaled == pytest.approx(base * scale, rel=1e-9, abs=1e-9)


class TestAdvance:
    def test_recursive_appends_prediction(self):
        s = state_of([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        cfg = GrnnConfig(training_size=3, mode=Mode.RECURSIVE)
        out = advance(s, 4.0, 99.0, observed=12.5, config=cfg)
        np.testing.assert_array_equal(out.epochs_mjd, [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(out.values_m, [11.0, 12.0, 99.0])
        assert out.origins == (Origin.OBSERVED, Origin.OBSERVED, Origin.PREDICTED)

    def test_teacher_forced_appends_observation(self):
        s = state_of([1.0, 2.0], [10.0, 11.0])
        cfg = GrnnConfig(training_size=2, mode=Mode.TEACHER_FORCED)
        out = advance(s, 3.0, 99.0, observed=11.5, config=cfg)
        np.testing.assert_array_equal(out.values_m, [11.0, 11.5])
        assert out.origins[-1] is Origin.OBSERVED

    def test_teacher_forced_missing_truth_raises(self):
        s = state_of([1.0, 2.0], [10.0, 11.0])
        cfg = GrnnConfig(training_size=2, mode=Mode.TEACHER_FORCED)
        with pytest.raises(DataError):
            advance(s, 3.0, 99.0, config=cfg)

    def test_teacher_forced_gap_falls_back_to_prediction(self):
        s = state_of([1.0, 2.0], [10.0, 11.0])
        cfg = GrnnConfig(training_size=2, mode=Mode.TEACHER_FORCED)
        out = advance(s, 3.0, 99.0, config=cfg, at_gap=True)
        assert out.values_m[-1] == 99.0
        assert out.origins[-1] is Origin.PREDICTED

    def test_length_one_window(self):
        s = state_of([5.0], [1.0])
        out = advance(s, 6.0, 2.0, config=GrnnConfig(training_size=1))
        assert len(out) == 1
        np.testing.assert_array_equal(out.values_m, [2.0])

    def test_epoch_must_advance(self):
        s = state_of([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(DataError):
            advance(s, 2.0, 1.0, config=GrnnConfig(training_size=2))


class TestAdaptivePredict:
    def test_constant_accepts_first_size(self):
        s = comp_series(np.arange(20.0) + 1.0, np.full(20, 7.0))
        cfg = GrnnConfig(training_size=3, threshold_m=0.1)
        res = adaptive_predict(s, 10, cfg)
        assert res.threshold_met
        assert res.training_size_used == 3
        assert res.error_m == 0.0

    def test_linear_with_tight_threshold_exhausts(self):
        epochs = np.arange(30.0) + 1.0
        s = comp_series(epochs, epochs.copy())
        cfg = GrnnConfig(training_size=2, bandwidth=1.0, threshold_m=1e-9)
        res = adaptive_predict(s, 20, cfg)
        assert not res.threshold_met
        # reference loop over the same admissible sizes, keeping the best
        best = None
        for v in range(2, 21):
            window = epochs[20 - v:20]
            ref = nw_predict_mp(window, window, float(epochs[20]), 1.0)
            err = float(epochs[20]) - ref
            if best is None or abs(err) < abs(best[1]):
                best = (v, err, ref)
        assert res.training_size_used == best[0]
        assert res.predicted_m == pytest.approx(best[2], rel=1e-12)

    def test_huge_threshold_accepts_immediately(self):
        s = comp_series(np.arange(30.0) + 1.0, np.arange(30.0) ** 1.5)
        cfg = GrnnConfig(training_size=4, threshold_m=1e12)
        res = adaptive_predict(s, 10, cfg)
        assert res.threshold_met and res.training_size_used == 4

    def test_growth_respects_cap(self):
        s = comp_series(np.arange(30.0) + 1.0, np.arange(30.0))
        cfg = GrnnConfig(training_size=2, bandwidth=1.0, threshold_m=1e-12,
                         max_training_size=5)
        res = adaptive_predict(s, 20, cfg)
        assert res.training_size_used <= 5

    def test_insufficient_history(self):
        s = comp_series(np.arange(10.0) + 1.0, np.zeros(10))
        cfg = GrnnConfig(training_size=5, threshold_m=1.0)
        with pytest.raises(DataError, match="insufficient history"):
            adaptive_predict(s, 4, cfg)

    def test_threshold_required(self):
        s = comp_series(np.arange(10.0) + 1.0, np.zeros(10))
        with pytest.raises(DataError, match="threshold"):
            adaptive_predict(s, 5, GrnnConfig(training_size=3))

    def test_walk_shape(self):
        s = comp_series(np.arange(15.0) + 1.0, np.sin(np.arange(15.0)))
        cfg = GrnnConfig(training_size=4, threshold_m=0.5)
        walk = adaptive_forecast_series(s, cfg)
        assert len(walk) == 11
        assert walk.training_size_used.min() >= 4


def loop_reference(series, cfg):
    """The per-target loop the batched adaptive walk replaces."""
    return [adaptive_predict(series, k, cfg) for k in range(cfg.training_size, series.count)]


def manual_walk(series, cfg):
    """The forecast walk built from the public stepping API.

    Produces the forecasts of :func:`forecast_series` one
    :func:`predict_one`/:func:`advance` call at a time; quadratically
    slower on long series.
    """
    v = cfg.training_size
    n = series.count
    if n <= v:
        raise DataError(f"nothing to predict: {n} samples with training_size {v}")
    state = GrnnState.from_series(series, v)
    epochs = series.epochs_mjd
    observed = series.values_m
    predicted = np.empty(n - v, dtype=np.float64)
    n_window_predicted = np.empty(n - v, dtype=np.int64)
    for k in range(v, n):
        yhat, _ = predict_one(state, float(epochs[k]), cfg)
        predicted[k - v] = yhat
        n_window_predicted[k - v] = sum(o is Origin.PREDICTED for o in state.origins)
        state = advance(state, float(epochs[k]), yhat, float(observed[k]), config=cfg)
    return ForecastResult(
        component=str(series.component.value),
        mode=cfg.mode,
        training_size=v,
        epochs_mjd=epochs[v:],
        predicted_m=predicted,
        observed_m=observed[v:],
        n_window_predicted=n_window_predicted,
    )


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
        epochs = _axis(axis)
        rng = np.random.default_rng(11)
        # anomaly-sized values: a coordinate-sized offset would round away
        # last-bit differences of the dot product
        values = np.cumsum(rng.normal(0.0, 1e-3, epochs.size))
        s = comp_series(epochs, values, Component.Z)
        cfg = GrnnConfig(training_size=training_size, bandwidth=bandwidth,
                         threshold_m=4e-4, max_training_size=cap,
                         growth_step=growth_step, mode=Mode.TEACHER_FORCED)
        walk = adaptive_forecast_series(s, cfg)
        loop = loop_reference(s, cfg)
        assert np.array_equal(walk.predicted_m, [r.predicted_m for r in loop])
        assert np.array_equal(walk.training_size_used, [r.training_size_used for r in loop])
        assert np.array_equal(walk.threshold_met, [r.threshold_met for r in loop])
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
        assert not adaptive_predict(s, a, first_size_only).threshold_met
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
            manual_walk(s, cfg)
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
                slow = manual_walk(s, cfg)
                assert np.array_equal(fast.predicted_m, slow.predicted_m)
                np.testing.assert_array_equal(fast.epochs_mjd, slow.epochs_mjd)
                np.testing.assert_array_equal(fast.n_window_predicted,
                                              slow.n_window_predicted)

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
        w = compute_weights(10.0, epochs[2:6], 2.0)
        assert res.predicted_m[i] == pytest.approx(float(w @ values[2:6]), rel=1e-14)
        # step-by-step: the window holding epochs {5,6,10,11} predicts epoch 12
        j = int(np.flatnonzero(res.epochs_mjd == 12.0)[0])
        w2 = compute_weights(12.0, epochs[4:8], 2.0)
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
            cfg = GrnnConfig(training_size=v, bandwidth=bw, mode=mode)
            fast = forecast_series(s, cfg)
            slow = manual_walk(s, cfg)
            assert np.array_equal(fast.predicted_m, slow.predicted_m)
            assert np.array_equal(fast.n_window_predicted, slow.n_window_predicted)

    def test_seed_state_helper(self):
        s = comp_series(np.arange(10.0) + 1.0, np.arange(10.0))
        st8 = GrnnState.from_series(s, 4)
        assert len(st8) == 4
        assert st8.origins == (Origin.OBSERVED,) * 4
        with pytest.raises(DataError):
            GrnnState.from_series(s, 11)
