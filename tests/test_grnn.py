"""Kernel forecaster: weights, bandwidths, one-target forecasts, walks."""

import itertools
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnss_grnn import (
    BandwidthRule,
    BandwidthTooSmallError,
    Component,
    DataError,
    GrnnConfig,
    Mode,
    NumericError,
    StationForecast,
    StationSeries,
    adaptive_forecast_series,
    decimal_year_to_mjd,
    evaluate_station,
    forecast_series,
    gaussian_kernel,
    mjd_to_decimal_year,
    run_sweep,
)
from gnss_grnn import grnn
from gnss_grnn.grnn import _BLOCK_ELEMENTS, _row_bandwidths, _same_rows, _weight_blocks

from oracles import nw_predict_mp, nw_weights_mp, window_std_mp
from scalar_reference import adaptive_predict, predict, same_rows, stepping_walk


def station_of(epochs, values, station_id="S"):
    """A station on the shared ``epochs``: ``values`` holds its X, Y, Z
    rows, or one row that all three components share."""
    epochs = np.asarray(epochs, float)
    return StationSeries(station_id, epochs,
                         np.broadcast_to(np.asarray(values, float), (3, epochs.size)))


def walk_x(epochs, values, cfg, mode=Mode.RECURSIVE):
    """Component X's forecasts in the ``mode`` walk of a station whose
    components all hold ``values``."""
    return forecast_series(station_of(epochs, values), cfg, (mode,)).predicted_m[mode][0]


def search_x(epochs, values, cfg, threshold_m, max_training_size=None):
    """Component X's forecasts, window sizes and threshold flags in the
    adaptive search on a station whose components all hold ``values``."""
    walks = adaptive_forecast_series(station_of(epochs, values), cfg, threshold_m,
                                     max_training_size)
    return (walks.predicted_m[Mode.TEACHER_FORCED][0], walks.training_size_used[0],
            walks.threshold_met[0])


def one_target_blocks(epochs, target, bandwidth):
    """The single ``(block, weights)`` block of one target after the window
    ``epochs``; its one weight row is all NaN if every kernel underflowed."""
    axis = np.append(np.asarray(epochs, float), target)
    v = axis.size - 1
    (block,) = _weight_blocks(axis, np.array([v]), v, bandwidth)
    return block


def weights_at(epochs, target, bandwidth):
    block, weights = one_target_blocks(epochs, target, bandwidth)
    assert block == slice(0, 1) and weights.shape == (1, len(epochs))
    assert not np.isnan(weights).any()
    return weights[0]


def predict_at(epochs, values, target, bandwidth):
    """The one-target ``forecast_series`` from the window ``epochs``/``values``."""
    cfg = GrnnConfig(training_size=len(values), bandwidth=bandwidth)
    return float(walk_x(np.append(epochs, target), np.append(values, 0.0), cfg)[0])


def row_bandwidth(epochs, target, bandwidth):
    return float(_row_bandwidths((target - np.asarray(epochs, float))[None, :], bandwidth)[0])


def assert_blocks_weigh_each_target(monkeypatch, epochs, v, bandwidth):
    """``_weight_blocks`` over every target after the first ``v`` epochs
    gives each target the bits of its scalar-reference weights, or an
    all-NaN row where the reference underflows, and evaluates one kernel
    row per run of adjacent targets with identical distance rows, carried
    across block edges. A block that is one run yields one row, any other
    a row per target. Returns the blocks."""
    targets = np.arange(v, epochs.size)
    size = max(1, _BLOCK_ELEMENTS // v)
    kernel_rows = count_kernel_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = list(_weight_blocks(epochs, targets, v, bandwidth))
    assert len(blocks) == -(-targets.size // size)
    run = np.cumsum(~same_rows(epochs, v)[targets])
    assert sum(kernel_rows) == run[-1] - run[0] + 1
    for b, (block, weights) in enumerate(blocks):
        assert block == slice(b * size, min((b + 1) * size, targets.size))
        rows = np.arange(targets.size)[block]
        assert len(weights) == (1 if run[rows[0]] == run[rows[-1]] else rows.size)
        for j in rows.tolist():
            w = weights[0] if len(weights) == 1 else weights[j - block.start]
            distances = epochs[targets[j]] - epochs[targets[j] - v:targets[j]]
            try:
                want = predict(distances, np.zeros(v), bandwidth)[1]
            except BandwidthTooSmallError:
                assert np.isnan(w).all()
            else:
                assert np.array_equal(w, want)
    return blocks


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

    def test_underflow_is_a_nan_row(self):
        block, weights = one_target_blocks([0.0], 100.0, 0.5)
        assert block == slice(0, 1) and weights.shape == (1, 1) and np.isnan(weights).all()
        with pytest.raises(BandwidthTooSmallError) as exc:
            forecast_series(unchecked_station([0.0, 100.0], 0.0), GrnnConfig(1, 0.5))
        assert str(exc.value) == ("bandwidth too small: every kernel value underflowed (h=0.5, "
                                  "nearest distance 100.0 days) predicting component X at "
                                  "MJD 100.0")

    @pytest.mark.parametrize("bandwidth", [BandwidthRule.WINDOW_STD,
                                           BandwidthRule.MEAN_SPACING, 2.5])
    def test_kernel_rows_underflow_is_a_nan_row(self, bandwidth):
        # the middle row's nearest epoch lies 298 days out
        distances = np.array([[3.0, 2.0, 1.0], [300.0, 299.0, 298.0], [4.5, 1.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = grnn._kernel_rows(distances, bandwidth)
        assert np.isnan(weights[1]).all()
        for r in (0, 2):
            assert np.array_equal(weights[r], predict(distances[r], np.zeros(3), bandwidth)[1])

    def test_kernel_rows_refuse_a_nan_in_a_row_with_kernels(self, monkeypatch):
        def gaussian_kernel(a):
            out = kernel(a)
            out[0, 1] = np.nan
            return out

        kernel = grnn.gaussian_kernel
        monkeypatch.setattr(grnn, "gaussian_kernel", gaussian_kernel)
        with pytest.raises(AssertionError):
            grnn._kernel_rows(np.array([[3.0, 2.0, 1.0], [2.0, 1.0, 0.5]]), 2.5)

    def test_decay_with_distance(self):
        w = weights_at(np.arange(0.0, 10.0), 10.0, 3.0)
        assert np.all(np.diff(w) > 0)  # older entries are farther, weigh less
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_high_precision_reference(self):
        epochs = [0.0, 1.0, 3.5, 4.0, 7.25]
        w = weights_at(epochs, 9.0, 2.2)
        ref = [float(x) for x in nw_weights_mp(epochs, 9.0, 2.2)]
        np.testing.assert_allclose(w, ref, rtol=1e-13)

    @pytest.mark.parametrize("axis", ["daily", "two-gap", "runs", "decimal-year", "irregular"])
    @pytest.mark.parametrize("bandwidth", [BandwidthRule.WINDOW_STD,
                                           BandwidthRule.MEAN_SPACING, 2.5])
    @pytest.mark.parametrize("v", [1, 7, 100])
    def test_one_row_per_run(self, monkeypatch, axis, bandwidth, v):
        # at v=100 the targets span four blocks
        epochs = _axis(axis, length=640)
        blocks = assert_blocks_weigh_each_target(monkeypatch, epochs, v, bandwidth)
        if axis == "daily":
            # one run crosses every block boundary
            assert all(len(weights) == 1 for _, weights in blocks)
        if axis == "runs" and v < 36:
            # windows that miss every moved epoch form runs inside the block
            ((block, weights),) = blocks
            runs = int(np.sum(~same_rows(epochs, v)[v:]))
            assert 1 < runs < len(weights) == block.stop - block.start

    def test_underflow_inside_one_run(self, monkeypatch):
        # the daily walk is one run, its row carried through every block; at
        # h=0.01 its nearest epoch lies 100 bandwidths out, so every kernel
        # of that row underflows
        epochs = _axis("daily", length=640)
        blocks = assert_blocks_weigh_each_target(monkeypatch, epochs, 100, 0.01)
        assert len(blocks) > 1
        for _, weights in blocks:
            assert weights.shape == (1, 100) and np.isnan(weights).all()
        with pytest.raises(BandwidthTooSmallError) as exc:
            forecast_series(station_of(epochs, 0.0), GrnnConfig(100, 0.01))
        assert str(exc.value) == ("bandwidth too small: every kernel value underflowed (h=0.01, "
                                  "nearest distance 1.0 days) predicting component X at "
                                  "MJD 55100.0")

    def test_underflow_between_runs(self, monkeypatch):
        # at h=0.2 only the targets right after the 7- and 20-day gaps
        # underflow; the runs around them keep their rows, theirs are NaN
        epochs = _axis("two-gap")
        blocks = assert_blocks_weigh_each_target(monkeypatch, epochs, 2, 0.2)
        ((_, weights),) = blocks
        assert np.sum(~same_rows(epochs, 2)[2:]) == 7
        assert np.flatnonzero(np.isnan(weights).all(axis=1)).tolist() == [58, 101]
        with pytest.raises(BandwidthTooSmallError) as exc:
            forecast_series(station_of(epochs, 0.0), GrnnConfig(2, 0.2))
        assert str(exc.value) == ("bandwidth too small: every kernel value underflowed (h=0.2, "
                                  "nearest distance 8.0 days) predicting component X at "
                                  "MJD 55067.0")


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
        cfg = GrnnConfig(training_size=v, bandwidth=1.0)
        return walk_x(self.EPOCHS, self.VALUES, cfg, mode)

    def test_recursive_appends_prediction(self):
        res = self.walk(Mode.RECURSIVE)
        # epoch 5 is predicted from {11, 12, forecast at epoch 4}
        window = np.array([11.0, 12.0, res[0]])
        assert res[1] == predict(5.0 - self.EPOCHS[1:4], window, 1.0)[0]
        assert res[1] != predict(5.0 - self.EPOCHS[1:4], self.VALUES[1:4], 1.0)[0]

    def test_teacher_forced_appends_observation(self):
        res = self.walk(Mode.TEACHER_FORCED)
        # epoch 5 is predicted from {11, 12, 12.5}: the truth, not the forecast
        assert res[1] == predict(5.0 - self.EPOCHS[1:4], self.VALUES[1:4], 1.0)[0]
        # one forecast for each of epochs 4 and 5
        assert res.shape == (2,)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_gap_epochs_are_never_forecast(self, mode):
        epochs = np.array([1.0, 2.0, 3.0, 7.0, 8.0, 9.0])
        cfg = GrnnConfig(training_size=2, bandwidth=2.0)
        walks = forecast_series(station_of(epochs, 0.5 * epochs), cfg, (mode,))
        # a column per epoch after the seed window, none for the gap's days
        assert walks.predicted_m[mode].shape == (3, 4)
        np.testing.assert_array_equal(epochs[walks.start:], [3.0, 7.0, 8.0, 9.0])

    def test_length_one_window_recursive(self):
        res = self.walk(Mode.RECURSIVE, v=1)
        # a single weight of 1 repeats the seed value along the whole walk
        np.testing.assert_array_equal(res, np.full(4, 10.0))

    def test_length_one_window_teacher_forced(self):
        res = self.walk(Mode.TEACHER_FORCED, v=1)
        np.testing.assert_array_equal(res, self.VALUES[:-1])

    def test_window_seeded_with_first_observations(self):
        for mode in Mode:
            res = self.walk(mode)
            assert res[0] == predict(4.0 - self.EPOCHS[:3], self.VALUES[:3], 1.0)[0]


@pytest.mark.parametrize("kwargs, message", [
    ({"training_size": 0}, "training_size must be >= 1"),
    ({"bandwidth": 0.0}, "fixed bandwidth must be positive and finite"),
    ({"bandwidth": float("nan")}, "fixed bandwidth must be positive and finite"),
    ({"bandwidth": None}, "or a BandwidthRule; got None$"),
    ({"bandwidth": GrnnConfig()}, "or a BandwidthRule; got GrnnConfig"),
    ({"bandwidth": "narrow"}, "or a BandwidthRule; got 'narrow'$"),
    ({"bandwidth": True}, "or a BandwidthRule; got True$"),
    ({"bandwidth": np.bool_(True)}, "fixed bandwidth must be positive and finite"),
    ({"bandwidth": np.int64(0)}, "fixed bandwidth must be positive and finite"),
    ({"training_size": 10.0}, "training_size must be an integer; got 10.0$"),
    ({"training_size": 2.5}, "training_size must be an integer; got 2.5$"),
    ({"training_size": True}, "training_size must be an integer; got True$"),
    ({"training_size": "7"}, "training_size must be an integer; got '7'$"),
])
def test_config_rejects(kwargs, message):
    # a bad bandwidth or training size fails here, not later inside a walk
    with pytest.raises(DataError, match=message):
        GrnnConfig(**{"training_size": 100, **kwargs})


@pytest.mark.parametrize("v", [np.int64(7), np.int32(7), np.uint8(7)])
def test_config_accepts_numpy_integers(v):
    # stored as int, so a report.json that records it still serializes
    cfg = GrnnConfig(training_size=v)
    assert type(cfg.training_size) is int and cfg.training_size == 7
    walks = forecast_series(station_of(np.arange(1.0, 13.0), np.arange(12.0)), cfg)
    assert len(walks) == 3 * 5


@pytest.mark.parametrize("bandwidth", [np.int64(2), np.int32(2), np.uint8(2), np.float64(2), 2])
def test_config_accepts_numpy_number_bandwidths(bandwidth):
    # any real number type fixes the bandwidth, stored as a float of days
    cfg = GrnnConfig(bandwidth=bandwidth)
    assert type(cfg.bandwidth) is float and cfg.bandwidth == 2.0


@pytest.mark.parametrize("threshold_m, max_training_size, message", [
    (0.0, None, "threshold_m must be positive"),
    (-1.0, None, "threshold_m must be positive"),
    (float("nan"), None, "threshold_m must be positive"),
    (0.01, 99, "max_training_size must be >= training_size"),
])
def test_adaptive_search_rejects(threshold_m, max_training_size, message):
    station = station_of(np.arange(120.0) + 1.0, np.zeros(120))
    with pytest.raises(DataError, match=f"^{message}$"):
        adaptive_forecast_series(station, GrnnConfig(training_size=100), threshold_m,
                                 max_training_size)


class TestAdaptiveAtOneTarget:
    def test_constant_accepts_first_size(self):
        predicted, used, met = search_x(np.arange(20.0) + 1.0, np.full(20, 7.0),
                                        GrnnConfig(training_size=3), 0.1)
        i = 10 - 3
        assert met[i]
        assert used[i] == 3
        assert 7.0 - predicted[i] == 0.0

    def test_linear_with_tight_threshold_exhausts(self):
        epochs = np.arange(30.0) + 1.0
        predicted, used, met = search_x(epochs, epochs.copy(),
                                        GrnnConfig(training_size=2, bandwidth=1.0), 1e-9)
        i = 20 - 2
        assert not met[i]
        # reference loop over the same admissible sizes, keeping the best
        best = None
        for v in range(2, 21):
            window = epochs[20 - v:20]
            ref = nw_predict_mp(window, window, float(epochs[20]), 1.0)
            err = float(epochs[20]) - ref
            if best is None or abs(err) < abs(best[1]):
                best = (v, err, ref)
        assert used[i] == best[0]
        assert predicted[i] == pytest.approx(best[2], rel=1e-12)

    def test_huge_threshold_accepts_immediately(self):
        _, used, met = search_x(np.arange(30.0) + 1.0, np.arange(30.0) ** 1.5,
                                GrnnConfig(training_size=4), 1e12)
        i = 10 - 4
        assert met[i] and used[i] == 4

    def test_growth_respects_cap(self):
        cfg = GrnnConfig(training_size=2, bandwidth=1.0)
        _, used, _ = search_x(np.arange(30.0) + 1.0, np.arange(30.0), cfg, 1e-12, 5)
        assert used[20 - 2] <= 5

    def test_insufficient_history(self):
        # no threshold is met, so each target grows its window as far as the
        # history before it allows: index k has exactly k values behind it
        cfg = GrnnConfig(training_size=5, bandwidth=1.0)
        _, used, met = search_x(np.arange(10.0) + 1.0, np.arange(10.0) ** 2, cfg, 1e-12)
        assert not met.any()
        assert used[0] == 5
        assert np.all(used <= np.arange(5, 10))

    def test_walk_shape(self):
        predicted, used, met = search_x(np.arange(15.0) + 1.0, np.sin(np.arange(15.0)),
                                        GrnnConfig(training_size=4), 0.5)
        assert predicted.shape == used.shape == met.shape == (11,)
        assert used.min() >= 4


def loop_reference(epochs, series, cfg, threshold_m, max_training_size=None):
    """The per-target loop the batched adaptive walk replaces: its
    forecasts, window sizes and threshold flags."""
    outcomes = [adaptive_predict(epochs, series, k, cfg, threshold_m, max_training_size)
                for k in range(cfg.training_size, epochs.size)]
    return [list(column) for column in zip(*outcomes)]


def assert_station_walks_step(station, cfg, modes=tuple(Mode)):
    """Every (component, mode) walk of the station walk has the bits of the
    stepping walk of that component alone; where the walk underflows, the
    stepping walk of X fails with the same message."""
    try:
        walks = forecast_series(station, cfg, modes)
    except BandwidthTooSmallError as exc:
        with pytest.raises(BandwidthTooSmallError) as step_exc:
            stepping_walk(station.epochs_mjd, station.components[0], cfg, modes[0])
        assert str(exc).startswith(f"{step_exc.value} predicting component X at MJD ")
        return False
    assert isinstance(walks, StationForecast)
    assert walks.start == cfg.training_size
    assert len(walks) == len(modes) * 3 * (station.count - cfg.training_size)
    assert list(walks.predicted_m) == list(modes)
    assert walks.training_size_used is None and walks.threshold_met is None
    for mode in modes:
        assert walks.predicted_m[mode].shape == (3, station.count - cfg.training_size)
        for comp, walk in zip(station.components, walks.predicted_m[mode]):
            predicted = stepping_walk(station.epochs_mjd, comp, cfg, mode)
            # as int64 views, so that -0.0 and +0.0 differ
            assert np.array_equal(walk.view(np.int64), predicted.view(np.int64))
    return True


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
    if kind == "runs":
        # one epoch in 37 moved by 6 hours: targets whose window misses it
        # share their distance row with their neighbours, so runs of
        # identical rows start and end inside a block
        runs = daily.copy()
        runs[18::37] += 0.25
        return runs
    return daily + rng.uniform(-0.01, 0.01, daily.size)  # jittered


@st.composite
def adaptive_searches(draw):
    """An adaptive search on a generated station: ``(epochs, values, v0,
    bandwidth, threshold_m, cap, block)``. The axis is daily and may hold a
    gap, be rounded to 4-decimal years or have epochs moved by 6 hours. The
    values walk in whole millimetres, so targets that pass at once sit
    between targets that stay open. ``block`` stands in for
    ``_BLOCK_ELEMENTS``: small ones make runs longer than a block."""
    n = draw(st.integers(min_value=3, max_value=48))
    v0 = draw(st.sampled_from([v for v in (1, 2, 3, 7, 20) if v < n]))
    epochs = 55000.0 + np.arange(float(n))
    epochs[draw(st.integers(min_value=1, max_value=n - 1)):] += draw(
        st.sampled_from([0.0, 3.0, 14.0]))
    shape = draw(st.sampled_from(["daily", "decimal-year", "moved"]))
    if shape == "decimal-year":
        epochs = decimal_year_to_mjd(np.round(mjd_to_decimal_year(epochs), 4))
    elif shape == "moved":
        epochs[draw(st.integers(min_value=0, max_value=n - 1))::
               draw(st.integers(min_value=2, max_value=9))] += 0.25
    steps = draw(st.lists(st.integers(min_value=-1, max_value=1),
                          min_size=3 * n, max_size=3 * n))
    values = 1e-3 * np.cumsum(np.reshape(steps, (3, n)), axis=1)
    bandwidth = draw(st.sampled_from([BandwidthRule.WINDOW_STD,
                                      BandwidthRule.MEAN_SPACING, 2.5, 0.3]))
    threshold_m = draw(st.sampled_from([5e-4, 2.5e-3]))
    # caps below and above the history
    cap = draw(st.sampled_from([None, v0 + 2, n + 5]))
    block = draw(st.sampled_from([_BLOCK_ELEMENTS, 16, 1]))
    return epochs, values, v0, bandwidth, threshold_m, cap, block


def _gap_entering_windows():
    """A 14-day gap that enters the windows after it as they grow: the
    runs of daily rows split mid-search, in blocks of 16 window elements."""
    epochs = np.concatenate([55000.0 + np.arange(20.0), 55034.0 + np.arange(20.0)])
    steps = np.random.default_rng(3).integers(-1, 2, (3, 40))
    return (epochs, 1e-3 * np.cumsum(steps, axis=1), 2, BandwidthRule.WINDOW_STD,
            5e-4, 45, 16)


def _closed_between_open():
    """Target 10 repeats target 9 in every component, so it passes at the
    first size, between open targets 9 and 11 whose rows are equal."""
    values = np.insert(1e-3 * (np.arange(29.0) % 2), 10, 1e-3)
    return 55000.0 + np.arange(30.0), np.stack([values] * 3), 1, 2.5, 5e-4, 4, 1


def _spaced_gap(start):
    """14 daily epochs, 7 more 10 days apart, then a target 300 days later.
    Under the mean-spacing rule the target's 7-value window has h = 10, and
    each daily value that enters it shrinks h, until every kernel
    underflows at the 9-value window (h = 7.75)."""
    head = start + np.concatenate([np.arange(14.0), 14.0 + 10.0 * np.arange(7)])
    return np.append(head, head[-1] + 300.0)


def _underflow_across_pair_blocks():
    """Target 21 stays open in every component until its run underflows
    at size 9; blocks of 16 window elements hold 2 pairs at size 7 and 1
    from size 9, so their edges split the target's open components."""
    epochs = np.concatenate([_spaced_gap(55000.0), 55375.0 + np.arange(4.0)])
    values = np.zeros((3, epochs.size))
    values[:, 21] = 1e-3
    return epochs, values, 7, BandwidthRule.MEAN_SPACING, 5e-4, None, 16


def _y_underflow_before_an_x_underflow():
    """Target 21's X passes at size 7 and its Y underflows at size 9; X
    underflows only at target 43, which the per-target loop reaches first."""
    epochs = np.concatenate([_spaced_gap(55000.0), _spaced_gap(55400.0),
                             55775.0 + np.arange(2.0)])
    values = np.zeros((3, epochs.size))
    values[1, 21] = values[0, 43] = 1e-3
    return epochs, values, 7, BandwidthRule.MEAN_SPACING, 5e-4, None, _BLOCK_ELEMENTS


class TestAdaptiveForecastSeries:
    @pytest.mark.parametrize("axis", ["daily", "two-gap", "jittered", "decimal-year", "runs"])
    @pytest.mark.parametrize("bandwidth", [BandwidthRule.WINDOW_STD,
                                           BandwidthRule.MEAN_SPACING, 2.5])
    @pytest.mark.parametrize("cap", [None, 40])
    @pytest.mark.parametrize("training_size", [1, 20])
    @pytest.mark.parametrize("layout", ["independent", "staggered"])
    def test_matches_per_target_loop(self, layout, axis, bandwidth, cap, training_size):
        self.check_against_loop(_axis(axis), training_size, bandwidth, cap, layout)

    @pytest.mark.parametrize("axis", ["daily", "two-gap", "jittered", "decimal-year", "runs"])
    @pytest.mark.parametrize("bandwidth", [BandwidthRule.WINDOW_STD,
                                           BandwidthRule.MEAN_SPACING, 2.5])
    @pytest.mark.parametrize("layout", ["independent", "staggered"])
    def test_matches_per_target_loop_across_blocks(self, layout, axis, bandwidth):
        # at v=100 the targets span four blocks of _BLOCK_ELEMENTS // 100 rows;
        # the cap keeps the per-target loop fast
        epochs = _axis(axis, length=640)
        assert epochs.size - 100 > 3 * (_BLOCK_ELEMENTS // 100)
        self.check_against_loop(epochs, 100, bandwidth, 140, layout)

    @given(adaptive_searches())
    @example(_gap_entering_windows())
    @example(_closed_between_open())
    @example(_underflow_across_pair_blocks())
    @example(_y_underflow_before_an_x_underflow())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_per_target_loop_on_generated_axes(self, search):
        epochs, values, v0, bandwidth, threshold_m, cap, block = search
        station = station_of(epochs, values)
        cfg = GrnnConfig(training_size=v0, bandwidth=bandwidth)
        try:
            want = [loop_reference(epochs, comp, cfg, threshold_m, cap)
                    for comp in station.components]
        except BandwidthTooSmallError as exc:
            want = str(exc)
        with mock.patch.object(grnn, "_BLOCK_ELEMENTS", block):
            try:
                walks = adaptive_forecast_series(station, cfg, threshold_m, cap)
            except BandwidthTooSmallError as exc:
                assert str(exc) == want
                return
        assert not isinstance(want, str), want
        predicted, used, met = (np.array(rows) for rows in zip(*want))
        # as int64 views, so that -0.0 and +0.0 differ
        assert np.array_equal(walks.predicted_m[Mode.TEACHER_FORCED].view(np.int64),
                              predicted.view(np.int64))
        assert np.array_equal(walks.training_size_used, used)
        assert np.array_equal(walks.threshold_met, met)

    def test_an_x_underflow_at_a_later_target_is_named(self):
        # X's earlier targets close at size 7; at size 9 Y's target 21 and
        # X's target 43 underflow, and the message is X's, from target 43's
        # own row. In blocks of 16 window elements each pair at size 9 has a
        # block of its own
        epochs, values, v0, bandwidth, threshold_m, cap, _ = _y_underflow_before_an_x_underflow()
        for block in (_BLOCK_ELEMENTS, 16):
            with mock.patch.object(grnn, "_BLOCK_ELEMENTS", block), \
                    pytest.raises(BandwidthTooSmallError) as exc:
                adaptive_forecast_series(station_of(epochs, values), GrnnConfig(v0, bandwidth),
                                         threshold_m, cap)
            assert str(exc.value) == (
                "bandwidth too small: every kernel value underflowed (h=7.75, nearest distance "
                f"300.0 days) predicting component X at MJD {float(epochs[43])!r}")

    @staticmethod
    def check_against_loop(epochs, training_size, bandwidth, cap, layout):
        rng = np.random.default_rng(11)
        # anomaly-sized values: a coordinate-sized offset would round away
        # last-bit differences of the dot product; each component differs,
        # so targets close at different sizes in each
        values = np.cumsum(rng.normal(0.0, 1e-3, (3, epochs.size)), axis=1)
        if layout == "staggered":
            # X is constant, so all its targets close at the first size while
            # Y and Z stay open; Z is Y doubled, so it stays open longer
            values = np.stack([np.zeros(epochs.size), values[1], 2.0 * values[1]])
        station = station_of(epochs, values)
        cfg = GrnnConfig(training_size=training_size, bandwidth=bandwidth)
        walks = adaptive_forecast_series(station, cfg, 4e-4, cap)
        assert isinstance(walks, StationForecast)
        assert walks.start == training_size
        assert len(walks) == 3 * (epochs.size - training_size)
        assert list(walks.predicted_m) == [Mode.TEACHER_FORCED]
        shape = (3, epochs.size - training_size)
        assert walks.predicted_m[Mode.TEACHER_FORCED].shape == shape
        assert walks.training_size_used.shape == walks.threshold_met.shape == shape
        assert walks.training_size_used.dtype == np.int64
        assert walks.threshold_met.dtype == bool
        for comp, predicted, used, met in zip(station.components,
                                              walks.predicted_m[Mode.TEACHER_FORCED],
                                              walks.training_size_used, walks.threshold_met):
            want_predicted, want_used, want_met = loop_reference(station.epochs_mjd, comp, cfg, 4e-4, cap)
            assert np.array_equal(predicted, want_predicted)
            assert np.array_equal(used, want_used)
            assert np.array_equal(met, want_met)
            if layout == "staggered" and comp.component is Component.X:
                assert met.all()
                np.testing.assert_array_equal(used, training_size)
            else:
                # both outcomes occur, so the test exercises passing and exhausted targets
                assert met.any() and not met.all()

    def test_underflow_names_the_target_the_loop_stops_at(self):
        # a dense block, then spacings doubling up to target A; B lies far after A
        dense = 50000.0 + 0.01 * np.arange(100)
        geometric = dense[-1] + 0.02 * np.cumsum(2.0 ** np.arange(12))
        epochs = np.concatenate([dense, geometric, [geometric[-1] + 1e4]])
        a = epochs.size - 2
        values = np.zeros(epochs.size)
        values[a] = 1.0  # every other target passes at once
        station = station_of(epochs, values)
        s = station.components[0]
        cfg = GrnnConfig(training_size=2, bandwidth=BandwidthRule.MEAN_SPACING)
        # B underflows at the first size; A only once its window reaches the
        # dense block, so the loop stops at A
        with pytest.raises(BandwidthTooSmallError) as loop_exc:
            loop_reference(epochs, s, cfg, 0.5)
        assert f"at MJD {float(epochs[a])!r}" in str(loop_exc.value)
        # capped at the first size
        _, _, met = adaptive_predict(epochs, s, a, cfg, 0.5, 2)
        assert not met
        with pytest.raises(BandwidthTooSmallError):
            adaptive_predict(epochs, s, a + 1, cfg, 0.5, 2)
        with pytest.raises(BandwidthTooSmallError) as walk_exc:
            adaptive_forecast_series(station, cfg, 0.5)
        assert str(walk_exc.value) == str(loop_exc.value)

    def test_underflow_in_a_later_component(self):
        # a 31-day gap: X is constant, so each of its targets passes at v=1;
        # Y and Z must grow to v=2 after the gap, whose 0.5-day window-std
        # underflows 32 days out. Y is the first component that fails.
        epochs = np.concatenate([55000.0 + np.arange(20.0), 55051.0 + np.arange(10.0)])
        curve = 1e-3 * (epochs - 55000.0) ** 2
        station = station_of(epochs, [np.zeros(epochs.size), curve, -curve])
        cfg = GrnnConfig(training_size=1)
        x, y, _ = station.components
        _, used, met = loop_reference(epochs, x, cfg, 1e-3, 5)
        assert all(met) and set(used) == {1}
        with pytest.raises(BandwidthTooSmallError) as loop_exc:
            loop_reference(epochs, y, cfg, 1e-3, 5)
        with pytest.raises(BandwidthTooSmallError) as walk_exc:
            adaptive_forecast_series(station, cfg, 1e-3, 5)
        assert str(walk_exc.value) == str(loop_exc.value) == (
            "bandwidth too small: every kernel value underflowed (h=0.5, "
            "nearest distance 32.0 days) predicting component Y at MJD 55051.0")

    def test_underflows_are_reported_in_component_order(self):
        # two 31-day gaps: Y curves from the first and underflows at the first
        # target after it; X is zero until it curves after the second gap. The
        # per-target loop finishes X before it starts Y, so X is the one named
        epochs = np.concatenate([55000.0 + np.arange(20.0), 55051.0 + np.arange(20.0),
                                 55102.0 + np.arange(10.0)])
        curve = 1e-3 * (epochs - 55000.0) ** 2
        station = station_of(epochs, [np.where(epochs > 55100.0, curve, 0.0),
                                      np.where(epochs > 55050.0, curve, 0.0),
                                      np.zeros(epochs.size)])
        cfg = GrnnConfig(1)
        x, y, _ = station.components
        with pytest.raises(BandwidthTooSmallError, match=r"component Y at MJD 55051\.0$"):
            loop_reference(epochs, y, cfg, 1e-3, 5)
        with pytest.raises(BandwidthTooSmallError) as loop_exc:
            loop_reference(epochs, x, cfg, 1e-3, 5)
        with pytest.raises(BandwidthTooSmallError) as walk_exc:
            adaptive_forecast_series(station, cfg, 1e-3, 5)
        assert str(walk_exc.value) == str(loop_exc.value) == (
            "bandwidth too small: every kernel value underflowed (h=0.5, "
            "nearest distance 32.0 days) predicting component X at MJD 55102.0")

    def test_nothing_to_predict(self):
        station = station_of(np.arange(3.0) + 1.0, np.zeros(3))
        with pytest.raises(DataError, match="nothing to predict"):
            adaptive_forecast_series(station, GrnnConfig(training_size=3), 1.0)


class TestKernelRows:
    """The adaptive search evaluates one kernel row per run of identical
    distance rows and size, with runs that cross block edges: a wrapped
    ``gaussian_kernel`` counts the rows it gets at each window size."""

    @staticmethod
    def search(monkeypatch, axis):
        """The kernel rows evaluated and the targets open at each size of an
        adaptive search over the 41 sizes 100..140 on ``axis``."""
        kernel_rows = dict.fromkeys(range(100, 141), 0)

        def gaussian_kernel(a):
            kernel_rows[a.shape[1]] += a.shape[0]
            return kernel(a)

        kernel = grnn.gaussian_kernel
        monkeypatch.setattr(grnn, "gaussian_kernel", gaussian_kernel)
        epochs = _axis(axis, length=640)
        values = np.cumsum(np.random.default_rng(11).normal(0.0, 1e-3, (3, epochs.size)),
                           axis=1)
        walks = adaptive_forecast_series(station_of(epochs, values),
                                         GrnnConfig(training_size=100), 4e-4, 140)
        # a pair tries every size up to the one that passed, or up to its cap
        caps = np.minimum(np.arange(100, epochs.size), 140)
        last = np.where(walks.threshold_met, walks.training_size_used, caps).max(axis=0)
        return kernel_rows, {v: int(np.sum(last >= v)) for v in kernel_rows}

    def test_one_row_per_size_on_a_daily_axis(self, monkeypatch):
        kernel_rows, open_targets = self.search(monkeypatch, "daily")
        # the open targets fill more than one block at every size
        assert all(n > _BLOCK_ELEMENTS // v for v, n in open_targets.items())
        assert kernel_rows == dict.fromkeys(open_targets, 1)

    def test_one_row_per_open_target_on_decimal_years(self, monkeypatch):
        # rounded epochs make every distance row differ from its neighbours
        kernel_rows, open_targets = self.search(monkeypatch, "decimal-year")
        assert kernel_rows == open_targets


def count_kernel_rows(monkeypatch):
    """A list that a wrapped ``gaussian_kernel`` extends by the number of
    rows of each call."""
    rows = []

    def gaussian_kernel(a):
        rows.append(a.shape[0])
        return kernel(a)

    kernel = grnn.gaussian_kernel
    monkeypatch.setattr(grnn, "gaussian_kernel", gaussian_kernel)
    return rows


class TestWalkKernelRows:
    """``forecast_series`` evaluates one kernel row per run of identical
    distance rows, with runs that cross block edges."""

    @staticmethod
    def walk(monkeypatch, epochs, v):
        rows = count_kernel_rows(monkeypatch)
        values = np.cumsum(np.random.default_rng(11).normal(0.0, 1e-3, (3, epochs.size)),
                           axis=1)
        forecast_series(station_of(epochs, values), GrnnConfig(training_size=v), tuple(Mode))
        return sum(rows)

    def test_one_row_on_a_daily_axis(self, monkeypatch):
        epochs = _axis("daily", length=640)
        # the targets fill more than three blocks
        assert epochs.size - 100 > 3 * (_BLOCK_ELEMENTS // 100)
        assert self.walk(monkeypatch, epochs, 100) == 1

    @pytest.mark.parametrize("v", [1, 7, 100])
    def test_one_row_per_run_on_a_two_gap_axis(self, monkeypatch, v):
        epochs = _axis("two-gap", length=640)
        runs = int(np.sum(~same_rows(epochs, v)[v:]))
        assert 1 < runs < epochs.size - v
        assert self.walk(monkeypatch, epochs, v) == runs


@st.composite
def gapped_daily_axes(draw):
    """``(epochs, v)``: a daily MJD axis with up to four gaps, up to six
    epochs moved by hours or by a last-bit amount, and a window size."""
    n = draw(st.integers(min_value=2, max_value=120))
    spacings = np.ones(n - 1)
    for i in draw(st.lists(st.integers(min_value=0, max_value=n - 2), max_size=4)):
        spacings[i] = draw(st.integers(min_value=2, max_value=40))
    epochs = draw(st.integers(min_value=44000, max_value=60000)) + np.append(0.0,
                                                                            np.cumsum(spacings))
    for i in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=6)):
        epochs[i] += draw(st.sampled_from([0.25, -0.25, 1.0 / 24.0, 1e-3, -1e-9]))
    return epochs, draw(st.integers(min_value=1, max_value=max(1, n - 1)))


class TestSameRows:
    """The run finder reads the epoch spacings; the reference compares whole
    distance rows, row by row."""

    @pytest.mark.parametrize("axis", ["daily", "two-gap", "decimal-year", "irregular",
                                      "runs", "jittered"])
    @pytest.mark.parametrize("v", [1, 2, 7, 100])
    def test_matches_the_row_comparison(self, axis, v):
        epochs = _axis(axis, length=320)
        assert np.array_equal(_same_rows(epochs, v), same_rows(epochs, v))

    @given(gapped_daily_axes())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_row_comparison_on_generated_axes(self, axis):
        epochs, v = axis
        assert np.array_equal(_same_rows(epochs, v), same_rows(epochs, v))


def unchecked_station(epochs, values):
    """What the walks and the scalar references read of a station, on
    ``epochs`` that :class:`StationSeries` may refuse (MJD <= 0)."""
    epochs = np.asarray(epochs, float)
    values = np.broadcast_to(np.asarray(values, float), (3, epochs.size))
    return SimpleNamespace(
        count=epochs.size, epochs_mjd=epochs, values_m=values,
        components=[SimpleNamespace(component=c, values_m=row)
                    for c, row in zip(Component, values)])


# a daily axis with a 10-day gap, over 210 days
_GAP_AXIS = np.concatenate([np.arange(120.0), 130.0 + np.arange(80.0)])


class TestSpacingGuard:
    """Outside ``0 < epochs[0]`` and ``epochs[-1] <= 2 * epochs[0]`` no
    target shares a weight row, and both walks keep the scalar references'
    bits; on the boundary the runs are shared again."""

    OUTSIDE = {"from 0": 0.0, "from 1": 1.0, "negative": -500.0, "span over 2x": 150.0}
    BOUNDARY = 209.0  # epochs[-1] == 418.0 == 2 * epochs[0]

    @pytest.mark.parametrize("v", [1, 2, 7, 100])
    def test_the_finder(self, v):
        boundary = self.BOUNDARY + _GAP_AXIS
        assert boundary[-1] == 2 * boundary[0]
        assert np.array_equal(_same_rows(boundary, v), same_rows(boundary, v))
        assert _same_rows(boundary, v).any()
        for offset in self.OUTSIDE.values():
            epochs = offset + _GAP_AXIS
            # the rows are identical, but the finder shares none of them
            assert same_rows(epochs, v).any() and not _same_rows(epochs, v).any()

    @pytest.mark.parametrize("offset", [*OUTSIDE.values(), BOUNDARY],
                             ids=[*OUTSIDE, "boundary"])
    def test_walks_keep_the_reference_bits(self, monkeypatch, offset):
        epochs = offset + _GAP_AXIS
        values = np.cumsum(np.random.default_rng(11).normal(0.0, 1e-3, (3, epochs.size)),
                           axis=1)
        station = unchecked_station(epochs, values)
        rows = count_kernel_rows(monkeypatch)
        for v, bandwidth in itertools.product((1, 7), (BandwidthRule.WINDOW_STD, 2.5)):
            rows.clear()
            assert assert_station_walks_step(station, GrnnConfig(v, bandwidth))
            shared = offset == self.BOUNDARY
            runs = int(np.sum(~same_rows(epochs, v)[v:])) if shared else epochs.size - v
            assert sum(rows) == runs
        cfg = GrnnConfig(7)
        walks = adaptive_forecast_series(station, cfg, 4e-4, 40)
        for comp, predicted, used, met in zip(station.components,
                                              walks.predicted_m[Mode.TEACHER_FORCED],
                                              walks.training_size_used, walks.threshold_met):
            want_predicted, want_used, want_met = loop_reference(epochs, comp, cfg, 4e-4, 40)
            assert np.array_equal(predicted.view(np.int64),
                                  np.array(want_predicted).view(np.int64))
            assert np.array_equal(used, want_used) and np.array_equal(met, want_met)


class TestBlockBound:
    """With ``_BLOCK_ELEMENTS`` at 64, no call of either walk gathers more
    than ``max(v, 64)`` window elements: wrapped ``_convex_combinations``
    and ``gaussian_kernel`` record each call's elements and ``v``."""

    @pytest.mark.parametrize("axis", ["daily", "two-gap", "decimal-year"])
    def test_no_call_exceeds_the_block(self, monkeypatch, axis):
        calls = {"combinations": [], "kernel": []}

        def convex_combinations(weights, windows, rows):
            calls["combinations"].append((windows[rows].size, windows.shape[-1]))
            return combine(weights, windows, rows)

        def gaussian_kernel(a):
            calls["kernel"].append((a.size, a.shape[-1]))
            return kernel(a)

        combine, kernel = grnn._convex_combinations, grnn.gaussian_kernel
        monkeypatch.setattr(grnn, "_BLOCK_ELEMENTS", 64)
        monkeypatch.setattr(grnn, "_convex_combinations", convex_combinations)
        monkeypatch.setattr(grnn, "gaussian_kernel", gaussian_kernel)
        epochs = _axis(axis)
        values = np.cumsum(np.random.default_rng(11).normal(0.0, 1e-3, (3, epochs.size)),
                           axis=1)
        station = station_of(epochs, values)
        walks = {
            "forecast_series": lambda: forecast_series(station, GrnnConfig(20), tuple(Mode)),
            # sizes 20..90, past the block's 64 elements
            "adaptive_forecast_series": lambda: adaptive_forecast_series(
                station, GrnnConfig(20), 4e-4, 90),
        }
        for name, walk in walks.items():
            for seen in calls.values():
                seen.clear()
            walk()
            for function, seen in calls.items():
                assert seen, (name, function)
                assert all(size <= max(v, 64) for size, v in seen), (name, function)


class TestConvexCombinations:
    def test_leaves_its_arguments_and_matches_the_1d_dot(self):
        rng = np.random.default_rng(7)
        # coordinate-sized windows, as (component, window) rows of a station
        windows = 4.0e6 + rng.uniform(-1.0, 1.0, (3, 6, 9))
        weights = rng.dirichlet(np.ones(9), 4)
        rows = np.array([0, 2, 2, 1]), np.array([5, 0, 3, 3])
        kept = windows.copy(), weights.copy()
        for shared in (False, True):
            w = weights[:1] if shared else weights
            got = grnn._convex_combinations(w, windows, rows)
            assert np.array_equal(windows, kept[0]) and np.array_equal(weights, kept[1])
            for j, (c, k) in enumerate(zip(*rows)):
                x = windows[c, k]
                want = x[0] + w[0 if shared else j] @ (x - x[0])
                assert got[j].view(np.int64) == np.float64(want).view(np.int64)


class TestUnderflowMessage:
    # a 46-day gap: the first epoch after it lies 47 days past the window
    EPOCHS = np.concatenate([55000.0 + np.arange(20.0), 55066.0 + np.arange(10.0)])

    def expected(self):
        return ("bandwidth too small: every kernel value underflowed (h=1.0, "
                "nearest distance 47.0 days) predicting component X at MJD 55066.0")

    def station(self):
        return station_of(self.EPOCHS, np.linspace(0.0, 1.0, self.EPOCHS.size))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_forecast_series(self, mode):
        cfg = GrnnConfig(training_size=5, bandwidth=1.0)
        with pytest.raises(BandwidthTooSmallError) as exc:
            forecast_series(self.station(), cfg, (mode,))
        assert str(exc.value) == self.expected()

    @pytest.mark.parametrize("mode", list(Mode))
    def test_forecast_series_stops_at_first_target_beyond_first_block(self, mode):
        # 60- and 130-day gaps: the targets after them (indices 400 and 410)
        # both underflow at h=1 and share a block that is not the first
        epochs = np.concatenate([55000.0 + np.arange(400.0), 55460.0 + np.arange(10.0),
                                 55600.0 + np.arange(100.0)])
        rows = _BLOCK_ELEMENTS // 100
        assert 0 < (400 - 100) // rows == (410 - 100) // rows
        station = station_of(epochs, np.linspace(0.0, 1.0, epochs.size))
        cfg = GrnnConfig(training_size=100, bandwidth=1.0)
        with pytest.raises(BandwidthTooSmallError) as step_exc:
            stepping_walk(station.epochs_mjd, station.components[0], cfg, mode)
        with pytest.raises(BandwidthTooSmallError) as walk_exc:
            forecast_series(station, cfg, (mode,))
        assert str(walk_exc.value) == (
            f"{step_exc.value} predicting component X at MJD 55460.0")
        assert "nearest distance 61.0 days" in str(walk_exc.value)

    def test_adaptive_paths(self):
        cfg = GrnnConfig(training_size=5, bandwidth=1.0)
        with pytest.raises(BandwidthTooSmallError) as loop_exc:
            station = self.station()
            adaptive_predict(station.epochs_mjd, station.components[0], 20, cfg, 1e-3)
        with pytest.raises(BandwidthTooSmallError) as walk_exc:
            adaptive_forecast_series(self.station(), cfg, 1e-3)
        assert str(loop_exc.value) == str(walk_exc.value) == self.expected()


class TestForecastSeries:
    def test_prediction_count(self):
        res = walk_x(np.arange(10.0) + 1.0, np.random.default_rng(0).normal(size=10),
                     GrnnConfig(training_size=3))
        assert len(res) == 7

    def test_constant_series_recursive_exact(self):
        res = walk_x(np.arange(50.0) + 1.0, np.full(50, 2.75),
                     GrnnConfig(training_size=5), Mode.RECURSIVE)
        np.testing.assert_allclose(res, 2.75, rtol=1e-15)
        np.testing.assert_array_equal(2.75 - res, np.zeros(45))

    def test_nothing_to_predict(self):
        station = station_of([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="nothing to predict"):
            forecast_series(station, GrnnConfig(training_size=3))

    def test_mode_changes_the_walk(self):
        epochs = np.arange(40.0) + 1.0
        values = 0.1 * epochs
        cfg = GrnnConfig(training_size=5, bandwidth=1.0)
        rec = walk_x(epochs, values, cfg, Mode.RECURSIVE)
        tf = walk_x(epochs, values, cfg, Mode.TEACHER_FORCED)
        assert not np.allclose(rec, tf)

    def test_matches_manual_stepping_walk(self):
        rng = np.random.default_rng(3)
        epochs = np.sort(rng.choice(400, size=120, replace=False)).astype(float) + 1.0
        values = 4e6 + np.cumsum(rng.normal(0, 1e-3, size=(3, 120)), axis=1)
        station = station_of(epochs, values)
        # both modes of every component, each against its stepping walk
        for bw in (BandwidthRule.WINDOW_STD, BandwidthRule.MEAN_SPACING, 2.0):
            assert assert_station_walks_step(station, GrnnConfig(training_size=7, bandwidth=bw))

    def test_gap_walk_uses_pre_gap_window(self):
        # 12 daily epochs with a 3-day hole after the 6th
        epochs = np.array([1., 2., 3., 4., 5., 6., 10., 11., 12., 13., 14., 15.])
        values = epochs * 0.5
        cfg = GrnnConfig(training_size=4, bandwidth=2.0)
        res = walk_x(epochs, values, cfg, Mode.TEACHER_FORCED)
        assert len(res) == 8
        # the prediction at epoch 10 must come from the pre-gap window {3..6}
        i = int(np.flatnonzero(epochs[4:] == 10.0)[0])
        w = weights_at(epochs[2:6], 10.0, 2.0)
        assert res[i] == pytest.approx(float(w @ values[2:6]), rel=1e-14)
        # step-by-step: the window holding epochs {5,6,10,11} predicts epoch 12
        j = int(np.flatnonzero(epochs[4:] == 12.0)[0])
        w2 = weights_at(epochs[4:8], 12.0, 2.0)
        assert res[j] == pytest.approx(float(w2 @ values[4:8]), rel=1e-14)

    def test_recursive_error_accumulates_on_ramp(self):
        epochs = np.arange(30.0) + 1.0
        res = walk_x(epochs, epochs.copy(), GrnnConfig(training_size=5, bandwidth=1.0),
                     Mode.RECURSIVE)
        errors = np.abs(epochs[5:] - res)[:10]
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
        values = np.cumsum(rng.normal(0.0, 1e-3, (3, epochs.size)), axis=1)
        station = station_of(epochs, values)
        for v, bw in itertools.product(
                (1, 100), (BandwidthRule.WINDOW_STD, BandwidthRule.MEAN_SPACING, 2.0)):
            assert assert_station_walks_step(station, GrnnConfig(training_size=v, bandwidth=bw))

    @pytest.mark.parametrize("offset", [0.0, 4e6], ids=["anomaly", "coordinate"])
    @pytest.mark.parametrize("v", [1, 2, 7, 100, 300])
    def test_recursive_step_matches_stepping_walk(self, v, offset):
        # the step's arithmetic depends on v and the value magnitude, not on
        # the axis; coordinate-sized values catch a step that skips the shift
        # to the window's first value
        epochs = _axis("irregular", length=640)
        values = offset + np.cumsum(np.random.default_rng(9).normal(0.0, 1e-3, (3, epochs.size)),
                                    axis=1)
        assert assert_station_walks_step(station_of(epochs, values),
                                         GrnnConfig(training_size=v), (Mode.RECURSIVE,))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_walk_matches_stepping_walk_on_random_axes(self, data):
        n = data.draw(st.integers(min_value=2, max_value=60))
        v = data.draw(st.integers(min_value=1, max_value=min(10, n - 1)))
        # spacings this even keep every nearest kernel value from underflowing
        spacings = data.draw(st.lists(st.floats(min_value=0.25, max_value=4.0),
                                      min_size=n, max_size=n))
        values = data.draw(st.lists(st.floats(min_value=-1e7, max_value=1e7),
                                    min_size=3 * n, max_size=3 * n))
        bw = data.draw(st.sampled_from([BandwidthRule.WINDOW_STD,
                                        BandwidthRule.MEAN_SPACING, 2.0]))
        mode = data.draw(st.sampled_from(list(Mode)))
        station = station_of(55000.0 + np.cumsum(spacings), np.reshape(values, (3, n)))
        assert assert_station_walks_step(station, GrnnConfig(training_size=v, bandwidth=bw),
                                         (mode,))


class TestStationWalk:
    """One weight pass per station: the walks of every component and mode
    share the kernel weights and keep the bits of the per-component walks."""

    @pytest.mark.parametrize("axis", ["daily", "two-gap", "decimal-year", "irregular", "runs"])
    @pytest.mark.parametrize("bandwidth", [BandwidthRule.WINDOW_STD,
                                           BandwidthRule.MEAN_SPACING, 2.5])
    def test_matches_stepping_walk(self, axis, bandwidth):
        epochs = _axis(axis, length=640)
        # v=100 spans more than three weight blocks
        assert epochs.size - 100 > 3 * (_BLOCK_ELEMENTS // 100)
        # anomaly-sized values: a coordinate-sized offset would round away
        # last-bit differences of the dot product
        values = np.cumsum(np.random.default_rng(9).normal(0.0, 1e-3, (3, epochs.size)),
                           axis=1)
        walked = [assert_station_walks_step(station_of(epochs, values),
                                            GrnnConfig(training_size=v, bandwidth=bandwidth))
                  for v in (1, 2, 7, 100)]
        # two-epoch windows have a 0.5-day window-std, too small to reach
        # across the 20-day gap
        assert walked == [True, not (axis == "two-gap" and bandwidth == "window-std"),
                          True, True]

    def test_mean_centered_station(self):
        epochs = _axis("two-gap")
        rng = np.random.default_rng(4)
        raw = np.array([[4075000.0], [931000.0], [4801000.0]]) + np.cumsum(
            rng.normal(0.0, 1e-3, (3, epochs.size)), axis=1)
        station = station_of(epochs, raw - raw.mean(axis=1, keepdims=True))
        assert assert_station_walks_step(station, GrnnConfig(training_size=7))

    def test_walks_only_the_modes_asked_for(self):
        epochs = _axis("daily", length=40)
        station = station_of(epochs, np.sin(np.arange(3 * 40.0)).reshape(3, 40))
        cfg = GrnnConfig(training_size=5)
        # recursive by default, else each mode alone
        for mode, walks in [(Mode.RECURSIVE, forecast_series(station, cfg)),
                            *((m, forecast_series(station, cfg, (m,))) for m in Mode)]:
            assert list(walks.predicted_m) == [mode]
            assert len(walks) == 3 * 35
            for comp, predicted in zip(station.components, walks.predicted_m[mode]):
                assert np.array_equal(predicted, stepping_walk(station.epochs_mjd, comp, cfg, mode))

    def test_refusals(self):
        epochs = _axis("daily", length=20)
        station = station_of(epochs, np.zeros((3, 20)))
        with pytest.raises(DataError, match="no window-update mode"):
            forecast_series(station, GrnnConfig(training_size=5), modes=())
        with pytest.raises(DataError, match="nothing to predict"):
            forecast_series(station, GrnnConfig(training_size=20))


def settling_steps(station, cfg):
    """Per component, the index of the recursive stepping walk's first
    forecast that closes a window of ``v`` equal nonzero values, or None."""
    v, steps = cfg.training_size, []
    for comp in station.components:
        buffer = np.concatenate([comp.values_m[:v], stepping_walk(station.epochs_mjd, comp, cfg)])
        settled = [j for j in range(buffer.size - v)
                   if buffer[j + v] != 0.0 and np.all(buffer[j + 1:j + v + 1] == buffer[j + v])]
        steps.append(settled[0] if settled else None)
    return steps


class TestFixedPoint:
    """A recursive walk whose window holds ``v`` equal nonzero values keeps
    forecasting that value exactly; the walk writes it out instead of
    stepping, with the bits of the stepping walk."""

    V = 200
    C = 4075000.25

    def station(self, epochs, seed_heads):
        """Per component, a seed window of ``head`` values 0.01 m above
        ``C`` and then ``v - head`` copies of ``C``. At a 1-day bandwidth
        the head lies too far back to get any weight, so every forecast is
        ``C`` and the walk settles at step ``head``. The observations after
        the seed differ from ``C``, so a forecast left unwritten shows."""
        values = np.full((3, epochs.size), self.C)
        values[:, self.V:] -= 0.5
        for row, head in zip(values, seed_heads):
            row[:head] += 0.01
        return station_of(epochs, values)

    @pytest.mark.parametrize("axis", ["daily", "gap-after-settling"])
    @pytest.mark.parametrize("seed_heads", [(40, 80, 81), (0, 40, 80)],
                             ids=["mid-block-and-boundary", "constant-seed"])
    def test_settles_with_the_stepping_walks_bits(self, axis, seed_heads):
        # the walk finds a settled component one step after the forecast that
        # closes its constant window, at step head (step 0 for a constant seed)
        rows = _BLOCK_ELEMENTS // self.V
        assert rows == 81  # head 80 is found on a block's last row, 81 on the next one's first
        epochs = 55000.0 + np.arange(600.0)
        if axis == "gap-after-settling":
            # a 5-day hole in the third block: new weights, the same constant
            epochs[self.V + 2 * rows + 10:] += 5.0
        station = self.station(epochs, seed_heads)
        cfg = GrnnConfig(training_size=self.V, bandwidth=1.0)
        assert settling_steps(station, cfg) == [max(h - 1, 0) for h in seed_heads]
        assert assert_station_walks_step(station, cfg)

    def test_constant_window_closed_by_the_last_target(self):
        # X's last forecast closes its constant window, so no later step finds
        # it settled and every target is stepped; Y and Z settle before
        epochs = 55000.0 + np.arange(self.V + 40.0)
        station = self.station(epochs, (40, 20, 0))
        cfg = GrnnConfig(training_size=self.V, bandwidth=1.0)
        assert settling_steps(station, cfg) == [epochs.size - self.V - 1, 19, 0]
        assert assert_station_walks_step(station, cfg)

    def test_underflow_after_settling(self):
        # a 46-day gap three blocks in: the walks settled long before it
        epochs = 55000.0 + np.arange(600.0)
        epochs[self.V + 250:] += 45.0
        station = self.station(epochs, (40, 81, 82))
        cfg = GrnnConfig(training_size=self.V, bandwidth=1.0)
        with pytest.raises(BandwidthTooSmallError) as exc:
            forecast_series(station, cfg)
        assert str(exc.value) == (
            "bandwidth too small: every kernel value underflowed (h=1.0, nearest distance "
            "46.0 days) predicting component X at MJD 55495.0")
        assert not assert_station_walks_step(station, cfg)

    @pytest.mark.parametrize("v", [1, 2, 7])
    @pytest.mark.parametrize("zeros", ["+0.0", "-0.0", "mixed"])
    def test_zero_windows(self, v, zeros):
        # -0.0 + 0.0 is +0.0: a window of zeros must be stepped, not copied
        signs = {"+0.0": [1.0], "-0.0": [-1.0], "mixed": [1.0, -1.0, -1.0]}[zeros]
        epochs = 55000.0 + np.arange(40.0)
        zero_row = np.resize(np.copysign(0.0, signs), epochs.size)
        station = station_of(epochs, [zero_row, -zero_row, np.full(epochs.size, 2.5)])
        cfg = GrnnConfig(training_size=v)
        assert settling_steps(station, cfg)[2] == 0
        assert assert_station_walks_step(station, cfg, (Mode.RECURSIVE,))

    def test_first_forecast_repeating_an_unsettled_seed(self):
        # the first forecast rounds to the seed's last value while the window
        # still holds two other values, which the next forecast weighs
        distances = np.array([3.0, 2.0, 1.0])
        _, (w3, w2, _) = predict(distances, np.zeros(3), 2.0)
        head = 1.0 - w2 / w3 * 0.5  # w3 (head - 1) + w2 (1.5 - 1) = 0
        for _ in range(100):
            first = predict(distances, np.array([head, 1.5, 1.0]), 2.0)[0]
            if first == 1.0:
                break
            head = np.nextafter(head, 2.0 if first < 1.0 else 0.0)
        station = station_of(55000.0 + np.arange(30.0), np.append([head, 1.5], np.ones(28)))
        cfg = GrnnConfig(training_size=3, bandwidth=2.0)
        predicted = stepping_walk(station.epochs_mjd, station.components[0], cfg)
        assert predicted[0] == 1.0 != predicted[1]
        assert assert_station_walks_step(station, cfg)

    def test_length_one_window_settles_at_once(self):
        epochs = _axis("irregular", length=300)
        values = np.cumsum(np.random.default_rng(2).normal(0.0, 1e-3, (3, epochs.size)), axis=1)
        cfg = GrnnConfig(training_size=1)
        station = station_of(epochs, values)
        assert settling_steps(station, cfg) == [0, 0, 0]
        assert assert_station_walks_step(station, cfg)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_overflowing_walk_is_refused(self, mode):
        # the seed's span overflows: the stepping walk reaches two equal
        # infinities, and inf - inf makes the next forecast NaN; the station
        # walk refuses its first forecast, whether it settles on the
        # infinities or steps
        epochs = 55000.0 + np.arange(12.0)
        station = station_of(epochs, np.tile([-1e308, 1e308], 6))
        cfg = GrnnConfig(training_size=2)
        with np.errstate(over="ignore", invalid="ignore"):
            predicted = stepping_walk(station.epochs_mjd, station.components[0], cfg, mode)
        assert np.isinf(predicted[:2]).all()
        with pytest.raises(NumericError) as exc:
            forecast_series(station, cfg, (mode,))
        assert type(exc.value) is NumericError
        assert str(exc.value) == (f"kernel forecast is not finite ({float(predicted[0])!r}) "
                                  "predicting component X at MJD 55002.0")


class TestStationUnderflow:
    """A station underflow is the error the per-component stepping walks
    raise first, which is component X's since the weights are shared."""

    # 60- and 130-day gaps: the targets after them underflow at h=1 and
    # share a block that is not the first
    EPOCHS = np.concatenate([55000.0 + np.arange(400.0), 55460.0 + np.arange(10.0),
                             55600.0 + np.arange(100.0)])

    def station(self):
        values = np.linspace(0.0, 1.0, 3 * self.EPOCHS.size).reshape(3, -1)
        return station_of(self.EPOCHS, values, station_id="GAPPY")

    def first_component_error(self, cfg, mode=Mode.RECURSIVE):
        """The first stepping-walk error, in X, Y, Z order, as a station walk
        words it: every walk stops at the first target after the 60-day gap."""
        station = self.station()
        for comp in station.components:
            try:
                stepping_walk(station.epochs_mjd, comp, cfg, mode)
            except BandwidthTooSmallError as exc:
                return BandwidthTooSmallError(
                    f"{exc} predicting component {comp.component.value} at MJD 55460.0")
        raise AssertionError("no component underflowed")

    @pytest.mark.parametrize("modes", [(Mode.RECURSIVE,), (Mode.TEACHER_FORCED,),
                                       tuple(Mode)])
    def test_station_walk(self, modes):
        cfg = GrnnConfig(training_size=100, bandwidth=1.0)
        first = self.first_component_error(cfg, modes[0])
        assert str(first).endswith("predicting component X at MJD 55460.0")
        with pytest.raises(BandwidthTooSmallError) as exc:
            forecast_series(self.station(), cfg, modes)
        assert type(exc.value) is type(first)
        assert str(exc.value) == str(first)

    def test_sweep_and_evaluation(self):
        cfg = GrnnConfig(training_size=100, bandwidth=1.0)
        first = self.first_component_error(cfg)
        with pytest.raises(BandwidthTooSmallError) as sweep_exc:
            run_sweep(self.station(), [100], cfg.bandwidth)
        assert str(sweep_exc.value) == f"station GAPPY: training size 100: {first}"
        with pytest.raises(BandwidthTooSmallError) as eval_exc:
            evaluate_station(self.station(), cfg)
        assert str(eval_exc.value) == f"station GAPPY: {first}"


def huge_station(rows):
    """40 daily epochs; the components in ``rows`` alternate between +1e308
    and -1e308, so a window's deviations from its first value overflow,
    and the others are a gentle line."""
    values = np.tile(1.0 + 1e-3 * np.arange(40.0), (3, 1))
    values[list(rows)] = np.tile([1e308, -1e308], 20)
    return station_of(55000.0 + np.arange(40.0), values, station_id="HUGE")


def first_non_finite(predicted):
    """The index and value of the first forecast that is not finite."""
    j = int(np.flatnonzero(~np.isfinite(predicted))[0])
    return j, float(predicted[j])


class TestNonFiniteForecast:
    """A kernel walk refuses its first forecast that is not finite, taking
    the components in X, Y, Z order, and its overflows stay silent: a
    warning would fail these tests before the error is seen."""

    ROWS = [(0,), (1,), (2,), (1, 2)]

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("rows", ROWS)
    def test_forecast_series(self, rows, mode):
        station = huge_station(rows)
        comp = station.components[rows[0]]
        cfg = GrnnConfig(training_size=5)
        with np.errstate(over="ignore", invalid="ignore"):
            j, value = first_non_finite(stepping_walk(station.epochs_mjd, comp, cfg, mode))
        with pytest.raises(NumericError) as exc:
            forecast_series(station, cfg, (mode,))
        assert str(exc.value) == (
            f"kernel forecast is not finite ({value!r}) predicting component "
            f"{comp.component.value} at MJD {55005.0 + j!r}")

    @pytest.mark.parametrize("rows", ROWS)
    def test_adaptive_search(self, rows):
        station = huge_station(rows)
        comp = station.components[rows[0]]
        cfg = GrnnConfig(training_size=5)
        with np.errstate(over="ignore", invalid="ignore"):
            predicted, _, _ = loop_reference(station.epochs_mjd, comp, cfg, 1e-3, 8)
        j, value = first_non_finite(np.array(predicted))
        with pytest.raises(NumericError) as exc:
            adaptive_forecast_series(station, cfg, 1e-3, 8)
        assert str(exc.value) == (
            f"kernel forecast is not finite ({value!r}) predicting component "
            f"{comp.component.value} at MJD {55005.0 + j!r}")

    def test_named_with_the_station(self):
        with pytest.raises(NumericError) as sweep_exc:
            run_sweep(huge_station((1,)), [5])
        assert str(sweep_exc.value).startswith(
            "station HUGE: training size 5: kernel forecast is not finite (")
        with pytest.raises(NumericError) as eval_exc:
            evaluate_station(huge_station((1,)), GrnnConfig(training_size=5))
        assert str(eval_exc.value).startswith("station HUGE: kernel forecast is not finite (")
        assert str(eval_exc.value).endswith(" predicting component Y at MJD 55005.0")
