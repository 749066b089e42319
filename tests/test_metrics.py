"""sMAPE / StD / MAbs criteria."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnss_grnn import (
    DataError,
    PredictionPairs,
    UndefinedMetricError,
    compute_report,
    mean_abs_error,
    smape,
    std_of_errors,
)

from oracles import std_two_pass_fsum


def pairs(pred, obs):
    return PredictionPairs(np.asarray(pred, float), np.asarray(obs, float))


class TestSmape:
    def test_perfect_predictions(self):
        assert smape(pairs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])) == 0.0

    def test_single_pair_hand_value(self):
        assert smape(pairs([3.0], [1.0])) == pytest.approx(50.0, rel=1e-15)

    def test_two_pair_hand_value(self):
        value = smape(pairs([1.0, 0.5], [1.0, 1.0]))
        assert value == pytest.approx(100.0 * (0.0 + 0.5 / 1.5) / 2.0, rel=1e-14)
        assert value == pytest.approx(16.666666666666668, rel=1e-12)

    def test_zero_denominator_identifies_index(self):
        with pytest.raises(UndefinedMetricError, match="index 1"):
            smape(pairs([1.0, 0.0, 2.0], [1.0, 0.0, 2.0]))

    def test_bounded_by_100(self):
        assert smape(pairs([-5.0], [5.0])) == pytest.approx(100.0)

    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_free(self, scale, seed):
        rng = np.random.default_rng(seed)
        obs = rng.uniform(1.0, 2.0, size=20)
        pred = obs + rng.uniform(-0.1, 0.1, size=20)
        assert smape(pairs(pred * scale, obs * scale)) == pytest.approx(
            smape(pairs(pred, obs)), rel=1e-9
        )


class TestStd:
    def test_equal_residuals(self):
        assert std_of_errors(pairs([1.0, 2.0], [3.0, 4.0])) == 0.0

    def test_hand_values(self):
        assert std_of_errors(pairs([1.0, -1.0], [0.0, 0.0])) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )
        assert std_of_errors(pairs([0.0, 0.0, 0.0], [0.0, 0.0, 3.0])) == pytest.approx(
            math.sqrt(3.0), rel=1e-14
        )

    def test_needs_two_pairs(self):
        with pytest.raises(UndefinedMetricError, match="StD undefined"):
            std_of_errors(pairs([1.0], [2.0]))

    def test_matches_compensated_two_pass_on_large_n(self):
        rng = np.random.default_rng(77)
        residuals = rng.normal(loc=0.3, scale=1e-3, size=1_000_000)
        p = pairs(np.zeros_like(residuals), residuals)
        assert std_of_errors(p) == pytest.approx(std_two_pass_fsum(residuals), rel=1e-12)


class TestMabs:
    def test_perfect(self):
        assert mean_abs_error(pairs([2.0, 3.0], [2.0, 3.0])) == 0.0

    def test_hand_values(self):
        assert mean_abs_error(pairs([1.0, -1.0], [0.0, 0.0])) == pytest.approx(1.0)
        assert mean_abs_error(pairs([0.0], [0.03])) == pytest.approx(0.03)


class TestReportAndInvariances:
    def test_report_bundles_everything(self):
        p = pairs([1.0, 2.0, 2.5], [1.5, 2.0, 2.0])
        report = compute_report(p)
        assert report.n == 3
        assert report.smape_percent == pytest.approx(smape(p))
        assert report.std_m == pytest.approx(std_of_errors(p))
        assert report.mabs_m == pytest.approx(mean_abs_error(p))
        np.testing.assert_array_equal(report.residuals_m, p.residuals_m)

    @given(
        c=st.floats(min_value=-1e3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_joint_shift_leaves_all_unchanged(self, c, seed):
        rng = np.random.default_rng(seed)
        obs = rng.uniform(10.0, 20.0, size=15)
        pred = obs + rng.uniform(-0.5, 0.5, size=15)
        a, b = pairs(pred, obs), pairs(pred + c, obs + c)
        assert std_of_errors(b) == pytest.approx(std_of_errors(a), rel=1e-9, abs=1e-12)
        assert mean_abs_error(b) == pytest.approx(mean_abs_error(a), rel=1e-9, abs=1e-12)

    def test_prediction_only_shift(self):
        rng = np.random.default_rng(8)
        obs = rng.uniform(10.0, 20.0, size=25)
        pred = obs + rng.uniform(-0.5, 0.5, size=25)
        c = 0.25
        base, shifted = pairs(pred, obs), pairs(pred + c, obs)
        # residuals shift uniformly: dispersion unchanged, bias moves by <= |c|
        assert std_of_errors(shifted) == pytest.approx(std_of_errors(base), rel=1e-12)
        assert abs(mean_abs_error(shifted) - mean_abs_error(base)) <= abs(c) + 1e-12

    @given(
        s=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_joint_scale(self, s, seed):
        rng = np.random.default_rng(seed)
        obs = rng.uniform(1.0, 2.0, size=12)
        pred = obs + rng.uniform(-0.2, 0.2, size=12)
        a, b = pairs(pred, obs), pairs(pred * s, obs * s)
        assert std_of_errors(b) == pytest.approx(s * std_of_errors(a), rel=1e-9)
        assert mean_abs_error(b) == pytest.approx(s * mean_abs_error(a), rel=1e-9)
        assert smape(b) == pytest.approx(smape(a), rel=1e-9)

    def test_validation(self):
        with pytest.raises(DataError):
            PredictionPairs(np.array([]), np.array([]))
        with pytest.raises(DataError):
            PredictionPairs(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
        with pytest.raises(DataError):
            PredictionPairs(np.array([1.0]), np.array([1.0, 2.0]))
