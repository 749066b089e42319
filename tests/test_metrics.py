"""sMAPE / StD / MAbs criteria."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnss_grnn import (
    DataError,
    UndefinedMetricError,
    compute_report,
    mean_abs_error,
    smape,
    std_of_errors,
)

from oracles import std_two_pass_fsum


def pairs(pred, obs):
    return np.asarray(pred, float), np.asarray(obs, float)


class TestSmape:
    def test_perfect_predictions(self):
        assert smape(*pairs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])) == 0.0

    def test_single_pair_hand_value(self):
        assert smape(*pairs([3.0], [1.0])) == pytest.approx(50.0, rel=1e-15)

    def test_two_pair_hand_value(self):
        value = smape(*pairs([1.0, 0.5], [1.0, 1.0]))
        assert value == pytest.approx(100.0 * (0.0 + 0.5 / 1.5) / 2.0, rel=1e-14)
        assert value == pytest.approx(16.666666666666668, rel=1e-12)

    def test_zero_denominator_identifies_index(self):
        with pytest.raises(UndefinedMetricError, match="index 1"):
            smape(*pairs([1.0, 0.0, 2.0], [1.0, 0.0, 2.0]))

    def test_bounded_by_100(self):
        assert smape(*pairs([-5.0], [5.0])) == pytest.approx(100.0)

    def test_pairs_whose_denominator_overflows(self):
        # |y| + |yhat| overflows; the pair halved gives the term of the
        # same pair scaled down by 10, and -1e308 vs 1e308 its bound of 1
        assert smape(*pairs([1e308, 1.0], [1.5e308, 1.0])) == 10.0
        assert smape(*pairs([1e307, 0.1], [1.5e307, 0.1])) == 10.0
        assert smape(*pairs([-1e308, 1.0], [1e308, 1.0])) == 50.0
        # a term that does not overflow keeps its bits
        assert smape(*pairs([1e308, 1.0], [1.5e308, 3.0])) == 100.0 * np.mean([0.2, 0.5])

    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_free(self, scale, seed):
        rng = np.random.default_rng(seed)
        obs = rng.uniform(1.0, 2.0, size=20)
        pred = obs + rng.uniform(-0.1, 0.1, size=20)
        assert smape(*pairs(pred * scale, obs * scale)) == pytest.approx(
            smape(*pairs(pred, obs)), rel=1e-9
        )


class TestStd:
    def test_equal_residuals(self):
        assert std_of_errors(*pairs([1.0, 2.0], [3.0, 4.0])) == 0.0

    def test_hand_values(self):
        assert std_of_errors(*pairs([1.0, -1.0], [0.0, 0.0])) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )
        assert std_of_errors(*pairs([0.0, 0.0, 0.0], [0.0, 0.0, 3.0])) == pytest.approx(
            math.sqrt(3.0), rel=1e-14
        )

    def test_needs_two_pairs(self):
        with pytest.raises(UndefinedMetricError, match="StD undefined"):
            std_of_errors(*pairs([1.0], [2.0]))

    def test_matches_compensated_two_pass_on_large_n(self):
        rng = np.random.default_rng(77)
        residuals = rng.normal(loc=0.3, scale=1e-3, size=1_000_000)
        p = pairs(np.zeros_like(residuals), residuals)
        assert std_of_errors(*p) == pytest.approx(std_two_pass_fsum(residuals), rel=1e-12)


class TestMabs:
    def test_perfect(self):
        assert mean_abs_error(*pairs([2.0, 3.0], [2.0, 3.0])) == 0.0

    def test_hand_values(self):
        assert mean_abs_error(*pairs([1.0, -1.0], [0.0, 0.0])) == pytest.approx(1.0)
        assert mean_abs_error(*pairs([0.0], [0.03])) == pytest.approx(0.03)


class TestReportAndInvariances:
    def test_report_bundles_everything(self):
        p = pairs([1.0, 2.0, 2.5], [1.5, 2.0, 2.0])
        report = compute_report(*p)
        assert report == {"smape_percent": smape(*p), "std_m": std_of_errors(*p),
                          "mabs_m": mean_abs_error(*p), "n": 3}

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
        assert std_of_errors(*b) == pytest.approx(std_of_errors(*a), rel=1e-9, abs=1e-12)
        assert mean_abs_error(*b) == pytest.approx(mean_abs_error(*a), rel=1e-9, abs=1e-12)

    def test_prediction_only_shift(self):
        rng = np.random.default_rng(8)
        obs = rng.uniform(10.0, 20.0, size=25)
        pred = obs + rng.uniform(-0.5, 0.5, size=25)
        c = 0.25
        base, shifted = pairs(pred, obs), pairs(pred + c, obs)
        # residuals shift uniformly: dispersion unchanged, bias moves by <= |c|
        assert std_of_errors(*shifted) == pytest.approx(std_of_errors(*base), rel=1e-12)
        assert abs(mean_abs_error(*shifted) - mean_abs_error(*base)) <= abs(c) + 1e-12

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
        assert std_of_errors(*b) == pytest.approx(s * std_of_errors(*a), rel=1e-9)
        assert mean_abs_error(*b) == pytest.approx(s * mean_abs_error(*a), rel=1e-9)
        assert smape(*b) == pytest.approx(smape(*a), rel=1e-9)

    def test_validation(self):
        with pytest.raises(DataError):
            compute_report(np.array([]), np.array([]))
        with pytest.raises(DataError):
            compute_report(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
        with pytest.raises(DataError):
            compute_report(np.array([1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("criterion", [smape, std_of_errors, mean_abs_error,
                                           compute_report])
    @pytest.mark.parametrize("pred, obs, message", [
        ([[1.0, 2.0]], [[1.0, 2.0]], "predicted and observed must be 1-d and equally long"),
        ([1.0], [1.0, 2.0], "predicted and observed must be 1-d and equally long"),
        ([], [], "need at least one prediction pair"),
        ([1.0, np.inf], [1.0, 2.0], "prediction pairs must be finite"),
        ([1.0, 2.0], [np.nan, 2.0], "prediction pairs must be finite"),
    ])
    def test_every_criterion_checks_its_pairs(self, criterion, pred, obs, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            criterion(np.array(pred), np.array(obs))

    def test_scoring_leaves_its_inputs_alone(self):
        a, b = np.array([1.0, 2.0, -0.5]), np.array([1.5, 2.5, 0.25])
        before = a.view(np.int64).copy(), b.view(np.int64).copy()
        compute_report(a, b)
        for array, bits in zip((a, b), before):
            assert array.flags.writeable
            assert np.array_equal(array.view(np.int64), bits)


@pytest.mark.parametrize("criterion, label, pred, obs, value, first", [
    # a residual itself overflows, so no scaling can recover the criterion;
    # sMAPE takes that pair halved and stays finite, so the report stops at StD
    (std_of_errors, "StD", [-1e308, 1.0], [1e308, 1.0], "nan", "StD"),
    (mean_abs_error, "MAbs", [-1e308, 1.0], [1e308, 1.0], "inf", "StD"),
])
def test_a_criterion_that_overflows_is_refused(criterion, label, pred, obs, value, first):
    # the overflow itself stays silent: a warning would fail this test first
    with pytest.raises(UndefinedMetricError) as exc:
        criterion(np.array(pred), np.array(obs))
    assert str(exc.value) == f"{label} is not finite ({value}): the residuals overflow float64"
    assert exc.value.index is None
    # the report is refused at the first criterion, in report order, that is not finite
    with pytest.raises(UndefinedMetricError, match=f"^{first} is not finite "):
        compute_report(np.array(pred), np.array(obs))


def test_a_criterion_beyond_float64_on_finite_residuals_is_refused():
    # the residuals are finite, but their StD, sqrt(2) * 1.7e308, is not
    with pytest.raises(UndefinedMetricError) as exc:
        std_of_errors(np.zeros(2), np.array([1.7e308, -1.7e308]))
    assert str(exc.value) == "StD is not finite (inf): StD itself exceeds float64"
    assert exc.value.index is None


def test_large_finite_criteria_are_kept():
    report = compute_report(np.array([0.0, 0.0]), np.array([1e150, -1e150]))
    assert report["smape_percent"] == 100.0
    assert report["mabs_m"] == 1e150
    assert report["std_m"] == pytest.approx(math.sqrt(2.0) * 1e150, rel=1e-15)
    # finite residuals whose squares or sum overflow: the criterion is taken
    # on the residuals scaled by their largest magnitude
    report = compute_report(np.array([0.0, 0.0]), np.array([1e300, -1e300]))
    assert report["mabs_m"] == 1e300
    assert report["std_m"] == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
    report = compute_report(np.zeros(2), np.array([1.5e308, 1.5e308]))
    assert report["mabs_m"] == 1.5e308
    assert report["std_m"] == 0.0
    assert std_of_errors(np.zeros(3), np.array([1.5e308, -1.5e308, 1.0])) == \
        pytest.approx(1.5e308, rel=1e-15)
