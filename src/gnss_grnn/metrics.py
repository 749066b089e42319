"""Accuracy criteria over prediction/truth pairs: sMAPE, StD, MAbs.

Residuals are defined as truth minus prediction. sMAPE uses per-pair
denominators ``|y| + |yhat|``, is averaged over the pairs and scaled to
percent; the classical factor-2 variant is deliberately not used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedMetricError


@dataclass(frozen=True)
class PredictionPairs:
    """Aligned predictions and observed truths, both in meters."""

    predicted_m: np.ndarray
    observed_m: np.ndarray

    def __post_init__(self) -> None:
        pred = np.asarray(self.predicted_m, dtype=np.float64)
        obs = np.asarray(self.observed_m, dtype=np.float64)
        if pred.ndim != 1 or pred.shape != obs.shape:
            raise DataError("predicted and observed must be 1-d and equally long")
        if pred.size < 1:
            raise DataError("need at least one prediction pair")
        if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(obs))):
            raise DataError("prediction pairs must be finite")
        for name, a in (("predicted_m", pred), ("observed_m", obs)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return int(self.predicted_m.size)

    @property
    def residuals_m(self) -> np.ndarray:
        """Residuals, truth minus prediction."""
        return self.observed_m - self.predicted_m


@dataclass(frozen=True)
class MetricsReport:
    """The three accuracy criteria plus the residuals they came from.

    Residuals are retained for audit only; serializers emit the scalar
    criteria and the pair count.
    """

    smape_percent: float
    std_m: float
    mabs_m: float
    n: int
    residuals_m: np.ndarray


def smape(pairs: PredictionPairs) -> float:
    """Symmetric mean absolute percentage error, in percent.

    Every term is bounded by 1 before scaling, so the result lies in
    [0, 100]. A pair with ``|y| + |yhat| == 0`` has no defined term and
    raises rather than being skipped: silently dropping terms would bias
    the criterion.
    """
    denom = np.abs(pairs.observed_m) + np.abs(pairs.predicted_m)
    zero = np.flatnonzero(denom == 0.0)
    if zero.size:
        i = int(zero[0])
        raise UndefinedMetricError(
            f"undefined sMAPE term at index {i}: |y| + |yhat| is zero", index=i
        )
    terms = np.abs(pairs.residuals_m) / denom
    return float(100.0 * terms.mean())


def std_of_errors(pairs: PredictionPairs) -> float:
    """Sample standard deviation of the residuals (N - 1 divisor), meters."""
    if pairs.n < 2:
        raise UndefinedMetricError("StD undefined for fewer than 2 pairs")
    return float(np.std(pairs.residuals_m, ddof=1))


def mean_abs_error(pairs: PredictionPairs) -> float:
    """Mean of absolute residuals, meters."""
    return float(np.abs(pairs.residuals_m).mean())


def compute_report(pairs: PredictionPairs) -> MetricsReport:
    """Evaluate all three criteria over one set of pairs."""
    return MetricsReport(
        smape_percent=smape(pairs),
        std_m=std_of_errors(pairs),
        mabs_m=mean_abs_error(pairs),
        n=pairs.n,
        residuals_m=pairs.residuals_m,
    )
