"""Accuracy criteria over prediction/truth pairs: sMAPE, StD, MAbs.

Residuals are defined as truth minus prediction. sMAPE uses per-pair
denominators ``|y| + |yhat|``, is averaged over the pairs and scaled to
percent; the classical factor-2 variant is deliberately not used.
:func:`compute_report` gives the three as a dict, the metrics block
``report.json`` writes. :class:`Criteria` is the table of the three: its
fields name the keys that averages, ratios and printed rows read from
any such mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

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


def _criterion(label: str, ratio_key: str, fmt: str):
    return field(metadata={"label": label, "ratio_key": ratio_key, "format": fmt})


@dataclass(frozen=True)
class Criteria:
    """The table of the three accuracy criteria, in reporting order.

    Each field names a criterion's key and carries the label the CLI
    prints, the key of its kernel-over-Theta ratio and its CSV format.
    """

    smape_percent: float = _criterion("sMAPE", "smape_ratio", ".6e")
    std_m: float = _criterion("StD", "std_ratio", ".6f")
    mabs_m: float = _criterion("MAbs", "mabs_ratio", ".6f")


#: The criterion fields, in reporting order.
CRITERIA = fields(Criteria)

#: The printed label of each ratio key.
RATIO_LABELS = {f.metadata["ratio_key"]: f.metadata["label"] for f in CRITERIA}


def printed(criteria: Mapping[str, float]) -> list[str]:
    """The criteria as the CSV writers print them (lossy).

    sMAPE is in exponent form: fixed-point would print 0.000000 for
    earth-centered magnitudes.
    """
    return [format(criteria[f.name], f.metadata["format"]) for f in CRITERIA]


def mean_criteria(items: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Each criterion averaged over ``items``, by field name."""
    return {f.name: float(np.mean([c[f.name] for c in items])) for f in CRITERIA}


def criteria_ratios(num: Mapping[str, float],
                    den: Mapping[str, float]) -> dict[str, float | None]:
    """``num / den`` per criterion, by ratio key; ``None`` where ``den`` is 0."""
    return {
        f.metadata["ratio_key"]: None if den[f.name] == 0.0 else num[f.name] / den[f.name]
        for f in CRITERIA
    }


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


def compute_report(pairs: PredictionPairs) -> dict[str, float | int]:
    """All three criteria over one set of pairs, and how many pairs:
    ``smape_percent``, ``std_m``, ``mabs_m`` and ``n``, in that order."""
    return {
        "smape_percent": smape(pairs),
        "std_m": std_of_errors(pairs),
        "mabs_m": mean_abs_error(pairs),
        "n": pairs.n,
    }
