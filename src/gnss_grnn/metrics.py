"""Accuracy criteria over prediction/truth pairs: sMAPE, StD, MAbs.

Each criterion takes two aligned 1-d arrays, predictions and observed
truths in meters, and leaves both as given. Residuals are defined as
truth minus prediction, and a criterion whose float64 arithmetic
overflows is refused. sMAPE uses per-pair denominators
``|y| + |yhat|``, is averaged over the pairs and scaled to percent; the
classical factor-2 variant is deliberately not used.
:func:`compute_report` gives the three as a dict, the metrics block
``report.json`` writes. :data:`CRITERIA` is the table of the three: its
keys are the ones that averages, ratios and printed rows read from any
such mapping.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, UndefinedMetricError

#: The three criteria in reporting order. Each row is a criterion's key,
#: the label the CLI prints, the key of its kernel-over-Theta ratio and
#: its CSV format.
CRITERIA = (
    ("smape_percent", "sMAPE", "smape_ratio", ".6e"),
    ("std_m", "StD", "std_ratio", ".6f"),
    ("mabs_m", "MAbs", "mabs_ratio", ".6f"),
)

#: The printed label of each ratio key.
RATIO_LABELS = {ratio_key: label for _, label, ratio_key, _ in CRITERIA}


def printed(criteria: Mapping[str, float]) -> list[str]:
    """The criteria as the CSV writers print them (lossy).

    sMAPE is in exponent form: fixed-point would print 0.000000 for
    earth-centered magnitudes.
    """
    return [format(criteria[key], fmt) for key, _, _, fmt in CRITERIA]


def mean_criteria(items: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Each criterion averaged over ``items``, by key."""
    return {key: float(np.mean([c[key] for c in items])) for key, *_ in CRITERIA}


def criteria_ratios(num: Mapping[str, float],
                    den: Mapping[str, float]) -> dict[str, float | None]:
    """``num / den`` per criterion, by ratio key; ``None`` where ``den`` is 0."""
    return {
        ratio_key: None if den[key] == 0.0 else num[key] / den[key]
        for key, _, ratio_key, _ in CRITERIA
    }


def _pairs(predicted_m: np.ndarray, observed_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two arrays as float64, once they are checked to be 1-d, equally
    long, non-empty and finite; the caller's arrays are not changed."""
    pred = np.asarray(predicted_m, dtype=np.float64)
    obs = np.asarray(observed_m, dtype=np.float64)
    if pred.ndim != 1 or pred.shape != obs.shape:
        raise DataError("predicted and observed must be 1-d and equally long")
    if pred.size < 1:
        raise DataError("need at least one prediction pair")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(obs))):
        raise DataError("prediction pairs must be finite")
    return pred, obs


def _finite(label: str, value: float) -> float:
    """``value``, the criterion ``label``, as a float once it is finite;
    the pairs are finite, so only their residuals can have overflowed."""
    if not np.isfinite(value):
        raise UndefinedMetricError(
            f"{label} is not finite ({float(value)!r}): the residuals overflow float64")
    return float(value)


@np.errstate(over="ignore", invalid="ignore")
def smape(predicted_m: np.ndarray, observed_m: np.ndarray) -> float:
    """Symmetric mean absolute percentage error, in percent.

    Every term is bounded by 1 before scaling, so the result lies in
    [0, 100]. A pair with ``|y| + |yhat| == 0`` has no defined term and
    raises rather than being skipped: silently dropping terms would bias
    the criterion. The error's ``index`` is that pair's position.
    """
    pred, obs = _pairs(predicted_m, observed_m)
    denom = np.abs(obs) + np.abs(pred)
    zero = np.flatnonzero(denom == 0.0)
    if zero.size:
        i = int(zero[0])
        raise UndefinedMetricError(
            f"undefined sMAPE term at index {i}: |y| + |yhat| is zero", index=i
        )
    terms = np.abs(obs - pred) / denom
    return _finite("sMAPE", 100.0 * terms.mean())


@np.errstate(over="ignore", invalid="ignore")
def std_of_errors(predicted_m: np.ndarray, observed_m: np.ndarray) -> float:
    """Sample standard deviation of the residuals (N - 1 divisor), meters."""
    pred, obs = _pairs(predicted_m, observed_m)
    if pred.size < 2:
        raise UndefinedMetricError("StD undefined for fewer than 2 pairs")
    return _finite("StD", np.std(obs - pred, ddof=1))


@np.errstate(over="ignore", invalid="ignore")
def mean_abs_error(predicted_m: np.ndarray, observed_m: np.ndarray) -> float:
    """Mean of absolute residuals, meters."""
    pred, obs = _pairs(predicted_m, observed_m)
    return _finite("MAbs", np.abs(obs - pred).mean())


def compute_report(predicted_m: np.ndarray, observed_m: np.ndarray) -> dict[str, float | int]:
    """All three criteria over one set of pairs, and how many pairs:
    ``smape_percent``, ``std_m``, ``mabs_m`` and ``n``, in that order.
    A criterion that is undefined or not finite is refused by name."""
    pred, obs = _pairs(predicted_m, observed_m)
    return {
        "smape_percent": smape(pred, obs),
        "std_m": std_of_errors(pred, obs),
        "mabs_m": mean_abs_error(pred, obs),
        "n": pred.size,
    }
