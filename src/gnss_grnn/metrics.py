"""Accuracy criteria over prediction/truth pairs: sMAPE, StD, MAbs.

Each criterion takes two aligned 1-d arrays, predictions and observed
truths in meters, and leaves both as given. Residuals are defined as
truth minus prediction. A criterion is refused when a residual, or the
criterion itself, overflows float64; StD and MAbs rescale finite
residuals whose squares or sum overflow. sMAPE uses per-pair denominators
``|y| + |yhat|``, is averaged over the pairs and scaled to percent; the
classical factor-2 variant is deliberately not used.
:func:`compute_report` gives the three as a dict, the metrics block
``report.json`` writes. :data:`CRITERIA` is the table of the three: its
keys are the ones that averages, ratios and printed rows read from any
such mapping.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

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


def _criterion(label: str, measure: Callable[[np.ndarray], float],
               terms: np.ndarray) -> float:
    """``measure(terms)``, the criterion ``label``, as a float once it is
    finite. ``measure`` scales with its terms, so when it overflows on
    finite terms it is taken on them divided by their largest magnitude
    and scaled back; a finite result keeps its bits. The refusal blames
    the residuals when one of them is not finite, and the criterion
    itself otherwise."""
    value = measure(terms)
    finite_terms = bool(np.all(np.isfinite(terms)))
    if not np.isfinite(value) and finite_terms:
        scale = np.abs(terms).max()
        value = measure(terms / scale) * scale
    if not np.isfinite(value):
        cause = f"{label} itself exceeds" if finite_terms else "the residuals overflow"
        raise UndefinedMetricError(f"{label} is not finite ({float(value)!r}): {cause} float64")
    return float(value)


@np.errstate(over="ignore", invalid="ignore")
def smape(predicted_m: np.ndarray, observed_m: np.ndarray) -> float:
    """Symmetric mean absolute percentage error, in percent.

    Every term is bounded by 1 before scaling, so the result lies in
    [0, 100]; a pair whose ``|y| + |yhat|`` overflows is taken halved,
    which leaves its term unchanged. A pair with ``|y| + |yhat| == 0``
    has no defined term and raises rather than being skipped: silently
    dropping terms would bias the criterion. The error's ``index`` is
    that pair's position.
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
    over = np.isinf(denom)
    if over.any():
        # the pair halved has the same term: halving is exact for every
        # value that can change a term whose |y| + |yhat| overflows
        y, yhat = 0.5 * obs[over], 0.5 * pred[over]
        terms[over] = np.abs(y - yhat) / (np.abs(y) + np.abs(yhat))
    return _criterion("sMAPE", lambda t: 100.0 * t.mean(), terms)


@np.errstate(over="ignore", invalid="ignore")
def std_of_errors(predicted_m: np.ndarray, observed_m: np.ndarray) -> float:
    """Sample standard deviation of the residuals (N - 1 divisor), meters."""
    pred, obs = _pairs(predicted_m, observed_m)
    if pred.size < 2:
        raise UndefinedMetricError("StD undefined for fewer than 2 pairs")
    return _criterion("StD", lambda r: np.std(r, ddof=1), obs - pred)


@np.errstate(over="ignore", invalid="ignore")
def mean_abs_error(predicted_m: np.ndarray, observed_m: np.ndarray) -> float:
    """Mean of absolute residuals, meters."""
    pred, obs = _pairs(predicted_m, observed_m)
    return _criterion("MAbs", lambda r: np.abs(r).mean(), obs - pred)


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
