"""Theta-method forecasting: a trend line plus accumulated curvature.

The model fits a slope over ordinal in-window positions ``t = 1..p`` (not
epochs) and forecasts by extending the line through the first two window
values while adding the slope-scaled, horizon-weighted sum of the
window's second differences. One-step-ahead forecasts never need values
beyond the window.

This is the two-term variant only, not the full multi-line decomposition
with exponential-smoothing recombination found elsewhere in the
forecasting literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError
from .grnn import ForecastResult
from .series import ComponentSeries


class ThetaFit(str, Enum):
    """When the slope is estimated during a backtest walk."""

    ROLLING = "rolling"    # refit on every window
    GLOBAL = "global"      # fit once on the first window, reuse everywhere


def estimate_theta(values: np.ndarray) -> float:
    """Slope of the fitted trend line over ordinal positions ``t = 1..p``.

    Computed in centered form,
    ``sum((t - mean(t)) * (y - mean(y))) / sum((t - mean(t))^2)``,
    which is algebraically identical to the textbook pair of weighted
    sums with coefficients ``12 / (p (p^2 - 1))`` and ``6 / (p (p - 1))``
    but does not cancel catastrophically on large-offset coordinates.
    Equals the least-squares slope: linear input ``a + b t`` returns ``b``.
    """
    y = np.asarray(values, dtype=np.float64)
    p = y.size
    if p < 2:
        raise DataError("insufficient data: slope estimation needs at least 2 values")
    if not np.all(np.isfinite(y)):
        raise DataError("values must be finite")
    t = np.arange(1.0, p + 1.0)
    tc = t - t.mean()
    yc = y - y.mean()
    return float((tc @ yc) / (tc @ tc))


@dataclass(frozen=True)
class ThetaModel:
    """A fitted slope plus the window it was fitted on.

    The first two window values anchor the forecast line; the window's
    second differences feed the curvature term.
    """

    theta: float
    values_m: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values_m, dtype=np.float64)
        if values.size < 3:
            raise DataError("insufficient data: a theta model needs at least 3 values")
        values.setflags(write=False)
        object.__setattr__(self, "values_m", values)

    @property
    def p(self) -> int:
        return int(self.values_m.size)


def fit_theta_model(values: np.ndarray) -> ThetaModel:
    """Estimate the slope on a training window and package the model."""
    return ThetaModel(theta=estimate_theta(values), values_m=values)


def theta_forecast(model: ThetaModel, k: int) -> float:
    """Forecast the value at ordinal position ``k`` (1-based, ``k >= 3``).

    ``yhat_k = y1 + (k - 1)(y2 - y1)
              + theta * sum_{t=2}^{k-1} (k - t)(y_{t+1} - 2 y_t + y_{t-1})``

    ``k`` may reach at most ``p + 1``, one step ahead, where the curvature
    sum is truncated at ``t = p - 1``, the last position whose second
    difference is formable from the window; the truncation drops nothing
    that could have been computed.
    """
    if k < 3:
        raise DataError(f"k out of range: forecast position must be >= 3, got {k}")
    p = model.p
    if k > p + 1:
        raise DataError(f"k out of range: at most p + 1 = {p + 1}, got {k}")
    y = model.values_m
    t_hi = min(k - 1, p - 1)  # inclusive upper bound of the curvature sum
    # second differences at t = 2..t_hi (1-based): y[t+1] - 2 y[t] + y[t-1]
    core = y[2:t_hi + 1] - 2.0 * y[1:t_hi] + y[0:t_hi - 1]
    lags = k - np.arange(2.0, t_hi + 1.0)
    curvature = float(lags @ core) if core.size else 0.0
    return float(y[0] + (k - 1) * (y[1] - y[0]) + model.theta * curvature)


def theta_backtest(
    series: ComponentSeries,
    window: int,
    *,
    fit: ThetaFit = ThetaFit.ROLLING,
) -> ForecastResult:
    """Rolling-origin one-step backtest over every post-window epoch.

    For each target the model is fitted on the ``window`` most recent
    observed values (re-indexed ``t = 1..window``) and forecasts one step
    ahead. Observed values only are ever used for fitting; epochs inside
    gaps are skipped exactly like the kernel walk, so the first post-gap
    forecast leans on pre-gap values. With ``fit=GLOBAL`` the slope from
    the first window is reused at every origin.
    """
    fit = ThetaFit(fit)
    n = series.count
    if window < 3:
        raise DataError("theta window must be >= 3")
    if n <= window:
        raise DataError(f"nothing to predict: {n} samples with window {window}")
    values = series.values_m
    k = window + 1
    theta_global = estimate_theta(values[:window]) if fit is ThetaFit.GLOBAL else None
    predicted = np.empty(n - window, dtype=np.float64)
    for i in range(window, n):
        train = values[i - window:i]
        if theta_global is None:
            model = fit_theta_model(train)
        else:
            model = ThetaModel(theta=theta_global, values_m=train)
        predicted[i - window] = theta_forecast(model, k)
    return ForecastResult(
        component=str(series.component.value),
        epochs_mjd=series.epochs_mjd[window:],
        predicted_m=predicted,
        observed_m=values[window:],
        n_window_predicted=np.zeros(n - window, dtype=np.int64),
    )
