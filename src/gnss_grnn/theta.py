"""Theta-method forecasting: a trend line plus accumulated curvature.

The model fits a slope over ordinal in-window positions ``t = 1..p`` (not
epochs) and forecasts by extending the line through the first two window
values while adding the slope-scaled, horizon-weighted sum of the
window's second differences. The backtest only ever forecasts one step
ahead, ``k = p + 1``:

``yhat = y1 + p (y2 - y1)
        + theta * sum_{t=2}^{p-1} (p + 1 - t)(y_{t+1} - 2 y_t + y_{t-1})``

The curvature sum is truncated at ``t = p - 1``, the last position whose
second difference is formable from the window, so it never needs values
beyond the window. The general-``k`` form, ``3 <= k <= p + 1``, is kept
only as a test reference, which the backtest must match bit for bit and
exact rational arithmetic checks.

This is the two-term variant only, not the full multi-line decomposition
with exponential-smoothing recombination found elsewhere in the
forecasting literature.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DataError
from .grnn import ForecastResult
from .series import ComponentSeries


class ThetaFit(str, Enum):
    """When the slope is estimated during a backtest walk."""

    ROLLING = "rolling"    # refit on every window
    GLOBAL = "global"      # fit once on the first window, reuse everywhere


def theta_backtest(
    series: ComponentSeries,
    window: int,
    *,
    fit: ThetaFit = ThetaFit.ROLLING,
) -> ForecastResult:
    """Rolling-origin one-step backtest over every post-window epoch.

    For each target the model is fitted on the ``p = window`` most recent
    observed values (re-indexed ``t = 1..p``) and forecasts position
    ``k = p + 1``, with the curvature sum truncated at ``t = p - 1`` (see
    the module docstring; the general-``k`` form is a test reference).
    The slope is the least-squares one, computed in centered form,
    ``sum((t - mean(t)) * (y - mean(y))) / sum((t - mean(t))^2)``, which
    does not cancel catastrophically on large-offset coordinates.
    Observed values only are ever used for fitting; epochs inside gaps
    are skipped exactly like the kernel walk, so the first post-gap
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
    p, k = window, window + 1
    t = np.arange(1.0, p + 1.0)
    tc = t - t.mean()
    tctc = tc @ tc
    lags = k - np.arange(2.0, p)
    theta = None
    predicted = np.empty(n - p, dtype=np.float64)
    for i in range(n - p):
        y = values[i:i + p]
        if theta is None or fit is ThetaFit.ROLLING:
            theta = float((tc @ (y - y.mean())) / tctc)
        # second differences at t = 2..p-1 (1-based): y[t+1] - 2 y[t] + y[t-1]
        core = y[2:p] - 2.0 * y[1:p - 1] + y[0:p - 2]
        predicted[i] = y[0] + (k - 1) * (y[1] - y[0]) + theta * float(lags @ core)
    return ForecastResult(
        component=str(series.component.value),
        epochs_mjd=series.epochs_mjd[p:],
        predicted_m=predicted,
        observed_m=values[p:],
        n_window_predicted=np.zeros(n - p, dtype=np.int64),
    )
