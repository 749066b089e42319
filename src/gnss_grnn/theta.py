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

The backtest refits at every origin, but a window's second differences
are those of the whole series, so they are formed once per series; each
origin then costs two dot products, one for the curvature sum and one
for the slope.

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

    Per origin ``i`` (window ``y = values[i:i + p]``) the loop computes
    two dot products: the curvature sum ``lags @ d2[i:i + p - 2]``, over
    the series' second differences ``d2`` formed once before the loop,
    and the slope numerator ``tc @ (y - np.add.reduce(y) / p)``. That
    mean is what ``y.mean()`` computes (a pairwise sum, then a true
    divide by the count), so it has the same bits, without the Python
    wrapper that dominated the loop. The forecasts are assembled
    elementwise after the loop in the per-origin order of operations,
    ``y1 + (k - 1)(y2 - y1) + (slope / tc.tc) * curvature``.
    """
    fit = ThetaFit(fit)
    n = series.count
    if window < 3:
        raise DataError("theta window must be >= 3")
    if n <= window:
        raise DataError(f"nothing to predict: {n} samples with window {window}")
    values = series.values_m
    p, k, m = window, window + 1, n - window
    t = np.arange(1.0, p + 1.0)
    tc = t - t.mean()
    tctc = tc @ tc
    lags = k - np.arange(2.0, p)
    # second differences y[j+2] - 2 y[j+1] + y[j]; window i uses d2[i:i + p - 2]
    d2 = values[2:] - 2.0 * values[1:-1] + values[:-2]
    rolling = fit is ThetaFit.ROLLING
    # slope numerators: one per origin, or the first window's alone (broadcast)
    slopes = np.empty(m if rolling else 1, dtype=np.float64)
    curvature = np.empty(m, dtype=np.float64)
    for i in range(m):
        curvature[i] = lags @ d2[i:i + p - 2]
        if rolling or i == 0:
            y = values[i:i + p]
            slopes[i] = tc @ (y - np.add.reduce(y) / p)
    predicted = (values[:m] + (k - 1) * (values[1:m + 1] - values[:m])
                 + slopes / tctc * curvature)
    return ForecastResult(
        epochs_mjd=series.epochs_mjd[p:],
        predicted_m=predicted,
        observed_m=values[p:],
    )
