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
are those of the whole series, so they are formed once per station, for
X, Y and Z together, as are the window views every origin reads. Two
passes over the origins follow, into buffers made once: a stacked matmul
per origin for the three curvature sums, then a fit per origin for the
slopes, whose mean divides by a divisor made once per walk.

This is the two-term variant only, not the full multi-line decomposition
with exponential-smoothing recombination found elsewhere in the
forecasting literature.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DataError
from .grnn import Mode, StationForecast, _windows, finite_forecasts
from .series import StationSeries


class ThetaFit(str, Enum):
    """When the slope is estimated during a backtest walk."""

    ROLLING = "rolling"    # refit on every window
    GLOBAL = "global"      # fit once on the first window, reuse everywhere


def checked_window(window: int) -> int:
    """``window`` as an ``int``, refused unless it is an integer >= 3."""
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)):
        raise DataError(f"theta window must be an integer; got {window!r}")
    if window < 3:
        raise DataError("theta window must be >= 3")
    return int(window)


@np.errstate(over="ignore", invalid="ignore")
def theta_backtest(
    station: StationSeries,
    window: int,
    *,
    fit: ThetaFit = ThetaFit.ROLLING,
) -> StationForecast:
    """Rolling-origin one-step backtest over every post-window epoch of
    a station's X, Y and Z, in one walk.

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
    each component's first window is reused at every origin.

    The components' second differences ``d2`` are formed once, and so are
    sliding-window views of ``d2`` (length ``p - 2``) and of the values
    (length ``p``), whose row ``i`` is origin ``i``'s. A first pass runs a
    stacked ``(1, L) @ (L, 1)`` matmul per origin, a row per component, for
    the curvature sums ``d2[:, i:i + p - 2] @ lags``; a second, for every
    origin (the first alone under ``GLOBAL``), the slope numerators
    ``(y - np.add.reduce(y, axis=-1) / p) @ tc`` of ``y = values[:, i:i + p]``,
    with ``p`` a float64 0-d array made once (the same IEEE division), into
    buffers allocated once per walk. Each row runs the 1-d dot, and that
    mean is ``y.mean()``'s (a pairwise sum, then a true divide), so every
    forecast has the bits of its component walked alone.
    The forecasts are assembled elementwise after the passes in the
    per-origin order ``y1 + (k - 1)(y2 - y1) + (slope / tc.tc) * curvature``.
    Gives a :class:`StationForecast` that starts at ``p``, its ``(3, n - p)``
    forecasts keyed by ``Mode.TEACHER_FORCED``, as every origin fits
    observed values. A forecast that is not finite is refused by
    :func:`~gnss_grnn.grnn.finite_forecasts`.
    """
    p = checked_window(window)
    fit = ThetaFit(fit)
    n = station.count
    if n <= p:
        raise DataError(f"nothing to predict: {n} samples with window {p}")
    values = station.values_m
    k, m = p + 1, n - p
    t = np.arange(1.0, p + 1.0)
    tc = t - t.mean()
    tctc = tc @ tc
    lags, tcol = (k - np.arange(2.0, p))[:, None], tc[:, None]
    # second differences y[j+2] - 2 y[j+1] + y[j]; window i uses d2[:, i:i + p - 2]
    d2 = values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]
    rolling = fit is ThetaFit.ROLLING
    # origin i's (component, 1, L) operands: d2[:, None, i:i + p - 2] and
    # values[:, None, i:i + p], the same strides as those slices
    d2_windows = _windows(d2, p - 2)[:, :m, None, :].transpose(1, 0, 2, 3)
    y_windows = _windows(values, p)[:, :m, None, :].transpose(1, 0, 2, 3)
    # one (component, 1, 1) matmul result per origin; GLOBAL keeps the
    # first window's slope numerators alone, which broadcast
    slopes = np.empty((m if rolling else 1, len(values), 1, 1))
    curvature = np.empty((m, len(values), 1, 1))
    mean, deviations = np.empty((len(values), 1, 1)), np.empty((len(values), 1, p))
    # dividing by a float64 0-d array is the division by the int p, converted once
    count = np.array(float(p))
    # operands positional: out=, axis= and keepdims= cost a parse per call
    for d, c in zip(d2_windows, curvature):
        np.matmul(d, lags, c)
    # GLOBAL's single row of slopes ends this pass after the first origin
    for y, s in zip(y_windows, slopes):
        np.add.reduce(y, -1, None, mean, True)
        np.divide(mean, count, mean)
        np.subtract(y, mean, deviations)
        np.matmul(deviations, tcol, s)
    predicted = (values[:, :m] + (k - 1) * (values[:, 1:m + 1] - values[:, :m])
                 + slopes[..., 0, 0].T / tctc * curvature[..., 0, 0].T)
    predicted = finite_forecasts(station, p, predicted, "Theta")
    return StationForecast(p, {Mode.TEACHER_FORCED: predicted})
