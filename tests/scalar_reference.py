"""Scalar, one-step-at-a-time references for the batched walks.

Kernel: each forecast takes its own bandwidth, Gaussian kernels, one
normalizing sum, and the convex combination about the window's first
value, in the order the walks repeat in bulk. ``same_rows`` compares
whole distance rows, where the walks read the epoch spacings.

Theta: the textbook pieces the backtest fuses into one loop. A slope
estimate, a model holding the slope and its window, and the forecast at
any ordinal position ``3 <= k <= p + 1``; ``theta_walk`` refits them at
every origin the way the backtest did before its loop was fused.
``component_theta_walk`` is that fused loop for one component, the way
the backtest ran before it walked X, Y and Z together, and
``station_theta_walk`` is the walk over all three, the way it ran before
it read window views built once per walk.

The walks must reproduce these bit for bit; the mpmath and ``Fraction``
oracles in ``oracles.py`` check the arithmetic itself. Slow and simple
on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gnss_grnn import (
    BandwidthRule,
    BandwidthTooSmallError,
    DataError,
    Mode,
    ThetaFit,
    gaussian_kernel,
)


def predict(distances, values, bandwidth) -> tuple[float, np.ndarray]:
    """Forecast and weights for one target; ``distances`` are target minus
    window epochs, ``values`` the window values."""
    if not isinstance(bandwidth, BandwidthRule):
        h = float(bandwidth)
    elif bandwidth is BandwidthRule.WINDOW_STD and np.std(distances) > 0.0:
        h = float(np.std(distances))
    elif distances.size < 2:
        h = 1.0
    else:  # mean spacing of v strictly increasing epochs
        h = float(distances[0] - distances[-1]) / (distances.size - 1)
    kernels = gaussian_kernel(distances / h)
    total = kernels.sum()
    if total == 0.0:
        raise BandwidthTooSmallError(
            f"bandwidth too small: every kernel value underflowed (h={h!r}, "
            f"nearest distance {float(distances.min())!r} days)")
    weights = kernels / total
    base = values[0]
    return float(base + weights @ (values - base)), weights


def same_rows(epochs, v) -> np.ndarray:
    """``same[k]``: epoch ``k``'s distance row at window size ``v`` equals
    epoch ``k - 1``'s, compared whole; False where epoch ``k - 1`` has none."""
    same = np.zeros(epochs.size, dtype=bool)
    for k in range(v + 1, epochs.size):
        same[k] = np.array_equal(epochs[k] - epochs[k - v:k],
                                 epochs[k - 1] - epochs[k - 1 - v:k - 1])
    return same


def stepping_walk(epochs, series, config, mode=Mode.RECURSIVE) -> np.ndarray:
    """``forecast_series`` of one component on ``epochs`` in one ``mode``,
    one target at a time: the forecasts."""
    v = config.training_size
    observed = series.values_m
    recursive = Mode(mode) is Mode.RECURSIVE
    window = observed[:v].copy()
    predicted = []
    for k in range(v, epochs.size):
        yhat, _ = predict(epochs[k] - epochs[k - v:k], window, config.bandwidth)
        predicted.append(yhat)
        window = np.append(window[1:], yhat if recursive else observed[k])
    return np.array(predicted)


def adaptive_predict(epochs, series, k, config, threshold_m,
                     max_training_size=None) -> tuple[float, int, bool]:
    """``adaptive_forecast_series`` at index ``k`` of one component on
    ``epochs`` alone: the forecast, the window size it used and whether it
    met the threshold."""
    cap = k if max_training_size is None else min(k, max_training_size)
    values = series.values_m
    v, best = config.training_size, None
    while True:
        try:
            yhat, _ = predict(epochs[k] - epochs[k - v:k], values[k - v:k], config.bandwidth)
        except BandwidthTooSmallError as exc:
            raise BandwidthTooSmallError(
                f"{exc} predicting component {series.component.value} "
                f"at MJD {float(epochs[k])!r}") from None
        error = abs(float(values[k]) - yhat)
        if error < threshold_m:
            return yhat, v, True
        # the earliest size wins ties
        if best is None or error < best[0]:
            best = (error, yhat, v)
        if v + 1 > cap:
            return best[1], best[2], False
        v += 1


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


def theta_walk(series, window, fit=ThetaFit.ROLLING) -> np.ndarray:
    """``theta_backtest``'s forecasts, one model fitted and one general-``k``
    forecast made per origin."""
    values = series.values_m
    k = window + 1
    theta_global = estimate_theta(values[:window]) if fit is ThetaFit.GLOBAL else None
    predicted = np.empty(values.size - window, dtype=np.float64)
    for i in range(window, values.size):
        train = values[i - window:i]
        if theta_global is None:
            model = fit_theta_model(train)
        else:
            model = ThetaModel(theta=theta_global, values_m=train)
        predicted[i - window] = theta_forecast(model, k)
    return predicted


def component_theta_walk(series, window, fit=ThetaFit.ROLLING) -> np.ndarray:
    """``theta_backtest``'s forecasts of one component: per origin, two 1-d
    dot products over the component's second differences."""
    values = series.values_m
    p, k, m = window, window + 1, values.size - window
    t = np.arange(1.0, p + 1.0)
    tc = t - t.mean()
    lags = k - np.arange(2.0, p)
    d2 = values[2:] - 2.0 * values[1:-1] + values[:-2]
    rolling = fit is ThetaFit.ROLLING
    slopes = np.empty(m if rolling else 1, dtype=np.float64)
    curvature = np.empty(m, dtype=np.float64)
    for i in range(m):
        curvature[i] = lags @ d2[i:i + p - 2]
        if rolling or i == 0:
            y = values[i:i + p]
            slopes[i] = tc @ (y - np.add.reduce(y) / p)
    return (values[:m] + (k - 1) * (values[1:m + 1] - values[:m])
            + slopes / (tc @ tc) * curvature)


def station_theta_walk(station, window, fit=ThetaFit.ROLLING) -> np.ndarray:
    """``theta_backtest``'s ``(3, m)`` forecasts: per origin, two stacked
    matmuls over fresh slices of the components' second differences and
    values, a row per component."""
    values = station.values_m
    p, n = window, station.count
    k, m = p + 1, n - p
    t = np.arange(1.0, p + 1.0)
    tc = t - t.mean()
    tctc = tc @ tc
    lags, tcol = (k - np.arange(2.0, p))[:, None], tc[:, None]
    # second differences y[j+2] - 2 y[j+1] + y[j]; window i uses d2[:, i:i + p - 2]
    d2 = values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]
    rolling = fit is ThetaFit.ROLLING
    # one (component, 1, 1) matmul result per origin; GLOBAL keeps the
    # first window's slope numerators alone, which broadcast
    slopes = np.empty((m if rolling else 1, len(values), 1, 1))
    curvature = np.empty((m, len(values), 1, 1))
    for i in range(m):
        np.matmul(d2[:, None, i:i + p - 2], lags, out=curvature[i])
        if rolling or i == 0:
            y = values[:, None, i:i + p]
            np.matmul(y - np.add.reduce(y, axis=-1, keepdims=True) / p, tcol, out=slopes[i])
    return (values[:, :m] + (k - 1) * (values[:, 1:m + 1] - values[:, :m])
            + slopes[..., 0, 0].T / tctc * curvature[..., 0, 0].T)
