"""Scalar, one-step-at-a-time references for the batched walks.

Kernel: each forecast takes its own bandwidth, Gaussian kernels, one
normalizing sum, and the convex combination about the window's first
value, in the order the walks repeat in bulk.

Theta: the textbook pieces the backtest fuses into one loop. A slope
estimate, a model holding the slope and its window, and the forecast at
any ordinal position ``3 <= k <= p + 1``; ``theta_walk`` refits them at
every origin the way the backtest did before its loop was fused.

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


def stepping_walk(series, cfg) -> tuple[np.ndarray, np.ndarray]:
    """``forecast_series`` one target at a time: the forecasts and, per
    target, how many window entries were earlier predictions."""
    v = cfg.training_size
    epochs, observed = series.epochs_mjd, series.values_m
    recursive = cfg.mode is Mode.RECURSIVE
    window = observed[:v].copy()
    from_prediction = np.zeros(v, dtype=bool)
    predicted, n_window_predicted = [], []
    for k in range(v, series.count):
        yhat, _ = predict(epochs[k] - epochs[k - v:k], window, cfg.bandwidth)
        predicted.append(yhat)
        n_window_predicted.append(int(from_prediction.sum()))
        window = np.append(window[1:], yhat if recursive else observed[k])
        from_prediction = np.append(from_prediction[1:], recursive)
    return np.array(predicted), np.array(n_window_predicted)


def adaptive_predict(series, k, cfg) -> tuple[float, int, bool]:
    """``adaptive_forecast_series`` at index ``k`` alone: the forecast, the
    window size it used and whether it met the threshold."""
    cap = k if cfg.max_training_size is None else min(k, cfg.max_training_size)
    epochs, values = series.epochs_mjd, series.values_m
    v, best = cfg.training_size, None
    while True:
        try:
            yhat, _ = predict(epochs[k] - epochs[k - v:k], values[k - v:k], cfg.bandwidth)
        except BandwidthTooSmallError as exc:
            raise BandwidthTooSmallError(
                f"{exc} predicting component {series.component.value} "
                f"at MJD {float(epochs[k])!r}") from None
        error = abs(float(values[k]) - yhat)
        if error < cfg.threshold_m:
            return yhat, v, True
        # the earliest size wins ties
        if best is None or error < best[0]:
            best = (error, yhat, v)
        if v + cfg.growth_step > cap:
            return best[1], best[2], False
        v += cfg.growth_step


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
    predicted = np.empty(series.count - window, dtype=np.float64)
    for i in range(window, series.count):
        train = values[i - window:i]
        if theta_global is None:
            model = fit_theta_model(train)
        else:
            model = ThetaModel(theta=theta_global, values_m=train)
        predicted[i - window] = theta_forecast(model, k)
    return predicted
