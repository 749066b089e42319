"""Scalar, one-target-at-a-time references for the batched kernel walks.

Each forecast takes its own bandwidth, Gaussian kernels, one normalizing
sum, and the convex combination about the window's first value, in the
order the walks repeat in bulk. The walks must reproduce these bit for
bit; the mpmath oracles in ``oracles.py`` check the arithmetic itself.
Slow and simple on purpose.
"""

from __future__ import annotations

import numpy as np

from gnss_grnn import BandwidthRule, BandwidthTooSmallError, Mode, gaussian_kernel


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
