"""Independent reference for the outputs the benchmark checks.

Written from the method's definitions with plain numpy, batched over all
windows at once, so it shares no code with the program under test. Its
arithmetic order differs from the program's, hence the tolerances the
checks state; discrete results (window sizes, threshold flags, counts)
match exactly.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DAYS_PER_YEAR = 365.25
MJD_AT_2000 = 51544.5


def load_station_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Epochs (MJD days) and a (3, n) value array from a station CSV.

    Decimal-year files are converted with the 365.25-day year anchored at
    MJD 51544.5 = 2000.0, the convention the program documents.
    """
    with open(path, encoding="utf-8") as stream:
        header = stream.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    epochs = data[:, 0]
    if header[0] == "epoch_year":
        epochs = MJD_AT_2000 + (epochs - 2000.0) * DAYS_PER_YEAR
    return epochs, data[:, 1:].T.copy()


def distance_windows(epochs: np.ndarray, v: int) -> np.ndarray:
    """Row ``i``: target epoch ``v + i`` minus each of its ``v`` window epochs."""
    n = epochs.size
    return epochs[v:, None] - sliding_window_view(epochs, v)[: n - v]


def weight_patterns(epochs: np.ndarray, v: int) -> int:
    """Distinct distance windows on one epoch axis for window length ``v``."""
    return int(np.unique(distance_windows(epochs, v), axis=0).shape[0])


def kernel_weights(distances: np.ndarray) -> np.ndarray:
    """Normalized Gaussian weights per row, bandwidth = std of the row."""
    h = distances.std(axis=1, keepdims=True)
    if not np.all(h > 0):
        raise ValueError("degenerate window: zero spread of distances")
    k = np.exp(-0.5 * np.square(distances / h))
    return k / k.sum(axis=1, keepdims=True)


def kernel_walk(epochs: np.ndarray, values: np.ndarray, v: int, recursive: bool) -> np.ndarray:
    """One-step kernel forecasts for every epoch after the first ``v``.

    ``values`` is (3, n); forecasts are (3, n - v). Each forecast is the
    convex combination taken about the window's first value. In recursive
    mode forecasts replace observations as later training data.
    """
    n = epochs.size
    w = kernel_weights(distance_windows(epochs, v))
    if not recursive:
        windows = sliding_window_view(values, v, axis=1)[:, : n - v]
        base = windows[:, :, :1]
        return windows[:, :, 0] + ((windows - base) * w).sum(axis=2)
    buf = values.copy()
    for k in range(v, n):
        window = buf[:, k - v:k]
        base = window[:, :1]
        buf[:, k] = window[:, 0] + (window - base) @ w[k - v]
    return buf[:, v:]


def theta_walk(values: np.ndarray, p: int) -> np.ndarray:
    """Rolling one-step Theta forecasts (refit per window), (3, n - p).

    ``y1 + p (y2 - y1) + slope * sum_{t=2}^{p-1} (p + 1 - t) * d2y_t`` with
    the least-squares slope over ordinal positions ``1..p``.
    """
    n = values.shape[1]
    y = sliding_window_view(values, p, axis=1)[:, : n - p]
    t = np.arange(1.0, p + 1.0)
    tc = t - t.mean()
    slope = ((y - y.mean(axis=2, keepdims=True)) @ tc) / (tc @ tc)
    second = y[:, :, 2:] - 2.0 * y[:, :, 1:-1] + y[:, :, :-2]
    lags = (p + 1.0) - np.arange(2.0, p)
    return y[:, :, 0] + p * (y[:, :, 1] - y[:, :, 0]) + slope * (second @ lags)


def criteria(predicted: np.ndarray, observed: np.ndarray) -> dict[str, float]:
    """sMAPE (percent, per-pair denominators), StD (N - 1) and MAbs."""
    r = observed - predicted
    return {
        "smape_percent": float(100.0 * np.mean(np.abs(r) / (np.abs(observed) + np.abs(predicted)))),
        "std_m": float(np.std(r, ddof=1)),
        "mabs_m": float(np.mean(np.abs(r))),
    }


def adaptive_walk(epochs: np.ndarray, values: np.ndarray, v0: int, v_max: int,
                  threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold-driven window growth for one component, all targets at once.

    For target ``k`` the sizes ``v0, v0 + 1, ...`` up to ``min(k, v_max)``
    are tried on observed windows; the first size whose absolute error is
    below ``threshold`` wins, otherwise the smallest error (earliest size
    on ties). Returns forecasts, sizes used and threshold flags.
    """
    n = epochs.size
    targets = np.arange(v0, n)
    cap = np.minimum(targets, v_max)
    truth = values[v0:]
    predicted = np.zeros(targets.size)
    size_used = np.zeros(targets.size, dtype=np.int64)
    met = np.zeros(targets.size, dtype=bool)
    best_err = np.full(targets.size, np.inf)
    open_ = np.ones(targets.size, dtype=bool)
    for s in range(v0, v_max + 1):
        idx = np.flatnonzero(open_ & (s <= cap))
        if idx.size == 0:
            break
        rows = targets[idx] - s
        win_e = sliding_window_view(epochs, s)[rows]
        win_y = sliding_window_view(values, s)[rows]
        w = kernel_weights(epochs[targets[idx], None] - win_e)
        yhat = win_y[:, 0] + ((win_y - win_y[:, :1]) * w).sum(axis=1)
        err = np.abs(truth[idx] - yhat)
        better = err < best_err[idx]
        upd = idx[better]
        best_err[upd] = err[better]
        predicted[upd] = yhat[better]
        size_used[upd] = s
        passed = err < threshold
        hit = idx[passed]
        predicted[hit] = yhat[passed]
        size_used[hit] = s
        met[hit] = True
        open_[hit] = False
    return predicted, size_used, met
