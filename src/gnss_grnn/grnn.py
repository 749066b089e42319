"""Gaussian-kernel regression forecasting over a rolling training window.

The predictor is a Nadaraya-Watson estimator on the scalar time axis: the
forecast for a target epoch is the kernel-weighted average of the window
values, with weights decaying in the epoch distance (days) scaled by a
bandwidth. Two window-update modes exist:

* recursive - each prediction is appended to the window and feeds the
  following predictions, so errors compound along the walk;
* teacher-forced - observed values replace predictions at every step.

The rolling-window semantics deserve one note: the window always holds
the ``v`` most recent values, and in recursive mode predictions stand in
for observations as they are produced. Because weights form a convex
combination, a forecast can never leave the range of its window values,
which is what keeps this estimator from extrapolating trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BandwidthTooSmallError, DataError
from .metrics import PredictionPairs
from .series import ComponentSeries

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Bandwidth fallback for a length-1 window, days (one nominal daily step).
_SINGLETON_BANDWIDTH = 1.0

#: Window elements gathered per block by the batched walks; bounds their
#: working memory to a few arrays of this many float64 values.
_BLOCK_ELEMENTS = 2**14


class Mode(str, Enum):
    """Window-update policy during a forecast walk."""

    RECURSIVE = "recursive"
    TEACHER_FORCED = "teacher-forced"


class BandwidthRule(str, Enum):
    """Data-driven bandwidth choices (a plain float fixes the bandwidth).

    WINDOW_STD: standard deviation of the window's epoch values, a
    scale-free default. MEAN_SPACING: mean epoch spacing of the window,
    i.e. one nominal sampling step. Both fall back to 1.0 days on a
    length-1 window, where neither statistic exists.
    """

    WINDOW_STD = "window-std"
    MEAN_SPACING = "mean-spacing"


@dataclass(frozen=True)
class GrnnConfig:
    """Forecaster settings.

    Attributes:
        training_size: window length ``v`` (most recent values used).
        bandwidth: fixed bandwidth in days, or a :class:`BandwidthRule`.
        threshold_m: acceptance threshold on the absolute prediction
            error; required by :func:`adaptive_forecast_series`, ignored
            elsewhere.
        max_training_size: cap on window growth in the adaptive search;
            ``None`` means only the available history caps it.
        mode: window-update policy.
        growth_step: window increment per adaptive retry.
    """

    training_size: int = 100
    bandwidth: float | BandwidthRule = BandwidthRule.WINDOW_STD
    threshold_m: float | None = None
    max_training_size: int | None = None
    mode: Mode = Mode.RECURSIVE
    growth_step: int = 1

    def __post_init__(self) -> None:
        if self.training_size < 1:
            raise DataError("training_size must be >= 1")
        if self.max_training_size is not None and self.max_training_size < self.training_size:
            raise DataError("max_training_size must be >= training_size")
        if isinstance(self.bandwidth, str) and not isinstance(self.bandwidth, BandwidthRule):
            object.__setattr__(self, "bandwidth", BandwidthRule(self.bandwidth))
        elif isinstance(self.bandwidth, (int, float)):
            if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
                raise DataError("fixed bandwidth must be positive and finite")
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        if self.threshold_m is not None and not self.threshold_m > 0:
            raise DataError("threshold_m must be positive")
        if self.growth_step < 1:
            raise DataError("growth_step must be >= 1")
        object.__setattr__(self, "mode", Mode(self.mode))


def gaussian_kernel(a):
    """Gaussian kernel ``exp(-a^2 / 2) / sqrt(2 pi)``.

    Even in ``a`` and strictly positive for all finite ``a`` (down to the
    underflow limit near ``|a| ~ 38.6``). The constant factor cancels
    under weight normalization but is kept for fidelity. Accepts scalars
    or arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.exp(-0.5 * np.square(a)) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def _row_bandwidths(distances: np.ndarray, bandwidth: float | BandwidthRule) -> np.ndarray:
    """Bandwidth in days per row of target-to-window ``distances``.

    Both rules are shift-invariant functions of the window epochs, so
    they are evaluated on the distances directly. A window-std of zero
    falls back to the mean spacing, ``(first - last distance) / (v - 1)``.
    """
    rows, v = distances.shape
    if isinstance(bandwidth, (int, float)):
        return np.full(rows, float(bandwidth))
    if v < 2:
        spacing = np.full(rows, _SINGLETON_BANDWIDTH)
    else:
        spacing = (distances[:, 0] - distances[:, -1]) / (v - 1)
    if BandwidthRule(bandwidth) is BandwidthRule.MEAN_SPACING:
        return spacing
    h = np.std(distances, axis=1)
    return np.where(h > 0.0, h, spacing)


def _underflow_error(h: float, nearest_days: float) -> BandwidthTooSmallError:
    return BandwidthTooSmallError(
        f"bandwidth too small: every kernel value underflowed (h={float(h)!r}, "
        f"nearest distance {float(nearest_days)!r} days)"
    )


def _at_target(
    exc: BandwidthTooSmallError, series: ComponentSeries, epoch: float
) -> BandwidthTooSmallError:
    """``exc`` with the component and target epoch it occurred at."""
    return BandwidthTooSmallError(
        f"{exc} predicting component {series.component.value} at MJD {float(epoch)!r}"
    )


def _convex_combinations(weights: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """``weights @ window`` per row, evaluated about the window's first value.

    Algebraically identical because the weights sum to 1, but exact on a
    constant window and far better conditioned when values are large
    coordinates with sub-meter variation. A stacked ``(1, v) @ (v, 1)``
    matmul runs the same dot as the 1-d product, so every row gets the
    bits of the single-target forecast in ``tests/scalar_reference.py``.
    """
    base = windows[:, 0]
    deviations = (windows - base[:, None])[:, :, None]
    return base + np.matmul(weights[:, None, :], deviations)[:, 0, 0]


def _weight_blocks(
    epochs: np.ndarray, targets: np.ndarray, v: int, bandwidth: float | BandwidthRule
) -> Iterator[tuple[np.ndarray, np.ndarray, list[tuple[int, float, float]]]]:
    """Normalized kernel weights for ``targets``, a block at a time.

    Row ``j`` of a block weighs the ``v`` epochs before
    ``epochs[targets[j]]``: row bandwidth, Gaussian kernels, one
    normalizing sum. Each row has the bits of the single-target weights
    in ``tests/scalar_reference.py``. A block holds at most ``_BLOCK_ELEMENTS`` window elements,
    which bounds the working memory whatever the number of targets.
    Yields ``(rows, weights, underflows)`` per block: the indices into
    ``targets`` whose kernels kept a nonzero sum, their weight rows, and
    ``(row, h, nearest distance)`` for each row that underflowed.
    """
    epoch_windows = sliding_window_view(epochs, v)
    size = max(1, _BLOCK_ELEMENTS // v)
    for start in range(0, targets.size, size):
        k = targets[start:start + size]
        distances = epochs[k][:, None] - epoch_windows[k - v]
        h = _row_bandwidths(distances, bandwidth)
        kernels = gaussian_kernel(distances / h[:, None])
        total = kernels.sum(axis=1)
        # drop underflowed rows before dividing: a zero row sum would only warn
        ok = total != 0.0
        underflows = [(start + j, float(h[j]), float(distances[j].min()))
                      for j in np.flatnonzero(~ok).tolist()]
        if underflows:
            kernels, total = kernels[ok], total[ok]
        weights = kernels / total[:, None]
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-12)
        yield start + np.flatnonzero(ok), weights, underflows


@dataclass(frozen=True)
class ForecastResult:
    """Rolling one-step forecasts over every post-window epoch of a series.

    Columnar: ``predicted_m[i]`` is the forecast for ``epochs_mjd[i]``
    whose truth is ``observed_m[i]``; ``n_window_predicted[i]`` counts how
    many entries of the window that produced it were themselves earlier
    predictions (always 0 in teacher-forced mode).
    """

    component: str
    mode: Mode
    training_size: int
    epochs_mjd: np.ndarray
    predicted_m: np.ndarray
    observed_m: np.ndarray
    n_window_predicted: np.ndarray

    def __len__(self) -> int:
        return int(self.epochs_mjd.size)

    def pairs(self) -> PredictionPairs:
        return PredictionPairs(predicted_m=self.predicted_m, observed_m=self.observed_m)

    def errors_m(self) -> np.ndarray:
        return self.observed_m - self.predicted_m


def forecast_series(series: ComponentSeries, config: GrnnConfig) -> ForecastResult:
    """Walk a series: seed the window with the first ``v`` observed values,
    then predict every later epoch present in the series.

    Epochs inside gaps are never fabricated; the first prediction after a
    hole simply reaches forward from the pre-gap window, so its kernel
    distances are larger than usual. The weights depend on the epochs
    alone, so they come from :func:`_weight_blocks` a block of targets at
    a time. Teacher-forced forecasts are made a block at a time too;
    recursive ones step through the block, since each feeds the next.
    Each recursive step subtracts the window's first value into one
    deviation buffer reused for the whole walk and takes ``ndarray.dot``
    of the weight row with it: the operations, in the order, of
    :func:`_convex_combinations` for one row, without its temporaries.
    Every forecast matches the stepping walk in
    ``tests/scalar_reference.py`` bit for bit, and an underflow is
    reported for the first target in walk order that underflows.
    """
    v = config.training_size
    n = series.count
    if n <= v:
        raise DataError(f"nothing to predict: {n} samples with training_size {v}")
    epochs = series.epochs_mjd
    observed = series.values_m
    recursive = config.mode is Mode.RECURSIVE
    # row j of a block is target v + j, whose observed window is row j here
    value_windows = sliding_window_view(observed, v)
    # forecasts overwrite this working copy as they are produced; in
    # recursive mode they become training data for the following steps
    buffer = observed.copy()
    deviations = np.empty(v, dtype=np.float64)
    for rows, weights, underflows in _weight_blocks(epochs, np.arange(v, n), v,
                                                    config.bandwidth):
        if underflows:
            j, h, nearest = underflows[0]
            raise _at_target(_underflow_error(h, nearest), series, epochs[v + j])
        if recursive:
            # one row of _convex_combinations: same operations, no temporaries
            for row, k in zip(weights, (rows + v).tolist()):
                base = buffer[k - v]
                np.subtract(buffer[k - v:k], base, out=deviations)
                buffer[k] = base + row.dot(deviations)
        else:
            buffer[rows + v] = _convex_combinations(weights, value_windows[rows])
    if recursive:
        n_window_predicted = np.minimum(np.arange(n - v, dtype=np.int64), v)
    else:
        n_window_predicted = np.zeros(n - v, dtype=np.int64)
    return ForecastResult(
        component=str(series.component.value),
        mode=config.mode,
        training_size=v,
        epochs_mjd=epochs[v:],
        predicted_m=buffer[v:],
        observed_m=observed[v:],
        n_window_predicted=n_window_predicted,
    )


@dataclass(frozen=True)
class AdaptiveForecastResult:
    """Adaptive one-step backtest over every post-window epoch."""

    component: str
    epochs_mjd: np.ndarray
    predicted_m: np.ndarray
    observed_m: np.ndarray
    training_size_used: np.ndarray
    threshold_met: np.ndarray

    def __len__(self) -> int:
        return int(self.epochs_mjd.size)

    def pairs(self) -> PredictionPairs:
        return PredictionPairs(predicted_m=self.predicted_m, observed_m=self.observed_m)


def adaptive_forecast_series(
    series: ComponentSeries, config: GrnnConfig
) -> AdaptiveForecastResult:
    """Forecast every index after the seed window, growing its window on demand.

    Each target starts from ``config.training_size`` observed values
    before it, compares the absolute error against the threshold, and
    enlarges the window by ``growth_step`` until the error passes or no
    larger window fits the available history (or ``max_training_size``);
    the attempt with the smallest error stands when none passes. Needs
    the truth at the target, so this is a backtest-time procedure only.

    Batched over targets: the outer loop walks the candidate sizes, and
    each size forecasts every still-open target at once, with weights
    from one pass of :func:`_weight_blocks` over those targets. A target
    closes at the first size that passes the threshold, at the size that
    underflows, or once the next size exceeds its cap. Every index gets
    bit for bit the forecast, size and flag of the per-target loop in
    ``tests/scalar_reference.py``, and an underflow is reported for the
    same target that loop stops at.
    """
    v0 = config.training_size
    n = series.count
    if n <= v0:
        raise DataError(f"nothing to predict: {n} samples with training_size {v0}")
    if config.threshold_m is None:
        raise DataError("adaptive prediction requires a threshold")
    epochs = series.epochs_mjd
    values = series.values_m
    targets = np.arange(v0, n)
    caps = targets
    if config.max_training_size is not None:
        caps = np.minimum(caps, config.max_training_size)
    predicted = np.empty(targets.size, dtype=np.float64)
    used = np.empty(targets.size, dtype=np.int64)
    met = np.zeros(targets.size, dtype=bool)
    best_abs = np.empty(targets.size, dtype=np.float64)
    # target position -> (h, nearest distance) at the first size it underflowed
    underflows: dict[int, tuple[float, float]] = {}
    open_pos = np.arange(targets.size)
    v = v0
    while open_pos.size:
        value_windows = sliding_window_view(values, v)
        still_open = []
        for rows, weights, underflowed in _weight_blocks(epochs, targets[open_pos], v,
                                                         config.bandwidth):
            for j, h, nearest in underflowed:
                underflows[int(open_pos[j])] = (h, nearest)
            pos = open_pos[rows]
            k = targets[pos]
            yhat = _convex_combinations(weights, value_windows[k - v])
            abs_err = np.abs(values[k] - yhat)
            passed = abs_err < config.threshold_m
            # v0 is every target's first try; later sizes must be strictly
            # better, so the earliest size wins ties (a pass is always better)
            better = abs_err < best_abs[pos] if v > v0 else np.ones(pos.size, dtype=bool)
            predicted[pos[better]] = yhat[better]
            used[pos[better]] = v
            best_abs[pos[better]] = abs_err[better]
            met[pos] = passed
            still_open.append(pos[~passed & (v + config.growth_step <= caps[pos])])
        open_pos = np.concatenate(still_open)
        v += config.growth_step
    if underflows:
        p = min(underflows)
        raise _at_target(_underflow_error(*underflows[p]), series, epochs[targets[p]])
    return AdaptiveForecastResult(
        component=str(series.component.value),
        epochs_mjd=epochs[v0:],
        predicted_m=predicted,
        observed_m=values[v0:],
        training_size_used=used,
        threshold_met=met,
    )
