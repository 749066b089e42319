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


class Origin(str, Enum):
    """Provenance of a training-window entry."""

    OBSERVED = "observed"
    PREDICTED = "predicted"


@dataclass(frozen=True)
class GrnnConfig:
    """Forecaster settings.

    Attributes:
        training_size: window length ``v`` (most recent values used).
        bandwidth: fixed bandwidth in days, or a :class:`BandwidthRule`.
        threshold_m: acceptance threshold on the absolute prediction
            error; required by the adaptive loop, ignored elsewhere.
        max_training_size: cap on window growth in the adaptive loop;
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


@dataclass(frozen=True)
class GrnnState:
    """The rolling training window: a value type, never mutated in place."""

    epochs_mjd: np.ndarray
    values_m: np.ndarray
    origins: tuple[Origin, ...]

    def __post_init__(self) -> None:
        epochs = np.asarray(self.epochs_mjd, dtype=np.float64)
        values = np.asarray(self.values_m, dtype=np.float64)
        if epochs.ndim != 1 or epochs.shape != values.shape:
            raise DataError("window epochs and values must be 1-d and equally long")
        if epochs.size < 1:
            raise DataError("window must not be empty")
        if len(self.origins) != epochs.size:
            raise DataError("one origin flag per window entry required")
        if epochs.size > 1 and not np.all(np.diff(epochs) > 0):
            raise DataError("window epochs must be strictly increasing")
        epochs.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "epochs_mjd", epochs)
        object.__setattr__(self, "values_m", values)
        object.__setattr__(self, "origins", tuple(Origin(o) for o in self.origins))

    @classmethod
    def from_series(cls, series: ComponentSeries, training_size: int) -> GrnnState:
        """Seed a window with the first ``training_size`` observed values."""
        if training_size < 1:
            raise DataError("training_size must be >= 1")
        if series.count < training_size:
            raise DataError(
                f"insufficient history: {series.count} samples, window needs {training_size}"
            )
        return cls(
            epochs_mjd=series.epochs_mjd[:training_size],
            values_m=series.values_m[:training_size],
            origins=(Origin.OBSERVED,) * training_size,
        )

    @property
    def size(self) -> int:
        return int(self.epochs_mjd.size)

    def __len__(self) -> int:
        return self.size


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


def _resolve_from_distances(distances: np.ndarray, bandwidth: float | BandwidthRule) -> float:
    """Bandwidth in days for one prediction, given target-to-window distances.

    Both rules are shift-invariant functions of the window epochs, so they
    can be evaluated on the distances directly.
    """
    if isinstance(bandwidth, (int, float)):
        return float(bandwidth)
    rule = BandwidthRule(bandwidth)
    if rule is BandwidthRule.WINDOW_STD:
        h = float(np.std(distances))
        if h > 0.0:
            return h
        rule = BandwidthRule.MEAN_SPACING
    if distances.size < 2:
        return _SINGLETON_BANDWIDTH
    # mean spacing of v strictly increasing epochs = (last - first) / (v - 1)
    return float(distances[0] - distances[-1]) / (distances.size - 1)


def _row_bandwidths(distances: np.ndarray, bandwidth: float | BandwidthRule) -> np.ndarray:
    """:func:`_resolve_from_distances` applied to each row of ``distances``."""
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


def resolve_bandwidth(
    bandwidth: float | BandwidthRule, target_epoch: float, window_epochs: np.ndarray
) -> float:
    """Resolve a bandwidth spec to days for one target epoch and window."""
    window_epochs = np.asarray(window_epochs, dtype=np.float64)
    return _resolve_from_distances(target_epoch - window_epochs, bandwidth)


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


def _weights_from_distances(
    distances: np.ndarray, bandwidth: float | BandwidthRule
) -> tuple[float, np.ndarray]:
    h = _resolve_from_distances(distances, bandwidth)
    kernels = gaussian_kernel(distances / h)
    total = kernels.sum()
    if total == 0.0:
        raise _underflow_error(h, distances.min())
    weights = kernels / total
    assert abs(float(weights.sum()) - 1.0) < 1e-12
    return h, weights


def _convex_combination(weights: np.ndarray, values: np.ndarray) -> float:
    """``weights @ values`` evaluated about the first value.

    Algebraically identical because the weights sum to 1, but exact on a
    constant window and far better conditioned when values are large
    coordinates with sub-meter variation.
    """
    base = values[0]
    return float(base + weights @ (values - base))


def _convex_combinations(weights: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """:func:`_convex_combination` of each weight row with its value window.

    A stacked ``(1, v) @ (v, 1)`` matmul runs the same dot as the 1-d
    product, so every row gets the single-target bits.
    """
    base = windows[:, 0]
    deviations = (windows - base[:, None])[:, :, None]
    return base + np.matmul(weights[:, None, :], deviations)[:, 0, 0]


def _block_kernels(
    epochs: np.ndarray,
    epoch_windows: np.ndarray,
    k: np.ndarray,
    bandwidth: float | BandwidthRule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distances, bandwidths, kernel values and row sums for targets ``k``.

    ``epoch_windows`` is ``sliding_window_view(epochs, v)``. Row ``j``
    holds the distances from ``epochs[k[j]]`` to the ``v`` epochs before
    it and runs the arithmetic of :func:`_weights_from_distances` up to
    the normalization, so each row has the single-target bits.
    """
    v = epoch_windows.shape[1]
    distances = epochs[k][:, None] - epoch_windows[k - v]
    h = _row_bandwidths(distances, bandwidth)
    kernels = gaussian_kernel(distances / h[:, None])
    return distances, h, kernels, kernels.sum(axis=1)


def compute_weights(target_epoch: float, window_epochs: np.ndarray, h: float) -> np.ndarray:
    """Normalized kernel weights of each window entry for one target epoch.

    Weights are non-negative, sum to 1 and decay monotonically with the
    epoch distance ``|target - epoch|`` in days.

    Raises:
        BandwidthTooSmallError: all kernel values underflowed to zero;
            a silent uniform fallback would hide a misconfigured ``h``.
    """
    window_epochs = np.asarray(window_epochs, dtype=np.float64)
    if not h > 0:
        raise DataError("bandwidth must be positive")
    if window_epochs.size and not target_epoch > window_epochs[-1]:
        raise DataError("target epoch must lie strictly after the window")
    _, weights = _weights_from_distances(target_epoch - window_epochs, float(h))
    return weights


def predict_one(
    state: GrnnState, target_epoch: float, config: GrnnConfig
) -> tuple[float, np.ndarray]:
    """Predict the value at ``target_epoch`` from the current window.

    Returns the prediction and the weight vector used. The prediction is
    a convex combination of the window values, hence bounded by their
    minimum and maximum.
    """
    if not target_epoch > state.epochs_mjd[-1]:
        raise DataError("target epoch must lie strictly after the window")
    distances = target_epoch - state.epochs_mjd
    _, weights = _weights_from_distances(distances, config.bandwidth)
    return _convex_combination(weights, state.values_m), weights


def advance(
    state: GrnnState,
    epoch: float,
    predicted: float,
    observed: float | None = None,
    *,
    config: GrnnConfig,
    at_gap: bool = False,
) -> GrnnState:
    """Slide the window one step: drop the oldest entry, append the newest.

    In recursive mode the appended value is the prediction. In
    teacher-forced mode it is ``observed`` when given; stepping across an
    epoch with no observation requires ``at_gap=True``, otherwise the
    missing truth is a contract violation.
    """
    if not epoch > state.epochs_mjd[-1]:
        raise DataError("new epoch must lie strictly after the window")
    if config.mode is Mode.TEACHER_FORCED and observed is not None:
        value, origin = float(observed), Origin.OBSERVED
    else:
        if config.mode is Mode.TEACHER_FORCED and not at_gap:
            raise DataError(
                "teacher-forced update needs the observed value at a non-gap epoch"
            )
        value, origin = float(predicted), Origin.PREDICTED
    return GrnnState(
        epochs_mjd=np.append(state.epochs_mjd[1:], epoch),
        values_m=np.append(state.values_m[1:], value),
        origins=state.origins[1:] + (origin,),
    )


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
    alone, so they are computed for blocks of targets at once, at most
    ``_BLOCK_ELEMENTS`` window elements per block, which bounds the
    working memory whatever the series length. Teacher-forced forecasts
    are made a block at a time too; recursive ones step through the
    block, since each feeds the next. The arithmetic per target is that
    of :func:`predict_one`, so every forecast matches the stepping walk
    bit for bit, and an underflow is reported for the first target in
    walk order that underflows.
    """
    v = config.training_size
    n = series.count
    if n <= v:
        raise DataError(f"nothing to predict: {n} samples with training_size {v}")
    epochs = series.epochs_mjd
    observed = series.values_m
    recursive = config.mode is Mode.RECURSIVE
    epoch_windows = sliding_window_view(epochs, v)
    value_windows = sliding_window_view(observed, v)
    # forecasts overwrite this working copy as they are produced; in
    # recursive mode they become training data for the following steps
    buffer = observed.copy()
    rows = max(1, _BLOCK_ELEMENTS // v)
    for start in range(v, n, rows):
        stop = min(start + rows, n)
        k = np.arange(start, stop)
        distances, h, kernels, total = _block_kernels(epochs, epoch_windows, k,
                                                      config.bandwidth)
        # raise before dividing: a zero row sum would only warn
        ok = total != 0.0
        if not ok.all():
            j = int(np.flatnonzero(~ok)[0])
            raise _at_target(_underflow_error(h[j], distances[j].min()), series, epochs[k[j]])
        weights = kernels / total[:, None]
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-12)
        if recursive:
            for row, kj in zip(weights, range(start, stop)):
                buffer[kj] = _convex_combination(row, buffer[kj - v:kj])
        else:
            buffer[start:stop] = _convex_combinations(weights, value_windows[k - v])
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
class AdaptiveResult:
    """Outcome of one adaptive prediction.

    ``threshold_met`` is False when every admissible window size failed
    the error threshold; the attempt with the smallest absolute error is
    returned in that case.
    """

    predicted_m: float
    training_size_used: int
    error_m: float
    threshold_met: bool


def adaptive_predict(
    series: ComponentSeries, start_index: int, config: GrnnConfig
) -> AdaptiveResult:
    """Predict the value at ``start_index`` growing the window on demand.

    Starting from ``config.training_size``, predicts from the most recent
    observed values before the target, compares the absolute error
    against the threshold, and enlarges the window by ``growth_step``
    until the error passes or no larger window fits the available
    history (or ``max_training_size``). Needs the truth at the target,
    so this is a backtest-time procedure only.
    """
    if config.threshold_m is None:
        raise DataError("adaptive prediction requires a threshold")
    v = config.training_size
    if start_index < v:
        raise DataError(
            f"insufficient history: index {start_index} with training_size {v}"
        )
    if start_index >= series.count:
        raise DataError("start_index beyond the series")
    cap = start_index
    if config.max_training_size is not None:
        cap = min(cap, config.max_training_size)
    epochs = series.epochs_mjd
    values = series.values_m
    target_epoch = float(epochs[start_index])
    truth = float(values[start_index])
    best: AdaptiveResult | None = None
    while True:
        distances = target_epoch - epochs[start_index - v:start_index]
        try:
            _, weights = _weights_from_distances(distances, config.bandwidth)
        except BandwidthTooSmallError as exc:
            raise _at_target(exc, series, target_epoch) from None
        yhat = _convex_combination(weights, values[start_index - v:start_index])
        error = truth - yhat
        attempt = AdaptiveResult(yhat, v, error, abs(error) < config.threshold_m)
        if attempt.threshold_met:
            return attempt
        if best is None or abs(error) < abs(best.error_m):
            best = attempt
        if v + config.growth_step > cap:
            return best
        v += config.growth_step


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
    """Run :func:`adaptive_predict` at every index after the seed window.

    Batched over targets: the outer loop walks the candidate sizes, and
    each size forecasts every still-open target at once, in blocks of at
    most ``_BLOCK_ELEMENTS`` window elements, which bounds the
    working memory whatever the series length. A target closes at the
    first size that passes the threshold, or once the next size exceeds
    its cap. The arithmetic per target is that of :func:`adaptive_predict`,
    so every index gets bit for bit its forecast, size and flag, and an
    underflow is reported for the same target the loop would stop at.
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
        epoch_windows = sliding_window_view(epochs, v)
        value_windows = sliding_window_view(values, v)
        rows = max(1, _BLOCK_ELEMENTS // v)
        still_open = []
        for start in range(0, open_pos.size, rows):
            pos = open_pos[start:start + rows]
            k = targets[pos]
            distances, h, kernels, total = _block_kernels(epochs, epoch_windows, k,
                                                          config.bandwidth)
            ok = total != 0.0
            if not ok.all():
                nearest = distances[~ok].min(axis=1)
                for p, hp, d in zip(pos[~ok].tolist(), h[~ok].tolist(), nearest.tolist()):
                    underflows[p] = (hp, d)
                pos, k, kernels, total = pos[ok], k[ok], kernels[ok], total[ok]
            weights = kernels / total[:, None]
            assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-12)
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
