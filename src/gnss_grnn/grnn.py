"""Gaussian-kernel regression forecasting over a rolling training window.

The predictor is a Nadaraya-Watson estimator on the scalar time axis: the
forecast for a target epoch is the kernel-weighted average of the window
values, with weights decaying in the epoch distance (days) scaled by a
bandwidth. Two window-update modes exist:

* recursive - each prediction is appended to the window and feeds the
  following predictions, so errors compound along the walk. Each
  prediction is a convex combination of its window, so the walk settles
  on a constant, typically after some 1-3 ``v`` steps (see below);
* teacher-forced - observed values replace predictions at every step.

A recursive component settles at the first step whose forecast ``y``
equals its window's first value, is not 0.0, and leaves every deviation
from that value zero. That window was ``v`` copies of ``y``, and so is
every later one, so each later forecast is ``y + 0.0``, which is ``y`` bit
for bit: the walk writes ``y`` to the rest of the component's row and
stops stepping it. 0.0 is left out because ``-0.0 + 0.0`` is ``+0.0``; a
window of infinities has NaN deviations and never settles. The rule
reads the window the step has just weighed, so it fires one step after
the forecast that closes the constant window (at the first step when the
seed window is constant), and never when that forecast is the walk's
last. Either way the bits are the stepping walk's.

The rolling-window semantics deserve one note: the window always holds
the ``v`` most recent values, and in recursive mode predictions stand in
for observations as they are produced. Because weights form a convex
combination, a forecast can never leave the range of its window values,
which is what keeps this estimator from extrapolating trends.

The weights depend on the epochs alone. The X, Y and Z components of a
station share one epoch axis, so, as in Specht's GRNN, one pattern layer
and one denominator serve every output. Both walks therefore take a whole
station: :func:`forecast_series` computes each block of weights once and
applies it to every component and every requested mode before it moves
on to the next block (stacking the three teacher-forced rows measured
slower), and :func:`adaptive_forecast_series` computes each window size's
weights once for every (component, target) pair still open.

The weights of a target depend only on its distances to the window
epochs, so adjacent targets with bit-identical distance rows form a run
that shares one weight row, computed once through :func:`_kernel_rows`
and carried across block edges. The runs come from the epoch spacings in
O(n), for any window size: when ``0 < epochs[0]`` and ``epochs[-1] <= 2 *
epochs[0]``, every epoch difference is exact (Sterbenz 1974), so a
target's row equals the one before it iff the ``v + 1`` spacings ending
at the target are equal. IGS final solutions are daily MJD, well inside
that guard: a gap-free stretch is one run, at every size the adaptive
search tries. Outside the guard no target shares a row; the bits are the
same, only the sharing is lost. A target whose every kernel underflows
gets an all-NaN row, which the walks find and refuse with a
:class:`BandwidthTooSmallError` that recomputes the bandwidth and the
nearest distance from the target's own row, bit-identical to its run's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BandwidthTooSmallError, DataError, NumericError
from .series import Component, StationSeries

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Bandwidth fallback for a length-1 window, days (one nominal daily step).
_SINGLETON_BANDWIDTH = 1.0

#: Window elements gathered per block by the batched walks; bounds their
#: working memory to a few arrays of this many float64 values.
_BLOCK_ELEMENTS = 2**14


class Mode(str, Enum):
    """Window-update policy during a forecast walk.

    RECURSIVE feeds each forecast back into the window. The walk settles
    on a constant after roughly 1-3 ``v`` steps (the rule is in the module
    docstring), so recursive-mode criteria over a long walk mostly score a
    flat line. TEACHER_FORCED forecasts every target from observed values.
    """

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


def checked_training_size(v: int) -> int:
    """``v`` as an ``int``, refused unless it is an integer >= 1."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise DataError(f"training_size must be an integer; got {v!r}")
    if v < 1:
        raise DataError(f"training_size must be >= 1; got {v!r}")
    return int(v)


@dataclass(frozen=True)
class GrnnConfig:
    """The kernel model's two settings, as in Specht's GRNN; how a walk
    uses the model (its mode, the adaptive search) is that walk's argument.

    Attributes:
        training_size: window length ``v`` (most recent values used).
        bandwidth: fixed bandwidth in days, or a :class:`BandwidthRule`.
    """

    training_size: int = 100
    bandwidth: float | BandwidthRule = BandwidthRule.WINDOW_STD

    def __post_init__(self) -> None:
        object.__setattr__(self, "training_size", checked_training_size(self.training_size))
        bw = self.bandwidth
        if isinstance(bw, str) and bw in {r.value for r in BandwidthRule}:
            object.__setattr__(self, "bandwidth", BandwidthRule(bw))
        elif (isinstance(bw, (int, float, np.integer)) and not isinstance(bw, bool)
              and math.isfinite(bw) and bw > 0):
            object.__setattr__(self, "bandwidth", float(bw))
        else:
            raise DataError("fixed bandwidth must be positive and finite, or a "
                            f"BandwidthRule; got {bw!r}")


def gaussian_kernel(a):
    """Gaussian kernel ``exp(-a^2 / 2) / sqrt(2 pi)``.

    Even in ``a`` and strictly positive for all finite ``a`` (down to the
    underflow limit near ``|a| ~ 38.6``). The constant factor cancels
    under weight normalization but is kept for fidelity. Accepts scalars
    or arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.square(a, out=np.empty_like(a))
    out *= -0.5
    np.exp(out, out)
    out /= _SQRT_2PI
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
    # np.std's own steps, in its order, without its Python-level wrapper
    deviations = distances - np.add.reduce(distances, axis=1, keepdims=True) / v
    np.multiply(deviations, deviations, out=deviations)
    h = np.sqrt(np.add.reduce(deviations, axis=1) / v)
    return np.where(h > 0.0, h, spacing)


def _underflow_error(epochs: np.ndarray, k: int, v: int, bandwidth: float | BandwidthRule,
                     component: Component) -> BandwidthTooSmallError:
    """Every kernel of ``component``'s target ``k`` underflowed at window size
    ``v``; names the bandwidth and nearest distance of ``k``'s distance row."""
    distances = epochs[k] - epochs[k - v:k]
    h = _row_bandwidths(distances[None, :], bandwidth)[0]
    return BandwidthTooSmallError(
        f"bandwidth too small: every kernel value underflowed (h={float(h)!r}, "
        f"nearest distance {float(distances.min())!r} days) predicting component "
        f"{component.value} at MJD {float(epochs[k])!r}")


def _convex_combinations(weights: np.ndarray, windows: np.ndarray, rows) -> np.ndarray:
    """``weights @ window`` per window of ``windows[rows]``, about its first value.

    ``rows`` is a fancy index, so the gather is a copy, shifted in place;
    the arguments are never written. ``weights`` holds a row per window, or
    one row that every window shares. Algebraically identical because the
    weights sum to 1, but exact on a constant window and far better
    conditioned for large coordinates with sub-meter variation. A stacked
    ``(1, v) @ (v, 1)`` matmul runs the 1-d product's dot, so every row has
    the bits of the single-target forecast in ``tests/scalar_reference.py``.
    """
    deviations = windows[rows]
    base = deviations[:, 0].copy()
    deviations -= base[:, None]
    return base + np.matmul(weights[:, None, :], deviations[:, :, None])[:, 0, 0]


def _kernel_rows(distances: np.ndarray, bandwidth: float | BandwidthRule) -> np.ndarray:
    """Normalized kernel weights per row of target-to-window ``distances``.

    Each row gets its bandwidth, its Gaussian kernels and one normalizing
    sum, and has the bits of the single-target weights in
    ``tests/scalar_reference.py``. A row whose every kernel underflowed has
    no weights: it is divided by NaN, not by its zero sum, which would
    warn, so it is all NaN.
    """
    h = _row_bandwidths(distances, bandwidth)
    weights = gaussian_kernel(distances / h[:, None])
    total = weights.sum(axis=1)
    underflowed = total == 0.0
    weights /= np.where(underflowed, np.nan, total)[:, None]
    # every other row sums to 1; a NaN from any other cause fails this
    assert np.all(np.abs(weights.sum(axis=1)[~underflowed] - 1.0) < 1e-12)
    return weights


def _windows(a: np.ndarray, v: int) -> np.ndarray:
    """``sliding_window_view(a, v, axis=-1)``, read-only, without its argument
    checks, which the adaptive search would pay twice per window size."""
    return as_strided(a, (*a.shape[:-1], a.shape[-1] - v + 1, v), (*a.strides, a.strides[-1]),
                      writeable=False)


def _same_rows(epochs: np.ndarray, v: int) -> np.ndarray:
    """``same[k]``: epoch ``k``'s distance row at size ``v`` has the bits of
    epoch ``k - 1``'s, from the spacings (see the module docstring); False
    wherever epoch ``k - 1`` has no row, and everywhere outside the guard."""
    same = np.zeros(epochs.size, dtype=bool)
    if 0 < epochs[0] and epochs[-1] <= 2 * epochs[0]:
        s = epochs[1:] - epochs[:-1]
        # changes[i]: how often the spacing changed up to spacing i
        changes = np.zeros(s.size, dtype=np.intp)
        np.cumsum(s[1:] != s[:-1], out=changes[1:])
        same[v + 1:] = changes[v:] == changes[:changes.size - v]
    return same


def _weight_blocks(
    epochs: np.ndarray, targets: np.ndarray, v: int, bandwidth: float | BandwidthRule
) -> Iterator[tuple[slice, np.ndarray]]:
    """Normalized kernel weights for ``targets``, a block at a time.

    ``targets`` ascend and may repeat. Target ``k`` weighs the ``v`` epochs
    before ``epochs[k]`` by its distances to them, through
    :func:`_kernel_rows`, once per run: targets share one when
    :func:`_same_rows` joins every epoch from one to the next, and a run
    that crosses a block edge keeps its row. A block holds at most
    ``_BLOCK_ELEMENTS`` window elements (or one target), which bounds the
    working memory whatever the number of targets.

    Yields ``(block, weights)`` per block: the slice of ``targets`` it
    covers and a weight row per target, all NaN where every kernel
    underflowed, or one row for all when the block is a single run, which
    :func:`_convex_combinations` broadcasts. Rows are gathered per target
    only in a block that mixes runs of several targets.
    """
    ids = np.cumsum(~_same_rows(epochs, v))[targets]
    starts = np.ones(targets.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=starts[1:])
    run = np.cumsum(starts) - 1
    first = targets[starts]
    epoch_windows = _windows(epochs, v)
    size = max(1, _BLOCK_ELEMENTS // v)
    for start in range(0, targets.size, size):
        r = run[start:start + size]
        fresh = int(r[0]) + (not starts[start])
        if fresh > r[-1]:
            weights = carried
        else:
            f = first[fresh:r[-1] + 1]
            weights = _kernel_rows(epochs[f][:, None] - epoch_windows[f - v], bandwidth)
            if fresh > r[0]:
                weights = np.concatenate([carried, weights])
        carried = weights[-1:]
        if 1 < len(weights) < r.size:
            weights = weights[r - r[0]]
        yield slice(start, start + r.size), weights


@dataclass(frozen=True)
class StationForecast:
    """The forecasts of one station walk, in the station's shape.

    ``predicted_m[mode]`` has rows X, Y, Z; its column ``j`` forecasts the
    station's epoch ``start + j``. Theta and the adaptive search key theirs
    by ``Mode.TEACHER_FORCED``; the search also gives each forecast's window
    size and threshold flag in that shape. ``len()`` counts every forecast.
    """

    start: int
    predicted_m: dict[Mode, np.ndarray]
    training_size_used: np.ndarray | None = None
    threshold_met: np.ndarray | None = None

    def __len__(self) -> int:
        return sum(a.size for a in self.predicted_m.values())


def finite_forecasts(station: StationSeries, start: int, predicted: np.ndarray,
                     method: str) -> np.ndarray:
    """``predicted``, a ``method`` walk's ``(3, n - start)`` forecasts (or
    values derived from them, such as their errors); a
    :class:`NumericError` names the component and the MJD of the first one
    that is not finite, taking the components in X, Y, Z order."""
    finite = np.isfinite(predicted)
    if not finite.all():
        c, j = np.argwhere(~finite)[0]
        raise NumericError(
            f"{method} forecast is not finite ({float(predicted[c, j])!r}) predicting component "
            f"{tuple(Component)[c].value} at MJD "
            f"{float(station.epochs_mjd[start + j])!r}")
    return predicted


@np.errstate(over="ignore", invalid="ignore")
def forecast_series(
    station: StationSeries, config: GrnnConfig, modes: Sequence[Mode] = (Mode.RECURSIVE,)
) -> StationForecast:
    """Walk a station: seed the window with the first ``v`` observed values,
    then predict every later epoch present in the series.

    Gives a :class:`StationForecast` that starts at ``v``, with a
    ``(3, n - v)`` array of forecasts for each mode of ``modes`` (default:
    recursive alone), all from one pass of kernel weights over the shared
    epoch axis: each weight block serves every (component, mode) before
    the next block is computed.
    Teacher-forced forecasts are made a block at a time; recursive ones
    step through the block, one component after the other, since each
    forecast feeds the next of its component.

    Epochs inside gaps are never fabricated; the first prediction after a
    hole simply reaches forward from the pre-gap window, so its kernel
    distances are larger than usual. The weights depend on the epochs
    alone, so they come from :func:`_weight_blocks` a block of targets at
    a time, one row per run of targets with identical distances. Each
    recursive step takes its target's row, subtracts the window's first
    value into one deviation buffer reused for the whole walk and takes
    ``ndarray.dot`` of the weight row with it: the operations, in the
    order, of :func:`_convex_combinations` for one row, without its
    temporaries.

    A recursive component stops stepping once it settles, by the rule in
    the module docstring, and its remaining forecasts are the settled
    value. The weights still come for every target, so an underflow after
    that point is still reported.

    Every forecast matches the stepping walk in
    ``tests/scalar_reference.py`` bit for bit, and an underflow is
    reported for the first target in walk order that underflows, for
    component X, the first of the components that share the weights.
    A forecast that is not finite is refused by :func:`finite_forecasts`.
    """
    modes = tuple(Mode(m) for m in modes)
    if not modes:
        raise DataError("no window-update mode to walk")
    v = config.training_size
    n = station.count
    if n <= v:
        raise DataError(f"nothing to predict: {n} samples with training_size {v}")
    epochs = station.epochs_mjd
    observed = station.values_m
    # row j of a block is target v + j, whose observed window is row j here
    value_windows = _windows(observed, v)
    # forecasts overwrite these working copies as they are produced; in
    # recursive mode they become training data for the following steps
    buffers = {mode: observed.copy() for mode in modes}
    deviations = np.empty(v, dtype=np.float64)
    # per component, whether the rest of the recursive walk is already written
    settled = [False] * len(observed)
    for block, weights in _weight_blocks(epochs, np.arange(v, n), v, config.bandwidth):
        lost = np.isnan(weights[:, 0])
        if lost.any():
            # shared weights: the first component is the first to fail
            k = v + block.start + int(lost.argmax())
            raise _underflow_error(epochs, k, v, config.bandwidth, Component.X)
        rows = np.arange(block.start, block.stop)
        targets = rows + v
        for mode, buffer in buffers.items():
            if mode is Mode.TEACHER_FORCED:
                for values, windows in zip(buffer, value_windows):
                    values[targets] = _convex_combinations(weights, windows, rows)
                continue
            steps = targets.tolist()
            step_rows = itertools.repeat(weights[0]) if len(weights) == 1 else weights
            # row j of these windows is target v + j's, read as the walk writes
            for c, (values, windows) in enumerate(zip(buffer, _windows(buffer, v))):
                if settled[c]:
                    continue
                # one row of _convex_combinations: same operations, no temporaries
                for row, k, window in zip(step_rows, steps, windows[block.start:]):
                    base = window[0]
                    np.subtract(window, base, deviations)
                    y = values[k] = base + row.dot(deviations)
                    if y == base and y != 0.0 and not deviations.any():
                        # settled (module docstring): every later forecast is y
                        values[k + 1:] = y
                        settled[c] = True
                        break
    return StationForecast(v, {mode: finite_forecasts(station, v, buffer[:, v:], "kernel")
                               for mode, buffer in buffers.items()})


@np.errstate(over="ignore", invalid="ignore")
def adaptive_forecast_series(
    station: StationSeries,
    config: GrnnConfig,
    threshold_m: float,
    max_training_size: int | None = None,
) -> StationForecast:
    """Forecast every index after the seed window, growing its window on demand.

    Each target of each component starts from ``config.training_size``
    observed values before it, compares the absolute error against
    ``threshold_m``, and enlarges the window by one value until the error
    passes or no larger window fits the available history (or
    ``max_training_size``); the attempt with the smallest error stands
    when none passes. Needs the truth at the target, so this is a
    backtest-time procedure only, and teacher-forced. Gives a
    :class:`StationForecast` that starts at ``config.training_size``: its
    ``(3, m)`` forecasts keyed by ``Mode.TEACHER_FORCED``, with the window
    size each used and whether it met the threshold in the same shape.

    Batched over pairs: the outer loop walks the candidate sizes, and the
    open (component, target) pairs are two index arrays, by target, then
    component. Each size takes the pairs' weights from :func:`_weight_blocks`
    (blocks of ``_BLOCK_ELEMENTS // v`` pairs, one kernel row per run of
    identical distance rows, so a gap-free daily stretch costs one row per
    size) and forecasts each block's pairs in one :func:`_convex_combinations`
    call. One update per size then keeps each pair's best forecast and
    closes it at the first size that passes the threshold, at the size that
    underflows, or once the next size exceeds its cap. Every index gets bit
    for bit the forecast, size and flag of the per-target loop in
    ``tests/scalar_reference.py``, and an underflow is reported for the
    target that loop stops at first, taking the components in X, Y, Z
    order. A forecast that is not finite is refused by :func:`finite_forecasts`.
    """
    v0 = config.training_size
    if not threshold_m > 0:
        raise DataError("threshold_m must be positive")
    if max_training_size is not None and max_training_size < v0:
        raise DataError("max_training_size must be >= training_size")
    n = station.count
    if n <= v0:
        raise DataError(f"nothing to predict: {n} samples with training_size {v0}")
    observed = station.values_m
    epochs = station.epochs_mjd
    caps = np.arange(v0, n)
    if max_training_size is not None:
        caps = np.minimum(caps, max_training_size)
    shape = (3, n - v0)
    predicted = np.empty(shape, dtype=np.float64)
    used = np.empty(shape, dtype=np.int64)
    met = np.zeros(shape, dtype=bool)
    best_abs = np.empty(shape, dtype=np.float64)
    # the open (component, target position) pairs, by position, then component
    pos = np.repeat(np.arange(n - v0), 3)
    c = np.tile(np.arange(3), n - v0)
    # the size at which each pair's kernels underflowed, 0 where none did
    failed_at = np.zeros(shape, dtype=np.int64)
    v = v0
    while pos.size:
        k = pos + v0
        value_windows = _windows(observed, v)
        rows = k - v
        yhat = np.empty(pos.size)
        lost = np.empty(pos.size, dtype=bool)
        for block, weights in _weight_blocks(epochs, k, v, config.bandwidth):
            yhat[block] = _convex_combinations(weights, value_windows, (c[block], rows[block]))
            lost[block] = np.isnan(weights[:, 0])
        abs_err = np.abs(observed[c, k] - yhat)
        passed = abs_err < threshold_m
        # v0 is every pair's first try; later sizes must be strictly better,
        # so the earliest size wins ties (a pass is always better)
        better = abs_err < best_abs[c, pos] if v > v0 else np.ones(pos.size, dtype=bool)
        improved = c[better], pos[better]
        predicted[improved] = yhat[better]
        used[improved] = v
        best_abs[improved] = abs_err[better]
        met[c, pos] = passed
        # an underflow closes its pair; the search raises below, so the
        # updates of a lost pair go unread
        failed_at[c[lost], pos[lost]] = v
        keep = ~passed & ~lost & (v < caps[pos])
        pos, c = pos[keep], c[keep]
        v += 1
    if failed_at.any():
        # C order is (component, position) order: the first pair that the
        # per-target loop, which finishes each component before the next,
        # finds underflowing
        c, p = np.argwhere(failed_at)[0]
        raise _underflow_error(epochs, v0 + int(p), int(failed_at[c, p]), config.bandwidth,
                               tuple(Component)[c])
    predicted = finite_forecasts(station, v0, predicted, "kernel")
    return StationForecast(v0, {Mode.TEACHER_FORCED: predicted},
                           training_size_used=used, threshold_met=met)
