"""Backtesting experiments: training-size sweeps, per-station evaluation,
method comparison with timing, and synthetic stand-in data.

Everything here is deterministic given its inputs and seeds, and both
forecasting methods are always scored on exactly the same prediction
epochs, so their criteria are comparable term by term.
"""

from __future__ import annotations

import csv
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, NumericError, UndefinedMetricError
from .grnn import BandwidthRule, GrnnConfig, Mode, checked_training_size, forecast_series
from .metrics import (
    CRITERIA,
    compute_report,
    criteria_ratios,
    mean_criteria,
    printed,
)
from .series import (
    Component,
    GapReport,
    StationSeries,
    detect_gaps,
    mjd_to_decimal_year,
    open_text,
)
from .theta import ThetaFit, checked_window, theta_backtest

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# synthetic stand-in data
# ---------------------------------------------------------------------------

class SyntheticKind(str, Enum):
    """Families of generated station series."""

    CONSTANT = "constant"              # flat; ignores trend, cycle and noise
    LINEAR = "linear"                  # base + trend (+ noise)
    TREND_PLUS_ANNUAL = "trend-annual" # base + trend + annual cycle (+ noise)
    GAPPED_TREND = "gapped-trend"      # trend-annual with epoch spans removed


@dataclass(frozen=True)
class SyntheticParams:
    """Knobs for :func:`generate_synthetic`, which samples one epoch a day.

    ``base_m`` holds one offset per component at earth-centered coordinate
    magnitudes; ``gap_spans`` lists ``(start_day_offset, length_days)``
    holes cut from the epoch axis (gapped kind only, which defaults to a
    single 30-day hole mid-series when the list is empty).
    """

    start_mjd: float = 55000.0
    base_m: tuple[float, float, float] = (4075000.0, 931000.0, 4801000.0)
    slope_m_per_day: float = 5e-5
    annual_amplitude_m: float = 0.005
    annual_phase_rad: tuple[float, float, float] = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    noise_std_m: float = 0.0
    gap_spans: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.start_mjd <= 0:
            raise DataError("start_mjd must be positive")
        if self.noise_std_m < 0:
            raise DataError("noise_std_m must be non-negative")
        for span in self.gap_spans:
            if len(span) != 2 or span[0] < 0 or span[1] < 1:
                raise DataError(f"invalid gap span {span!r}")


_ANNUAL_PERIOD_DAYS = 365.25


def generate_synthetic(
    kind: SyntheticKind,
    length: int,
    seed: int = 0,
    params: SyntheticParams | None = None,
) -> StationSeries:
    """Generate one deterministic synthetic station series.

    The constant kind is exactly flat for any seed. Noise, when enabled,
    is Gaussian per component from one seeded generator.
    """
    kind = SyntheticKind(kind)
    if length < 10:
        raise DataError("synthetic series need length >= 10")
    params = params or SyntheticParams()
    t = np.arange(length, dtype=np.float64)
    epochs = params.start_mjd + t

    rng = np.random.default_rng(seed)
    values = np.empty((3, length), dtype=np.float64)
    for ci in range(3):
        y = np.full(length, params.base_m[ci], dtype=np.float64)
        if kind is not SyntheticKind.CONSTANT:
            y = y + params.slope_m_per_day * t
            if kind in (SyntheticKind.TREND_PLUS_ANNUAL, SyntheticKind.GAPPED_TREND):
                y = y + params.annual_amplitude_m * np.sin(
                    2.0 * np.pi * t / _ANNUAL_PERIOD_DAYS + params.annual_phase_rad[ci]
                )
            if params.noise_std_m > 0:
                y = y + params.noise_std_m * rng.standard_normal(length)
        values[ci] = y

    keep = np.ones(length, dtype=bool)
    if kind is SyntheticKind.GAPPED_TREND:
        spans = params.gap_spans or ((length // 2, 30),)
        for start, ndays in spans:
            keep &= ~((t >= start) & (t < start + ndays))
    if keep.sum() < 3:
        raise DataError("gap spans removed nearly the whole series")

    epochs, values = epochs[keep], values.compress(keep, axis=1)
    # owned, C-contiguous and read-only: the station keeps them without a copy
    epochs.flags.writeable = values.flags.writeable = False
    return StationSeries(f"synthetic-{kind.value}-{seed}", epochs, values)


# ---------------------------------------------------------------------------
# training-size sweep
# ---------------------------------------------------------------------------

@contextmanager
def at_station(station_id: str, *where: str,
               epochs_mjd: np.ndarray | None = None) -> Iterator[None]:
    """Re-raise a numeric failure or a data error with where it occurred.

    The message gains a ``station <id>: `` prefix, followed by each of
    ``where`` (a training size, a component, a method or a mode) and
    ``: ``. When ``epochs_mjd`` holds the epochs of the pairs being
    scored, a pair that leaves a criterion undefined is named by its
    epoch, ``at MJD <epoch>``, instead of its index. The class is kept,
    so the failure still maps to its exit code (numeric failure or data
    error), also when it crosses a worker process.
    """
    try:
        yield
    except (NumericError, DataError) as exc:
        message = str(exc)
        if (isinstance(exc, UndefinedMetricError) and exc.index is not None
                and epochs_mjd is not None):
            message = message.replace(f"at index {exc.index}:",
                                      f"at MJD {float(epochs_mjd[exc.index])!r}:", 1)
        prefix = "".join(f"{w}: " for w in (f"station {station_id}", *where))
        raise type(exc)(prefix + message) from None


def run_sweep(
    series: StationSeries,
    v_values: Iterable[int],
    bandwidth: float | BandwidthRule = BandwidthRule.WINDOW_STD,
) -> tuple[dict, ...]:
    """Backtest each training size in ``v_values`` for every component,
    each with the kernel ``bandwidth`` (days, or a :class:`BandwidthRule`).

    Whether the window update should feed predictions back or stick to
    observations is not obvious a priori, so the sweep runs every
    :class:`Mode` and reports each. Gives one row per (training size,
    component, mode), ordered by size, then component, then mode: a dict
    keyed like the header of :func:`write_sweep_csv`, ``v``,
    ``component``, ``mode`` (its string value), then the
    :func:`compute_report` criteria and ``n``.
    Each training size ``v`` is one station walk: its kernel weights are
    computed once and serve every (component, mode) row of that size;
    nothing is reused across sizes. Row ``c`` of each mode's ``(3, n - v)``
    forecasts is scored against component ``c``'s raw positions from
    epoch ``v`` on. Every size is checked as :class:`GrnnConfig` checks it
    before any walk; a :class:`range` is checked by its ends, so a series
    too short for its largest size is refused, with the station named,
    without listing its sizes. A walk's failure names the station and the
    training size; a scoring failure also names the component, the mode
    and, for an undefined term, the epoch.
    """
    # a range is checked by its ends, so an oversized one is refused
    # without listing its sizes; its elements are integers already
    if isinstance(v_values, range):
        sizes = v_values if v_values.step > 0 else v_values[::-1]
    else:
        sizes = sorted({checked_training_size(v) for v in v_values})
    if not sizes:
        raise DataError("empty training-size range")
    checked_training_size(sizes[0])
    p = series.count
    with at_station(series.station_id):
        if sizes[-1] >= p:
            raise DataError(f"refused: v_max {sizes[-1]} must be < series length {p}")
        if p - sizes[-1] < 2:
            raise DataError("refused: largest training size leaves fewer than 2 predictions")
    modes = tuple(Mode)
    rows = []
    for v in sizes:
        config = GrnnConfig(v, bandwidth)
        size = f"training size {v}"
        with at_station(series.station_id, size):
            walks = forecast_series(series, config, modes)
        epochs = series.epochs_mjd[walks.start:]
        for c, (component, values) in enumerate(zip(Component, series.values_m)):
            for mode in modes:
                with at_station(series.station_id, size, f"component {component.value}",
                                f"mode {mode.value}", epochs_mjd=epochs):
                    report = compute_report(walks.predicted_m[mode][c],
                                            values[walks.start:])
                rows.append({
                    "v": v,
                    "component": component.value,
                    "mode": mode.value,
                    **report,
                })
    return tuple(rows)


# ---------------------------------------------------------------------------
# per-station evaluation
# ---------------------------------------------------------------------------

def _span_label(first_mjd: float, last_mjd: float) -> str:
    first = int(math.floor(mjd_to_decimal_year(first_mjd)))
    last = int(math.floor(mjd_to_decimal_year(last_mjd)))
    return f"{first}-{last}"


def evaluate_station(
    series: StationSeries,
    grnn_config: GrnnConfig | None = None,
    theta_window: int | None = None,
    *,
    mode: Mode = Mode.RECURSIVE,
    theta_fit: ThetaFit = ThetaFit.ROLLING,
    gap_factor: float = 1.5,
) -> dict:
    """Backtest both methods on one station and score them identically.

    The kernel walk runs in window-update ``mode``. The Theta window
    defaults to the kernel method's training size. The settings are
    checked before any walk runs, and one station walk of each method
    gives the ``(3, m)`` forecasts of all three components. Both methods
    are scored on the station's last ``n - max(v, theta window)`` epochs:
    the last columns of each method's forecasts, against the same epochs
    of the raw positions, so the two are aligned when the windows differ
    too. A failure names the station; a scoring failure also names the
    component, the method and, for an undefined term, the epoch.

    Gives the station's block of ``report.json``, as
    :func:`write_reports_json` writes it: its id, a null country, span
    and gap state, the number of shared predictions, the criteria of each
    method by component under ``metrics``, and the ``settings`` that
    produced them.
    """
    grnn_config = grnn_config or GrnnConfig()
    # first: a bad setting is rejected before the station's length is
    # checked or any backtest runs
    theta_window = checked_window(
        grnn_config.training_size if theta_window is None else theta_window)
    mode, theta_fit = Mode(mode), ThetaFit(theta_fit)
    gaps: GapReport = detect_gaps(series, gap_factor)
    keep = series.count - max(grnn_config.training_size, theta_window)
    with at_station(series.station_id):
        if keep < 2:
            raise DataError(
                "series too short for evaluation: need at least 2 shared predictions"
            )
        walks = forecast_series(series, grnn_config, (mode,))
        thetas = theta_backtest(series, theta_window, fit=theta_fit)
    predicted = {"grnn": walks.predicted_m[mode],
                 "theta": thetas.predicted_m[Mode.TEACHER_FORCED]}
    metrics: dict[str, dict[str, dict]] = {method: {} for method in predicted}
    for c, (component, values) in enumerate(zip(Component, series.values_m)):
        for method, forecasts in predicted.items():
            with at_station(series.station_id, f"component {component.value}",
                            f"method {method}", epochs_mjd=series.epochs_mjd[-keep:]):
                metrics[method][component.value] = compute_report(
                    forecasts[c, -keep:], values[-keep:])
    first_mjd, last_mjd = float(series.epochs_mjd[0]), float(series.epochs_mjd[-1])
    bw = grnn_config.bandwidth
    return {
        "station_id": series.station_id,
        # schema 1 keeps the key; station files carry no country
        "country": None,
        "span": {"first_mjd": first_mjd, "last_mjd": last_mjd,
                 "label": _span_label(first_mjd, last_mjd)},
        "state": gaps.state.value,
        "gap_count": len(gaps.gaps),
        "largest_gap_days": gaps.largest_gap_days,
        "n_predictions": keep,
        "metrics": metrics,
        "settings": {
            "grnn": {
                "training_size": grnn_config.training_size,
                "bandwidth": bw.value if isinstance(bw, BandwidthRule) else bw,
                # schema 1 keeps these keys; an evaluation never runs the adaptive search
                "threshold_m": None,
                "max_training_size": None,
                "mode": mode.value,
            },
            "theta": {"window": theta_window, "fit": theta_fit.value},
            "gap_factor": gap_factor,
        },
    }


def evaluate_stations(
    stations: Sequence[StationSeries],
    grnn_config: GrnnConfig | None = None,
    theta_window: int | None = None,
    *,
    mode: Mode = Mode.RECURSIVE,
    theta_fit: ThetaFit = ThetaFit.ROLLING,
    gap_factor: float = 1.5,
    jobs: int = 1,
) -> list[dict]:
    """Evaluate many stations, optionally across worker processes.

    Gives one :func:`evaluate_station` block per station, in the input
    order whatever the execution order was.
    """
    evaluate = partial(evaluate_station, grnn_config=grnn_config, theta_window=theta_window,
                       mode=mode, theta_fit=theta_fit, gap_factor=gap_factor)
    if jobs <= 1 or len(stations) <= 1:
        return list(map(evaluate, stations))
    # imported here: loading the pool machinery slows every serial start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(stations))) as pool:
        return list(pool.map(evaluate, stations))


# ---------------------------------------------------------------------------
# method comparison and timing
# ---------------------------------------------------------------------------

def time_methods(
    stations: Sequence[StationSeries],
    grnn_config: GrnnConfig | None = None,
    theta_window: int | None = None,
    *,
    mode: Mode = Mode.RECURSIVE,
    theta_fit: ThetaFit = ThetaFit.ROLLING,
    repetitions: int = 3,
) -> dict:
    """Time both methods on the same prediction workload, serially.

    Runs ``repetitions`` full passes per method on one worker, after one
    untimed warmup pass per method, and keeps every sample. Samples cover
    the backtest walks only: the workload arrives parsed and nothing is
    serialized inside the timed spans. A kernel sample is one station
    walk per station, all three components from shared weights in
    window-update ``mode``, as :func:`evaluate_station` does; a Theta
    sample is one station walk per station too, X, Y and Z together.

    Gives the ``timing`` block of ``report.json``: the samples
    ``grnn_seconds`` and ``theta_seconds``, their medians
    ``grnn_median_s`` and ``theta_median_s``, then
    ``workload_predictions``, the kernel forecasts of one sample, and
    ``theta_predictions``, the Theta forecasts; the two counts differ when
    the Theta window differs from the kernel's training size.
    """
    if repetitions < 3:
        raise DataError("need at least 3 repetitions for a stable median")
    grnn_config = grnn_config or GrnnConfig()
    # before the warmup: a bad setting would otherwise fail only after it
    theta_window = checked_window(
        grnn_config.training_size if theta_window is None else theta_window)
    mode, theta_fit = Mode(mode), ThetaFit(theta_fit)
    workload = sum(3 * (s.count - grnn_config.training_size) for s in stations)
    theta_workload = sum(3 * (s.count - theta_window) for s in stations)

    def run_grnn() -> None:
        for station in stations:
            forecast_series(station, grnn_config, (mode,))

    def run_theta() -> None:
        for station in stations:
            theta_backtest(station, theta_window, fit=theta_fit)

    samples: dict[str, list[float]] = {"grnn": [], "theta": []}
    for method, runner in (("grnn", run_grnn), ("theta", run_theta)):
        runner()  # warmup
        for _ in range(repetitions):
            t0 = time.perf_counter()
            runner()
            samples[method].append(time.perf_counter() - t0)
    return {
        "grnn_seconds": samples["grnn"],
        "theta_seconds": samples["theta"],
        "grnn_median_s": float(np.median(samples["grnn"])),
        "theta_median_s": float(np.median(samples["theta"])),
        "workload_predictions": workload,
        "theta_predictions": theta_workload,
    }


def compare_methods(
    reports: Sequence[dict],
    timing: dict | None = None,
) -> dict:
    """Divide the kernel method's criteria by Theta's, giving the
    ``comparison`` block of ``report.json``.

    ``reports`` are station blocks as :func:`evaluate_station` gives
    them, read under ``metrics``. Criteria are first averaged over
    stations per component, then divided; per-station ratios are also
    emitted so the aggregation choice stays auditable. Ratios below 1
    favor the kernel method, and a ratio is ``None`` where Theta's
    criterion is 0. ``timing``, the block :func:`time_methods` gives, is
    stored as given, beside the ratio of its medians.
    """
    if not reports:
        raise DataError("need at least one station report")
    components = [c.value for c in Component]
    aggregated = {}
    for comp in components:
        grnn = mean_criteria([r["metrics"]["grnn"][comp] for r in reports])
        theta = mean_criteria([r["metrics"]["theta"][comp] for r in reports])
        aggregated[comp] = {**criteria_ratios(grnn, theta), "grnn": grnn, "theta": theta}
    per_station = [
        {
            "station_id": r["station_id"],
            **{comp: criteria_ratios(r["metrics"]["grnn"][comp], r["metrics"]["theta"][comp])
               for comp in components},
        }
        for r in reports
    ]
    block = {"aggregated": aggregated, "per_station": per_station,
             "time_ratio": None, "timing": None}
    if timing is not None:
        block["time_ratio"] = timing["grnn_median_s"] / timing["theta_median_s"]
        block["timing"] = timing
    return block


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _write_json(doc: dict | list, dest: str | Path | IO[str]) -> None:
    """Write ``doc`` indented, floats in shortest round-trip form, with a
    final newline; NaN and infinity are refused, since JSON has neither.
    The whole document is serialized first, so a refused one leaves
    ``dest`` untouched."""
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    with open_text(dest) as stream:
        stream.write(text)


def write_reports_json(
    reports: Sequence[dict],
    comparison: dict | None,
    dest: str | Path | IO[str],
    *,
    run: dict | None = None,
) -> None:
    """Write the full-fidelity JSON document (schema-versioned).

    ``reports``, the station blocks of :func:`evaluate_station`, and
    ``comparison`` are written as given, normally what :func:`compare_methods`
    returns. ``run``, when given, is written as the ``"run"`` block right
    after the schema version. Floats serialize in shortest round-trip
    form; given identical inputs the output is byte-identical run to run.
    """
    doc = {"schema_version": SCHEMA_VERSION}
    if run is not None:
        doc["run"] = run
    doc |= {
        "stations": list(reports),
        "comparison": comparison,
    }
    _write_json(doc, dest)


def write_reports_csv(reports: Sequence[dict], dest: str | Path | IO[str]) -> None:
    """One summary row per station/method/component of the station blocks
    of :func:`evaluate_station`, in their ``metrics`` order (lossy floats)."""
    with open_text(dest) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["station", "span", "state", "component", "method",
                         *(key for key, *_ in CRITERIA)])
        for r in reports:
            for method, by_component in r["metrics"].items():
                for comp, criteria in by_component.items():
                    writer.writerow([r["station_id"], r["span"]["label"], r["state"], comp,
                                     method, *printed(criteria)])


def write_sweep_csv(rows: Iterable[dict], dest: str | Path | IO[str]) -> None:
    """The rows of :func:`run_sweep` as plot-ready CSV, in the order given:
    v, component, mode, the criteria (lossy floats), then n."""
    with open_text(dest) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["v", "component", "mode", *(key for key, *_ in CRITERIA), "n"])
        for row in rows:
            writer.writerow([row["v"], row["component"], row["mode"], *printed(row),
                             row["n"]])


def write_predictions_json(rows: Iterable[dict], dest: str | Path | IO[str]) -> None:
    """The forecast rows of ``gnss-grnn predict`` as a JSON list, in the
    order given (floats in shortest round-trip form)."""
    _write_json(list(rows), dest)


def write_predictions_csv(rows: Sequence[dict], dest: str | Path | IO[str]) -> None:
    """The forecast rows of ``gnss-grnn predict`` as CSV, in the order
    given: the first row's keys head the columns, and floats are written
    in shortest round-trip form."""
    with open_text(dest) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(list(rows[0].keys()))
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row.values()])
