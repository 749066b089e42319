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
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import BandwidthTooSmallError, DataError
from .grnn import BandwidthRule, ForecastResult, GrnnConfig, Mode, forecast_series
from .metrics import (
    CRITERIA,
    MetricsReport,
    PredictionPairs,
    compute_report,
    criteria_ratios,
    mean_criteria,
)
from .series import (
    Component,
    ComponentSeries,
    GapReport,
    SeriesState,
    StationSeries,
    detect_gaps,
    mjd_to_decimal_year,
    open_text,
)
from .theta import ThetaFit, theta_backtest

SCHEMA_VERSION = 1

_COMPONENTS = ("X", "Y", "Z")


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
    """Knobs for :func:`generate_synthetic`.

    ``base_m`` holds one offset per component at earth-centered coordinate
    magnitudes; ``gap_spans`` lists ``(start_day_offset, length_days)``
    holes cut from the epoch axis (gapped kind only, which defaults to a
    single 30-day hole mid-series when the list is empty).
    """

    start_mjd: float = 55000.0
    interval_days: float = 1.0
    base_m: tuple[float, float, float] = (4075000.0, 931000.0, 4801000.0)
    slope_m_per_day: float = 5e-5
    annual_amplitude_m: float = 0.005
    annual_phase_rad: tuple[float, float, float] = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    noise_std_m: float = 0.0
    gap_spans: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.interval_days <= 0:
            raise DataError("interval_days must be positive")
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
    t = np.arange(length, dtype=np.float64) * params.interval_days
    epochs = params.start_mjd + t

    rng = np.random.default_rng(seed)
    values = []
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
        values.append(y)

    keep = np.ones(length, dtype=bool)
    if kind is SyntheticKind.GAPPED_TREND:
        spans = params.gap_spans or ((length // 2, 30),)
        offsets = t / params.interval_days
        for start, ndays in spans:
            keep &= ~((offsets >= start) & (offsets < start + ndays))
    if keep.sum() < 3:
        raise DataError("gap spans removed nearly the whole series")

    components = tuple(
        ComponentSeries(comp, epochs[keep], values[ci][keep])
        for ci, comp in enumerate((Component.X, Component.Y, Component.Z))
    )
    return StationSeries(
        station_id=f"synthetic-{kind.value}-{seed}",
        components=components,  # type: ignore[arg-type]
        nominal_interval_days=params.interval_days,
    )


# ---------------------------------------------------------------------------
# training-size sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """Criteria for one (training size, component, mode) cell."""

    training_size: int
    component: str
    mode: Mode
    metrics: MetricsReport


def _scored_pairs(result: ForecastResult, offset: float) -> PredictionPairs:
    """Pairs for scoring, shifted back by the component's ``offset_m``."""
    if offset == 0.0:
        return PredictionPairs(predicted_m=result.predicted_m, observed_m=result.observed_m)
    return PredictionPairs(
        predicted_m=result.predicted_m + offset,
        observed_m=result.observed_m + offset,
    )


@contextmanager
def at_station(station_id: str, training_size: int | None = None) -> Iterator[None]:
    """Re-raise a kernel underflow or a data error with the station it
    occurred in.

    The message gains a ``station <id>: `` prefix, followed by
    ``training size <v>: `` when ``training_size`` is given; the class is
    kept, so the failure still maps to its exit code (numeric failure or
    data error), also when it crosses a worker process.
    """
    try:
        yield
    except (BandwidthTooSmallError, DataError) as exc:
        where = f"station {station_id}: "
        if training_size is not None:
            where += f"training size {training_size}: "
        raise type(exc)(f"{where}{exc}") from None


def run_sweep(
    series: StationSeries,
    v_values: Iterable[int],
    bandwidth: float | BandwidthRule = BandwidthRule.WINDOW_STD,
    modes: Sequence[Mode] = (Mode.RECURSIVE, Mode.TEACHER_FORCED),
) -> tuple[SweepRow, ...]:
    """Backtest each training size in ``v_values`` for every component,
    each with the kernel ``bandwidth`` (days, or a :class:`BandwidthRule`).

    Whether the window update should feed predictions back or stick to
    observations is not obvious a priori, so the sweep runs the modes in
    ``modes`` and reports each. Gives one :class:`SweepRow` per (training
    size, component, mode), ordered by size, then component, then mode.
    Each training size is one station walk: its kernel weights are
    computed once and serve every (component, mode) row of that size;
    nothing is reused across sizes. A series too short for the largest
    size is refused with the station named, and an underflow names the
    station and the training size it occurred at. Each component's
    ``offset_m`` is added back to predictions and truths before scoring,
    so a mean-centered series scores as its raw positions.
    """
    sizes = sorted(set(int(v) for v in v_values))
    if not sizes:
        raise DataError("empty training-size range")
    if sizes[0] < 1:
        raise DataError("training sizes must be >= 1")
    p = series.count
    with at_station(series.station_id):
        if sizes[-1] >= p:
            raise DataError(f"refused: v_max {sizes[-1]} must be < series length {p}")
        if p - sizes[-1] < 2:
            raise DataError("refused: largest training size leaves fewer than 2 predictions")
    rows = []
    for v in sizes:
        config = GrnnConfig(v, bandwidth)
        with at_station(series.station_id, v):
            walks = forecast_series(series, config, modes)
        for comp in series.components:
            for mode in modes:
                rows.append(SweepRow(
                    training_size=v,
                    component=str(comp.component.value),
                    mode=Mode(mode),
                    metrics=compute_report(_scored_pairs(walks[comp.component, mode],
                                                         comp.offset_m)),
                ))
    return tuple(rows)


# ---------------------------------------------------------------------------
# per-station evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationSettings:
    """Everything that determined one station evaluation, for the record:
    the kernel model, the window-update mode its walk ran in, and the
    Theta and gap settings."""

    grnn: GrnnConfig
    mode: Mode
    theta_window: int
    theta_fit: ThetaFit
    gap_factor: float


@dataclass(frozen=True)
class StationReport:
    """Per-station accuracy of both methods, plus the gap state."""

    station_id: str
    country: str | None
    first_mjd: float
    last_mjd: float
    state: SeriesState
    gap_count: int
    largest_gap_days: float
    n_predictions: int
    grnn_metrics: dict[str, MetricsReport]
    theta_metrics: dict[str, MetricsReport]
    settings: EvaluationSettings

    @property
    def span_label(self) -> str:
        first = int(math.floor(mjd_to_decimal_year(self.first_mjd)))
        last = int(math.floor(mjd_to_decimal_year(self.last_mjd)))
        return f"{first}-{last}"


def _align_tail(result: ForecastResult, keep: int) -> ForecastResult:
    if len(result) == keep:
        return result
    return replace(
        result,
        epochs_mjd=result.epochs_mjd[-keep:],
        predicted_m=result.predicted_m[-keep:],
        observed_m=result.observed_m[-keep:],
    )


def evaluate_station(
    series: StationSeries,
    grnn_config: GrnnConfig | None = None,
    theta_window: int | None = None,
    *,
    mode: Mode = Mode.RECURSIVE,
    theta_fit: ThetaFit = ThetaFit.ROLLING,
    gap_factor: float = 1.5,
) -> StationReport:
    """Backtest both methods on one station and score them identically.

    The kernel walk runs in window-update ``mode``. The Theta window
    defaults to the kernel method's training size. When the two differ,
    both prediction lists are trimmed to the epochs both methods
    predicted, and that equality is checked before any criterion is
    computed. One station walk gives the kernel forecasts of all three
    components from shared weights. Each component's ``offset_m``
    is added back to predictions and truths before scoring, so a
    mean-centered series scores as its raw positions.
    """
    grnn_config = grnn_config or GrnnConfig()
    if theta_window is None:
        theta_window = grnn_config.training_size
    start = max(grnn_config.training_size, theta_window)
    with at_station(series.station_id):
        if series.count - start < 2:
            raise DataError(
                "series too short for evaluation: need at least 2 shared predictions"
            )
    keep = series.count - start
    # first: a bad theta window or gap factor is rejected before any backtest runs
    if theta_window < 3:
        raise DataError("theta window must be >= 3")
    gaps: GapReport = detect_gaps(series, gap_factor)
    grnn_metrics: dict[str, MetricsReport] = {}
    theta_metrics: dict[str, MetricsReport] = {}
    with at_station(series.station_id):
        walks = forecast_series(series, grnn_config, (mode,))
    for comp in series.components:
        g = _align_tail(walks[comp.component, mode], keep)
        t = _align_tail(theta_backtest(comp, theta_window, fit=theta_fit), keep)
        if not np.array_equal(g.epochs_mjd, t.epochs_mjd):
            raise RuntimeError("methods were about to be scored on different epochs")
        grnn_metrics[comp.component.value] = compute_report(_scored_pairs(g, comp.offset_m))
        theta_metrics[comp.component.value] = compute_report(_scored_pairs(t, comp.offset_m))
    return StationReport(
        station_id=series.station_id,
        country=series.country,
        first_mjd=float(series.epochs_mjd[0]),
        last_mjd=float(series.epochs_mjd[-1]),
        state=gaps.state,
        gap_count=len(gaps.gaps),
        largest_gap_days=gaps.largest_gap_days,
        n_predictions=keep,
        grnn_metrics=grnn_metrics,
        theta_metrics=theta_metrics,
        settings=EvaluationSettings(
            grnn=grnn_config,
            mode=Mode(mode),
            theta_window=theta_window,
            theta_fit=ThetaFit(theta_fit),
            gap_factor=gap_factor,
        ),
    )


def evaluate_stations(
    stations: Sequence[StationSeries],
    grnn_config: GrnnConfig | None = None,
    theta_window: int | None = None,
    *,
    mode: Mode = Mode.RECURSIVE,
    theta_fit: ThetaFit = ThetaFit.ROLLING,
    gap_factor: float = 1.5,
    jobs: int = 1,
) -> list[StationReport]:
    """Evaluate many stations, optionally across worker processes.

    The report order always matches the input order, whatever the
    execution order was.
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

@dataclass(frozen=True)
class MethodTiming:
    """Wall-clock samples of both methods on one identical workload.

    Samples cover the backtest walks only: the workload arrives parsed
    and nothing is serialized inside the timed spans. A kernel sample is
    one station walk per station, all three components from shared
    weights; a Theta sample is one walk per component.
    ``workload_predictions`` counts the kernel forecasts of one sample
    and ``theta_predictions`` the Theta forecasts; they differ when the
    Theta window differs from the kernel's training size.
    """

    grnn_seconds: tuple[float, ...]
    theta_seconds: tuple[float, ...]
    workload_predictions: int
    theta_predictions: int

    @property
    def grnn_median(self) -> float:
        return statistics.median(self.grnn_seconds)

    @property
    def theta_median(self) -> float:
        return statistics.median(self.theta_seconds)

    @property
    def time_ratio(self) -> float:
        return self.grnn_median / self.theta_median


def time_methods(
    stations: Sequence[StationSeries],
    grnn_config: GrnnConfig | None = None,
    theta_window: int | None = None,
    *,
    mode: Mode = Mode.RECURSIVE,
    theta_fit: ThetaFit = ThetaFit.ROLLING,
    repetitions: int = 3,
) -> MethodTiming:
    """Time both methods on the same prediction workload, serially.

    Runs ``repetitions`` full passes per method on one worker and keeps
    every sample; medians are exposed on the result. One untimed warmup
    pass per method precedes the samples. A kernel pass makes one call
    per station, which walks X, Y and Z from one set of weights in
    window-update ``mode``, as :func:`evaluate_station` does.
    """
    if repetitions < 3:
        raise DataError("need at least 3 repetitions for a stable median")
    grnn_config = grnn_config or GrnnConfig()
    if theta_window is None:
        theta_window = grnn_config.training_size
    # before the warmup: a bad theta window would otherwise fail only after it
    if theta_window < 3:
        raise DataError("theta window must be >= 3")
    components = [c for s in stations for c in s.components]
    workload = sum(c.count - grnn_config.training_size for c in components)
    theta_workload = sum(c.count - theta_window for c in components)

    def run_grnn() -> None:
        for station in stations:
            forecast_series(station, grnn_config, (mode,))

    def run_theta() -> None:
        for comp in components:
            theta_backtest(comp, theta_window, fit=theta_fit)

    samples: dict[str, list[float]] = {"grnn": [], "theta": []}
    for method, runner in (("grnn", run_grnn), ("theta", run_theta)):
        runner()  # warmup
        for _ in range(repetitions):
            t0 = time.perf_counter()
            runner()
            samples[method].append(time.perf_counter() - t0)
    return MethodTiming(
        grnn_seconds=tuple(samples["grnn"]),
        theta_seconds=tuple(samples["theta"]),
        workload_predictions=workload,
        theta_predictions=theta_workload,
    )


def compare_methods(
    reports: Sequence[StationReport],
    timing: MethodTiming | None = None,
) -> dict:
    """Divide the kernel method's criteria by Theta's, giving the
    ``comparison`` block of ``report.json``.

    Criteria are first averaged over stations per component, then
    divided; per-station ratios are also emitted so the aggregation
    choice stays auditable. Ratios below 1 favor the kernel method, and
    a ratio is ``None`` where Theta's criterion is 0.
    """
    if not reports:
        raise DataError("need at least one station report")
    aggregated = {}
    for comp in _COMPONENTS:
        grnn = mean_criteria([r.grnn_metrics[comp] for r in reports])
        theta = mean_criteria([r.theta_metrics[comp] for r in reports])
        aggregated[comp] = {**criteria_ratios(grnn, theta),
                            "grnn": asdict(grnn), "theta": asdict(theta)}
    per_station = [
        {
            "station_id": r.station_id,
            **{comp: criteria_ratios(r.grnn_metrics[comp], r.theta_metrics[comp])
               for comp in _COMPONENTS},
        }
        for r in reports
    ]
    block = {"aggregated": aggregated, "per_station": per_station,
             "time_ratio": None, "timing": None}
    if timing is not None:
        grnn_median, theta_median = timing.grnn_median, timing.theta_median
        block["time_ratio"] = grnn_median / theta_median
        block["timing"] = {
            "grnn_seconds": list(timing.grnn_seconds),
            "theta_seconds": list(timing.theta_seconds),
            "grnn_median_s": grnn_median,
            "theta_median_s": theta_median,
            "workload_predictions": timing.workload_predictions,
            "theta_predictions": timing.theta_predictions,
        }
    return block


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _settings_dict(settings: EvaluationSettings) -> dict:
    bw = settings.grnn.bandwidth
    return {
        "grnn": {
            "training_size": settings.grnn.training_size,
            "bandwidth": bw.value if isinstance(bw, BandwidthRule) else bw,
            # schema 1 keeps these keys; an evaluation never runs the adaptive search
            "threshold_m": None,
            "max_training_size": None,
            "mode": settings.mode.value,
        },
        "theta": {
            "window": settings.theta_window,
            "fit": settings.theta_fit.value,
        },
        "gap_factor": settings.gap_factor,
    }


def station_report_dict(report: StationReport) -> dict:
    return {
        "station_id": report.station_id,
        "country": report.country,
        "span": {
            "first_mjd": report.first_mjd,
            "last_mjd": report.last_mjd,
            "label": report.span_label,
        },
        "state": report.state.value,
        "gap_count": report.gap_count,
        "largest_gap_days": report.largest_gap_days,
        "n_predictions": report.n_predictions,
        "metrics": {
            "grnn": {c: asdict(report.grnn_metrics[c]) for c in _COMPONENTS},
            "theta": {c: asdict(report.theta_metrics[c]) for c in _COMPONENTS},
        },
        "settings": _settings_dict(report.settings),
    }


def write_reports_json(
    reports: Sequence[StationReport],
    comparison: dict | None,
    dest: str | Path | IO[str],
    *,
    run: dict | None = None,
) -> None:
    """Write the full-fidelity JSON document (schema-versioned).

    ``comparison`` is written as given, normally what :func:`compare_methods`
    returns. ``run``, when given, is written as the ``"run"`` block right
    after the schema version. Floats serialize in shortest round-trip
    form; given identical inputs the output is byte-identical run to run.
    """
    doc = {"schema_version": SCHEMA_VERSION}
    if run is not None:
        doc["run"] = run
    doc |= {
        "stations": [station_report_dict(r) for r in reports],
        "comparison": comparison,
    }
    with open_text(dest) as stream:
        json.dump(doc, stream, indent=2, allow_nan=False)
        stream.write("\n")


def write_reports_csv(reports: Sequence[StationReport], dest: str | Path | IO[str]) -> None:
    """One summary row per station/component/method (lossy 6-decimal floats)."""
    with open_text(dest) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["station", "span", "state", "component", "method",
                         *(f.name for f in CRITERIA)])
        for r in reports:
            for method, metrics in (("grnn", r.grnn_metrics), ("theta", r.theta_metrics)):
                for comp in _COMPONENTS:
                    writer.writerow([r.station_id, r.span_label, r.state.value, comp, method,
                                     *metrics[comp].printed()])


def write_sweep_csv(rows: Iterable[SweepRow], dest: str | Path | IO[str]) -> None:
    """The rows of :func:`run_sweep` as plot-ready CSV, in the order given:
    v, component, mode, then the criteria."""
    with open_text(dest) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["v", "component", "mode", *(f.name for f in CRITERIA), "n"])
        for row in rows:
            writer.writerow([row.training_size, row.component, row.mode.value,
                             *row.metrics.printed(), row.metrics.n])
