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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DataError
from .grnn import BandwidthRule, ForecastResult, GrnnConfig, Mode, forecast_series
from .metrics import MetricsReport, PredictionPairs, compute_report
from .series import (
    Component,
    ComponentSeries,
    GapReport,
    SeriesState,
    StationSeries,
    detect_gaps,
    mjd_to_decimal_year,
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
    smape_percent: float
    std_m: float
    mabs_m: float
    n: int


@dataclass(frozen=True)
class SweepResult:
    """All rows of a training-size sweep, ordered by (v, component, mode)."""

    station_id: str
    rows: tuple[SweepRow, ...]


def _scored_pairs(result: ForecastResult, offset: float) -> PredictionPairs:
    """Pairs for scoring, shifted back by ``offset`` when values were centered."""
    if offset == 0.0:
        return result.pairs()
    return PredictionPairs(
        predicted_m=result.predicted_m + offset,
        observed_m=result.observed_m + offset,
    )


def run_sweep(
    series: StationSeries,
    v_values: Iterable[int],
    config: GrnnConfig | None = None,
    modes: Sequence[Mode] = (Mode.RECURSIVE, Mode.TEACHER_FORCED),
    *,
    value_offsets: tuple[float, float, float] | None = None,
) -> SweepResult:
    """Backtest each training size in ``v_values`` for every component.

    Whether the window update should feed predictions back or stick to
    observations is not obvious a priori, so the sweep runs the modes in
    ``modes`` and reports each. Every (v, mode) pair recomputes its walk
    from scratch; nothing is reused across rows. ``value_offsets`` are
    added back to predictions and truths before scoring, for callers
    that pre-centered the component values.
    """
    config = config or GrnnConfig()
    offsets = value_offsets or (0.0, 0.0, 0.0)
    sizes = sorted(set(int(v) for v in v_values))
    if not sizes:
        raise DataError("empty training-size range")
    if sizes[0] < 1:
        raise DataError("training sizes must be >= 1")
    p = series.count
    if sizes[-1] >= p:
        raise DataError(f"refused: v_max {sizes[-1]} must be < series length {p}")
    if p - sizes[-1] < 2:
        raise DataError("refused: largest training size leaves fewer than 2 predictions")
    rows = []
    for v in sizes:
        for comp, offset in zip(series.components, offsets):
            for mode in modes:
                result = forecast_series(comp, replace(config, training_size=v, mode=mode))
                report = compute_report(_scored_pairs(result, offset))
                rows.append(SweepRow(
                    training_size=v,
                    component=str(comp.component.value),
                    mode=Mode(mode),
                    smape_percent=report.smape_percent,
                    std_m=report.std_m,
                    mabs_m=report.mabs_m,
                    n=report.n,
                ))
    return SweepResult(station_id=series.station_id, rows=tuple(rows))


# ---------------------------------------------------------------------------
# per-station evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationSettings:
    """Everything that determined one station evaluation, for the record."""

    grnn: GrnnConfig
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
        n_window_predicted=result.n_window_predicted[-keep:],
    )


def evaluate_station(
    series: StationSeries,
    grnn_config: GrnnConfig | None = None,
    theta_window: int | None = None,
    *,
    theta_fit: ThetaFit = ThetaFit.ROLLING,
    gap_factor: float = 1.5,
    value_offsets: tuple[float, float, float] | None = None,
) -> StationReport:
    """Backtest both methods on one station and score them identically.

    The Theta window defaults to the kernel method's training size. When
    the two differ, both prediction lists are trimmed to the epochs both
    methods predicted, and that equality is checked before any criterion
    is computed. ``value_offsets`` are added back before scoring, for
    callers that pre-centered the component values.
    """
    grnn_config = grnn_config or GrnnConfig()
    offsets = value_offsets or (0.0, 0.0, 0.0)
    if theta_window is None:
        theta_window = grnn_config.training_size
    start = max(grnn_config.training_size, theta_window)
    if series.count - start < 2:
        raise DataError(
            "series too short for evaluation: need at least 2 shared predictions"
        )
    keep = series.count - start
    grnn_metrics: dict[str, MetricsReport] = {}
    theta_metrics: dict[str, MetricsReport] = {}
    for comp, offset in zip(series.components, offsets):
        g = _align_tail(forecast_series(comp, grnn_config), keep)
        t = _align_tail(theta_backtest(comp, theta_window, fit=theta_fit), keep)
        if not np.array_equal(g.epochs_mjd, t.epochs_mjd):
            raise RuntimeError("methods were about to be scored on different epochs")
        grnn_metrics[g.component] = compute_report(_scored_pairs(g, offset))
        theta_metrics[t.component] = compute_report(_scored_pairs(t, offset))
    gaps: GapReport = detect_gaps(series, gap_factor)
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
            theta_window=theta_window,
            theta_fit=ThetaFit(theta_fit),
            gap_factor=gap_factor,
        ),
    )


def _evaluate_one(args) -> StationReport:
    series, grnn_config, theta_window, theta_fit, gap_factor, value_offsets = args
    return evaluate_station(
        series, grnn_config, theta_window, theta_fit=theta_fit,
        gap_factor=gap_factor, value_offsets=value_offsets,
    )


def evaluate_stations(
    stations: Sequence[StationSeries],
    grnn_config: GrnnConfig | None = None,
    theta_window: int | None = None,
    *,
    theta_fit: ThetaFit = ThetaFit.ROLLING,
    gap_factor: float = 1.5,
    jobs: int = 1,
    value_offsets: Sequence[tuple[float, float, float]] | None = None,
) -> list[StationReport]:
    """Evaluate many stations, optionally across worker processes.

    The report order always matches the input order, whatever the
    execution order was.
    """
    offsets = value_offsets or [None] * len(stations)
    if len(offsets) != len(stations):
        raise DataError("one offsets triple per station required")
    work = [
        (s, grnn_config, theta_window, theta_fit, gap_factor, off)
        for s, off in zip(stations, offsets)
    ]
    if jobs <= 1 or len(stations) <= 1:
        return [_evaluate_one(w) for w in work]
    with ProcessPoolExecutor(max_workers=min(jobs, len(stations))) as pool:
        return list(pool.map(_evaluate_one, work))


# ---------------------------------------------------------------------------
# method comparison and timing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpan:
    """One timed phase; only prediction phases are ever timed."""

    method: str
    repetition: int
    seconds: float


@dataclass(frozen=True)
class MethodTiming:
    """Wall-clock samples of both methods on one identical workload.

    Samples cover the backtest walks only: the workload arrives parsed
    and nothing is serialized inside the timed spans (see ``phases``).
    """

    grnn_seconds: tuple[float, ...]
    theta_seconds: tuple[float, ...]
    phases: tuple[PhaseSpan, ...]
    workload_predictions: int

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
    theta_fit: ThetaFit = ThetaFit.ROLLING,
    repetitions: int = 3,
) -> MethodTiming:
    """Time both methods on the same prediction workload, serially.

    Runs ``repetitions`` full passes per method on one worker and keeps
    every sample; medians are exposed on the result. One untimed warmup
    pass per method precedes the samples.
    """
    if repetitions < 3:
        raise DataError("need at least 3 repetitions for a stable median")
    grnn_config = grnn_config or GrnnConfig()
    if theta_window is None:
        theta_window = grnn_config.training_size
    components = [c for s in stations for c in s.components]
    workload = sum(c.count - grnn_config.training_size for c in components)

    def run_grnn() -> None:
        for comp in components:
            forecast_series(comp, grnn_config)

    def run_theta() -> None:
        for comp in components:
            theta_backtest(comp, theta_window, fit=theta_fit)

    phases: list[PhaseSpan] = []
    samples: dict[str, list[float]] = {"grnn": [], "theta": []}
    for method, runner in (("grnn", run_grnn), ("theta", run_theta)):
        runner()  # warmup
        for rep in range(repetitions):
            t0 = time.perf_counter()
            runner()
            dt = time.perf_counter() - t0
            samples[method].append(dt)
            phases.append(PhaseSpan(method=method, repetition=rep, seconds=dt))
    return MethodTiming(
        grnn_seconds=tuple(samples["grnn"]),
        theta_seconds=tuple(samples["theta"]),
        phases=tuple(phases),
        workload_predictions=workload,
    )


@dataclass(frozen=True)
class ComponentComparison:
    """Accuracy ratios (kernel method over Theta) for one component.

    A ratio is ``None`` when the Theta denominator is zero; the raw
    aggregates are always kept so the undefined case stays auditable.
    """

    smape_ratio: float | None
    std_ratio: float | None
    mabs_ratio: float | None
    grnn_smape_percent: float
    grnn_std_m: float
    grnn_mabs_m: float
    theta_smape_percent: float
    theta_std_m: float
    theta_mabs_m: float


@dataclass(frozen=True)
class ComparisonReport:
    """Station-aggregated accuracy ratios plus the optional timing ratio."""

    aggregated: dict[str, ComponentComparison]
    per_station: tuple[dict, ...]
    time_ratio: float | None
    timing: MethodTiming | None


def _ratio(num: float, den: float) -> float | None:
    return None if den == 0.0 else num / den


def compare_methods(
    reports: Sequence[StationReport],
    timing: MethodTiming | None = None,
) -> ComparisonReport:
    """Divide the kernel method's criteria by Theta's.

    Criteria are first averaged over stations per component, then
    divided; per-station ratios are also emitted so the aggregation
    choice stays auditable. Ratios below 1 favor the kernel method.
    """
    if not reports:
        raise DataError("need at least one station report")
    aggregated: dict[str, ComponentComparison] = {}
    for comp in _COMPONENTS:
        g_smape = float(np.mean([r.grnn_metrics[comp].smape_percent for r in reports]))
        g_std = float(np.mean([r.grnn_metrics[comp].std_m for r in reports]))
        g_mabs = float(np.mean([r.grnn_metrics[comp].mabs_m for r in reports]))
        t_smape = float(np.mean([r.theta_metrics[comp].smape_percent for r in reports]))
        t_std = float(np.mean([r.theta_metrics[comp].std_m for r in reports]))
        t_mabs = float(np.mean([r.theta_metrics[comp].mabs_m for r in reports]))
        aggregated[comp] = ComponentComparison(
            smape_ratio=_ratio(g_smape, t_smape),
            std_ratio=_ratio(g_std, t_std),
            mabs_ratio=_ratio(g_mabs, t_mabs),
            grnn_smape_percent=g_smape,
            grnn_std_m=g_std,
            grnn_mabs_m=g_mabs,
            theta_smape_percent=t_smape,
            theta_std_m=t_std,
            theta_mabs_m=t_mabs,
        )
    per_station = tuple(
        {
            "station_id": r.station_id,
            **{
                comp: {
                    "smape_ratio": _ratio(
                        r.grnn_metrics[comp].smape_percent, r.theta_metrics[comp].smape_percent
                    ),
                    "std_ratio": _ratio(r.grnn_metrics[comp].std_m, r.theta_metrics[comp].std_m),
                    "mabs_ratio": _ratio(r.grnn_metrics[comp].mabs_m, r.theta_metrics[comp].mabs_m),
                }
                for comp in _COMPONENTS
            },
        }
        for r in reports
    )
    return ComparisonReport(
        aggregated=aggregated,
        per_station=per_station,
        time_ratio=timing.time_ratio if timing is not None else None,
        timing=timing,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _metrics_dict(report: MetricsReport) -> dict:
    return {
        "smape_percent": report.smape_percent,
        "std_m": report.std_m,
        "mabs_m": report.mabs_m,
        "n": report.n,
    }


def _settings_dict(settings: EvaluationSettings) -> dict:
    bw = settings.grnn.bandwidth
    return {
        "grnn": {
            "training_size": settings.grnn.training_size,
            "bandwidth": bw.value if isinstance(bw, BandwidthRule) else bw,
            "threshold_m": settings.grnn.threshold_m,
            "max_training_size": settings.grnn.max_training_size,
            "mode": settings.grnn.mode.value,
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
            "grnn": {c: _metrics_dict(report.grnn_metrics[c]) for c in _COMPONENTS},
            "theta": {c: _metrics_dict(report.theta_metrics[c]) for c in _COMPONENTS},
        },
        "settings": _settings_dict(report.settings),
    }


def comparison_report_dict(comparison: ComparisonReport) -> dict:
    doc: dict = {
        "aggregated": {
            comp: {
                "smape_ratio": c.smape_ratio,
                "std_ratio": c.std_ratio,
                "mabs_ratio": c.mabs_ratio,
                "grnn": {
                    "smape_percent": c.grnn_smape_percent,
                    "std_m": c.grnn_std_m,
                    "mabs_m": c.grnn_mabs_m,
                },
                "theta": {
                    "smape_percent": c.theta_smape_percent,
                    "std_m": c.theta_std_m,
                    "mabs_m": c.theta_mabs_m,
                },
            }
            for comp, c in comparison.aggregated.items()
        },
        "per_station": list(comparison.per_station),
        "time_ratio": comparison.time_ratio,
    }
    if comparison.timing is not None:
        doc["timing"] = {
            "grnn_seconds": list(comparison.timing.grnn_seconds),
            "theta_seconds": list(comparison.timing.theta_seconds),
            "grnn_median_s": comparison.timing.grnn_median,
            "theta_median_s": comparison.timing.theta_median,
            "workload_predictions": comparison.timing.workload_predictions,
        }
    else:
        doc["timing"] = None
    return doc


def _open_text(dest: str | Path | IO[str]):
    if isinstance(dest, (str, Path)):
        return open(dest, "w", encoding="utf-8", newline=""), True
    return dest, False


def write_reports_json(
    reports: Sequence[StationReport],
    comparison: ComparisonReport | None,
    dest: str | Path | IO[str],
    *,
    run: dict | None = None,
) -> None:
    """Write the full-fidelity JSON document (schema-versioned).

    ``run``, when given, is written as the ``"run"`` block right after the
    schema version. Floats serialize in shortest round-trip form; given
    identical inputs the output is byte-identical run to run.
    """
    doc = {"schema_version": SCHEMA_VERSION}
    if run is not None:
        doc["run"] = run
    doc |= {
        "stations": [station_report_dict(r) for r in reports],
        "comparison": comparison_report_dict(comparison) if comparison else None,
    }
    stream, own = _open_text(dest)
    try:
        json.dump(doc, stream, indent=2, allow_nan=False)
        stream.write("\n")
    finally:
        if own:
            stream.close()


def _fmt_m(x: float) -> str:
    return f"{x:.6f}"


def _fmt_smape(x: float) -> str:
    # fixed-point would print 0.000000 for earth-centered magnitudes
    return f"{x:.6e}"


def write_reports_csv(reports: Sequence[StationReport], dest: str | Path | IO[str]) -> None:
    """One summary row per station/component/method (lossy 6-decimal floats)."""
    stream, own = _open_text(dest)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(
            ["station", "span", "state", "component", "method",
             "smape_percent", "std_m", "mabs_m"]
        )
        for r in reports:
            for method, metrics in (("grnn", r.grnn_metrics), ("theta", r.theta_metrics)):
                for comp in _COMPONENTS:
                    m = metrics[comp]
                    writer.writerow([
                        r.station_id, r.span_label, r.state.value, comp, method,
                        _fmt_smape(m.smape_percent), _fmt_m(m.std_m), _fmt_m(m.mabs_m),
                    ])
    finally:
        if own:
            stream.close()


def write_sweep_csv(result: SweepResult, dest: str | Path | IO[str]) -> None:
    """Sweep rows as plot-ready CSV: v, component, mode, then the criteria."""
    stream, own = _open_text(dest)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["v", "component", "mode", "smape_percent", "std_m", "mabs_m", "n"])
        for row in result.rows:
            writer.writerow([
                row.training_size, row.component, row.mode.value,
                _fmt_smape(row.smape_percent), _fmt_m(row.std_m), _fmt_m(row.mabs_m), row.n,
            ])
    finally:
        if own:
            stream.close()
