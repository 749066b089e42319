"""Command-line front end: inspect, predict, sweep, compare.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data
error (unparseable or contract-violating input), 3 numeric failure
(kernel underflow, undefined criterion). Output ordering is
deterministic regardless of how many workers run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from enum import Enum
from pathlib import Path
from typing import Sequence

from . import __version__
from .errors import DataError, NumericError
from .grnn import (
    BandwidthRule,
    GrnnConfig,
    Mode,
    adaptive_forecast_series,
    forecast_series,
)
from .harness import (
    at_station,
    compare_methods,
    evaluate_stations,
    run_sweep,
    time_methods,
    write_reports_csv,
    write_reports_json,
    write_sweep_csv,
)
from .series import StationSeries, amplitude, detect_gaps, mean_center, open_text, parse_series
from .theta import ThetaFit


class Basis(str, Enum):
    """Value representation the pipeline works in."""

    RAW = "raw"
    ANOMALY = "anomaly"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract says 1.

    ``requires`` maps an option's destination to the destination of the
    option it needs: giving the first without the second would be
    silently ignored, so it is a usage error instead. ``excludes`` maps
    an option's destination to ``(dest, value)`` of an enum option it
    refuses that value of: giving both is a usage error. That option
    must default to ``None``, so an explicit value can be told from
    none; ``value`` becomes its default once the check has passed.
    """

    def __init__(self, *args, requires: dict[str, str] | None = None,
                 excludes: dict[str, tuple[str, Enum]] | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.requires = requires or {}
        self.excludes = excludes or {}

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for dest, needed in self.requires.items():
            other = getattr(namespace, needed)
            if getattr(namespace, dest) is not None and (other is None or other is False):
                self.error(f"{_flag(dest)} requires {_flag(needed)}")
        for dest, (other, value) in self.excludes.items():
            if getattr(namespace, other) is None:
                setattr(namespace, other, value)
            elif getattr(namespace, dest) is not None and getattr(namespace, other) is value:
                self.error(f"{_flag(other)} {value.value} cannot be combined with "
                           f"{_flag(dest)}")
        return namespace, extras

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _bandwidth_spec(text: str):
    try:
        value = float(text)
    except ValueError:
        try:
            return BandwidthRule(text)
        except ValueError:
            choices = ", ".join(r.value for r in BandwidthRule)
            raise argparse.ArgumentTypeError(
                f"{text!r} is neither a number nor one of: {choices}"
            ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError("bandwidth must be positive")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _default_jobs() -> int:
    """Workers for ``compare`` without ``--jobs``: ``GNSS_GRNN_JOBS`` when
    set and not blank, else every processor.

    Raises:
        argparse.ArgumentTypeError: the variable is not an integer of at
            least 1.
    """
    env = os.environ.get("GNSS_GRNN_JOBS", "")
    if not env.strip():
        return os.cpu_count() or 1
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"GNSS_GRNN_JOBS: {exc}") from None


def _add_common_model_flags(p: argparse.ArgumentParser, *, mode: bool = True) -> None:
    p.add_argument("-v", "--training-size", type=int, default=100, metavar="V",
                   help="rolling window length (default: 100)")
    p.add_argument("--bandwidth", type=_bandwidth_spec, default=BandwidthRule.WINDOW_STD,
                   metavar="SPEC",
                   help="kernel bandwidth in days, or 'window-std' / 'mean-spacing' "
                        "(default: window-std)")
    if mode:
        p.add_argument("--mode", type=Mode, choices=list(Mode), default=Mode.RECURSIVE,
                       help="window update: feed predictions back (recursive) or use "
                            "observations (teacher-forced); default: recursive")
    p.add_argument("--basis", type=Basis, choices=list(Basis), default=Basis.RAW,
                   help="work on raw values or mean-centered anomalies "
                        "(outputs are always reported in raw units)")


def build_parser() -> _Parser:
    parser = _Parser(prog="gnss-grnn",
                     description="Forecast GNSS station position series with a "
                                 "Gaussian-kernel rolling predictor and a Theta-method "
                                 "baseline, and backtest both.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_inspect = sub.add_parser("inspect", help="summarize span, gaps and amplitudes")
    p_inspect.add_argument("paths", nargs="+", type=Path)
    p_inspect.add_argument("--gap-factor", type=float, default=1.5,
                           help="spacing beyond gap_factor * nominal interval is a gap")
    p_inspect.set_defaults(func=cmd_inspect)

    p_predict = sub.add_parser("predict", help="one-step forecasts for every epoch "
                                               "after the seed window",
                               requires={"max_training_size": "threshold"},
                               excludes={"threshold": ("mode", Mode.RECURSIVE)})
    p_predict.add_argument("paths", nargs="+", type=Path)
    _add_common_model_flags(p_predict)
    p_predict.add_argument("--threshold", type=float, default=None, metavar="T",
                           help="grow the window until |error| < T (meters); the "
                                "search forecasts from observed windows, so it "
                                "runs teacher-forced and refuses --mode recursive")
    p_predict.add_argument("--max-training-size", type=int, default=None,
                           help="cap for threshold-driven window growth "
                                "(requires --threshold)")
    p_predict.add_argument("--output", type=Path, default=None,
                           help="write here instead of stdout")
    p_predict.add_argument("--format", choices=("csv", "json"), default="csv")
    # recursive is filled in after parsing, see excludes
    p_predict.set_defaults(func=cmd_predict, mode=None)

    p_sweep = sub.add_parser("sweep", help="accuracy criteria per training size "
                                           "and update mode (CSV, one station)")
    p_sweep.add_argument("paths", nargs="+", type=Path)
    _add_common_model_flags(p_sweep, mode=False)
    p_sweep.add_argument("--v-min", type=int, default=1)
    p_sweep.add_argument("--v-max", type=int, required=True)
    p_sweep.add_argument("--v-step", type=int, default=1)
    p_sweep.add_argument("--output", type=Path, default=None,
                         help="write here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_compare = sub.add_parser("compare",
                               help="backtest kernel and Theta methods per station "
                                    "and report accuracy ratios",
                               requires={"reps": "time"})
    p_compare.add_argument("paths", nargs="+", type=Path)
    _add_common_model_flags(p_compare)
    p_compare.add_argument("--theta-window", type=int, default=None,
                           help="Theta training window (default: same as -v)")
    p_compare.add_argument("--theta-fit", type=ThetaFit, choices=list(ThetaFit),
                           default=ThetaFit.ROLLING,
                           help="refit the slope per origin, or once on the first window")
    p_compare.add_argument("--gap-factor", type=float, default=1.5)
    p_compare.add_argument("--seed", type=int, default=0,
                           help="seed written to report.json; nothing in the "
                                "program is random")
    p_compare.add_argument("--time", action="store_true",
                           help="also time both methods (adds nondeterministic "
                                "wall-clock numbers to the report)")
    p_compare.add_argument("--reps", type=int, default=None,
                           help="timing repetitions, median reported "
                                "(requires --time; default: 3)")
    p_compare.add_argument("--jobs", type=_positive_int, default=None,
                           help="worker processes across stations, at least 1 "
                                "(default: GNSS_GRNN_JOBS or all processors)")
    p_compare.add_argument("--output-dir", type=Path, default=Path("."),
                           help="where report.json and stations.csv go")
    p_compare.set_defaults(func=cmd_compare)
    return parser


def _load_stations(paths: Sequence[Path]) -> list[StationSeries]:
    return [parse_series(p) for p in paths]


def _apply_basis(stations, basis):
    """Center values when asked; keep offsets to restore raw units later."""
    if basis is Basis.RAW:
        return stations, [(0.0, 0.0, 0.0) for _ in stations]
    centered, offsets = [], []
    for s in stations:
        c, off = mean_center(s)
        centered.append(c)
        offsets.append(off)
    return centered, offsets


def cmd_inspect(args) -> int:
    for station in _load_stations(args.paths):
        gaps = detect_gaps(station, args.gap_factor)
        state = gaps.state.value
        if gaps.gaps:
            noun = "gap" if len(gaps.gaps) == 1 else "gaps"
            state += f", {len(gaps.gaps)} {noun}"
        print(f"{station.station_id}: {station.count} epochs, "
              f"mjd {station.epochs_mjd[0]:.1f}..{station.epochs_mjd[-1]:.1f}")
        print(f"  state: {state}")
        if gaps.gaps:
            print(f"  largest gap: {gaps.largest_gap_days:.1f} days "
                  f"({max(g.missing_count for g in gaps.gaps)} missing epochs)")
        for comp in station.components:
            print(f"  {comp.component.value} amplitude: {amplitude(comp):.6f} m")
    return 0


def _predict_rows(station, config, threshold, max_training, offsets):
    adaptive = threshold is not None
    forecast = forecast_series
    if adaptive:
        config = GrnnConfig(
            training_size=config.training_size,
            bandwidth=config.bandwidth,
            threshold_m=threshold,
            max_training_size=max_training,
            mode=Mode.TEACHER_FORCED,
        )
        forecast = adaptive_forecast_series
    for comp, off in zip(station.components, offsets):
        with at_station(station.station_id):
            res = forecast(comp, config)
        for i in range(len(res)):
            yhat = float(res.predicted_m[i]) + off
            y = float(res.observed_m[i]) + off
            row = {
                "station": station.station_id,
                "epoch_mjd": float(res.epochs_mjd[i]),
                "component": res.component,
                "predicted_m": yhat,
                "observed_m": y,
                "abs_error_m": abs(y - yhat),
            }
            if adaptive:
                row["training_size_used"] = int(res.training_size_used[i])
                row["threshold_met"] = bool(res.threshold_met[i])
            yield row


def cmd_predict(args) -> int:
    stations = _load_stations(args.paths)
    stations, offsets = _apply_basis(stations, args.basis)
    config = GrnnConfig(training_size=args.training_size, bandwidth=args.bandwidth,
                        mode=args.mode)
    rows = [
        row
        for station, offs in zip(stations, offsets)
        for row in _predict_rows(station, config, args.threshold,
                                 args.max_training_size, offs)
    ]
    with open_text(args.output or sys.stdout) as stream:
        if args.format == "json":
            json.dump(rows, stream, indent=2, allow_nan=False)
            stream.write("\n")
        else:
            fields = list(rows[0].keys())
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(fields)
            for row in rows:
                writer.writerow([repr(x) if isinstance(x, float) else x
                                 for x in row.values()])
    return 0


def cmd_sweep(args) -> int:
    if len(args.paths) != 1:
        raise DataError("sweep handles one station at a time")
    if args.v_min < 1 or args.v_max < args.v_min or args.v_step < 1:
        raise DataError("invalid training-size range")
    station = _load_stations(args.paths)[0]
    (station,), (offsets,) = _apply_basis([station], args.basis)
    config = GrnnConfig(training_size=args.v_min, bandwidth=args.bandwidth)
    result = run_sweep(
        station,
        range(args.v_min, args.v_max + 1, args.v_step),
        config,
        value_offsets=offsets,
    )
    write_sweep_csv(result, args.output or sys.stdout)
    return 0


def cmd_compare(args) -> int:
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    stations = _load_stations(args.paths)
    stations, offsets = _apply_basis(stations, args.basis)
    config = GrnnConfig(training_size=args.training_size, bandwidth=args.bandwidth,
                        mode=args.mode)
    reports = evaluate_stations(
        stations, config, args.theta_window,
        theta_fit=args.theta_fit, gap_factor=args.gap_factor,
        jobs=jobs, value_offsets=offsets,
    )
    timing = None
    if args.time:
        timing = time_methods(stations, config, args.theta_window,
                              theta_fit=args.theta_fit,
                              repetitions=3 if args.reps is None else args.reps)
    comparison = compare_methods(reports, timing)

    args.output_dir.mkdir(parents=True, exist_ok=True)
    json_path = args.output_dir / "report.json"
    csv_path = args.output_dir / "stations.csv"
    write_reports_json(reports, comparison, json_path,
                       run={"seed": args.seed, "basis": args.basis.value})
    write_reports_csv(reports, csv_path)

    for comp, agg in comparison.aggregated.items():
        parts = []
        for label, value in (("sMAPE", agg.smape_ratio), ("StD", agg.std_ratio),
                             ("MAbs", agg.mabs_ratio)):
            parts.append(f"{label} {value:.6g}" if value is not None
                         else f"{label} undefined")
        print(f"{comp}: " + ", ".join(parts))
    if comparison.time_ratio is not None:
        print(f"time ratio (kernel/theta): {comparison.time_ratio:.3f}")
    print(f"wrote {json_path} and {csv_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except DataError as exc:
        print(f"gnss-grnn: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"gnss-grnn: numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"gnss-grnn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
