"""Command-line front end: inspect, predict, sweep, compare.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data
error (unparseable or contract-violating input), 3 numeric failure
(kernel underflow, a forecast that is not finite, an undefined
criterion, or one that overflows). Output ordering is deterministic
regardless of how many workers run.

No flag is silently ignored. Each command checks its own flag rules
before it reads any file, and a broken rule is a usage error:

* ``-v``/``--training-size`` or ``predict --max-training-size`` below 1;
* ``compare --theta-window`` below 3;
* ``compare -v`` below 3 without ``--theta-window``, which defaults to ``-v``;
* ``predict --threshold`` that is not a positive number (NaN included);
* ``predict --max-training-size`` without ``--threshold``, or below ``-v``;
* ``predict --threshold`` with an explicit ``--mode recursive`` (the
  window search is teacher-forced, which ``--threshold`` implies);
* ``sweep`` with more than one station;
* ``sweep`` with ``--v-min`` or ``--v-step`` below 1, or ``--v-max``
  below ``--v-min``;
* ``inspect`` or ``compare`` with a ``--gap-factor`` that is below 1 or
  not finite;
* ``compare --reps`` without ``--time``.

``compare`` without ``--jobs`` runs ``GNSS_GRNN_JOBS`` workers when that
variable is set and not blank, else one per processor; a value that is
not an integer of at least 1 is a usage error too.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .errors import DataError, NumericError
from .grnn import (
    BandwidthRule,
    GrnnConfig,
    Mode,
    adaptive_forecast_series,
    finite_forecasts,
    forecast_series,
)
from .harness import (
    at_station,
    compare_methods,
    evaluate_stations,
    run_sweep,
    time_methods,
    write_predictions_csv,
    write_predictions_json,
    write_reports_csv,
    write_reports_json,
    write_sweep_csv,
)
from .metrics import RATIO_LABELS
from .series import Component, amplitude, detect_gaps, parse_series
from .theta import ThetaFit


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract says 1."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # argparse parses a subcommand through this method too, and would
        # otherwise leave its leftovers to the root parser's usage line
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError("bandwidth must be positive and finite")
    return value


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _float_where(accepts: Callable[[float], bool], rule: str) -> Callable[[str], float]:
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(rule)
        return value
    return parse


# NaN compares false, so it fails both rules
_threshold = _float_where(lambda t: t > 0, "must be a positive number")
_gap_factor = _float_where(lambda f: math.isfinite(f) and f >= 1,
                           "must be a finite number >= 1")


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


def _add_common_model_flags(p: argparse.ArgumentParser, *, walk: bool = True) -> None:
    """Register the model flags; ``walk=False`` leaves out ``-v`` and ``--mode``,
    which fix the one walk a command runs (``sweep`` varies both itself)."""
    if walk:
        p.add_argument("-v", "--training-size", type=_positive_int, default=100, metavar="V",
                       help="rolling window length, at least 1 (default: 100)")
    p.add_argument("--bandwidth", type=_bandwidth_spec, default=BandwidthRule.WINDOW_STD,
                   metavar="SPEC",
                   help="kernel bandwidth in days, or 'window-std' / 'mean-spacing' "
                        "(default: window-std)")
    if walk:
        p.add_argument("--mode", type=Mode, choices=[m.value for m in Mode],
                       default=Mode.RECURSIVE,
                       help="window update: feed predictions back (recursive) or use "
                            "observations (teacher-forced); default: recursive")


def build_parser() -> _Parser:
    parser = _Parser(prog="gnss-grnn",
                     description="Forecast GNSS station position series with a "
                                 "Gaussian-kernel rolling predictor and a Theta-method "
                                 "baseline, and backtest both.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_inspect = sub.add_parser("inspect", help="summarize span, gaps and amplitudes")
    p_inspect.add_argument("paths", nargs="+", type=Path)
    p_inspect.add_argument("--gap-factor", type=_gap_factor, default=1.5,
                           help="spacing beyond gap_factor days is a gap")
    p_inspect.set_defaults(func=cmd_inspect)

    p_predict = sub.add_parser("predict", help="one-step forecasts for every epoch "
                                               "after the seed window")
    p_predict.add_argument("paths", nargs="+", type=Path)
    _add_common_model_flags(p_predict)
    p_predict.add_argument("--threshold", type=_threshold, default=None, metavar="T",
                           help="grow the window until |error| < T (meters); the "
                                "search forecasts from observed windows, so it "
                                "runs teacher-forced and refuses --mode recursive")
    p_predict.add_argument("--max-training-size", type=_positive_int, default=None,
                           help="cap for threshold-driven window growth "
                                "(requires --threshold)")
    p_predict.add_argument("--output", type=Path, default=None,
                           help="write here instead of stdout")
    p_predict.add_argument("--format", choices=("csv", "json"), default="csv")
    # None tells an explicit --mode from none; cmd_predict resolves it
    p_predict.set_defaults(func=cmd_predict, usage_error=p_predict.error, mode=None)

    p_sweep = sub.add_parser("sweep", help="accuracy criteria per training size "
                                           "and update mode (CSV, one station)")
    p_sweep.add_argument("paths", nargs="+", type=Path)
    _add_common_model_flags(p_sweep, walk=False)
    p_sweep.add_argument("--v-min", type=int, default=1,
                         help="smallest training size (default: 1)")
    p_sweep.add_argument("--v-max", type=int, required=True,
                         help="largest training size, included if the step reaches it")
    p_sweep.add_argument("--v-step", type=int, default=1,
                         help="training-size increment (default: 1)")
    p_sweep.add_argument("--output", type=Path, default=None,
                         help="write here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep, usage_error=p_sweep.error)

    p_compare = sub.add_parser("compare",
                               help="backtest kernel and Theta methods per station "
                                    "and report accuracy ratios")
    p_compare.add_argument("paths", nargs="+", type=Path)
    _add_common_model_flags(p_compare)
    p_compare.add_argument("--theta-window", type=_int_at_least(3), default=None,
                           help="Theta training window, at least 3 (default: same as -v)")
    p_compare.add_argument("--theta-fit", type=ThetaFit,
                           choices=[f.value for f in ThetaFit],
                           default=ThetaFit.ROLLING,
                           help="refit the slope per origin, or once on the first window")
    p_compare.add_argument("--gap-factor", type=_gap_factor, default=1.5,
                           help="spacing beyond gap_factor days is a gap")
    p_compare.add_argument("--seed", type=int, default=0,
                           help="seed written to report.json; nothing in the "
                                "program is random")
    p_compare.add_argument("--time", action="store_true",
                           help="also time both methods (adds nondeterministic "
                                "wall-clock numbers to the report)")
    p_compare.add_argument("--reps", type=_int_at_least(3), default=None,
                           help="timing repetitions, median reported, at least 3 "
                                "(requires --time; default: 3)")
    p_compare.add_argument("--jobs", type=_positive_int, default=None,
                           help="worker processes across stations, at least 1 "
                                "(default: GNSS_GRNN_JOBS or all processors)")
    p_compare.add_argument("--output-dir", type=Path, default=Path("."),
                           help="where report.json and stations.csv go")
    p_compare.set_defaults(func=cmd_compare, usage_error=p_compare.error)
    return parser


def cmd_inspect(args) -> int:
    for station in [parse_series(p) for p in args.paths]:
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


def _predict_rows(station, config, mode, threshold_m, max_training_size):
    adaptive = threshold_m is not None
    # one walk for X, Y and Z: their kernel weights are the same
    with at_station(station.station_id):
        walks = (adaptive_forecast_series(station, config, threshold_m, max_training_size)
                 if adaptive else forecast_series(station, config, (mode,)))
        predicted, observed = walks.predicted_m[mode], station.values_m[:, walks.start:]
        # a finite forecast far from a finite truth can still overflow its error
        with np.errstate(over="ignore"):
            errors = np.abs(observed - predicted)
        finite_forecasts(station, walks.start, errors, "absolute error of the kernel")
    epochs = station.epochs_mjd[walks.start:].tolist()
    for c, component in enumerate(Component):
        name = component.value
        columns = zip(epochs, predicted[c].tolist(), observed[c].tolist(), errors[c].tolist())
        if adaptive:
            sizes, met = walks.training_size_used[c].tolist(), walks.threshold_met[c].tolist()
        for i, (epoch, yhat, y, error) in enumerate(columns):
            row = {
                "station": station.station_id,
                "epoch_mjd": epoch,
                "component": name,
                "predicted_m": yhat,
                "observed_m": y,
                "abs_error_m": error,
            }
            if adaptive:
                row["training_size_used"] = sizes[i]
                row["threshold_met"] = met[i]
            yield row


def cmd_predict(args) -> int:
    if args.max_training_size is not None:
        if args.threshold is None:
            args.usage_error("--max-training-size requires --threshold")
        if args.max_training_size < args.training_size:
            args.usage_error("--max-training-size must be at least -v")
    mode = args.mode or Mode.RECURSIVE
    if args.threshold is not None:
        if args.mode is Mode.RECURSIVE:
            args.usage_error("--mode recursive cannot be combined with --threshold")
        # the window search forecasts from observed windows only
        mode = Mode.TEACHER_FORCED
    stations = [parse_series(p) for p in args.paths]
    config = GrnnConfig(training_size=args.training_size, bandwidth=args.bandwidth)
    rows = [row for station in stations
            for row in _predict_rows(station, config, mode, args.threshold,
                                     args.max_training_size)]
    write = write_predictions_json if args.format == "json" else write_predictions_csv
    write(rows, args.output or sys.stdout)
    return 0


def cmd_sweep(args) -> int:
    if len(args.paths) != 1:
        args.usage_error("sweep handles one station at a time")
    if args.v_min < 1 or args.v_max < args.v_min or args.v_step < 1:
        args.usage_error("invalid training-size range")
    station = parse_series(args.paths[0])
    rows = run_sweep(station, range(args.v_min, args.v_max + 1, args.v_step), args.bandwidth)
    write_sweep_csv(rows, args.output or sys.stdout)
    return 0


def cmd_compare(args) -> int:
    if args.reps is not None and not args.time:
        args.usage_error("--reps requires --time")
    if args.theta_window is None and args.training_size < 3:
        args.usage_error("--theta-window defaults to -v, which is below 3: "
                         "give --theta-window 3 or more")
    jobs = args.jobs
    if jobs is None:
        try:
            jobs = _default_jobs()
        except argparse.ArgumentTypeError as exc:
            args.usage_error(str(exc))
    stations = [parse_series(p) for p in args.paths]
    config = GrnnConfig(training_size=args.training_size, bandwidth=args.bandwidth)
    reports = evaluate_stations(
        stations, config, args.theta_window, mode=args.mode,
        theta_fit=args.theta_fit, gap_factor=args.gap_factor, jobs=jobs,
    )
    timing = None
    if args.time:
        timing = time_methods(stations, config, args.theta_window, mode=args.mode,
                              theta_fit=args.theta_fit,
                              repetitions=3 if args.reps is None else args.reps)
    comparison = compare_methods(reports, timing)

    args.output_dir.mkdir(parents=True, exist_ok=True)
    json_path = args.output_dir / "report.json"
    csv_path = args.output_dir / "stations.csv"
    # schema 1 keeps the basis key; every run works on raw positions
    write_reports_json(reports, comparison, json_path,
                       run={"seed": args.seed, "basis": "raw"})
    write_reports_csv(reports, csv_path)

    for comp, agg in comparison["aggregated"].items():
        parts = (f"{label} " + ("undefined" if agg[key] is None else f"{agg[key]:.6g}")
                 for key, label in RATIO_LABELS.items())
        print(f"{comp}: " + ", ".join(parts))
    if comparison["time_ratio"] is not None:
        print(f"time ratio (kernel/theta): {comparison['time_ratio']:.3f}")
    print(f"wrote {json_path} and {csv_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
