"""The benchmark's workloads: seeded inputs, command lines, checks, counters.

Each workload writes its input files from ``generate_synthetic`` (the
program only ever sees those files), computes what the command must
output with the independent reference in ``reference.py``, and checks a
finished command's outputs against it.

Tolerances of the checks:

* full-precision values (``report.json``, predictions in the predict CSV)
  within a relative 1e-6 for criteria and ratios, and 1e-8 m for
  predictions and absolute errors;
* values the program prints with six decimals (sweep CSV, compare
  ``stations.csv``) within one unit in the last printed place;
* epochs, observed values, counts, window sizes, threshold flags, row
  order, station states and year spans exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from gnss_grnn import SyntheticKind, SyntheticParams, generate_synthetic, write_series_csv

#: Daily GNSS noise level of every generated component, meters.
NOISE_M = 0.002
#: The CLI's default training size, used by compare and predict.
V = 100
#: Tolerances, see the module docstring.
RTOL = 1e-6
PRED_ATOL_M = 1e-8
PRINTED_ATOL_M = 1e-6
PRINTED_RTOL = 2e-6

_COMPONENTS = ("X", "Y", "Z")
_MODES = ("recursive", "teacher-forced")


@dataclass
class Prepared:
    """One workload's inputs, written to a work directory, and its checks."""

    argv: list[str]
    inspect_argv: list[str]
    outputs: list[str]
    predictions: int
    check: Callable[[Path], list[str]]
    counters: Callable[[Path], dict[str, float]]
    inspect_lines: list[str]
    #: Traced layers the command must call (README, "Which layer ...").
    layers: tuple[str, ...]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _close(got: float, want: float, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def _write_decimal_year_csv(series, path: Path) -> None:
    """Write epochs as 4-decimal years, as public decimal-year series ship."""
    x, y, z = (c.values_m for c in series.components)
    with open(path, "w", encoding="utf-8", newline="") as stream:
        stream.write("epoch_year,x_m,y_m,z_m\n")
        for i, mjd in enumerate(series.epochs_mjd):
            year = 2000.0 + (float(mjd) - ref.MJD_AT_2000) / ref.DAYS_PER_YEAR
            stream.write(f"{year:.4f},{float(x[i])!r},{float(y[i])!r},{float(z[i])!r}\n")


def _station(length: int, seed: int, gaps: tuple[tuple[int, int], ...]):
    """Trend + annual cycle + noise, with ``gaps`` cut from the epoch axis."""
    kind = SyntheticKind.GAPPED_TREND if gaps else SyntheticKind.TREND_PLUS_ANNUAL
    return generate_synthetic(kind, length, seed,
                              SyntheticParams(noise_std_m=NOISE_M, gap_spans=gaps))


def _inspect_line(station: str, epochs: np.ndarray) -> str:
    return f"{station}: {epochs.size} epochs"


def _year_span(epochs: np.ndarray) -> str:
    """First and last calendar year of ``epochs``, as ``stations.csv`` labels a station."""
    first, last = (math.floor(2000.0 + (float(e) - ref.MJD_AT_2000) / ref.DAYS_PER_YEAR)
                   for e in (epochs[0], epochs[-1]))
    return f"{first}-{last}"


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as stream:
        return list(csv.reader(stream))


def _kernel_counters(predictions: int, patterns: int,
                     kernel_predictions: int) -> dict[str, float]:
    """Counters of a workload whose kernel walks make ``kernel_predictions``."""
    return {
        "workload.predictions": predictions,
        "grnn.weight_patterns": patterns,
        "grnn.pattern_reuse": 1.0 - patterns / kernel_predictions,
        "grnn.adaptive.hit_rate": 0.0,
        "grnn.adaptive.attempts_per_prediction": 0.0,
    }


# ---------------------------------------------------------------------------
# compare-stations
# ---------------------------------------------------------------------------

def prepare_compare(workdir: Path, seed: int, tiny: bool) -> Prepared:
    """Eight daily MJD stations, half of them with one 5-30 day gap."""
    n_stations, length = (3, 320) if tiny else (8, 2922)
    rng = _rng(seed, 1)
    names, expected, inspect_lines = [], [], []
    patterns, steps, predictions = 0, 0, 0
    for i in range(n_stations):
        gaps = ()
        if i % 2:
            start = int(rng.integers(V + length // 10, length - V // 2 - 30))
            gaps = ((start, int(rng.integers(5, 31))),)
        name = f"ST{i:02d}"
        write_series_csv(_station(length, int(rng.integers(2**31)), gaps), workdir / f"{name}.csv")
        epochs, values = ref.load_station_csv(workdir / f"{name}.csv")
        grnn = ref.kernel_walk(epochs, values, V, recursive=True)
        theta = ref.theta_walk(values, V)
        obs = values[:, V:]
        gap_count = int(np.count_nonzero(np.diff(epochs) > 1.5))
        expected.append({
            "station_id": name,
            "n_predictions": epochs.size - V,
            "gap_count": gap_count,
            "state": "discontinuous" if gap_count else "continuous",
            "span": _year_span(epochs),
            "grnn": {c: ref.criteria(grnn[k], obs[k]) for k, c in enumerate(_COMPONENTS)},
            "theta": {c: ref.criteria(theta[k], obs[k]) for k, c in enumerate(_COMPONENTS)},
        })
        names.append(name)
        inspect_lines.append(_inspect_line(name, epochs))
        patterns += ref.weight_patterns(epochs, V)
        steps += epochs.size - V
        predictions += 2 * 3 * (epochs.size - V)
    ratios = {}
    for c in _COMPONENTS:
        for crit in ("smape_percent", "std_m", "mabs_m"):
            g = np.mean([e["grnn"][c][crit] for e in expected])
            t = np.mean([e["theta"][c][crit] for e in expected])
            ratios[(c, crit.split("_")[0] + "_ratio")] = float(g / t)

    def check(wd: Path) -> list[str]:
        doc = json.loads((wd / "out" / "report.json").read_text(encoding="utf-8"))
        rows = _read_csv(wd / "out" / "stations.csv")
        problems = []
        if doc.get("schema_version") != 1:
            problems.append("schema_version is not 1")
        stations = doc.get("stations", [])
        if len(stations) != len(expected):
            return problems + [f"{len(stations)} stations, expected {len(expected)}"]
        for got, want in zip(stations, expected):
            sid = want["station_id"]
            for key in ("station_id", "n_predictions", "gap_count", "state"):
                if got.get(key) != want[key]:
                    problems.append(f"{sid}: {key} {got.get(key)!r} != {want[key]!r}")
            for method in ("grnn", "theta"):
                for c in _COMPONENTS:
                    m = got["metrics"][method][c]
                    if m["n"] != want["n_predictions"]:
                        problems.append(f"{sid} {method} {c}: n {m['n']}")
                    for crit, value in want[method][c].items():
                        if not _close(m[crit], value):
                            problems.append(f"{sid} {method} {c} {crit}: {m[crit]!r} != {value!r}")
        agg = doc["comparison"]["aggregated"]
        for (c, key), value in ratios.items():
            if not _close(agg[c][key], value):
                problems.append(f"aggregated {c} {key}: {agg[c][key]!r} != {value!r}")
        return problems + check_stations_csv(rows)

    def check_stations_csv(rows: list[list[str]]) -> list[str]:
        header = ["station", "span", "state", "component", "method",
                  "smape_percent", "std_m", "mabs_m"]
        if rows[:1] != [header]:
            return ["unexpected stations.csv header"]
        want_rows = [(e, method, c) for e in expected for method in ("grnn", "theta")
                     for c in _COMPONENTS]
        if len(rows) - 1 != len(want_rows):
            return [f"{len(rows) - 1} stations.csv rows, expected {len(want_rows)}"]
        problems = []
        for row, (e, method, c) in zip(rows[1:], want_rows):
            crit = e[method][c]
            if not (row[:5] == [e["station_id"], e["span"], e["state"], c, method]
                    and _close(float(row[5]), crit["smape_percent"], rtol=PRINTED_RTOL)
                    and _close(float(row[6]), crit["std_m"], 0.0, PRINTED_ATOL_M)
                    and _close(float(row[7]), crit["mabs_m"], 0.0, PRINTED_ATOL_M)):
                problems.append(f"stations.csv row {row!r} != {e['station_id']} {method} {c} "
                                f"{crit!r}")
        return problems

    files = [f"{n}.csv" for n in names]
    return Prepared(
        argv=["compare", "--jobs", "1", "--output-dir", "out", *files],
        inspect_argv=["inspect", *files],
        outputs=["out/report.json", "out/stations.csv"],
        predictions=predictions,
        check=check,
        counters=lambda wd: _kernel_counters(predictions, patterns, 3 * steps),
        inspect_lines=inspect_lines,
        layers=("cli", "series.parse_series", "series.detect_gaps", "grnn.forecast_series",
                "theta.theta_backtest", "metrics.compute_report", "harness.evaluate_station",
                "harness.write_reports_csv"),
    )


# ---------------------------------------------------------------------------
# sweep-decimal-year
# ---------------------------------------------------------------------------

def prepare_sweep(workdir: Path, seed: int, tiny: bool) -> Prepared:
    """One ~8-year decimal-year station with two gaps, swept over v."""
    length, sizes = (360, range(25, 51, 25)) if tiny else (2922, range(25, 201, 25))
    rng = _rng(seed, 2)
    gaps = (
        (int(rng.integers(length // 10, length // 2 - 30)), int(rng.integers(5, 31))),
        (int(rng.integers(length // 2, length - 40)), int(rng.integers(5, 31))),
    )
    _write_decimal_year_csv(_station(length, int(rng.integers(2**31)), gaps), workdir / "STY.csv")
    epochs, values = ref.load_station_csv(workdir / "STY.csv")
    want_rows, patterns, steps = [], 0, 0
    for v in sizes:
        walks = {m: ref.kernel_walk(epochs, values, v, recursive=(m == "recursive"))
                 for m in _MODES}
        for k, c in enumerate(_COMPONENTS):
            for m in _MODES:
                want_rows.append((v, c, m, ref.criteria(walks[m][k], values[k, v:]),
                                  epochs.size - v))
        patterns += ref.weight_patterns(epochs, v)
        steps += epochs.size - v
    predictions = 2 * 3 * steps

    def check(wd: Path) -> list[str]:
        rows = _read_csv(wd / "sweep.csv")
        if rows[:1] != [["v", "component", "mode", "smape_percent", "std_m", "mabs_m", "n"]]:
            return ["unexpected sweep header"]
        if len(rows) - 1 != len(want_rows):
            return [f"{len(rows) - 1} sweep rows, expected {len(want_rows)}"]
        problems = []
        for row, (v, c, m, crit, n) in zip(rows[1:], want_rows):
            if not (row[:3] == [str(v), c, m] and int(row[6]) == n
                    and _close(float(row[3]), crit["smape_percent"], rtol=PRINTED_RTOL)
                    and _close(float(row[4]), crit["std_m"], 0.0, PRINTED_ATOL_M)
                    and _close(float(row[5]), crit["mabs_m"], 0.0, PRINTED_ATOL_M)):
                problems.append(f"sweep row {row!r} != {(v, c, m, crit, n)!r}")
        return problems

    return Prepared(
        argv=["sweep", "STY.csv", "--v-min", str(sizes.start), "--v-max", str(sizes[-1]),
              "--v-step", str(sizes.step), "--output", "sweep.csv"],
        inspect_argv=["inspect", "STY.csv"],
        outputs=["sweep.csv"],
        predictions=predictions,
        check=check,
        counters=lambda wd: _kernel_counters(predictions, patterns, predictions),
        inspect_lines=[_inspect_line("STY", epochs)],
        layers=("cli", "series.parse_series", "grnn.forecast_series", "metrics.compute_report",
                "harness.run_sweep", "harness.write_sweep_csv"),
    )


# ---------------------------------------------------------------------------
# predict-adaptive
# ---------------------------------------------------------------------------

THRESHOLD_M = 0.001
MAX_TRAINING = 200


def prepare_predict(workdir: Path, seed: int, tiny: bool) -> Prepared:
    """One two-year station, threshold-driven window growth, CSV rows out."""
    length = 160 if tiny else 730
    rng = _rng(seed, 3)
    write_series_csv(_station(length, int(rng.integers(2**31)), ()), workdir / "STP.csv")
    epochs, values = ref.load_station_csv(workdir / "STP.csv")
    want = [ref.adaptive_walk(epochs, values[k], V, MAX_TRAINING, THRESHOLD_M)
            for k in range(3)]
    n_pred = epochs.size - V
    caps = np.minimum(np.arange(V, epochs.size), MAX_TRAINING)

    def check(wd: Path) -> list[str]:
        rows = _read_csv(wd / "predict.csv")
        header = ["station", "epoch_mjd", "component", "predicted_m", "observed_m",
                  "abs_error_m", "training_size_used", "threshold_met"]
        if rows[:1] != [header]:
            return ["unexpected predict header"]
        if len(rows) - 1 != 3 * n_pred:
            return [f"{len(rows) - 1} predict rows, expected {3 * n_pred}"]
        problems = []
        for r, row in enumerate(rows[1:]):
            k, i = divmod(r, n_pred)
            yhat, size, met = want[k][0][i], want[k][1][i], want[k][2][i]
            y = values[k, V + i]
            if not (row[0] == "STP" and row[2] == _COMPONENTS[k]
                    and float(row[1]) == epochs[V + i] and float(row[4]) == y
                    and _close(float(row[3]), yhat, 0.0, PRED_ATOL_M)
                    and _close(float(row[5]), abs(y - yhat), 0.0, PRED_ATOL_M)
                    and int(row[6]) == size and row[7] == str(bool(met))):
                problems.append(f"predict row {r + 1} {row!r}")
                if len(problems) > 10:
                    break
        return problems

    def counters(wd: Path) -> dict[str, float]:
        rows = _read_csv(wd / "predict.csv")[1:]
        met = np.array([r[7] == "True" for r in rows])
        used = np.array([int(r[6]) for r in rows])
        tried = np.where(met, used, np.tile(caps, 3)) - V + 1
        return {
            "workload.predictions": 3 * n_pred,
            "grnn.weight_patterns": 0,
            "grnn.pattern_reuse": 0.0,
            "grnn.adaptive.hit_rate": float(met.mean()),
            "grnn.adaptive.attempts_per_prediction": float(tried.mean()),
        }

    return Prepared(
        argv=["predict", "STP.csv", "--threshold", str(THRESHOLD_M),
              "--max-training-size", str(MAX_TRAINING), "--output", "predict.csv"],
        inspect_argv=["inspect", "STP.csv"],
        outputs=["predict.csv"],
        predictions=3 * n_pred,
        check=check,
        counters=counters,
        inspect_lines=[_inspect_line("STP", epochs)],
        layers=("cli", "series.parse_series", "grnn.adaptive_forecast_series"),
    )


#: Workload name -> ``prepare(workdir, seed, tiny)``. Why each was chosen
#: is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[Path, int, bool], Prepared]] = {
    "compare-stations": prepare_compare,
    "sweep-decimal-year": prepare_sweep,
    "predict-adaptive": prepare_predict,
}
