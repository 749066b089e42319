"""Tests of the benchmark itself, on tiny variants of every workload.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.WORKLOADS)
SEED = 5
COUNTERS = ("workload.predictions", "grnn.weight_patterns", "grnn.pattern_reuse",
            "grnn.adaptive.hit_rate", "grnn.adaptive.attempts_per_prediction",
            "grnn.forecast_series.calls", "metrics.compute_report.calls", "cli.output_bytes")


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher() as launcher:
        yield launcher


def _run(launcher, name, trace, seed=SEED):
    return run.run_workload(launcher, name, seed, 0.5, trace, tiny=True)


def _assert_listed_metrics(result, section):
    listed = BENCHMARK[section]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_benchmark_json_workloads_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(launcher, name):
    out = _run(launcher, name, trace=False)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert out["record"]["error_rate"] == 0.0
    _assert_listed_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer_and_counters_repeat(launcher, name):
    first = _run(launcher, name, trace=True)["result"]
    second = _run(launcher, name, trace=True)["result"]
    assert first["correct"] and second["correct"]
    _assert_listed_metrics(first, "per_layer")
    for counter in COUNTERS:
        assert first["metrics"][counter] == second["metrics"][counter], counter
    assert first["metrics"]["workload.predictions"]["value"] > 0
    layers = first["metrics"]
    self_times = sum(m["value"] for k, m in layers.items() if k.endswith((".s", ".self_s")))
    assert self_times == pytest.approx(layers["trace.in_process_s"]["value"], rel=1e-6)


def test_inputs_depend_only_on_the_seed(tmp_path):
    digests = []
    for sub, seed in (("a", 1), ("b", 1), ("c", 2)):
        wd = tmp_path / sub
        wd.mkdir()
        workloads.prepare_compare(wd, seed, tiny=True)
        digests.append(run.digest(sorted(wd.glob("*.csv"))))
    assert digests[0] == digests[1] != digests[2]


def _bump_report(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["stations"][0]["metrics"]["grnn"]["X"]["std_m"] *= 1.0001
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _edit_rows(path, edit):
    with open(path, encoding="utf-8", newline="") as stream:
        rows = list(csv.reader(stream))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows(rows)


def _edit_csv(path, column, edit):
    def edit_first(rows):
        rows[1][column] = edit(rows[1][column])
    _edit_rows(path, edit_first)


def _swap_rows(rows):
    rows[1], rows[2] = rows[2], rows[1]


CORRUPT = {
    "compare-stations": lambda wd: _bump_report(wd / "out" / "report.json"),
    "sweep-decimal-year": lambda wd: _edit_csv(wd / "sweep.csv", 4,
                                               lambda s: f"{float(s) + 1e-5:.6f}"),
    "predict-adaptive": lambda wd: _edit_csv(wd / "predict.csv", 6, lambda s: str(int(s) + 1)),
}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_raises_error_rate(launcher, name, monkeypatch):
    real = run.Launcher.run_cli

    def corrupting(self, argv, cwd):
        inv = real(self, argv, cwd)
        if argv[0] != "inspect":
            CORRUPT[name](cwd)
        return inv

    monkeypatch.setattr(run.Launcher, "run_cli", corrupting)
    out = _run(launcher, name, trace=False)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] >= run.MIN_SAMPLES
    assert out["record"]["error_rate"] > 0


def test_missing_layer_counts_as_a_failed_traced_call(launcher, monkeypatch):
    """A layer its callers no longer look up reads 0 calls: the run must fail."""
    targets = run.layer_targets
    monkeypatch.setattr(run, "layer_targets",
                        lambda: [t for t in targets() if t[1] != "theta_backtest"])
    out = _run(launcher, "compare-stations", trace=True)
    assert not out["result"]["correct"] and out["result"]["failed"] >= 1


def test_a_layer_that_is_gone_cannot_be_patched():
    from gnss_grnn import harness
    with pytest.raises(AttributeError):
        with run.patched(run.Tracer(), [(harness, "no_such_layer", "x", None)]):
            pass


STATIONS_CSV_CORRUPT = {
    "value": lambda path: _edit_csv(path, 6, lambda s: f"{float(s) + 2e-6:.6f}"),
    "order": lambda path: _edit_rows(path, _swap_rows),
    "state": lambda path: _edit_csv(path, 2, lambda s: "discontinuous"),
    "span": lambda path: _edit_csv(path, 1, lambda s: "1999-2000"),
}


@pytest.mark.parametrize("how", STATIONS_CSV_CORRUPT)
def test_stations_csv_rows_are_checked(tmp_path, how):
    prep = workloads.prepare_compare(tmp_path, 0, True)
    golden = HERE / "golden" / "compare-stations"
    (tmp_path / "out").mkdir()
    for output in prep.outputs:
        shutil.copyfile(golden / Path(output).name, tmp_path / output)
    STATIONS_CSV_CORRUPT[how](tmp_path / "out" / "stations.csv")
    assert prep.check(tmp_path) != []


@pytest.mark.parametrize("name", NAMES)
def test_stored_outputs_of_this_commit_pass_the_checks(tmp_path, name):
    """Outputs the CLI wrote for the tiny inputs of seed 0, kept in golden/.

    They pin the reference: a change to it that would reject them fails here.
    """
    prep = workloads.WORKLOADS[name](tmp_path, 0, True)
    golden = HERE / "golden" / name
    for output in prep.outputs:
        (tmp_path / output).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(golden / Path(output).name, tmp_path / output)
    assert prep.check(tmp_path) == []
    CORRUPT[name](tmp_path)
    assert prep.check(tmp_path) != []
