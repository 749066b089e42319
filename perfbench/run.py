"""Benchmark of the gnss-grnn command-line program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compare-stations --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

``--trace 0`` runs the command as a fresh process per sample and reports
the end-to-end metrics; ``--trace 1`` runs it in-process with spans around
each layer and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). The line before it records the
environment, the samples and the error rate. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import LayerTotals, Tracer, patched

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fewest fresh-process ``inspect`` runs per set-up measurement (after one warm-up).
SETUP_REPS = 9
#: Fresh-process ``import gnss_grnn.cli`` runs for ``cli.import_s``.
IMPORT_REPS = 5
#: Time of ``probe.py`` on the host the figures are scaled to (README,
#: "Steadiness and bounds"): a 2-vCPU Xeon VM with Python 3.11 and numpy
#: 2.4, at its typical speed.
PROBE_REF_S = 0.45
#: Timed command samples taken even when ``--seconds`` is shorter.
MIN_SAMPLES = 3
#: A child running longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 30.0

#: One process on one core is measured; keep BLAS from starting threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def listed_metrics(section: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]


@dataclass
class Invocation:
    returncode: int
    seconds: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: failed: {why}", file=sys.stderr)
        return ok


def child_env() -> dict[str, str]:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


class Launcher:
    """Starts children through ``launcher.py`` so their peak RSS is their own."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def invoke(self, args: list[str], cwd: Path) -> Invocation:
        """Run the interpreter with ``args`` in ``cwd``; time it and read its max RSS."""
        out_path = cwd / ".stdout"
        request = {"argv": [sys.executable, *args], "cwd": str(cwd), "env": child_env(),
                   "stdout": str(out_path), "timeout": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Invocation(reply["returncode"], reply["seconds"], reply["cpu_s"],
                          reply["maxrss_kb"] / 1024.0,
                          out_path.read_text(encoding="utf-8", errors="replace"))

    def run_cli(self, argv: list[str], cwd: Path) -> Invocation:
        return self.invoke(["-m", "gnss_grnn.cli", *argv], cwd)


def output_bytes(prep, wd: Path) -> dict[str, bytes]:
    return {name: (wd / name).read_bytes() for name in prep.outputs if (wd / name).is_file()}


def verify(prep, wd: Path, code: int, first: dict | None, tally: Tally,
           more_problems: list[str] = ()) -> dict | None:
    """Record one finished command; returns its output bytes when it passed.

    It passes when it exited 0, its outputs pass the workload's check, they
    are byte-identical to ``first``, the outputs of the run's first pass,
    and ``more_problems`` (from the traced run's own checks) is empty.
    """
    try:
        problems = [f"exit {code}"] if code != 0 else prep.check(wd)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    produced = output_bytes(prep, wd)
    if not problems and first is not None and produced != first:
        problems = ["outputs differ from the first pass's"]
    problems += more_problems
    return produced if tally.record(not problems, "; ".join(problems[:5])) else None


def clear_outputs(prep, wd: Path) -> None:
    for name in prep.outputs:
        (wd / name).unlink(missing_ok=True)


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return {"percentile": p, "value": statistics.quantiles(samples, n=100)[p - 1]}


def set_up(launcher: Launcher, prep, wd: Path, tally: Tally) -> list[float]:
    """One fresh ``inspect`` run: interpreter start, import, parse, gap detection.

    Returns its time, or nothing when it failed.
    """
    inv = launcher.run_cli(prep.inspect_argv, wd)
    ok = inv.returncode == 0 and all(line in inv.stdout for line in prep.inspect_lines)
    return [inv.seconds] if tally.record(ok, f"inspect exit {inv.returncode}") else []


def probe(launcher: Launcher, wd: Path, tally: Tally) -> list[float]:
    """One fresh run of ``probe.py``; returns its time, or nothing when it failed."""
    inv = launcher.invoke([str(Path(__file__).with_name("probe.py"))], wd)
    ok = tally.record(inv.returncode == 0, f"probe exit {inv.returncode}")
    return [inv.seconds] if ok else []


def measure_command(launcher: Launcher, prep, wd: Path, seconds: float, tally: Tally):
    """Fresh-process samples of the command, each after one set-up and one probe run.

    Returns the good samples, the set-up times and the probe times.
    Alternating spreads the set-up and probe runs over the run like the
    samples, so all of them see the same host. Runs still missing at the
    end make up ``SETUP_REPS`` of each; the first set-up run, a warm-up
    that fills the bytecode cache, is not counted. A sample is started
    only while the median sample still fits before the deadline, so the
    loop lasts about ``seconds``. Every sample's outputs are checked and
    must be byte-identical to the first one's.
    """
    good, first = [], None
    set_up(launcher, prep, wd, tally)
    setup, probes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        setup += set_up(launcher, prep, wd, tally)
        probes += probe(launcher, wd, tally)
        clear_outputs(prep, wd)
        inv = launcher.run_cli(prep.argv, wd)
        produced = verify(prep, wd, inv.returncode, first, tally)
        if produced is not None:
            first = first or produced
            good.append(inv)
        if len(good) < MIN_SAMPLES and tally.failed < MIN_SAMPLES:
            continue
        if not good or time.perf_counter() + statistics.median(i.seconds for i in good) >= deadline:
            break
    for _ in range(SETUP_REPS - min(len(setup), len(probes))):
        setup += set_up(launcher, prep, wd, tally)
        probes += probe(launcher, wd, tally)
    return good, setup, probes


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import gnss_grnn.cli; "
                 "print(repr(time.perf_counter() - t))")


def measure_import(launcher: Launcher, wd: Path, tally: Tally) -> list[float]:
    times = []
    for rep in range(IMPORT_REPS + 1):
        inv = launcher.invoke(["-c", _IMPORT_PROBE], wd)
        if tally.record(inv.returncode == 0, f"import exit {inv.returncode}") and rep > 0:
            times.append(float(inv.stdout))
    return times


def layer_targets():
    """``(module, attribute, layer, count)`` for every traced layer.

    Attributes are the names the calling module looks up, so every call
    the command makes to the layer goes through the wrapper.
    """
    from gnss_grnn import cli, harness

    def rows(station):
        return station.count

    return [
        (cli, "parse_series", "series.parse_series", rows),
        (cli, "detect_gaps", "series.detect_gaps", None),
        (harness, "detect_gaps", "series.detect_gaps", None),
        (cli, "forecast_series", "grnn.forecast_series", len),
        (harness, "forecast_series", "grnn.forecast_series", len),
        (cli, "adaptive_forecast_series", "grnn.adaptive_forecast_series", len),
        (harness, "theta_backtest", "theta.theta_backtest", len),
        (harness, "compute_report", "metrics.compute_report", None),
        (harness, "evaluate_station", "harness.evaluate_station", None),
        (cli, "run_sweep", "harness.run_sweep", None),
        (cli, "write_reports_csv", "harness.write_reports_csv", None),
        (cli, "write_sweep_csv", "harness.write_sweep_csv", None),
    ]


def run_in_process(prep, wd: Path, tracer=None):
    """Call ``cli.main`` in this process; returns (exit code, seconds, stdout)."""
    from gnss_grnn import cli

    clear_outputs(prep, wd)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(wd)
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                t0 = time.perf_counter()
                code = cli.main(prep.argv)
                seconds = time.perf_counter() - t0
            else:
                with patched(tracer, layer_targets()):
                    t0 = time.perf_counter()
                    with tracer.span("cli"):
                        code = cli.main(prep.argv)
                    seconds = time.perf_counter() - t0
    except SystemExit as exc:
        code, seconds = exc.code if isinstance(exc.code, int) else 1, 0.0
    finally:
        os.chdir(cwd)
    return code, seconds, stdout.getvalue()


def layer_metrics(tracer, out_bytes: int) -> dict[str, float]:
    layers = tracer.layers()

    def get(name):
        return layers.get(name, LayerTotals())

    def rate(name):
        t = get(name)
        return t.items / t.total_s if t.total_s > 0 else 0.0

    return {
        "series.parse_series.s": get("series.parse_series").self_s,
        "series.parse_series.rows_per_s": rate("series.parse_series"),
        "series.detect_gaps.s": get("series.detect_gaps").self_s,
        "grnn.forecast_series.s": get("grnn.forecast_series").self_s,
        "grnn.forecast_series.calls": get("grnn.forecast_series").calls,
        "grnn.forecast_series.predictions_per_s": rate("grnn.forecast_series"),
        "grnn.adaptive_forecast_series.s": get("grnn.adaptive_forecast_series").self_s,
        "grnn.adaptive_forecast_series.predictions_per_s": rate("grnn.adaptive_forecast_series"),
        "theta.theta_backtest.s": get("theta.theta_backtest").self_s,
        "theta.theta_backtest.predictions_per_s": rate("theta.theta_backtest"),
        "metrics.compute_report.s": get("metrics.compute_report").self_s,
        "metrics.compute_report.calls": get("metrics.compute_report").calls,
        "harness.evaluate_station.self_s": get("harness.evaluate_station").self_s,
        "harness.run_sweep.self_s": get("harness.run_sweep").self_s,
        "harness.write_reports_csv.s": get("harness.write_reports_csv").self_s,
        "harness.write_sweep_csv.s": get("harness.write_sweep_csv").self_s,
        "cli.self_s": get("cli").self_s,
        "cli.output_bytes": out_bytes,
        "trace.in_process_s": get("cli").total_s,
    }


def trace_problems(prep, tracer: Tracer) -> list[str]:
    """What is wrong with one traced call's spans, if anything.

    Every layer the workload must call has to show up: a caller that no
    longer looks a layer up under the patched name would otherwise leave
    it at 0 and move its time into the parent's self time. And the self
    times reported must add up to the root span.
    """
    layers = tracer.layers()
    problems = [f"layer {name} was not called" for name in prep.layers if name not in layers]
    figures = layer_metrics(tracer, 0)
    accounted = sum(v for k, v in figures.items() if k.endswith((".s", ".self_s")))
    if abs(accounted - figures["trace.in_process_s"]) > 1e-6 * accounted:
        problems.append(f"layer self times add up to {accounted!r} s, "
                        f"the call took {figures['trace.in_process_s']!r} s")
    return problems


def measure_traced(prep, wd: Path, seconds: float, tally: Tally):
    """Alternate untraced and traced in-process calls until ``seconds`` pass.

    Returns the untraced and traced times and, per traced call, its
    tracer and output size. Outputs are checked after every call, and
    the spans after every traced call.
    """
    untraced, traced, first = [], [], None
    deadline = time.perf_counter() + seconds
    i = 0
    while not traced or time.perf_counter() + 2 * statistics.median(t for t, _, _ in traced) < deadline:
        order = (None, Tracer()) if i % 2 == 0 else (Tracer(), None)
        for tracer in order:
            code, secs, out = run_in_process(prep, wd, tracer)
            more = [] if tracer is None or code != 0 else trace_problems(prep, tracer)
            produced = verify(prep, wd, code, first, tally, more)
            if produced is not None:
                first = first or produced
                size = len(out.encode()) + sum(len(b) for b in produced.values())
                if tracer is None:
                    untraced.append(secs)
                else:
                    traced.append((secs, tracer, size))
        i += 1
        if tally.failed and not traced:
            break
    return untraced, traced


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            cpu = next((line.split(":", 1)[1].strip() for line in stream
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest(sorted((SRC / "gnss_grnn").glob("*.py"))),
        "seed": seed,
    }


def digest(paths) -> str:
    """SHA-256 over the names and contents of ``paths``."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Prepare inputs, measure, check; returns the result object and its record."""
    from workloads import WORKLOADS

    wd = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    try:
        prep = WORKLOADS[name](wd, seed, tiny)
        tally = Tally()
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "tiny": tiny, "inputs_sha256": digest(sorted(wd.glob("*.csv")))}
        if not trace:
            good, setup, probes = measure_command(launcher, prep, wd, seconds, tally)
            walls = [i.seconds for i in good]
            rss = [i.peak_rss_mb for i in good]
            # Times are scaled to a host on which the probe takes PROBE_REF_S:
            # the host's speed drifts by up to 45% over minutes, and the
            # probe, interleaved with the samples, drifts with it. Means, not
            # medians, of the samples and probes: the host's speed has modes,
            # and a run's median jumps between them while its mean moves with
            # their mix (README).
            slowdown = statistics.fmean(probes) / PROBE_REF_S if probes else 0.0
            wall = statistics.fmean(walls) if walls else 0.0
            setup_raw = statistics.median(setup) if setup else 0.0
            metrics = {
                "wall_s": wall / slowdown if slowdown else 0.0,
                "setup_s": setup_raw / slowdown if slowdown else 0.0,
                "peak_rss_mb": statistics.fmean(rss) if rss else 0.0,
            }
            # a fixed count over wall_s: printed, but not a second gate on wall_s
            record["predictions_per_s"] = (prep.predictions / metrics["wall_s"]
                                           if metrics["wall_s"] else 0.0)
            record["samples"] = {"wall_s": walls, "n": len(walls),
                                 "wall_s_mean": wall,
                                 "wall_s_median": statistics.median(walls) if walls else 0.0,
                                 "wall_s_tail": tail_percentile(walls),
                                 "cpu_s": [i.cpu_s for i in good],
                                 "setup_s": setup, "setup_s_median": setup_raw,
                                 "probe_s": probes, "slowdown": slowdown,
                                 "peak_rss_mb": rss}
        else:
            imports = measure_import(launcher, wd, tally)
            untraced, traced = measure_traced(prep, wd, seconds, tally)
            traced_s = [t for t, _, _ in traced]
            metrics = {"cli.import_s": statistics.median(imports) if imports else 0.0}
            if traced and untraced:
                # the traced call of median duration supplies every layer figure
                _, tracer, size = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
                metrics.update(layer_metrics(tracer, size))
                metrics.update(prep.counters(wd))
                metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                               - statistics.median(untraced))
            record["samples"] = {"untraced_s": untraced, "traced_s": traced_s,
                                 "import_s": imports}
        record["error_rate"] = tally.failed / tally.attempted
        listed = listed_metrics("per_layer" if trace else "end_to_end")
        if tally.failed == 0 and sorted(metrics) != sorted(m["name"] for m in listed):
            raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json lists "
                               f"{sorted(m['name'] for m in listed)}")
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                        for m in listed},
        }
        return {"result": result, "record": record}
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="compare-stations, sweep-decimal-year, predict-adaptive or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gnss_grnn" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")

    env = environment(args.seed)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        with Launcher() as launcher:
            out = run_workload(launcher, name, args.seed, args.seconds, bool(args.trace))
        result, record = out["result"], out["record"]
        print(json.dumps({"environment": env, **record}))
        for metric, m in result["metrics"].items():
            print(f"{name:20s} {metric:48s} {m['value']:.6g} {m['unit']}")
        if "predictions_per_s" in record:
            print(f"{name:20s} {'predictions_per_s':48s} {record['predictions_per_s']:.6g} 1/s")
        print(f"{name:20s} {'error_rate':48s} {record['error_rate']:.6g} ratio")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
