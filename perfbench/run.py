"""Benchmark of the gutpatterns command-line tool, run from the checked-out source.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]    # every workload, both modes

Each run of the CLI is a child process of its own, started through
``perfbench/child.py`` (``PYTHONPATH=<checkout>/src``, a fresh ``--out``
deleted after its checks), which reports the child's own peak RSS. With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported. With
``--trace 1`` untraced runs alternate with traced ones, in which
``child.py`` times each layer in process, and the per-layer metrics are
reported.
Every run's outputs are checked (``workloads.check``); the last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9     # `steady` runs per --trace 0 run; setup_s is their median
CHILD_TIMEOUT_S = 150.0  # a CLI run that takes longer is killed and counted as failed


class Runner:
    """Runs CLI children one at a time and counts the ones that fail."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, w: Workload, subcommand: str, seed: int, traced: bool = False) -> dict:
        """One CLI run through ``child.py``: wall time, the child's own peak
        RSS and output size, plus the layer timers of a traced run. A run
        that fails reads 0 for its peak RSS."""
        run_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        try:
            out, config, result = run_dir / "out", run_dir / "config", run_dir / "result.json"
            config.write_text(w.config_text(seed))
            cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result),
                   *(["--trace"] if traced else []), subcommand, "--config", str(config), "--out", str(out)]
            with open(run_dir / "stdout", "w+") as log:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=run_dir)
                try:
                    proc.wait(timeout=CHILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                wall = time.perf_counter() - start
                log.seek(0)
                stdout = log.read()
            files = [f for f in out.rglob("*") if f.is_file()] if out.is_dir() else []
            record = {
                "wall_s": wall,
                "rss_mb": 0.0,
                "out_bytes": sum(f.stat().st_size for f in files),
                "snap_bytes": sum(f.stat().st_size for f in files if f.name.startswith("snap_t")),
            }
            self.attempted += 1
            if proc.returncode != 0:
                problems = [f"exit status {proc.returncode}: {stdout.strip()[-300:]}"]
            else:
                try:
                    child = json.loads(result.read_text())
                    record["rss_mb"] = child["peak_rss_kb"] * 1024 / 1e6
                    if traced:
                        record["trace"] = child
                    problems = check(w, subcommand, seed, out, stdout)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"{type(exc).__name__}: {exc}"]
            self.failed += bool(problems)
            self.problems += [f"{w.name} {subcommand}: {p}" for p in problems]
            return record
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


def repeat(seconds: float, fn, measured, at_least: int) -> list:
    """Call fn ``at_least`` times, and again while the time measured so far
    plus that of the last call stays within ``seconds``. ``measured`` gives
    the timed part of a call's result, which leaves out the output checks;
    fn gets the time measured so far."""
    results, spent = [], 0.0
    while len(results) < at_least or spent + measured(results[-1]) <= seconds:
        results.append(fn(spent))
        spent += measured(results[-1])
    return results


def end_to_end(runner: Runner, w: Workload, seed: int, seconds: float) -> tuple[dict, list[str]]:
    setups: list[dict] = []

    def workload_run(spent: float) -> dict:
        # The set-up runs are spread over the measured window, so that
        # setup_s and wall_s sample the same minutes of the machine.
        while len(setups) < SETUP_REPEATS * min(1.0, spent / seconds):
            setups.append(runner.run(w, "steady", seed))
        return runner.run(w, w.subcommand, seed)

    # Two runs at least, so that no workload's wall_s rests on one sample.
    runs = repeat(seconds, workload_run, lambda r: r["wall_s"], 2)
    setups += [runner.run(w, "steady", seed) for _ in range(SETUP_REPEATS - len(setups))]
    series = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": [r["wall_s"] for r in setups],
        "peak_rss_mb": [r["rss_mb"] for r in runs],
        "output_mb": [r["out_bytes"] / 1e6 for r in runs],
    }
    work, unit = w.work_units()
    rate = f"{unit}_per_s"
    series[rate] = [work / r["wall_s"] for r in runs]
    notes = [f"runs: {len(runs)} x {w.subcommand}, {len(setups)} x steady",
             f"{rate} = {unit} / wall_s, with {work:.0f} {unit} per run"]
    return series, notes


def layer_metrics(t: dict, snap_bytes: int) -> dict:
    """Per-layer metrics of one traced run. Per-call times are means over
    the calls made; a layer the workload does not call reads 0."""
    spans = t["spans"]
    calls = {name: c for name, (c, _) in spans.items()}
    busy = {name: s for name, (_, s) in spans.items()}

    def per_call(name, scale):
        return busy[name] / calls[name] * scale if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    steps = calls["kernels.step_arrays"]
    step_s = busy["kernels.step_arrays"]
    return {
        "kernels.step_us": per_call("kernels.step_arrays", 1e6),
        "kernels.ns_per_node_step": ratio(step_s * 1e9, t["node_steps"]),
        "kernels.calls": steps,
        "solver.simulate_s": busy["solver.simulate"],
        "solver.overhead_us_per_step": ratio((busy["solver.simulate"] - step_s) * 1e6, steps),
        "solver.retained_mb": t["retained_bytes"] / 1e6,
        "analysis.detect_peaks_ms": per_call("analysis.detect_peaks", 1e3),
        "analysis.snapshot_stats_ms": per_call("analysis.snapshot_stats", 1e3),
        "analysis.analyze_pattern_ms": per_call("analysis.analyze_pattern", 1e3),
        "cli.write_snapshot_ms": per_call("cli.write_snapshot", 1e3),
        "cli.write_mb_per_s": ratio(snap_bytes / 1e6, busy["cli.write_snapshot"]),
        "cli.write_scan_csv_s": busy["cli.write_scan_csv"],
        "scan.scan_region_ms": per_call("scan.scan_region", 1e3),
        "scan.cells_per_s": ratio(t["cells"], busy["scan.scan_region"]),
        "cli.import_s": t["import_s"],
        "cli.parse_config_ms": per_call("cli.parse_config", 1e3),
        "stability.dispersion_ms": per_call("stability.dispersion", 1e3),
        "params.steady_state_us": per_call("params.steady_state", 1e6),
        "cli.main_s": t["main_s"],
    }


def per_layer(runner: Runner, w: Workload, seed: int, seconds: float) -> tuple[dict, list[str]]:
    pairs = repeat(seconds, lambda _: (runner.run(w, w.subcommand, seed),
                                       runner.run(w, w.subcommand, seed, traced=True)),
                   lambda pair: pair[0]["wall_s"] + pair[1]["wall_s"], 1)
    traced = [t for _, t in pairs if "trace" in t]
    series: dict[str, list] = {}
    for t in traced:
        for name, value in layer_metrics(t["trace"], t["snap_bytes"]).items():
            series.setdefault(name, []).append(value)
    untraced_wall = statistics.median(p["wall_s"] for p, _ in pairs)
    series["trace.wall_s"] = [t["wall_s"] for t in traced]
    series["trace.overhead_s"] = [t["wall_s"] - untraced_wall for t in traced]
    notes = [f"runs: {len(pairs)} untraced + {len(pairs)} traced x {w.subcommand}",
             f"trace.overhead_s = traced wall - untraced median wall ({untraced_wall:.4f} s)"]
    return series, notes


def median_or_zero(series: dict, name: str) -> float:
    """Median of a metric's values. A metric with no value, as when no
    traced run succeeded, reads 0; the result then says ``correct: false``."""
    return statistics.median(series[name]) if series.get(name) else 0.0


def machine() -> str:
    import numpy
    import scipy

    import gutpatterns

    cpu = "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"machine: {cpu}, {os.cpu_count()} CPUs; Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}; "
            f"backend {getattr(gutpatterns, 'BACKEND', None)}")


def bench(spec: dict, w: Workload, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """Run one workload in one mode; print its table and return the result object."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    runner = Runner(tmp)
    runner.run(w, "steady", seed)  # warm-up: bytecode and file caches
    series, notes = (per_layer if trace else end_to_end)(runner, w, seed, seconds)
    failed = runner.failed
    print(f"== {w.name}  seed {seed}  {seconds:g} s  tracing {'on' if trace else 'off'}")
    for line in notes + [f"attempted {runner.attempted}, failed {failed}, "
                         f"fail_frac = {failed / runner.attempted:g}"]:
        print(f"   {line}")
    for problem in runner.problems:
        print(f"   FAILED {problem}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, values in series.items():
        if not values:
            continue
        unit = units.get(name, "1/s")
        print(f"   {name:28s} {statistics.median(values):14.6g} {unit:6s}"
              f" min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": median_or_zero(series, m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload, both modes")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "gutpatterns" / "cli.py").is_file():
        print(f"error: no gutpatterns source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        print(machine())
        if args.workload:
            result = bench(spec, WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), tmp)
            print(json.dumps(result))
            return 0
        results = [bench(spec, w, args.seed, seconds, trace, tmp)
                   for w in WORKLOADS.values() for trace in (False, True)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== all workloads: attempted {attempted}, failed {failed}, fail_frac = {failed / attempted:g}")
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
