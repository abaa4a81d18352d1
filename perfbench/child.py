"""Run one gutpatterns CLI command in this process, then write what the
benchmark measures of it to a JSON file: the process's own peak RSS and,
with ``--trace``, a timer around the public function of each layer.

Usage: python3 perfbench/child.py RESULT_JSON [--trace] SUBCOMMAND [CLI OPTIONS...]

Peak RSS is ``VmHWM`` from ``/proc/self/status`` (Linux). It covers only
the memory of this program. The ``ru_maxrss`` that ``wait4`` returns does
not: at exec, Linux carries the parent's peak RSS over into the child's,
so the benchmark's own memory (numpy, scipy, the outputs it has checked)
would set a floor under the figure.

Each timer replaces a name in the module where its caller looks it up:
``cli`` imports simulate, write_snapshot, scan_region and the others by
name, so those are wrapped in ``gutpatterns.cli``; ``solver`` calls
``kernels.step_arrays`` through the module, and ``analysis`` calls
``detect_peaks`` from its own namespace. The exit status is the CLI's.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def install_timers(cli) -> tuple[dict, dict]:
    """Wrap each layer's public function; return the timers and counters
    the wrappers fill in."""
    from gutpatterns import analysis, kernels

    spans = {}  # span name -> [calls, seconds]
    counts = {"node_steps": 0, "retained_bytes": 0, "cells": 0}

    def wrap(module, attr, span, count=None):
        fn = getattr(module, attr)
        record = spans.setdefault(span, [0, 0.0])

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            record[1] += time.perf_counter() - t0
            record[0] += 1
            if count is not None:
                counts[count[0]] += count[1](args, result)
            return result

        setattr(module, attr, timed)

    wrap(kernels, "step_arrays", "kernels.step_arrays", ("node_steps", lambda args, _: args[0].shape[0]))
    wrap(cli, "simulate", "solver.simulate",
         ("retained_bytes", lambda _, snaps: sum(s.beta.nbytes + s.gamma.nbytes for s in snaps)))
    wrap(cli, "scan_region", "scan.scan_region", ("cells", lambda _, grid: grid.verdicts.size))
    wrap(analysis, "detect_peaks", "analysis.detect_peaks")
    for attr, span in [
        ("snapshot_stats", "analysis.snapshot_stats"),
        ("analyze_pattern", "analysis.analyze_pattern"),
        ("write_snapshot", "cli.write_snapshot"),
        ("write_scan_csv", "cli.write_scan_csv"),
        ("parse_config", "cli.parse_config"),
        ("dispersion", "stability.dispersion"),
        ("steady_state", "params.steady_state"),
    ]:
        wrap(cli, attr, span)
    return spans, counts


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    start = time.perf_counter()
    import gutpatterns.cli as cli
    result = {"import_s": time.perf_counter() - start}
    if trace:
        spans, counts = install_timers(cli)
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        result["main_s"] = time.perf_counter() - start
        if trace:
            result.update(spans=spans, **counts)
        return code
    finally:
        result["peak_rss_kb"] = peak_rss_kb()
        with open(result_path, "w") as f:
            json.dump(result, f)


if __name__ == "__main__":
    sys.exit(main())
