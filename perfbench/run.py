"""stratdual benchmark: closed-loop `verify` workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Runs from any directory.  It byte-compiles the sources, then writes only
under ``.perfbench/`` in the checkout.  Each pass of a workload is a fresh process
(perfbench/worker.py) with one caller in a closed loop; passes repeat until
``--seconds`` is used up, at least twice, one at a time.  With ``--trace 0``
every second pass relabels the inputs anew (``--variant`` of the worker),
so that the medians average over relabellings and not over one seed's
luck; each relabelling runs twice, and the two passes' report bytes must
agree.  With ``--trace 1`` all passes use the seed's own relabelling, so
that their per-layer counts must agree.

End-to-end metrics (``--trace 0``), medians over passes:
  wall_s          sum of the call times of one pass, set-up excluded
  largest_case_s  the first call on the workload's largest input
                  (both in seconds at the speed probe's nominal host speed,
                  see perfbench/worker.py; the raw medians are printed too)
  setup_s         process start to the first timed call, also sampled by
                  extra processes that stop after set-up (speed-adjusted too)
  peak_rss_mb     ru_maxrss of the pass's process

``--trace 1`` alternates untraced and traced passes, and reports
the per-layer metrics of perfbench/spans.py plus the tracing overhead.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A call fails when its outcome differs from
perfbench/expected.py or its report bytes differ from those of the first
pass on the same relabelling.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 170
SETUP_ONLY_SAMPLES = 15     # set-ups sampled on top of those of the passes


def run_worker(workload: str, seed: int, *options: str) -> dict:
    """One worker process; ``setup_s`` spans its start to its first timed call.

    ``time.monotonic`` reads one system-wide clock on Linux, so the worker's
    reading of it compares with this process's.  ``setup_s`` leaves out the
    speed probe's own time and is scaled by the speed the probe saw during
    set-up, like the call times.
    """
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         *options],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = ((result["setup_done"] - start - result["setup_probe_s"])
                         * result["setup_factor"])
    result["elapsed_s"] = time.monotonic() - start
    return result


def run_passes(workload: str, seed: int, seconds: int, trace: int):
    """Passes until ``seconds`` is used up; untraced ones first in each pair."""
    modes = [0, 1] if trace else [0, 0]
    passes = []
    start = time.monotonic()
    last = {}
    while True:
        mode = modes[len(passes) % len(modes)]
        if len(passes) >= len(modes):
            used = time.monotonic() - start
            if used + last[mode] > seconds:
                break
        variant = 0 if trace else len(passes) // 2
        result = run_worker(workload, seed, "--trace", str(mode), "--variant", str(variant))
        result["variant"] = variant
        result["wall_s"] = sum(call["seconds"] for call in result["calls"])
        if not mode:
            result["adjusted_wall_s"] = sum(call["adjusted_s"] for call in result["calls"])
        result["traced"] = bool(mode)
        last[mode] = result["elapsed_s"]
        passes.append(result)
    return passes


def failures(passes) -> int:
    """Calls whose outcome is wrong or whose report bytes changed."""
    first = {}
    failed = 0
    for result in passes:
        for index, call in enumerate(result["calls"]):
            digest = first.setdefault((result["variant"], index), call["digest"])
            if not call["matches"] or call["digest"] != digest:
                failed += 1
                print(f"MISMATCH {call}", file=sys.stderr)
    return failed


def largest_case_s(result, key="adjusted_s") -> float:
    largest = max(call["facets"] for call in result["calls"])
    return next(call[key] for call in result["calls"] if call["facets"] == largest)


def scaling_slope(passes) -> float:
    """Least-squares slope of log(call time) against log(facet count)."""
    points = []
    for index, call in enumerate(passes[0]["calls"]):
        median = statistics.median(p["calls"][index]["adjusted_s"] for p in passes)
        points.append((math.log(call["facets"]), math.log(median)))
    mean_x = statistics.fmean(x for x, _ in points)
    mean_y = statistics.fmean(y for _, y in points)
    return (sum((x - mean_x) * (y - mean_y) for x, y in points)
            / sum((x - mean_x) ** 2 for x, _ in points))


def end_to_end(passes, setups) -> dict:
    return {
        "wall_s": (statistics.median(p["adjusted_wall_s"] for p in passes), "s"),
        "largest_case_s": (statistics.median(largest_case_s(p) for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(plain, traced) -> tuple[dict, bool]:
    """Per-layer metrics; counts must repeat exactly across traced passes."""
    metrics = {}
    repeatable = True
    for name in spans.metric_names():
        values = [p["layers"][name] for p in traced]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:
            repeatable = repeatable and len(set(values)) == 1
            unit = "ratio" if name.endswith("_ratio") else "count"
            metrics[name] = (values[0], unit)
    metrics["trace.spans"] = (traced[0]["spans"], "count")
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain), "s")
    return metrics, repeatable


def measure(workload: str, seed: int, seconds: int, trace: int):
    passes = run_passes(workload, seed, seconds, trace)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failed = failures(passes)
    attempted = sum(len(p["calls"]) for p in passes)
    print(f"workload {workload}  seed {seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced  calls {attempted}")
    if trace:
        metrics, repeatable = per_layer(plain, traced)
        if not repeatable:
            print("per-layer counts differ between traced passes", file=sys.stderr)
            failed += 1
        print(f"  trace file  {traced[-1]['trace_file']}")
    else:
        setups = [p["setup_s"] for p in plain]
        setups += [run_worker(workload, seed, "--setup-only")["setup_s"]
                   for _ in range(SETUP_ONLY_SAMPLES)]
        metrics = end_to_end(plain, setups)
        print(f"  unadjusted medians: wall {statistics.median(p['wall_s'] for p in plain):.4f} s,"
              f" largest case {statistics.median(largest_case_s(p, 'seconds') for p in plain):.4f} s")
        if workload in inputs.SCALING_WORKLOADS:
            print(f"  log-log slope of call time vs facets (informational): "
                  f"{scaling_slope(plain):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:14.6f} {unit}")
    print(f"  mismatch_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "stratdual" / "__init__.py").is_file():
        print(f"no stratdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(WORKER.parent, quiet=1)

    workloads = sorted(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        found, n, bad = measure(workload, args.seed, args.seconds, args.trace)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: {"value": value, "unit": unit}
                        for name, (value, unit) in found.items()})
        attempted += n
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
