"""One pass of one workload, in a fresh process.

Set-up imports stratdual from the checkout's ``src``, generates the
workload's input documents, writes them, and checks that each one passes
``parse_complex`` and ``decompose``.  Then the pass runs its calls in a
closed loop: each ``run_verification`` + ``render_report(..., "json")``
starts after the previous one returned, the way the CLI runs them.  The
pass prints one JSON object with the time set-up ended, per-call times and
outcomes, and its peak RSS.

On the host this benchmark was written on, the same work takes up to 1.9x
longer from one second to the next while the process keeps its CPU, as
the host's other load comes and goes.  So an untraced pass runs a speed probe:
every ``PROBE_PERIOD_S`` of wall time a SIGALRM handler times a fixed small
loop.  Each call reports its own time with the probes taken out
(``seconds``) and that time scaled to the probe's nominal speed
(``adjusted_s``): seconds times the mean of ``NOMINAL_PROBE_S / probe``
over the probes taken during the call, which is the time the call would
have taken had the host kept that speed.  A faster program still reads
faster, since the probe's work does not depend on the program.  Set-up,
mostly interpreter start, cannot be probed while it runs; it is scaled by
the speed of ``PROBE_BURST`` probes run back to back as the worker's code
starts and as many run after set-up.  Traced passes run no probe during
their calls, so that it adds nothing to the spans.

    python3 perfbench/worker.py --workload NAME --seed N [--variant K] --trace 0|1
                                [--setup-only]

``--setup-only`` stops after set-up, to sample set-up time alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import inputs
from expected import expected_outcome, outcome

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench")       # relative to ROOT, so reports echo a stable path
PROBE_PERIOD_S = 0.005
PROBE_LOOP = 200
PROBE_BURST = 20
NOMINAL_PROBE_S = 1.6e-5  # the probe's median time on the Intel Xeon host it was written on


class SpeedProbe:
    """Times a fixed loop every ``PROBE_PERIOD_S`` while it is running."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def burst(self, count):
        for _ in range(count):
            self._sample(None, None)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def speed_factor(samples) -> float:
    """Nominal speed over measured speed, averaged over equal wall intervals."""
    return statistics.fmean(NOMINAL_PROBE_S / sample for sample in samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    probe = SpeedProbe()
    probe.burst(PROBE_BURST)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from stratdual import cli, decompose, parse_complex
    from stratdual.examples import DECOMPOSITION_DOCUMENTS

    documents, calls = inputs.workload_inputs(args.workload, args.seed,
                                              DECOMPOSITION_DOCUMENTS, args.variant)
    folder = WORK / "inputs" / args.workload
    (ROOT / folder).mkdir(parents=True, exist_ok=True)
    for stem, document in documents.items():
        path = ROOT / folder / f"{stem}.json"
        path.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")
        written = json.loads(path.read_text(encoding="utf-8"))
        decompose(parse_complex(written), written["singular_vertex"])
    setup_done = time.monotonic()
    setup_probe_s = sum(probe.samples)
    probe.burst(PROBE_BURST)        # after setup_done, so outside set-up time
    setup = {
        "setup_done": setup_done,
        "setup_probe_s": setup_probe_s,
        "setup_factor": speed_factor(probe.samples),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = probe = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        probe = SpeedProbe()
        probe.start()

    results, factors = [], []
    for index, (stem, base, perversity, strategy, checks, facets) in enumerate(calls):
        if tracer is not None:
            tracer.call = index
        first_sample = len(probe.samples) if probe else 0
        start = time.perf_counter()
        # Through the module, so that a traced pass sees the wrapped callables.
        report, status = cli.run_verification(str(folder / f"{stem}.json"), perversity,
                                              strategy, list(checks), args.seed)
        text = cli.render_report(report, "json")
        seconds = time.perf_counter() - start
        if probe:
            samples = probe.samples[first_sample:]
            seconds -= sum(samples)
            factors.append(speed_factor(samples) if samples else None)
        got = outcome(report, status)
        results.append({
            "input": stem,
            "perversity": perversity,
            "strategy": strategy,
            "facets": facets,
            "seconds": seconds,
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "matches": got == expected_outcome(base, perversity, checks),
        })
        if not results[-1]["matches"]:
            results[-1]["outcome"] = got

    if probe:
        probe.stop()
        # A call too short to be probed takes the speed of the whole pass.
        pass_factor = speed_factor(probe.samples)
        for call, factor in zip(results, factors):
            call["adjusted_s"] = call["seconds"] * (factor or pass_factor)
    result = {
        **setup,
        "calls": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.spans)
        trace_path = ROOT / WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
