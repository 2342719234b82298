"""Cross-check the tracer's wrapping against cProfile.

Runs one structural-checks call on octahedron-marked sd1 and renders its
report, with the tracer installed and cProfile enabled at once.  cProfile
counts every run of each original function; the tracer counts only the runs
that went through a wrapper.  The two agree for every wrapped callable exactly when no stratdual
module still reaches an original by a binding the tracer missed.

    python3 perfbench/check_wrapping.py [--seed N]

``--seed`` relabels the vertex ids (default: no relabelling).  Exits 1 on
any disagreement.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import pstats
import random
import sys
from pathlib import Path

import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from stratdual import cli
    from stratdual.examples import DECOMPOSITION_DOCUMENTS

    document = inputs.subdivide(DECOMPOSITION_DOCUMENTS["octahedron-marked"], 1)
    if args.seed is not None:
        document = inputs.relabel(document, random.Random(args.seed))
    folder = ROOT / ".perfbench" / "inputs" / "check"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / "octahedron-marked-sd1.json"
    path.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")

    tracer = spans.Tracer()
    tracer.install()
    profile = cProfile.Profile()
    profile.enable()
    report, _ = cli.run_verification(str(path), "zero", "lex",
                                     list(inputs.STRUCTURAL_CHECKS), 0)
    cli.render_report(report, "json")
    profile.disable()

    profiled = {(code[0], code[1], code[2]): stats[1]
                for code, stats in pstats.Stats(profile).stats.items()}
    traced = tracer.summary()
    agree = True
    print(f"{'callable':45s} {'cProfile':>9s} {'tracer':>9s}")
    for layer, entries in spans.LAYERS.items():
        module = importlib.import_module(f"stratdual.{layer}")
        for name, path_in_module in entries:
            target = module
            for part in path_in_module.split("."):
                target = getattr(target, part)
            code = target.__wrapped__.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            span = f"{layer}.{name}"
            counted = traced[f"{span}.calls"]
            expected = profiled.get(key, 0)
            mark = "" if counted == expected else "  <-- differs"
            agree = agree and counted == expected
            print(f"{span:45s} {expected:9d} {counted:9d}{mark}")
    print("wrapping agrees with cProfile" if agree else "wrapping MISSES calls")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
