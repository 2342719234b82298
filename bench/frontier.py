"""Frontier harness: wall time and peak memory of ``stratdual verify`` on
inputs larger than perfbench's workloads, one fresh process per run.

    python3 bench/frontier.py [--inputs NAME,...] [--against SRC] [--pairs N]
                              [--out PATH]

The inputs are built in this process: x2-cone-torus subdivided 0-2 times
(``examples.subdivide``), and the n = 4 documents s1-x-d3 and d2-x-t2
(``tests/helpers.py``) subdivided 0-1 times, named ``<family>-sd<level>``.
x2-cone-torus runs the zero perversity and the n = 4 documents the
lower-middle one, in the lex strategy, with the six structural checks.

Each run is ``python -m stratdual.cli verify <name>.json`` in a child
process started in the directory that holds the document, so the input name
that the report echoes is the same for every source tree.  It records the
wall time, the child's ``ru_maxrss``, its exit status and the sha256 of its
report.  With ``--against SRC`` (the ``src`` directory of another checkout, such as
the parent commit's) each run of this checkout ("change") is paired with
the same run on SRC ("parent"), ``--pairs`` times, alternating which side
goes first.  Both trees are byte-compiled before the first run.

It writes one JSON object: the host, one row per run, per input and side
the median and range of wall time and peak RSS, and per family and side the
least-squares slope of log wall time and of log peak RSS against log facets
over the family's sizes.  It uses the standard library only, and neither
``verify`` nor perfbench runs it.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
STRATEGY = "lex"
CHECKS = "model,duality,ladder,lefschetz,truncated-duality,oracle"
# family -> (subdivision levels, perversity)
FAMILIES = {
    "x2-cone-torus": ((0, 1, 2), "zero"),
    "s1-x-d3": ((0, 1), "lower-middle"),
    "d2-x-t2": ((0, 1), "lower-middle"),
}
NAMES = [f"{family}-sd{level}" for family, (levels, _) in FAMILIES.items()
         for level in levels]


def build_inputs(names):
    """name -> (family, level, document), read from this checkout."""
    sys.path[:0] = [str(SOURCE), str(ROOT / "tests")]
    from helpers import DIMENSION_FOUR
    from stratdual import examples

    built = {}
    for name in names:
        family, _, level = name.rpartition("-sd")
        base = DIMENSION_FOUR.get(family) or examples.get_document(family)
        built[name] = family, int(level), examples.subdivide(base, int(level))
    return built


def run_once(source: Path, workdir: Path, name: str, perversity: str) -> dict:
    """One ``verify`` of ``<name>.json`` in ``workdir`` against ``source``."""
    command = [sys.executable, "-m", "stratdual.cli", "verify", f"{name}.json",
               "--perversity", perversity, "--strategy", STRATEGY, "--checks", CHECKS,
               "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(source)}
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=workdir, env=env, stdout=out,
                                 stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit": child.returncode, "sha256": digest}


def slope(points):
    """Least-squares slope of log y against log x, or None below two sizes."""
    points = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return None
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    return round(sum((x - mx) * (y - my) for x, y in points)
                 / sum((x - mx) ** 2 for x, _ in points), 3)


def summarize(rows):
    """Per input and side: the median and range of wall time and peak RSS."""
    groups = {}
    for row in rows:
        groups.setdefault((row["input"], row["side"]), []).append(row)
    summary = []
    for (name, side), group in sorted(groups.items()):
        entry = {"input": name, "side": side, "facets": group[0]["facets"], "runs": len(group),
                 "sha256": sorted({row["sha256"] for row in group})}
        for metric in ("wall_s", "peak_rss_mb"):
            values = [row[metric] for row in group]
            entry[metric] = {"median": statistics.median(values),
                             "min": min(values), "max": max(values)}
        summary.append(entry)
    return summary


def slopes(summary, families):
    """Per family and side, the log-log slopes of the medians against facets."""
    result = {}
    for family in families:
        for side in sorted({entry["side"] for entry in summary}):
            entries = [e for e in summary if e["side"] == side
                       and e["input"].rpartition("-sd")[0] == family]
            result[f"{family} {side}"] = {
                metric: slope([(e["facets"], e[metric]["median"]) for e in entries])
                for metric in ("wall_s", "peak_rss_mb")}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--inputs", default=",".join(NAMES),
                        help="comma-separated subset of: " + ", ".join(NAMES))
    parser.add_argument("--against", type=Path,
                        help="the src directory of a second source tree, run as 'parent'")
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    names = [name for name in args.inputs.split(",") if name]
    unknown = sorted(set(names) - set(NAMES))
    if unknown:
        parser.error(f"unknown inputs: {unknown}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = [("change", SOURCE)]
    if args.against is not None:
        sides.append(("parent", args.against.resolve()))
    for _, source in sides:
        # Byte-compiled first, so that no run pays for compiling its tree.
        compileall.compile_dir(str(source), quiet=1)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, (family, level, document) in build_inputs(names).items():
            (workdir / f"{name}.json").write_text(json.dumps(document), encoding="utf-8")
            perversity = FAMILIES[family][1]
            for pair in range(args.pairs):
                for side, source in (sides if pair % 2 == 0 else sides[::-1]):
                    row = {"input": name, "family": family, "level": level,
                           "facets": len(document["facets"]), "perversity": perversity,
                           "strategy": STRATEGY, "checks": CHECKS.split(","),
                           "side": side, "pair": pair}
                    row.update(run_once(source, workdir, name, perversity))
                    rows.append(row)
                    print(json.dumps(row), file=sys.stderr)
    summary = summarize(rows)
    result = {
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine(), "system": platform.system()},
        "runs": rows,
        "summary": summary,
        "slopes": slopes(summary, list(dict.fromkeys(row["family"] for row in rows))),
    }
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
