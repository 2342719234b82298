"""``bench/frontier.py`` on the smallest inputs: the shape of its JSON.

The harness runs each input in a fresh process; here it pairs this tree
with itself, once, on the three inputs without subdivision.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ["x2-cone-torus-sd0", "s1-x-d3-sd0", "d2-x-t2-sd0"]
ROW = {"input", "family", "level", "facets", "perversity", "strategy", "checks", "side", "pair",
       "wall_s", "peak_rss_mb", "exit", "sha256"}


def test_the_harness_writes_one_row_per_run_and_side(tmp_path):
    out = tmp_path / "frontier.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "frontier.py"), "--inputs", ",".join(INPUTS),
         "--against", str(ROOT / "src"), "--pairs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == {"host", "runs", "summary", "slopes"}
    assert set(result["host"]) == {"cpus", "python", "machine", "system"}
    runs = result["runs"]
    assert [(row["input"], row["side"]) for row in runs] == [
        (name, side) for name in INPUTS for side in ("change", "parent")]
    for row in runs:
        assert set(row) == ROW
        assert row["exit"] == 0 and row["level"] == 0 and row["pair"] == 0
        assert row["wall_s"] > 0 and row["peak_rss_mb"] > 0
        assert len(row["sha256"]) == 64
    # One tree on both sides: the same report bytes.
    for name in INPUTS:
        assert len({row["sha256"] for row in runs if row["input"] == name}) == 1
    assert [(entry["input"], entry["side"], entry["runs"]) for entry in result["summary"]] == [
        (name, side, 1) for name in sorted(INPUTS) for side in ("change", "parent")]
    # One size per family: no slope.
    assert result["slopes"] == {
        f"{family} {side}": {"wall_s": None, "peak_rss_mb": None}
        for family in ("x2-cone-torus", "s1-x-d3", "d2-x-t2") for side in ("change", "parent")}
