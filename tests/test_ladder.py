"""Smoke tests of the scaling ladder script (scripts/ladder.py) on one tiny rung of each kind."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LADDER = os.path.join(ROOT, "scripts", "ladder.py")
SRC = os.path.join(ROOT, "src")


def run_ladder(out, *args):
    proc = subprocess.run([sys.executable, LADDER, "--sizes", "8", "--seeds", "1",
                           "--out", str(out)] + list(args),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_ladder_runs_one_rung_and_keeps_earlier_passes(tmp_path):
    out = tmp_path / "BENCH_ladder.json"
    run_ladder(out, "--label", "ok")
    run_ladder(out, "--label", "late", "--timeout", "0.001")
    results = json.loads(out.read_text())
    assert sorted(results) == ["late", "ok"]
    [rung] = results["ok"]["rungs"]
    assert (rung["n"], rung["ok"], rung["of"]) == (8, 1, 1)
    [run] = rung["runs"]
    assert run["outcome"] == "ok" and run["seed"] == 8
    assert run["states"] >= 1 and run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    [realize] = results["ok"]["realize_rungs"]
    assert (realize["n"], realize["ok"], realize["of"]) == (8, 1, 1)
    [run] = realize["runs"]
    assert run["outcome"] == "ok" and run["seed"] == 8
    assert run["realizable"] in (True, False) and run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    [split] = results["ok"]["split_rungs"]
    assert (split["n"], split["ok"], split["of"]) == (8, 1, 1)
    [run] = split["runs"]
    assert run["outcome"] == "ok" and run["seed"] == 8
    assert run["states"] >= 1 and run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    for key in ("rungs", "realize_rungs", "split_rungs"):
        [late] = results["late"][key]
        assert late["ok"] == 0 and [r["outcome"] for r in late["runs"]] == ["timeout"]
        assert "wall_s" not in late


def test_paired_ladder_runs_both_trees_on_the_same_seeds(tmp_path):
    """With a baseline tree each seed runs once from each tree, and each rung
    keeps the baseline's runs and the ratio of the paired medians."""
    out = tmp_path / "BENCH_ladder.json"
    run_ladder(out, "--label", "paired", "--baseline", SRC, "--seeds", "2")
    results = json.loads(out.read_text())
    for key in ("rungs", "realize_rungs", "split_rungs"):
        [rung] = results["paired"][key]
        base = rung["baseline"]
        assert (rung["n"], rung["ok"], rung["of"], base["ok"], base["of"]) == (8, 2, 2, 2, 2)
        assert [r["seed"] for r in rung["runs"]] == [r["seed"] for r in base["runs"]] == [8, 9]
        result = "realizable" if key == "realize_rungs" else "states"
        assert [r[result] for r in rung["runs"]] == [r[result] for r in base["runs"]]
        for field in ("wall_s", "peak_rss_mb"):
            ratio = rung["ratio"][field]
            assert 0 < ratio["min"] <= ratio["max"] and ratio["median"] > 0
            assert base[field]["median"] > 0
