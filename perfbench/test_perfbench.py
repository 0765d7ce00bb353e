"""Checks that the benchmark reports what BENCHMARK.json promises.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench

The traced run of every workload must emit every per-layer metric, each one
non-zero on the workload where its layer does work, and the bypass
predictions must hold, so that an import rebinding in a later refactor
cannot silently zero a layer.  Each traced run takes about 15 seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

# Layer metric -> workloads on which its layer does work in the timed phase.
WORKS_ON = {}
for _name in ["cobuchi.compute_Rij.s", "cobuchi.compute_Rij.calls",
              "cobuchi.rij_arena_vertices", "cobuchi.rij_tuples",
              "cobuchi.build_rlta_chain.s", "cobuchi.rlta_states",
              "cobuchi.residual_tracking_single.s", "cobuchi.decompose_rerailing.s",
              "floating.residualize.s", "floating.minimize_floating.s",
              "floating.level_states", "build.build_minimal.s", "build.output_states"]:
    WORKS_ON[_name] = ["minimize"]
for _name in ["games.solve.s", "games.solve.calls", "games.solve.vertices",
              "games.solve.vertices_per_s", "games.GameArena.s"]:
    WORKS_ON[_name] = ["minimize", "realize"]
for _name in ["synthesis.build_realizability_game.s", "synthesis.arena_vertices"]:
    WORKS_ON[_name] = ["realize"]
for _name in ["lasso.LassoProduct.s", "lasso.LassoProduct.calls", "lasso.product_nodes",
              "lasso.analysis.s", "lasso.member.s", "lasso.member.calls",
              "lasso.bounded_equivalence.s", "lasso.enumerate_lassos.s", "lasso.lassos",
              "lasso.lassos_per_s", "scc.scc_decomposition.s",
              "scc.scc_decomposition.calls", "build.verify_rerailing_bounded.s",
              "build.violations"]:
    WORKS_ON[_name] = ["lasso_sweep"]
for _name in ["cobuchi.parse_chain.s", "raf.parse_automaton.s", "raf.serialize_automaton.s",
              "raf.transitions_parsed", "raf.transitions_per_s"]:
    WORKS_ON[_name] = ["parse"]

# Workload -> layer counters that must read zero in its timed phase.
BYPASSED = {
    "lasso_sweep": ["cobuchi.compute_Rij.calls", "games.solve.calls"],
    "minimize": ["lasso.LassoProduct.calls"],
    "realize": ["lasso.LassoProduct.calls", "cobuchi.compute_Rij.calls"],
    "parse": ["cobuchi.compute_Rij.calls"],
}

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload, trace, seconds=1, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", str(seconds),
               "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def traced():
    results = {}
    for workload in WORKLOAD_NAMES:
        proc = run_benchmark(workload, 1)
        assert proc.returncode == 0, proc.stderr[-3000:]
        lines = proc.stdout.strip().splitlines()
        results[workload] = (json.loads(lines[-2])["meta"], json.loads(lines[-1]))
    return results


def test_workloads_match_spec():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


def test_layer_table_covers_spec():
    named = {m["name"] for m in SPEC["per_layer"]}
    assert set(WORKS_ON) <= named
    assert named - set(WORKS_ON) == {"trace.overhead_s"}


def test_traced_run_emits_every_layer_metric(traced):
    for workload, (meta, result) in traced.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert meta["missing_targets"] == [], workload
        metrics = result["metrics"]
        for m in SPEC["per_layer"]:
            assert metrics[m["name"]]["unit"] == m["unit"], (workload, m["name"])
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("metric", sorted(WORKS_ON))
def test_layer_does_work(traced, metric):
    for workload in WORKS_ON[metric]:
        assert traced[workload][1]["metrics"][metric]["value"] > 0, (metric, workload)


@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_bypass_predictions(traced, workload):
    metrics = traced[workload][1]["metrics"]
    for metric in BYPASSED[workload]:
        assert metrics[metric]["value"] == 0, (workload, metric)


def test_untraced_run_reports_end_to_end_metrics():
    proc = run_benchmark("realize", 0)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and value["value"] > 0, m["name"]
    for key in ("seed", "git_commit", "python", "nproc", "jobs", "tail_percentile"):
        assert key in meta


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = run_benchmark("parse", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_generators_are_seeded_and_exact():
    import random
    a = workloads.complete_dpw(random.Random(3), 9, workloads._letters(2), 3)
    b = workloads.complete_dpw(random.Random(3), 9, workloads._letters(2), 3)
    assert a == b
    assert a.reachable_states() == set(range(9)) and a.max_color == 3
