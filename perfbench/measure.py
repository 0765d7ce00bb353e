"""One workload in one process: set-up, timed passes, checks; prints one JSON line.

Started by run.py in a child process with an address-space limit.  Reads the
library from `src/` and the oracles from `tests/` of the tree it sits in.

Timing model: a single client in a closed loop, no threads.  A pass runs the
batch's jobs in order, one at a time; passes repeat while another one fits
in the time budget.

Speed-normalized seconds.  On a shared machine a core's speed swings by up
to 1.8x within seconds as neighbours come and go, so raw times of one run
say more about the neighbours than about the code.  Between every two jobs
the child times `reference_work`, a fixed piece of pure-Python work that does
not touch the library, and scales the job's time by REFERENCE_S over the mean
of the two probes around it.  A reported time is thus the time the job would
take on a core that runs the reference work in REFERENCE_S.  Raw times are
kept in the metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.dirname(os.path.abspath(__file__))]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10
REFERENCE_S = 0.001
SETUP_PROBES = 5


_REFERENCE_TEXT = "\n".join("trans %d a %d %d" % (v, (v * 7 + 1) % 400, v % 5)
                            for v in range(400))


def reference_work():
    """Fixed graph search and text parsing of the kind the library does."""
    succ = {}
    for v in range(800):
        succ[(v, v & 3)] = ((v * 7 + 1) % 800, (v * 13 + 5) % 800)
    seen = {0}
    todo = [0]
    while todo:
        v = todo.pop()
        for w in succ[(v, v & 3)]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    rows = []
    for line in _REFERENCE_TEXT.splitlines():
        parts = line.split()
        rows.append((int(parts[1]), parts[2], int(parts[3]), int(parts[4])))
    return len(seen), sorted(rows)[-1]


def probe(repeats=1):
    """Mean seconds of `reference_work` right now."""
    t0 = perf_counter()
    for _ in range(repeats):
        reference_work()
    return (perf_counter() - t0) / repeats


class _Raised:
    """Stands in for the output of a job that raised."""

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return False


def run_job(tracer, job):
    try:
        if tracer is None:
            return job.call()
        return tracer.call("job", job.call)
    except Exception:
        return _Raised(traceback.format_exc())


def run_passes(batch, budget, tracer, first, bad):
    """Repeat passes while another fits in `budget` seconds; at least one.

    `first` holds each job's first output; a later output that differs, or
    any that raised, marks that execution bad.  Returns (raw latencies,
    normalized latencies), each a list of per-pass values per job.
    """
    raw = [[] for _ in batch.jobs]
    normalized = [[] for _ in batch.jobs]
    start = perf_counter()
    before = probe()
    while True:
        for k, job in enumerate(batch.jobs):
            t_job = perf_counter()
            out = run_job(tracer, job)
            elapsed = perf_counter() - t_job
            after = probe()
            raw[k].append(elapsed)
            normalized[k].append(elapsed * 2 * REFERENCE_S / (before + after))
            before = after
            if first[k] is None:
                first[k] = (out,)
            if isinstance(out, _Raised) or not out == first[k][0]:
                bad[k] += 1
            del out
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(raw[0]) > budget:
            return raw, normalized


def pass_walls(latencies):
    """Per-pass sums over the jobs of one latency table."""
    return [sum(column) for column in zip(*latencies)]


def check_outputs(batch, first, bad, passes):
    """Judge each job's first output; a failed check marks all its passes bad."""
    failures = []
    for k, job in enumerate(batch.jobs):
        out = first[k][0]
        if isinstance(out, _Raised):
            failures.append({"job": job.name, "error": out.text.strip().splitlines()[-1]})
            sys.stderr.write(out.text)
            continue
        try:
            problem = job.check(out)
        except Exception:
            problem = "check raised: " + traceback.format_exc()
        if problem is not None:
            bad[k] = passes
            failures.append({"job": job.name, "error": problem})
        elif bad[k]:
            failures.append({"job": job.name, "error": "outputs differ between passes"})
    return failures


def timed_setup(build, seed):
    """(batch, raw seconds, normalized seconds) of one set-up."""
    before = probe(SETUP_PROBES)
    t0 = perf_counter()
    batch = build(seed)
    batch.warmup()
    elapsed = perf_counter() - t0
    after = probe(SETUP_PROBES)
    return batch, elapsed, elapsed * 2 * REFERENCE_S / (before + after)


def measure(workload, seed, seconds, trace):
    build = workloads.WORKLOADS[workload]
    raw_setup, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        batch = None  # so that two batches never share the heap
        batch, raw_s, normalized_s = timed_setup(build, seed)
        raw_setup.append(raw_s)
        setup_s.append(normalized_s)
    jobs = batch.jobs
    first = [None] * len(jobs)
    bad = [0] * len(jobs)
    raw, normalized = run_passes(batch, seconds / 2 if trace else seconds, None, first, bad)
    walls = pass_walls(normalized)
    passes = len(walls)
    meta = {"jobs": len(jobs), "passes": passes, "setup_repeats": SETUP_REPEATS,
            "reference_s": REFERENCE_S,
            "raw_pass_walls_s": pass_walls(raw), "pass_walls_s": walls,
            "raw_setup_s": raw_setup, "setup_s": setup_s}
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _raw, traced = run_passes(batch, seconds / 2, tracer, first, bad)
        finally:
            tracer.uninstall()
        traced_walls = pass_walls(traced)
        passes += len(traced_walls)
        metrics = tracing.layer_metrics(tracer, len(traced_walls))
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls),
            "unit": "s"}
        meta.update(traced_passes=len(traced_walls), traced_pass_walls_s=traced_walls,
                    missing_targets=tracer.missing, spans=len(tracer.spans),
                    dropped_spans=tracer.dropped_spans)
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (workload, seed))
        tracer.write_spans(span_file)
        meta["span_file"] = os.path.relpath(span_file, ROOT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_outputs(batch, first, bad, passes)
    attempted = passes * len(jobs)
    failed = sum(bad)
    if not trace:
        per_job = sorted(statistics.median(lat) for lat in normalized)
        tail_index = max(len(per_job) - TAIL_BEYOND - 1, 0)
        meta["tail_percentile"] = round(100.0 * tail_index / len(per_job), 2)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "job_s.p50": {"value": statistics.median(per_job), "unit": "s"},
            "job_s.tail": {"value": per_job[tail_index], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    meta.update(fail_frac=failed / attempted, failures=failures[:20])
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "meta": meta}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
