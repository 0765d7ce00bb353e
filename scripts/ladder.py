"""Scaling ladder: `minimize_rerailing` on seeded random DPWs of growing size.

Each run minimizes `random_dpw(Random(seed), n, 3, 3)` (from
tests/oracles.py) in a child process of its own, under a 3 GiB
address-space limit and a timeout; the children are started one at a
time.  A run ends `ok`, `memory` (a MemoryError or a death under the
limit) or `timeout`.
The results of one pass are stored in BENCH_ladder.json under a label, next
to the passes already there, so the file can hold a "before" point measured
on another checkout and an "after" point:

    python scripts/ladder.py --label after
    python scripts/ladder.py --label before --src ../parent/src

`--src` names the source directory the children import `rerail` from;
tests/oracles.py always comes from this checkout.  Each rung (one size n)
runs the seeds n, n + 1, ... and reports per run the wall time of the
minimization, the child's peak RSS and the output's state count, and per
rung the median and maximum of wall time and peak RSS over its ok runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (20, 40, 80, 120, 200, 300, 400)
SYMBOLS = 3
LIMIT_BYTES = 3 << 30


def child(src, n, seed):
    """Minimize one DPW and print its outcome, with wall time, peak RSS and
    output states when it is ok, as JSON."""
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    import random
    from oracles import random_dpw
    from rerail.build import minimize_rerailing
    aut = random_dpw(random.Random(seed), n, SYMBOLS, 3)
    try:
        start = time.perf_counter()
        out = minimize_rerailing(aut)
        wall = time.perf_counter() - start
    except MemoryError:
        print(json.dumps({"outcome": "memory"}))
        return
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"outcome": "ok", "wall_s": round(wall, 4),
                      "peak_rss_mb": round(peak, 1), "states": out.state_count}))


def run_one(src, n, seed, timeout):
    command = [sys.executable, os.path.abspath(__file__), "--child", str(n), str(seed),
               "--src", src]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"outcome": "timeout"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    if "MemoryError" in proc.stderr or proc.returncode < 0:
        return {"outcome": "memory"}
    raise RuntimeError("ladder child n=%d seed=%d failed:\n%s" % (n, seed, proc.stderr[-2000:]))


def rung_summary(runs):
    ok = [r for r in runs if r["outcome"] == "ok"]
    summary = {"ok": len(ok), "of": len(runs)}
    for field in ("wall_s", "peak_rss_mb"):
        values = [r[field] for r in ok]
        if values:
            summary[field] = {"median": statistics.median(values), "max": max(values)}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="after", help="key of this pass in the output")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory the children import rerail from")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--seeds", type=int, default=3, help="seeds per rung")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per run")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_ladder.json"))
    parser.add_argument("--child", type=int, nargs=2, metavar=("N", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.child:
        child(src, args.child[0], args.child[1])
        return 0
    rungs = []
    for n in args.sizes:
        runs = []
        for seed in range(n, n + args.seeds):
            run = {"seed": seed}
            run.update(run_one(src, n, seed, args.timeout))
            runs.append(run)
            print("n=%d %s" % (n, json.dumps(run)), file=sys.stderr, flush=True)
        rungs.append({"n": n, "runs": runs, **rung_summary(runs)})
    results = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            results = json.load(handle)
    results[args.label] = {
        "workload": "minimize_rerailing(random_dpw(Random(seed), n, %d, 3))" % SYMBOLS,
        "limit_mb": LIMIT_BYTES >> 20, "timeout_s": args.timeout,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "rungs": rungs}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
