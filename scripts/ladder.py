"""Scaling ladder: `minimize_rerailing` and `realizability` on seeded inputs of growing size.

A minimize run minimizes `random_dpw(Random(seed), n, 3, 3)` (from
tests/oracles.py); a split run minimizes the split of that DPW, in which
each state q becomes 2q and 2q + 1 and every move goes to both copies of its
target with its color, so its levels are nondeterministic and its letter
games are parity games; a realize run decides `realizability` of a random
deterministic, hence color-homogeneous, spec over 2 inputs and 2 outputs
with REALIZE_SCALE * n states and colors 0..3, drawn from Random(seed).
Each run is a child process of its own, under a 3 GiB address-space limit
and a timeout; the children are started one at a time.  A run ends `ok`,
`memory` (a MemoryError or a death under the limit) or `timeout`.
The results of one pass are stored in BENCH_ladder.json under a label, next
to the passes already there, so the file can hold a "before" point measured
on another checkout and an "after" point:

    python scripts/ladder.py --label after
    python scripts/ladder.py --label before --src ../parent/src

`--src` names the source directory the children import `rerail` from;
tests/oracles.py always comes from this checkout.  With `--baseline` naming
a second source directory, one pass compares the two trees under the same
drift: each seed of a rung runs once from each tree, back to back, and the
tree that goes first alternates from seed to seed:

    python scripts/ladder.py --label change --baseline ../parent/src

Such a rung keeps the baseline's runs and summary under `baseline`, next to
its own, and under `ratio` the ratio of its median wall time and peak RSS
to the baseline's, with the least and greatest ratio of one seed's pair.
Each rung (one size n)
runs the seeds n, n + 1, ... and reports per run the wall time of the
minimization, the child's peak RSS and the output's state count, and per
rung the median and maximum of wall time and peak RSS over its ok runs.
A pass stores its minimize rungs under `rungs` and, next to them, its
realize rungs under `realize_rungs` and its split rungs under `split_rungs`;
each kind has its own sizes n (SIZES), which `--sizes` replaces for all, and
a realize run reports the verdict in place of a state count.
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
SIZES = {"minimize": (20, 40, 80, 120, 200, 300, 400),
         "realize": (20, 40, 80, 120, 200, 300, 400), "split": (10, 20, 40, 60, 80)}
SYMBOLS = 3
REALIZE_SCALE = 80          # states of a realize run per unit of n: 1,600 to 32,000
LIMIT_BYTES = 3 << 30


def minimize_run(n, seed):
    """The wall time of one minimization and the output's state count."""
    import random
    from oracles import random_dpw
    from rerail.build import minimize_rerailing
    aut = random_dpw(random.Random(seed), n, SYMBOLS, 3)
    start = time.perf_counter()
    out = minimize_rerailing(aut)
    return time.perf_counter() - start, {"states": out.state_count}


def split_run(n, seed):
    """The wall time of one minimization of a split DPW and the output's state count."""
    import random
    from oracles import random_dpw, split_states
    from rerail.build import minimize_rerailing
    aut = split_states(random_dpw(random.Random(seed), n, SYMBOLS, 3))
    start = time.perf_counter()
    out = minimize_rerailing(aut)
    return time.perf_counter() - start, {"states": out.state_count}


def realize_run(n, seed):
    """The wall time and verdict of one realizability check."""
    import random
    from rerail.raf import Alphabet, AutomatonStructure
    from rerail.synthesis import IoAlphabet, realizability
    io = IoAlphabet(Alphabet(("r", "n")), Alphabet(("g", "w")))
    rng = random.Random(seed)
    states = REALIZE_SCALE * n
    spec = AutomatonStructure(io.combined, states,
                              [(q, x, rng.randrange(states), rng.randint(0, 3))
                               for q in range(states) for x in range(len(io.combined))], 0)
    start = time.perf_counter()
    verdict = realizability(spec, io)
    return time.perf_counter() - start, {"realizable": verdict}


RUNS = {"minimize": minimize_run, "realize": realize_run, "split": split_run}


def child(src, kind, n, seed):
    """Make one run of `kind` and print its outcome, with wall time, peak RSS
    and the run's result when it is ok, as JSON."""
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    try:
        (wall, result) = RUNS[kind](n, seed)
    except MemoryError:
        print(json.dumps({"outcome": "memory"}))
        return
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"outcome": "ok", "wall_s": round(wall, 4),
                      "peak_rss_mb": round(peak, 1), **result}))


def run_one(src, kind, n, seed, timeout):
    command = [sys.executable, os.path.abspath(__file__), "--child", kind, str(n), str(seed),
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
    raise RuntimeError("ladder %s child n=%d seed=%d failed:\n%s"
                       % (kind, n, seed, proc.stderr[-2000:]))


def rung_summary(runs):
    ok = [r for r in runs if r["outcome"] == "ok"]
    summary = {"ok": len(ok), "of": len(runs)}
    for field in ("wall_s", "peak_rss_mb"):
        values = [r[field] for r in ok]
        if values:
            summary[field] = {"median": statistics.median(values), "max": max(values)}
    return summary


def paired_ratio(runs, baseline):
    """Per field, the ratio of the median of `runs` to that of `baseline` and
    the least and greatest ratio of one seed's two runs, over the seeds
    where both runs are ok."""
    pairs = [(r, b) for r, b in zip(runs, baseline) if r["outcome"] == b["outcome"] == "ok"]
    ratio = {}
    for field in ("wall_s", "peak_rss_mb"):
        if pairs:
            each = [r[field] / b[field] for r, b in pairs]
            ratio[field] = {"median": round(statistics.median(r[field] for r, _b in pairs)
                                            / statistics.median(b[field] for _r, b in pairs), 4),
                            "min": round(min(each), 4), "max": round(max(each), 4)}
    return ratio


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="after", help="key of this pass in the output")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory the children import rerail from")
    parser.add_argument("--baseline", help="a second source directory, run in turn with --src")
    parser.add_argument("--sizes", type=int, nargs="+",
                        help="sizes n of every kind's rungs (default: each kind's own)")
    parser.add_argument("--seeds", type=int, default=3, help="seeds per rung")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per run")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_ladder.json"))
    parser.add_argument("--child", nargs=3, metavar=("KIND", "N", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.child:
        child(src, args.child[0], int(args.child[1]), int(args.child[2]))
        return 0
    trees = [src] if args.baseline is None else [src, os.path.abspath(args.baseline)]
    rungs = {kind: [] for kind in RUNS}
    for kind in RUNS:
        for n in args.sizes or SIZES[kind]:
            runs = [[] for _ in trees]          # runs[t]: the runs from trees[t]
            for k, seed in enumerate(range(n, n + args.seeds)):
                for t in (range(len(trees)) if k % 2 else reversed(range(len(trees)))):
                    run = {"seed": seed}
                    run.update(run_one(trees[t], kind, n, seed, args.timeout))
                    runs[t].append(run)
                    print("%s n=%d %s %s" % (kind, n, trees[t], json.dumps(run)),
                          file=sys.stderr, flush=True)
            rung = {"n": n, "runs": runs[0], **rung_summary(runs[0])}
            if args.baseline is not None:
                rung["baseline"] = {"runs": runs[1], **rung_summary(runs[1])}
                rung["ratio"] = paired_ratio(runs[0], runs[1])
            rungs[kind].append(rung)
    results = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            results = json.load(handle)
    results[args.label] = {
        "workload": "minimize_rerailing(random_dpw(Random(seed), n, %d, 3))" % SYMBOLS,
        "realize_workload": "realizability of a random deterministic 2x2 I/O spec with "
                            "%d * n states and colors 0..3, from Random(seed)" % REALIZE_SCALE,
        "split_workload": "minimize_rerailing of the split of random_dpw(Random(seed), n, "
                          "%d, 3): state q becomes 2q and 2q + 1" % SYMBOLS,
        "limit_mb": LIMIT_BYTES >> 20, "timeout_s": args.timeout,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "rungs": rungs["minimize"],
        "realize_rungs": rungs["realize"], "split_rungs": rungs["split"]}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
