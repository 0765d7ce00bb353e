"""Benchmark entry point: runs one workload in a child process and reports it.

    python3 perfbench/run.py --workload minimize --seed 1 --seconds 15 --trace 0

Run from the root of a source tree holding `src/rerail` and `tests/oracles.py`.
The child (measure.py) gets an address-space limit, set on the child only,
so a runaway job fails as a MemoryError instead of exhausting the machine.
The last line of standard output is the result object; the line before it
holds the run's metadata.  The exit code is 0 only when every job passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("minimize", "lasso_sweep", "realize", "parse")
ADDRESS_SPACE_BYTES = 3 << 30
CHILD_TIMEOUT_S = 170


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def git_commit(root):
    """HEAD of the tree's git repository, read from `.git`; None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one rerail benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/rerail/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.stderr.write("perfbench: %s not found under %s\n" % (needed, ROOT))
            return 2
    command = [sys.executable, os.path.join(HERE, "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               preexec_fn=_limit_address_space,
                               timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: workload %s timed out\n" % args.workload)
        return 3
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write("perfbench: workload %s exited with %d\n"
                         % (args.workload, child.returncode))
        return 3
    result = json.loads(lines[-1])
    meta = result["meta"]
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, git_commit=git_commit(ROOT),
                python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
                address_space_limit_bytes=ADDRESS_SPACE_BYTES)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
