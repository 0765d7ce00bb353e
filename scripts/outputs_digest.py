"""One sha256 over the `minimize_rerailing` outputs of N seeded DPWs.

Input k is built from `random.Random(k)` with 4 + k % 4 states, 2 symbols
and top colour 2 + k // 2 % 3; even k come from `random_dpw` (tests/oracles.py),
odd k from `complete_dpw` (perfbench/workloads.py).  The digest covers the
`serialize_automaton` text of every output, in input order; the script
prints it with the total output state count:

    python scripts/outputs_digest.py --count 3000
    python scripts/outputs_digest.py --count 3000 --src ../parent/src

`--src` names the source directory `rerail` is imported from, so two
checkouts can be compared on the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(count):
    """(sha256 hex digest, total output states) over the first `count` inputs."""
    from oracles import random_dpw
    from perfbench.workloads import complete_dpw
    from rerail.build import minimize_rerailing
    from rerail.raf import Alphabet, serialize_automaton
    alphabet = Alphabet(("a", "b"))
    sha = hashlib.sha256()
    states = 0
    for k in range(count):
        rng = random.Random(k)
        n, top = 4 + k % 4, 2 + k // 2 % 3
        aut = (random_dpw(rng, n, 2, top) if k % 2 == 0
               else complete_dpw(rng, n, alphabet, top))
        out = minimize_rerailing(aut)
        sha.update(serialize_automaton(out).encode())
        states += out.state_count
    return sha.hexdigest(), states


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=3000, help="number of inputs")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source directory to import rerail from")
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, os.path.join(ROOT, "tests"), ROOT]
    sha, states = digest(args.count)
    print("%s %d inputs %d states" % (sha, args.count, states))


if __name__ == "__main__":
    main()
