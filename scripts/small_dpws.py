"""Minimize every small complete DPW and count the outputs larger than their input.

The inputs are the complete deterministic parity automata over `a b` with
initial state 0, `--states` N states and colours 0..`--top`, whose states
are all reachable, one per class under relabelling states 1..N-1 (the least
move table of its class, cells taken state by state, `a` before `b`).  Each
is minimized with `minimize_rerailing`.  The script prints one sha256 over
the `serialize_automaton` text of every output, in enumeration order, the
input count, the histogram of output sizes and the number of growers, the
outputs with more states than their input.  When there is a grower, the
first one follows as raf text.  It exits 0 either way:

    python scripts/small_dpws.py                      # 3 states, colours 0..3
    python scripts/small_dpws.py --top 2 --src ../parent/src

`--src` names the source directory `rerail` is imported from, so two
checkouts can be compared on the same inputs.  The default slice holds
884,736 inputs and took 14 minutes in one process (2-core machine,
Python 3.11.7).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NSYM = 2


def tables(states, top):
    """The least move table of each class with every state reachable from 0:
    one (dst, colour) per cell (q, x), in the order q * NSYM + x."""
    moves = list(itertools.product(range(states), range(top + 1)))
    relabellings = [(0,) + perm for perm in itertools.permutations(range(1, states))][1:]
    for table in itertools.product(moves, repeat=states * NSYM):
        seen = [0]
        for q in seen:
            for (d, _c) in table[q * NSYM:(q + 1) * NSYM]:
                if d not in seen:
                    seen.append(d)
        if len(seen) < states:
            continue
        if all(table <= _relabel(table, perm) for perm in relabellings):
            yield table


def _relabel(table, perm):
    """`table` with each state q renamed perm[q]."""
    out = [None] * len(table)
    for k, (d, c) in enumerate(table):
        out[perm[k // NSYM] * NSYM + k % NSYM] = (perm[d], c)
    return tuple(out)


def sweep(states, top):
    """(sha256 hex digest, input count, {output size: count}, growers, and
    (output size, raf text) of the first grower or None)."""
    from rerail.build import minimize_rerailing
    from rerail.raf import Alphabet, AutomatonStructure, serialize_automaton
    alphabet = Alphabet(("a", "b"))
    sha = hashlib.sha256()
    count, sizes, growers, first = 0, {}, 0, None
    for table in tables(states, top):
        moves = [(k // NSYM, k % NSYM, d, c) for k, (d, c) in enumerate(table)]
        aut = AutomatonStructure(alphabet, states, moves, 0)
        out = minimize_rerailing(aut)
        sha.update(serialize_automaton(out).encode())
        count += 1
        sizes[out.state_count] = sizes.get(out.state_count, 0) + 1
        if out.state_count > states:
            growers += 1
            first = first or (out.state_count, serialize_automaton(aut))
    return sha.hexdigest(), count, sizes, growers, first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=3, help="states per input")
    parser.add_argument("--top", type=int, default=3, help="highest colour")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source directory to import rerail from")
    args = parser.parse_args(argv)
    if args.states < 1 or args.top < 0:
        parser.error("need --states >= 1 and --top >= 0")
    sys.path[:0] = [args.src]
    sha, count, sizes, growers, first = sweep(args.states, args.top)
    print("%s %d inputs sizes %s %d growers" % (
        sha, count, " ".join("%d:%d" % item for item in sorted(sizes.items())), growers))
    if first is not None:
        print("first grower, %d -> %d states:" % (args.states, first[0]))
        print(first[1], end="")


if __name__ == "__main__":
    main()
