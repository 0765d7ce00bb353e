"""Realizability checking of rerailing-automaton specifications.

The combined alphabet pairs every input letter with every output letter.  A
specification is realizable when the system player wins the parity game in
which, from each automaton state, the system commits to an output, the
environment answers with an input (selecting a color class of successors),
and the nondeterminism inside the class is resolved by the system on odd
colors and by the environment on even ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .games import GameArena, solve
from .raf import Alphabet, complete_reachable_states


@dataclass(frozen=True)
class IoAlphabet:
    """An input/output split; combined symbols are named `<in>|<out>`.

    The combined alphabet is the full product in input-major order (the
    input component varies slowest).
    """

    inputs: Alphabet
    outputs: Alphabet

    def __post_init__(self):
        for symbol in tuple(self.inputs.symbols) + tuple(self.outputs.symbols):
            if "|" in symbol:
                raise ValueError("'|' is reserved for combined symbol names")

    @property
    def combined(self):
        return Alphabet(tuple("%s|%s" % (i, o)
                              for i in self.inputs.symbols for o in self.outputs.symbols))

    def combined_index(self, input_index, output_index):
        return input_index * len(self.outputs) + output_index


def build_realizability_game(r, io):
    """Parity game deciding realizability of the specification automaton.

    Vertices: automaton states (system), state/output pairs (environment),
    and color classes of successors — system-owned on odd colors,
    environment-owned on even ones.  Class vertices carry their color; all
    others the automaton's maximum color.  State q is vertex q; then, state
    by state and output by output, come the state/output vertex and each
    class its moves meet first, in symbol order and within a move in color
    order (the numbering `PINNED_ARENA_SHA256` in tests/test_synthesis.py
    fixes).  A class is one vertex per (members, color), whichever move
    leads to it.  A reachable state without a move on some symbol is a
    ValueError, for the environment could play it.  An unreachable one may
    lack moves: each missing move leads to the empty class {}:1, a system
    vertex looping on color 1, which the environment wins.
    """
    if r.alphabet != io.combined:
        raise ValueError("specification alphabet must be the combined "
                         "input/output alphabet (input-major, '<in>|<out>' names)")
    (n, top, nout, nsym) = (r.state_count, r.max_color, len(io.outputs), len(r.alphabet))
    # keys[v]: None for a state, q * nout + yi for a state/output vertex, the key of a class
    (owners, colors, rows, keys, ids) = ([0] * n, [top] * n, [None] * n, [None] * n, {})
    homogeneous = complete = True
    columns = [range(yi, nsym, nout) for yi in range(nout)]   # the symbols (xi, yi), input-major
    for (q, moves) in enumerate(r._succ):           # moves[x]: (dst, color) pairs sorted by dst
        rows[q] = out_ids = []
        for (yi, column) in enumerate(columns):
            out_ids.append(len(keys))
            owners.append(1)
            colors.append(top)
            keys.append(q * nout + yi)
            rows.append(row := [])
            for x in column:
                pairs = moves[x]
                if len(pairs) == 1:               # a one-member class is keyed by its pair
                    classes = pairs
                elif not pairs:                   # no move: the empty class
                    complete = False
                    classes = (((), 1),)
                else:
                    (dsts, cs) = zip(*pairs)
                    if cs.count(cs[0]) == len(cs):
                        classes = ((dsts, cs[0]),)
                    else:                         # a class per color, in color order
                        homogeneous = False
                        classes = [pairs[cs.index(c)] if cs.count(c) == 1 else
                                   (tuple([d for (d, e) in pairs if e == c]), c)
                                   for c in sorted(set(cs))]
                for key in classes:
                    class_id = ids.get(key)
                    if class_id is None:
                        class_id = ids[key] = len(keys)
                        (members, c) = key
                        owners.append(0 if c % 2 else 1)
                        colors.append(c)
                        keys.append(key)
                        rows.append([members] if type(members) is int
                                    else list(members) or [class_id])
                    row.append(class_id)
    if not complete:                      # the environment must not be denied a move
        complete_reachable_states(r)
    if not homogeneous:
        warnings.warn("specification is not color-homogeneous; the game is built anyway "
                      "but the construction is only proven for color-homogeneous automata")

    def name(v):
        key = keys[v]
        if key is None:
            return r.state_name(v)
        if type(key) is int:
            return "%s / %s" % (r.state_name(key // nout), io.outputs.symbols[key % nout])
        members = key[:1] if type(key[0]) is int else key[0]
        return "{%s}:%d" % (",".join(r.state_name(m) for m in members), key[1])

    return GameArena(owners, colors, rows, r.initial, name)


def realizability(r, io):
    """Whether some output strategy keeps every resulting word in the language."""
    arena = build_realizability_game(r, io)
    w0, _w1 = solve(arena)
    return arena.initial in w0
