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

from .games import ArenaBuilder, solve
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
    others the automaton's maximum color.  A reachable state without a move
    on some symbol is a ValueError, for the environment could play it.  An
    unreachable one may lack moves: each missing move leads to the empty
    class {}:1, a system vertex looping on color 1, which the environment
    wins.
    """
    if r.alphabet != io.combined:
        raise ValueError("specification alphabet must be the combined "
                         "input/output alphabet (input-major, '<in>|<out>' names)")
    (top, nout, nsym) = (r.max_color, len(io.outputs), len(r.alphabet))

    def name(key):
        if key[0] == "q":
            return r.state_name(key[1])
        if key[0] == "y":
            return "%s / %s" % (r.state_name(key[1]), io.outputs.symbols[key[2]])
        (members, c) = key
        return "{%s}:%d" % (",".join(r.state_name(m) for m in members), c)

    builder = ArenaBuilder()
    fresh, ids, edges, successors = builder.fresh, builder.ids, builder.edges, r.successors
    for q in range(r.state_count):
        fresh(("q", q), 0, top)           # state q is vertex q
    homogeneous = complete = True
    for q in range(r.state_count):
        for yi in range(nout):
            out_id = fresh(("y", q, yi), 1, top)
            edges[q].append(out_id)
            row = edges[out_id]
            for x in range(yi, nsym, nout):       # the symbols (xi, yi), input-major
                pairs = successors(q, x)          # sorted by target
                if len(pairs) == 1:
                    ((dst, c),) = pairs
                    classes = (((dst,), c),)
                elif not pairs:                   # no move: the empty class
                    complete = False
                    classes = (((), 1),)
                else:                             # a class (members, color) per color
                    colors = sorted({c for (_dst, c) in pairs})
                    homogeneous = homogeneous and len(colors) < 2
                    classes = [(tuple([d for (d, e) in pairs if e == c]), c) for c in colors]
                for key in classes:
                    class_id = ids.get(key)
                    if class_id is None:
                        (members, c) = key
                        class_id = ids[key] = fresh(key, 0 if c % 2 else 1, c)
                        edges[class_id].extend(members or [class_id])
                    row.append(class_id)
    if not complete:                      # the environment must not be denied a move
        complete_reachable_states(r)
    if not homogeneous:
        warnings.warn("specification is not color-homogeneous; the game is built anyway "
                      "but the construction is only proven for color-homogeneous automata")
    return builder.arena(initial=r.initial, name=name)


def realizability(r, io):
    """Whether some output strategy keeps every resulting word in the language."""
    arena = build_realizability_game(r, io)
    w0, _w1 = solve(arena)
    return arena.initial in w0
