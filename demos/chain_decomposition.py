"""Decomposing a rerailing automaton into a chain of co-Buchi automata.

Every rerailing automaton - hence every deterministic parity automaton -
splits into a descending chain of complete co-Buchi automata: level i
accepts the words whose best run reaches dominating color i or higher.  The
color a word gets from the chain is the greatest accepting level (0 if
none), and the word belongs to the language iff that color is even.  The
chain is the representation the minimization pipeline works on.
"""

from rerail import (Alphabet, AutomatonStructure, decompose_rerailing,
                    enumerate_lassos, format_lasso, member_parity_det,
                    membership_function, parse_lasso, serialize_chain)


def main():
    ab = Alphabet(("a", "b"))
    # Two states: staying on a keeps color 2; the first b drops to a state
    # where a is colored 0 and b is colored 1.  The language works out to
    # "infinitely many a".
    dpw = AutomatonStructure(ab, 2,
                             [(0, 0, 0, 2), (0, 1, 1, 1),
                              (1, 0, 1, 0), (1, 1, 1, 1)], 0)
    chain = decompose_rerailing(dpw)
    print("Input: 2-state parity automaton, colors 0..2.")
    print("Decomposition has %d co-Buchi levels (serialized form):" % len(chain.levels))
    print()
    print(serialize_chain(chain))

    # One membership function per level and one for the whole chain, each
    # bound once and then asked about many words.
    members = [membership_function(lvl, "cobuchi") for lvl in chain.levels]
    in_chain = membership_function(chain, "chain")
    print("Per-word chain colors (greatest accepting level; member iff even):")
    for text in (";a", ";b", ";a.b", "a;b", "b.b;a"):
        w = parse_lasso(text, ab)
        levels = [member(w) for member in members]
        color = max((i for i, accepts in enumerate(levels, start=1) if accepts), default=0)
        print("  %-8s levels accepting %s -> color %d, member %s"
              % (text, levels, color, in_chain(w)))
    print()

    diffs = [w for w in enumerate_lassos(2, 4, 4)
             if in_chain(w) != member_parity_det(dpw, w)]
    print("Chain language vs. the parity automaton on all lassos with stem and")
    print("cycle up to 4: %d disagreements" % len(diffs))
    for w in diffs[:3]:
        print("  differs at", format_lasso(w, ab))

    # The level languages fall weakly: whenever some level accepts, all
    # lower levels accept too.
    for w in enumerate_lassos(2, 3, 3):
        accepting = [member(w) for member in members]
        trimmed = [x for x in accepting if x]
        assert accepting[:len(trimmed)] == trimmed, (w, accepting)
    print("Level languages confirmed weakly falling on all 3/3 lassos.")


if __name__ == "__main__":
    main()
