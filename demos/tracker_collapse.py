"""Residual trackers of chain levels, and why the joint tracker can collapse.

Each co-Buchi level of a chain distinguishes finite prefixes by the residual
language they leave.  The chain as a whole only needs to distinguish
prefixes by the residual of the CHAIN language, which can be far coarser
than any single level: here two identical three-residual levels describe a
universal language, so the joint tracker is a single state and the minimal
rerailing automaton built from the chain has one state as well.
"""

from rerail import (build_minimal, build_rlta_chain, enumerate_lassos,
                    member_rerailing, membership_function, parse_chain,
                    residual_tracking_single, residualize_chain)

CHAIN_TEXT = """\
cocoa 1
count 2
automaton 1
alphabet a b
states 3
initial 0
trans 0 a 1 1
trans 0 b 2 1
trans 1 a 1 2
trans 1 b 1 2
trans 2 a 2 1
trans 2 b 2 1
automaton 2
alphabet a b
states 3
initial 0
trans 0 a 1 1
trans 0 b 2 1
trans 1 a 1 2
trans 1 b 1 2
trans 2 a 2 1
trans 2 b 2 1
"""


def main():
    chain = parse_chain(CHAIN_TEXT)
    print("Chain of %d identical co-Buchi levels over {a,b}." % len(chain.levels))
    print("Each level accepts exactly the words starting with a.")
    print()

    for idx, level in enumerate(chain.levels, start=1):
        tracker, state_map = residual_tracking_single(level)
        print("Level %d alone tracks %d residuals (state -> class %s)."
              % (idx, tracker.state_count, state_map))

    joint, _classes = build_rlta_chain(chain)
    print("Joint tracker of the chain: %d state(s)." % joint.state_count)
    print()

    print("Why: a word starting with a gets chain color 2, anything else")
    print("color 0 - both even, so every word is in the language and all")
    print("prefixes share one residual.")
    in_chain = membership_function(chain, "chain")
    assert all(in_chain(w) for w in enumerate_lassos(2, 3, 3))
    print("Universality confirmed on all lassos with stem and cycle up to 3.")
    print()

    fchain = residualize_chain(chain)
    built = build_minimal(fchain)
    print("Minimal rerailing automaton for the chain: %d state(s), transitions:"
          % built.state_count)
    for (src, sym, dst, color) in built.transitions:
        print("  %s -%s:%d-> %s" % (built.state_name(src),
                                    built.alphabet.symbols[sym], color,
                                    built.state_name(dst)))
    assert all(member_rerailing(built, w) for w in enumerate_lassos(2, 3, 3))
    print("The six chain states melt down to one; the language never needed them.")


if __name__ == "__main__":
    main()
