"""Rerailing automata over infinite words.

A rerailing automaton reads an omega-word with a colored, complete,
nondeterministic transition structure and accepts iff the maximum over
all runs of the dominating color (the least color seen infinitely often)
is even.  This package decides lasso membership under several acceptance
semantics, decomposes a rerailing automaton into a chain of co-Buchi
automata, rebuilds a minimal color-homogeneous automaton from such a
chain, checks the defining rerailing property on bounded lassos, and
decides realizability of a specification split into inputs and outputs.
"""

from .build import (RerailingVerdict, build_minimal, check_color_homogeneous,
                    minimize_rerailing, verify_rerailing_bounded)
from .cobuchi import (Chain, CoBuchiAutomaton, Rlta, build_rlta_chain,
                      decompose_rerailing, inclusion_table, parse_chain,
                      residual_tracking_single, serialize_chain)
from .floating import (FloatingAutomaton, FloatingChain, minimize_floating,
                       parse_floating_chain, residualize, residualize_chain,
                       serialize_floating_chain)
from .games import GameArena, solve
from .lasso import (LassoWord, bounded_equivalence, enumerate_lassos,
                    format_lasso, member_cobuchi, member_parity_det,
                    member_parity_exists, member_rerailing,
                    membership_function, parse_lasso)
from .raf import (Alphabet, AutomatonStructure, RafError, parse_automaton,
                  serialize_automaton, validate_complete)
from .synthesis import IoAlphabet, build_realizability_game, realizability

__all__ = [
    "Alphabet", "AutomatonStructure", "RafError",
    "parse_automaton", "serialize_automaton", "validate_complete",
    "LassoWord", "parse_lasso", "format_lasso", "enumerate_lassos",
    "member_rerailing", "member_parity_exists", "member_parity_det",
    "member_cobuchi", "membership_function", "bounded_equivalence",
    "GameArena", "solve",
    "CoBuchiAutomaton", "Chain", "decompose_rerailing", "parse_chain", "serialize_chain",
    "Rlta", "residual_tracking_single", "build_rlta_chain", "inclusion_table",
    "FloatingAutomaton", "FloatingChain", "residualize", "residualize_chain",
    "minimize_floating", "parse_floating_chain", "serialize_floating_chain",
    "build_minimal", "minimize_rerailing", "check_color_homogeneous",
    "RerailingVerdict", "verify_rerailing_bounded",
    "IoAlphabet", "build_realizability_game", "realizability",
]

__version__ = "0.1.0"
