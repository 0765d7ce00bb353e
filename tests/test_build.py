import hashlib
import itertools
import random

import pytest

from rerail import build
from rerail.build import (BuildState, build_minimal, check_color_homogeneous,
                          minimize_rerailing, recurse_build, verify_rerailing_bounded)
from rerail.cobuchi import Rlta, decompose_rerailing
from rerail.floating import FloatingAutomaton, level0_floating, residualize_chain
from rerail.lasso import (LassoWord, bounded_equivalence, enumerate_lassos,
                          member_rerailing, membership_function)
from rerail.raf import (Alphabet, AutomatonStructure, parse_automaton,
                        serialize_automaton, validate_complete)

import oracles
from conftest import load_text

A1 = Alphabet(("a",))
AB = Alphabet(("a", "b"))

EXPECTED_NAMES = {"1,3,6", "1,4,6", "2,3/4,6", "2,5,6", "2,5,7"}

# per-state outgoing colors of the minimal automaton for the three-level chain
EXPECTED_SIGNATURE = {
    "1,3,6": {"a": 2, "b": 2, "c": 3, "d": 0},
    "1,4,6": {"a": 1, "b": 2, "c": 3, "d": 0},
    "2,3/4,6": {"a": 0, "b": 2, "c": 3, "d": 1},
    "2,5,6": {"a": 0, "b": 1, "c": 3, "d": 2},
    "2,5,7": {"a": 0, "b": 1, "c": 2, "d": 3},
}


def test_build_state_naming():
    acc = BuildState()
    assert acc.new_state("") == 0
    assert acc.names[0] == "·"
    assert acc.new_state("x") == 1
    assert acc.new_state("x") == 2
    assert acc.new_state("x") == 3
    assert acc.names[1:] == ["x", "x~2", "x~3"]


def test_build_state_transitions(uniform_flochain):
    # one (dst, color) list per state and symbol, each move into a state that exists
    acc = BuildState()
    assert acc.moves == {}
    recurse_build(level0_floating(uniform_flochain.rlta), 1, uniform_flochain, acc)
    n, nsym = len(acc.names), len(uniform_flochain.alphabet)
    assert sorted(acc.moves) == [(q, x) for q in range(n) for x in range(nsym)]
    for targets in acc.moves.values():
        assert targets and len({c for (_d, c) in targets}) == 1
        assert all(0 <= d < n for (d, _c) in targets)
        assert len({d for (d, _c) in targets}) == len(targets)


def test_check_color_homogeneous(minimal5, hd5):
    assert check_color_homogeneous(minimal5)
    assert check_color_homogeneous(hd5)
    mixed = AutomatonStructure(A1, 2, [(0, 0, 0, 2), (0, 0, 1, 1), (1, 0, 1, 1)], 0)
    assert not check_color_homogeneous(mixed)


def test_build_minimal_three_level_chain(uniform_flochain):
    aut = build_minimal(uniform_flochain)
    assert aut.state_count == 5
    assert aut.max_color == 3
    assert validate_complete(aut) == []
    assert check_color_homogeneous(aut)
    names = {aut.state_name(q) for q in range(5)}
    assert names == EXPECTED_NAMES
    assert aut.state_name(aut.initial) == "1,3,6"
    for q in range(5):
        signature = {}
        for x, sym in enumerate(aut.alphabet.symbols):
            colors = {c for (_dst, c) in aut.successors(q, x)}
            assert len(colors) == 1
            signature[sym] = colors.pop()
        assert signature == EXPECTED_SIGNATURE[aut.state_name(q)]
    multiset = {}
    for (_s, _x, _d, c) in aut.transitions:
        multiset[c] = multiset.get(c, 0) + 1
    assert multiset == {0: 25, 1: 11, 2: 8, 3: 5}


def test_build_minimal_language(uniform_flochain):
    aut = build_minimal(uniform_flochain)
    in_flochain = membership_function(uniform_flochain, "floating")
    for w in enumerate_lassos(4, 2, 2):
        assert member_rerailing(aut, w) == in_flochain(w)


def test_built_vs_drawn_variant(uniform_flochain, minimal5):
    # The hand-drawn 47-transition variant in the data directory tracks the
    # construction output on every short lasso but departs on cycles of
    # length three; the chain semantics sides with the construction there.
    aut = build_minimal(uniform_flochain)
    assert bounded_equivalence(aut, "rerailing", minimal5, "rerailing", 2, 2) is None
    diff = bounded_equivalence(aut, "rerailing", minimal5, "rerailing", 3, 3)
    assert diff == LassoWord((), (0, 1, 2))
    chain_says = membership_function(uniform_flochain, "floating")(diff)
    assert member_rerailing(aut, diff) == chain_says


def test_build_requires_matching_tracker(uniform_flochain):
    foreign = Rlta(Alphabet(("a", "b", "c", "d")), 2,
                   [(q, x, q if x < 2 else 1 - q, 0) for q in range(2) for x in range(4)], 0)
    with pytest.raises(ValueError):
        recurse_build(level0_floating(foreign), 1, uniform_flochain, BuildState())


def test_recursion_depth_guard(uniform_flochain):
    ctx = level0_floating(uniform_flochain.rlta)
    with pytest.raises(RuntimeError, match="weakly falling"):
        recurse_build(ctx, 5, uniform_flochain, BuildState())


def test_rebuild_builds_one_floating_automaton_per_call(monkeypatch):
    # the tables of a recursion step become a checked automaton only as the
    # context of a call: level 0 for the top call, one SCC for every other
    rng = random.Random(23)
    chains = [residualize_chain(decompose_rerailing(oracles.random_dpw(rng, 3 + k % 5, 2, 3)))
              for k in range(30)]
    counts = {"built": 0, "calls": 0}
    init, recurse = FloatingAutomaton.__init__, build.recurse_build

    def counting_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counting_recurse(*args):
        counts["calls"] += 1
        return recurse(*args)

    monkeypatch.setattr(FloatingAutomaton, "__init__", counting_init)
    monkeypatch.setattr(build, "recurse_build", counting_recurse)
    for fchain in chains:
        build_minimal(fchain)
    assert counts["calls"] > 2 * len(chains)
    assert counts["built"] == counts["calls"]


def test_rebuild_builds_products_only_with_same_parity_levels(monkeypatch):
    """A call at color i builds the context's product with the levels j = i mod 2
    alone, whose states it collects; an opposite-parity level cuts against its
    own tables."""
    rng = random.Random(23)
    dpws = [oracles.random_dpw(rng, 3 + k % 5, 2, 3) for k in range(30)]
    dpws += [oracles.split_states(oracles.random_dpw(random.Random(s), 3 + s % 4, 2, 1 + s % 4))
             for s in range(6)]
    chains = [residualize_chain(decompose_rerailing(aut)) for aut in dpws]
    frames, calls = [], []
    product_tables, recurse = build.product_tables, build.recurse_build

    def counting_products(*args):
        frames[-1][2] += 1
        return product_tables(*args)

    def counting_recurse(ctx, i, chain, acc):
        frames.append([i, len(chain.levels), 0])
        try:
            return recurse(ctx, i, chain, acc)
        finally:
            calls.append(tuple(frames.pop()))

    monkeypatch.setattr(build, "product_tables", counting_products)
    monkeypatch.setattr(build, "recurse_build", counting_recurse)
    for fchain in chains:
        build_minimal(fchain)
    assert len(calls) > 2 * len(chains)
    assert all(built == sum(j % 2 == i % 2 for j in range(1, n + 1)) for (i, n, built) in calls)
    assert sum(built < n for (i, n, built) in calls) > len(chains)


def test_minimize_universal_and_empty():
    universal = AutomatonStructure(AB, 2, [(0, 0, 1, 0), (0, 1, 0, 0),
                                           (1, 0, 0, 0), (1, 1, 1, 0)], 0)
    out = minimize_rerailing(universal)
    assert out.state_count == 1
    assert out.colors == (0,)
    empty = AutomatonStructure(AB, 2, [(0, 0, 1, 1), (0, 1, 0, 1),
                                       (1, 0, 0, 1), (1, 1, 1, 1)], 0)
    out = minimize_rerailing(empty)
    assert out.state_count == 1
    assert out.colors == (1,)


def test_minimize_bridged_level_scc():
    # The b-transition bridges the two components of the level-1 accepting
    # part, so the raw decomposition lacks the normalized shape the recursive
    # construction leans on.  The language is "infinitely many a"; its
    # minimal automaton is a single state with an even color on a and an odd
    # one on b.
    aut = AutomatonStructure(AB, 2, [(0, 0, 0, 2), (0, 1, 1, 1),
                                     (1, 0, 1, 0), (1, 1, 1, 1)], 0)
    out = minimize_rerailing(aut)
    assert out.state_count == 1
    colors = {out.alphabet.symbols[x]: c for (_q, x, _d, c) in out.transitions}
    assert colors["a"] % 2 == 0
    assert colors["b"] % 2 == 1
    for w in enumerate_lassos(2, 4, 4):
        assert member_rerailing(out, w) == oracles.member_parity_det(aut, w)


def test_minimize_random_deterministic():
    rng = random.Random(41)
    for _ in range(10):
        aut = oracles.random_dpw(rng, 2 + rng.randrange(4), 2, 3)
        out = minimize_rerailing(aut)
        assert out.state_count <= aut.state_count
        assert validate_complete(out) == []
        assert check_color_homogeneous(out)
        assert bounded_equivalence(out, "rerailing", aut, "parity-det", 3, 3) is None


# sha256 of the concatenated serialize_automaton texts of the minimized split DPWs
SPLIT_OUTPUTS_DIGEST = "78b2f0809b6b4a31dfad09fcd08c1d057a5f5378c6bac61a95638b2af8220bc6"


def test_minimize_split_dpws():
    """Levels with split states are nondeterministic, so their letter games are
    parity games (`cobuchi._arena_winners`): the split of a DPW keeps its
    language and minimizes to as many states as the DPW does."""
    digest = hashlib.sha256()
    for s in range(60):
        aut = oracles.random_dpw(random.Random(s), 3 + s % 4, 2, 1 + s % 4)
        out = minimize_rerailing(oracles.split_states(aut))
        assert out.state_count == minimize_rerailing(aut).state_count, s
        assert bounded_equivalence(out, "rerailing", aut, "parity-det", 3, 3) is None, s
        digest.update(serialize_automaton(out).encode())
    assert digest.hexdigest() == SPLIT_OUTPUTS_DIGEST


# A deterministic parity automaton is itself a rerailing automaton, so the
# minimal one has at most 5 states; minimize_rerailing returns 7, with the
# language kept.  Found by the perfbench `minimize` workload, seed 103.
NON_MINIMAL_DPW = """raf 1
alphabet a b
states 5
initial 0
trans 0 a 2 4
trans 0 b 1 1
trans 1 a 2 0
trans 1 b 0 6
trans 2 a 2 0
trans 2 b 3 6
trans 3 a 2 2
trans 3 b 4 5
trans 4 a 1 3
trans 4 b 3 3
"""


@pytest.mark.xfail(strict=True, reason="known defect: 7 states for a 5-state DPW")
def test_minimize_never_grows_seed103_dpw():
    aut = parse_automaton(NON_MINIMAL_DPW)
    assert minimize_rerailing(aut).state_count <= aut.state_count


# Two more DPWs that minimize_rerailing grows, both to 8 states with the
# language kept: perfbench's `complete_dpw(Random(964), 5, ab, 5)` and
# `complete_dpw(Random(998), 4, ab, 6)`.
GROWING_DPWS = {
    "complete964": """raf 1
alphabet a b
states 5
initial 0
trans 0 a 3 1
trans 0 b 1 4
trans 1 a 4 3
trans 1 b 2 3
trans 2 a 0 0
trans 2 b 4 2
trans 3 a 0 3
trans 3 b 4 2
trans 4 a 0 5
trans 4 b 4 3
""",
    "complete998": """raf 1
alphabet a b
states 4
initial 0
trans 0 a 1 6
trans 0 b 1 1
trans 1 a 2 6
trans 1 b 1 6
trans 2 a 0 4
trans 2 b 3 3
trans 3 a 2 6
trans 3 b 2 2
""",
}


@pytest.mark.xfail(strict=True, reason="known defect: 8 states for a 4- or 5-state DPW")
@pytest.mark.parametrize("name", sorted(GROWING_DPWS))
def test_minimize_never_grows_complete_dpw(name):
    aut = parse_automaton(GROWING_DPWS[name])
    assert minimize_rerailing(aut).state_count <= aut.state_count


# A DPW of the smallest size that minimize_rerailing grows: 3 states (colors
# 0..3) become 4, with no difference within 4/4 bounded equivalence.
GROWING_THREE_STATE_DPW = """raf 1
alphabet a b
states 3
initial 0
trans 0 a 0 0
trans 0 b 1 1
trans 1 a 0 1
trans 1 b 2 3
trans 2 a 1 3
trans 2 b 2 2
"""


@pytest.mark.xfail(strict=True, reason="known defect: 4 states for a 3-state DPW")
def test_minimize_never_grows_three_state_dpw():
    aut = parse_automaton(GROWING_THREE_STATE_DPW)
    assert minimize_rerailing(aut).state_count <= aut.state_count


def test_minimize_never_grows_any_two_state_dpw():
    """Every complete DPW with 2 states over a b, colors 0..3 and initial state 0:
    4,096 automata, enumerated without a seed.  No output has more states than
    its input has reachable ones; the histogram of output sizes is pinned."""
    cells = [(q, x) for q in range(2) for x in range(2)]
    sizes = {}
    for moves in itertools.product(itertools.product(range(2), range(4)), repeat=len(cells)):
        aut = AutomatonStructure(AB, 2, [(q, x, d, c) for (q, x), (d, c) in zip(cells, moves)], 0)
        out = minimize_rerailing(aut)
        assert out.state_count <= len(aut.reachable_states())
        sizes[out.state_count] = sizes.get(out.state_count, 0) + 1
    assert sizes == {1: 2824, 2: 1272}


def test_minimize_idempotent():
    # State names record where each state came from, so they drift across
    # repeated runs; the structure itself must be reproduced exactly.
    rng = random.Random(42)
    for _ in range(5):
        aut = oracles.random_dpw(rng, 2 + rng.randrange(4), 2, 3)
        out = minimize_rerailing(aut)
        again = minimize_rerailing(out)
        assert again.state_count == out.state_count
        assert again.initial == out.initial
        assert sorted(again.transitions) == sorted(out.transitions)


def test_minimize_requires_complete():
    partial = AutomatonStructure(AB, 1, [(0, 0, 0, 0)], 0)
    with pytest.raises(ValueError):
        minimize_rerailing(partial)
    with pytest.raises(ValueError):
        verify_rerailing_bounded(partial, 2, 2)


def test_minimize_color_inhomogeneous_input():
    aut = parse_automaton(load_text("inhomogeneous3.raf"))
    assert not check_color_homogeneous(aut)
    small = minimize_rerailing(aut)
    assert small.state_count <= 3
    assert verify_rerailing_bounded(small, 5, 5) == []
    assert bounded_equivalence(small, "rerailing", aut, "rerailing", 6, 6) is None


def test_minimize_trims_unreachable_states():
    """Unreachable states are dropped before decomposing, not refused."""
    example = parse_automaton("raf 1\nalphabet a b\nstates 2\ninitial 0\ntrans 0 a 0 0\n"
                              "trans 0 b 0 1\ntrans 1 a 1 0\ntrans 1 b 1 0\n")
    inputs = [example]
    rng = random.Random(11)
    for _ in range(400):
        aut = oracles.random_complete_automaton(rng, 2 + rng.randrange(4), 2,
                                                1 + rng.randrange(4))
        if (len(aut.reachable_states()) < aut.state_count
                and not verify_rerailing_bounded(aut, 4, 4)):
            inputs.append(aut)
    assert len(inputs) == 25
    for aut in inputs:
        small = minimize_rerailing(aut)
        assert bounded_equivalence(small, "rerailing", aut, "rerailing", 4, 4) is None
    assert minimize_rerailing(example).state_count == 1
    partial = AutomatonStructure(AB, 3, [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 2, 0), (2, 1, 2, 1)],
                                 0, state_names={0: "kept", 2: "dropped"})
    (level,) = decompose_rerailing(partial).levels      # states 1 and 2 lack moves
    assert (level.state_count, level.state_names) == (1, {0: "kept"})
    small = minimize_rerailing(partial)
    assert bounded_equivalence(small, "rerailing", example, "rerailing", 4, 4) is None
    with pytest.raises(ValueError, match=r"incomplete at \[\(1, 1\)\]"):
        minimize_rerailing(AutomatonStructure(AB, 2, [(0, 0, 1, 0), (0, 1, 0, 1),
                                                      (1, 0, 1, 0)], 0))


def test_verify_passes_on_construction_output(hd5, uniform_flochain):
    assert verify_rerailing_bounded(hd5, 2, 2) == []
    assert verify_rerailing_bounded(build_minimal(uniform_flochain), 2, 2) == []


def test_verify_reports_parity_mismatch():
    aut = AutomatonStructure(A1, 3, [(0, 0, 1, 0), (0, 0, 2, 0),
                                     (1, 0, 1, 2), (2, 0, 2, 1)], 0)
    failures = verify_rerailing_bounded(aut, 1, 1)
    assert len(failures) == 1
    verdict = failures[0]
    assert verdict.member
    assert ((2, 0), 1, "parity-mismatch") in verdict.violations


def test_verify_reports_missing_uniform_successor():
    aut = AutomatonStructure(A1, 2, [(0, 0, 0, 1), (0, 0, 1, 2),
                                     (1, 0, 0, 1), (1, 0, 1, 2)], 0)
    failures = verify_rerailing_bounded(aut, 0, 1)
    assert failures
    reasons = {reason for v in failures for (_n, _d, reason) in v.violations}
    assert reasons == {"no-uniform-successor"}


def test_verify_reports_color_decrease():
    aut = AutomatonStructure(A1, 2, [(0, 0, 0, 2), (0, 0, 1, 0), (1, 0, 1, 0)], 0)
    failures = verify_rerailing_bounded(aut, 0, 1)
    assert failures
    reasons = {reason for v in failures for (_n, _d, reason) in v.violations}
    assert "color-decrease" in reasons


def test_verify_matches_violation_oracle():
    """Every verdict equals the oracle's, violation for violation and in order."""
    rng = random.Random(31)
    reasons = set()
    for k in range(60):
        aut = oracles.random_complete_automaton(rng, 1 + rng.randrange(4), 2,
                                                1 + rng.randrange(5), fanout=1 + k % 3)
        expected = []
        for w in enumerate_lassos(2, 2, 2):
            violations = oracles.rerailing_violations(aut, w)
            if violations:
                expected.append((w, oracles.member_rerailing(aut, w), tuple(violations)))
        got = [(v.lasso, v.member, v.violations) for v in verify_rerailing_bounded(aut, 2, 2)]
        assert got == expected
        reasons |= {reason for (_w, _m, vs) in expected for (_n, _d, reason) in vs}
    assert reasons == {"no-uniform-successor", "parity-mismatch", "color-decrease"}


def test_verify_matches_violation_oracle_on_rotated_cycles():
    """Cycles up to length 4 enter their class product at every rotation offset.

    At cycle bound 2 a cycle and its rotation give mirror-image offsets, so
    only longer cycles tell a wrong rotation mapping from the right one.
    """
    rng = random.Random(47)
    for k in range(20):
        aut = oracles.random_complete_automaton(rng, 2 + rng.randrange(3), 2,
                                                1 + rng.randrange(4), fanout=1 + k % 2)
        expected = []
        for w in enumerate_lassos(2, 2, 4):
            violations = oracles.rerailing_violations(aut, w)
            if violations:
                expected.append((w, oracles.member_rerailing(aut, w), tuple(violations)))
        got = [(v.lasso, v.member, v.violations) for v in verify_rerailing_bounded(aut, 2, 4)]
        assert got == expected


def _violations_by_lasso(aut, stem_bound, cycle_bound):
    """The oracle's (lasso, violations) for each lasso within the bounds."""
    return [(w, oracles.rerailing_violations(aut, w))
            for w in enumerate_lassos(len(aut.alphabet), stem_bound, cycle_bound)]


def test_stem_violations_come_with_cycle_violations():
    """The oracle alone: a lasso violating at a stem node also violates at a cycle node.

    verify_rerailing_bounded skips the stem of every lasso whose cycle part
    is clean, which is exact only if this holds.
    """
    rng = random.Random(53)
    at_stem = 0
    for k in range(40):
        aut = oracles.random_complete_automaton(rng, 2 + rng.randrange(3), 2,
                                                1 + rng.randrange(4), fanout=1 + k % 3)
        for (w, violations) in _violations_by_lasso(aut, 3, 3):
            in_stem = [pos < len(w.stem) for ((_q, pos), _d, _reason) in violations]
            if any(in_stem):
                at_stem += 1
                assert not all(in_stem), (k, w)
    assert at_stem >= 1000


def test_verify_matches_violation_oracle_at_stem_bound_3():
    """Stems up to length 3, so many stems share a cycle and a reached set.

    Some cycle meets both a reached set whose cycle part violates and one
    whose cycle part is clean, so both outcomes of the per-key check occur
    on one cycle.
    """
    rng = random.Random(59)
    mixed = 0
    for k in range(24):
        aut = oracles.random_complete_automaton(rng, 2 + rng.randrange(3), 2,
                                                1 + rng.randrange(4), fanout=2 + k % 2)
        expected = []
        outcomes = {}
        for (w, violations) in _violations_by_lasso(aut, 3, 3):
            reached = {aut.initial}
            for x in w.stem:
                reached = {d for q in reached for d in aut.successor_states(q, x)}
            outcomes.setdefault(w.cycle, {})[frozenset(reached)] = bool(violations)
            if violations:
                expected.append((w, oracles.member_rerailing(aut, w), tuple(violations)))
        got = [(v.lasso, v.member, v.violations) for v in verify_rerailing_bounded(aut, 3, 3)]
        assert got == expected, k
        mixed += any(len(set(dirty.values())) == 2 for dirty in outcomes.values())
    assert mixed >= 5


def test_verify_one_cycle_class_meets_keys_of_both_verdicts():
    """On the class of a^omega, keys of both verdicts, each clean and failing.

    The stems b, ab, aab and aaab lead into four parts whose runs over a^omega
    are clean and accepting, clean and rejecting, failing and accepting, and
    failing and rejecting.  verify_rerailing_bounded decides each key by a
    backward walk of the class product per verdict, so the two walks must
    tell all four apart.
    """
    moves = {0: [(1, 0)], 1: [(2, 0)], 2: [(3, 0)], 3: [(3, 0)],    # a a a a...
             4: [(4, 0)], 5: [(5, 1)],                              # clean
             6: [(7, 0), (8, 0)], 7: [(7, 2)], 8: [(8, 1)],         # accepting, failing
             9: [(10, 0), (11, 0)], 10: [(10, 3)], 11: [(11, 2)],   # rejecting, failing
             12: [(12, 0)]}
    b_moves = {0: 4, 1: 5, 2: 6, 3: 9}
    transitions = [(q, 0, d, c) for q, out in moves.items() for (d, c) in out]
    transitions += [(q, 1, b_moves.get(q, 12), 0) for q in moves]
    aut = AutomatonStructure(AB, 13, transitions, 0)
    expected = []
    outcomes = set()
    for (w, violations) in _violations_by_lasso(aut, 4, 2):
        member = oracles.member_rerailing(aut, w)
        if w.cycle == (0,):
            outcomes.add((member, bool(violations)))
        if violations:
            expected.append((w, member, tuple(violations)))
    assert outcomes == {(True, False), (False, False), (True, True), (False, True)}
    got = [(v.lasso, v.member, v.violations) for v in verify_rerailing_bounded(aut, 4, 2)]
    assert got == expected


def test_verify_results_digest():
    """verify_rerailing_bounded keeps its results, verdict for verdict, on a fixed corpus."""
    rng = random.Random(15)
    digest = hashlib.sha256()
    failing = 0
    for k in range(60):
        aut = oracles.random_complete_automaton(rng, 2 + rng.randrange(4), 2 + k % 2,
                                                1 + rng.randrange(4), fanout=1 + k % 3)
        failures = verify_rerailing_bounded(aut, 3, 3)
        failing += bool(failures)
        digest.update(repr(failures).encode())
    assert failing == 40
    assert digest.hexdigest() == (
        "e5ea3093011dd571c22e21fd0e044cbc19d3bc52e0dd0e03fece009a546c2191")


def test_verify_ignores_incomplete_unreachable_states():
    """Like decompose_rerailing, verify only needs the reachable states complete."""
    example = parse_automaton("raf 1\nalphabet a b\nstates 2\ninitial 0\ntrans 0 a 0 0\n"
                              "trans 0 b 0 1\ntrans 1 a 1 0\ntrans 1 b 1 0\n")
    partial = AutomatonStructure(AB, 3, [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 2, 0), (2, 1, 2, 1)],
                                 0)                     # states 1 and 2 lack moves
    assert verify_rerailing_bounded(partial, 3, 3) == verify_rerailing_bounded(example, 3, 3) == []
    odd = AutomatonStructure(AB, 2, [(0, 0, 0, 1), (0, 0, 1, 2), (0, 1, 0, 1),
                                     (1, 0, 1, 2), (1, 1, 1, 2)], 0)
    padded = AutomatonStructure(AB, 3, list(odd.transitions) + [(2, 0, 0, 2)], 0)
    assert verify_rerailing_bounded(padded, 3, 3) == verify_rerailing_bounded(odd, 3, 3) != []


def test_verify_rejects_empty_bounds(hd5):
    with pytest.raises(ValueError, match="lasso bounds"):
        verify_rerailing_bounded(hd5, 2, 0)
    with pytest.raises(ValueError, match="lasso bounds"):
        verify_rerailing_bounded(hd5, -1, 2)
    assert verify_rerailing_bounded(hd5, 0, 1) == []
