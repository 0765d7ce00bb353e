import random

import pytest

from rerail.cobuchi import (CoBuchiAutomaton, Rlta, chain_color, decompose_rerailing,
                            residual_tracking_single)
from rerail.floating import (FloatingAutomaton, FloatingChain, empty_floating,
                             floating_chain_color, floating_member,
                             level0_floating, max_accepting_sccs,
                             minimize_floating, parse_floating_chain,
                             product_floating, residualize, residualize_chain,
                             restrict_floating, safe_subset,
                             serialize_floating_chain, union_floating)
from rerail.lasso import enumerate_lassos, parse_lasso
from rerail.raf import Alphabet, RafError

import oracles

AB = Alphabet(("a", "b"))
ABCD = Alphabet(("a", "b", "c", "d"))


def trivial_rlta(alphabet):
    return Rlta(alphabet, 1, [[0] * len(alphabet)], 0)


def eventually_only(alphabet, symbols):
    """One-state floating automaton: defined exactly on the given symbols."""
    rlta = trivial_rlta(alphabet)
    delta = {(0, alphabet.index(s)): 0 for s in symbols}
    return FloatingAutomaton(alphabet, 1, delta, [0], rlta)


def test_validation_label_count():
    with pytest.raises(ValueError):
        FloatingAutomaton(AB, 2, {}, [0], trivial_rlta(AB))
    with pytest.raises(ValueError):
        FloatingAutomaton(AB, 1, {}, [3], trivial_rlta(AB))


def test_validation_tracker_compatibility():
    alternator = Rlta(Alphabet(("a",)), 2, [[1], [0]], 0)
    with pytest.raises(ValueError, match="tracker compatibility"):
        FloatingAutomaton(Alphabet(("a",)), 2, {(0, 0): 0}, [0, 0], alternator)
    ok = FloatingAutomaton(Alphabet(("a",)), 2, {(0, 0): 1, (1, 0): 0},
                           [0, 1], alternator)
    assert ok.step(0, 0) == 1
    assert ok.step(1, 0) == 0


def test_validation_marking_determinism():
    rlta = trivial_rlta(Alphabet(("a",)))
    with pytest.raises(ValueError, match="markings"):
        FloatingAutomaton(Alphabet(("a",)), 3,
                          {(0, 0): 1, (2, 0): 0}, [0, 0, 0], rlta,
                          marking=[0, 1, 0])


def test_accessors():
    f = eventually_only(AB, "ab")
    assert f.step(0, 0) == 0
    assert f.step(0, 1) == 0
    g = eventually_only(AB, "a")
    assert g.step(0, 1) is None
    assert g.transitions() == [(0, 0, 0)]
    assert g.states_with_label(0) == [0]
    assert g.adjacency() == [[0]]
    assert g != f
    assert g == eventually_only(AB, "a")


def test_level0_accepts_everything():
    rlta = trivial_rlta(AB)
    base = level0_floating(rlta)
    assert base.state_count == 1
    for w in enumerate_lassos(2, 2, 2):
        assert floating_member(base, w)


def test_empty_floating_rejects_everything():
    f = empty_floating(trivial_rlta(AB))
    assert f.state_count == 0
    for w in enumerate_lassos(2, 2, 2):
        assert not floating_member(f, w)


def test_floating_member_waits_for_a_position():
    f = eventually_only(AB, "a")
    assert floating_member(f, parse_lasso("b;a", AB))
    assert floating_member(f, parse_lasso(";a", AB))
    assert not floating_member(f, parse_lasso(";b", AB))
    assert not floating_member(f, parse_lasso(";a.b", AB))


def test_floating_member_matches_oracle(uniform_flochain):
    for f in uniform_flochain.levels:
        for w in enumerate_lassos(4, 2, 2):
            assert floating_member(f, w) == oracles.floating_member(f, w)
    rng = random.Random(5)
    for k in range(60):
        dpw = oracles.random_dpw(rng, 2 + k % 5, 2 + k % 2, 1 + k % 4)
        for f in residualize_chain(decompose_rerailing(dpw)).levels:
            for w in enumerate_lassos(len(dpw.alphabet), 2, 3):
                assert floating_member(f, w) == oracles.floating_member(f, w), (k, w)


def test_chain_level_zero(uniform_flochain):
    assert uniform_flochain.level(0).state_count == uniform_flochain.rlta.state_count
    assert uniform_flochain.level(1) is uniform_flochain.levels[0]


def test_chain_rejects_foreign_tracker():
    with pytest.raises(ValueError):
        FloatingChain(trivial_rlta(AB), [eventually_only(ABCD, "a")])


def test_residualize_deterministic_pairs(uniform_chain, uniform_flochain):
    # Deterministic accepting parts keep the (state, tracker) pairs as-is.
    rlta = uniform_flochain.rlta
    f1 = residualize(uniform_chain.level(1), rlta)
    assert f1.state_count == 2
    assert [f1.state_name(q) for q in range(2)] == ["1", "2"]
    assert f1.labels == [0, 0]
    assert f1.step(0, 0) == 0          # the abc-loop state keeps `a`
    assert f1.step(0, 3) is None
    assert f1.step(1, 0) is None
    assert f1.step(1, 3) == 1
    f2 = residualize(uniform_chain.level(2), rlta)
    assert [f2.state_name(q) for q in range(3)] == ["3", "4", "5"]
    assert f2.transitions() == [(0, 0, 0), (0, 1, 0), (0, 2, 1),
                                (1, 1, 0), (1, 2, 0), (2, 2, 2), (2, 3, 2)]


def test_residualize_groups_nondeterministic_accepting():
    # A nondeterministic accepting split makes residualize fall back to the
    # grouped subset construction; here both branches merge into one state.
    aut = CoBuchiAutomaton(AB, 2, [(0, 0, 0, 2), (0, 0, 1, 2), (0, 1, 0, 1),
                                   (1, 0, 1, 2), (1, 1, 0, 1)], 0)
    rlta = trivial_rlta(AB)
    f = residualize(aut, rlta)
    assert f.state_count == 1
    assert f.names == ["0+1"]
    assert f.transitions() == [(0, 0, 0)]
    for w in enumerate_lassos(2, 2, 2):
        assert floating_member(f, w) == oracles.member_cobuchi(aut, w)


def test_residualize_chain_language(uniform_chain, uniform_flochain):
    fchain = residualize_chain(uniform_chain)
    assert fchain.rlta.state_count == 1
    assert len(fchain) == 3
    for w in enumerate_lassos(4, 2, 2):
        color = chain_color(uniform_chain, w)
        assert floating_chain_color(fchain, w) == color
        assert floating_chain_color(uniform_flochain, w) == color


def test_safe_subset_on_residuals(hd5):
    # Floating view of the 5-state history-deterministic automaton: one
    # strict containment and one incomparable pair of safe languages.
    level = CoBuchiAutomaton.from_structure(hd5)
    rlta, _state_map = residual_tracking_single(level)
    fh = residualize(level, rlta)
    assert sorted(fh.names) == ["0@0", "1@1", "2@0", "3@1", "4@0"]
    q2, q4 = fh.names.index("2@0"), fh.names.index("4@0")
    assert safe_subset(fh, q4, fh, q2)
    assert not safe_subset(fh, q2, fh, q4)
    q0, q3 = fh.names.index("0@0"), fh.names.index("3@1")
    assert not safe_subset(fh, q0, fh, q3)
    assert not safe_subset(fh, q3, fh, q0)
    assert safe_subset(fh, q0, fh, q0)
    with pytest.raises(ValueError):
        safe_subset(fh, 0, eventually_only(AB, "a"), 0)


def test_minimize_keeps_minimal_levels(uniform_flochain):
    for f in uniform_flochain.levels:
        assert minimize_floating(f) == f


def test_minimize_merges_duplicates(uniform_flochain):
    f = uniform_flochain.level(1)
    doubled = union_floating(f, f)
    assert doubled.state_count == 2 * f.state_count
    assert minimize_floating(doubled) == f


def test_minimize_drops_dominated_and_acyclic():
    rlta = trivial_rlta(AB)
    f = FloatingAutomaton(AB, 3,
                          {(0, 0): 0, (0, 1): 0, (1, 0): 1, (2, 0): 0},
                          [0, 0, 0], rlta)
    small = minimize_floating(f)
    assert small.state_count == 1
    assert small.transitions() == [(0, 0, 0), (0, 1, 0)]


def test_minimize_respects_markings():
    rlta = trivial_rlta(Alphabet(("a",)))
    f = FloatingAutomaton(Alphabet(("a",)), 2, {(0, 0): 0, (1, 0): 1},
                          [0, 0], rlta, marking=[5, 7])
    out = minimize_floating(f)
    assert out.state_count == 2
    assert out.marking == [5, 7]


def test_minimize_removes_cross_component_transitions():
    rlta = trivial_rlta(AB)
    f = FloatingAutomaton(AB, 2, {(0, 0): 0, (0, 1): 1, (1, 0): 1},
                          [0, 0], rlta, marking=[1, 2])
    out = minimize_floating(f)
    assert out.state_count == 2
    assert out.transitions() == [(0, 0, 0), (1, 0, 1)]


def test_minimize_dominated_state_behind_bridge():
    # With the bridge 0-b->1 present, Safe(1) = b* sits strictly inside
    # Safe(0) = a*b*, inviting a deletion of state 1 that would lose every
    # word ending in b-forever.  Cross-component transitions must go first;
    # the per-component safe languages a* and b* are incomparable and both
    # states survive.
    rlta = trivial_rlta(AB)
    f = FloatingAutomaton(AB, 2, {(0, 0): 0, (0, 1): 1, (1, 1): 1}, [0, 0], rlta)
    out = minimize_floating(f)
    assert out.state_count == 2
    assert out.transitions() == [(0, 0, 0), (1, 1, 1)]
    for w in enumerate_lassos(2, 3, 3):
        assert floating_member(out, w) == floating_member(f, w)


def test_minimize_random_residuals_and_products():
    # Residualized random co-Buchi levels over 1- and 2-state trackers, with
    # deterministic and nondeterministic accepting parts (the grouped subset
    # seeding), and the marked products of each pair of levels: minimization
    # is a fixpoint, never grows and keeps the floating language.
    rng = random.Random(4)
    lassos = list(enumerate_lassos(2, 3, 3))
    cases = []
    for k in range(20):
        pair = []
        for fanout in (1, 2):
            level = CoBuchiAutomaton.from_structure(
                oracles.random_cobuchi_automaton(rng, 2 + rng.randrange(2), 2, fanout))
            rlta = (trivial_rlta(level.alphabet) if k % 2
                    else Rlta(level.alphabet, 2, [[1, 1], [0, 0]], 0))
            pair.append(residualize(level, rlta))
        cases += pair + [product_floating(pair[0], pair[1]),
                         product_floating(pair[1], pair[0])]
    assert any("+" in name for f in cases for name in f.names)
    for f in cases:
        small = minimize_floating(f)
        assert minimize_floating(small) == small
        assert small.state_count <= f.state_count
        for w in lassos:
            assert oracles.floating_member(small, w) == oracles.floating_member(f, w)


def test_product_intersects(uniform_flochain):
    f2, f3 = uniform_flochain.level(2), uniform_flochain.level(3)
    both = product_floating(f2, f3)
    assert both.state_count == f2.state_count * f3.state_count
    assert both.marking == [q1 for q1 in range(f2.state_count)
                            for _ in range(f3.state_count)]
    for w in enumerate_lassos(4, 2, 2):
        assert floating_member(both, w) == (
            floating_member(f2, w) and floating_member(f3, w))


def test_product_requires_shared_tracker():
    with pytest.raises(ValueError):
        product_floating(eventually_only(AB, "a"), eventually_only(ABCD, "a"))


def test_union_accepts_either(uniform_flochain):
    f1, f3 = uniform_flochain.level(1), uniform_flochain.level(3)
    either = union_floating(f1, f3)
    assert either.state_count == f1.state_count + f3.state_count
    assert either.labels == list(f1.labels) + list(f3.labels)
    for w in enumerate_lassos(4, 2, 2):
        assert floating_member(either, w) == (
            floating_member(f1, w) or floating_member(f3, w))


def test_union_marking_mismatch():
    rlta = trivial_rlta(AB)
    marked = FloatingAutomaton(AB, 1, {(0, 0): 0}, [0], rlta, marking=[0])
    with pytest.raises(ValueError):
        union_floating(marked, eventually_only(AB, "a"))


def test_restrict(uniform_chain, uniform_flochain):
    f1 = residualize(uniform_chain.level(1), uniform_flochain.rlta)
    only = restrict_floating(f1, {0})
    assert only.state_count == 1
    assert only.transitions() == [(0, 0, 0), (0, 1, 0), (0, 2, 0)]
    assert only.labels == [0]


def test_max_accepting_sccs(uniform_chain, uniform_flochain):
    f1 = residualize(uniform_chain.level(1), uniform_flochain.rlta)
    sccs = max_accepting_sccs(f1)
    assert [members for (members, _) in sccs] == [(0,), (1,)]
    assert sccs[0][1] == ((0, 0, 0), (0, 1, 0), (0, 2, 0))
    f2 = residualize(uniform_chain.level(2), uniform_flochain.rlta)
    assert [members for (members, _) in max_accepting_sccs(f2)] == [(0, 1), (2,)]


def test_floating_chain_roundtrip(uniform_flochain):
    text = serialize_floating_chain(uniform_flochain)
    again = parse_floating_chain(text)
    assert serialize_floating_chain(again) == text
    assert again.rlta == uniform_flochain.rlta
    assert len(again) == 3


@pytest.mark.parametrize("text,hint", [
    ("", "flochain 1"),
    ("flochain 1\nnope\n", "rlta"),
    ("flochain 1\nrlta\nalphabet a\nstates 2\ninitial 0\ntrans 0 a 0\ntrans 0 a 1\n"
     "trans 1 a 1\n", "deterministic"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 2\nstates 0\n", "consecutively"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\n", "missing labels"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\nlabel 0 0\ntrans 0 a 0\ntrans 0 a 1\n", "conflicting"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\nlabel 0 0\nwibble\n", "directive"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\nlabel 0 0\nlabel 1 0\n", "label given for missing state 1"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\nname 1 \"x\"\nlabel 0 0\n", "name given for missing state 1"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\nname 1 \"t\"\ntrans 0 a 0\n",
     "name given for missing state 1"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\nname 0 \"x\"\nname 0 \"y\"\nlabel 0 0\n",
     "duplicate name for state 0"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\nlabel 0 0\nlabel 0 0\n", "duplicate label for state 0"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 100000000000\nlabel 0 0\n",
     "line 8: state count 100000000000 above the limit"),
])
def test_parse_floating_chain_errors(text, hint):
    with pytest.raises(RafError) as err:
        parse_floating_chain(text)
    assert hint in str(err.value)
