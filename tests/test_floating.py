import random

import pytest

from rerail.cobuchi import (CoBuchiAutomaton, Rlta, decompose_rerailing,
                            residual_tracking_single)
from rerail.floating import (FloatingAutomaton, FloatingChain, cobuchi_reading,
                             level0_floating, minimize_floating, minimize_tables,
                             parse_floating_chain, product_tables, residualize,
                             residualize_chain, restrict_tables, safe_subset,
                             serialize_floating_chain)
from rerail.lasso import enumerate_lassos, membership_function, parse_lasso
from rerail.raf import Alphabet, RafError

import oracles

AB = Alphabet(("a", "b"))
ABCD = Alphabet(("a", "b", "c", "d"))


def trivial_rlta(alphabet):
    return Rlta(alphabet, 1, [(0, x, 0, 0) for x in range(len(alphabet))], 0)


def bind_floating(f):
    """Membership in the floating language of `f`, bound once."""
    return membership_function(cobuchi_reading(f), "cobuchi")


def eventually_only(alphabet, symbols):
    """One-state floating automaton: defined exactly on the given symbols."""
    rlta = trivial_rlta(alphabet)
    delta = {(0, alphabet.index(s)): 0 for s in symbols}
    return FloatingAutomaton(alphabet, 1, delta, [0], rlta)


def product_automaton(f1, f2):
    """The product tables of `f1` and `f2` as one automaton, and its marking."""
    delta, labels, marking, names = product_tables(f1, f2)
    return FloatingAutomaton(f1.alphabet, len(labels), delta, labels, f1.rlta,
                             names=names), marking


@pytest.mark.parametrize("name", ["q#1", "a\nb"])
def test_names_a_flochain_cannot_carry_are_refused(name):
    with pytest.raises(ValueError, match="holds '#' or a line break"):
        Rlta(AB, 1, [(0, 0, 0, 0), (0, 1, 0, 0)], 0, state_names={0: name})
    with pytest.raises(ValueError, match="holds '#' or a line break"):
        FloatingAutomaton(AB, 1, {(0, 0): 0}, [0], trivial_rlta(AB), names=[name])
    rlta = Rlta(AB, 1, [(0, 0, 0, 0), (0, 1, 0, 0)], 0, state_names={0: "t 1"})
    f = FloatingAutomaton(AB, 1, {(0, 0): 0}, [0], rlta, names=['"q"'])
    text = serialize_floating_chain(FloatingChain(rlta, [f]))
    assert serialize_floating_chain(parse_floating_chain(text)) == text


def test_partly_named_tracker_round_trips_as_written():
    rlta = Rlta(AB, 2, [(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 0)], 0,
                state_names={0: "x"})
    f = FloatingAutomaton(AB, 1, {(0, 1): 0}, [0], rlta)
    text = serialize_floating_chain(FloatingChain(rlta, [f]))
    assert 'name 0 "x"\n' in text and "name 1" not in text
    again = parse_floating_chain(text)
    assert again.rlta.state_names == {0: "x"}
    assert serialize_floating_chain(again) == text


def test_validation_label_count():
    with pytest.raises(ValueError):
        FloatingAutomaton(AB, 2, {}, [0], trivial_rlta(AB))
    with pytest.raises(ValueError):
        FloatingAutomaton(AB, 1, {}, [3], trivial_rlta(AB))
    with pytest.raises(ValueError, match="^need one name per state when named$"):
        FloatingAutomaton(AB, 2, {}, [0, 0], trivial_rlta(AB), names=["x"])


def test_validation_tracker_compatibility():
    alternator = Rlta(Alphabet(("a",)), 2, [(0, 0, 1, 0), (1, 0, 0, 0)], 0)
    with pytest.raises(ValueError, match="tracker compatibility"):
        FloatingAutomaton(Alphabet(("a",)), 2, {(0, 0): 0}, [0, 0], alternator)
    ok = FloatingAutomaton(Alphabet(("a",)), 2, {(0, 0): 1, (1, 0): 0},
                           [0, 1], alternator)
    assert ok.step(0, 0) == 1
    assert ok.step(1, 0) == 0


def test_accessors():
    f = eventually_only(AB, "ab")
    assert f.step(0, 0) == 0
    assert f.step(0, 1) == 0
    g = eventually_only(AB, "a")
    assert g.step(0, 1) is None
    assert g.transitions() == [(0, 0, 0)]
    assert g != f
    assert g == eventually_only(AB, "a")


def test_level0_accepts_everything():
    rlta = trivial_rlta(AB)
    base = level0_floating(rlta)
    assert base.state_count == 1
    member = bind_floating(base)
    for w in enumerate_lassos(2, 2, 2):
        assert member(w)


def test_empty_floating_rejects_everything():
    f = FloatingAutomaton(AB, 0, {}, [], trivial_rlta(AB))
    assert f.state_count == 0
    member = bind_floating(f)
    for w in enumerate_lassos(2, 2, 2):
        assert not member(w)


def test_floating_member_waits_for_a_position():
    member = bind_floating(eventually_only(AB, "a"))
    assert member(parse_lasso("b;a", AB))
    assert member(parse_lasso(";a", AB))
    assert not member(parse_lasso(";b", AB))
    assert not member(parse_lasso(";a.b", AB))


def test_floating_member_matches_oracle(uniform_flochain):
    for f in uniform_flochain.levels:
        member = bind_floating(f)
        for w in enumerate_lassos(4, 2, 2):
            assert member(w) == oracles.floating_member(f, w)
    rng = random.Random(5)
    for k in range(60):
        dpw = oracles.random_dpw(rng, 2 + k % 5, 2 + k % 2, 1 + k % 4)
        for f in residualize_chain(decompose_rerailing(dpw)).levels:
            member = bind_floating(f)
            for w in enumerate_lassos(len(dpw.alphabet), 2, 3):
                assert member(w) == oracles.floating_member(f, w), (k, w)


def test_chain_level_zero(uniform_flochain):
    level0 = level0_floating(uniform_flochain.rlta)
    assert level0.state_count == uniform_flochain.rlta.state_count == 1
    # a one-state tracker leaves its state unnamed, as in residualized names
    assert level0.names == [""]


def test_floating_automata_compare_by_their_moves():
    rlta = trivial_rlta(AB)
    f = FloatingAutomaton(AB, 2, {(0, 0): 1, (1, 1): 0}, [0, 0], rlta)
    assert f == FloatingAutomaton(AB, 2, {(1, 1): 0, (0, 0): 1}, [0, 0], rlta)
    assert f != FloatingAutomaton(AB, 2, {(0, 0): 0, (1, 1): 0}, [0, 0], rlta)
    assert f != FloatingAutomaton(AB, 2, {(0, 0): 1}, [0, 0], rlta)
    assert f != FloatingAutomaton(AB, 2, {(0, 0): 1, (1, 1): 0, (0, 1): 0}, [0, 0], rlta)


def test_chain_rejects_foreign_tracker():
    with pytest.raises(ValueError):
        FloatingChain(trivial_rlta(AB), [eventually_only(ABCD, "a")])


def test_residualize_deterministic_pairs(uniform_chain, uniform_flochain):
    # Deterministic accepting parts keep the (state, tracker) pairs as-is.
    rlta = uniform_flochain.rlta
    f1 = residualize(uniform_chain.levels[0], rlta)
    assert f1.state_count == 2
    assert [f1.state_name(q) for q in range(2)] == ["1", "2"]
    assert f1.labels == [0, 0]
    assert f1.step(0, 0) == 0          # the abc-loop state keeps `a`
    assert f1.step(0, 3) is None
    assert f1.step(1, 0) is None
    assert f1.step(1, 3) == 1
    f2 = residualize(uniform_chain.levels[1], rlta)
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
    member = bind_floating(f)
    for w in enumerate_lassos(2, 2, 2):
        assert member(w) == oracles.member_cobuchi(aut, w)


def test_residualize_chain_language(uniform_chain, uniform_flochain, level_color):
    fchain = residualize_chain(uniform_chain)
    assert fchain.rlta.state_count == 1
    assert len(fchain) == 3
    color_of = level_color(uniform_chain.levels)
    residualized = level_color([cobuchi_reading(f) for f in fchain.levels])
    parsed = level_color([cobuchi_reading(f) for f in uniform_flochain.levels])
    for w in enumerate_lassos(4, 2, 2):
        color = color_of(w)
        assert residualized(w) == color
        assert parsed(w) == color


def test_safe_subset_on_residuals(hd5):
    # Floating view of the 5-state history-deterministic automaton: one
    # strict containment and one incomparable pair of safe languages.
    level = CoBuchiAutomaton(hd5.alphabet, hd5.state_count, hd5.transitions, hd5.initial)
    rlta, _state_map = residual_tracking_single(level)
    fh = residualize(level, rlta)
    assert sorted(fh.names) == ["0@0", "1@1", "2@0", "3@1", "4@0"]
    q2, q4 = fh.names.index("2@0"), fh.names.index("4@0")
    d, nsym = fh.delta, len(fh.alphabet)
    assert safe_subset(d, q4, d, q2, nsym)
    assert not safe_subset(d, q2, d, q4, nsym)
    q0, q3 = fh.names.index("0@0"), fh.names.index("3@1")
    assert not safe_subset(d, q0, d, q3, nsym)
    assert not safe_subset(d, q3, d, q0, nsym)
    assert safe_subset(d, q0, d, q0, nsym)


def test_minimize_keeps_minimal_levels(uniform_flochain):
    for f in uniform_flochain.levels:
        assert minimize_floating(f) == f


def test_minimize_merges_duplicates(uniform_flochain):
    f = uniform_flochain.levels[0]
    n = f.state_count
    delta = dict(f.delta)
    delta.update(((src + n, x), dst + n) for (src, x), dst in f.delta.items())
    doubled = FloatingAutomaton(f.alphabet, 2 * n, delta, f.labels * 2, f.rlta)
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
    # unmarked, the two equal states merge; marked apart, both stay
    delta = {(0, 0): 0, (1, 0): 1}
    assert minimize_tables(delta, [0, 0], None, ["p", "q"], 1) == ({(0, 0): 0}, ["p/q", "q"],
                                                                  [[0]])
    assert minimize_tables(delta, [0, 0], [5, 7], ["p", "q"], 1) == (delta, ["p", "q"],
                                                                    [[0], [1]])


def test_minimize_removes_cross_component_transitions():
    delta = {(0, 0): 0, (0, 1): 1, (1, 0): 1}
    assert minimize_tables(delta, [0, 0], [1, 2], ["p", "q"], 2) == (
        {(0, 0): 0, (1, 0): 1}, ["p", "q"], [[0], [1]])


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
    member_out, member_f = bind_floating(out), bind_floating(f)
    for w in enumerate_lassos(2, 3, 3):
        assert member_out(w) == member_f(w)


def test_minimize_random_residuals_and_products():
    # Residualized random co-Buchi levels over 1- and 2-state trackers, with
    # deterministic and nondeterministic accepting parts (the grouped subset
    # seeding), and the products of each pair of levels: minimization is a
    # fixpoint, never grows and keeps the floating language, also modulo a
    # product's marking.
    rng = random.Random(4)
    lassos = list(enumerate_lassos(2, 3, 3))
    cases = []
    for k in range(20):
        pair = []
        for fanout in (1, 2):
            aut = oracles.random_cobuchi_automaton(rng, 2 + rng.randrange(2), 2, fanout)
            level = CoBuchiAutomaton(aut.alphabet, aut.state_count, aut.transitions, aut.initial)
            rlta = (trivial_rlta(level.alphabet) if k % 2
                    else Rlta(level.alphabet, 2,
                              [(0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 0)], 0))
            pair.append(residualize(level, rlta))
        cases += [(f, None) for f in pair] + [product_automaton(pair[0], pair[1]),
                                              product_automaton(pair[1], pair[0])]
    assert any("+" in name for (f, _marking) in cases for name in f.names)
    for (f, marking) in cases:
        small = minimize_floating(f)
        assert minimize_floating(small) == small
        assert small.state_count <= f.state_count
        for w in lassos:
            assert oracles.floating_member(small, w) == oracles.floating_member(f, w)
        if marking is not None:
            delta, names, groups = minimize_tables(f.delta, f.labels, marking, f.names,
                                                   len(f.alphabet))
            marked = restrict_tables(f.alphabet, f.rlta, delta, f.labels, names,
                                     sorted(q for members in groups for q in members))
            for w in lassos:
                assert oracles.floating_member(marked, w) == oracles.floating_member(f, w)


def test_product_intersects(uniform_flochain):
    f2, f3 = uniform_flochain.levels[1], uniform_flochain.levels[2]
    both, marking = product_automaton(f2, f3)
    assert both.state_count == f2.state_count * f3.state_count
    assert marking == [q1 for q1 in range(f2.state_count) for _ in range(f3.state_count)]
    member_both, member2, member3 = (bind_floating(f) for f in (both, f2, f3))
    for w in enumerate_lassos(4, 2, 2):
        assert member_both(w) == (member2(w) and member3(w))


def test_restrict(uniform_chain, uniform_flochain):
    f1 = residualize(uniform_chain.levels[0], uniform_flochain.rlta)
    only = restrict_tables(f1.alphabet, f1.rlta, f1.delta, f1.labels, f1.names, [0])
    assert only.state_count == 1
    assert only.transitions() == [(0, 0, 0), (0, 1, 0), (0, 2, 0)]
    assert only.labels == [0]


def test_minimize_groups_on_residual_levels(uniform_chain, uniform_flochain):
    # a distinct marking per state keeps every state, so the groups are the
    # residualized levels' SCCs holding a cycle, by least member
    for level, groups in ((1, [[0], [1]]), (2, [[0, 1], [2]])):
        f = residualize(uniform_chain.levels[level - 1], uniform_flochain.rlta)
        n = f.state_count
        assert minimize_tables(f.delta, f.labels, list(range(n)), f.names,
                               len(f.alphabet))[2] == groups


def test_minimize_groups_match_transitive_closure():
    # With a distinct marking per state nothing is dropped or merged, so the
    # groups are the SCCs holding a cycle.  Oracle: the states with a path
    # back to themselves, grouped by mutual reachability under a Warshall
    # closure, the groups by least member.
    rng = random.Random(19)
    for _ in range(80):
        n = 1 + rng.randrange(7)
        delta = {(q, x): rng.randrange(n) for q in range(n) for x in range(len(AB))
                 if rng.random() < 0.6}
        names = [str(q) for q in range(n)]
        kept, kept_names, groups = minimize_tables(delta, [0] * n, list(range(n)), names, 2)
        assert kept_names == names
        path = [[False] * n for _ in range(n)]
        for (q, _x), r in delta.items():
            path[q][r] = True
        for k in range(n):
            for q in range(n):
                if path[q][k]:
                    path[q] = [a or b for a, b in zip(path[q], path[k])]
        on_cycle = [q for q in range(n) if path[q][q]]
        classes = sorted({tuple(r for r in on_cycle if path[q][r] and path[r][q])
                          for q in on_cycle})
        assert [tuple(members) for members in groups] == classes
        assert kept == {(q, x): r for (q, x), r in delta.items()
                        if path[q][r] and path[r][q]}


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
    # state 1 is unnamed and shown as "1", which state 0's name repeats
    ("flochain 1\nrlta\nalphabet a\nstates 2\ninitial 0\nname 0 \"1\"\ntrans 0 a 1\n"
     "trans 1 a 0\n", "rlta: state display names must be unique"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\nname 0 \"x\"\nname 0 \"y\"\nlabel 0 0\n",
     "duplicate name for state 0"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\nlabel 0 0\nlabel 0 0\n", "duplicate label for state 0"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 100000000000\nlabel 0 0\n",
     "line 8: state count 100000000000 above the limit"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n"
     "floating 1\nstates 1\nstates 2\nlabel 0 0\n", "line 9: duplicate states line"),
    ("flochain 1\nrlta\nalphabet a\nstates 1\nstates 2\ninitial 0\ntrans 0 a 0\n",
     "line 5: duplicate states line"),
])
def test_parse_floating_chain_errors(text, hint):
    with pytest.raises(RafError) as err:
        parse_floating_chain(text)
    assert hint in str(err.value)
