import itertools
import random

import pytest

from rerail import build, cobuchi
from rerail.cobuchi import (Chain, CoBuchiAutomaton, Rlta, build_rlta_chain,
                            chain_color, chain_falling_violations, chain_member,
                            compute_Rij, decompose_rerailing,
                            inclusion_hd_cobuchi, inclusion_table, parse_chain,
                            residual_tracking_single, serialize_chain)
from rerail.lasso import LassoWord, enumerate_lassos, parse_lasso
from rerail.raf import Alphabet, AutomatonStructure, RafError

import oracles

AB = Alphabet(("a", "b"))
ABCD = Alphabet(("a", "b", "c", "d"))


def universal(alphabet=AB):
    return CoBuchiAutomaton(alphabet, 1,
                            [(0, x, 0, 2) for x in range(len(alphabet))], 0)


def empty_language(alphabet=AB):
    return CoBuchiAutomaton(alphabet, 1,
                            [(0, x, 0, 1) for x in range(len(alphabet))], 0)


def test_cobuchi_rejects_other_colors():
    with pytest.raises(ValueError):
        CoBuchiAutomaton(AB, 1, [(0, 0, 0, 0), (0, 1, 0, 2)], 0)


def test_cobuchi_rejects_incomplete():
    with pytest.raises(ValueError):
        CoBuchiAutomaton(AB, 1, [(0, 0, 0, 2)], 0)


def test_from_structure_and_accepting_successors(hd5):
    level = CoBuchiAutomaton.from_structure(hd5)
    assert level.accepting_successors(0, 0) == [1]
    assert level.accepting_successors(0, 2) == []   # both c-moves are rejecting
    assert level.accepting_successors(3, 2) == [2]


def test_chain_basics(uniform_chain):
    assert len(uniform_chain) == 3
    assert uniform_chain.level(1).state_count == 2
    assert uniform_chain.level(2).state_count == 3
    assert uniform_chain.alphabet == ABCD


def test_chain_needs_shared_alphabet():
    with pytest.raises(ValueError):
        Chain([universal(AB), universal(Alphabet(("a", "c")))])
    with pytest.raises(ValueError):
        Chain([])
    assert len(Chain([], alphabet=AB)) == 0


def test_chain_colors_frozen(uniform_chain):
    expected = {
        ";c": 3, ";d": 3, "d;c": 3,
        ";a": 2, ";b": 2, ";b.c": 2,
        ";c.a": 1,
        ";a.d": 0,
    }
    for text, color in expected.items():
        w = parse_lasso(text, ABCD)
        assert chain_color(uniform_chain, w) == color
        assert chain_member(uniform_chain, w) == (color % 2 == 0)


def test_chain_color_matches_oracle(uniform_chain):
    for w in enumerate_lassos(4, 2, 2):
        assert chain_color(uniform_chain, w) == oracles.chain_color(uniform_chain, w)


def test_falling_violations_absent(uniform_chain):
    assert chain_falling_violations(uniform_chain, 2, 3) == []


def test_falling_violation_detected():
    only_a = CoBuchiAutomaton(AB, 1, [(0, 0, 0, 2), (0, 1, 0, 1)], 0)
    rising = Chain([only_a, universal()])
    violations = chain_falling_violations(rising, 1, 2)
    assert violations
    assert violations[0] == (2, LassoWord((), (1,)))


def test_chain_roundtrip(uniform_chain):
    text = serialize_chain(uniform_chain)
    again = parse_chain(text)
    assert serialize_chain(again) == text
    assert len(again) == 3


@pytest.mark.parametrize("text,hint", [
    ("", "cocoa 1"),
    ("raf 1\n", "cocoa 1"),
    ("cocoa 1\nnope\n", "count"),
    ("cocoa 1\ncount x\n", "count"),
    ("cocoa 1\ncount 1\n", "automaton 1"),
    ("cocoa 1\ncount 1\nautomaton 2\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0 2\n",
     "consecutively"),
    ("cocoa 1\ncount 1\nautomaton 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0 2\n"
     "automaton 2\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0 2\n",
     "trailing"),
    ("cocoa 1\ncount 1\nautomaton 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0 3\n",
     "co-Buchi"),
])
def test_parse_chain_errors(text, hint):
    with pytest.raises(RafError) as err:
        parse_chain(text)
    assert hint in str(err.value)


def test_decompose_shape(minimal5):
    chain = decompose_rerailing(minimal5)
    assert len(chain) == minimal5.max_color == 3
    for i in (1, 2, 3):
        level = chain.level(i)
        assert isinstance(level, CoBuchiAutomaton)
        assert level.state_count == minimal5.state_count


def test_decompose_requires_complete():
    partial = AutomatonStructure(AB, 1, [(0, 0, 0, 2)], 0)
    with pytest.raises(ValueError):
        decompose_rerailing(partial)


def test_decompose_color_is_max_dominating(minimal5):
    chain = decompose_rerailing(minimal5)
    for w in enumerate_lassos(4, 2, 2):
        assert chain_color(chain, w) == max(oracles.dominating_colors(minimal5, w))


def test_decompose_preserves_deterministic_languages():
    rng = random.Random(31)
    for _ in range(20):
        aut = oracles.random_dpw(rng, 1 + rng.randrange(5), 2, 4)
        chain = decompose_rerailing(aut)
        assert len(chain) == aut.max_color
        for w in enumerate_lassos(2, 3, 3):
            assert chain_member(chain, w) == oracles.member_parity_det(aut, w)


def test_residual_tracker_alternates(hd5):
    tracker, state_map = residual_tracking_single(CoBuchiAutomaton.from_structure(hd5))
    assert state_map == [0, 1, 0, 1, 0]
    assert tracker.state_count == 2
    assert tracker.initial == 0
    assert tracker.delta == [[1, 1, 1], [0, 0, 0]]


def test_residual_tracker_rejects_language_nondeterminism():
    one = Alphabet(("a",))
    split = CoBuchiAutomaton(one, 2, [(0, 0, 0, 2), (0, 0, 1, 1), (1, 0, 1, 1)], 0)
    with pytest.raises(ValueError, match="splits on symbol"):
        residual_tracking_single(split)


def test_rlta_validation():
    with pytest.raises(ValueError):
        Rlta(AB, 2, [[0, 1]], 0)
    with pytest.raises(ValueError):
        Rlta(AB, 1, [[0]], 0)
    with pytest.raises(ValueError):
        Rlta(AB, 1, [[0, 1]], 0)
    with pytest.raises(ValueError):
        Rlta(AB, 1, [[0, 0]], 1)


def test_rlta_step_and_states_along():
    tracker = Rlta(AB, 2, [[1, 0], [0, 1]], 0, names=["even", "odd"])
    assert tracker.step(0, 0) == 1
    assert tracker.state_name(1) == "odd"
    assert tracker == Rlta(AB, 2, [[1, 0], [0, 1]], 0)
    assert tracker != Rlta(AB, 2, [[1, 1], [0, 1]], 0)


def test_build_rlta_uniform(uniform_chain):
    rlta, tuples = build_rlta_chain(uniform_chain)
    assert rlta.state_count == 1
    assert tuples == ((0, 0, 0),)
    assert rlta.delta == [[0, 0, 0, 0]]


def test_build_rlta_collapse(collapse_chain):
    for level in collapse_chain.levels:
        tracker, _ = residual_tracking_single(level)
        assert tracker.state_count == 3
    rlta, _ = build_rlta_chain(collapse_chain)
    assert rlta.state_count == 1


def test_compute_rij_bounds(collapse_chain):
    trackers = [residual_tracking_single(a) for a in collapse_chain.levels]
    with pytest.raises(ValueError):
        compute_Rij(collapse_chain, trackers, 0, 3)
    with pytest.raises(ValueError):
        compute_Rij(collapse_chain, trackers, -1, 0)


def test_rij_symmetric_and_matches_bounded_witnesses():
    """R_ji is R_ij with swapped halves, and R_ij is what short lassos witness.

    A tracker tuple is witnessed when some lasso with stem and cycle <= 3 is
    accepted at level i from q_i but not at level i+1 from q_i1, and at level
    j from q_j but not at level j+1 from q_j1, levels 0 and n+1 included.
    """
    rng = random.Random(5)
    lassos = list(enumerate_lassos(2, 3, 3))
    pairs = 0
    for _ in range(8):
        aut = oracles.random_dpw(rng, 2 + rng.randrange(3), 2, 1 + rng.randrange(3))
        chain = decompose_rerailing(aut)
        trackers = [residual_tracking_single(a) for a in chain.levels]
        n = len(chain)
        levels = [universal(chain.alphabet)] + chain.levels + [empty_language(chain.alphabet)]
        maps = [[0]] + [state_map for (_tracker, state_map) in trackers] + [[0]]
        # accepted[k][q]: bit b set iff level k accepts lassos[b] from state q
        accepted = [[sum(1 << b for b, w in enumerate(lassos)
                         if oracles.member_cobuchi(
                             CoBuchiAutomaton(a.alphabet, a.state_count, a.transitions, q), w))
                     for q in range(a.state_count)]
                    for a in levels]
        for i in range(n + 1):
            for j in range(n + 1):
                if (i + j) % 2 == 0:
                    continue
                ks = (i, i + 1, j, j + 1)
                rel = compute_Rij(chain, trackers, i, j).tuples
                swapped = compute_Rij(chain, trackers, j, i).tuples
                assert swapped == {(c, d, a, b) for (a, b, c, d) in rel}
                witnessed = {
                    tuple(maps[k][q] for k, q in zip(ks, qs))
                    for qs in itertools.product(*(range(levels[k].state_count) for k in ks))
                    if (accepted[i][qs[0]] & ~accepted[i + 1][qs[1]]
                        & accepted[j][qs[2]] & ~accepted[j + 1][qs[3]])}
                assert rel == witnessed, (i, j)
                pairs += 1
    assert pairs == 28


def test_rij_on_build_domains_matches_whole_relation(monkeypatch):
    """Each R_ij computed on the domain `build_rlta_chain` passes is the whole
    relation restricted to that domain, the tracker built from the whole
    relations is the same, and no whole R_{i,i+1} holds a tuple naming one
    level-(i+1) residual twice.

    The last check reads R_{i,i+1} through R_{i+1,i}, whose game keeps
    every tuple: its halves swapped, a tuple (a, b, c, d) of R_{i+1,i} is
    (c, d, a, b) of R_{i,i+1}, with level i+1 at the second and third places.
    """
    calls = []

    def recording(chain, trackers, i, j, domain=None):
        rel = compute_Rij(chain, trackers, i, j, domain)
        calls.append((chain, trackers, domain, rel))
        return rel

    def whole_relation(chain, trackers, i, j, domain=None):
        return compute_Rij(chain, trackers, i, j)

    rng = random.Random(61)
    for _ in range(20):
        aut = oracles.random_dpw(rng, 2 + rng.randrange(5), 2 + rng.randrange(2),
                                 1 + rng.randrange(4))
        chain = decompose_rerailing(aut)
        monkeypatch.setattr(cobuchi, "compute_Rij", recording)
        restricted_rlta = build_rlta_chain(chain)
        monkeypatch.setattr(cobuchi, "compute_Rij", whole_relation)
        assert build_rlta_chain(chain) == restricted_rlta
    restricted = 0
    for (chain, trackers, domain, rel) in calls:
        i, j = rel.i, rel.j
        whole = compute_Rij(chain, trackers, i, j).tuples
        assert rel.tuples == whole & domain, (i, j)
        sizes = [1] + [tracker.state_count for (tracker, _map) in trackers] + [1]
        restricted += len(domain) < sizes[i] * sizes[i + 1] * sizes[j] * sizes[j + 1]
        if j == i + 1:
            mirrored = compute_Rij(chain, trackers, j, i).tuples
            assert {(c, d, a, b) for (a, b, c, d) in mirrored} == whole
            assert not any(a == d for (a, _b, _c, d) in mirrored), (i, j)
    assert restricted > 0


def test_rij_arenas_stay_small_at_twenty_states(monkeypatch):
    """Structural guard on the R_ij arenas: the vertices of every game solved
    while minimizing a 20-state DPW.  Deciding the whole tracker product took
    222,453 vertices over 7 games; the games restricted to the tuples
    `build_rlta_chain` probes take about 20,000 over 5."""
    sizes = []
    original = cobuchi.solve

    def counting(arena):
        sizes.append(arena.vertex_count)
        return original(arena)

    monkeypatch.setattr(cobuchi, "solve", counting)
    build.minimize_rerailing(oracles.random_dpw(random.Random(20), 20, 2, 3))
    assert 0 < sum(sizes) < 45_000


def test_inclusion_tiny():
    u, e = universal(), empty_language()
    assert inclusion_hd_cobuchi(e, 0, u, 0)
    assert inclusion_hd_cobuchi(u, 0, u, 0)
    assert not inclusion_hd_cobuchi(u, 0, e, 0)


def test_inclusion_classes_on_hd_example(hd5):
    level = CoBuchiAutomaton.from_structure(hd5)
    table = inclusion_table(level, level)
    classes = {frozenset(p for p in range(5)
                         if (q, p) in table and (p, q) in table)
               for q in range(5)}
    assert classes == {frozenset({0, 2, 4}), frozenset({1, 3})}


def test_inclusion_sound_against_bounded_search():
    rng = random.Random(33)
    for _ in range(15):
        a = oracles.random_cobuchi_automaton(rng, 1 + rng.randrange(3), 2)
        det = oracles.random_dpw(rng, 1 + rng.randrange(3), 2, 1)
        b = CoBuchiAutomaton(det.alphabet, det.state_count,
                             [(s, x, d, c + 1) for (s, x, d, c) in det.transitions],
                             det.initial)
        assert inclusion_hd_cobuchi(b, b.initial, b, b.initial)
        if inclusion_hd_cobuchi(a, a.initial, b, b.initial):
            for w in enumerate_lassos(2, 3, 3):
                assert (not oracles.member_cobuchi(a, w)) or oracles.member_cobuchi(b, w)
