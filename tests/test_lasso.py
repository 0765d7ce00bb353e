import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rerail import lasso as lasso_mod
from rerail.cobuchi import Chain, CoBuchiAutomaton, decompose_rerailing
from rerail.floating import FloatingAutomaton, FloatingChain, residualize_chain
from rerail.lasso import (LassoProduct, LassoSweep, LassoWord, bounded_equivalence,
                          enumerate_lassos, format_lasso, member_cobuchi,
                          member_parity_det, member_parity_exists, member_rerailing,
                          membership_function, parse_lasso)
from rerail.raf import Alphabet, AutomatonStructure

import oracles

ABCD = Alphabet(("a", "b", "c", "d"))


def test_lasso_needs_cycle():
    with pytest.raises(ValueError):
        LassoWord((0,), ())


def test_parse_and_format():
    w = parse_lasso(";a.d", ABCD)
    assert w == LassoWord((), (0, 3))
    assert format_lasso(w, ABCD) == ";a.d"
    w2 = parse_lasso("a.b;c", ABCD)
    assert w2 == LassoWord((0, 1), (2,))
    assert format_lasso(w2, ABCD) == "a.b;c"


@pytest.mark.parametrize("text", ["", "a.b", "a;b;c", "a;", ";a.z"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_lasso(text, ABCD)


def test_canonical_examples():
    assert LassoWord((0,), (0,)).canonical() == LassoWord((), (0,))
    assert LassoWord((), (0, 1, 0, 1)).canonical() == LassoWord((), (0, 1))
    assert LassoWord((0,), (1, 0)).canonical() == LassoWord((), (0, 1))
    # same word, different spelling of the cycle start
    assert LassoWord((), (1, 0)).canonical() == LassoWord((), (1, 0))


def test_canonical_preserves_the_word():
    rng = random.Random(3)
    for _ in range(200):
        w = oracles.random_lasso(rng, 3, 4, 4)
        c = w.canonical()
        assert c.canonical() == c
        assert [w.letter_at(k) for k in range(24)] == [c.letter_at(k) for k in range(24)]


@given(st.lists(st.integers(0, 2), max_size=5),
       st.lists(st.integers(0, 2), min_size=1, max_size=5))
def test_canonical_is_stable_and_faithful(stem, cycle):
    w = LassoWord(tuple(stem), tuple(cycle))
    c = w.canonical()
    assert c.canonical() == c
    horizon = 2 * (len(stem) + len(cycle)) + 4
    assert [w.letter_at(k) for k in range(horizon)] == \
        [c.letter_at(k) for k in range(horizon)]


@given(st.lists(st.integers(0, 3), max_size=4),
       st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_parse_format_roundtrip(stem, cycle):
    w = LassoWord(tuple(stem), tuple(cycle))
    assert parse_lasso(format_lasso(w, ABCD), ABCD) == w


def test_letter_at_wraps():
    w = LassoWord((0,), (1, 2))
    assert [w.letter_at(k) for k in range(6)] == [0, 1, 2, 1, 2, 1]


def test_prefixed():
    w = LassoWord((1,), (0,))
    assert w.prefixed((2, 2)) == LassoWord((2, 2, 1), (0,))


def test_enumerate_lassos_counts():
    assert len(list(enumerate_lassos(1, 3, 3))) == 1
    words = list(enumerate_lassos(2, 1, 2))
    assert len(words) == 8
    assert len(set(words)) == 8
    assert all(w.canonical() == w for w in words)


def test_enumerate_lassos_distinct_as_words():
    words = list(enumerate_lassos(2, 2, 3))
    unfolded = {tuple(w.letter_at(k) for k in range(12)) for w in words}
    assert len(unfolded) == len(words)


def test_member_rerailing_examples(minimal5):
    assert member_rerailing(minimal5, parse_lasso(";a.d", ABCD))
    assert not member_rerailing(minimal5, parse_lasso(";d", ABCD))
    assert member_rerailing(minimal5, parse_lasso(";a", ABCD))


def test_membership_against_oracles_nondeterministic():
    rng = random.Random(11)
    for _ in range(150):
        aut = oracles.random_complete_automaton(rng, 1 + rng.randrange(5),
                                                2 + rng.randrange(2), 4)
        w = oracles.random_lasso(rng, len(aut.alphabet), 3, 3)
        assert member_rerailing(aut, w) == oracles.member_rerailing(aut, w)
        assert member_parity_exists(aut, w) == oracles.member_parity_exists(aut, w)


def test_membership_against_oracles_cobuchi():
    rng = random.Random(12)
    for _ in range(150):
        aut = oracles.random_cobuchi_automaton(rng, 1 + rng.randrange(5),
                                               2 + rng.randrange(2))
        w = oracles.random_lasso(rng, len(aut.alphabet), 3, 3)
        assert member_cobuchi(aut, w) == oracles.member_cobuchi(aut, w)


def test_membership_against_oracles_deterministic():
    rng = random.Random(13)
    for _ in range(150):
        aut = oracles.random_dpw(rng, 1 + rng.randrange(6), 2 + rng.randrange(2), 4)
        w = oracles.random_lasso(rng, len(aut.alphabet), 3, 3)
        assert member_parity_det(aut, w) == oracles.member_parity_det(aut, w)
        assert member_parity_det(aut, w) == member_rerailing(aut, w)


def test_oracle_routes_agree_on_tiny_products():
    rng = random.Random(14)
    for _ in range(60):
        aut = oracles.random_complete_automaton(rng, 1 + rng.randrange(3), 2, 3)
        w = oracles.random_lasso(rng, 2, 2, 3)
        assert oracles.dominating_colors(aut, w) == oracles.enumerated_cycle_minima(aut, w)


def test_parity_semantics_differ_on_nondeterminism():
    # two runs on a^omega: one dominated by 2, one by 1 -> exists accepts,
    # rerailing rejects only when the maximum is odd; here max(1, 2) = 2
    aut = AutomatonStructure(Alphabet(("a",)), 2,
                             [(0, 0, 0, 2), (0, 0, 1, 1), (1, 0, 1, 3)], 0)
    w = parse_lasso(";a", Alphabet(("a",)))
    assert member_parity_exists(aut, w)
    assert not member_rerailing(aut, w)


def test_membership_function_dispatch(minimal5, uniform_chain, uniform_flochain):
    w = parse_lasso(";a.d", ABCD)
    assert membership_function(minimal5, "rerailing")(w)
    assert membership_function(minimal5, "parity-exists")(w)
    fn_chain = membership_function(uniform_chain, "chain")
    fn_float = membership_function(uniform_flochain, "floating")
    assert fn_chain(w) == fn_float(w)
    with pytest.raises(ValueError):
        membership_function(minimal5, "no-such-semantics")
    with pytest.raises(ValueError, match="'rerailing' needs an automaton"):
        membership_function(uniform_chain, "rerailing")
    with pytest.raises(ValueError, match="'chain' needs a co-Buchi chain"):
        membership_function(minimal5, "chain")
    with pytest.raises(ValueError, match="'chain' needs a co-Buchi chain"):
        bounded_equivalence(minimal5, "chain", minimal5, "rerailing", 2, 2)


def test_bounded_equivalence_reflexive(minimal5):
    assert bounded_equivalence(minimal5, "rerailing", minimal5, "rerailing", 2, 2) is None


def test_bounded_equivalence_counterexample():
    one = Alphabet(("a",))
    accept = AutomatonStructure(one, 1, [(0, 0, 0, 0)], 0)
    reject = AutomatonStructure(one, 1, [(0, 0, 0, 1)], 0)
    witness = bounded_equivalence(accept, "rerailing", reject, "rerailing", 2, 2)
    assert witness == LassoWord((), (0,))


def test_enumerate_lassos_rejects_empty_bounds():
    with pytest.raises(ValueError, match="lasso bounds"):
        enumerate_lassos(2, 2, 0)
    with pytest.raises(ValueError, match="lasso bounds"):
        enumerate_lassos(2, -1, 2)
    assert list(enumerate_lassos(2, 0, 1)) == [LassoWord((), (0,)), LassoWord((), (1,))]


def test_bounded_equivalence_rejects_empty_bounds(minimal5):
    for (stem_bound, cycle_bound) in [(2, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="lasso bounds"):
            bounded_equivalence(minimal5, "rerailing", minimal5, "parity-det",
                                stem_bound, cycle_bound)


def test_sweep_node_sets_match_one_lasso_products():
    """Every node of every lasso gets the sets of its one-lasso product."""
    rng = random.Random(41)
    for k in range(40):
        aut = oracles.random_complete_automaton(rng, 1 + rng.randrange(4),
                                                2 + k % 2, 1 + rng.randrange(4))
        if k % 4 == 3:
            aut = _partial(rng, aut)
        sweep = LassoSweep(aut)
        for w in enumerate_lassos(len(aut.alphabet), 2, 4 - k % 2):
            product = LassoProduct(aut, w)
            analysis = product.analysis()
            expected = sorted(zip(product.nodes, analysis.achievable, analysis.uniform))
            assert sorted(sweep.node_sets(w)) == expected, (k, w)
            assert sweep.colors(w) == analysis.achievable[0], (k, w)


def _perturbed(rng, aut, extra):
    """`aut` with one transition recolored and `extra` random transitions added."""
    transitions = list(aut.transitions)
    k = rng.randrange(len(transitions))
    (q, a, d, _c) = transitions[k]
    transitions[k] = (q, a, d, rng.randrange(aut.max_color + 2))
    taken = {t[:3] for t in transitions}
    for _ in range(extra):
        edge = (rng.randrange(aut.state_count), rng.randrange(len(aut.alphabet)),
                rng.randrange(aut.state_count))
        if edge not in taken:
            taken.add(edge)
            transitions.append(edge + (rng.randrange(aut.max_color + 1),))
    return AutomatonStructure(aut.alphabet, aut.state_count, transitions, aut.initial)


def _partial(rng, aut):
    """`aut` with about a quarter of its transitions removed."""
    kept = [t for t in aut.transitions if rng.randrange(4)]
    return AutomatonStructure(aut.alphabet, aut.state_count, kept or aut.transitions[:1],
                              aut.initial)


def _first_difference(fa, fb, n_symbols, stem_bound, cycle_bound):
    for w in lasso_mod.enumerate_lassos(n_symbols, stem_bound, cycle_bound):
        if fa(w) != fb(w):
            return w
    return None


def test_bounded_equivalence_matches_oracles():
    rng = random.Random(43)
    outcomes = set()
    for k in range(40):
        nsym = 2 + k % 2
        dpw = oracles.random_dpw(rng, 2 + rng.randrange(4), nsym, 1 + rng.randrange(4))
        if k % 2:
            a, b, sem_b = _perturbed(rng, dpw, 2), dpw, "parity-det"
            oracle_b = oracles.member_parity_det
        else:
            a = oracles.random_complete_automaton(rng, 2 + rng.randrange(3), nsym,
                                                  1 + rng.randrange(4))
            b, sem_b, oracle_b = _perturbed(rng, a, 1), "rerailing", oracles.member_rerailing
        expected = _first_difference(lambda w: oracles.member_rerailing(a, w),
                                     lambda w: oracle_b(b, w), nsym, 2, 4)
        assert bounded_equivalence(a, "rerailing", b, sem_b, 2, 4) == expected, k
        outcomes.add((sem_b, expected is None))
    assert len(outcomes) == 4


def _flipped_level(rng, level):
    """A co-Buchi level with the color of one transition flipped."""
    transitions = list(level.transitions)
    k = rng.randrange(len(transitions))
    (q, a, d, c) = transitions[k]
    transitions[k] = (q, a, d, 3 - c)
    return CoBuchiAutomaton(level.alphabet, level.state_count, transitions, level.initial)


def _pruned_level(rng, f):
    """A floating level with one safe transition removed."""
    delta = dict(f.delta)
    if delta:
        del delta[sorted(delta)[rng.randrange(len(delta))]]
    return FloatingAutomaton(f.alphabet, f.state_count, delta, f.labels, f.rlta)


def test_bounded_equivalence_chain_semantics_match_oracles():
    rng = random.Random(46)
    found = [0, 0]          # perturbed chains, perturbed floating chains told apart
    for k in range(24):
        nsym = 2 + k % 2
        dpw = oracles.random_dpw(rng, 2 + k % 4, nsym, 1 + k % 4)
        chain = decompose_rerailing(dpw)
        fchain = residualize_chain(chain)
        assert bounded_equivalence(chain, "chain", fchain, "floating", 2, 3) is None, k
        levels = list(chain.levels)
        j = rng.randrange(len(levels))
        levels[j] = _flipped_level(rng, levels[j])
        other = Chain(levels)
        expected = _first_difference(lambda w: oracles.chain_color(chain, w) % 2,
                                     lambda w: oracles.chain_color(other, w) % 2, nsym, 2, 3)
        assert bounded_equivalence(chain, "chain", other, "chain", 2, 3) == expected, k
        levels = list(fchain.levels)
        j = rng.randrange(len(levels))
        levels[j] = _pruned_level(rng, levels[j])
        other = FloatingChain(fchain.rlta, levels)
        expected_f = _first_difference(lambda w: oracles.floating_chain_color(fchain, w) % 2,
                                       lambda w: oracles.floating_chain_color(other, w) % 2,
                                       nsym, 2, 3)
        assert bounded_equivalence(fchain, "floating", other, "floating", 2, 3) == expected_f, k
        found[0] += expected is not None
        found[1] += expected_f is not None
    assert min(found) >= 8


def _outcome(fn, *args):
    """The result of fn(*args), or the error it raised with the last lasso enumerated."""
    seen = []
    enumerate_lassos = lasso_mod.enumerate_lassos

    def recording(*bounds):
        for w in enumerate_lassos(*bounds):
            seen.append(w)
            yield w

    lasso_mod.enumerate_lassos = recording
    try:
        return ("result", fn(*args))
    except ValueError as exc:
        return ("error", str(exc), seen[-1])
    finally:
        lasso_mod.enumerate_lassos = enumerate_lassos


def test_bounded_equivalence_on_partial_automata_fails_where_members_fail():
    rng = random.Random(44)
    kinds = set()
    for k in range(40):
        full = oracles.random_complete_automaton(rng, 2 + rng.randrange(3), 2,
                                                 1 + rng.randrange(4))
        a = _partial(rng, full)
        b = full if k % 2 else _partial(rng, full)

        def reference():
            return _first_difference(lambda w: member_rerailing(a, w),
                                     lambda w: member_rerailing(b, w), 2, 2, 4)
        expected = _outcome(reference)
        got = _outcome(bounded_equivalence, a, "rerailing", b, "rerailing", 2, 4)
        assert got == expected, k
        if expected[0] == "error":
            kinds.add("error")
        elif expected[1] is None:
            kinds.add("equivalent")
        elif all(_has_run(x, w) for x in (a, b) for w in enumerate_lassos(2, 2, 4)):
            kinds.add("witness")
        else:
            kinds.add("witness before an error")
    assert kinds == {"error", "equivalent", "witness", "witness before an error"}


def _has_run(aut, lasso):
    try:
        member_rerailing(aut, lasso)
    except ValueError:
        return False
    return True


def test_bounded_equivalence_color_semantics_match_members():
    rng = random.Random(45)
    for k in range(30):
        a = oracles.random_cobuchi_automaton(rng, 1 + rng.randrange(4), 2)
        b = _perturbed(rng, a, 1) if k % 3 else a
        for (sem, member) in [("parity-exists", member_parity_exists),
                              ("cobuchi", member_cobuchi)]:
            if sem == "cobuchi" and set(b.colors) - {1, 2}:
                with pytest.raises(ValueError, match="co-Buchi"):
                    bounded_equivalence(a, sem, b, sem, 2, 3)
                continue
            expected = _first_difference(lambda w: member(a, w), lambda w: member(b, w),
                                         2, 2, 3)
            assert bounded_equivalence(a, sem, b, sem, 2, 3) == expected, (k, sem)
