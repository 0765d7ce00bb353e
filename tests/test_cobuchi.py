import hashlib
import itertools
import random

import pytest

from rerail import build, cobuchi
from rerail.cobuchi import (Chain, CoBuchiAutomaton, Rlta, build_rlta_chain, compute_Rij,
                            decompose_rerailing, inclusion_table, parse_chain,
                            residual_tracking_single, serialize_chain)
from rerail.floating import residualize_chain
from rerail.lasso import enumerate_lassos, membership_function, parse_lasso
from rerail.raf import (Alphabet, AutomatonStructure, RafError, SiteError, parse_automaton,
                        serialize_automaton)

import oracles
from conftest import load_text

AB = Alphabet(("a", "b"))
ABCD = Alphabet(("a", "b", "c", "d"))


def universal(alphabet=AB):
    return CoBuchiAutomaton(alphabet, 1,
                            [(0, x, 0, 2) for x in range(len(alphabet))], 0)


def empty_language(alphabet=AB):
    return CoBuchiAutomaton(alphabet, 1,
                            [(0, x, 0, 1) for x in range(len(alphabet))], 0)


def test_padding_levels_are_built_once():
    # equal alphabets share one padding level per color
    level = cobuchi._one_state_level(AB, 2)
    assert cobuchi._one_state_level(Alphabet(("a", "b")), 2) is level
    assert level.transitions == universal().transitions
    assert cobuchi._one_state_level(AB, 1).transitions == empty_language().transitions


def test_cobuchi_rejects_other_colors():
    with pytest.raises(ValueError):
        CoBuchiAutomaton(AB, 1, [(0, 0, 0, 0), (0, 1, 0, 2)], 0)


def test_cobuchi_rejects_incomplete():
    with pytest.raises(ValueError):
        CoBuchiAutomaton(AB, 1, [(0, 0, 0, 2)], 0)


def test_accepting_successors(hd5):
    level = CoBuchiAutomaton(hd5.alphabet, hd5.state_count, hd5.transitions, hd5.initial)
    assert level.accepting_successors(0, 0) == [1]
    assert level.accepting_successors(0, 2) == []   # both c-moves are rejecting
    assert level.accepting_successors(3, 2) == [2]


def test_chain_basics(uniform_chain):
    assert len(uniform_chain) == 3
    assert uniform_chain.levels[0].state_count == 2
    assert uniform_chain.levels[1].state_count == 3
    assert uniform_chain.alphabet == ABCD


def test_chain_needs_shared_alphabet():
    with pytest.raises(ValueError):
        Chain([universal(AB), universal(Alphabet(("a", "c")))])
    with pytest.raises(ValueError):
        Chain([])
    assert len(Chain([], alphabet=AB)) == 0


def test_chain_refuses_a_level_that_is_not_cobuchi():
    plain = AutomatonStructure(AB, 1, [(0, 0, 0, 2), (0, 1, 0, 2)], 0)
    with pytest.raises(ValueError, match="chain level is not a CoBuchiAutomaton: "
                                         "AutomatonStructure"):
        Chain([universal(AB), plain])
    with pytest.raises(ValueError, match="CoBuchiAutomaton: str"):
        Chain(["level"], alphabet=AB)


def test_chain_colors_frozen(uniform_chain, level_color):
    color_of = level_color(uniform_chain.levels)
    in_chain = membership_function(uniform_chain, "chain")
    expected = {
        ";c": 3, ";d": 3, "d;c": 3,
        ";a": 2, ";b": 2, ";b.c": 2,
        ";c.a": 1,
        ";a.d": 0,
    }
    for text, color in expected.items():
        w = parse_lasso(text, ABCD)
        assert color_of(w) == color
        assert in_chain(w) == (color % 2 == 0)


def test_chain_color_matches_oracle(uniform_chain, level_color):
    color_of = level_color(uniform_chain.levels)
    for w in enumerate_lassos(4, 2, 2):
        assert color_of(w) == oracles.chain_color(uniform_chain, w)


def test_chain_roundtrip(uniform_chain):
    text = serialize_chain(uniform_chain)
    again = parse_chain(text)
    assert serialize_chain(again) == text
    assert len(again) == 3
    empty = serialize_chain(Chain([], alphabet=AB))
    assert empty == "cocoa 1\ncount 0\nalphabet a b\n"
    again = parse_chain(empty)
    assert len(again) == 0 and again.alphabet == AB


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
    ("cocoa 1\n", "expected 'count <n>'"),
    ("cocoa 1\ncountdown 1\n", "line 2: expected 'count <n>' with n >= 1"),
    ("cocoa 1\ncount 1 2\n", "line 2: expected 'count <n>' with n >= 1"),
    ("cocoa 1\ncount 0\n", "line 2: expected 'count <n>' with n >= 1"),
    ("cocoa 1\ncount -1\n", "line 2: expected 'count <n>' with n >= 1"),
    ("cocoa 1\ncount 0\nstates 1\n", "line 2: expected 'count <n>' with n >= 1"),
    ("cocoa 1\ncount 0\nalphabet a\nalphabet a\n", "line 4: trailing content"),
    ("cocoa 1\ncount 0\nalphabet a a\n", "line 3: duplicate symbol 'a'"),
    ("cocoa 1\ncount 1\nautomaton 1\nalphabet b b\nstates 1\ninitial 0\n",
     "line 4: duplicate symbol 'b'"),
    ("cocoa 1\ncount 1\nautomatonX 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0 2\n",
     "line 3: expected 'automaton 1' block"),
    ("cocoa 1\ncount 1\nautomaton 1 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0 2\n",
     "line 3: expected 'automaton 1' block"),
    ("cocoa 1\ncount 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0 2\n",
     "line 3: expected 'automaton 1' block"),
    ("cocoa 1\ncount 2\nautomaton 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0 2\n"
     "automaton 2\nstates 1\nalphabet b\ninitial 0\ntrans 0 b 0 2\n",
     "line 10: automaton 2: alphabet b differs from automaton 1's, a"),
])
def test_parse_chain_errors(text, hint):
    with pytest.raises(RafError) as err:
        parse_chain(text)
    assert hint in str(err.value)


def test_decompose_shape(minimal5):
    chain = decompose_rerailing(minimal5)
    assert len(chain) == minimal5.max_color == 3
    for level in chain.levels:
        assert isinstance(level, CoBuchiAutomaton)
        assert level.state_count == minimal5.state_count


def test_decompose_color_inhomogeneous_levels(level_color):
    # State 2 on b reaches state 0 with color 1 and state 1 with color 0, and
    # 0 is a mate of 1, so level 1 gets (2, b, 0) both as an accepting copy and
    # as a rejecting mate-move; the accepting copy is kept.
    aut = parse_automaton(load_text("inhomogeneous3.raf"))
    chain = decompose_rerailing(aut)
    assert (2, 1, 0, 2) in chain.levels[0].transitions
    assert (2, 1, 0, 1) not in chain.levels[0].transitions
    color_of = level_color(chain.levels)
    for w in enumerate_lassos(2, 4, 4):
        assert color_of(w) == max(oracles.dominating_colors(aut, w))


NOT_RERAILING3 = """raf 1
alphabet a b c
states 3
initial 0
trans 0 a 1 1
trans 0 a 2 1
trans 0 b 1 1
trans 0 c 0 1
trans 1 a 1 1
trans 1 b 1 1
trans 1 c 1 1
trans 2 a 2 1
trans 2 b 2 1
trans 2 c 2 2
"""


def test_decompose_level_claim_fails_on_a_non_rerailing_input():
    # a reaches 1 and 2 together, so 2 is a mate of 1, and level 2 moves on
    # b from 0 to 2, whose c-loop is accepting there; but the only run on
    # b;c stays in 1 with color 1.
    aut = parse_automaton(NOT_RERAILING3)
    w = parse_lasso("b;c", aut.alphabet)
    assert membership_function(decompose_rerailing(aut).levels[1], "cobuchi")(w)
    assert oracles.dominating_colors(aut, w) == {1}
    assert build.verify_rerailing_bounded(aut, 1, 1)


def test_decompose_requires_complete():
    partial = AutomatonStructure(AB, 1, [(0, 0, 0, 2)], 0)
    with pytest.raises(ValueError):
        decompose_rerailing(partial)


def test_decompose_color_is_max_dominating(minimal5, level_color):
    color_of = level_color(decompose_rerailing(minimal5).levels)
    for w in enumerate_lassos(4, 2, 2):
        assert color_of(w) == max(oracles.dominating_colors(minimal5, w))


def test_decompose_preserves_deterministic_languages():
    rng = random.Random(31)
    for _ in range(20):
        aut = oracles.random_dpw(rng, 1 + rng.randrange(5), 2, 4)
        chain = decompose_rerailing(aut)
        assert len(chain) == aut.max_color
        in_chain = membership_function(chain, "chain")
        for w in enumerate_lassos(2, 3, 3):
            assert in_chain(w) == oracles.member_parity_det(aut, w)


def test_residual_tracker_alternates(hd5):
    level = CoBuchiAutomaton(hd5.alphabet, hd5.state_count, hd5.transitions, hd5.initial)
    tracker, state_map = residual_tracking_single(level)
    assert state_map == [0, 1, 0, 1, 0]
    assert tracker.state_count == 2
    assert tracker.initial == 0
    assert tracker.delta == [[1, 1, 1], [0, 0, 0]]


def test_residual_tracker_rejects_language_nondeterminism():
    one = Alphabet(("a",))
    split = CoBuchiAutomaton(one, 2, [(0, 0, 0, 2), (0, 0, 1, 1), (1, 0, 1, 1)], 0)
    with pytest.raises(ValueError, match="not language-deterministic: states 0 and 1 "):
        residual_tracking_single(split)


def test_deterministic_level_is_its_own_tracker(monkeypatch):
    """A deterministic level is its own tracker and plays no letter game; a
    nondeterministic one plays one game, from the pairs its closure joins."""
    games = []
    letter_game = cobuchi._letter_game
    monkeypatch.setattr(cobuchi, "_letter_game",
                        lambda *args: games.append(args[4]) or letter_game(*args))
    rng = random.Random(35)
    for _ in range(20):
        aut = oracles.random_dpw(rng, 2 + rng.randrange(6), 2 + rng.randrange(2),
                                 1 + rng.randrange(4))
        for level in decompose_rerailing(aut).levels:
            tracker, state_map = residual_tracking_single(level)
            assert not games
            assert state_map == list(range(level.state_count))
            assert tracker.delta == [[d for ((d, _c),) in row] for row in level._succ]
            # the split joins the two copies of every state that a move enters
            entered = sorted({d for row in level._succ for ((d, _c),) in row})
            split_map = residual_tracking_single(oracles.split_states(level, CoBuchiAutomaton))[1]
            assert len(set(split_map)) == 2 * level.state_count - len(entered)
            assert all(split_map[2 * q] == split_map[2 * q + 1] for q in entered)
            assert games.pop() == [qs for q in entered
                                   for qs in ((2 * q + 1, 2 * q, 0, 0), (2 * q, 2 * q + 1, 0, 0))]
            assert not games


def mutual_inclusion_tracker(a):
    """The coarsest residual tracker of a level: its mutual-inclusion classes
    by `inclusion_table`, numbered by first match; a class whose members
    step into two classes refuses the level."""
    table = inclusion_table(a, a)
    openers, state_map = cobuchi._first_match_classes(
        range(a.state_count), lambda q, r: (q, r) in table and (r, q) in table)
    transitions = []
    for s in range(len(openers)):
        for x in range(len(a.alphabet)):
            targets = {state_map[d] for q, c in enumerate(state_map) if c == s
                       for d in a.successor_states(q, x)}
            if len(targets) != 1:
                raise ValueError("not language-deterministic")
            transitions.append((s, x, targets.pop(), 0))
    return Rlta(a.alphabet, len(openers), transitions, state_map[a.initial]), state_map


def test_tracker_rule_keeps_the_chain_tracker(monkeypatch, dpw_corpus):
    """The joint tracker depends only on the languages the level trackers
    track, so the least deterministic quotient of each level gives the same
    `build_rlta_chain` result as the coarsest one: on 200 DPWs, 40 split
    DPWs and the random chains of `test_random_chains_outputs_digest`,
    where the same chains are refused."""
    def both(chain):
        results = []
        for rule in (residual_tracking_single, mutual_inclusion_tracker):
            monkeypatch.setattr(cobuchi, "residual_tracking_single", rule)
            try:
                results.append(build_rlta_chain(chain)[0])
            except ValueError as exc:
                results.append(str(exc).split(":")[0])
        return results

    chains = [decompose_rerailing(aut) for aut in dpw_corpus]
    rng = random.Random(40)
    chains += [decompose_rerailing(oracles.split_states(oracles.random_dpw(
        rng, 2 + rng.randrange(4), 2, 1 + rng.randrange(3)))) for _ in range(40)]
    for chain in chains:
        fine, coarse = both(chain)
        assert isinstance(fine, Rlta) and fine == coarse
    rng = random.Random(3)
    built = 0
    for _ in range(300):
        levels = []
        for _k in range(1 + rng.randrange(3)):
            a = oracles.random_cobuchi_automaton(rng, 1 + rng.randrange(4), 2,
                                                 1 + rng.randrange(2))
            levels.append(CoBuchiAutomaton(a.alphabet, a.state_count, a.transitions, a.initial))
        fine, coarse = both(Chain(levels))
        assert fine == coarse
        built += isinstance(fine, Rlta)
    assert built >= 209


# Over {a, b}, states 0-3 accept the words with finitely many a or finitely many b
# by a guess at 0: 1 reads a forever, 2 reads b forever, 3 is a rejecting sink.
# States 4 and 5 accept the same words deterministically, by the last letter read.
LAST_CHANGE_GUESS = [(0, 0, 0, 1), (0, 0, 1, 2), (0, 1, 0, 1), (0, 1, 2, 2),
                     (1, 0, 1, 2), (1, 1, 3, 1), (2, 1, 2, 2), (2, 0, 3, 1),
                     (3, 0, 3, 1), (3, 1, 3, 1),
                     (4, 0, 4, 2), (4, 1, 5, 1), (5, 1, 5, 2), (5, 0, 4, 1)]


def test_inclusion_relation_is_a_preorder():
    """inclusion_table(a, a) is reflexive and transitive for any automaton, so
    residual_tracking_single's mutual-inclusion classes partition the states.
    Checked on seeded nondeterministic automata, alone and beside the guessing
    automaton, whose state 0 is not history-deterministic: it has the language
    of state 4, but player 0 wins the letter game from (4, 0) by playing a
    until player 1 leaves 0 for 1, as accepting a^omega needs, then b."""
    guess = AutomatonStructure(AB, 6, LAST_CHANGE_GUESS, 0)
    from_4 = AutomatonStructure(AB, 6, LAST_CHANGE_GUESS, 4)
    for w in enumerate_lassos(2, 3, 3):
        assert oracles.member_cobuchi(guess, w) == oracles.member_cobuchi(from_4, w), w
    table = inclusion_table(guess, guess)
    assert (0, 4) in table and (4, 0) not in table
    rng = random.Random(0x1C1)
    for k in range(100):
        a = oracles.random_cobuchi_automaton(rng, 1 + rng.randrange(4), 2, 3)
        n = a.state_count
        beside = AutomatonStructure(AB, n + 6, list(a.transitions) + [
            (q + n, x, d + n, c) for (q, x, d, c) in LAST_CHANGE_GUESS], 0)
        for aut in (a, beside):
            table = inclusion_table(aut, aut)
            states = range(aut.state_count)
            assert all((q, q) in table for q in states), k
            assert all((p, r) in table for (p, q) in table for r in states
                       if (q, r) in table), k


def test_rlta_validation():
    with pytest.raises(SiteError, match="state 1 symbol a has 0 successors") as err:
        Rlta(AB, 2, [(0, 0, 0, 0), (0, 1, 1, 0)], 0)
    assert err.value.site == ("trans", 1, 0)
    with pytest.raises(ValueError, match="state 0 symbol b has 0 successors"):
        Rlta(AB, 1, [(0, 0, 0, 0)], 0)
    with pytest.raises(ValueError, match="state 0 symbol a has 2 successors"):
        Rlta(AB, 2, [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0)], 0)
    with pytest.raises(ValueError, match="transition endpoint out of range"):
        Rlta(AB, 1, [(0, 0, 0, 0), (0, 1, 1, 0)], 0)
    with pytest.raises(ValueError, match="initial state 1 out of range"):
        Rlta(AB, 1, [(0, 0, 0, 0), (0, 1, 0, 0)], 1)


FLIP = [(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 0)]


def test_rlta_refuses_names_a_flochain_cannot_carry():
    with pytest.raises(ValueError, match="state display names must be unique"):
        Rlta(AB, 2, FLIP, 0, state_names={0: "x", 1: "x"})
    # state 1 is unnamed and shown as "1", which state 0's name repeats
    with pytest.raises(ValueError, match="state display names must be unique"):
        Rlta(AB, 2, FLIP, 0, state_names={0: "1"})
    partly = Rlta(AB, 2, FLIP, 0, state_names={0: "x"})
    assert [partly.state_name(q) for q in range(2)] == ["x", "1"]


def test_rlta_step_and_states_along():
    tracker = Rlta(AB, 2, FLIP, 0, state_names={0: "even", 1: "odd"})
    assert tracker.step(0, 0) == 1
    assert tracker.delta == [[1, 0], [0, 1]]
    assert tracker.state_name(1) == "odd"
    assert tracker == Rlta(AB, 2, FLIP, 0)
    assert tracker != Rlta(AB, 2, [(0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 1, 0)], 0)


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


def test_rising_chain_is_refused():
    """Levels 1 and 2 accept nothing and level 3 everything, so R_{0,3}
    separates the initial tuple, the first class opener, from itself."""
    with pytest.raises(ValueError, match="chain levels are not weakly falling: level 3 "
                                         "accepts a word that level 1 rejects"):
        residualize_chain(parse_chain(load_text("chain3_rising.chain")))


def test_random_chains_build_or_fail_cleanly():
    """Chains of random co-Buchi levels need not be language-deterministic or
    weakly falling; each builds a minimal automaton or ends in a ValueError or
    a RuntimeError, and some end in the refusal of rising levels."""
    rng = random.Random(3)
    built = refused = 0
    for _ in range(300):
        levels = []
        for _k in range(1 + rng.randrange(3)):
            a = oracles.random_cobuchi_automaton(rng, 1 + rng.randrange(4), 2,
                                                 1 + rng.randrange(2))
            levels.append(CoBuchiAutomaton(a.alphabet, a.state_count, a.transitions, a.initial))
        try:
            build.build_minimal(residualize_chain(Chain(levels)))
            built += 1
        except (ValueError, RuntimeError) as exc:
            refused += "chain levels are not weakly falling" in str(exc)
    assert built > 0 and refused > 0


# sha256 over the chains of test_random_chains_build_or_fail_cleanly: the
# serialize_automaton text of each built output, or the type and message of
# each refusal, in order
RANDOM_CHAINS_DIGEST = "f80255ae65e1e37448494fa0b5c6cfc2e9a1b3b53272843241642e2a1cd2d2f3"


def test_random_chains_outputs_digest():
    """The rebuild keeps its outputs and refusals on nondeterministic chains
    whose levels are neither normalized nor weakly falling."""
    rng = random.Random(3)
    digest = hashlib.sha256()
    built = 0
    for _ in range(300):
        levels = []
        for _k in range(1 + rng.randrange(3)):
            a = oracles.random_cobuchi_automaton(rng, 1 + rng.randrange(4), 2,
                                                 1 + rng.randrange(2))
            levels.append(CoBuchiAutomaton(a.alphabet, a.state_count, a.transitions, a.initial))
        try:
            text = serialize_automaton(build.build_minimal(residualize_chain(Chain(levels))))
            built += 1
        except (ValueError, RuntimeError) as exc:
            text = "%s: %s\n" % (type(exc).__name__, exc)
        digest.update(text.encode())
    assert built == 209
    assert digest.hexdigest() == RANDOM_CHAINS_DIGEST


def whole_rij(chain, trackers, i, j):
    """R_ij decided on the whole product of the tracker states of levels i, i+1, j, j+1."""
    sizes = [1] + [tracker.state_count for (tracker, _map) in trackers] + [1]
    return compute_Rij(chain, trackers, i, j,
                       itertools.product(*(range(sizes[k]) for k in (i, i + 1, j, j + 1))))


def test_compute_rij_bounds(collapse_chain):
    trackers = [residual_tracking_single(a) for a in collapse_chain.levels]
    with pytest.raises(ValueError):
        compute_Rij(collapse_chain, trackers, 0, 3, [])
    with pytest.raises(ValueError):
        compute_Rij(collapse_chain, trackers, -1, 0, [])


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
                rel = whole_rij(chain, trackers, i, j).tuples
                swapped = whole_rij(chain, trackers, j, i).tuples
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

    def recording(chain, trackers, i, j, domain):
        rel = compute_Rij(chain, trackers, i, j, domain)
        calls.append((chain, trackers, domain, rel))
        return rel

    def whole_relation(chain, trackers, i, j, _domain):
        return whole_rij(chain, trackers, i, j)

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
        whole = whole_rij(chain, trackers, i, j).tuples
        assert rel.tuples == whole & domain, (i, j)
        sizes = [1] + [tracker.state_count for (tracker, _map) in trackers] + [1]
        restricted += len(domain) < sizes[i] * sizes[i + 1] * sizes[j] * sizes[j + 1]
        if j == i + 1:
            mirrored = whole_rij(chain, trackers, j, i).tuples
            assert {(c, d, a, b) for (a, b, c, d) in mirrored} == whole
            assert not any(a == d for (a, _b, _c, d) in mirrored), (i, j)
    assert restricted > 0


@pytest.mark.parametrize("seed", [None, 30, 37])
def test_rij_verdict_is_one_per_tracker_class(collapse_chain, seed):
    """The letter game gives one verdict from every member combination of a
    tracker tuple, since the members of a class share one language, and it
    is the verdict of `compute_Rij`, which starts from one combination.

    The chain is `collapse_chain` for seed None, else that of the split of a
    4-state DPW: each of its tracker classes holds the two copies of a
    state, so the games run on parity arenas.
    """
    chain = collapse_chain if seed is None else decompose_rerailing(
        oracles.split_states(oracles.random_dpw(random.Random(seed), 4, 2, 3)))
    trackers = [residual_tracking_single(a) for a in chain.levels]
    n = len(chain)
    shared = 0
    for i in range(n + 1):
        for j in range(n + 1):
            if (i + j) % 2 == 0:
                continue
            levels = [cobuchi._levels(chain, trackers)[k] for k in (i, i + 1, j, j + 1)]
            members = [[[q for q, s in enumerate(m) if s == t] for t in range(len(d))]
                       for (_a, m, d) in levels]
            tuples = list(itertools.product(*(range(len(d)) for (_a, _m, d) in levels)))
            combos = {t: list(itertools.product(*(by[s] for by, s in zip(members, t))))
                      for t in tuples}
            won = cobuchi._letter_game(*(a for (a, _m, _d) in levels),
                                       [qs for t in tuples for qs in combos[t]])
            rel = compute_Rij(chain, trackers, i, j, tuples).tuples
            for t in tuples:
                assert {qs in won for qs in combos[t]} == {t in rel}, (i, j, t)
                shared += len(combos[t]) > 1
    assert shared > 0 or seed is None


def test_rij_starts_are_least_class_members(monkeypatch):
    """Each R_ij game that `build_rlta_chain` asks for starts a domain tuple
    from the least state of each of its four tracker classes.  On a DPW
    each level is its own tracker, so the starts are the domain tuples left
    after the twin filter, and a half at levels k, k + 1 with 1 <= k < n
    lies on the diagonal: those levels have one tracker, which the product
    steps alike.  So every kept tuple of a DPW is decided on the chain's
    pair graph, one search per (i, j), and no letter game is played.  The
    levels of its split are nondeterministic, so each kept tuple is a start
    of one letter game, from the least copies of its states, again on the
    diagonal."""
    games, searches, calls = [], [], []
    letter_game, pair_winners, compute = (cobuchi._letter_game, cobuchi._pair_winners,
                                          cobuchi.compute_Rij)

    def playing(*args):
        games.append(args[4])
        return letter_game(*args)

    def searching(graph, i, j):
        searches.append((i, j))
        return pair_winners(graph, i, j)

    def computing(chain, trackers, i, j, domain):
        del games[:], searches[:]       # the tracker games are played before
        rel = compute(chain, trackers, i, j, domain)
        calls.append((chain, trackers, i, j, domain, list(games), list(searches)))
        return rel

    monkeypatch.setattr(cobuchi, "_letter_game", playing)
    monkeypatch.setattr(cobuchi, "_pair_winners", searching)
    monkeypatch.setattr(cobuchi, "compute_Rij", computing)
    rng = random.Random(36)
    moved = 0
    for _ in range(15):
        dpw = oracles.random_dpw(rng, 2 + rng.randrange(6), 2, 1 + rng.randrange(4))
        for aut in (dpw, oracles.split_states(dpw)):
            del calls[:]
            build_rlta_chain(decompose_rerailing(aut))
            assert calls
            for (chain, trackers, i, j, domain, played, searched) in calls:
                n = len(chain)
                least = [[min(q for q, c in enumerate(m) if c == s) for s in range(len(d))]
                         for (_a, m, d) in cobuchi._levels(chain, trackers)]
                kept = [t for t in domain if not (j == i + 1 and t[1] == t[2])]
                starts = [tuple(least[k][s] for k, s in zip((i, i + 1, j, j + 1), t))
                          for t in kept]
                if aut is dpw:
                    assert starts == kept, (i, j)
                    assert (played, searched) == ([], [(i, j)] if kept else []), (i, j)
                else:
                    assert (played, searched) == ([starts] if kept else [], []), (i, j)
                for qs in starts:
                    assert not 1 <= i < n or qs[0] == qs[1], (i, j, qs)
                    assert not 1 <= j < n or qs[2] == qs[3], (i, j, qs)
                moved += starts != kept
    assert moved > 0


@pytest.mark.parametrize("aut, bound", [
    (oracles.random_dpw(random.Random(20), 20, 2, 3), 2_000),
    (oracles.split_states(oracles.random_dpw(random.Random(10), 10, 2, 3)), 13_000),
], ids=["dpw", "split"])
def test_letter_games_stay_small_at_twenty_states(monkeypatch, aut, bound):
    """Structural guard on the letter games: the positions of every game
    decided while minimizing `aut`, counted as the nodes of each graph
    search and the vertices of each parity arena.  On the DPW drawn with 20
    states each level is its own tracker, so the least class members of an
    R_ij tuple are the tuple itself, whose halves at two inner levels lie
    on the diagonal: all four games are decided on the chain's one pair
    graph, whose SCC searches count 312 positions in all (60 in the levels'
    own SCC passes, 252 in the pair searches).  A graph search per game
    built from its starts took 855, and the parity arenas that every game
    used to build took about 20,000.  The split of the DPW drawn
    with 10 states has nondeterministic levels, so its three tracker games
    and four R_ij games are parity arenas, with 12,567 vertices in all."""
    sizes = []
    solve, scc_decomposition = cobuchi.solve, cobuchi.scc_decomposition

    def solving(arena):
        sizes.append(arena.vertex_count)
        return solve(arena)

    def decomposing(node_count, adjacency):
        sizes.append(node_count)
        return scc_decomposition(node_count, adjacency)

    monkeypatch.setattr(cobuchi, "solve", solving)
    monkeypatch.setattr(cobuchi, "scc_decomposition", decomposing)
    build.minimize_rerailing(aut)
    assert 0 < sum(sizes) < bound


def split_states(level):
    """`level` with each state q split into the copies 2q and 2q + 1 of its
    language: every move goes to both copies of its target, so the level is
    nondeterministic but still history-deterministic."""
    return oracles.split_states(level, CoBuchiAutomaton)


def test_arena_start_without_a_move_loses():
    """A round start whose every symbol is a twin step has no move in the
    parity arena, and player 0 loses there; with moves it wins the same
    start, on a word accepted from qi and qj but not from qi1 or qj1."""
    # state 0 accepts nothing, state 1 everything
    level = split_states(CoBuchiAutomaton(AB, 2, [(q, x, q, 1 + q) for q in (0, 1)
                                                  for x in (0, 1)], 0))
    start = (0, 0, 2, 0)        # qi1 is a copy of state 0, qj one of state 1
    game = (universal(), level, level, split_states(empty_language()), [start])
    assert cobuchi._arena_winners(*game, None) == {start}
    assert cobuchi._arena_winners(*game, [[q // 2] * 2 for q in range(4)]) == {start}
    assert cobuchi._arena_winners(*game, [[0] * 2 for q in range(4)]) == set()


# Two levels over one deterministic δ whose initial states differ, so most
# tuples that `build_rlta_chain` asks about lie off the diagonal
SHARED_DELTA_CHAIN = """cocoa 1
count 2
automaton 1
alphabet a b
states 3
initial 0
trans 0 a 1 2
trans 0 b 0 1
trans 1 a 0 1
trans 1 b 2 2
trans 2 a 2 2
trans 2 b 2 2
automaton 2
alphabet a b
states 3
initial 1
trans 0 a 1 2
trans 0 b 0 1
trans 1 a 0 1
trans 1 b 2 1
trans 2 a 2 1
trans 2 b 2 2
"""


def pair_graph_agrees(chain):
    """For every (i, j), the pair graph's winners are the nodes whose start
    (p, p, q, q) the letter game wins; at the padding levels 0 and n + 1
    the start holds their one state in place of p or q."""
    trackers = [residual_tracking_single(a) for a in chain.levels]
    every = cobuchi._levels(chain, trackers)
    graph = chain._pair_graph
    n, size = len(chain), graph[0]
    for i in range(n + 1):
        for j in range(n + 1):
            starts = {(0 if i == 0 else p, 0 if i == n else p, 0 if j == 0 else q,
                       0 if j == n else q): p * size + q
                      for p in range(size) for q in range(size)}
            won = cobuchi._letter_game(*(every[k][0] for k in (i, i + 1, j, j + 1)), starts)
            assert cobuchi._pair_winners(graph, i, j) == {starts[qs] for qs in won}, (i, j)


def test_graph_and_arena_deciders_agree(monkeypatch):
    """The letter game is a graph search when both resolver levels are
    deterministic and a parity game otherwise.  Splitting the states of the
    deterministic levels forces the parity game on the same question, and
    both give the same winners: for every R_ij game of a few DPW chains
    (R_{i,i+1} with its twin step) and for inclusion with a nondeterministic
    left-hand side.

    The third decider, the pair graph of a chain whose levels share one
    deterministic δ, gives the letter game's verdict on every diagonal
    start of every (i, j): on those DPW chains, on the rising chain and on
    `SHARED_DELTA_CHAIN`.  On the last, whose levels start apart,
    `build_rlta_chain` still plays letter games for its off-diagonal tuples
    and builds the tracker it built when every tuple was a letter game."""
    arenas = []
    solve = cobuchi.solve
    monkeypatch.setattr(cobuchi, "solve", lambda arena: arenas.append(arena) or solve(arena))

    def both(ai, ai1, aj, aj1, starts, twin_step=None):
        """The winners through each decider, the split levels' mapped back."""
        del arenas[:]
        graph = cobuchi._letter_game(ai, ai1, aj, aj1, starts, twin_step)
        assert not arenas
        if twin_step is None:
            split_i1, split_j = split_states(ai1), aj
            copy = [(q, 2 * r + rng.randrange(2), s, 2 * t + rng.randrange(2))
                    for (q, r, s, t) in starts]
        else:                           # `ai1` and `aj` are one level, split alike
            split_i1 = split_j = split_states(ai1)
            twin_step = [row for row in twin_step for _copy in (0, 1)]
            copy = [(q, 2 * r + rng.randrange(2), 2 * s + rng.randrange(2),
                     2 * t + rng.randrange(2)) for (q, r, s, t) in starts]
        won = cobuchi._letter_game(ai, split_i1, split_j, split_states(aj1), copy, twin_step)
        assert arenas
        return graph, {qs for qs, c in zip(starts, copy) if c in won}

    rng = random.Random(18)
    games = twins = wins = 0
    for _ in range(15):
        chain = decompose_rerailing(oracles.random_dpw(rng, 2 + rng.randrange(4), 2,
                                                       1 + rng.randrange(4)))
        pair_graph_agrees(chain)
        trackers = [residual_tracking_single(a) for a in chain.levels]
        for i in range(len(chain) + 1):
            for j in range(len(chain) + 1):
                if (i + j) % 2 == 0:
                    continue
                levels = [cobuchi._levels(chain, trackers)[k] for k in (i, i + 1, j, j + 1)]
                auts = [a for (a, _m, _d) in levels]
                (_a, m, d) = levels[1]
                starts = list(itertools.product(*(range(a.state_count) for a in auts)))
                graph, arena = both(*auts, starts, [d[s] for s in m] if j == i + 1 else None)
                assert graph == arena, (i, j)
                games += 1
                twins += j == i + 1
                wins += len(graph)
        a = oracles.random_cobuchi_automaton(rng, 1 + rng.randrange(4), 2)
        b = chain.levels[-1]
        starts = [(p, q, 0, 0) for p in range(a.state_count) for q in range(b.state_count)]
        graph, arena = both(a, b, universal(), empty_language(), starts)
        assert graph == arena
        assert inclusion_table(a, b) == {(p, q) for (p, q, _u, _e) in starts
                                         if (p, q, 0, 0) not in arena}
    assert games > 50 and twins > 20 and wins > 0
    pair_graph_agrees(parse_chain(load_text("chain3_rising.chain")))
    shared = parse_chain(SHARED_DELTA_CHAIN)
    pair_graph_agrees(shared)
    played = []
    letter_game = cobuchi._letter_game
    monkeypatch.setattr(cobuchi, "_letter_game",
                        lambda *args: played.append(args[4]) or letter_game(*args))
    rlta, tuples = build_rlta_chain(shared)
    assert played and all(qs[0] != qs[1] or qs[2] != qs[3] for starts in played for qs in starts)
    assert rlta.delta == [[1, 2], [0, 3], [4, 2], [5, 3], [2, 6], [3, 6], [6, 6]]
    assert tuples == ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2))


def test_inclusion_tiny():
    u, e = universal(), empty_language()
    assert (0, 0) in inclusion_table(e, u)
    assert (0, 0) in inclusion_table(u, u)
    assert (0, 0) not in inclusion_table(u, e)


def test_inclusion_needs_a_common_alphabet():
    with pytest.raises(ValueError, match="^inclusion needs a common alphabet$"):
        inclusion_table(universal(), universal(ABCD))


def test_inclusion_classes_on_hd_example(hd5):
    level = CoBuchiAutomaton(hd5.alphabet, hd5.state_count, hd5.transitions, hd5.initial)
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
        assert (b.initial, b.initial) in inclusion_table(b, b)
        if (a.initial, b.initial) in inclusion_table(a, b):
            for w in enumerate_lassos(2, 3, 3):
                assert (not oracles.member_cobuchi(a, w)) or oracles.member_cobuchi(b, w)
