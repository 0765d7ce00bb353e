import gc
import random
import re
import sys
import string
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rerail.build import check_color_homogeneous
from rerail.cobuchi import CoBuchiAutomaton, decompose_rerailing, parse_chain, serialize_chain
from rerail.floating import parse_floating_chain, residualize_chain, serialize_floating_chain
from rerail.raf import (MAX_STATES, Alphabet, AutomatonStructure, RafError, equireach_relation,
                        parse_automaton, serialize_automaton, validate_complete)

import oracles


def small(transitions, states=2, symbols=("a", "b"), initial=0, names=None):
    return AutomatonStructure(Alphabet(symbols), states, transitions, initial,
                              state_names=names)


def test_alphabet_lookup():
    alph = Alphabet(("a", "b", "c"))
    assert len(alph) == 3
    assert alph.index("c") == 2
    with pytest.raises(ValueError):
        alph.index("z")


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_structure_accessors():
    aut = small([(0, 0, 1, 2), (0, 1, 0, 1), (1, 0, 0, 0), (1, 1, 1, 3)])
    assert aut.successor_states(0, 0) == [1]
    assert aut.successors(1, 1) == ((1, 3),)
    assert aut.max_color == 3
    assert aut.colors == (0, 1, 2, 3)
    assert aut.state_name(1) == "1"
    assert aut.reachable_states() == {0, 1}


def expected_rows(transitions, states, nsym):
    """The successor table of distinct `transitions` built as lists: (dst, color) pairs by dst."""
    rows = [[[] for _ in range(nsym)] for _ in range(states)]
    for (src, sym, dst, color) in sorted(set(transitions)):
        rows[src][sym].append((dst, color))
    return rows


@pytest.mark.parametrize("states, symbols, transitions", [
    (3, ("a", "b"), [(q, x, (q + x) % 3, q) for q in range(3) for x in range(2)]),
    (3, ("a", "b"), [(q, x, d, (q + d) % 3) for q in range(3) for x in range(2)
                     for d in (2 - q, (q + x) % 3) if (q, x) != (1, 1)]),
    (3000, ("a",), [(0, 0, d, d % 4) for d in range(2999, -1, -1)] * 2),
], ids=["deterministic", "fanout-2", "wide-reversed"])
def test_successor_rows_are_sorted_tuples_of_int_pairs(states, symbols, transitions):
    aut = small(transitions, states=states, symbols=symbols)
    assert [[list(row) for row in rows] for rows in aut._succ] == expected_rows(
        transitions, states, len(symbols))
    for q, rows in enumerate(aut._succ):
        assert type(rows) is tuple
        for x, row in enumerate(rows):
            assert type(row) is tuple
            assert all(type(pair) is tuple and type(pair[0]) is int and type(pair[1]) is int
                       for pair in row)
            assert aut.successors(q, x) is row


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's collector")
def test_successor_rows_leave_the_collector():
    """Rows hold ints only, so the collector stops tracking every state's row.

    A full collection untracks a tuple whose items are untracked and, as it
    meets a container before its items, one level of nesting at a time: the
    pairs, the cells, then the states' rows.
    """
    aut = small([(0, 0, 1, 2), (0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 0), (1, 1, 1, 3)])
    for _ in range(3):
        gc.collect()
    assert not any(gc.is_tracked(rows) for rows in aut._succ)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's object sizes")
def test_structure_keeps_one_table_of_moves():
    """The moves are held once, as successor rows, with no stored 4-tuple per transition."""
    rng = random.Random(7)
    transitions = [(q, x, rng.randrange(4096), rng.randrange(4))
                   for q in range(4096) for x in range(4)]
    tracemalloc.start()
    try:
        aut = small(transitions, states=4096, symbols=("a", "b", "c", "d"))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert "transitions" not in vars(aut)
    assert held / len(transitions) <= 160


def random_moves(rng, states, nsym, fanout, ncolors=4, cell_colored=False):
    """Transitions with 1..fanout distinct targets per (state, symbol), each cell
    of one color when `cell_colored`."""
    moves = []
    for q in range(states):
        for x in range(nsym):
            color = rng.randrange(ncolors)
            for d in rng.sample(range(states), rng.randint(1, min(fanout, states))):
                moves.append((q, x, d, color if cell_colored else rng.randrange(ncolors)))
    return moves


@pytest.mark.parametrize("fanout", [1, 2, 3])
@pytest.mark.parametrize("order", ["shuffled", "reversed", "duplicated"])
def test_transitions_view_is_the_sorted_distinct_quadruples(order, fanout):
    rng = random.Random("%s-%d" % (order, fanout))
    for _ in range(30):
        states, nsym = rng.randint(1, 8), rng.randint(1, 3)
        moves = random_moves(rng, states, nsym, fanout)
        given = {"shuffled": rng.sample(moves, len(moves)), "reversed": moves[::-1],
                 "duplicated": moves + rng.sample(moves, len(moves))}[order]
        aut = small(given, states=states, symbols=("a", "b", "c")[:nsym])
        assert aut.transitions == tuple(sorted(set(moves)))
        assert [[list(row) for row in rows] for rows in aut._succ] == expected_rows(
            moves, states, nsym)


def test_equality_compares_the_moves_not_their_order():
    rng = random.Random(27)
    for _ in range(60):
        states, nsym = rng.randint(4, 8), rng.randint(1, 3)
        symbols = ("a", "b", "c")[:nsym]
        moves = random_moves(rng, states, nsym, 3)
        aut = small(moves, states=states, symbols=symbols)
        assert aut == small(rng.sample(moves, len(moves)), states=states, symbols=symbols)
        assert aut == small(moves + moves[::-1], states=states, symbols=symbols)
        k = rng.randrange(len(moves))
        (q, x, d, c) = moves[k]
        free = [e for e in range(states) if (q, x, e) not in {m[:3] for m in moves}]
        for changed in [(q, x, d, c + 1), (q, x, rng.choice(free), c)]:
            other = moves[:k] + [changed] + moves[k + 1:]
            assert set(other) != set(moves)
            assert aut != small(other, states=states, symbols=symbols)
        assert aut != small(moves, states=states + 1, symbols=symbols)


def test_color_homogeneity_matches_a_check_over_transitions():
    rng = random.Random(31)
    verdicts = []
    for _ in range(200):
        states, nsym = rng.randint(1, 6), rng.randint(1, 3)
        moves = random_moves(rng, states, nsym, 3, ncolors=rng.randint(1, 3),
                             cell_colored=rng.random() < 0.5)
        colors = {}
        for (q, x, _d, c) in moves:
            colors.setdefault((q, x), set()).add(c)
        expected = all(len(cs) == 1 for cs in colors.values())
        aut = small(rng.sample(moves, len(moves)), states=states, symbols=("a", "b", "c")[:nsym])
        assert check_color_homogeneous(aut) == expected
        verdicts.append(expected)
    assert set(verdicts) == {True, False}


def test_structure_without_transitions_has_no_colors():
    aut = small([], states=3)
    assert aut.colors == ()
    assert aut.max_color == 0
    assert aut._succ == [((), ())] * 3


def test_structure_validation():
    with pytest.raises(ValueError):
        small([(0, 0, 5, 1)])
    with pytest.raises(ValueError):
        small([(0, 7, 1, 1)])
    with pytest.raises(ValueError):
        small([(0, 0, 1, -1)])
    with pytest.raises(ValueError):
        small([(0, 0, 1, 1), (0, 0, 1, 2)])
    with pytest.raises(ValueError):
        small([], initial=9)
    for stray in (2, -1):
        with pytest.raises(ValueError, match="missing state %d" % stray):
            small([], names={0: "x", stray: "y"})
    # same transition listed twice with one color is fine
    aut = small([(0, 0, 1, 1), (0, 0, 1, 1), (1, 0, 0, 1)])
    assert len(aut.transitions) == 2


@pytest.mark.parametrize("transitions,message", [
    ([(0, 0, 5, 1), (0, 0, 1, 1), (0, 0, 1, 2)], "transition endpoint out of range: (0, 0, 5, 1)"),
    ([(0, 0, 1, 1), (0, 0, 1, 2), (0, 7, 1, 1)], "conflicting colors for transition (0, 0, 1)"),
    ([(0, 0, 1, 1), (0, 0, 1, -1)], "negative color: (0, 0, 1, -1)"),
    ([(0, 0, 1, 1), (0, 0, 1, 1), (1, 5, 0, 1), (-1, 0, 0, 0)],
     "symbol index out of range: (1, 5, 0, 1)"),
    ([(1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 1, 3)], "conflicting colors for transition (1, 1, 1)"),
    ([[0, 0, 1, 1], [0, 1, 7, 1]], "transition endpoint out of range: (0, 1, 7, 1)"),
    ([[1, 0, 0, 2], [1, 0, 0, 3]], "conflicting colors for transition (1, 0, 0)"),
    (iter([(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 1, -2)]), "negative color: (1, 1, 1, -2)"),
])
def test_structure_reports_first_fault(transitions, message):
    with pytest.raises(ValueError) as err:
        small(transitions)
    assert str(err.value) == message


def test_duplicate_display_names_rejected():
    with pytest.raises(ValueError):
        small([(0, 0, 1, 1)], names={0: "x", 1: "x"})


def test_validate_complete():
    aut = small([(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1)])
    assert validate_complete(aut) == []
    partial = small([(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 1, 1)])
    assert validate_complete(partial) == [(0, 1)]


def test_parse_round_trip(hd5):
    text = serialize_automaton(hd5)
    again = parse_automaton(text)
    assert again == hd5
    assert serialize_automaton(again) == text


def test_parse_accepts_comments_and_names():
    text = """raf 1
# comment line
alphabet a b   # trailing comment
states 2
initial 1
name 0 "left"
trans 0 a 1 2
trans 1 a 0 2
trans 0 b 0 1
trans 1 b 1 1
"""
    aut = parse_automaton(text)
    assert aut.initial == 1
    assert aut.state_name(0) == "left"
    assert aut.state_name(1) == "1"


@pytest.mark.parametrize("text,hint", [
    ("", "header"),
    ("raf 2\nalphabet a\nstates 1\ninitial 0\n", "header"),
    ("raf 1\nstates 1\ninitial 0\n", "alphabet"),
    ("raf 1\nalphabet a\ninitial 0\n", "state count"),
    ("raf 1\nalphabet a\nstates 1\n", "initial"),
    ("raf 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n", "fields"),
    ("raf 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 z 0 1\n", "symbol"),
    ("raf 1\nalphabet a\nstates 1\ninitial 0\nname 0 unquoted\n", "quoted"),
    ("raf 1\nalphabet a\nstates 1\ninitial 0\nbogus 1\n", "directive"),
    ("raf 1\nalphabet a\nstates 2\ninitial 0\ntrans 0 a 1 1\ntrans 0 a 1 2\n",
     "conflicting"),
    ('raf 1\nalphabet a\nstates 1\ninitial 0\nname 3 "x"\ntrans 0 a 0 0\n',
     "missing state 3"),
    ('raf 1\nalphabet a\nstates 1\ninitial 0\nname -1 "x"\ntrans 0 a 0 0\n',
     "missing state -1"),
    ("raf 1\nalphabet a b\nstates 100000000000\ninitial 0\ntrans 0 a 0 0\n",
     "line 3: state count 100000000000 above the limit %d" % MAX_STATES),
    ("raf 1\nalphabet a\nstates 1\nstates 2\ninitial 0\ntrans 0 a 0 0\n",
     "line 4: duplicate states line"),
    ("raf 1\nalphabet a\nstates 2\ninitial 0\ninitial 1\ntrans 0 a 0 0\n",
     "line 5: duplicate initial line"),
    ("raf 1\nalphabet a\nalphabet b\nstates 1\ninitial 0\n", "line 3: duplicate alphabet line"),
    ("raf 1\nalphabet a a\nstates 1\ninitial 0\ntrans 0 a 0 0\n", "line 2: duplicate symbol 'a'"),
    ("raf 1\nalphabet\nstates 1\ninitial 0\n", "line 2: alphabet must not be empty"),
])
def test_parse_errors(text, hint):
    with pytest.raises(RafError) as err:
        parse_automaton(text)
    assert hint in str(err.value)


@pytest.mark.parametrize("text,line", [
    ("raf 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 z 0 1\n", 5),
    ("raf 1\nalphabet a\nstates 2\ninitial 0\ntrans 0 a 1 1\ntrans 0 a 1 2\n", 6),
    ("raf 1\n# symbols\nalphabet a a\nstates 1\ninitial 0\n", 3),
], ids=["unknown-symbol", "conflicting-colors", "duplicate-symbol"])
def test_raf_error_carries_line_number(text, line):
    with pytest.raises(RafError) as err:
        parse_automaton(text)
    assert err.value.line == line


def test_equireach_matches_subset_oracle(hd5):
    assert equireach_relation(hd5) == oracles.subset_equireach(hd5)


def test_equireach_on_randoms():
    rng = random.Random(7)
    for _ in range(40):
        aut = oracles.random_complete_automaton(rng, 1 + rng.randrange(5),
                                                2 + rng.randrange(2), 3)
        assert equireach_relation(aut) == oracles.subset_equireach(aut)


def test_serialization_is_deterministic(hd5):
    assert serialize_automaton(hd5) == serialize_automaton(hd5)


# Malformed texts of the three formats, each with the line number and
# message of the RafError it raises.  The format is the id's first word.
# Entries that break several rules at once pin the order of the checks.
H = "raf 1\nalphabet a b\nstates 2\ninitial 0\n"
T = "trans 0 a 1 1\ntrans 0 b 0 1\ntrans 1 a 1 2\ntrans 1 b 0 1\n"
LH = "alphabet a b\nstates 1\ninitial 0\n"
L1 = LH + "trans 0 a 0 2\ntrans 0 b 0 1\n"
C1 = "cocoa 1\ncount 1\nautomaton 1\n"
C2 = "cocoa 1\ncount 2\nautomaton 1\n" + L1 + "automaton 2\n"
R1 = "flochain 1\nrlta\nalphabet a\nstates 1\ninitial 0\n"
R = ("flochain 1\nrlta\nalphabet a b\nstates 2\ninitial 0\n"
     "trans 0 a 1\ntrans 0 b 0\ntrans 1 a 1\ntrans 1 b 0\n")
F = R + "floating 1\n"
R3 = "flochain 1\nrlta\nalphabet a b c\nstates 1\ninitial 0\ntrans 0 a 0\ntrans 0 b 0\ntrans 0 c 0\n"
FB = "states 2\nlabel 0 0\nlabel 1 1\n"
COUNT_EXPECTED = ("expected 'count <n>' with n >= 1, or 'count 0' followed by an 'alphabet' "
                  "line, after header")
PARSERS = {"raf": parse_automaton, "cocoa": parse_chain, "flochain": parse_floating_chain}

MALFORMED = [
    ("raf-empty", "",
     None, "expected 'raf 1' header"),
    ("raf-comment-only", "# nothing\n\n",
     None, "expected 'raf 1' header"),
    ("raf-bad-version", "raf 2\nalphabet a\nstates 1\ninitial 0\n",
     1, "expected 'raf 1' header"),
    ("raf-header-late", "alphabet a\nraf 1\n",
     1, "expected 'raf 1' header"),
    ("raf-missing-alphabet", "raf 1\nstates 1\ninitial 0\n",
     None, "missing alphabet"),
    ("raf-missing-states", "raf 1\nalphabet a\ninitial 0\n",
     None, "missing state count"),
    ("raf-missing-initial", "raf 1\nalphabet a\nstates 1\n",
     None, "missing initial state"),
    ("raf-unknown-directive", H + "bogus 1\n",
     5, "unknown directive 'bogus'"),
    ("raf-unknown-directive-before-trans", "raf 1\ncolors 3\n" + T,
     2, "unknown directive 'colors'"),
    ("raf-alphabet-empty", "raf 1\nalphabet\nstates 1\ninitial 0\n",
     2, "alphabet must not be empty"),
    ("raf-alphabet-duplicate-symbol", "raf 1\nalphabet a b a\nstates 1\ninitial 0\n",
     2, "duplicate symbol 'a'"),
    ("raf-alphabet-twice", "raf 1\nalphabet a\nalphabet b\nstates 1\ninitial 0\n",
     3, "duplicate alphabet line"),
    ("raf-states-word", "raf 1\nalphabet a\nstates two\ninitial 0\n",
     3, "bad state count 'two'"),
    ("raf-states-empty", "raf 1\nalphabet a\nstates\ninitial 0\n",
     3, "bad state count ''"),
    ("raf-states-above-limit", "raf 1\nalphabet a b\nstates 100000000000\ninitial 0\n",
     3, "state count 100000000000 above the limit 262144"),
    ("raf-states-twice", "raf 1\nalphabet a\nstates 1\nstates 2\ninitial 0\n",
     4, "duplicate states line"),
    ("raf-states-zero", "raf 1\nalphabet a\nstates 0\ninitial 0\n",
     3, "state_count must be positive"),
    ("raf-states-negative", "raf 1\nalphabet a\nstates -2\ninitial 0\n",
     3, "negative state count -2"),
    ("raf-states-times-symbols-above-limit",
     "raf 1\nalphabet %s\nstates 262144\ninitial 0\ntrans 0 s0 0 1\n"
     % " ".join("s%d" % k for k in range(200)),
     3, "262144 states times 200 symbols above the limit of 524288 cells"),
    ("raf-initial-word", "raf 1\nalphabet a\nstates 1\ninitial zero\n",
     4, "bad initial state 'zero'"),
    ("raf-initial-twice", "raf 1\nalphabet a\nstates 2\ninitial 0\ninitial 1\n",
     5, "duplicate initial line"),
    ("raf-initial-out-of-range", "raf 1\nalphabet a b\nstates 2\ninitial 5\n" + T,
     4, "initial state 5 out of range"),
    ("raf-initial-negative", "raf 1\nalphabet a b\nstates 2\ninitial -1\n" + T,
     4, "initial state -1 out of range"),
    ("raf-name-no-display", H + "name 0\n",
     5, "name needs a state and a quoted display string"),
    ("raf-name-bad-state", H + 'name zero "x"\n',
     5, "bad state index 'zero'"),
    ("raf-name-unquoted", H + "name 0 unquoted\n",
     5, "display name must be double-quoted"),
    ("raf-name-half-quoted", H + 'name 0 "x\n',
     5, "display name must be double-quoted"),
    ("raf-name-lone-quote", H + 'name 0 "\n',
     5, "display name must be double-quoted"),
    ("raf-name-hash", H + 'name 0 "a#b"\n' + T,
     5, "display name must be double-quoted"),
    ("raf-name-twice", H + 'name 0 "x"\nname 0 "y"\n' + T,
     6, "duplicate name for state 0"),
    ("raf-name-missing-state", H + T + 'name 3 "x"\n',
     9, "name given for missing state 3"),
    ("raf-name-negative-state", H + 'name -1 "x"\n' + T,
     5, "name given for missing state -1"),
    ("raf-name-two-strays", H + 'name 5 "x"\nname 3 "y"\n' + T,
     6, "name given for missing state 3"),
    ("raf-name-display-repeated", H + 'name 0 "x"\nname 1 "x"\n' + T,
     None, "state display names must be unique"),
    ("raf-trans-three-fields", H + "trans 0 a 1\n",
     5, "trans needs 4 fields"),
    ("raf-trans-five-fields", H + "trans 0 a 1 1 1\n",
     5, "trans needs 4 fields"),
    ("raf-trans-before-alphabet", "raf 1\nstates 2\ninitial 0\ntrans 0 a 1 1\n",
     4, "trans before alphabet"),
    ("raf-trans-bad-src", H + "trans x a 1 1\n",
     5, "bad transition fields 'x a 1 1'"),
    ("raf-trans-bad-dst", H + "trans 0 a y 1\n",
     5, "bad transition fields '0 a y 1'"),
    ("raf-trans-bad-color", H + "trans 0 a 1 z\n",
     5, "bad transition fields '0 a 1 z'"),
    ("raf-trans-unknown-symbol", H + "trans 0 c 1 1\n",
     5, "unknown symbol 'c'"),
    ("raf-trans-conflict", H + T + "trans 0 a 1 2\n",
     9, "conflicting colors for transition (0, 0, 1)"),
    ("raf-trans-repeat-ok-then-conflict", H + T + "trans 0 a 1 1\ntrans 0 a 1 3\n",
     10, "conflicting colors for transition (0, 0, 1)"),
    ("raf-trans-dst-out-of-range", H + "trans 0 a 1 1\ntrans 0 b 7 1\n",
     6, "transition endpoint out of range: (0, 1, 7, 1)"),
    ("raf-trans-src-out-of-range", H + T + "trans 2 a 0 1\n",
     9, "transition endpoint out of range: (2, 0, 0, 1)"),
    ("raf-trans-negative-src", H + "trans -1 a 0 1\n" + T,
     5, "transition endpoint out of range: (-1, 0, 0, 1)"),
    ("raf-trans-negative-color", H + T + "trans 0 a 0 -1\n",
     9, "negative color: (0, 0, 0, -1)"),
    ("raf-multi-count-and-before-alphabet", "raf 1\ntrans 0 a 1\nalphabet a\n",
     2, "trans needs 4 fields"),
    ("raf-multi-before-alphabet-and-bad-src", "raf 1\ntrans x a 1 1\nalphabet a\n",
     2, "trans before alphabet"),
    ("raf-multi-bad-src-and-unknown-symbol", H + "trans x c 1 1\n",
     5, "bad transition fields 'x c 1 1'"),
    ("raf-multi-bad-color-and-unknown-symbol", H + "trans 0 c 1 z\n",
     5, "bad transition fields '0 c 1 z'"),
    ("raf-multi-unknown-symbol-and-out-of-range", H + "trans 9 c 9 1\n",
     5, "unknown symbol 'c'"),
    ("raf-multi-conflict-then-directive", H + T + "trans 0 a 1 2\nbogus\n",
     9, "conflicting colors for transition (0, 0, 1)"),
    ("raf-multi-out-of-range-then-conflict", H + "trans 0 a 9 1\n" + T + "trans 0 a 1 2\n",
     10, "conflicting colors for transition (0, 0, 1)"),
    ("raf-multi-initial-and-endpoint", "raf 1\nalphabet a b\ntrans 0 a 9 1\nstates 2\ninitial 4\n",
     5, "initial state 4 out of range"),
    ("raf-multi-endpoint-and-stray-name", H + 'name 4 "x"\ntrans 0 a 1 1\ntrans 0 b 5 -1\n',
     7, "transition endpoint out of range: (0, 1, 5, -1)"),
    ("raf-multi-negative-color-before-endpoint", H + "trans 0 a 1 -3\ntrans 0 b 5 1\n",
     5, "negative color: (0, 0, 1, -3)"),
    ("raf-multi-states-zero-and-initial", "raf 1\nalphabet a\ninitial 3\nstates 0\n",
     4, "state_count must be positive"),
    ("raf-multi-duplicate-and-missing", "raf 1\nalphabet a\nalphabet a\n",
     3, "duplicate alphabet line"),
    ("raf-multi-fault-repeated", H + "trans 0 b 7 1\ntrans 1 a 0 -1\ntrans 0 b 7 1\n",
     5, "transition endpoint out of range: (0, 1, 7, 1)"),
    ("raf-multi-fault-repeated-after-good-lines", H + T + "trans 1 b 1 -4\n" + T
     + "trans 1 b 1 -4\n", 9, "negative color: (1, 1, 1, -4)"),
    ("raf-multi-comment-shifts-lines", "# head\nraf 1 # version\n\nalphabet a b\n\n"
      "states 2\ninitial 0\n# body\ntrans 0 a 3 1 # far\n",
     9, "transition endpoint out of range: (0, 0, 3, 1)"),
    ("cocoa-empty", "",
     None, "expected 'cocoa 1' header"),
    ("cocoa-bad-header", "cocoa 2\ncount 1\n",
     1, "expected 'cocoa 1' header"),
    ("cocoa-no-count", "cocoa 1\n",
     None, COUNT_EXPECTED),
    ("cocoa-count-word", "cocoa 1\ncount one\n",
     2, COUNT_EXPECTED),
    ("cocoa-count-negative", "cocoa 1\ncount -1\n",
     2, COUNT_EXPECTED),
    ("cocoa-count-fields", "cocoa 1\ncount 1 2\n",
     2, COUNT_EXPECTED),
    ("cocoa-count-zero-no-alphabet", "cocoa 1\ncount 0\n",
     2, COUNT_EXPECTED),
    ("cocoa-count-zero-bad-alphabet", "cocoa 1\ncount 0\nalphabet a a\n",
     3, "duplicate symbol 'a'"),
    ("cocoa-count-zero-trailing", "cocoa 1\ncount 0\nalphabet a\nstates 1\n",
     4, "trailing content after 0 chain blocks"),
    ("cocoa-count-one-with-alphabet", "cocoa 1\ncount 1\nalphabet a\n",
     3, "expected 'automaton 1' block"),
    ("cocoa-missing-block", "cocoa 1\ncount 1\n",
     None, "expected 'automaton 1' block"),
    ("cocoa-block-misnumbered", "cocoa 1\ncount 1\nautomaton 2\n" + L1,
     3, "chain blocks must be numbered consecutively from 1"),
    ("cocoa-block-word", "cocoa 1\ncount 1\nlevel 1\n" + L1,
     3, "expected 'automaton 1' block"),
    ("cocoa-second-block-missing", "cocoa 1\ncount 2\nautomaton 1\n" + L1,
     None, "expected 'automaton 2' block"),
    ("cocoa-trailing", C1 + L1 + "automaton 2\n" + L1,
     9, "trailing content after 1 chain blocks"),
    ("cocoa-level-missing-alphabet", C1 + "states 1\ninitial 0\n",
     None, "missing alphabet"),
    ("cocoa-level-header-inside", C1 + "raf 1\n" + L1,
     4, "unknown directive 'raf'"),
    ("cocoa-level-color-zero", C1 + LH + "trans 0 a 0 0\ntrans 0 b 0 1\n",
     None, "automaton 1: co-Buchi colors must be 1 or 2, found [0]"),
    ("cocoa-level-color-three", C2 + LH + "trans 0 a 0 3\ntrans 0 b 0 1\n",
     None, "automaton 2: co-Buchi colors must be 1 or 2, found [3]"),
    ("cocoa-level-incomplete", C2 + LH + "trans 0 a 0 2\n",
     None, "automaton 2: co-Buchi automaton incomplete at [(0, 1)]"),
    ("cocoa-level-unknown-symbol", C2 + LH + "trans 0 c 0 2\n",
     13, "unknown symbol 'c'"),
    ("cocoa-level-conflict", C1 + L1 + "trans 0 a 0 1\n",
     9, "conflicting colors for transition (0, 0, 0)"),
    ("cocoa-level-dst-out-of-range", C2 + LH + "trans 0 a 0 2\ntrans 0 b 4 2\n",
     14, "transition endpoint out of range: (0, 1, 4, 2)"),
    ("cocoa-level-initial-out-of-range", C1 + L1.replace("initial 0", "initial 1"),
     6, "initial state 1 out of range"),
    ("cocoa-level-states-zero", C1 + "alphabet a b\nstates 0\ninitial 0\n",
     5, "state_count must be positive"),
    ("cocoa-level-states-negative", C1 + "alphabet a b\nstates -1\ninitial 0\n",
     5, "negative state count -1"),
    ("cocoa-level-alphabet-differs", C2 + "alphabet a c\nstates 1\ninitial 0\n"
     "trans 0 a 0 2\ntrans 0 c 0 1\n",
     10, "automaton 2: alphabet a c differs from automaton 1's, a b"),
    ("cocoa-level-stray-name", C1 + L1 + 'name 1 "x"\n',
     9, "name given for missing state 1"),
    ("cocoa-level-display-repeated",
     C1 + 'alphabet a\nstates 2\ninitial 0\nname 0 "x"\nname 1 "x"\n'
     + "trans 0 a 1 2\ntrans 1 a 0 2\n",
     None, "automaton 1: state display names must be unique"),
    ("cocoa-multi-color-and-incomplete", C1 + LH + "trans 0 a 0 0\n",
     None, "automaton 1: co-Buchi colors must be 1 or 2, found [0]"),
    ("cocoa-multi-incomplete-and-later-directive", C2 + LH + "trans 0 a 0 2\nbogus\n",
     14, "unknown directive 'bogus'"),
    ("cocoa-multi-first-level-incomplete-second-bad",
     "cocoa 1\ncount 2\nautomaton 1\n" + LH + "trans 0 a 0 2\nautomaton 2\nbogus\n",
     None, "automaton 1: co-Buchi automaton incomplete at [(0, 1)]"),
    ("cocoa-multi-endpoint-and-color", C1 + LH + "trans 0 a 0 7\ntrans 0 b 3 2\n",
     8, "transition endpoint out of range: (0, 1, 3, 2)"),
    ("flochain-empty", "",
     None, "expected 'flochain 1' header"),
    ("flochain-bad-header", "flochain 2\nrlta\n",
     1, "expected 'flochain 1' header"),
    ("flochain-no-rlta", "flochain 1\nfloating 1\n",
     2, "expected 'rlta' block after header"),
    ("flochain-header-only", "flochain 1\n",
     None, "expected 'rlta' block after header"),
    ("flochain-rlta-colored-trans", R1 + "trans 0 a 0 1\n",
     6, "trans needs 3 fields"),
    ("flochain-rlta-missing-alphabet", "flochain 1\nrlta\nstates 1\ninitial 0\n",
     None, "missing alphabet"),
    ("flochain-rlta-unknown-symbol", R1 + "trans 0 b 0\n",
     6, "unknown symbol 'b'"),
    ("flochain-rlta-bad-fields", R1 + "trans 0 a q\n",
     6, "bad transition fields '0 a q'"),
    ("flochain-rlta-dst-out-of-range", R1 + "trans 0 a 2\n",
     6, "transition endpoint out of range: (0, 0, 2, 0)"),
    ("flochain-rlta-initial-out-of-range", R1.replace("initial 0", "initial 1") + "trans 0 a 0\n",
     5, "initial state 1 out of range"),
    ("flochain-rlta-stray-name", R1 + "name 2 \"x\"\ntrans 0 a 0\n",
     6, "name given for missing state 2"),
    ("flochain-rlta-nondeterministic",
     R1.replace("states 1", "states 2") + "trans 0 a 0\ntrans 0 a 1\ntrans 1 a 1\n",
     6, "tracker must be deterministic and complete; state 0 symbol a has 2 successors"),
    ("flochain-rlta-incomplete", R1.replace("alphabet a", "alphabet a b") + "trans 0 a 0\n",
     None, "rlta: tracker must be deterministic and complete; state 0 symbol b has 0 successors"),
    ("flochain-rlta-name-repeated",
     R1.replace("states 1", "states 2") + 'name 0 "x"\nname 1 "x"\ntrans 0 a 1\ntrans 1 a 0\n',
     None, "rlta: state display names must be unique"),
    ("flochain-block-misnumbered", R + "floating 2\n" + FB,
     10, "floating blocks must be numbered consecutively from 1"),
    ("flochain-block-word", R + "level 1\n" + FB,
     10, "unknown directive 'level'"),
    ("flochain-block-missing-states", F + "label 0 0\n",
     None, "floating block missing state count"),
    ("flochain-block-states-twice", F + FB + "states 2\n",
     14, "duplicate states line"),
    ("flochain-block-states-word", F + "states many\n",
     11, "bad state count 'many'"),
    ("flochain-block-states-above-limit", F + "states 999999999\n",
     11, "state count 999999999 above the limit 262144"),
    ("flochain-block-cells-above-limit", R3 + "floating 1\nstates 262144\nlabel 0 0\n",
     10, "262144 states times 3 symbols above the limit of 524288 cells"),
    ("flochain-block-unknown-directive", F + FB + "initial 0\n",
     14, "unknown directive 'initial'"),
    ("flochain-block-name-twice", F + FB + 'name 0 "x"\nname 0 "y"\n',
     15, "duplicate name for state 0"),
    ("flochain-block-name-unquoted", F + FB + "name 0 x\n",
     14, "display name must be double-quoted"),
    ("flochain-block-label-fields", F + "states 1\nlabel 0\n",
     12, "label needs a state and a tracker state"),
    ("flochain-block-label-word", F + "states 1\nlabel 0 zero\n",
     12, "bad label fields '0 zero'"),
    ("flochain-block-label-twice", F + FB + "label 0 1\n",
     14, "duplicate label for state 0"),
    ("flochain-block-trans-fields", F + FB + "trans 0 a 1 2\n",
     14, "trans needs 3 fields"),
    ("flochain-block-trans-bad-fields", F + FB + "trans 0 a one\n",
     14, "bad transition fields '0 a one'"),
    ("flochain-block-trans-unknown-symbol", F + FB + "trans 0 c 1\n",
     14, "unknown symbol 'c'"),
    ("flochain-block-trans-conflict", F + FB + "trans 0 a 1\ntrans 0 a 0\n",
     15, "conflicting targets for state 0 on a"),
    ("flochain-block-missing-labels", F + "states 3\nlabel 1 0\n",
     None, "floating states missing labels: [0, 2]"),
    ("flochain-block-stray-name", F + FB + 'name 0 "x"\nname 4 "y"\n',
     15, "name given for missing state 4"),
    ("flochain-block-stray-label", F + FB + "label 6 0\nlabel 5 1\n",
     15, "label given for missing state 5"),
    ("flochain-block-label-outside-tracker", F + "states 2\nlabel 0 0\nlabel 1 7\n",
     13, "residual label 7 outside the tracker"),
    ("flochain-block-trans-out-of-range", F + FB + "trans 0 a 1\ntrans 1 a 3\n",
     15, "transition (1, 0, 3) out of range"),
    ("flochain-block-trans-breaks-labels", F + FB + "trans 0 a 1\ntrans 0 b 1\n",
     15, "label of state 1 breaks tracker compatibility on symbol b"),
    ("flochain-block-states-negative", F + "states -1\ntrans 0 a 0\n",
     11, "negative state count -1"),
    ("flochain-multi-breaks-then-out-of-range", F + FB + "trans 0 b 1\ntrans 1 a 3\n",
     14, "label of state 1 breaks tracker compatibility on symbol b"),
    ("flochain-multi-out-of-range-then-label", F + "states 2\ntrans 0 a 5\nlabel 0 0\nlabel 1 9\n",
     14, "residual label 9 outside the tracker"),
    ("flochain-multi-conflict-then-directive", F + FB + "trans 0 a 1\ntrans 0 a 0\nbogus\n",
     15, "conflicting targets for state 0 on a"),
    ("flochain-multi-fault-repeated",
     F + FB + "trans 0 a 1\ntrans 1 b 1\ntrans 0 a 1\ntrans 1 b 1\n",
     15, "label of state 1 breaks tracker compatibility on symbol b"),
    ("flochain-multi-second-block",
     F + FB + "trans 0 a 1\nfloating 2\nstates 1\nlabel 0 0\ntrans 0 a 0\n",
     18, "label of state 0 breaks tracker compatibility on symbol a"),
]


@pytest.mark.parametrize("fmt,text,line,message",
                         [(case[0].split("-")[0],) + case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_text_error(fmt, text, line, message):
    with pytest.raises(RafError) as err:
        PARSERS[fmt](text)
    assert err.value.line == line
    assert str(err.value) == ("" if line is None else "line %d: " % line) + message


def test_successor_table_bound_refuses_before_allocating():
    """200 symbols and MAX_STATES states would ask for a successor table of
    52 million lists, about 3.4 GB; the text is refused having allocated
    next to nothing."""
    text = ("raf 1\nalphabet %s\nstates %d\ninitial 0\n"
            % (" ".join("s%d" % k for k in range(200)), MAX_STATES))
    tracemalloc.start()
    try:
        with pytest.raises(RafError) as err:
            parse_automaton(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == 3
    assert peak < 1 << 20


@pytest.mark.parametrize("symbol", ["a#b", "a.b", "a;b", "#", ";"])
def test_alphabet_refuses_reserved_characters(symbol):
    with pytest.raises(ValueError, match=re.escape(repr(symbol))):
        Alphabet((symbol, "c"))


@pytest.mark.parametrize("name", ["x#2", "#", "a\nb", "a\r", "tail\u2028"])
def test_state_names_refuse_what_a_name_line_cannot_carry(name):
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        small([(0, 0, 1, 1)], names={0: name})


def test_reserved_symbol_in_text_names_its_line():
    with pytest.raises(RafError) as err:
        parse_automaton("raf 1\nalphabet a.b c\nstates 1\ninitial 0\n")
    assert str(err.value) == "line 2: symbol 'a.b' holds a reserved character (# . ;)"


def test_cocoa_levels_are_built_once(monkeypatch, uniform_chain):
    text = serialize_chain(uniform_chain)
    built = []
    init = AutomatonStructure.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(AutomatonStructure, "__init__", counting_init)
    chain = parse_chain(text)
    assert len(chain) == 3
    assert built == [CoBuchiAutomaton] * 3


SYMBOL = st.text(string.ascii_letters + string.digits + "_|-+'\"@", min_size=1, max_size=3)
# Names a `name` line carries: no `#` and no line break of str.splitlines.
NAME = st.text(st.characters(blacklist_characters="#",
                             blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=5)


def _noisy_text(rng, header, trans_lines):
    """A raf text of these lines in a shuffled order, with comments, blank lines and spacing.

    The alphabet line (header[0]) stays ahead of every trans line.
    """
    body = header[1:] + trans_lines
    rng.shuffle(body)
    first_trans = min([body.index(t) for t in trans_lines], default=len(body))
    body.insert(rng.randint(0, first_trans), header[0])
    out = ["# generated", "raf 1"]
    for line in body:
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# note", "\t# indented note"]))
        line = line.replace(" ", rng.choice([" ", "  ", "\t"]), 1)
        out.append(line + rng.choice(["", "", " # trailing", "  "]))
    return "\n".join(out) + rng.choice(["", "\n", "\n\n"])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_parse_matches_direct_construction(data):
    symbols = data.draw(st.lists(SYMBOL, min_size=1, max_size=3, unique=True))
    n = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    colors = {}
    for _ in range(rng.randrange(12)):
        key = (rng.randrange(n), rng.randrange(len(symbols)), rng.randrange(n))
        colors.setdefault(key, rng.randrange(5))
    transitions = [key + (c,) for key, c in colors.items()]
    names = data.draw(st.dictionaries(st.integers(0, n - 1), NAME, max_size=n)
                      .filter(lambda d: len(set(d.values())) == len(d)))
    initial = rng.randrange(n)
    direct = AutomatonStructure(Alphabet(symbols), n, transitions, initial, names or None)
    header = ["alphabet " + " ".join(symbols), "states %d" % n, "initial %d" % initial]
    header += ['name %d "%s"' % (q, name) for q, name in names.items()]
    trans = ["trans %d %s %d %d" % (s, symbols[x], d, c) for (s, x, d, c) in transitions]
    trans += rng.sample(trans, rng.randint(0, len(trans)))       # repeated identical lines
    parsed = parse_automaton(_noisy_text(rng, header, trans))
    assert parsed == direct
    assert parsed.state_names == direct.state_names
    text = serialize_automaton(direct)
    assert serialize_automaton(parsed) == text
    assert serialize_automaton(parse_automaton(text)) == text


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_floating_blocks_parse_in_any_line_order(data):
    """The floating chain of a random DPW, each `floating` block rewritten with its lines
    shuffled, comments, blank lines, uneven spacing and repeated identical trans lines,
    parses back to the same chain: equal levels, names and labels."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    dpw = oracles.random_dpw(rng, data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)),
                             data.draw(st.integers(0, 4)))
    chain = residualize_chain(decompose_rerailing(dpw))
    lines = serialize_floating_chain(chain).splitlines()
    cut = [i for i, line in enumerate(lines) if line.startswith("floating ")] + [len(lines)]
    out = lines[:cut[0]]
    for begin, end in zip(cut, cut[1:]):
        block = lines[begin + 1:end]
        trans = [line for line in block if line.startswith("trans ")]
        block += rng.sample(trans, rng.randint(0, len(trans)))   # repeated identical lines
        rng.shuffle(block)
        out.append(lines[begin] + rng.choice(["", " # level"]))
        for line in block:
            if rng.random() < 0.2:
                out.append(rng.choice(["", "   ", "# note", "\t# indented note"]))
            fields = line.split(" ", 2) if line.startswith("name ") else line.split(" ")
            out.append(rng.choice(["", " ", "\t"]) + fields[0]
                       + "".join(rng.choice([" ", "  ", "\t"]) + f for f in fields[1:])
                       + rng.choice(["", "", " # trailing", "  "]))
    parsed = parse_floating_chain("\n".join(out) + "\n")
    assert parsed.rlta == chain.rlta
    assert parsed.levels == chain.levels
    # an empty level's names [] has no name line, so names compare as state_name shows them
    assert ([([f.state_name(q) for q in range(f.state_count)], f.labels) for f in parsed.levels]
            == [([f.state_name(q) for q in range(f.state_count)], f.labels)
                for f in chain.levels])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_faulty_transition_names_its_first_line(data):
    """One transition of a noisy text is given an endpoint out of range or a negative color,
    on every line that holds it; the RafError names the first of those lines, with the
    message of direct construction."""
    symbols = data.draw(st.lists(SYMBOL, min_size=1, max_size=3, unique=True))
    n = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    colors = {}
    for _ in range(1 + rng.randrange(12)):
        key = (rng.randrange(n), rng.randrange(len(symbols)), rng.randrange(n))
        colors.setdefault(key, rng.randrange(5))
    transitions = [key + (c,) for key, c in colors.items()]
    k = rng.randrange(len(transitions))
    (s, x, d, c) = transitions[k]
    fault = data.draw(st.sampled_from(["src", "dst", "color"]))
    far = data.draw(st.sampled_from([-3, -1, n, n + 4]))
    transitions[k] = {"src": (far, x, d, c), "dst": (s, x, far, c),
                      "color": (s, x, d, -1 - c)}[fault]
    initial = rng.randrange(n)
    with pytest.raises(ValueError) as direct:
        AutomatonStructure(Alphabet(symbols), n, transitions, initial)
    header = ["alphabet " + " ".join(symbols), "states %d" % n, "initial %d" % initial]
    trans = ["trans %d %s %d %d" % (s, symbols[x], d, c) for (s, x, d, c) in transitions]
    trans += rng.sample(trans, rng.randint(0, len(trans)))       # repeated identical lines
    text = _noisy_text(rng, header, trans)
    first = min(lineno for lineno, raw in enumerate(text.splitlines(), start=1)
                if raw.partition("#")[0].split() == trans[k].split())
    with pytest.raises(RafError) as err:
        parse_automaton(text)
    assert err.value.line == first
    assert str(err.value) == "line %d: %s" % (first, direct.value)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=3),
       st.lists(st.text(max_size=4), max_size=3), st.integers(0, 2 ** 32 - 1))
def test_every_accepted_automaton_round_trips(symbols, names, seed):
    rng = random.Random(seed)
    n = max(1, len(names))
    transitions = {(rng.randrange(n), rng.randrange(len(symbols)), rng.randrange(n)):
                   rng.randrange(4) for _ in range(rng.randrange(8))}
    try:
        aut = AutomatonStructure(Alphabet(symbols), n,
                                 [key + (c,) for key, c in transitions.items()], 0,
                                 dict(enumerate(names)))
    except ValueError:
        return                          # refused at construction: nothing to write
    text = serialize_automaton(aut)
    again = parse_automaton(text)
    assert again == aut
    assert (again.state_names or {}) == aut.state_names
    assert serialize_automaton(again) == text
