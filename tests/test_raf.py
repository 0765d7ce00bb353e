import random

import pytest

from rerail.raf import (MAX_STATES, Alphabet, AutomatonStructure, RafError,
                        UnreachableStatesError, equireach_relation,
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
    assert aut.successors(1, 1) == [(1, 3)]
    assert aut.max_color == 3
    assert aut.colors == [0, 1, 2, 3]
    assert aut.state_name(1) == "1"
    assert aut.reachable_states() == {0, 1}


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
])
def test_parse_errors(text, hint):
    with pytest.raises(RafError) as err:
        parse_automaton(text)
    assert hint in str(err.value)


@pytest.mark.parametrize("text,line", [
    ("raf 1\nalphabet a\nstates 1\ninitial 0\ntrans 0 z 0 1\n", 5),
    ("raf 1\nalphabet a\nstates 2\ninitial 0\ntrans 0 a 1 1\ntrans 0 a 1 2\n", 6),
], ids=["unknown-symbol", "conflicting-colors"])
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
        try:
            relation = equireach_relation(aut)
        except UnreachableStatesError:
            continue
        assert relation == oracles.subset_equireach(aut)


def test_equireach_reports_unreachable():
    aut = small([(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1)])
    with pytest.raises(UnreachableStatesError) as err:
        equireach_relation(aut)
    assert err.value.states == (1,)


def test_serialization_is_deterministic(hd5):
    assert serialize_automaton(hd5) == serialize_automaton(hd5)
