import os
import random
import time

import pytest

from rerail.build import minimize_rerailing
from rerail.cobuchi import parse_chain
from rerail.floating import parse_floating_chain
from rerail.lasso import membership_function
from rerail.raf import parse_automaton

import oracles

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def load_text(name):
    with open(data_path(name), "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="session")
def level_color():
    """Binder of the chain color over co-Buchi levels, one "cobuchi" binder per level.

    level_color(automata) is the function giving a lasso its greatest 1-based
    accepting level, 0 when no level accepts it.
    """
    def bind(automata):
        members = [(i, membership_function(a, "cobuchi"))
                   for i, a in enumerate(automata, start=1)]
        return lambda w: max((i for (i, member) in members if member(w)), default=0)
    return bind


@pytest.fixture(scope="session")
def hd5():
    """Five-state history-deterministic co-Buchi automaton."""
    return parse_automaton(load_text("hd_cobuchi5.raf"))


@pytest.fixture(scope="session")
def uniform_chain():
    """Three-level chain with a uniform residual language (cocoa format)."""
    return parse_chain(load_text("chain3_uniform.chain"))


@pytest.fixture(scope="session")
def uniform_flochain():
    """The same chain as a floating chain over a one-state tracker."""
    return parse_floating_chain(load_text("chain3_uniform.flochain"))


@pytest.fixture(scope="session")
def minimal5():
    """Published five-state minimal rerailing automaton."""
    return parse_automaton(load_text("minimal_rerail5.raf"))


@pytest.fixture(scope="session")
def collapse_chain():
    """Two-level chain whose joint residual tracker collapses to one state."""
    return parse_chain(load_text("chain2_collapse.chain"))


@pytest.fixture(scope="session")
def dpw_corpus():
    """200 random complete DPWs within the acceptance-size envelope.

    At most 6 states, at most 3 symbols, colors at most 4; two-symbol
    instances dominate to keep the bounded-lasso sweeps affordable.
    """
    rng = random.Random(0xC0C0A)
    corpus = []
    for k in range(200):
        n_states = 2 + rng.randrange(5)
        n_symbols = 3 if k % 10 < 3 else 2
        max_color = rng.randrange(5)
        corpus.append(oracles.random_dpw(rng, n_states, n_symbols, max_color))
    return corpus


@pytest.fixture(scope="session")
def minimized_corpus(dpw_corpus):
    """(outputs, elapsed seconds) of minimize_rerailing over the corpus."""
    start = time.perf_counter()
    outputs = [minimize_rerailing(a) for a in dpw_corpus]
    return outputs, time.perf_counter() - start
