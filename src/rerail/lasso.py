"""Ultimately periodic words, lasso products, and membership oracles.

A lasso word stem . cycle^omega is the universal finite test vehicle here:
all membership semantics are decided on the finite product of an automaton
with the lasso's positions.
"""

from __future__ import annotations

import importlib
import itertools
from dataclasses import dataclass
from functools import lru_cache

from .scc import scc_decomposition


@dataclass(frozen=True)
class LassoWord:
    """An ultimately periodic word given by symbol-index tuples (stem, cycle)."""

    stem: tuple
    cycle: tuple

    def __post_init__(self):
        object.__setattr__(self, "stem", tuple(self.stem))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise ValueError("lasso cycle must not be empty")

    def canonical(self):
        """Unique normal form: primitive cycle, shortest stem.

        Two lassos denote the same word iff their canonical forms are equal.
        """
        cyc = self.cycle
        n = len(cyc)
        for d in range(1, n + 1):
            if n % d == 0 and cyc == cyc[:d] * (n // d):
                cyc = cyc[:d]
                break
        stem = list(self.stem)
        cyc = list(cyc)
        while stem and stem[-1] == cyc[-1]:
            stem.pop()
            cyc.insert(0, cyc.pop())
        return LassoWord(tuple(stem), tuple(cyc))

    def letter_at(self, k):
        if k < len(self.stem):
            return self.stem[k]
        return self.cycle[(k - len(self.stem)) % len(self.cycle)]

    def prefixed(self, symbols):
        """The lasso for symbols . self (stem extension)."""
        return LassoWord(tuple(symbols) + self.stem, self.cycle)


def parse_lasso(text, alphabet):
    """Parse "sym.sym;sym.sym" notation; the part before ';' (the stem) may be empty."""
    if text.count(";") != 1:
        raise ValueError("lasso must contain exactly one ';' separating stem and cycle")
    stem_text, cycle_text = text.split(";")

    def part(chunk):
        chunk = chunk.strip()
        if not chunk:
            return ()
        return tuple(alphabet.index(tok) for tok in chunk.split("."))

    stem = part(stem_text)
    cycle = part(cycle_text)
    if not cycle:
        raise ValueError("lasso cycle must not be empty")
    return LassoWord(stem, cycle)


def format_lasso(lasso, alphabet):
    stem = ".".join(alphabet.symbols[s] for s in lasso.stem)
    cycle = ".".join(alphabet.symbols[s] for s in lasso.cycle)
    return "%s;%s" % (stem, cycle)


@lru_cache(maxsize=32)
def _canonical_lassos(n_symbols, stem_bound, cycle_bound):
    result = []
    rng = range(n_symbols)
    for slen in range(stem_bound + 1):
        for stem in itertools.product(rng, repeat=slen):
            for clen in range(1, cycle_bound + 1):
                for cyc in itertools.product(rng, repeat=clen):
                    w = LassoWord(stem, cyc)
                    if w.canonical() == w:
                        result.append(w)
    return tuple(result)


def enumerate_lassos(n_symbols, stem_bound, cycle_bound):
    """All distinct ultimately periodic words within the bounds.

    Yields canonical forms only, ordered by stem length, stem, cycle length,
    cycle; "first" counterexamples throughout the package refer to this order.
    """
    return iter(_canonical_lassos(n_symbols, stem_bound, cycle_bound))


class LassoProduct:
    """Finite (state, position) graph of an automaton run over a lasso.

    Positions 0..len(stem)+len(cycle)-1 index the letter about to be read;
    the last position wraps back to the start of the cycle.  Only the part
    reachable from (initial, 0) carries adjacency.
    """

    def __init__(self, aut, lasso):
        lasso = lasso.canonical()
        self.aut = aut
        self.lasso = lasso
        self.period_start = len(lasso.stem)
        self.letters = lasso.stem + lasso.cycle
        self.length = len(self.letters)
        self.initial_node = self._node(aut.initial, 0)
        adjacency = {}
        todo = [self.initial_node]
        while todo:
            node = todo.pop()
            if node in adjacency:
                continue
            state, pos = self.node_state(node), self.node_position(node)
            letter = self.letters[pos]
            nxt = pos + 1 if pos + 1 < self.length else self.period_start
            children = tuple((self._node(dst, nxt), color)
                             for (dst, color) in aut.successors(state, letter))
            adjacency[node] = children
            for (child, _c) in children:
                if child not in adjacency:
                    todo.append(child)
        self.adjacency = adjacency
        self._analysis = None

    def _node(self, state, pos):
        return state * self.length + pos

    def node(self, state, pos):
        return self._node(state, pos)

    def node_state(self, node):
        return node // self.length

    def node_position(self, node):
        return node % self.length

    def is_reachable(self, node):
        return node in self.adjacency

    @property
    def reachable_nodes(self):
        return self.adjacency.keys()

    def analysis(self):
        if self._analysis is None:
            self._analysis = _ProductAnalysis(self)
        return self._analysis


def cycle_minima(edges):
    """Colors c such that some strongly connected subset of `edges` has minimum c.

    Equivalently the minima of simple cycles: computed by repeatedly splitting
    into strongly connected edge sets and recursing above each set's minimum.
    """
    result = set()
    stack = [list(edges)]
    while stack:
        current = stack.pop()
        if not current:
            continue
        for comp_edges in _scc_edge_sets(current):
            c0 = min(c for (_u, _v, c) in comp_edges)
            result.add(c0)
            above = [e for e in comp_edges if e[2] > c0]
            if above:
                stack.append(above)
    return result


def _scc_edge_sets(edges):
    nodes = {}
    for (u, v, _c) in edges:
        if u not in nodes:
            nodes[u] = len(nodes)
        if v not in nodes:
            nodes[v] = len(nodes)
    adj = [[] for _ in range(len(nodes))]
    for (u, v, _c) in edges:
        adj[nodes[u]].append(nodes[v])
    dec = scc_decomposition(len(nodes), adj)
    buckets = [[] for _ in dec.components]
    comp_of = dec.component_of
    for (u, v, c) in edges:
        cu = comp_of[nodes[u]]
        if cu == comp_of[nodes[v]]:
            buckets[cu].append((u, v, c))
    return [b for b in buckets if b]


class _ProductAnalysis:
    """Per-component achievable dominating colors plus condensation closure."""

    def __init__(self, product):
        nodes = sorted(product.adjacency)
        compact = {node: i for i, node in enumerate(nodes)}
        adj = [[] for _ in nodes]
        edges = [[] for _ in nodes]
        for node, children in product.adjacency.items():
            i = compact[node]
            for (child, color) in children:
                adj[i].append(compact[child])
                edges[i].append((compact[child], color))
        dec = scc_decomposition(len(nodes), adj)
        comp_count = len(dec.components)
        internal = [[] for _ in range(comp_count)]
        succ_comps = [set() for _ in range(comp_count)]
        for i in range(len(nodes)):
            ci = dec.component_of[i]
            for (j, color) in edges[i]:
                cj = dec.component_of[j]
                if ci == cj:
                    internal[ci].append((i, j, color))
                else:
                    succ_comps[ci].add(cj)
        own = [frozenset(cycle_minima(internal[c])) if internal[c] else frozenset()
               for c in range(comp_count)]
        reach = [None] * comp_count
        uniform = [None] * comp_count
        # topo_order lists components sinks-first, so successors are done first
        for c in dec.topo_order:
            acc = set(own[c])
            for s in succ_comps[c]:
                acc |= reach[s]
            reach[c] = frozenset(acc)
            uni = set()
            if len(reach[c]) == 1:
                uni |= reach[c]
            for s in succ_comps[c]:
                uni |= uniform[s]
            uniform[c] = frozenset(uni)
        self._compact = compact
        self._component_of = dec.component_of
        self._reach = reach
        self._uniform = uniform

    def achievable(self, node):
        return self._reach[self._component_of[self._compact[node]]]

    def uniform_reachable(self, node):
        """Colors c such that some node u reachable from `node` has achievable set {c}."""
        return self._uniform[self._component_of[self._compact[node]]]


def achievable_dominating_colors(product, node):
    """Dominating colors of runs continuing from a reachable product node.

    A color c is achievable iff some reachable strongly connected edge set has
    minimum color exactly c, i.e. some run from `node` visits exactly such a
    set of transitions infinitely often.
    """
    if not product.is_reachable(node):
        raise ValueError("node %d is not reachable in the lasso product" % node)
    return product.analysis().achievable(node)


def member_rerailing(aut, lasso):
    """Word acceptance with max-over-runs semantics.

    The word is accepted iff the maximum over the dominating colors of all its
    runs is even.
    """
    product = LassoProduct(aut, lasso)
    colors = achievable_dominating_colors(product, product.initial_node)
    if not colors:
        raise ValueError("no infinite run: automaton incomplete along the lasso")
    return max(colors) % 2 == 0


def member_parity_exists(aut, lasso):
    """True iff some run's dominating color is even (nondeterministic min-parity)."""
    product = LassoProduct(aut, lasso)
    colors = achievable_dominating_colors(product, product.initial_node)
    if not colors:
        raise ValueError("no infinite run: automaton incomplete along the lasso")
    return any(c % 2 == 0 for c in colors)


def member_parity_det(aut, lasso):
    """Dominating color parity of the unique run of a deterministic automaton."""
    lasso = lasso.canonical()
    period_start = len(lasso.stem)
    letters = lasso.stem + lasso.cycle
    length = len(letters)
    state = aut.initial
    pos = 0
    first_seen = {}
    trail = []
    while (state, pos) not in first_seen:
        first_seen[(state, pos)] = len(trail)
        succ = aut.successors(state, letters[pos])
        if len(succ) != 1:
            raise ValueError("automaton is not deterministic at state %d, symbol %d"
                             % (state, letters[pos]))
        (dst, color) = succ[0]
        trail.append(color)
        state = dst
        pos = pos + 1 if pos + 1 < length else period_start
    loop_start = first_seen[(state, pos)]
    dominating = min(trail[loop_start:])
    return dominating % 2 == 0


def member_cobuchi(aut, lasso):
    """Co-Buchi acceptance: some run eventually takes only color-2 transitions."""
    bad = {c for c in aut.colors if c not in (1, 2)}
    if bad:
        raise ValueError("co-Buchi automata use colors 1 and 2 only, found %s" % sorted(bad))
    product = LassoProduct(aut, lasso)
    colors = achievable_dominating_colors(product, product.initial_node)
    return 2 in colors


# Semantics name -> (module, membership test).  The test is looked up on
# use: cobuchi and floating import this module, so they load lazily.
_MEMBERSHIP = {
    "rerailing": ("lasso", "member_rerailing"),
    "parity-exists": ("lasso", "member_parity_exists"),
    "parity-det": ("lasso", "member_parity_det"),
    "cobuchi": ("lasso", "member_cobuchi"),
    "chain": ("cobuchi", "chain_member"),
    "floating": ("floating", "floating_chain_member"),
}
SEMANTICS = tuple(_MEMBERSHIP)


def membership_function(obj, semantics):
    """Bind an object to one of the membership semantics by name."""
    if semantics not in SEMANTICS:
        raise ValueError("unknown semantics %r (expected one of %s)"
                         % (semantics, ", ".join(SEMANTICS)))
    module, name = _MEMBERSHIP[semantics]
    member = getattr(importlib.import_module("." + module, __package__), name)
    return lambda w: member(obj, w)


def bounded_equivalence(a, sem_a, b, sem_b, stem_bound, cycle_bound):
    """First lasso within the bounds on which the two semantics disagree.

    Returns None when all bounded lassos agree.  "First" refers to the
    enumeration order of enumerate_lassos.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("operands use different alphabets")
    fa = membership_function(a, sem_a)
    fb = membership_function(b, sem_b)
    for lasso in enumerate_lassos(len(a.alphabet), stem_bound, cycle_bound):
        if fa(lasso) != fb(lasso):
            return lasso
    return None
