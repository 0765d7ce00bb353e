"""Ultimately periodic words, lasso products, and membership oracles.

A lasso word stem . cycle^omega is the universal finite test vehicle here:
all membership semantics are decided on the finite product of an automaton
with the lasso's positions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .raf import AutomatonStructure
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
    A negative stem bound or a cycle bound below 1 is a ValueError, since it
    would make every sweep over the lassos pass vacuously.
    """
    if stem_bound < 0 or cycle_bound < 1:
        raise ValueError("lasso bounds need stem >= 0 and cycle >= 1, got stem %d, cycle %d"
                         % (stem_bound, cycle_bound))
    return iter(_canonical_lassos(n_symbols, stem_bound, cycle_bound))


class LassoProduct:
    """Finite (state, position) graph of an automaton run over a lasso.

    Positions 0..len(stem)+len(cycle)-1 index the letter about to be read;
    the last position wraps back to the start of the cycle.  Nodes are the
    pairs reachable from the distinct (state, position) pairs `starts`, by
    default (initial, 0) alone.  They are numbered in the order the walk
    discovers them, the starts first and in their given order: nodes[i] is
    the (state, position) pair of node i and adjacency[i] its list of
    (child, color) edges.
    """

    def __init__(self, aut, lasso, starts=None):
        lasso = lasso.canonical()
        letters = lasso.stem + lasso.cycle
        wrap = len(lasso.stem)
        last = len(letters) - 1
        nodes = [(aut.initial, 0)] if starts is None else list(starts)
        number = {node: i for i, node in enumerate(nodes)}
        adjacency = []
        for (state, pos) in nodes:
            nxt = pos + 1 if pos < last else wrap
            children = []
            for (dst, color) in aut.successors(state, letters[pos]):
                key = (dst, nxt)
                child = number.get(key)
                if child is None:
                    child = number[key] = len(nodes)
                    nodes.append(key)
                children.append((child, color))
            adjacency.append(children)
        self.nodes = nodes
        self.adjacency = adjacency

    def analysis(self):
        return _ProductAnalysis(self)


def cycle_minima(edges):
    """Colors c such that some strongly connected subset of `edges` has minimum c.

    `edges` must be strongly connected or empty.  Equivalently the minima of
    simple cycles: each strongly connected set contributes its minimum, and
    the edges above that minimum split into strongly connected sets again.
    """
    result = set()
    stack = [edges] if edges else []
    while stack:
        current = stack.pop()
        c0 = min(c for (_u, _v, c) in current)
        result.add(c0)
        above = [e for e in current if e[2] > c0]
        if above:
            stack.extend(_scc_edge_sets(above))
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
    """Per-node dominating colors of a lasso product.

    achievable[i] holds the dominating colors of runs continuing from node i:
    c is achievable iff some reachable strongly connected edge set has
    minimum color exactly c.  uniform[i] holds the colors c such that some
    node reachable from i has achievable set {c}.
    """

    def __init__(self, product):
        adjacency = product.adjacency
        dec = scc_decomposition(len(adjacency),
                                [[child for (child, _c) in edges] for edges in adjacency])
        comp_of = dec.component_of
        internal = [[] for _ in dec.components]
        succ_comps = [set() for _ in dec.components]
        for u, edges in enumerate(adjacency):
            cu = comp_of[u]
            for (v, color) in edges:
                cv = comp_of[v]
                if cu == cv:
                    internal[cu].append((u, v, color))
                else:
                    succ_comps[cu].add(cv)
        reach = [None] * len(dec.components)
        uniform = [None] * len(dec.components)
        # topo_order lists components sinks-first, so successors are done first
        for c in dec.topo_order:
            acc = cycle_minima(internal[c])
            uni = set()
            for s in succ_comps[c]:
                acc |= reach[s]
                uni |= uniform[s]
            if len(acc) == 1:
                uni |= acc
            reach[c] = frozenset(acc)
            uniform[c] = frozenset(uni)
        self.achievable = [reach[c] for c in comp_of]
        self.uniform = [uniform[c] for c in comp_of]


class LassoSweep:
    """Product analyses of one automaton shared across many lassos.

    Key fact: the verdict on a lasso u.v^omega depends only on
    R(u), the set of states reached by reading u, and on the analysis of the
    automaton x v product.  The lasso's cycle nodes are the nodes of that
    product reachable from R(u) at the first letter of v, a node's
    achievable and uniform sets depend only on what is reachable from it,
    and the rotations of v have the same product up to a shift of offsets.

    So the sweep analyses each conjugacy class of primitive cycles once, on
    first use, keyed by its least rotation w: one LassoProduct of the
    automaton with w^omega walked from every (state, offset) node, where
    node k*|Q| + q is (q, k).  Rotation mapping: the cycle v = w[r:] + w[:r]
    enters w at offset r, so the lasso node (q, len(u) + j) is the class
    node (q, (r + j) mod |w|).  Stem positions only grow, so each stem node
    is a trivial SCC: its achievable set is the union over its children, and
    its uniform set the union over its children plus the achievable set when
    that is a single color.

    R(u) per stem u, and the colors and cycle nodes per (v, R(u)), are
    memoized.  `colors` takes any spelling of a lasso: the runs over a word
    do not depend on how it is split into stem and cycle, and a cycle enters
    its class through its primitive root.  `node_sets` numbers positions
    along the lasso, so it takes canonical lassos, as those of
    enumerate_lassos are; on each, every node's sets equal those of
    LassoProduct(aut, lasso).analysis().
    """

    def __init__(self, aut):
        self.aut = aut
        self._classes = {}      # least rotation w -> (product, analysis) of aut x w
        self._cycles = {}       # cycle v -> (class product, analysis, entry offset r)
        self._reached = {(): frozenset((aut.initial,))}
        self._colors = {}       # (cycle, reached states) -> colors
        self._cycle_nodes = {}  # (cycle, reached states) -> [(state, offset j, class node)]

    def _class_of(self, cycle):
        found = self._cycles.get(cycle)
        if found is None:
            root = LassoWord((), cycle).canonical().cycle    # primitive root, same word
            size = len(root)
            shift = min(range(size), key=lambda i: root[i:] + root[:i])
            word = root[shift:] + root[:shift]
            analysed = self._classes.get(word)
            if analysed is None:
                starts = [(q, k) for k in range(size) for q in range(self.aut.state_count)]
                product = LassoProduct(self.aut, LassoWord((), word), starts)
                analysed = self._classes[word] = (product, product.analysis())
            found = self._cycles[cycle] = analysed + ((size - shift) % size,)
        return found

    def _states_after(self, stem):
        """The set of states reached from the initial state by reading `stem`."""
        states = self._reached.get(stem)
        if states is None:
            succ = self.aut.successors
            states = self._reached[stem] = frozenset(
                dst for q in self._states_after(stem[:-1]) for (dst, _c) in succ(q, stem[-1]))
        return states

    def colors(self, lasso):
        """Dominating colors of the runs over `lasso` (achievable set of its node 0)."""
        reached = self._states_after(lasso.stem)
        key = (lasso.cycle, reached)
        colors = self._colors.get(key)
        if colors is None:
            (_product, analysis, entry) = self._class_of(lasso.cycle)
            base = entry * self.aut.state_count
            colors = self._colors[key] = frozenset().union(
                *(analysis.achievable[base + q] for q in reached))
        return colors

    def node_sets(self, lasso):
        """Yield ((state, position), achievable, uniform) for each node of `lasso`."""
        stem, cycle = lasso.stem, lasso.cycle
        (product, analysis, entry) = self._class_of(cycle)
        achievable, uniform = analysis.achievable, analysis.uniform
        reached = self._states_after(stem)
        base = entry * self.aut.state_count
        key = (cycle, reached)
        cycle_nodes = self._cycle_nodes.get(key)
        if cycle_nodes is None:
            seen = {base + q for q in reached}
            stack = list(seen)
            while stack:
                for (child, _c) in product.adjacency[stack.pop()]:
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
            size = len(cycle)
            cycle_nodes = self._cycle_nodes[key] = [
                (product.nodes[i][0], (product.nodes[i][1] - entry) % size, i)
                for i in seen]
        m = len(stem)
        for (q, j, i) in cycle_nodes:
            yield (q, m + j), achievable[i], uniform[i]
        # backward pass along the stem, from the entry nodes of the cycle
        later = {q: (achievable[base + q], uniform[base + q]) for q in reached}
        succ = self.aut.successors
        for k in range(m - 1, -1, -1):
            current = {}
            for q in self._states_after(stem[:k]):
                acc = set()
                uni = set()
                for (dst, _c) in succ(q, stem[k]):
                    (a, u) = later[dst]
                    acc |= a
                    uni |= u
                if len(acc) == 1:
                    uni |= acc
                (a, u) = current[q] = (frozenset(acc), frozenset(uni))
                yield (q, k), a, u
            later = current


# Verdicts of the semantics decided by the dominating colors of all runs.

def _rerailing_verdict(colors):
    if not colors:
        raise ValueError("no infinite run: automaton incomplete along the lasso")
    return max(colors) % 2 == 0


def _parity_exists_verdict(colors):
    if not colors:
        raise ValueError("no infinite run: automaton incomplete along the lasso")
    return any(c % 2 == 0 for c in colors)


_COLOR_VERDICTS = {
    "rerailing": _rerailing_verdict,
    "parity-exists": _parity_exists_verdict,
    "cobuchi": lambda colors: 2 in colors,
}
SEMANTICS = ("rerailing", "parity-exists", "parity-det", "cobuchi", "chain", "floating")


def member_rerailing(aut, lasso):
    """Word acceptance with max-over-runs semantics.

    The word is accepted iff the maximum over the dominating colors of all its
    runs is even.
    """
    return membership_function(aut, "rerailing")(lasso)


def member_parity_exists(aut, lasso):
    """True iff some run's dominating color is even (nondeterministic min-parity)."""
    return membership_function(aut, "parity-exists")(lasso)


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
    return membership_function(aut, "cobuchi")(lasso)


def accepting_level(members, lasso):
    """Greatest 1-based index of a level membership function accepting `lasso`, else 0."""
    for i in range(len(members), 0, -1):
        if members[i - 1](lasso):
            return i
    return 0


def membership_function(obj, semantics):
    """Bind an object to one of the membership semantics by name.

    Every semantics but parity-det is a function of the dominating colors of
    all runs, so the bound function decides each lasso through one
    LassoSweep of the automaton.  A chain gets one co-Buchi sweep per level
    and takes the greatest accepting level; a floating chain is the chain of
    the co-Buchi readings of its levels.  parity-det follows the one run of
    a deterministic automaton with member_parity_det.  An object of the
    wrong kind for the semantics is a ValueError.
    """
    # cobuchi and floating import this module, so they load here
    from .cobuchi import Chain
    from .floating import FloatingChain, cobuchi_chain
    if semantics not in SEMANTICS:
        raise ValueError("unknown semantics %r (expected one of %s)"
                         % (semantics, ", ".join(SEMANTICS)))
    kind, what = AutomatonStructure, "an automaton ('raf 1')"
    if semantics == "chain":
        kind, what = Chain, "a co-Buchi chain ('cocoa 1')"
    elif semantics == "floating":
        kind, what = FloatingChain, "a floating chain ('flochain 1')"
    if not isinstance(obj, kind):
        raise ValueError("semantics %r needs %s, got %s"
                         % (semantics, what, type(obj).__name__))
    if semantics == "parity-det":
        return lambda w: member_parity_det(obj, w)
    if semantics == "floating":
        return membership_function(cobuchi_chain(obj), "chain")
    if semantics == "chain":
        members = [membership_function(a, "cobuchi") for a in obj.levels]
        return lambda w: accepting_level(members, w) % 2 == 0
    if semantics == "cobuchi":
        bad = [c for c in obj.colors if c not in (1, 2)]
        if bad:
            raise ValueError("co-Buchi automata use colors 1 and 2 only, found %s" % bad)
    verdict = _COLOR_VERDICTS[semantics]
    sweep = LassoSweep(obj)
    return lambda w: verdict(sweep.colors(w))


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
