"""Ultimately periodic words, lasso products, and membership oracles.

A lasso word stem . cycle^omega is the universal finite test vehicle here:
all membership semantics are decided from the states the stem reaches and
the finite product of an automaton with the cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

from .cobuchi import Chain, _check_cobuchi_colors
from .floating import FloatingChain, cobuchi_reading
from .raf import AutomatonStructure
from .scc import reachable, scc_decomposition


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

    return LassoWord(part(stem_text), part(cycle_text))


def _check_letters(letters, nsym):
    """Refuse a letter that is no symbol index of an alphabet of `nsym` symbols."""
    for x in letters:
        if not 0 <= x < nsym:
            raise ValueError("lasso letter %r outside the alphabet of %d symbols" % (x, nsym))


def format_lasso(lasso, alphabet):
    stem = ".".join(alphabet.symbols[s] for s in lasso.stem)
    cycle = ".".join(alphabet.symbols[s] for s in lasso.cycle)
    return "%s;%s" % (stem, cycle)


# Most (stem, cycle) pairs `enumerate_lassos` builds: about 16 us each, and about 190
# bytes held in its cache per canonical lasso.  An enumeration near the cap, such as the
# 499,712 canonical lassos of 2 symbols at bounds 9 and 9, holds about 96 MB; the cache
# keeps 4 enumerations, so at worst about 400 MB.
MAX_LASSO_CANDIDATES = 1 << 20


@lru_cache(maxsize=4)
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
    would make every sweep over the lassos pass vacuously; so are bounds with
    more than MAX_LASSO_CANDIDATES (stem, cycle) pairs to build.
    """
    if stem_bound < 0 or cycle_bound < 1:
        raise ValueError("lasso bounds need stem >= 0 and cycle >= 1, got stem %d, cycle %d"
                         % (stem_bound, cycle_bound))
    k = n_symbols
    count = None                # over 2^64, when two or more symbols meet a bound past 64
    if k < 2 or max(stem_bound, cycle_bound) <= 64:
        stems, cycles = [b + 1 if k == 1 else (k ** (b + 1) - 1) // (k - 1)
                         for b in (stem_bound, cycle_bound)]
        count = stems * (cycles - 1)    # Σk^s · Σk^c, s <= stem_bound, 1 <= c <= cycle_bound
    if count is None or count > MAX_LASSO_CANDIDATES:
        raise ValueError("lasso bounds stem %d, cycle %d over %d symbols give %s candidate "
                         "lassos, above the limit of %d"
                         % (stem_bound, cycle_bound, k, count or "over 2^64",
                            MAX_LASSO_CANDIDATES))
    return iter(_canonical_lassos(n_symbols, stem_bound, cycle_bound))


class LassoProduct:
    """Finite (state, offset) graph of an automaton run over cycle^omega.

    Node k*|Q| + q is the automaton in state q about to read cycle[k], and
    adjacency[k*|Q| + q] its list of (child, color) edges, the children at
    offset k + 1, which wraps to 0.  A letter outside the alphabet is a
    ValueError.
    """

    def __init__(self, aut, cycle):
        _check_letters(cycle, len(aut.alphabet))
        n, size = aut.state_count, len(cycle)
        self.adjacency = [[((k + 1) % size * n + dst, color)
                           for (dst, color) in aut.successors(q, cycle[k])]
                          for k in range(size) for q in range(n)]


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
    comp_of = scc_decomposition(len(nodes), adj)
    buckets = [[] for _ in range(max(comp_of) + 1)]
    for (u, v, c) in edges:
        cu = comp_of[nodes[u]]
        if cu == comp_of[nodes[v]]:
            buckets[cu].append((u, v, c))
    return [b for b in buckets if b]


class _ProductAnalysis:
    """Dominating colors of a lasso product, per strongly connected component.

    comp_of[i] is the component of node i; successors[c] holds the other
    components entered by edges from c, all with ids below c.  sets[c] is
    the pair (achievable, uniform) that all nodes of c share: achievable
    holds the dominating colors d of runs continuing from them (some
    reachable strongly connected edge set has minimum color exactly d), and
    uniform the colors d such that a component reachable from c has
    achievable set {d}.
    """

    def __init__(self, product):
        adjacency = product.adjacency
        comp_of = self.comp_of = scc_decomposition(
            len(adjacency), [[child for (child, _c) in edges] for edges in adjacency])
        count = max(comp_of, default=-1) + 1
        internal = [[] for _ in range(count)]
        successors = self.successors = [set() for _ in range(count)]
        for u, edges in enumerate(adjacency):
            cu = comp_of[u]
            for (v, color) in edges:
                cv = comp_of[v]
                if cu == cv:
                    internal[cu].append((u, v, color))
                else:
                    successors[cu].add(cv)
        sets = self.sets = []
        for c in range(count):      # successors are done first
            acc = cycle_minima(internal[c])
            uni = set()
            for s in successors[c]:
                (a, u) = sets[s]
                acc |= a
                uni |= u
            if len(acc) == 1:
                uni |= acc
            sets.append((frozenset(acc), frozenset(uni)))


def _least_rotation(word):
    """The least k such that word[k:] + word[:k] is the least rotation of
    `word`, by Booth's algorithm in linear time (unique for a primitive word).

    fail[j] is the failure function of the least rotation found so far,
    which starts at k, over the doubled word.
    """
    doubled = word + word
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        letter = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and letter != doubled[k + i + 1]:
            if letter < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if letter != doubled[k + i + 1]:    # here i == -1
            if letter < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


class LassoSweep:
    """Product analyses of one automaton shared across many lassos.

    Key fact: the verdict on a lasso u.v^omega depends only on
    R(u), the set of states reached by reading u, and on the analysis of the
    automaton x v product.  The lasso's cycle nodes are the nodes of that
    product reachable from R(u) at the first letter of v, a node's
    achievable and uniform sets are those of its component, and the
    rotations of v have the same product up to a shift of offsets.

    So the sweep analyses each conjugacy class of primitive cycles once, on
    first use, keyed by its least rotation w: one LassoProduct of the
    automaton with w, whose node k*|Q| + q is (q, k).  Rotation mapping:
    the cycle v = w[r:] + w[:r] enters w at offset r, so the lasso node
    (q, len(u) + j) is the class node (q, (r + j) mod |w|).  Stem positions
    only grow, so each stem node is a trivial SCC: its achievable set is the
    union over its children, and its uniform set the union over its children
    plus the achievable set when that is a single color.  Hence an
    achievable color d of a stem node that no uniform color c >= d of the
    verdict's evenness covers is achievable and uncovered at one of its
    children too: a lasso whose cycle nodes violate the rerailing property
    nowhere has no violation at all (see verify_rerailing_bounded).

    R(u) per stem u, the step from each state set on each symbol, and the
    colors and cycle nodes per key (v, R(u)) (cycle_key), are memoized.
    `colors` takes any spelling of a lasso: the runs over a word do not
    depend on how it is split into stem and cycle, and a cycle enters its
    class through its primitive root.  `node_sets` numbers positions along
    the lasso, so it takes canonical lassos, as those of enumerate_lassos
    are.  On each, node (q, p) gets the dominating colors of the runs from
    q over the lasso's suffix from position p, and the colors c such that a
    node reachable from it has exactly {c}; it walks the stem forward once
    and memoizes none of its prefixes.
    """

    def __init__(self, aut):
        self.aut = aut
        self._classes = {}      # least rotation w -> (product, analysis) of aut x w
        self._cycles = {}       # cycle v -> (class product, analysis, entry offset r)
        self._reached = {(): frozenset((aut.initial,))}
        self._steps = {}        # (state set, symbol) -> the state set it leads to
        self._colors = {}       # (cycle, reached states) -> colors
        self._cycle_nodes = {}  # (cycle, reached states) -> [(state, offset, achievable, uniform)]

    def _class_of(self, cycle):
        found = self._cycles.get(cycle)
        if found is None:
            root = LassoWord((), cycle).canonical().cycle    # primitive root, same word
            size = len(root)
            shift = _least_rotation(root)
            word = root[shift:] + root[:shift]
            analysed = self._classes.get(word)
            if analysed is None:
                product = LassoProduct(self.aut, word)
                analysed = self._classes[word] = (product, _ProductAnalysis(product))
            found = self._cycles[cycle] = analysed + ((size - shift) % size,)
        return found

    def _step(self, states, x):
        """The set of states one move on symbol `x` leads to from `states`."""
        found = self._steps.get((states, x))
        if found is None:
            found = self._steps[(states, x)] = frozenset(
                dst for q in states for (dst, _c) in self.aut.successors(q, x))
        return found

    def _states_after(self, stem):
        """The set of states reached from the initial state by reading `stem`.

        One step from a memoized `stem[:-1]`, as in a sweep, else a walk of
        the whole stem; only `stem` itself is memoized.
        """
        states = self._reached.get(stem)
        if states is None:
            prefix = stem[:-1] if stem[:-1] in self._reached else ()
            _check_letters(stem[len(prefix):], len(self.aut.alphabet))
            states = self._reached[stem] = reduce(
                self._step, stem[len(prefix):], self._reached[prefix])
        return states

    def cycle_key(self, lasso):
        """(cycle, R(stem)): the key that the colors and cycle nodes of `lasso` depend on."""
        return (lasso.cycle, self._states_after(lasso.stem))

    def entry_components(self, key):
        """(analysis, entry components) of the class product of a cycle_key.

        The entry components hold the class-product nodes at which the key's
        lasso enters its cycle: (q, r) for q in R(stem), where r is the
        cycle's entry offset into the class word.
        """
        (cycle, reached) = key
        (_product, analysis, entry) = self._class_of(cycle)
        base = entry * self.aut.state_count
        return analysis, {analysis.comp_of[base + q] for q in reached}

    def colors(self, lasso):
        """Dominating colors of the runs over `lasso` (achievable set of its node 0)."""
        key = self.cycle_key(lasso)
        colors = self._colors.get(key)
        if colors is None:
            (analysis, entries) = self.entry_components(key)
            colors = self._colors[key] = frozenset().union(
                *(analysis.sets[c][0] for c in entries))
        return colors

    def node_sets(self, lasso):
        """Yield ((state, position), achievable, uniform) for each node of `lasso`.

        The cycle nodes, the class-product nodes reachable from the entry
        nodes, come first; then the stem nodes from the last stem position
        back to position 0.
        """
        stem = lasso.stem
        key = self.cycle_key(lasso)
        cycle_nodes = self._cycle_nodes.get(key)
        if cycle_nodes is None:
            (cycle, reached) = key
            (product, analysis, entry) = self._class_of(cycle)
            adjacency, n, size = product.adjacency, self.aut.state_count, len(cycle)
            cycle_nodes = self._cycle_nodes[key] = [
                (i % n, (i // n - entry) % size) + analysis.sets[analysis.comp_of[i]]
                for i in reachable([entry * n + q for q in reached],
                                   lambda node: [child for (child, _c) in adjacency[node]])]
        m = len(stem)
        for (q, j, a, u) in cycle_nodes:
            yield (q, m + j), a, u
        before = list(itertools.accumulate(stem[:-1], self._step, initial=self._reached[()]))
        succ = self.aut.successors
        # backward pass along the stem from the cycle's entry nodes; before[k] is R(stem[:k])
        later = {q: (a, u) for (q, j, a, u) in cycle_nodes if j == 0}
        for k in range(m - 1, -1, -1):
            current = {}
            for q in before[k]:
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


# Verdicts of the semantics decided by the dominating colors of all runs,
# given a nonempty set of them.
_COLOR_VERDICTS = {
    "rerailing": lambda colors: max(colors) % 2 == 0,
    "parity-exists": lambda colors: any(c % 2 == 0 for c in colors),
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
    """Dominating color parity of the unique run of a deterministic automaton.

    The run is followed until a (state, position) pair repeats, which finds
    its loop on any spelling of the lasso.
    """
    period_start = len(lasso.stem)
    letters = lasso.stem + lasso.cycle
    _check_letters(letters, len(aut.alphabet))
    length = len(letters)
    state = aut.initial
    pos = 0
    first_seen = {}
    trail = []
    while (state, pos) not in first_seen:
        first_seen[(state, pos)] = len(trail)
        succ = aut.successors(state, letters[pos])
        if len(succ) != 1:
            symbol = aut.alphabet.symbols[letters[pos]]
            if not succ:
                raise ValueError("automaton has no transition at state %d on symbol %r"
                                 % (state, symbol))
            raise ValueError("automaton is not deterministic at state %d: %d transitions "
                             "on symbol %r" % (state, len(succ), symbol))
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


def membership_function(obj, semantics):
    """Bind an object to one of the membership semantics by name.

    Every semantics but parity-det is a function of the dominating colors of
    all runs, so the bound function decides each lasso through one
    LassoSweep of the automaton, once per key (cycle, R(stem)).  A chain
    gets one co-Buchi sweep per level and takes the greatest accepting
    level; a floating chain is the chain of the co-Buchi readings of its
    levels.  parity-det follows the one run of a deterministic automaton:
    its verdict depends only on the key (state after the stem, cycle), so
    the bound function calls member_parity_det once per key, and on any
    stem it cannot walk (see _parity_det_member).  An object of the
    wrong kind for the semantics, a lasso letter outside the alphabet, and,
    for the color semantics, a lasso with no infinite run are ValueErrors.
    """
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
        return _parity_det_member(obj)
    if semantics == "floating":
        readings = Chain([cobuchi_reading(f) for f in obj.levels], obj.alphabet)
        return membership_function(readings, "chain")
    if semantics == "chain":
        # greatest accepting level first; no level accepting is color 0
        members = [(i, membership_function(a, "cobuchi"))
                   for i, a in enumerate(obj.levels, start=1)][::-1]
        return lambda w: next((i for (i, member) in members if member(w)), 0) % 2 == 0
    if semantics == "cobuchi":
        _check_cobuchi_colors(obj)
    verdict = _COLOR_VERDICTS[semantics]
    sweep = LassoSweep(obj)

    def member(w):
        colors = sweep.colors(w)
        if not colors:
            raise ValueError("no infinite run: automaton incomplete along the lasso")
        return verdict(colors)
    return member


def _parity_det_member(aut):
    """member_parity_det bound to `aut`, decided once per (state, cycle) key.

    The one run over stem . cycle^omega reaches one state s after the stem,
    and its dominating color is that of the run from s over cycle^omega: a
    function of the key (s, cycle).  The state after each stem is memoized
    and found one letter from a memoized `stem[:-1]`, as in a sweep, else by
    a walk of the whole stem.  A new key, and any letter of a new stem suffix
    outside the alphabet or without exactly one move, goes to
    member_parity_det, which decides it or raises its error.  So every letter
    is checked when first read: those of a memoized stem and of a known
    key's cycle were checked before.
    """
    nsym, successors = len(aut.alphabet), aut.successors
    after = {(): aut.initial}   # stem -> the state its run reaches
    verdicts = {}               # (state after the stem, cycle) -> verdict

    def member(w):
        stem = w.stem
        state = after.get(stem)
        if state is None:
            prefix = stem[:-1] if stem[:-1] in after else ()
            state = after[prefix]
            for x in stem[len(prefix):]:
                moves = successors(state, x) if 0 <= x < nsym else ()
                if len(moves) != 1:
                    return member_parity_det(aut, w)
                state = moves[0][0]
            after[stem] = state
        key = (state, w.cycle)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = member_parity_det(aut, w)
        return verdict
    return member


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
