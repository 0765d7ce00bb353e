"""Chains of co-Buchi automata and residual language tracking.

A chain assigns each word the greatest level index whose co-Buchi automaton
accepts it (0 when none does); the word belongs to the chain's language iff
that color is even.  Decomposing a rerailing automaton level by level and
tracking residual languages of the combined language are the steps feeding
the minimization pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .games import ArenaBuilder, solve
from .lasso import enumerate_lassos, membership_function
from .raf import (AutomatonStructure, RafError, UnreachableStatesError, equireach_relation,
                  validate_complete, _body_lines, _check_name, _numbered_lines,
                  _parse_alphabet, _parse_raf_body)
from .scc import reachable


class CoBuchiAutomaton(AutomatonStructure):
    """Complete automaton with transition colors in {1, 2}; 2 is accepting."""

    def __init__(self, alphabet, state_count, transitions, initial, state_names=None):
        super().__init__(alphabet, state_count, transitions, initial, state_names)
        bad = [c for c in self.colors if c not in (1, 2)]
        if bad:
            raise ValueError("co-Buchi colors must be 1 or 2, found %s" % bad)
        missing = validate_complete(self)
        if missing:
            raise ValueError("co-Buchi automaton incomplete at %s" % (missing[:5],))

    @classmethod
    def from_structure(cls, aut):
        return cls(aut.alphabet, aut.state_count, aut.transitions, aut.initial,
                   aut.state_names)

    def accepting_successors(self, state, symbol):
        return [dst for (dst, c) in self.successors(state, symbol) if c == 2]


class Chain:
    """Ordered levels of co-Buchi automata over one alphabet."""

    def __init__(self, levels, alphabet=None):
        self.levels = list(levels)
        if alphabet is None:
            if not self.levels:
                raise ValueError("empty chain needs an explicit alphabet")
            alphabet = self.levels[0].alphabet
        self.alphabet = alphabet
        for a in self.levels:
            if a.alphabet != alphabet:
                raise ValueError("chain levels must share one alphabet")

    def __len__(self):
        return len(self.levels)

    def level(self, i):
        """1-based level access."""
        return self.levels[i - 1]


def chain_falling_violations(chain, stem_bound, cycle_bound):
    """Advisory check that each level's language contains the next one's.

    Returns (level, lasso) pairs where level i+1 accepts but level i does not,
    over all lassos within the bounds.  Exact inclusion is out of scope.
    """
    members = [membership_function(a, "cobuchi") for a in chain.levels]
    violations = []
    for i in range(1, len(members)):
        lower, upper = members[i - 1], members[i]
        for lasso in enumerate_lassos(len(chain.alphabet), stem_bound, cycle_bound):
            if upper(lasso) and not lower(lasso):
                violations.append((i + 1, lasso))
    return violations


def serialize_chain(chain):
    """The `cocoa 1` text of a chain; one with no levels keeps its alphabet line."""
    out = ["cocoa 1", "count %d" % len(chain.levels)]
    if not chain.levels:
        out.append("alphabet " + " ".join(chain.alphabet.symbols))
    for idx, level in enumerate(chain.levels, start=1):
        out.append("automaton %d" % idx)
        out.extend(_body_lines(level))
    return "\n".join(out) + "\n"


def parse_chain(text):
    lines = _numbered_lines(text)
    if not lines or lines[0][1] != "cocoa 1":
        raise RafError("expected 'cocoa 1' header", lines[0][0] if lines else None)
    lineno, line = lines[1] if len(lines) > 1 else (None, "")
    parts = line.split()
    count = int(parts[1]) if len(parts) == 2 and parts[1].isdecimal() else None
    idx = 2
    alphabet = None                     # a chain with no levels names its alphabet
    if count == 0 and len(lines) > 2 and lines[2][1].split()[0] == "alphabet":
        alphabet = _parse_alphabet(lines[2][1].split()[1:], lines[2][0])
        idx = 3
    if parts[:1] != ["count"] or count is None or (count == 0 and alphabet is None):
        raise RafError("expected 'count <n>' with n >= 1, or 'count 0' followed by an "
                       "'alphabet' line, after header", lineno)
    levels = []
    for want in range(1, count + 1):
        lineno, line = lines[idx] if idx < len(lines) else (None, "")
        parts = line.split()
        if len(parts) != 2 or parts[0] != "automaton":
            raise RafError("expected 'automaton %d' block" % want, lineno)
        if parts[1] != str(want):
            raise RafError("chain blocks must be numbered consecutively from 1", lineno)
        level, idx = _parse_raf_body(lines, require_version=None, with_colors=True,
                                     start=idx + 1, stop_words=("automaton",),
                                     cls=CoBuchiAutomaton, label="automaton %d: " % want)
        levels.append(level)
    if idx != len(lines):
        raise RafError("trailing content after %d chain blocks" % count, lines[idx][0])
    return Chain(levels, alphabet)


def decompose_rerailing(aut):
    """Split a rerailing automaton of maximum color k into k co-Buchi levels.

    Level i accepts exactly the words having some run with dominating color
    >= i: transitions of color >= i stay as accepting copies, lower-colored
    ones become rejecting moves onto every state jointly reachable with the
    original target.  Unreachable states, which no run from the initial
    state visits, are dropped first (they need not be complete), and the
    others renumbered in order.

    Each level keys its transitions by (src, sym, dst), and an accepting
    copy wins over a rejecting mate-move of the same triple.  The level
    language is unchanged: a run taking the rejecting copy can take the
    accepting one instead, on the same states, so every accepting run
    survives.  Only color-inhomogeneous inputs give a triple both copies;
    a color-homogeneous (src, sym) has one color, at least i or below it.
    """
    try:
        relation, keep = equireach_relation(aut), None
    except UnreachableStatesError:        # keep the reachable states, in order
        keep = {q: k for k, q in enumerate(sorted(aut.reachable_states()))}
    missing = [(q, x) for (q, x) in validate_complete(aut) if keep is None or q in keep]
    if missing:
        raise ValueError("input automaton incomplete at %s" % (missing[:5],))
    if keep is not None:
        names = {keep[q]: name for q, name in (aut.state_names or {}).items() if q in keep}
        aut = AutomatonStructure(aut.alphabet, len(keep),
                                 [(keep[s], x, keep[d], c) for (s, x, d, c) in aut.transitions
                                  if s in keep], keep[aut.initial], names or None)
        relation = equireach_relation(aut)
    mates = [[] for _ in range(aut.state_count)]
    for (p, q) in sorted(relation):
        mates[q].append(p)
    levels = []
    for i in range(1, aut.max_color + 1):
        colors = {}
        for (src, sym, dst, color) in aut.transitions:
            if color >= i:
                colors[(src, sym, dst)] = 2
            else:
                for mate in mates[dst]:
                    colors.setdefault((src, sym, mate), 1)
        levels.append(CoBuchiAutomaton(aut.alphabet, aut.state_count,
                                       [key + (c,) for key, c in colors.items()],
                                       aut.initial, aut.state_names))
    return Chain(levels, aut.alphabet)


def inclusion_table(a, b):
    """All pairs (p, q) with L(a from p) contained in L(b from q); b history-deterministic.

    One letter game answers every pair.  The spoiler (player 1) spells a word
    together with a run of `a`; the duplicator (player 0) answers with a run
    of `b`, which must be accepting whenever the spoiler's run is.  A round
    contributes color 0 when the spoiler's move was rejecting, else 1 when
    the duplicator's was, else 2; the round color sits on the next spoiler
    vertex.  (p, q) is in the table iff the duplicator wins from the spoiler
    vertex (p, q) of round color 2.
    """
    nsym = len(a.alphabet)
    if a.alphabet != b.alphabet:
        raise ValueError("inclusion needs a common alphabet")
    builder = ArenaBuilder()
    vertex, ids, edges = builder.vertex, builder.ids, builder.edges
    for pa in range(a.state_count):
        for pb in range(b.state_count):
            for e in (0, 1, 2):
                vertex(("s", pa, pb, e), 1, e)
    for vid, key in enumerate(builder.keys):      # `vertex` appends to the keys walked
        if key[0] == "s":
            (_tag, pa, pb, _e) = key
            for x in range(nsym):
                for (pa2, ca) in a.successors(pa, x):
                    edges[vid].append(vertex(("d", pa2, pb, x, ca == 1), 0, 2))
        else:
            (_tag, pa2, pb, x, ra) = key
            for (pb2, cb) in b.successors(pb, x):
                e2 = 0 if ra else (1 if cb == 1 else 2)
                edges[vid].append(ids[("s", pa2, pb2, e2)])
    w0, _w1 = solve(builder.arena())
    return frozenset((pa, pb) for pa in range(a.state_count) for pb in range(b.state_count)
                     if ids[("s", pa, pb, 2)] in w0)


class Rlta:
    """Deterministic complete automaton whose states stand for residual languages."""

    def __init__(self, alphabet, state_count, delta, initial, names=None):
        self.alphabet = alphabet
        self.state_count = state_count
        self.delta = [list(row) for row in delta]
        if len(self.delta) != state_count:
            raise ValueError("delta must have one row per state")
        for row in self.delta:
            if len(row) != len(alphabet):
                raise ValueError("delta rows must cover the whole alphabet")
            for dst in row:
                if not 0 <= dst < state_count:
                    raise ValueError("delta target out of range")
        if not 0 <= initial < state_count:
            raise ValueError("initial state out of range")
        self.initial = initial
        self.names = list(names) if names is not None else None
        for name in self.names or ():
            _check_name(name)

    def step(self, state, symbol):
        return self.delta[state][symbol]

    def state_name(self, state):
        return str(state) if self.names is None else self.names[state]

    def __eq__(self, other):
        if not isinstance(other, Rlta):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.state_count == other.state_count
                and self.delta == other.delta and self.initial == other.initial)


def residual_tracking_single(a):
    """Residual tracker of one language-deterministic history-deterministic level.

    States are the mutual-inclusion classes of the level's states; every
    transition of a class member must stay inside a single class, otherwise
    the level is rejected as not language-deterministic.

    Returns (tracker, state_map) with state_map giving each level state its class.
    """
    table = inclusion_table(a, a)
    classes = {}
    for q in range(a.state_count):
        members = frozenset(p for p in range(a.state_count)
                            if (q, p) in table and (p, q) in table)
        classes[q] = members
    for q in range(a.state_count):
        for p in classes[q]:
            if classes[p] != classes[q]:
                raise ValueError("mutual-inclusion classes do not partition the states")
    ordered = sorted({members for members in classes.values()}, key=min)
    class_id = {members: i for i, members in enumerate(ordered)}
    state_map = [class_id[classes[q]] for q in range(a.state_count)]
    nsym = len(a.alphabet)
    delta = []
    for members in ordered:
        row = []
        for x in range(nsym):
            targets = {state_map[dst] for q in members for dst in a.successor_states(q, x)}
            if len(targets) != 1:
                raise ValueError(
                    "not language-deterministic: class %s splits on symbol %s into classes %s"
                    % (sorted(members), a.alphabet.symbols[x], sorted(targets)))
            row.append(targets.pop())
        delta.append(row)
    tracker = Rlta(a.alphabet, len(ordered), delta, state_map[a.initial])
    return tracker, state_map


@dataclass(frozen=True)
class RijRelation:
    """Distinguishing relation between tracker-state tuples at levels i and j.

    A tuple (s_i, s_i1, s_j, s_j1) is present iff some word is accepted at
    level i from s_i but not at level i+1 from s_i1, while also accepted at
    level j from s_j but not at level j+1 from s_j1.
    """

    i: int
    j: int
    tuples: frozenset

    def __contains__(self, item):
        return item in self.tuples


def _level(chain, trackers, k):
    """(automaton, state-to-tracker map, tracker table) of level k in 0..n+1.

    Level 0 is the implicit universal automaton, level n+1 the implicit
    empty-language automaton; both track a single residual.
    """
    if 1 <= k <= len(chain.levels):
        tracker, state_map = trackers[k - 1]
        return chain.levels[k - 1], state_map, tracker.delta
    nsym = len(chain.alphabet)
    color = 2 if k == 0 else 1
    aut = CoBuchiAutomaton(chain.alphabet, 1, [(0, x, 0, color) for x in range(nsym)], 0)
    return aut, [0], [[0] * nsym]


def _rij_game(ai, ai1, aj, aj1, nsym, starts, twin_step):
    """Arena of the level-(i, j) game from the four level automata, with its keys.

    Its first vertices are the round starts (qi, qi1, qj, qj1, z) of the state
    tuples in `starts`, z in 0..2; later round starts are added as play
    reaches them.  A z = 2 start has the single move to the z = 0 start of
    its tuple.  `twin_step` is given for j = i + 1: twin_step[q][x] is the
    tracker state that level-(i+1) state q reaches on x, and a symbol on
    which qi1 and qj reach the same one is no move; a round start left
    without a move goes to the losing sink.
    """
    symbols = range(nsym)
    acc_i = [[ai.accepting_successors(q, x) for x in symbols] for q in range(ai.state_count)]
    acc_j = [[aj.accepting_successors(q, x) for x in symbols] for q in range(aj.state_count)]
    succ_i1 = [[ai1.successors(q, x) for x in symbols] for q in range(ai1.state_count)]
    succ_j1 = [[aj1.successors(q, x) for x in symbols] for q in range(aj1.state_count)]

    builder = ArenaBuilder()
    vertex, keys, edges = builder.vertex, builder.keys, builder.edges
    for (qi, qi1, qj, qj1) in starts:
        for z in (0, 1, 2):
            vertex(("s", qi, qi1, qj, qj1, z), 0, 0 if z == 2 else 1)
    for vid, key in enumerate(keys):              # `vertex` appends to the keys walked
        out = edges[vid]
        if key[0] == "s":
            (_t, qi, qi1, qj, qj1, z) = key
            if z == 2:                    # pays out color 0, then plays on as z = 0
                out.append(vertex(("s", qi, qi1, qj, qj1, 0), 0, 1))
                continue
            for x in symbols:
                if twin_step is not None and twin_step[qi1][x] == twin_step[qj][x]:
                    continue
                bs = acc_j[qj][x]
                for a2 in acc_i[qi][x]:
                    for b2 in bs:
                        out.append(vertex(("x", a2, qi1, b2, qj1, z, x), 1, 1))
            if not out:
                out.append(vertex(("sink",), 0, 1))
        elif key[0] == "x":               # z is 0 or 1 here
            (_t, qi, qi1, qj, qj1, z, x) = key
            for (r, ci) in succ_i1[qi1][x]:
                for (s2, cj) in succ_j1[qj1][x]:
                    z2 = 2 - ci if z == 0 else 3 - cj
                    out.append(vertex(("s", qi, r, qj, s2, z2), 0, 0 if z2 == 2 else 1))
        else:                             # ("sink",): stuck, color 1 forever
            out.append(vid)
    return builder.arena(), keys


def compute_Rij(chain, trackers, i, j, domain=None):
    """The level-(i, j) distinguishing relation over tracker states.

    Solved as a parity game: player 0 steers accepting runs of levels i and j
    while player 1 resolves levels i+1 and j+1; a counter z demands a
    rejecting (i+1)-move, then a rejecting (j+1)-move, and pays out color 0
    when both were seen.  Winning positions are mapped through the trackers
    and closed under predecessors by `reachable`.  By definition R_ji is R_ij
    with its two tuple halves swapped, which is why `build_rlta_chain` only
    asks for i < j.

    `domain` holds tracker tuples and is closed under common letters (the
    successors on one symbol of a tuple in it are in it, up to the tuples
    dropped below); the result is the relation restricted to it, and
    without a domain the whole tracker product is decided.  The game only
    opens round starts whose states map into the domain, and the closure
    only adds predecessors inside it.  Both are exact:

    - (a) a vertex's winner depends only on its forward subgame, and every
      round start reached from the domain maps into it again, so each start
      wins in the smaller arena iff it wins in the whole one;
    - (b) for j = i + 1 a tuple whose components at i+1 and j are equal
      names one residual twice, which no word can both leave and enter, so
      it is never in R_{i,i+1}.  Such tuples leave the domain, and a move
      onto one is no move at all.  With no round start left the relation is
      empty and no arena is built.
    """
    n = len(chain.levels)
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("level indices out of range")
    levels = [_level(chain, trackers, k) for k in (i, i + 1, j, j + 1)]
    (ai, mi, di), (ai1, mi1, di1), (aj, mj, dj), (aj1, mj1, dj1) = levels
    nsym = len(chain.alphabet)
    if domain is None:
        domain = itertools.product(*(range(len(d)) for (_a, _m, d) in levels))
    twins = j == i + 1
    domain = [t for t in domain if not (twins and t[1] == t[2])]
    members = []                  # per level: tracker state -> the level states it tracks
    for (_a, m, d) in levels:
        by_state = [[] for _s in d]
        for q, s in enumerate(m):
            by_state[s].append(q)
        members.append(by_state)
    starts = [qs for t in domain
              for qs in itertools.product(*(by_state[s] for by_state, s in zip(members, t)))]
    if not starts:
        return RijRelation(i, j, frozenset())
    twin_step = [di1[s] for s in mi1] if twins else None
    arena, keys = _rij_game(ai, ai1, aj, aj1, nsym, starts, twin_step)
    w0, _w1 = solve(arena)
    rel = set()
    for vid in w0:
        key = keys[vid]
        if key[0] == "s":
            rel.add((mi[key[1]], mi1[key[2]], mj[key[3]], mj1[key[4]]))
    preds = {}
    for t in domain:
        for x in range(nsym):
            step = (di[t[0]][x], di1[t[1]][x], dj[t[2]][x], dj1[t[3]][x])
            preds.setdefault(step, []).append(t)
    return RijRelation(i, j, frozenset(reachable(rel, lambda t: preds.get(t, ()))))


def build_rlta_chain(chain):
    """Residual tracker of the whole chain language.

    Worklist construction over tuples of per-level tracker states; a freshly
    computed successor tuple reuses an existing state unless some
    distinguishing relation of mixed evenness separates the two, scanning
    existing states in insertion order (first match wins).  Only R_ij with
    i < j is computed: R_ji is R_ij with its tuple halves swapped, so each
    stored relation is probed in both orientations.

    Every tuple this construction meets lies in P, the reachable synchronized
    product of the per-level trackers, so every probe of R_ij combines the
    components at i and i+1 of one member of P with those at j and j+1 of
    another.  Each R_ij is computed on exactly that domain, which is closed
    under common letters because P is; see `compute_Rij` for why the
    restricted game gives the same answers on it.

    Returns (tracker, per_state_levels) where per_state_levels[s] is the tuple
    of per-level tracker states represented by state s.
    """
    n = len(chain.levels)
    nsym = len(chain.alphabet)
    trackers = [residual_tracking_single(a) for a in chain.levels]
    deltas = [tracker.delta for (tracker, _map) in trackers]

    # Tuples are padded with the single tracker state of levels 0 and n+1,
    # so t[k] is the level-k component for every k in 0..n+1.
    def step(t, x):
        return (0,) + tuple(d[t[k]][x] for k, d in enumerate(deltas, start=1)) + (0,)

    initial = (0,) + tuple(state_map[level.initial]
                           for (_tracker, state_map), level in zip(trackers, chain.levels)) + (0,)
    product = reachable([initial], lambda t: [step(t, x) for x in range(nsym)])
    pairs = [{(t[k], t[k + 1]) for t in product} for k in range(n + 1)]
    relations = [compute_Rij(chain, trackers, i, j,
                             {a + b for a in pairs[i] for b in pairs[j]})
                 for i in range(n + 1) for j in range(i + 1, n + 1, 2)]

    def separated(t_new, t_old):
        for rel in relations:
            i, j = rel.i, rel.j
            if ((t_new[i], t_new[i + 1], t_old[j], t_old[j + 1]) in rel
                    or (t_old[i], t_old[i + 1], t_new[j], t_new[j + 1]) in rel):
                return True
        return False

    states = [initial]
    table = []
    for t in states:                    # new states are appended while walked
        row = []
        for x in range(nsym):
            t2 = step(t, x)
            target = next((cand for cand, t3 in enumerate(states)
                           if not separated(t2, t3)), None)
            if target is None:
                target = len(states)
                states.append(t2)
            row.append(target)
        table.append(row)
    rlta = Rlta(chain.alphabet, len(states), table, 0)
    return rlta, tuple(t[1:-1] for t in states)
