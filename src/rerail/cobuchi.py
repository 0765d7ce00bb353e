"""Chains of co-Buchi automata and residual language tracking.

A chain assigns each word the greatest level index whose co-Buchi automaton
accepts it (0 when none does); the word belongs to the chain's language iff
that color is even.  Decomposing a rerailing automaton level by level and
tracking residual languages of the combined language are the steps feeding
the minimization pipeline.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .games import ArenaBuilder, solve
from .lasso import member_cobuchi, enumerate_lassos
from .raf import (AutomatonStructure, RafError, equireach_relation, validate_complete,
                  _numbered_lines, _parse_raf_body)


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


def chain_color(chain, lasso):
    """Greatest level index accepting the lasso, 0 when no level does."""
    for i in range(len(chain.levels), 0, -1):
        if member_cobuchi(chain.levels[i - 1], lasso):
            return i
    return 0


def chain_member(chain, lasso):
    return chain_color(chain, lasso) % 2 == 0


def chain_falling_violations(chain, stem_bound, cycle_bound):
    """Advisory check that each level's language contains the next one's.

    Returns (level, lasso) pairs where level i+1 accepts but level i does not,
    over all lassos within the bounds.  Exact inclusion is out of scope.
    """
    violations = []
    for i in range(1, len(chain.levels)):
        lower, upper = chain.levels[i - 1], chain.levels[i]
        for lasso in enumerate_lassos(len(chain.alphabet), stem_bound, cycle_bound):
            if member_cobuchi(upper, lasso) and not member_cobuchi(lower, lasso):
                violations.append((i + 1, lasso))
    return violations


def serialize_chain(chain):
    out = ["cocoa 1", "count %d" % len(chain.levels)]
    for idx, level in enumerate(chain.levels, start=1):
        out.append("automaton %d" % idx)
        out.append("alphabet " + " ".join(level.alphabet.symbols))
        out.append("states %d" % level.state_count)
        out.append("initial %d" % level.initial)
        if level.state_names:
            for q in sorted(level.state_names):
                out.append('name %d "%s"' % (q, level.state_names[q]))
        for (src, sym, dst, color) in level.transitions:
            out.append("trans %d %s %d %d" % (src, level.alphabet.symbols[sym], dst, color))
    return "\n".join(out) + "\n"


def parse_chain(text):
    lines = _numbered_lines(text)
    if not lines or lines[0][1] != "cocoa 1":
        raise RafError("expected 'cocoa 1' header", lines[0][0] if lines else None)
    if len(lines) < 2 or not lines[1][1].startswith("count"):
        raise RafError("expected 'count <n>' after header")
    try:
        count = int(lines[1][1].split()[1])
    except (IndexError, ValueError):
        raise RafError("bad count line", lines[1][0]) from None
    idx = 2
    levels = []
    for want in range(1, count + 1):
        if idx >= len(lines) or not lines[idx][1].startswith("automaton"):
            raise RafError("expected 'automaton %d' block" % want)
        parts = lines[idx][1].split()
        if len(parts) != 2 or parts[1] != str(want):
            raise RafError("chain blocks must be numbered consecutively from 1", lines[idx][0])
        idx += 1
        aut, idx = _parse_raf_body(lines, require_version=None, with_colors=True,
                                   start=idx, stop_words=("automaton",))
        try:
            levels.append(CoBuchiAutomaton.from_structure(aut))
        except ValueError as exc:
            raise RafError("automaton %d: %s" % (want, exc)) from None
    if idx != len(lines):
        raise RafError("trailing content after %d chain blocks" % count, lines[idx][0])
    return Chain(levels)


def decompose_rerailing(aut):
    """Split a rerailing automaton of maximum color k into k co-Buchi levels.

    Level i accepts exactly the words having some run with dominating color
    >= i: transitions of color >= i stay as accepting copies, lower-colored
    ones become rejecting moves onto every state jointly reachable with the
    original target.
    """
    missing = validate_complete(aut)
    if missing:
        raise ValueError("input automaton incomplete at %s" % (missing[:5],))
    relation = equireach_relation(aut)
    mates = [[] for _ in range(aut.state_count)]
    for (p, q) in sorted(relation):
        mates[q].append(p)
    levels = []
    for i in range(1, aut.max_color + 1):
        transitions = set()
        for (src, sym, dst, color) in aut.transitions:
            if color >= i:
                transitions.add((src, sym, dst, 2))
            else:
                for mate in mates[dst]:
                    transitions.add((src, sym, mate, 1))
        levels.append(CoBuchiAutomaton(aut.alphabet, aut.state_count,
                                       sorted(transitions), aut.initial,
                                       aut.state_names))
    return Chain(levels, aut.alphabet)


def inclusion_game(a, b):
    """One letter-game arena answering language inclusion for all state pairs.

    The spoiler (player 1) spells a word together with a run of `a`; the
    duplicator (player 0) answers with a run of `b`, which must be accepting
    whenever the spoiler's run is.  A round contributes color 0 when the
    spoiler's move was rejecting, else 1 when the duplicator's was, else 2;
    the round color sits on the next spoiler vertex.

    Returns (arena, entries) with entries[(p, q)] the vertex asking
    L(a from p) <= L(b from q).
    """
    nsym = len(a.alphabet)
    if a.alphabet != b.alphabet:
        raise ValueError("inclusion needs a common alphabet")
    builder = ArenaBuilder()
    vertex, ids, keys, edges = builder.vertex, builder.ids, builder.keys, builder.edges
    for pa in range(a.state_count):
        for pb in range(b.state_count):
            for e in (0, 1, 2):
                vertex(("s", pa, pb, e), 1, e)
    while builder.todo:
        vid = builder.todo.pop()
        key = keys[vid]
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
    entries = {(pa, pb): ids[("s", pa, pb, 2)]
               for pa in range(a.state_count) for pb in range(b.state_count)}
    return builder.arena(), entries


def inclusion_table(a, b):
    """All pairs (p, q) with L(a from p) contained in L(b from q); b history-deterministic."""
    arena, entries = inclusion_game(a, b)
    w0, _w1 = solve(arena)
    return frozenset(pair for pair, vid in entries.items() if vid in w0)


def inclusion_hd_cobuchi(a, p, b, q):
    """Language inclusion L(a from p) <= L(b from q) via the letter game."""
    return (p, q) in inclusion_table(a, b)


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

    def step(self, state, symbol):
        return self.delta[state][symbol]

    def state_name(self, state):
        if self.names is not None:
            return self.names[state]
        return str(state)

    def states_along(self, lasso, count):
        """Tracker states before positions 0..count-1 of the lasso."""
        out = [self.initial]
        state = self.initial
        for k in range(count - 1):
            state = self.step(state, lasso.letter_at(k))
            out.append(state)
        return out

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


def _implicit_universal(alphabet):
    nsym = len(alphabet)
    return CoBuchiAutomaton(alphabet, 1, [(0, x, 0, 2) for x in range(nsym)], 0)


def _implicit_empty(alphabet):
    nsym = len(alphabet)
    return CoBuchiAutomaton(alphabet, 1, [(0, x, 0, 1) for x in range(nsym)], 0)


class _LevelView:
    """Uniform access to chain levels 0..n+1 with their trackers.

    Level 0 is the implicit universal automaton, level n+1 the implicit
    empty-language automaton; both track a single residual.
    """

    def __init__(self, chain, trackers):
        self.chain = chain
        self.trackers = trackers
        self.n = len(chain.levels)
        self._universal = _implicit_universal(chain.alphabet)
        self._empty = _implicit_empty(chain.alphabet)

    def automaton(self, k):
        if k == 0:
            return self._universal
        if k == self.n + 1:
            return self._empty
        return self.chain.levels[k - 1]

    def tracker_states(self, k):
        if k == 0 or k == self.n + 1:
            return 1
        return self.trackers[k - 1][0].state_count

    def tracker_map(self, k, state):
        if k == 0 or k == self.n + 1:
            return 0
        return self.trackers[k - 1][1][state]

    def tracker_step(self, k, s, x):
        if k == 0 or k == self.n + 1:
            return 0
        return self.trackers[k - 1][0].step(s, x)


def compute_Rij(chain, trackers, i, j):
    """The level-(i, j) distinguishing relation over tracker states.

    Solved as a parity game: player 0 steers accepting runs of levels i and j
    while player 1 resolves levels i+1 and j+1; a counter z demands a
    rejecting (i+1)-move, then a rejecting (j+1)-move, and pays out color 0
    when both were seen.  Winning positions are mapped through the trackers
    and closed under predecessors.
    """
    view = _LevelView(chain, trackers)
    n = view.n
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("level indices out of range")
    ai, ai1 = view.automaton(i), view.automaton(i + 1)
    aj, aj1 = view.automaton(j), view.automaton(j + 1)
    nsym = len(chain.alphabet)

    builder = ArenaBuilder()
    vertex, ids, keys, edges = builder.vertex, builder.ids, builder.keys, builder.edges
    for qi in range(ai.state_count):
        for qi1 in range(ai1.state_count):
            for qj in range(aj.state_count):
                for qj1 in range(aj1.state_count):
                    for z in (0, 1, 2):
                        vertex(("s", qi, qi1, qj, qj1, z), 0, 0 if z == 2 else 1)
    state_vertices = len(keys)
    while builder.todo:
        vid = builder.todo.pop()
        key = keys[vid]
        if key[0] == "s":
            (_t, qi, qi1, qj, qj1, z) = key
            z2 = 0 if z == 2 else z
            for x in range(nsym):
                for a2 in ai.accepting_successors(qi, x):
                    for b2 in aj.accepting_successors(qj, x):
                        edges[vid].append(vertex(("x", a2, qi1, b2, qj1, z2, x), 1, 1))
            if not edges[vid]:
                edges[vid].append(vertex(("sink",), 0, 1))
        elif key[0] == "x":
            (_t, qi, qi1, qj, qj1, z, x) = key
            for (r, ci) in ai1.successors(qi1, x):
                for (s2, cj) in aj1.successors(qj1, x):
                    if z == 0:
                        z3 = 2 - ci
                    elif z == 1:
                        z3 = 3 - cj
                    else:
                        z3 = 2
                    edges[vid].append(ids[("s", qi, r, qj, s2, z3)])
        else:                             # ("sink",): stuck, color 1 forever
            edges[vid].append(vid)
    w0, _w1 = solve(builder.arena())
    raw = set()
    for vid in range(state_vertices):
        if vid in w0:
            (_t, qi, qi1, qj, qj1, _z) = keys[vid]
            raw.add((view.tracker_map(i, qi), view.tracker_map(i + 1, qi1),
                     view.tracker_map(j, qj), view.tracker_map(j + 1, qj1)))
    spaces = [range(view.tracker_states(i)), range(view.tracker_states(i + 1)),
              range(view.tracker_states(j)), range(view.tracker_states(j + 1))]
    changed = True
    while changed:
        changed = False
        for combo in itertools.product(*spaces):
            if combo in raw:
                continue
            (si, si1, sj, sj1) = combo
            for x in range(nsym):
                stepped = (view.tracker_step(i, si, x), view.tracker_step(i + 1, si1, x),
                           view.tracker_step(j, sj, x), view.tracker_step(j + 1, sj1, x))
                if stepped in raw:
                    raw.add(combo)
                    changed = True
                    break
    return RijRelation(i, j, frozenset(raw))


def build_rlta_chain(chain):
    """Residual tracker of the whole chain language.

    Worklist construction over tuples of per-level tracker states; a freshly
    computed successor tuple reuses an existing state unless some
    distinguishing relation of mixed evenness separates the two, scanning
    existing states in insertion order (first match wins).

    Returns (tracker, per_state_levels) where per_state_levels[s] is the tuple
    of per-level tracker states represented by state s.
    """
    n = len(chain.levels)
    trackers = [residual_tracking_single(a) for a in chain.levels]
    view = _LevelView(chain, trackers)
    relations = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if (i + j) % 2 == 1:
                relations[(i, j)] = compute_Rij(chain, trackers, i, j)

    def component(t, k):
        if 1 <= k <= n:
            return t[k - 1]
        return 0

    def separated(t_new, t_old):
        for (i, j), rel in relations.items():
            probe = (component(t_new, i), component(t_new, i + 1),
                     component(t_old, j), component(t_old, j + 1))
            if probe in rel:
                return True
        return False

    initial_tuple = tuple(trackers[k][1][chain.levels[k].initial] for k in range(n))
    states = [initial_tuple]
    nsym = len(chain.alphabet)
    delta = {}
    todo = deque([0])
    while todo:
        s = todo.popleft()
        t = states[s]
        for x in range(nsym):
            t2 = tuple(view.tracker_step(k + 1, t[k], x) for k in range(n))
            target = None
            for cand, t3 in enumerate(states):
                if not separated(t2, t3):
                    target = cand
                    break
            if target is None:
                states.append(t2)
                target = len(states) - 1
                todo.append(target)
            delta[(s, x)] = target
    table = [[delta[(s, x)] for x in range(nsym)] for s in range(len(states))]
    rlta = Rlta(chain.alphabet, len(states), table, 0)
    return rlta, tuple(states)
