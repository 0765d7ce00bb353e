"""Chains of co-Buchi automata and residual language tracking.

A chain assigns each word the greatest level index whose co-Buchi automaton
accepts it (0 when none does); the word belongs to the chain's language iff
that color is even.  Decomposing a rerailing automaton level by level and
tracking residual languages of the combined language are the steps feeding
the minimization pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .games import GameArena, solve
from .raf import (AutomatonStructure, RafError, SiteError, complete_reachable_states,
                  equireach_relation, validate_complete, _body_lines, _expect_header, _line_of,
                  _numbered_lines, _parse_alphabet, _parse_raf_body)
from .scc import reachable, scc_decomposition


def _check_cobuchi_colors(aut):
    """Refuse an automaton with a transition color other than 1 and 2."""
    bad = [c for c in aut.colors if c not in (1, 2)]
    if bad:
        raise ValueError("co-Buchi colors must be 1 or 2, found %s" % bad)


class CoBuchiAutomaton(AutomatonStructure):
    """Complete automaton with transition colors in {1, 2}; 2 is accepting."""

    def __init__(self, alphabet, state_count, transitions, initial, state_names=None):
        super().__init__(alphabet, state_count, transitions, initial, state_names)
        _check_cobuchi_colors(self)
        missing = validate_complete(self)
        if missing:
            raise ValueError("co-Buchi automaton incomplete at %s" % (missing[:5],))

    def accepting_successors(self, state, symbol):
        return [dst for (dst, c) in self.successors(state, symbol) if c == 2]


class Chain:
    """Ordered levels over one alphabet, each a `CoBuchiAutomaton`."""

    def __init__(self, levels, alphabet=None):
        self.levels = list(levels)
        for a in self.levels:
            if not isinstance(a, CoBuchiAutomaton):
                raise ValueError("chain level is not a CoBuchiAutomaton: %s" % type(a).__name__)
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
    return _read_chain(_numbered_lines(text))


def _read_chain(lines):
    _expect_header(lines, "cocoa 1")
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
        body = idx + 1
        level, idx = _parse_raf_body(lines, with_colors=True, start=body,
                                     stop_words=("automaton",), cls=CoBuchiAutomaton,
                                     label="automaton %d: " % want)
        if levels and level.alphabet != levels[0].alphabet:
            raise RafError("automaton %d: alphabet %s differs from automaton 1's, %s"
                           % (want, " ".join(level.alphabet), " ".join(levels[0].alphabet)),
                           _line_of(lines[body:idx], ("alphabet",), None))
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

    The level claim holds for every DPW, where each state's only mate is
    itself, and for every rerailing input, as the paper shows.  It can fail
    otherwise: level 2 of `NOT_RERAILING3` in tests/test_cobuchi.py accepts
    b;c, on which the input's one run has dominating color 1.
    """
    reach = complete_reachable_states(aut)
    if len(reach) < aut.state_count:      # keep the reachable states, in order
        keep = {q: k for k, q in enumerate(sorted(reach))}
        names = {keep[q]: name for q, name in (aut.state_names or {}).items() if q in keep}
        aut = AutomatonStructure(aut.alphabet, len(keep),
                                 [(k, x, keep[d], c) for s, k in keep.items()
                                  for x, cell in enumerate(aut._succ[s]) for (d, c) in cell],
                                 keep[aut.initial], names or None)
    relation = equireach_relation(aut)
    mates = [[] for _ in range(aut.state_count)]
    for (p, q) in sorted(relation):
        mates[q].append(p)
    levels = []
    for i in range(1, aut.max_color + 1):
        colors = {}
        for src, row in enumerate(aut._succ):
            for sym, cell in enumerate(row):
                for (dst, color) in cell:
                    if color >= i:
                        colors[(src, sym, dst)] = 2
                    else:
                        for mate in mates[dst]:
                            colors.setdefault((src, sym, mate), 1)
        levels.append(CoBuchiAutomaton(aut.alphabet, aut.state_count,
                                       [key + (c,) for key, c in colors.items()],
                                       aut.initial, aut.state_names))
    return Chain(levels, aut.alphabet)


@lru_cache(maxsize=32)
def _one_state_level(alphabet, color):
    """The one-state level whose moves all have `color`: universal for 2, empty for 1.
    Shared between callers, so read-only."""
    return CoBuchiAutomaton(alphabet, 1, [(0, x, 0, color) for x in range(len(alphabet))], 0)


def _letter_game(ai, ai1, aj, aj1, starts, twin_step=None):
    """The state tuples (qi, qi1, qj, qj1) of `starts` from which player 0 wins
    the letter game on four levels over one alphabet.

    Player 0 spells a word with runs of `ai` and `aj`; player 1 answers
    online with runs of `ai1` and `aj1`.  A round moves from
    (qi, qi1, qj, qj1): player 0 picks a symbol and any move of each of its
    two automata, then player 1 moves `ai1` and `aj1` on that symbol.
    Player 0 wins a play iff its runs take finitely many rejecting moves and
    both of player 1's runs take infinitely many.

    With `ai1` and `aj1` history-deterministic, player 0 wins from
    (qi, qi1, qj, qj1) iff some word is accepted from qi and from qj but
    neither from qi1 nor from qj1:

    - if there is such a word, player 0 spells it along accepting runs,
      blind to player 1's moves; both answers are rejecting runs;
    - if not, player 1 moves `ai1` and `aj1` by their history-deterministic
      strategies.  If player 0's runs are both accepting, its word is
      accepted from qi1 or from qj1, so one of player 1's runs is
      accepting; else one of player 0's runs rejects.

    So the winner of a round start depends only on the languages of its
    four states.  `twin_step` is given when `ai1` and `aj` are one level:
    twin_step[q][x] is the tracker state that its state q reaches on x.  A
    symbol on which qi1 and qj reach one tracker state is no move, for the
    round start it reaches names one language twice and player 0 loses
    there; a round start left without a move loses.

    When `ai1` and `aj1` are deterministic (every DPW level is, and so is the
    empty level `inclusion_table` passes), player 1 has no choice and the
    game is a graph search: `_graph_winners`.  Otherwise it is the parity
    game `_arena_winners`.
    """
    if all(len(row) == 1 for a in (ai1, aj1) for rows in a._succ for row in rows):
        return _graph_winners(ai, ai1, aj, aj1, starts, twin_step)
    return _arena_winners(ai, ai1, aj, aj1, starts, twin_step)


def _graph_winners(ai, ai1, aj, aj1, starts, twin_step):
    """`_letter_game` with deterministic `ai1` and `aj1`, by one SCC pass.

    Player 1's answer to a symbol is fixed, so every play is a path of the
    graph on the round starts reachable from `starts`, with one edge per
    symbol and pair of player-0 moves.  Call an edge safe when neither of
    player 0's moves is rejecting, and an SCC of the safe edges good when
    its internal safe edges include a rejecting `ai1` move and a rejecting
    `aj1` move.  Player 0 wins from a start iff it reaches a good SCC:

    - from a good SCC player 0 loops forever on safe edges through both
      rejecting answers, which a strongly connected set of edges allows;
    - a winning play takes finitely many unsafe edges, so the edges it takes
      infinitely often are safe and strongly connected, hence lie in one
      SCC of the safe edges, and they include both rejecting answers.

    One Tarjan pass on the safe edges and one backward walk over all edges
    decide every start; no counter, player-1 position or parity game is
    needed.
    """
    symbols = range(len(ai.alphabet))
    succ_i, succ_i1, succ_j, succ_j1 = (a._succ for a in (ai, ai1, aj, aj1))
    ids = {qs: k for k, qs in enumerate(dict.fromkeys(starts))}
    keys = list(ids)
    preds = [[] for _ in keys]
    safe, marks = [], []            # safe successors and their answers' rejection bits
    for u, (qi, qi1, qj, qj1) in enumerate(keys):     # `keys` grows while walked
        out, mark = [], []
        for x in symbols:
            if twin_step is not None and twin_step[qi1][x] == twin_step[qj][x]:
                continue
            ((r, ci),) = succ_i1[qi1][x]
            ((s2, cj),) = succ_j1[qj1][x]
            m = (ci == 1) + 2 * (cj == 1)
            bs = succ_j[qj][x]
            for (a2, ca) in succ_i[qi][x]:
                for (b2, cb) in bs:
                    key = (a2, r, b2, s2)
                    v = ids.get(key)
                    if v is None:
                        v = ids[key] = len(keys)
                        keys.append(key)
                        preds.append([])
                    preds[v].append(u)
                    if ca == 2 and cb == 2:
                        out.append(v)
                        mark.append(m)
        safe.append(out)
        marks.append(mark)
    component_of = scc_decomposition(len(keys), safe)
    seen = {}
    for u, out in enumerate(safe):
        c = component_of[u]
        for v, m in zip(out, marks[u]):
            if m and component_of[v] == c:
                seen[c] = seen.get(c, 0) | m
    good = [u for u, c in enumerate(component_of) if seen.get(c) == 3]
    won = set(reachable(good, preds.__getitem__))
    return {qs for qs in starts if ids[qs] in won}


def _arena_winners(ai, ai1, aj, aj1, starts, twin_step):
    """`_letter_game` as a parity game, for nondeterministic `ai1` or `aj1`.

    At a round start (qi, qi1, qj, qj1, z) player 0 moves to a player-1
    vertex colored 1 when one of its moves is rejecting.  The counter z
    waits for a rejecting `ai1` move (z = 0), then for a rejecting `aj1`
    move (z = 1); a round start with z = 2 pays out color 2 and plays on as
    z = 0.  Every other vertex has color 3, and a round start left without
    a move has color 3 and loops on itself.  So the lowest color seen
    infinitely often is even iff player 0 wins the play, and since the
    winner of a round start does not depend on z, each start is played from
    z = 0.
    """
    symbols = range(len(ai.alphabet))
    succ_i, succ_i1, succ_j, succ_j1 = (a._succ for a in (ai, ai1, aj, aj1))
    firsts = list(dict.fromkeys(starts))          # vertex v < len(firsts) starts firsts[v]
    keys = [("s",) + qs + (0,) for qs in firsts]  # keys[v]: the key of vertex v
    ids = {key: v for (v, key) in enumerate(keys)}
    owners, colors, rows = [], [], []

    def vertex(key):                              # the id of `key`, numbered on first lookup
        v = ids.get(key)
        if v is None:
            v = ids[key] = len(keys)
            keys.append(key)
        return v

    for (v, key) in enumerate(keys):              # `vertex` appends to the keys walked
        rows.append(out := [])
        if key[0] == "s":
            (_t, qi, qi1, qj, qj1, z) = key
            owners.append(0)
            on = 0 if z == 2 else z       # z = 2 pays out color 2 and plays on as z = 0
            for x in symbols:
                if twin_step is not None and twin_step[qi1][x] == twin_step[qj][x]:
                    continue
                bs = succ_j[qj][x]
                for (a2, ca) in succ_i[qi][x]:
                    for (b2, cb) in bs:
                        out.append(vertex(("x", a2, qi1, b2, qj1, on, x,
                                           1 if ca == 1 or cb == 1 else 3)))
            colors.append(2 if z == 2 and out else 3)
            if not out:                   # stuck: color 3 forever
                out.append(v)
        else:                             # a player-1 vertex; z is 0 or 1 here
            (_t, qi, qi1, qj, qj1, z, x, color) = key
            owners.append(1)
            colors.append(color)
            for (r, ci) in succ_i1[qi1][x]:
                for (s2, cj) in succ_j1[qj1][x]:
                    out.append(vertex(("s", qi, r, qj, s2, 2 - ci if z == 0 else 3 - cj)))
    arena = GameArena(owners, colors, rows)
    # free the vertex table and the lists before solving: the arena copies owners and colors
    del ids, keys, owners, colors, rows
    w0, _w1 = solve(arena)
    return {qs for (v, qs) in enumerate(firsts) if v in w0}


def inclusion_table(a, b):
    """All pairs (p, q) with L(a from p) contained in L(b from q); b history-deterministic.

    One letter game answers every pair: `_letter_game` on (a, b, universal,
    empty), whose player 0 wins from (p, q, 0, 0) iff some word is accepted
    from p by `a` but not from q by `b`.  (p, q) is in the table iff she loses.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("inclusion needs a common alphabet")
    starts = [(p, q, 0, 0) for p in range(a.state_count) for q in range(b.state_count)]
    won = _letter_game(a, b, _one_state_level(a.alphabet, 2), _one_state_level(a.alphabet, 1),
                       starts)
    return frozenset((p, q) for (p, q, _u, _e) in starts if (p, q, 0, 0) not in won)


class Rlta(AutomatonStructure):
    """Deterministic complete automaton whose states stand for residual languages.

    Its transitions carry color 0, and `delta[q][x]` is the one successor of q
    on symbol x.  When names are given, the display names of all states (a
    number for an unnamed one) must be distinct: `residualize` names floating
    states by them.
    """

    def __init__(self, alphabet, state_count, transitions, initial, state_names=None):
        super().__init__(alphabet, state_count, transitions, initial, state_names)
        for q, rows in enumerate(self._succ):
            for x, row in enumerate(rows):
                if len(row) != 1:
                    raise SiteError("tracker must be deterministic and complete; state %d "
                                    "symbol %s has %d successors"
                                    % (q, alphabet.symbols[x], len(row)), "trans", q, x)
        if state_names and len({self.state_name(q) for q in range(state_count)}) != state_count:
            raise ValueError("state display names must be unique")
        self.delta = [[dst for ((dst, _c),) in rows] for rows in self._succ]

    def step(self, state, symbol):
        return self.delta[state][symbol]


def residual_tracking_single(a):
    """Residual tracker of one language-deterministic history-deterministic level.

    States are the classes of the least partition of the level's states
    that puts the successors of every cell in one class and is closed under
    steps: the successors of one class on one symbol lie in one class.  So
    the tracker is the least quotient that makes the level deterministic,
    and a deterministic level, such as every level of a DPW, is its own
    tracker, each state a class of its own.  Classes are numbered by their
    least state.

    The members of a class must accept one language.  On a co-Buchi level
    x^-1 L(q) is the union of the languages of q's successors on x, so the
    closure joins only states of one language exactly when the
    mutual-inclusion classes of the level move as wholes, which is what
    language-deterministic means.  One letter game, that of
    `inclusion_table`, decides it from each (member, least member) pair of
    a class with two or more members, in both directions; a level where
    player 0 wins one of them is refused as not language-deterministic.
    A deterministic level plays no game.

    Returns (tracker, state_map) with state_map giving each level state its class.
    """
    link = list(range(a.state_count))    # union-find links; a class's root is its least state

    def find(q):
        while link[q] != q:
            link[q] = link[link[q]]
            q = link[q]
        return q

    step = [[cell[0][0] for cell in row] for row in a._succ]    # a class moves as its root
    pending = [(cell[0][0], dst) for row in a._succ for cell in row for (dst, _c) in cell[1:]]
    while pending:
        p, q = sorted(map(find, pending.pop()))
        if p != q:
            link[q] = p
            pending.extend(zip(step[p], step[q]))
    ids, state_map, starts = {}, [], []
    for q in range(a.state_count):          # a root comes first in its class
        r = find(q)
        state_map.append(ids.setdefault(r, len(ids)))
        if r != q:
            starts += [(q, r, 0, 0), (r, q, 0, 0)]
    if starts:
        won = _letter_game(a, a, _one_state_level(a.alphabet, 2),
                           _one_state_level(a.alphabet, 1), starts)
        for qs in starts:
            if qs in won:
                raise ValueError("not language-deterministic: states %d and %d accept "
                                 "different languages but the level's steps join them"
                                 % tuple(sorted(qs[:2])))
    transitions = [(s, x, state_map[d], 0) for r, s in ids.items() for x, d in enumerate(step[r])]
    return Rlta(a.alphabet, len(ids), transitions, state_map[a.initial]), state_map


def _first_match_classes(items, same):
    """(openers, class of each item); each joins the first class whose opener it is `same` as."""
    openers, class_of = [], []
    for t in items:
        s = next((s for s, r in enumerate(openers) if same(t, r)), len(openers))
        if s == len(openers):
            openers.append(t)
        class_of.append(s)
    return openers, class_of


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


def _levels(chain, trackers):
    """(automaton, state-to-tracker map, tracker table) of each level 0..n+1:
    levels 0 and n+1 are the implicit universal and empty-language automata,
    each tracking a single residual."""
    one = [[0] * len(chain.alphabet)]
    return ([(_one_state_level(chain.alphabet, 2), [0], one)]
            + [(a, m, tracker.delta) for a, (tracker, m) in zip(chain.levels, trackers)]
            + [(_one_state_level(chain.alphabet, 1), [0], one)])


def compute_Rij(chain, trackers, i, j, domain):
    """The level-(i, j) distinguishing relation over tracker states.

    A tracker tuple is in R_ij iff player 0 wins `_letter_game` on levels
    i, i+1, j and j+1 from one level state of each of its tracker states.
    That game answers the language question of `RijRelation` for the
    states it starts from, since every level is history-deterministic, and
    its answer does not depend on which states those are: a tracker state
    is a class of the step closure of `residual_tracking_single`, whose
    members all accept one language.  So each tuple is decided from a
    single start.  That start is on the diagonal where it can be: when
    levels i and i+1 have one state count, a tracker pair (s_i, s_i1)
    starts from (q, q) for the least state q in both classes, and likewise
    for levels j and j+1; other pairs start from the least member of each
    class.  On a DPW every level has the
    input's states and its one deterministic transition function, so a
    play from (q, q, q', q') reads one word on both halves and stays on
    tuples (p, p, p', p'): the game has at most |Q|^2 round starts where
    least members would give |Q|^4.  By definition R_ji is R_ij with its two
    tuple halves swapped, which is why `build_rlta_chain` only asks for
    i < j.

    `domain` holds the tracker tuples to decide, and the result is the
    relation restricted to it.  For j = i + 1 a tuple whose components at
    i+1 and j are equal names one residual twice, which no word can both
    leave and enter, so it is never in R_{i,i+1}: such tuples leave the
    domain, and the game makes no move onto one.  With no tuple left no
    game is played.  The pruning compares tracker states, which on a
    deterministic level are its own states, so it drops fewer moves than a
    comparison of languages would; every move it drops still names one
    language twice.
    """
    n = len(chain.levels)
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("level indices out of range")
    every = _levels(chain, trackers)
    levels = [every[k] for k in (i, i + 1, j, j + 1)]
    twins = j == i + 1
    domain = [t for t in domain if not (twins and t[1] == t[2])]
    if not domain:
        return RijRelation(i, j, frozenset())

    def pick(lower, upper):
        (a, ma, da), (b, mb, db) = lower, upper
        common = {}
        if a.state_count == b.state_count:
            for q in range(a.state_count):
                common.setdefault((ma[q], mb[q]), (q, q))
        least_a = [ma.index(s) for s in range(len(da))]
        least_b = [mb.index(s) for s in range(len(db))]
        return lambda sa, sb: common.get((sa, sb)) or (least_a[sa], least_b[sb])

    pick_i, pick_j = pick(*levels[:2]), pick(*levels[2:])
    starts = [pick_i(si, si1) + pick_j(sj, sj1) for (si, si1, sj, sj1) in domain]
    (_a, mi1, di1) = levels[1]
    twin_step = [di1[s] for s in mi1] if twins else None
    won = _letter_game(*(a for (a, _m, _d) in levels), starts, twin_step)
    return RijRelation(i, j, frozenset(t for t, qs in zip(domain, starts) if qs in won))


def build_rlta_chain(chain):
    """Residual tracker of the whole chain language.

    Its states are the classes of P, the reachable synchronized product of
    the trackers of levels 0..n+1 (`residual_tracking_single`'s, so a
    deterministic level contributes its own states), classified in
    breadth-first order by
    `_first_match_classes`: a tuple joins the first class whose opener no
    distinguishing relation of mixed evenness separates it from.  When the
    levels weakly fall, non-separation is an equivalence that the tracker
    steps respect, so each class moves as its opener does.  An opener that
    some R_ij separates from itself refuses the chain with a `ValueError`:
    level j accepts a word that level i + 1, below it, rejects.

    Only R_ij with i < j is computed (R_ji is R_ij with its tuple halves
    swapped), on the tuples a probe combines from the components at i and
    i+1 of one member of P and those at j and j+1 of another.

    The classes depend only on the residual languages that the components
    of a tuple name, and breadth-first order opens each class at the
    shortlex-least word that reaches it.  So any level trackers whose
    classes each hold one language, however fine, give the same tracker.

    Returns (tracker, per_state_levels) where per_state_levels[s] is the
    tuple of per-level tracker states of the opener of state s.
    """
    n = len(chain.levels)
    nsym = len(chain.alphabet)
    trackers = [residual_tracking_single(a) for a in chain.levels]
    levels = _levels(chain, trackers)
    deltas = [d for (_a, _m, d) in levels]

    def step(t, x):                     # t[k] is the level-k component, k in 0..n+1
        return tuple(d[s][x] for d, s in zip(deltas, t))

    initial = tuple(state_map[a.initial] for (a, state_map, _d) in levels)
    product = reachable([initial], lambda t: [step(t, x) for x in range(nsym)])
    pairs = [{(t[k], t[k + 1]) for t in product} for k in range(n + 1)]
    relations = [compute_Rij(chain, trackers, i, j,
                             {a + b for a in pairs[i] for b in pairs[j]})
                 for i in range(n + 1) for j in range(i + 1, n + 1, 2)]

    def separating(t_new, t_old):       # the first relation separating them, or None
        for rel in relations:
            i, j = rel.i, rel.j
            if ((t_new[i], t_new[i + 1], t_old[j], t_old[j + 1]) in rel
                    or (t_old[i], t_old[i + 1], t_new[j], t_new[j + 1]) in rel):
                return rel
        return None

    openers, classes = _first_match_classes(product, lambda t, r: separating(t, r) is None)
    for t in openers:
        if rel := separating(t, t):
            raise ValueError("chain levels are not weakly falling: level %d accepts a word "
                             "that level %d rejects" % (rel.j, rel.i + 1))
    class_of = dict(zip(product, classes))
    rlta = Rlta(chain.alphabet, len(openers), [
        (s, x, class_of[step(t, x)], 0) for s, t in enumerate(openers) for x in range(nsym)], 0)
    return rlta, tuple(t[1:-1] for t in openers)
