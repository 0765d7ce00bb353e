"""Floating co-Buchi automata.

A floating automaton keeps only safe (accepting) transitions: a partial
deterministic transition function, plus a label per state tying it to a
residual language tracker.  A word is accepted when, after some prefix, an
infinite run exists from a state labeled with the tracker state the prefix
reaches.  Minimization modulo a marking, products and unions of floating
automata are the building blocks of the rerailing-automaton construction.
"""

from __future__ import annotations

from collections import deque

from .cobuchi import Chain, CoBuchiAutomaton, Rlta, build_rlta_chain, chain_color
from .lasso import member_cobuchi
from .raf import (AutomatonStructure, RafError, _body_lines, _numbered_lines,
                  _parse_name_line, _parse_raf_body, _parse_state_count)
from .scc import scc_decomposition


class FloatingAutomaton:
    """Partial deterministic automaton with residual labels and optional marks."""

    def __init__(self, alphabet, state_count, delta, labels, rlta,
                 marking=None, names=None):
        self.alphabet = alphabet
        self.state_count = state_count
        self.delta = dict(delta)
        self.labels = list(labels)
        self.rlta = rlta
        self.marking = list(marking) if marking is not None else None
        self.names = list(names) if names is not None else None
        if len(self.labels) != state_count:
            raise ValueError("need one residual label per state")
        for lab in self.labels:
            if not 0 <= lab < rlta.state_count:
                raise ValueError("residual label %r outside the tracker" % (lab,))
        if self.marking is not None and len(self.marking) != state_count:
            raise ValueError("need one marking per state when marked")
        if self.names is not None and len(self.names) != state_count:
            raise ValueError("need one name per state when named")
        mark_step = {}
        for (src, sym), dst in self.delta.items():
            if not (0 <= src < state_count and 0 <= dst < state_count
                    and 0 <= sym < len(alphabet)):
                raise ValueError("transition (%d, %d, %d) out of range" % (src, sym, dst))
            if self.labels[dst] != rlta.step(self.labels[src], sym):
                raise ValueError(
                    "label of state %d breaks tracker compatibility on symbol %s"
                    % (dst, alphabet.symbols[sym]))
            if self.marking is not None:
                key = (self.marking[src], sym)
                want = self.marking[dst]
                if mark_step.setdefault(key, want) != want:
                    raise ValueError("markings do not progress deterministically at %r" % (key,))

    def step(self, state, symbol):
        return self.delta.get((state, symbol))

    def transitions(self):
        return sorted((src, sym, dst) for (src, sym), dst in self.delta.items())

    def state_name(self, state):
        return str(state) if self.names is None else self.names[state]

    def states_with_label(self, rlta_state):
        return [q for q in range(self.state_count) if self.labels[q] == rlta_state]

    def adjacency(self):
        adj = [[] for _ in range(self.state_count)]
        for (src, _sym), dst in self.delta.items():
            adj[src].append(dst)
        return adj

    def __eq__(self, other):
        if not isinstance(other, FloatingAutomaton):
            return NotImplemented
        return (self.alphabet == other.alphabet
                and self.state_count == other.state_count
                and self.transitions() == other.transitions()
                and self.labels == other.labels
                and self.marking == other.marking
                and self.rlta == other.rlta)

    def __repr__(self):
        return "FloatingAutomaton(states=%d, transitions=%d)" % (
            self.state_count, len(self.delta))


class FloatingChain:
    """A residual tracker plus the floating levels sharing it."""

    def __init__(self, rlta, levels):
        self.rlta = rlta
        self.levels = list(levels)
        self.alphabet = rlta.alphabet
        for f in self.levels:
            if f.alphabet != self.alphabet or f.rlta != rlta:
                raise ValueError("floating levels must share the chain's tracker")

    def __len__(self):
        return len(self.levels)

    def level(self, i):
        """1-based level access; level 0 is the tracker itself."""
        if i == 0:
            return level0_floating(self.rlta)
        return self.levels[i - 1]


def level0_floating(rlta):
    """The tracker viewed as a total floating automaton accepting everything."""
    delta = {(s, x): rlta.step(s, x)
             for s in range(rlta.state_count) for x in range(len(rlta.alphabet))}
    names = [rlta.state_name(s) for s in range(rlta.state_count)]
    return FloatingAutomaton(rlta.alphabet, rlta.state_count, delta,
                             list(range(rlta.state_count)), rlta, names=names)


def empty_floating(rlta, marked=False):
    return FloatingAutomaton(rlta.alphabet, 0, {}, [], rlta,
                             marking=[] if marked else None, names=[])


def residualize(a, rlta):
    """Floating automaton of one complete co-Buchi chain level.

    The carrier is the set of (state, tracker state) pairs jointly reachable
    under common words; only accepting transitions survive.  One subset
    construction over (state set, tracker state) keys builds the states.
    When the accepting part is deterministic on the carrier, it is seeded
    with the singleton pairs in carrier order; every child is then a seed,
    so the pairs themselves are the states.  Otherwise it is seeded with the
    pairs grouped by tracker state, which keeps the floating language because
    the safe language of a set is the union of its members' safe languages.
    """
    pairs = []
    seen = {(a.initial, rlta.initial)}
    todo = deque(seen)
    while todo:
        (q, s) = todo.popleft()
        pairs.append((q, s))
        for x in range(len(a.alphabet)):
            s2 = rlta.step(s, x)
            for q2 in a.successor_states(q, x):
                if (q2, s2) not in seen:
                    seen.add((q2, s2))
                    todo.append((q2, s2))
    deterministic = all(len(a.accepting_successors(q, x)) <= 1
                        for (q, _s) in pairs for x in range(len(a.alphabet)))
    if deterministic:
        order = [(frozenset({q}), s) for (q, s) in pairs]
    else:
        per_tracker = {}
        for (q, s) in pairs:
            per_tracker.setdefault(s, set()).add(q)
        order = [(frozenset(per_tracker[s]), s) for s in sorted(per_tracker)]
    ids = {key: i for i, key in enumerate(order)}
    delta = {}
    queue = deque(order)
    while queue:
        key = queue.popleft()
        (members, s) = key
        src = ids[key]
        for x in range(len(a.alphabet)):
            targets = {q2 for q in members for q2 in a.accepting_successors(q, x)}
            if not targets:
                continue
            child = (frozenset(targets), rlta.step(s, x))
            if child not in ids:
                ids[child] = len(order)
                order.append(child)
                queue.append(child)
            delta[(src, x)] = ids[child]
    labels = [s for (_members, s) in order]
    names = [_residual_name("+".join(a.state_name(q) for q in sorted(members)),
                            s, rlta)
             for (members, s) in order]
    return FloatingAutomaton(a.alphabet, len(order), delta, labels, rlta, names=names)


def _residual_name(base, s, rlta):
    if rlta.state_count == 1:
        return base
    return "%s@%s" % (base, rlta.state_name(s))


def residualize_chain(chain):
    """Build the chain's residual tracker and residualize every level.

    Each level is minimized after residualization.  The recursive construction
    consuming the chain relies on levels in normalized form: no transitions
    between SCCs and incomparable safe languages across equally labeled states
    of distinct SCCs.  Residualization alone guarantees neither when the
    source chain did not come from already-minimal co-Buchi automata.
    """
    rlta, _tuples = build_rlta_chain(chain)
    return FloatingChain(rlta, [minimize_floating(residualize(a, rlta))
                                for a in chain.levels])


def cobuchi_reading(f):
    """The complete co-Buchi automaton accepting the floating language of `f`.

    With T tracker states, states 0..T-1 wait on the tracker: state s moves
    on x to the tracker's step with color 1 and, for every state q of `f`
    labeled s with a safe move on x, to the floating copy of its target
    with color 2.  Floating copy T + q follows the safe moves of `f` with
    color 2 and, where `f` has none, falls back to the waiting state of its
    label's tracker step with color 1.  Labels follow the tracker, so every
    run tracks the prefix read.  A run seeing color 2 from some point on is
    an infinite safe run from a state labeled with the tracker state of its
    start, so 2 is an achievable dominating color exactly on the words `f`
    accepts.
    """
    rlta = f.rlta
    base = rlta.state_count
    nsym = len(f.alphabet)
    transitions = [(s, x, rlta.step(s, x), 1) for s in range(base) for x in range(nsym)]
    for q, s in enumerate(f.labels):
        for x in range(nsym):
            dst = f.step(q, x)
            if dst is None:
                transitions.append((base + q, x, rlta.step(s, x), 1))
            else:
                transitions.append((s, x, base + dst, 2))
                transitions.append((base + q, x, base + dst, 2))
    return CoBuchiAutomaton(f.alphabet, base + f.state_count, transitions, rlta.initial)


def cobuchi_chain(fchain):
    """The chain of the co-Buchi readings of the floating levels."""
    return Chain([cobuchi_reading(f) for f in fchain.levels], fchain.alphabet)


def floating_member(f, lasso):
    """Acceptance from some position: an infinite run from a correctly labeled state."""
    return member_cobuchi(cobuchi_reading(f), lasso)


def floating_chain_color(fchain, lasso):
    """Greatest level whose floating language holds the lasso, 0 when none does."""
    return chain_color(cobuchi_chain(fchain), lasso)


def floating_chain_member(fchain, lasso):
    return floating_chain_color(fchain, lasso) % 2 == 0


def _safe_subset_raw(delta1, q, delta2, q2, nsym):
    seen = {(q, q2)}
    todo = deque(seen)
    while todo:
        (a, b) = todo.popleft()
        for x in range(nsym):
            d1 = delta1.get((a, x))
            if d1 is None:
                continue
            d2 = delta2.get((b, x))
            if d2 is None:
                return False
            if (d1, d2) not in seen:
                seen.add((d1, d2))
                todo.append((d1, d2))
    return True


def safe_subset(f1, q, f2, q2):
    """Whether every finite word safely accepted from q is safe from q2."""
    if f1.alphabet != f2.alphabet:
        raise ValueError("safe-language comparison needs a common alphabet")
    return _safe_subset_raw(f1.delta, q, f2.delta, q2, len(f1.alphabet))


def _merge_names(a, b):
    head_a, _, tail_a = a.rpartition(",")
    head_b, _, tail_b = b.rpartition(",")
    if head_a and head_a == head_b:
        return "%s,%s/%s" % (head_a, tail_a, tail_b)
    return "%s/%s" % (a, b)


def minimize_floating(f):
    """Smallest floating automaton with the same language and marking behavior.

    Each round runs one SCC pass over the current transitions.  It drops
    every state on no cycle and every transition between SCCs: a run
    eventually stays inside one SCC and may as well enter there, so these
    transitions are superfluous.  Removing a state on no cycle breaks no
    cycle, so the partition of that pass still holds for what is left.  The
    round then takes one action on it: between distinct SCCs drop the first
    state (in sorted pair order) whose safe language is strictly contained
    in that of an equally labeled and marked state; failing that, merge the
    higher index of the first pair with equal label, marking and safe
    language onto the lower one.  Cross-SCC transitions must go before the
    containment comparisons: they inflate the safe languages of upstream
    states, and deleting a state that such an escape path runs through would
    lose words.  Rounds stop when no action applies.
    """
    n = f.state_count
    nsym = len(f.alphabet)
    delta = dict(f.delta)
    names = [f.state_name(q) for q in range(n)]
    keys = [(f.labels[q], None if f.marking is None else f.marking[q]) for q in range(n)]

    def subset(q, q2):
        return _safe_subset_raw(delta, q, delta, q2, nsym)

    while True:
        # Dropped and merged-away states have no transitions left, so they
        # fall out of `alive` here with the states on no cycle.
        adj = [[] for _ in range(n)]
        for (src, _x), dst in delta.items():
            adj[src].append(dst)
        dec = scc_decomposition(n, adj)
        comp = dec.component_of
        alive = [q for q in range(n) if comp[q] in dec.nontrivial]
        delta = {(src, x): dst for (src, x), dst in delta.items() if comp[src] == comp[dst]}
        pairs = [(q, q2) for qi, q in enumerate(alive) for q2 in alive[qi + 1:]
                 if keys[q] == keys[q2]]
        doomed = None
        for (q, q2) in pairs:
            if comp[q] != comp[q2]:
                sub, sup = subset(q, q2), subset(q2, q)
                if sub != sup:
                    doomed = q if sub else q2
                    break
        if doomed is not None:
            delta = {(src, x): dst for (src, x), dst in delta.items()
                     if doomed not in (src, dst)}
            continue
        equal = next(((q, q2) for (q, q2) in pairs if subset(q, q2) and subset(q2, q)), None)
        if equal is None:
            break
        (q, q2) = equal
        delta = {(src, x): q if dst == q2 else dst for (src, x), dst in delta.items()
                 if src != q2}
        names[q] = _merge_names(names[q], names[q2])
    kept = FloatingAutomaton(f.alphabet, n, delta, f.labels, f.rlta,
                             marking=f.marking, names=names)
    return restrict_floating(kept, alive)


def product_floating(f1, f2):
    """Intersection: label-equal pairs with componentwise moves, marked by the first."""
    if f1.alphabet != f2.alphabet or f1.rlta != f2.rlta:
        raise ValueError("product needs a common alphabet and tracker")
    states = [(q1, q2) for q1 in range(f1.state_count) for q2 in range(f2.state_count)
              if f1.labels[q1] == f2.labels[q2]]
    index = {pair: i for i, pair in enumerate(states)}
    delta = {}
    for (q1, q2) in states:
        for x in range(len(f1.alphabet)):
            d1 = f1.step(q1, x)
            d2 = f2.step(q2, x)
            if d1 is not None and d2 is not None:
                delta[(index[(q1, q2)], x)] = index[(d1, d2)]
    labels = [f1.labels[q1] for (q1, _q2) in states]
    names = []
    for (q1, q2) in states:
        head = f1.state_name(q1)
        tail = f2.state_name(q2)
        names.append("%s,%s" % (head, tail) if head else tail)
    return FloatingAutomaton(f1.alphabet, len(states), delta, labels, f1.rlta,
                             marking=[q1 for (q1, _q2) in states], names=names)


def union_floating(f1, f2):
    """Disjoint juxtaposition; accepts the union of the two languages."""
    if f1.alphabet != f2.alphabet or f1.rlta != f2.rlta:
        raise ValueError("union needs a common alphabet and tracker")
    if (f1.marking is None) != (f2.marking is None):
        raise ValueError("union operands must agree on being marked")
    shift = f1.state_count
    delta = dict(f1.delta)
    for (src, x), dst in f2.delta.items():
        delta[(src + shift, x)] = dst + shift
    labels = list(f1.labels) + list(f2.labels)
    marking = None
    if f1.marking is not None:
        marking = list(f1.marking) + list(f2.marking)
    names = ([f1.state_name(q) for q in range(f1.state_count)]
             + [f2.state_name(q) for q in range(f2.state_count)])
    return FloatingAutomaton(f1.alphabet, shift + f2.state_count, delta, labels,
                             f1.rlta, marking=marking, names=names)


def restrict_floating(f, states):
    """Sub-automaton on a state subset with only internal transitions."""
    order = sorted(set(states))
    renum = {q: i for i, q in enumerate(order)}
    delta = {(renum[src], x): renum[dst] for (src, x), dst in f.delta.items()
             if src in renum and dst in renum}
    marking = [f.marking[q] for q in order] if f.marking is not None else None
    return FloatingAutomaton(f.alphabet, len(order), delta,
                             [f.labels[q] for q in order], f.rlta,
                             marking=marking, names=[f.state_name(q) for q in order])


def max_accepting_sccs(f):
    """Nontrivial SCCs of the safe-transition graph, ordered by smallest state."""
    dec = scc_decomposition(f.state_count, f.adjacency())
    result = []
    for comp in sorted(dec.nontrivial):
        members = tuple(sorted(q for q in range(f.state_count)
                               if dec.component_of[q] == comp))
        inside = set(members)
        trans = tuple(sorted((src, x, dst) for (src, x), dst in f.delta.items()
                             if src in inside and dst in inside))
        result.append((members, trans))
    result.sort(key=lambda pair: pair[0][0])
    return result


def serialize_floating_chain(fchain):
    rlta = fchain.rlta
    tracker = AutomatonStructure(
        rlta.alphabet, rlta.state_count,
        [(s, x, rlta.step(s, x), 0)
         for s in range(rlta.state_count) for x in range(len(rlta.alphabet))],
        rlta.initial,
        state_names=None if rlta.names is None else dict(enumerate(rlta.names)))
    out = ["flochain 1", "rlta"] + _body_lines(tracker, with_colors=False)
    for idx, f in enumerate(fchain.levels, start=1):
        out.append("floating %d" % idx)
        out.append("states %d" % f.state_count)
        if f.names is not None:
            for q in range(f.state_count):
                out.append('name %d "%s"' % (q, f.names[q]))
        for q in range(f.state_count):
            out.append("label %d %d" % (q, f.labels[q]))
        for (src, sym, dst) in f.transitions():
            out.append("trans %d %s %d" % (src, f.alphabet.symbols[sym], dst))
    return "\n".join(out) + "\n"


def _parse_floating_block(lines, start, alphabet, rlta):
    idx = start
    state_count = None
    names = {}
    labels = {}
    delta = {}
    while idx < len(lines):
        lineno, line = lines[idx]
        word = line.split(None, 1)[0]
        if word == "floating":
            break
        idx += 1
        rest = line[len(word):].strip()
        if word == "states":
            state_count = _parse_state_count(rest, lineno)
        elif word == "name":
            state, display = _parse_name_line(rest, lineno)
            if state in names:
                raise RafError("duplicate name for state %d" % state, lineno)
            names[state] = display
        elif word == "label":
            parts = rest.split()
            if len(parts) != 2:
                raise RafError("label needs a state and a tracker state", lineno)
            try:
                state, label = int(parts[0]), int(parts[1])
            except ValueError:
                raise RafError("bad label fields %r" % rest, lineno) from None
            if state in labels:
                raise RafError("duplicate label for state %d" % state, lineno)
            labels[state] = label
        elif word == "trans":
            parts = rest.split()
            if len(parts) != 3:
                raise RafError("trans needs 3 fields", lineno)
            try:
                src, dst = int(parts[0]), int(parts[2])
            except ValueError:
                raise RafError("bad transition fields %r" % rest, lineno) from None
            try:
                sym = alphabet.index(parts[1])
            except ValueError:
                raise RafError("unknown symbol %r" % parts[1], lineno) from None
            if delta.setdefault((src, sym), dst) != dst:
                raise RafError("conflicting targets for state %d on %s"
                               % (src, parts[1]), lineno)
        else:
            raise RafError("unknown directive %r" % word, lineno)
    if state_count is None:
        raise RafError("floating block missing state count")
    for what, table in (("name", names), ("label", labels)):
        stray = sorted(q for q in table if not 0 <= q < state_count)
        if stray:
            raise RafError("%s given for missing state %d" % (what, stray[0]))
    missing = [q for q in range(state_count) if q not in labels]
    if missing:
        raise RafError("floating states missing labels: %s" % missing[:5])
    name_list = None
    if names:
        name_list = [names.get(q, str(q)) for q in range(state_count)]
    try:
        f = FloatingAutomaton(alphabet, state_count, delta,
                              [labels[q] for q in range(state_count)], rlta,
                              names=name_list)
    except ValueError as exc:
        raise RafError(str(exc)) from None
    return f, idx


def parse_floating_chain(text):
    lines = _numbered_lines(text)
    if not lines or lines[0][1] != "flochain 1":
        raise RafError("expected 'flochain 1' header", lines[0][0] if lines else None)
    if len(lines) < 2 or lines[1][1] != "rlta":
        raise RafError("expected 'rlta' block after header")
    aut, idx = _parse_raf_body(lines, require_version=None, with_colors=False,
                               start=2, stop_words=("floating",))
    rows = []
    for s in range(aut.state_count):
        row = []
        for x in range(len(aut.alphabet)):
            targets = aut.successor_states(s, x)
            if len(targets) != 1:
                raise RafError("tracker must be deterministic and complete; "
                               "state %d symbol %s has %d successors"
                               % (s, aut.alphabet.symbols[x], len(targets)))
            row.append(targets[0])
        rows.append(row)
    name_list = None
    if aut.state_names:
        name_list = [aut.state_name(s) for s in range(aut.state_count)]
    rlta = Rlta(aut.alphabet, aut.state_count, rows, aut.initial, names=name_list)
    levels = []
    while idx < len(lines):
        lineno, line = lines[idx]
        parts = line.split()
        if parts[0] != "floating" or len(parts) != 2 or parts[1] != str(len(levels) + 1):
            raise RafError("floating blocks must be numbered consecutively from 1", lineno)
        idx += 1
        f, idx = _parse_floating_block(lines, idx, aut.alphabet, rlta)
        levels.append(f)
    return FloatingChain(rlta, levels)
