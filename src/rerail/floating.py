"""Floating co-Buchi automata.

A floating automaton keeps only safe (accepting) transitions: a partial
deterministic transition function, plus a label per state tying it to a
residual language tracker.  A word is accepted when, after some prefix, an
infinite run exists from a state labeled with the tracker state the prefix
reaches.  Minimization, products, restrictions and safe-language
comparisons are the building blocks of the rerailing-automaton construction;
they work on plain transition tables, so that the construction can mark the
states of a product with those of its context and build a checked automaton
only for each context it recurses into.
"""

from __future__ import annotations

from .cobuchi import CoBuchiAutomaton, Rlta, build_rlta_chain
from .raf import (RafError, SiteError, _body_lines, _check_cells, _check_name, _expect_header,
                  _line_of, _numbered_lines, _parse_raf_body, _read_body)
from .scc import reachable, scc_decomposition


class FloatingAutomaton:
    """Partial deterministic automaton with residual labels and optional names."""

    def __init__(self, alphabet, state_count, delta, labels, rlta, names=None):
        self.alphabet = alphabet
        self.state_count = state_count
        self.delta = dict(delta)
        self.labels = list(labels)
        self.rlta = rlta
        self.names = list(names) if names is not None else None
        if len(self.labels) != state_count:
            raise ValueError("need one residual label per state")
        for q, lab in enumerate(self.labels):
            if not 0 <= lab < rlta.state_count:
                raise SiteError("residual label %r outside the tracker" % (lab,), "label", q)
        if self.names is not None and len(self.names) != state_count:
            raise ValueError("need one name per state when named")
        for name in self.names or ():
            _check_name(name)
        for (src, sym), dst in self.delta.items():
            if not (0 <= src < state_count and 0 <= dst < state_count
                    and 0 <= sym < len(alphabet)):
                raise SiteError("transition (%d, %d, %d) out of range" % (src, sym, dst),
                                "trans", src, sym, dst)
            if self.labels[dst] != rlta.step(self.labels[src], sym):
                raise SiteError("label of state %d breaks tracker compatibility on symbol %s"
                                % (dst, alphabet.symbols[sym]), "trans", src, sym, dst)

    def step(self, state, symbol):
        return self.delta.get((state, symbol))

    def transitions(self):
        return sorted((src, sym, dst) for (src, sym), dst in self.delta.items())

    def state_name(self, state):
        return str(state) if self.names is None else self.names[state]

    def __eq__(self, other):
        if not isinstance(other, FloatingAutomaton):
            return NotImplemented
        return (self.alphabet == other.alphabet
                and self.state_count == other.state_count
                and self.delta == other.delta
                and self.labels == other.labels
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


def level0_floating(rlta):
    """The tracker viewed as a total floating automaton accepting everything;
    a one-state tracker's state is unnamed, as in `_residual_name`."""
    delta = {(s, x): rlta.step(s, x)
             for s in range(rlta.state_count) for x in range(len(rlta.alphabet))}
    names = ([""] if rlta.state_count == 1
             else [rlta.state_name(s) for s in range(rlta.state_count)])
    return FloatingAutomaton(rlta.alphabet, rlta.state_count, delta,
                             list(range(rlta.state_count)), rlta, names=names)


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
    nsym = len(a.alphabet)
    pairs = reachable([(a.initial, rlta.initial)],
                      lambda qs: [(q2, rlta.step(qs[1], x)) for x in range(nsym)
                                  for q2 in a.successor_states(qs[0], x)])
    deterministic = all(len(a.accepting_successors(q, x)) <= 1
                        for (q, _s) in pairs for x in range(nsym))
    if deterministic:
        order = [(frozenset({q}), s) for (q, s) in pairs]
    else:
        per_tracker = {}
        for (q, s) in pairs:
            per_tracker.setdefault(s, set()).add(q)
        order = [(frozenset(per_tracker[s]), s) for s in sorted(per_tracker)]
    ids = {key: i for i, key in enumerate(order)}
    delta = {}
    for src, (members, s) in enumerate(order):    # children are appended while walked
        for x in range(nsym):
            targets = {q2 for q in members for q2 in a.accepting_successors(q, x)}
            if not targets:
                continue
            child = (frozenset(targets), rlta.step(s, x))
            if child not in ids:
                ids[child] = len(order)
                order.append(child)
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


def safe_subset(delta1, q, delta2, q2, nsym):
    """Whether every finite word with a safe run from q in the transition table
    `delta1` has one from q2 in `delta2`; both map (state, symbol) to a state."""
    pairs = [(q, q2)]
    seen = set(pairs)
    for (a, b) in pairs:                # the list grows while it is walked
        for x in range(nsym):
            d1 = delta1.get((a, x))
            if d1 is None:
                continue
            d2 = delta2.get((b, x))
            if d2 is None:
                return False
            if (d1, d2) not in seen:
                seen.add((d1, d2))
                pairs.append((d1, d2))
    return True


def _merge_names(a, b):
    head_a, _, tail_a = a.rpartition(",")
    head_b, _, tail_b = b.rpartition(",")
    if head_a and head_a == head_b:
        return "%s,%s/%s" % (head_a, tail_a, tail_b)
    return "%s/%s" % (a, b)


def minimize_floating(f):
    """Smallest floating automaton with the same language (see `minimize_tables`)."""
    delta, names, groups = minimize_tables(f.delta, f.labels, None,
                                           [f.state_name(q) for q in range(f.state_count)],
                                           len(f.alphabet))
    return restrict_tables(f.alphabet, f.rlta, delta, f.labels, names,
                           sorted(q for members in groups for q in members))


def minimize_tables(delta, labels, marking, names, nsym):
    """Minimize a floating automaton given as tables, modulo an optional marking.

    `delta` maps (state, symbol) to a state, and `labels`, `names` and
    `marking` (or None) hold one entry per state.  In the rebuild's tables
    a label is that of the marked context state, so two states have equal
    (label, marking) iff equal markings.  Returns the kept transitions,
    the names (merged states join theirs) and the surviving states grouped
    by SCC: each group sorted, the groups by least member.  The survivors
    keep their numbers; every kept transition runs inside a group, and
    every survivor lies on a cycle.

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
    n = len(labels)
    names = list(names)
    keys = [(labels[q], None if marking is None else marking[q]) for q in range(n)]

    def subset(q, q2):
        return safe_subset(delta, q, delta, q2, nsym)

    while True:
        # Dropped and merged-away states have no transitions left, so they
        # fall out of `alive` here with the states on no cycle.
        adj = [[] for _ in range(n)]
        for (src, _x), dst in delta.items():
            adj[src].append(dst)
        comp = scc_decomposition(n, adj)
        delta = {(src, x): dst for (src, x), dst in delta.items() if comp[src] == comp[dst]}
        alive = sorted({src for (src, _x) in delta})
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
    groups = {}
    for q in alive:                     # each group opens at its least member
        groups.setdefault(comp[q], []).append(q)
    return delta, names, list(groups.values())


def product_tables(f1, f2):
    """Intersection as (delta, labels, marking, names): label-equal pairs with
    componentwise moves, each marked by its state of `f1`."""
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
    return delta, labels, [q1 for (q1, _q2) in states], names


def restrict_tables(alphabet, rlta, delta, labels, names, states):
    """Checked floating automaton on the sorted `states` of the tables, with
    only the transitions between them; state k is `states[k]`."""
    renum = {q: i for i, q in enumerate(states)}
    return FloatingAutomaton(alphabet, len(states),
                             {(renum[src], x): renum[dst] for (src, x), dst in delta.items()
                              if src in renum and dst in renum},
                             [labels[q] for q in states], rlta,
                             names=[names[q] for q in states])


def serialize_floating_chain(fchain):
    out = ["flochain 1", "rlta"] + _body_lines(fchain.rlta, with_colors=False)
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


def _parse_floating_block(lines, start, rlta):
    """Read a floating block with `_read_body`; its automaton and the position after it."""
    idx, got = _read_body(lines, start, ("states", "name", "label"), 4, rlta.alphabet,
                          ("floating",), floating=True)
    if "states" not in got:
        raise RafError("floating block missing state count")
    body, alphabet, state_count = lines[start:idx], rlta.alphabet, got["states"]
    _check_cells(state_count, alphabet, body)
    delta, names, labels = got["trans"], got["name"], got["label"]
    for what, table in (("name", names), ("label", labels)):
        stray = sorted(q for q in table if not 0 <= q < state_count)
        if stray:
            raise RafError("%s given for missing state %d" % (what, stray[0]),
                           _line_of(body, (what, stray[0]), alphabet))
    missing = [q for q in range(state_count) if q not in labels]
    if missing:
        raise RafError("floating states missing labels: %s" % missing[:5])
    named = [names.get(q, str(q)) for q in range(state_count)] if names else None
    try:
        f = FloatingAutomaton(alphabet, state_count, delta,
                              [labels[q] for q in range(state_count)], rlta, names=named)
    except ValueError as exc:
        raise RafError(str(exc), _line_of(body, getattr(exc, "site", ()), alphabet)) from None
    return f, idx


def parse_floating_chain(text):
    return _read_floating_chain(_numbered_lines(text))


def _read_floating_chain(lines):
    _expect_header(lines, "flochain 1")
    if len(lines) < 2 or lines[1][1] != "rlta":
        raise RafError("expected 'rlta' block after header", lines[1][0] if lines[1:] else None)
    rlta, idx = _parse_raf_body(lines, with_colors=False, start=2, stop_words=("floating",),
                                cls=Rlta, label="rlta: ")
    levels = []
    while idx < len(lines):
        lineno, line = lines[idx]
        parts = line.split()
        if parts[0] != "floating" or len(parts) != 2 or parts[1] != str(len(levels) + 1):
            raise RafError("floating blocks must be numbered consecutively from 1", lineno)
        idx += 1
        f, idx = _parse_floating_block(lines, idx, rlta)
        levels.append(f)
    return FloatingChain(rlta, levels)
