"""Construction of minimal rerailing automata and the bounded property verifier.

The recursive construction walks a floating chain: in each call it collects,
inside the current context automaton, the words whose highest accepting level
has the evenness of the call's color parameter, minimizes the collected
tables modulo the context state each of their states pairs, recurses into
their maximal SCCs with the next color, and stitches the returned state
groups together with transitions one color below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .cobuchi import decompose_rerailing
from .floating import (level0_floating, minimize_tables, product_tables, residualize_chain,
                       restrict_tables, safe_subset)
from .lasso import LassoSweep, enumerate_lassos
from .raf import AutomatonStructure, complete_reachable_states, validate_complete


@dataclass
class BuildState:
    """Global states and moves accumulated across recursive calls:
    `moves[(state, symbol)]` lists the (dst, color) moves of a state on a symbol."""

    names: list = field(default_factory=list)
    moves: dict = field(default_factory=dict)

    def new_state(self, name):
        base = candidate = name or "·"
        serial = 1
        while candidate in self.names:
            serial += 1
            candidate = "%s~%d" % (base, serial)
        self.names.append(candidate)
        return len(self.names) - 1


def recurse_build(ctx, i, chain, acc):
    """One recursion step; returns (global state, context state) pairs.

    The context automaton must consist of a single maximal SCC except at the
    top-level call.  Every context state ends up represented by at least one
    returned global state.

    The collected automaton is kept as plain tables (`delta`, `labels`,
    `names`, and `marking`, the context state each product state pairs): each
    same-parity level's product is appended, shifted by the state count so
    far, and at an opposite-parity level every transition into or out of a
    collected state q is cut when a label-equal state q2 of that level has a
    safe language containing q's.  Every move of q follows marking[q], so
    that is containment in the level's product from (marking[q], q2), which
    has q's label.  A cut state is reached from no other state, so the others
    keep the safe languages they would have had with it removed, and
    `minimize_tables` drops it as a state on no cycle.  The tables are
    minimized modulo the marking, and a checked `FloatingAutomaton` is built
    only for each SCC of the result, as the context of the next call; a state
    of that context maps back to the context state `marking[members[state]]`.
    """
    if ctx.rlta != chain.rlta:
        raise ValueError("context must share the chain's tracker")
    n = len(chain.levels)
    if i > n + 1:
        raise RuntimeError(
            "recursion at color %d exceeds the chain length %d; "
            "the level languages are not weakly falling" % (i, n))
    nsym = len(ctx.alphabet)
    delta, labels, marking, names = {}, [], [], []
    for j, level in enumerate(chain.levels, start=1):
        if j % 2 == i % 2:
            (pdelta, plabels, pmarking, pnames) = product_tables(ctx, level)
            shift = len(labels)
            delta.update(((src + shift, x), dst + shift) for (src, x), dst in pdelta.items())
            labels += plabels
            marking += pmarking
            names += pnames
            continue
        doomed = {q for q in range(len(labels)) if any(
            level.labels[q2] == labels[q] and safe_subset(delta, q, level.delta, q2, nsym)
            for q2 in range(level.state_count))}
        delta = {(src, x): dst for (src, x), dst in delta.items()
                 if src not in doomed and dst not in doomed}
    delta, names, groups = minimize_tables(delta, labels, marking, names, nsym)
    new_states = []
    for members in groups:
        sub = restrict_tables(ctx.alphabet, chain.rlta, delta, labels, names, members)
        for (gid, sub_state) in recurse_build(sub, i + 1, chain, acc):
            new_states.append((gid, marking[members[sub_state]]))
    covered = {qc for (_gid, qc) in new_states}
    for qc in range(ctx.state_count):
        if qc not in covered:
            new_states.append((acc.new_state(ctx.state_name(qc)), qc))
    for (gid, qc) in new_states:
        for x in range(nsym):
            dst_ctx = ctx.step(qc, x)
            if dst_ctx is None or (gid, x) in acc.moves:
                continue
            targets = [(g2, i - 1) for (g2, qc2) in new_states if qc2 == dst_ctx]
            if not targets:
                raise RuntimeError("context successor %d lost during recursion" % dst_ctx)
            acc.moves[(gid, x)] = targets
    return new_states


def build_minimal(chain):
    """Minimal rerailing automaton for the language of a floating chain.

    Needs levels in the normalized form `residualize_chain` returns, each an
    output of `minimize_floating`; from others it keeps the language, not minimality.
    """
    acc = BuildState()
    pairs = recurse_build(level0_floating(chain.rlta), 1, chain, acc)
    initial = min(gid for (gid, s) in pairs if s == chain.rlta.initial)
    result = AutomatonStructure(chain.alphabet, len(acc.names),
                                [(src, x, dst, c) for ((src, x), targets) in acc.moves.items()
                                 for (dst, c) in targets], initial,
                                state_names=dict(enumerate(acc.names)))
    missing = validate_complete(result)
    if missing:
        raise RuntimeError("construction left %d state/symbol pairs without "
                           "transitions: %s" % (len(missing), missing[:5]))
    return result


def minimize_rerailing(aut):
    """End-to-end minimization of a complete rerailing automaton.

    Decomposes into a chain of co-Buchi levels, builds the residual tracker,
    residualizes every level and reassembles the minimal automaton.  The
    rerailing property of the input is assumed, not checked here.
    """
    chain = decompose_rerailing(aut)
    fchain = residualize_chain(chain)
    return build_minimal(fchain)


def check_color_homogeneous(aut):
    """Whether all outgoing transitions of each (state, symbol) share a color."""
    return all(len({c for (_dst, c) in cell}) < 2 for row in aut._succ for cell in row)


@dataclass(frozen=True)
class RerailingVerdict:
    """Outcome of the bounded rerailing-property check for one lasso.

    violations lists ((state, position), dominating color d, reason); the
    lasso breaches the property iff violations is non-empty.
    """

    lasso: object
    member: bool
    violations: tuple


def _node_violations(achievable, uniform, member):
    """(d, reason) for each achievable color d that no uniform color of the
    verdict's evenness reaches from above."""
    parity_ok = [c for c in uniform if (c % 2 == 0) == member]
    if not uniform:
        reason = "no-uniform-successor"
    elif not parity_ok:
        reason = "parity-mismatch"
    else:
        reason = "color-decrease"
    best = max(parity_ok, default=-1)
    return tuple((d, reason) for d in sorted(achievable) if d > best)


def verify_rerailing_bounded(aut, stem_bound, cycle_bound):
    """Check the rerailing property on every lasso within the bounds.

    A lasso passes when from every reachable product node and every
    achievable dominating color d, some node is reachable whose only
    achievable color c is a single value with c >= d and the evenness of the
    membership verdict.  Returns the verdicts of failing lassos only, each
    listing its violations sorted by node, then d.  States unreachable from
    the initial one may lack moves, as in decompose_rerailing.

    A stem node is a trivial SCC, so its achievable and uniform sets are
    unions of its children's (plus its achievable set, when that is a
    single color): a node with no violation has no violating parent.  So a
    lasso fails iff one of its cycle nodes does.  Those and the verdict
    depend on the key (cycle, R(stem)) alone: its cycle nodes are the nodes
    of the cycle's class product reachable from its entry nodes.  So per
    class product and verdict one pass over its components, sinks first,
    dooms those whose shared sets violate or that have a doomed successor,
    and a key fails iff one of its entry components is doomed.  Only
    lassos on a failing key walk their stem.
    """
    complete_reachable_states(aut)
    sweep = LassoSweep(aut)
    violations = lru_cache(maxsize=None)(_node_violations)
    doomed = {}     # (class analysis, verdict) -> per component, whether it reaches a violation
    dirty = {}      # cycle key -> the verdict if a cycle node violates, else None
    failures = []
    for lasso in enumerate_lassos(len(aut.alphabet), stem_bound, cycle_bound):
        key = sweep.cycle_key(lasso)
        if key not in dirty:
            (analysis, entries) = sweep.entry_components(key)
            member = max(d for c in entries for d in analysis.sets[c][0]) % 2 == 0
            bad = doomed.get((analysis, member))
            if bad is None:
                bad = doomed[(analysis, member)] = []
                for (sets, later) in zip(analysis.sets, analysis.successors):
                    bad.append(bool(violations(*sets, member)) or any(bad[c] for c in later))
            dirty[key] = member if any(bad[c] for c in entries) else None
        member = dirty[key]
        if member is None:
            continue
        found = []
        for (site, achievable, uniform) in sweep.node_sets(lasso):
            at = violations(achievable, uniform, member)
            if at:
                found.append((site, at))
        found.sort()
        failures.append(RerailingVerdict(lasso, member, tuple(
            (site, d, reason) for (site, at) in found for (d, reason) in at)))
    return failures
