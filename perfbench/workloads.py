"""Seeded inputs, job lists and correctness checks for the four workloads.

A workload's `build(seed)` is its set-up: it generates every input from the
seed and returns a `Batch`, a fixed list of jobs.  One job takes one input
through one public library call.  Each job's `call` reaches the library
through module attributes (`build.minimize_rerailing`, not a name bound at
import), so the traced run sees the call when it patches those attributes.

Each job also carries a `check` that judges the output by a route independent
of the code under test, mostly the brute-force oracles in `tests/oracles.py`.
Checks run after the timed phase.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracles
from rerail import build, cobuchi, games, lasso, raf, synthesis
from rerail.lasso import LassoWord
from rerail.raf import Alphabet, AutomatonStructure, RafError
from rerail.synthesis import IoAlphabet

# Bound of the oracle lasso sweeps that check minimization outputs.
CHECK_BOUND = 3


@dataclass
class Job:
    """One input taken through one library call; `check` returns an error or None."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]


@dataclass
class Batch:
    jobs: list
    warmup: Callable[[], Any]


# ---------------------------------------------------------------------------
# Input generators


def _letters(n):
    return Alphabet(tuple("abcdefgh"[:n]))


def complete_dpw(rng, n_states, alphabet, max_color):
    """Complete deterministic automaton with every state reachable.

    A random spanning tree reaches every state, so the state count is exactly
    `n_states`; one transition carries `max_color`, so the chain has exactly
    `max_color` levels.  Fixing both keeps the cost of a slot steady across
    seeds while the seed still picks the whole transition structure.
    """
    nsym = len(alphabet)
    dst = {}
    free = [(0, a) for a in range(nsym)]
    for q in range(1, n_states):
        i = rng.randrange(len(free))
        free[i], free[-1] = free[-1], free[i]
        dst[free.pop()] = q
        free += [(q, a) for a in range(nsym)]
    for p in range(n_states):
        for a in range(nsym):
            dst.setdefault((p, a), rng.randrange(n_states))
    keys = sorted(dst)
    color = {key: rng.randint(0, max_color) for key in keys}
    color[rng.choice(keys)] = max_color
    return AutomatonStructure(alphabet, n_states,
                              [(p, a, dst[(p, a)], color[(p, a)]) for (p, a) in keys], 0)


def unique_cycles(aut, stem_bound):
    """(stem, letter, loop) for words stem.letter^omega with a single run.

    `loop` lists the (src, sym, dst, color) transitions the run repeats
    forever.  Words along which some step has several successors are skipped.
    """
    nsym = len(aut.alphabet)
    found = []
    for length in range(stem_bound + 1):
        for stem in itertools.product(range(nsym), repeat=length):
            state = aut.initial
            for x in stem:
                succ = aut.successors(state, x)
                if len(succ) != 1:
                    break
                state = succ[0][0]
            else:
                for a in range(nsym):
                    seen = {}
                    trail = []
                    q = state
                    while q not in seen:
                        succ = aut.successors(q, a)
                        if len(succ) != 1:
                            break
                        seen[q] = len(trail)
                        trail.append((q, a) + succ[0])
                        q = succ[0][0]
                    else:
                        found.append((stem, a, trail[seen[q]:]))
    return found


def _pick_loop(aut, rng, stem_bound):
    """A random single-run word whose loop minimum d is at least 1, or None."""
    options = [(stem, a, loop) for (stem, a, loop) in unique_cycles(aut, stem_bound)
               if min(t[3] for t in loop) >= 1]
    return rng.choice(options) if options else None


def lowered_color(aut, rng, stem_bound):
    """Lower one loop color of a single-run word: that word's verdict flips.

    The chosen word stem.letter^omega has exactly one run; its loop minimum d
    is at least 1, and one loop transition of color d drops to d - 1, so the
    run's dominating color changes parity.  Returns the automaton or None.
    """
    picked = _pick_loop(aut, rng, stem_bound)
    if picked is None:
        return None
    loop = picked[2]
    d = min(t[3] for t in loop)
    old = rng.choice([t for t in loop if t[3] == d])
    transitions = [t for t in aut.transitions if t != old] + [old[:3] + (d - 1,)]
    return AutomatonStructure(aut.alphabet, aut.state_count, transitions, aut.initial)


def sink_branch(dpw, rng, stem_bound):
    """Add one branch into a fresh sink so a known lasso breaks the property.

    On stem.letter^omega the deterministic run loops with minimum color
    d >= 1; a new letter-transition from a loop state into a sink that loops
    with color d - 1 makes the achievable colors {d, d - 1} at every node
    before the sink, whose only uniform colour d - 1 has the wrong parity for
    d.  The initial node therefore reports (d, "parity-mismatch").
    Returns (automaton, word, d) or None.
    """
    picked = _pick_loop(dpw, rng, stem_bound)
    if picked is None:
        return None
    stem, a, loop = picked
    d = min(t[3] for t in loop)
    sink = dpw.state_count
    q = rng.choice(loop)[0]
    extra = [(q, a, sink, d - 1)] + [(sink, x, sink, d - 1)
                                      for x in range(len(dpw.alphabet))]
    transitions = list(dpw.transitions) + extra
    return (AutomatonStructure(dpw.alphabet, sink + 1, transitions, dpw.initial),
            LassoWord(stem, (a,)), d)


def raf_text(aut):
    """Canonical raf text written without the library's serializer."""
    lines = ["raf 1", "alphabet " + " ".join(aut.alphabet.symbols),
             "states %d" % aut.state_count, "initial %d" % aut.initial]
    lines += ["trans %d %s %d %d" % (s, aut.alphabet.symbols[x], d, c)
              for (s, x, d, c) in sorted(aut.transitions)]
    return "\n".join(lines) + "\n"


def cocoa_text(levels):
    """Canonical cocoa text of a chain, written without the library's serializer."""
    lines = ["cocoa 1", "count %d" % len(levels)]
    for k, level in enumerate(levels, start=1):
        lines.append("automaton %d" % k)
        lines += raf_text(level).splitlines()[1:]
    return "\n".join(lines) + "\n"


def bounded_lassos(n_symbols, bound):
    """Canonical lassos within the bound, in the library's documented order.

    Written out here rather than taken from `enumerate_lassos`, so the checks
    do not lean on the code they check.  A lasso is canonical when its cycle
    is primitive and its stem does not end with the cycle's last letter.
    """
    rng = range(n_symbols)
    for slen in range(bound + 1):
        for stem in itertools.product(rng, repeat=slen):
            for clen in range(1, bound + 1):
                for cyc in itertools.product(rng, repeat=clen):
                    primitive = all(cyc != cyc[:d] * (clen // d)
                                    for d in range(1, clen) if clen % d == 0)
                    if primitive and not (stem and stem[-1] == cyc[-1]):
                        yield LassoWord(stem, cyc)


def _oracle_first_difference(rerailing, dpw, bound):
    """First bounded lasso on which the oracles tell the two automata apart."""
    for w in bounded_lassos(len(dpw.alphabet), bound):
        if oracles.member_rerailing(rerailing, w) != oracles.member_parity_det(dpw, w):
            return w
    return None


# ---------------------------------------------------------------------------
# minimize: the R_ij wall


def _minimize_slots():
    """(states, symbols, max color) per input.

    Mostly 2 symbols and colors <= 3; a few inputs with 3 symbols or colors
    up to 6 give chains with more levels and more (i, j) pairs.  With 3 colors
    the R_ij arenas grow as n^4, so one 16-state input would cost more than
    the whole batch; many inputs of similar cost keep a pass steady across
    seeds instead.  The median job falls inside the block of 6-state and the
    tail job inside the block of 7-state 3-color inputs, so neither jumps
    between shapes from seed to seed.
    """
    shapes = [((16, 2, 1), 4), ((5, 3, 2), 4), ((8, 2, 2), 6), ((5, 2, 3), 6),
              ((6, 2, 3), 12), ((7, 2, 3), 10),
              ((5, 2, 6), 1), ((8, 2, 3), 1), ((14, 2, 2), 1), ((7, 3, 3), 1)]
    return [shape for (shape, count) in shapes for _ in range(count)]


def _check_minimized(aut):
    def check(out):
        if out.state_count > aut.state_count:
            return "output has %d states, input %d" % (out.state_count, aut.state_count)
        w = _oracle_first_difference(out, aut, CHECK_BOUND)
        if w is not None:
            return "output and input disagree on %r" % (w,)
        return None
    return check


def build_minimize(seed):
    rng = random.Random(seed)
    jobs = []
    for k, (n, nsym, top) in enumerate(_minimize_slots()):
        aut = complete_dpw(rng, n, _letters(nsym), top)
        jobs.append(Job("minimize/%02d-n%d-s%d-c%d" % (k, n, nsym, top),
                        lambda aut=aut: build.minimize_rerailing(aut),
                        _check_minimized(aut)))
    warm = complete_dpw(rng, 6, _letters(2), 3)
    return Batch(jobs, lambda: build.minimize_rerailing(warm))


# ---------------------------------------------------------------------------
# lasso_sweep: bounded lasso sweeps


def _lasso_slots():
    """(states, symbols, max color, sweep bound): acceptance-corpus sized DPWs."""
    slots = [(2 + i % 5, 2, 1 + i % 4, 4) for i in range(16)]
    slots += [(3, 3, 2, 3), (4, 3, 3, 3)]
    return slots


def _expect(value):
    def check(out):
        return None if out == value else "expected %r, got %r" % (value, out)
    return check


def _check_witness(out_aut, dpw, bound):
    """The witness disagrees under the oracles and no earlier lasso does."""
    def check(w):
        first = _oracle_first_difference(out_aut, dpw, bound)
        if first is None:
            return "perturbation not caught by the oracle sweep"
        if w != first:
            return "witness %r, oracle's first difference %r" % (w, first)
        return None
    return check


def _check_violation(word, d):
    stem, (a,) = list(word.stem), word.cycle
    while stem and stem[-1] == a:
        stem.pop()
    want = LassoWord(tuple(stem), (a,))

    def check(verdicts):
        for v in verdicts:
            if v.lasso == want:
                if any(site == (0, 0) and dd == d and reason == "parity-mismatch"
                       for (site, dd, reason) in v.violations):
                    return None
                return "lasso %r lacks the predicted violation" % (want,)
        return "lasso %r not reported (%d failing lassos)" % (want, len(verdicts))
    return check


def _check_agreeing(out_aut, dpw, bound):
    def check(result):
        if result is not None:
            return "expected None, got %r" % (result,)
        w = _oracle_first_difference(out_aut, dpw, bound)
        return None if w is None else "oracle finds a difference at %r" % (w,)
    return check


def build_lasso_sweep(seed):
    rng = random.Random(seed)
    jobs = []
    for k, (n, nsym, top, bound) in enumerate(_lasso_slots()):
        x = complete_dpw(rng, n, _letters(nsym), top)
        out = build.minimize_rerailing(x)
        tag = "lasso/%02d-n%d-s%d-c%d" % (k, n, nsym, top)
        jobs.append(Job(tag + "/verify-input",
                        lambda x=x, b=bound: build.verify_rerailing_bounded(x, b, b),
                        _expect([])))
        jobs.append(Job(tag + "/verify-output",
                        lambda o=out, b=bound: build.verify_rerailing_bounded(o, b, b),
                        _expect([])))
        jobs.append(Job(tag + "/equivalence",
                        lambda o=out, x=x, b=bound: lasso.bounded_equivalence(
                            o, "rerailing", x, "parity-det", b, b),
                        _check_agreeing(out, x, bound)))
        bad = lowered_color(out, rng, bound)
        if bad is not None:
            jobs.append(Job(tag + "/equivalence-flipped",
                            lambda p=bad, x=x, b=bound: lasso.bounded_equivalence(
                                p, "rerailing", x, "parity-det", b, b),
                            _check_witness(bad, x, bound)))
        branched = sink_branch(x, rng, bound)
        if branched is not None:
            bad, word, d = branched
            jobs.append(Job(tag + "/verify-branched",
                            lambda p=bad, b=bound: build.verify_rerailing_bounded(p, b, b),
                            _check_violation(word, d)))
    # The lru_cache behind enumerate_lassos is lazy set-up: empty it so every
    # set-up pays for it, then fill it for the sweep sizes used.
    cache = getattr(lasso, "_canonical_lassos", None)
    if cache is not None and hasattr(cache, "cache_clear"):
        cache.cache_clear()
    for (_n, nsym, _top, bound) in _lasso_slots():
        for _w in lasso.enumerate_lassos(nsym, bound, bound):
            pass
    tiny = complete_dpw(rng, 2, _letters(2), 1)
    return Batch(jobs, lambda: build.verify_rerailing_bounded(tiny, 2, 2))


# ---------------------------------------------------------------------------
# realize: realizability games on wide, shallow arenas

RG_IO = IoAlphabet(Alphabet(("r", "n")), Alphabet(("g", "w")))
IO3 = IoAlphabet(Alphabet(("x0", "x1", "x2")), Alphabet(("y0", "y1", "y2")))


def _spec(io, n_states, color_of, step):
    transitions = []
    for q in range(n_states):
        for xi in range(len(io.inputs)):
            for yi in range(len(io.outputs)):
                transitions.append((q, io.combined_index(xi, yi),
                                    step(q, xi, yi), color_of(q, xi, yi)))
    return AutomatonStructure(io.combined, n_states, transitions, 0)


def request_grant_specs(k):
    """Request/grant specs of the acceptance suite scaled by k, with verdicts.

    Grant every k-th step: the system counts, realizable.  Request every k-th
    step: the environment never requests, unrealizable.  Grant the request
    of the same step: needs lookahead, unrealizable.  All have k states.
    """
    def cycle(q, xi, yi):
        return (q + 1) % k
    return [
        ("grant-every-%d" % k, True,
         _spec(RG_IO, k, lambda q, xi, yi: 2 if (q != k - 1 or yi == 0) else 1, cycle)),
        ("request-every-%d" % k, False,
         _spec(RG_IO, k, lambda q, xi, yi: 2 if (q != k - 1 or xi == 0) else 1, cycle)),
        ("same-step-%d" % k, False,
         _spec(RG_IO, k, lambda q, xi, yi: 2 if xi == yi else 1, cycle)),
    ]


def memory_spec(k):
    """Grant the request of k steps ago: 2^k states, realizable with memory."""
    return ("memory-%d" % k, True,
            _spec(RG_IO, 1 << k, lambda q, xi, yi: 2 if yi == (q >> (k - 1)) & 1 else 1,
                  lambda q, xi, yi: ((q << 1) | xi) & ((1 << k) - 1)))


def random_spec(rng, io, n_states, max_color):
    nsym = len(io.combined)
    return AutomatonStructure(io.combined, n_states,
                              [(q, x, rng.randrange(n_states), rng.randint(0, max_color))
                               for q in range(n_states) for x in range(nsym)], 0)


def doubled(spec):
    """Nondeterministic colour-homogeneous copy with the same language.

    Every state gets a twin and each transition goes to both copies of its
    target with its colour, so the verdict equals the deterministic spec's.
    """
    n = spec.state_count
    transitions = []
    for (s, x, d, c) in spec.transitions:
        for src in (s, s + n):
            transitions += [(src, x, d, c), (src, x, d + n, c)]
    return AutomatonStructure(spec.alphabet, 2 * n, transitions, spec.initial)


def _reference_verdict(spec, io):
    arena = oracles.dpw_realizability_game(spec, io)
    w0, _w1 = games.solve(arena)
    return arena.initial in w0


def _check_realizability(spec, io, known=None):
    def check(verdict):
        if known is not None and verdict != known:
            return "family verdict %r, got %r" % (known, verdict)
        reference = _reference_verdict(spec, io)
        if verdict != reference:
            return "product-game reference %r, got %r" % (reference, verdict)
        return None
    return check


def _realize_slots():
    """(io, states, max color, doubled) of the random specs.

    The time `solve` takes on a random spec swings with its structure, so the
    batch holds many mid-sized specs rather than a few large ones; that keeps
    the median and tail jobs steady from seed to seed.  Every fourth spec is
    nondeterministic (a doubled spec of half the size).
    """
    slots = []
    for i in range(40):
        io = IO3 if i % 5 == 4 else RG_IO
        n = 250 if io is IO3 else 600
        twin = i % 4 == 3
        slots.append((io, n // 2 if twin else n, 2 + i % 7, twin))
    return slots


def build_realize(seed):
    rng = random.Random(seed)
    family = [spec for k in (1024, 2048) for spec in request_grant_specs(k)]
    family += [memory_spec(k) for k in (10, 11, 12)]
    jobs = [Job("realize/" + name, lambda s=spec: synthesis.realizability(s, RG_IO),
                _check_realizability(spec, RG_IO, verdict))
            for (name, verdict, spec) in family]
    for k, (io, n, top, twin) in enumerate(_realize_slots()):
        base = random_spec(rng, io, n, top)
        spec = doubled(base) if twin else base
        jobs.append(Job("realize/random-%02d-n%d-io%d-c%d%s" % (
                            k, spec.state_count, len(io.inputs), top,
                            "-nondet" if twin else ""),
                        lambda s=spec, io=io: synthesis.realizability(s, io),
                        _check_realizability(base, io)))
    tiny = memory_spec(2)[2]
    return Batch(jobs, lambda: synthesis.realizability(tiny, RG_IO))


# ---------------------------------------------------------------------------
# parse: the raf and cocoa readers


def _check_round_trip(text):
    def check(out):
        return None if out == text else "round trip differs from the input text"
    return check


def _check_error_line(line):
    def check(out):
        if out is None:
            return "expected RafError, the text parsed"
        if out[0] != line:
            return "RafError names line %r, the conflict is on line %d" % (out[0], line)
        return None
    return check


def _parse_error(text):
    """(line, message) of the RafError the text raises, None if it parses."""
    try:
        raf.parse_automaton(text)
    except RafError as exc:
        return (exc.line, str(exc))
    return None


def random_nfa(rng, n_states, alphabet, max_color, fanout):
    """Complete automaton with `fanout` distinct targets per state and symbol."""
    transitions = [(q, a, d, rng.randint(0, max_color))
                   for q in range(n_states) for a in range(len(alphabet))
                   for d in rng.sample(range(n_states), fanout)]
    return AutomatonStructure(alphabet, n_states, transitions, 0)


def build_parse(seed):
    """raf texts of 1000-1500 state automata, cocoa texts of decomposed chains.

    Parsing is quadratic in a block's transitions today; the batch is sized
    so that a pass still takes a measurable time once it is linear.
    """
    rng = random.Random(seed)
    ab = _letters(2)
    jobs = []
    for k in range(6):
        n = 1000 + 100 * k
        aut = random_nfa(rng, n // 2, ab, 4, 2) if k % 2 else complete_dpw(rng, n, ab, 4)
        text = raf_text(aut)
        jobs.append(Job("parse/raf-%d-n%d" % (k, aut.state_count),
                        lambda t=text: raf.serialize_automaton(raf.parse_automaton(t)),
                        _check_round_trip(text)))
    for k in range(22):
        dpw = complete_dpw(rng, 150 + 10 * k, ab, 3)
        text = cocoa_text(cobuchi.decompose_rerailing(dpw).levels)
        jobs.append(Job("parse/cocoa-%d-n%d" % (k, dpw.state_count),
                        lambda t=text: cobuchi.serialize_chain(cobuchi.parse_chain(t)),
                        _check_round_trip(text)))
    victim = complete_dpw(rng, 1200, ab, 4)
    (s, x, d, c) = rng.choice(victim.transitions)
    bad = raf_text(victim) + "trans %d %s %d %d\n" % (s, ab.symbols[x], d, c + 1)
    jobs.append(Job("parse/conflict-on-last-line", lambda t=bad: _parse_error(t),
                    _check_error_line(bad.count("\n"))))
    tiny = raf_text(complete_dpw(rng, 3, ab, 2))
    return Batch(jobs, lambda: raf.serialize_automaton(raf.parse_automaton(tiny)))


WORKLOADS = {
    "minimize": build_minimize,
    "lasso_sweep": build_lasso_sweep,
    "realize": build_realize,
    "parse": build_parse,
}
