"""End-to-end acceptance checks.

Each test covers one advertised guarantee and prints a single PASS/FAIL line
(run with -s to see them on passing runs).  Oracles live in oracles.py and
recompute every verdict through an independent route.
"""

import hashlib
import random
import time

from rerail.build import (build_minimal, check_color_homogeneous,
                          minimize_rerailing, verify_rerailing_bounded)
from rerail.cobuchi import (CoBuchiAutomaton, build_rlta_chain,
                            decompose_rerailing, inclusion_table,
                            residual_tracking_single)
from rerail.floating import (parse_floating_chain, residualize_chain,
                             serialize_floating_chain)
from rerail.games import solve
from rerail.lasso import (LassoSweep, bounded_equivalence, enumerate_lassos,
                          member_cobuchi, member_parity_exists)
from rerail.raf import (Alphabet, AutomatonStructure, serialize_automaton,
                        validate_complete)
from rerail.synthesis import IoAlphabet, realizability

import oracles

BOUND = 4

# sha256 of the concatenated serialize_automaton texts of the minimized corpus
CORPUS_DIGEST = "dd65211b55a1a6b0e0c5d8b1a0be893beec7f3ccd4a4e663e44177710f6832f8"
# sha256 of the concatenated flochain texts of the residualized corpus chains
FLOCHAIN_DIGEST = "2eacb50b0fb1196eff815c2651ed8a6053984ed02a275f23e4e03fb4a1411c23"

RG_IO = IoAlphabet(Alphabet(("r", "n")), Alphabet(("g", "w")))


def _report(ok, label, detail=""):
    suffix = " [%s]" % detail if detail else ""
    print("%s acceptance: %s%s" % ("PASS" if ok else "FAIL", label, suffix))
    assert ok, "%s%s" % (label, suffix)


def test_minimal_build_regression(uniform_flochain):
    start = time.perf_counter()
    aut = build_minimal(uniform_flochain)
    elapsed = time.perf_counter() - start
    multiset = {}
    for (_s, _x, _d, c) in aut.transitions:
        multiset[c] = multiset.get(c, 0) + 1
    ok = (aut.state_count == 5
          and aut.max_color == 3
          and validate_complete(aut) == []
          and check_color_homogeneous(aut)
          and multiset == {0: 25, 1: 11, 2: 8, 3: 5}
          and elapsed < 5.0)
    _report(ok, "minimal 5-state build from the three-level chain",
            "%d states, colors %s, %.2fs" % (aut.state_count, multiset, elapsed))


def test_tracker_collapse(collapse_chain):
    start = time.perf_counter()
    tracker_sizes = [residual_tracking_single(level)[0].state_count
                     for level in collapse_chain.levels]
    rlta, _ = build_rlta_chain(collapse_chain)
    elapsed = time.perf_counter() - start
    ok = (tracker_sizes == [3, 3] and rlta.state_count == 1 and elapsed < 5.0)
    _report(ok, "chain tracker collapses to one state",
            "per-level %s, joint %d, %.2fs" % (tracker_sizes, rlta.state_count, elapsed))


def test_language_preservation_corpus(dpw_corpus, minimized_corpus):
    outputs, minimize_elapsed = minimized_corpus
    start = time.perf_counter()
    checked = 0
    ok = True
    for aut, out in zip(dpw_corpus, outputs):
        if out.state_count > aut.state_count:
            ok = False
            break
        sweep = LassoSweep(out)         # one product analysis per cycle class
        for w in enumerate_lassos(len(aut.alphabet), BOUND, BOUND):
            checked += 1
            if (max(sweep.colors(w)) % 2 == 0) != oracles.member_parity_det(aut, w):
                ok = False
                break
        if not ok:
            break
    total = minimize_elapsed + time.perf_counter() - start
    ok = ok and total < 600.0
    _report(ok, "minimization preserves the language on %d automata" % len(outputs),
            "%d lasso checks, %.1fs total" % (checked, total))


def test_minimized_corpus_byte_identical(minimized_corpus):
    outputs, _elapsed = minimized_corpus
    text = "".join(serialize_automaton(out) for out in outputs)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    _report(digest == CORPUS_DIGEST,
            "minimized corpus is byte-identical to the pinned outputs",
            "sha256 %s" % digest)


def test_flochain_corpus_byte_identical(dpw_corpus):
    texts = [serialize_floating_chain(residualize_chain(decompose_rerailing(a)))
             for a in dpw_corpus]
    digest = hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
    again = sum(serialize_floating_chain(parse_floating_chain(t)) == t for t in texts)
    _report(digest == FLOCHAIN_DIGEST and again == len(texts),
            "floating chains of the corpus are byte-identical to the pinned texts",
            "sha256 %s, %d of %d read back unchanged" % (digest, again, len(texts)))


def test_minimization_idempotent(minimized_corpus):
    outputs, _elapsed = minimized_corpus
    resweeps = 0
    ok = True
    for out in outputs:
        again = minimize_rerailing(out)
        if serialize_automaton(again) == serialize_automaton(out):
            continue
        resweeps += 1
        if again.state_count != out.state_count or bounded_equivalence(
                again, "rerailing", out, "rerailing", BOUND, BOUND) is not None:
            ok = False
            break
    _report(ok, "re-minimization is a fixed point on all outputs",
            "%d needed a lasso sweep" % resweeps)


def test_rerailing_property_suite(dpw_corpus, minimized_corpus, hd5, uniform_flochain):
    outputs, _elapsed = minimized_corpus
    ok = verify_rerailing_bounded(hd5, BOUND, BOUND) == []
    for aut in dpw_corpus:
        if not ok:
            break
        ok = verify_rerailing_bounded(aut, BOUND, BOUND) == []
    for out in outputs:
        if not ok:
            break
        ok = verify_rerailing_bounded(out, BOUND, BOUND) == []
    # flipping a single accepting color must be caught by the verifier
    broken = 0
    if ok:
        reference = build_minimal(uniform_flochain)
        for idx, (src, sym, dst, color) in enumerate(reference.transitions):
            if color != 2:
                continue
            mutated = list(reference.transitions)
            mutated[idx] = (src, sym, dst, 1)
            try:
                perturbed = AutomatonStructure(reference.alphabet,
                                               reference.state_count,
                                               mutated, reference.initial)
            except ValueError:
                continue
            if verify_rerailing_bounded(perturbed, 2, 2):
                broken += 1
        ok = broken >= 1
    _report(ok, "bounded rerailing property verified across the corpus",
            "%d perturbations caught" % broken)


def test_membership_and_game_oracles():
    rng = random.Random(0xACCE55)
    pairs = 0
    ok = True
    while ok and pairs < 500:
        pairs += 1
        aut = oracles.random_complete_automaton(rng, 1 + rng.randrange(6),
                                                2 + rng.randrange(2), 4)
        w = oracles.random_lasso(rng, len(aut.alphabet), BOUND, BOUND)
        ok = member_parity_exists(aut, w) == oracles.member_parity_exists(aut, w)
        if ok:
            cob = oracles.random_cobuchi_automaton(rng, 1 + rng.randrange(6),
                                                   2 + rng.randrange(2))
            w2 = oracles.random_lasso(rng, len(cob.alphabet), BOUND, BOUND)
            ok = member_cobuchi(cob, w2) == oracles.member_cobuchi(cob, w2)
    arenas = 0
    while ok and arenas < 200:
        arenas += 1
        arena = oracles.random_arena(rng, 1 + rng.randrange(6), rng.randrange(3))
        w0, w1 = solve(arena)
        ok = (w0 == oracles.solve_by_strategies(arena)
              and w0 | w1 == set(range(arena.vertex_count)) and not (w0 & w1))
    _report(ok, "membership and game solver agree with brute-force oracles",
            "%d lasso pairs, %d arenas" % (pairs, arenas))


def test_inclusion_game_soundness(hd5):
    level = CoBuchiAutomaton(hd5.alphabet, hd5.state_count, hd5.transitions, hd5.initial)
    table = inclusion_table(level, level)
    classes = {frozenset(p for p in range(5)
                         if (q, p) in table and (p, q) in table)
               for q in range(5)}
    ok = classes == {frozenset({0, 2, 4}), frozenset({1, 3})}

    rng = random.Random(0x14C7)
    positives = 0
    checked = 0
    attempts = 0
    while ok and checked < 100 and attempts < 1000:
        attempts += 1
        a_src = oracles.random_dpw(rng, 1 + rng.randrange(4), 2, 1 + rng.randrange(3))
        b_src = oracles.random_dpw(rng, 1 + rng.randrange(4), 2, 1 + rng.randrange(3))
        chain_a = decompose_rerailing(a_src)
        chain_b = decompose_rerailing(b_src)
        if not len(chain_a) or not len(chain_b):
            continue
        checked += 1
        a = chain_a.levels[rng.randrange(len(chain_a))]
        b = chain_b.levels[rng.randrange(len(chain_b))]
        if (a.initial, b.initial) in inclusion_table(a, b):
            positives += 1
            for w in enumerate_lassos(2, BOUND, BOUND):
                if oracles.member_cobuchi(a, w) and not oracles.member_cobuchi(b, w):
                    ok = False
                    break
    ok = ok and checked >= 100
    _report(ok, "inclusion letter game sound on decomposition levels",
            "%d pairs, %d inclusions confirmed" % (checked, positives))


def _spec(io, n_states, color_of, step):
    transitions = []
    for q in range(n_states):
        for xi in range(len(io.inputs)):
            for yi in range(len(io.outputs)):
                sym = io.combined_index(xi, yi)
                transitions.append((q, sym, step(q, xi, yi), color_of(q, xi, yi)))
    return AutomatonStructure(io.combined, n_states, transitions, 0)


def _request_grant_specs():
    specs = []
    # grant on every k-th step (system-countable): realizable
    for k in range(1, 6):
        specs.append(_spec(RG_IO, k,
                           lambda q, xi, yi, k=k: 2 if (q != k - 1 or yi == 0) else 1,
                           lambda q, xi, yi, k=k: (q + 1) % k))
    # request on every k-th step (environment decides): typically unrealizable
    for k in range(1, 6):
        specs.append(_spec(RG_IO, k,
                           lambda q, xi, yi, k=k: 2 if (q != k - 1 or xi == 0) else 1,
                           lambda q, xi, yi, k=k: (q + 1) % k))
    # grant exactly the request from k steps ago: realizable with memory
    for k in range(1, 6):
        n = 1 << k
        specs.append(_spec(RG_IO, n,
                           lambda q, xi, yi, k=k: 2 if yi == (q >> (k - 1)) & 1 else 1,
                           lambda q, xi, yi, k=k: ((q << 1) | xi) & ((1 << k) - 1)))
    # grant the request of the same step (needs lookahead): unrealizable
    for k in range(1, 6):
        specs.append(_spec(RG_IO, k,
                           lambda q, xi, yi: 2 if xi == yi else 1,
                           lambda q, xi, yi, k=k: (q + 1) % k))
    return specs


def test_realizability_agreement():
    specs = _request_grant_specs()
    ok = len(specs) >= 20
    agreements = 0
    for spec in specs:
        if not ok:
            break
        reference = oracles.dpw_realizability_game(spec, RG_IO)
        w0, _w1 = solve(reference)
        if realizability(spec, RG_IO) == (reference.initial in w0):
            agreements += 1
        else:
            ok = False
    if ok:
        grant = _spec(RG_IO, 1, lambda q, xi, yi: 2 if yi == 0 else 1,
                      lambda q, xi, yi: 0)
        request = _spec(RG_IO, 1, lambda q, xi, yi: 2 if xi == 0 else 1,
                        lambda q, xi, yi: 0)
        ok = realizability(grant, RG_IO) and not realizability(request, RG_IO)
    _report(ok, "realizability game agrees with the split-step reference",
            "%d/%d specs" % (agreements, len(specs)))


def test_scaling_smoke():
    rng = random.Random(0x5CA1E)
    timings = []
    for n in (5, 10, 20, 40):
        aut = oracles.random_dpw(rng, n, 2, 1)
        start = time.perf_counter()
        out = minimize_rerailing(aut)
        timings.append((n, out.state_count, time.perf_counter() - start))
    detail = ", ".join("%d->%d in %.2fs" % t for t in timings)
    _report(True, "scaling smoke (informational)", detail)
