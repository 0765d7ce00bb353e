import gc
import hashlib
import random
import warnings

import pytest

from rerail.build import check_color_homogeneous, minimize_rerailing
from rerail.games import solve
from rerail.raf import Alphabet, AutomatonStructure
from rerail.synthesis import (IoAlphabet, build_realizability_game,
                              realizability)

import oracles

RG_IO = IoAlphabet(Alphabet(("r", "n")), Alphabet(("g", "w")))


def single_state_spec(io, accept):
    """One-state spec; transition color 2 when accept(input, output) else 1."""
    transitions = []
    for xi in range(len(io.inputs)):
        for yi in range(len(io.outputs)):
            sym = io.combined_index(xi, yi)
            color = 2 if accept(io.inputs.symbols[xi], io.outputs.symbols[yi]) else 1
            transitions.append((0, sym, 0, color))
    return AutomatonStructure(io.combined, 1, transitions, 0)


def grant_infinitely_often(io=RG_IO):
    return single_state_spec(io, lambda _i, o: o == "g")


def request_infinitely_often(io=RG_IO):
    return single_state_spec(io, lambda i, _o: i == "r")


def random_deterministic_spec(rng, io, n_states, max_color):
    nsym = len(io.combined)
    transitions = [(q, x, rng.randrange(n_states), rng.randrange(max_color + 1))
                   for q in range(n_states) for x in range(nsym)]
    return AutomatonStructure(io.combined, n_states, transitions, 0)


def test_io_alphabet_combined_order():
    assert RG_IO.combined.symbols == ("r|g", "r|w", "n|g", "n|w")
    assert RG_IO.combined_index(1, 0) == 2


def test_io_alphabet_reserved_separator():
    with pytest.raises(ValueError):
        IoAlphabet(Alphabet(("a|b",)), Alphabet(("c",)))
    with pytest.raises(ValueError):
        IoAlphabet(Alphabet(("a",)), Alphabet(("c|d",)))


def test_trivial_specs():
    assert realizability(grant_infinitely_often(), RG_IO)
    assert not realizability(request_infinitely_often(), RG_IO)


def test_swapping_io_flips_the_trivial_specs():
    swapped = IoAlphabet(Alphabet(("g", "w")), Alphabet(("r", "n")))
    granting_env = single_state_spec(swapped, lambda i, _o: i == "g")
    requesting_sys = single_state_spec(swapped, lambda _i, o: o == "r")
    assert not realizability(granting_env, swapped)
    assert realizability(requesting_sys, swapped)


def test_game_shape_for_grant_spec():
    arena = build_realizability_game(grant_infinitely_often(), RG_IO)
    assert arena.vertex_count == 5          # state, two outputs, two classes
    assert arena.initial == 0
    assert arena.owners[0] == 0
    assert arena.vertex_name(0) == "0"
    assert arena.vertex_name(1) == "0 / g"
    by_name = {arena.vertex_name(v): v for v in range(arena.vertex_count)}
    accept_class = by_name["{0}:2"]
    reject_class = by_name["{0}:1"]
    assert arena.owners[accept_class] == 1  # even classes go to the environment
    assert arena.owners[reject_class] == 0
    assert arena.colors[accept_class] == 2
    assert arena.colors[reject_class] == 1


def test_outputs_chosen_before_inputs():
    # copying the current input to the output within the same step needs
    # lookahead, so it must be unrealizable
    io = IoAlphabet(Alphabet(("i0", "i1")), Alphabet(("o0", "o1")))
    copy_now = single_state_spec(io, lambda i, o: i[1] == o[1])
    assert not realizability(copy_now, io)


def test_delayed_copy_is_realizable():
    # outputting in step k+1 what was read in step k only needs memory
    io = IoAlphabet(Alphabet(("i0", "i1")), Alphabet(("o0", "o1")))
    transitions = []
    for q in range(2):
        for xi in range(2):
            for yi in range(2):
                sym = io.combined_index(xi, yi)
                color = 2 if yi == q else 1
                transitions.append((q, sym, xi, color))
    delayed = AutomatonStructure(io.combined, 2, transitions, 0)
    assert realizability(delayed, io)


def test_alphabet_mismatch_rejected(minimal5):
    with pytest.raises(ValueError):
        realizability(minimal5, RG_IO)


def test_spec_missing_a_move_is_refused():
    # the environment could play i1, on which the spec has no move
    io = IoAlphabet(Alphabet(("i0", "i1")), Alphabet(("o",)))
    for transitions in ([(0, 0, 0, 0)], []):
        spec = AutomatonStructure(io.combined, 1, transitions, 0)
        with pytest.raises(ValueError, match=r"input automaton incomplete at \[.*\(0, 1\)\]"):
            realizability(spec, io)


def test_unreachable_state_without_moves_is_allowed():
    """An unreachable state may lack moves; a missing move is the empty class {}:1."""
    io = IoAlphabet(Alphabet(("i0", "i1")), Alphabet(("o",)))
    for (transitions, verdict) in (([(0, 0, 0, 0), (0, 1, 0, 0)], True),
                                   ([(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 1, 0)], False)):
        spec = AutomatonStructure(io.combined, 2, transitions, 0)
        arena = build_realizability_game(spec, io)
        assert realizability(spec, io) is verdict
        empty = next(v for v in range(arena.vertex_count) if arena.vertex_name(v) == "{}:1")
        assert (arena.owners[empty], arena.colors[empty], arena.edges[empty]) == (0, 1, [empty])
        _w0, w1 = solve(arena)
        assert empty in w1
    # the trimmed spec gets the same verdict
    trimmed = AutomatonStructure(io.combined, 1, [(0, 0, 0, 0), (0, 1, 0, 0)], 0)
    assert realizability(trimmed, io)


def test_non_homogeneous_spec_warns():
    io = IoAlphabet(Alphabet(("r", "n")), Alphabet(("g",)))
    spec = AutomatonStructure(io.combined, 2,
                              [(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 0),
                               (1, 0, 1, 1), (1, 1, 1, 1)], 0)
    with pytest.warns(UserWarning):
        build_realizability_game(spec, io)


def test_matches_deterministic_reference():
    rng = random.Random(51)
    for _ in range(20):
        spec = random_deterministic_spec(rng, RG_IO, 1 + rng.randrange(3),
                                         rng.randrange(4))
        reference = oracles.dpw_realizability_game(spec, RG_IO)
        w0, _ = solve(reference)
        assert realizability(spec, RG_IO) == (reference.initial in w0)


def random_reachable_spec(rng, io, n_states, max_color):
    """Complete deterministic spec with exactly n_states, all reachable."""
    while True:
        dpw = oracles.random_dpw(rng, n_states, len(io.combined), max_color)
        if dpw.state_count == n_states:
            return AutomatonStructure(io.combined, n_states, dpw.transitions, dpw.initial)


def test_realizability_invariant_under_minimization():
    """A minimized spec, often nondeterministic, keeps the realizability verdict."""
    rng = random.Random(52)
    verdicts = set()
    nondeterministic = 0
    for _ in range(60):
        spec = random_reachable_spec(rng, RG_IO, 2 + rng.randrange(4), 1 + rng.randrange(3))
        small = minimize_rerailing(spec)
        verdict = realizability(spec, RG_IO)
        assert realizability(small, RG_IO) == verdict
        verdicts.add(verdict)
        moves = {(src, sym) for (src, sym, _dst, _color) in small.transitions}
        nondeterministic += len(moves) < len(small.transitions)
    assert verdicts == {True, False}
    assert nondeterministic > 0


IO3 = IoAlphabet(Alphabet(("x0", "x1", "x2")), Alphabet(("y0", "y1", "y2")))


def doubled(spec):
    """Twin every state; each transition goes to both copies of its target.

    The classes are two-member and shared by a state and its twin.
    """
    n = spec.state_count
    transitions = []
    for (s, x, d, c) in spec.transitions:
        for src in (s, s + n):
            transitions += [(src, x, d, c), (src, x, d + n, c)]
    return AutomatonStructure(spec.alphabet, 2 * n, transitions, spec.initial)


def random_nondeterministic_spec(rng, io, n_states, max_color, homogeneous):
    """Complete spec with 1..3 successors per move; one color per move if homogeneous."""
    transitions = []
    for q in range(n_states):
        for x in range(len(io.combined)):
            color = rng.randint(0, max_color)
            for dst in rng.sample(range(n_states), min(n_states, 1 + rng.randrange(3))):
                transitions.append((q, x, dst, color if homogeneous
                                    else rng.randint(0, max_color)))
    return AutomatonStructure(io.combined, n_states, transitions, 0)


def pinned_specs():
    """28 seeded specs whose realizability arenas are pinned by digest."""
    rng = random.Random(8080)
    specs = []
    for io in (RG_IO, IO3):
        for n in (1, 2, 5, 9, 17):
            specs.append((random_deterministic_spec(rng, io, n, rng.randint(0, 6)), io))
        for n in (1, 3, 6, 11):
            specs.append((doubled(random_deterministic_spec(rng, io, n, rng.randint(1, 5))), io))
        for n in (2, 4, 7):
            specs.append((random_nondeterministic_spec(rng, io, n, 4, True), io))
    for n in (3, 6):
        specs.append((random_nondeterministic_spec(rng, RG_IO, n, 3, False), RG_IO))
    # the same class behind every input, and named states
    specs.append((grant_infinitely_often(), RG_IO))
    named = AutomatonStructure(RG_IO.combined, 2,
                               [(q, x, 1 - q, 2) for q in range(2) for x in range(4)],
                               0, state_names={0: "idle", 1: "busy"})
    specs.append((named, RG_IO))
    return specs


PINNED_ARENA_SHA256 = "3e20aeab42d04b7226e4b9f7696067ec5c98eeae4daf1baf56c5329a1051ada6"


def test_pinned_arenas_unchanged():
    """The dump tables of the pinned specs' arenas, concatenated, keep one digest."""
    tables = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for (spec, io) in pinned_specs():
            tables.append(build_realizability_game(spec, io).dump_table())
    digest = hashlib.sha256("".join(tables).encode("utf-8")).hexdigest()
    assert len(tables) == 28
    assert digest == PINNED_ARENA_SHA256


PINNED_WINNING_SHA256 = "fcd8dfd95551979ed2b0ac17b2429d8d279c404540b8e576eca3647f095b77a8"


def test_pinned_winning_regions_unchanged():
    """The player-0 regions of the pinned specs' arenas, one sorted line each, keep one digest."""
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for (spec, io) in pinned_specs():
            w0, _w1 = solve(build_realizability_game(spec, io))
            lines.append(" ".join(map(str, sorted(w0))))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == PINNED_WINNING_SHA256


def test_gc_state_left_alone(monkeypatch):
    """Realizability and minimization never switch or tune the cyclic collector."""
    def refuse(*_args):
        raise AssertionError("the library changed the garbage collector's state")

    for name in ("disable", "enable", "freeze", "unfreeze", "set_threshold"):
        monkeypatch.setattr(gc, name, refuse)
    state = (gc.isenabled(), gc.get_threshold())
    rng = random.Random(54)
    for _ in range(5):
        spec = random_reachable_spec(rng, RG_IO, 2 + rng.randrange(4), 1 + rng.randrange(3))
        realizability(spec, RG_IO)
        realizability(minimize_rerailing(spec), RG_IO)
    assert (gc.isenabled(), gc.get_threshold()) == state


def test_vertex_names_of_a_built_arena():
    (named, io) = pinned_specs()[-1]
    arena = build_realizability_game(named, io)
    assert [arena.vertex_name(v) for v in range(arena.vertex_count)] == [
        "idle", "busy", "idle / g", "{busy}:2", "idle / w", "busy / g", "{idle}:2",
        "busy / w"]


def test_warns_exactly_on_non_homogeneous_specs():
    rng = random.Random(53)
    seen = set()
    for i in range(60):
        io = IO3 if i % 3 == 0 else RG_IO
        spec = random_nondeterministic_spec(rng, io, 1 + rng.randrange(5), 3, i % 2 == 0)
        homogeneous = check_color_homogeneous(spec)
        seen.add(homogeneous)
        if homogeneous:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                build_realizability_game(spec, io)
        else:
            with pytest.warns(UserWarning, match="not color-homogeneous"):
                build_realizability_game(spec, io)
    assert seen == {True, False}


def test_every_vertex_kind_of_a_named_arena():
    """State, state/output and class vertices: one-member, shared, multi-member and empty."""
    (idle, busy, done, lost) = range(4)
    (rg, rw, ng, nw) = range(4)
    spec = AutomatonStructure(RG_IO.combined, 4, [
        (idle, rg, busy, 2), (idle, rg, done, 1),      # two one-member color classes
        (idle, rw, idle, 2), (idle, ng, idle, 2), (idle, nw, idle, 2),
        (busy, rg, busy, 2),                           # the class {busy}:2 of idle / g
        (busy, rw, idle, 1), (busy, rw, done, 1),      # a two-member class
        (busy, ng, idle, 2), (busy, nw, idle, 2),
        (done, rg, idle, 2), (done, rw, done, 1),      # the class {done}:1 of idle / g
        (done, ng, idle, 2), (done, nw, done, 1),
        (lost, rg, idle, 2)], idle,                    # unreachable, three moves missing
        state_names={idle: "idle", busy: "busy", done: "done", lost: "lost"})
    with pytest.warns(UserWarning, match="not color-homogeneous"):
        arena = build_realizability_game(spec, RG_IO)
        assert realizability(spec, RG_IO)
    names = [arena.vertex_name(v) for v in range(arena.vertex_count)]
    assert names == [
        "idle", "busy", "done", "lost", "idle / g", "{done}:1", "{busy}:2", "{idle}:2",
        "idle / w", "busy / g", "busy / w", "{idle,done}:1", "done / g", "done / w",
        "lost / g", "{}:1", "lost / w"]
    assert len(set(names)) == len(names)
    v = names.index
    assert arena.edges[v("idle / g")] == [v("{done}:1"), v("{busy}:2"), v("{idle}:2")]
    assert v("{busy}:2") in arena.edges[v("busy / g")]
    assert arena.edges[v("done / w")] == [v("{done}:1")]
    assert arena.edges[v("{idle,done}:1")] == [idle, done]
    assert arena.edges[v("{}:1")] == [v("{}:1")]
    assert [arena.owners[v(name)] for name in ("{done}:1", "{busy}:2", "{}:1")] == [0, 1, 0]
