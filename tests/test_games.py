import random
import sys

import pytest

from rerail.games import GameArena, solve

import oracles


def two_loops():
    # vertex 0: choice point, vertex 1: even loop, vertex 2: odd loop
    return GameArena(owners=[0, 0, 0], colors=[2, 0, 1],
                     edges=[[1, 2], [1], [2]])


def test_arena_basics():
    arena = two_loops()
    assert arena.vertex_count == 3
    assert arena.vertex_name(1) == "1"
    named = GameArena([0], [0], [[0]], names=["start"])
    assert named.vertex_name(0) == "start"


def test_arena_edges_sorted_deduped():
    arena = GameArena([0, 1], [0, 1], [[1, 0, 1], [0]])
    assert arena.edges[0] == [0, 1]
    arena = GameArena([0, 1, 0], [0, 1, 2], [[2, 2], [1], [2, 0, 2]])
    assert arena.edges == [[2], [1], [0, 2]]


def test_arena_adopts_sorted_list_rows():
    rows = [[1, 3], [2, 0, 2], [3, 3], [0]]
    arena = GameArena([0, 1, 0, 1], [0, 1, 2, 3], rows)
    assert arena.edges == [[1, 3], [0, 2], [3], [0]]
    assert arena.edges[0] is rows[0]
    assert arena.edges[3] is rows[3]
    assert rows[1] == [2, 0, 2]                     # a row needing a copy stays untouched
    arena = GameArena([0, 1], [0, 1], [(0, 1), (1,)])
    assert arena.edges == [[0, 1], [1]]
    assert all(type(row) is list for row in arena.edges)


@pytest.mark.parametrize("owners,colors,edges,message", [
    ([0, 1], [0], [[1], [0]], "equal length"),
    ([0, 1], [0, 1], [[1], []], "vertex 1 has no successor"),
    ([0], [0], [[1]], "out of range: 0 -> 1"),
    ([0, 0], [0, 0], [[1], [1, 2, 0]], "out of range: 1 -> 2"),
    ([0, 0], [0, 0], [[1], [-1]], "out of range: 1 -> -1"),
    ([0, 0], [0, 0], [[1, -1], [0]], "out of range: 0 -> -1"),
    ([0, 0], [0, 0], [[1], [5], []], "out of range: 1 -> 5"),
    ([0, 0], [0, 0], [[1]], "edge list length mismatch"),
    ([0, 0], [0, 0], [[1], [0], [0]], "edge list length mismatch"),
    ([2], [0], [[0]], "vertex 0 has owner 2"),
    ([0], [-1], [[0]], "vertex 0 has negative color"),
    ([0, 0, 5], [0, -1, 0], [[0], [0], [0]], "vertex 1 has negative color"),
    ([0, 5, 0], [0, 0, -1], [[0], [0], [0]], "vertex 1 has owner 5"),
])
def test_arena_rejects(owners, colors, edges, message):
    with pytest.raises(ValueError, match=message):
        GameArena(owners, colors, edges)


def test_arena_initial_out_of_range():
    with pytest.raises(ValueError):
        GameArena([0], [0], [[0]], initial=3)


def test_arena_rejects_wrong_names_length():
    with pytest.raises(ValueError):
        GameArena([0, 0], [0, 0], [[1], [0]], names=["only one"])


def test_dump_table():
    arena = two_loops()
    lines = arena.dump_table().splitlines()
    assert lines[0] == 'vertex 0 owner 0 color 2 name "0" succ 1 2'
    assert lines[2] == 'vertex 2 owner 0 color 1 name "2" succ 2'
    assert arena.dump_table().endswith("\n")


def test_solve_chooses_even_loop():
    w0, w1 = solve(two_loops())
    assert w0 == {0, 1}
    assert w1 == {2}


def test_solve_opponent_forces_odd_loop():
    arena = GameArena(owners=[1, 0, 0], colors=[2, 0, 1],
                      edges=[[1, 2], [1], [2]])
    w0, w1 = solve(arena)
    assert w0 == {1}
    assert w1 == {0, 2}


def test_solve_min_color_wins_on_cycle():
    # a single forced cycle through colors 1 and 2: minimum is odd
    arena = GameArena([0, 1], [1, 2], [[1], [0]])
    w0, w1 = solve(arena)
    assert w0 == set()
    assert w1 == {0, 1}


def test_solve_deep_staircase_keeps_recursion_limit(monkeypatch):
    # colors 0..n-1, each vertex owned by its color's parity, with a self loop
    # and a step down: every descent removes one color, n levels deep
    n = 2000

    def refuse(limit):
        raise AssertionError("solve changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    arena = GameArena([v % 2 for v in range(n)], list(range(n)),
                      [[v, v - 1] if v else [v] for v in range(n)])
    w0, w1 = solve(arena)
    assert w0 == set(range(0, n, 2))
    assert w1 == set(range(1, n, 2))


def test_solve_matches_strategy_enumeration():
    rng = random.Random(21)
    for _ in range(120):
        arena = oracles.random_arena(rng, 1 + rng.randrange(6), rng.randrange(4))
        w0, w1 = solve(arena)
        assert w0 | w1 == set(range(arena.vertex_count))
        assert not (w0 & w1)
        assert w0 == oracles.solve_by_strategies(arena)


def test_solve_unsorted_duplicate_rows_as_normalized_twin():
    rng = random.Random(23)
    for _ in range(60):
        twin = oracles.random_arena(rng, 2 + rng.randrange(30), rng.randrange(5))
        rows = []
        for row in twin.edges:
            row = row + rng.sample(row, rng.randint(0, len(row)))
            rng.shuffle(row)
            rows.append(row)
        arena = GameArena(twin.owners, twin.colors, rows)
        assert arena.edges == twin.edges
        assert solve(arena) == solve(twin)


def test_winning_region_is_a_trap():
    rng = random.Random(22)
    for _ in range(60):
        arena = oracles.random_arena(rng, 2 + rng.randrange(7), rng.randrange(4))
        w0, _ = solve(arena)
        for v in w0:
            succ_in = [w for w in arena.edges[v] if w in w0]
            if arena.owners[v] == 0:
                assert succ_in
            else:
                assert len(succ_in) == len(arena.edges[v])
