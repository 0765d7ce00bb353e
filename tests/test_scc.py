import random
import sys

from rerail.scc import reachable, scc_decomposition


def successors_of(graph):
    return lambda node: graph[node]


TREE = {0: [1, 2], 1: [3], 2: [4], 3: [], 4: []}


def test_reachable_breadth_first_order():
    assert reachable([0], successors_of(TREE)) == [0, 1, 2, 3, 4]
    assert reachable([2], successors_of(TREE)) == [2, 4]
    # successors are taken in their given order
    assert reachable([0], lambda node: TREE[node][::-1]) == [0, 2, 1, 4, 3]


def test_reachable_starts():
    assert reachable([], successors_of(TREE)) == []
    # repeated starts come once, the distinct starts first and in their order
    assert reachable([2, 0, 2], successors_of(TREE)) == [2, 0, 4, 1, 3]
    assert reachable(iter([3, 1]), successors_of(TREE)) == [3, 1]


def test_reachable_cycles_and_self_loops():
    graph = {0: [0, 1], 1: [2, 0], 2: [2], 3: [0]}
    calls = []

    def successors(node):
        calls.append(node)
        return graph[node]

    assert reachable([0], successors) == [0, 1, 2]
    assert calls == [0, 1, 2]                   # each node expanded once
    assert reachable([3], successors_of(graph)) == [3, 0, 1, 2]


def test_reachable_tuple_nodes():
    # the pairs of a two-state product, as the closures of the package use them
    step = {0: [1], 1: [0, 1]}
    pairs = reachable([(0, 0)], lambda pq: [(p, q) for p in step[pq[0]] for q in step[pq[1]]])
    assert pairs == [(0, 0), (1, 1), (0, 1), (1, 0)]


def test_scc_decomposition_small_graph():
    #  0 -> 1 -> 2 -> 0 is a cycle, 2 -> 3 -> 4 with a self-loop on 4,
    #  and 5 -> 3 enters from outside; 3 and 5 lie on no cycle.
    adjacency = [[1], [2], [0, 3], [4], [4], [3]]
    # ids in the order the components close: the sink {4} first
    assert scc_decomposition(6, adjacency) == [2, 2, 2, 1, 0, 3]


def path_matrix(adjacency):
    """paths[u][v]: some path of at least one edge leads from u to v (Warshall)."""
    n = len(adjacency)
    paths = [[v in adjacency[u] for v in range(n)] for u in range(n)]
    for k in range(n):
        for u in range(n):
            if paths[u][k]:
                for v in range(n):
                    paths[u][v] = paths[u][v] or paths[k][v]
    return paths


def test_graph_walks_match_transitive_closure():
    rng = random.Random(3)
    for _ in range(60):
        n = 1 + rng.randrange(8)
        adjacency = [[rng.randrange(n) for _ in range(rng.randrange(3))] for _ in range(n)]
        path = path_matrix(adjacency)
        for u in range(n):
            found = reachable([u], successors_of(adjacency))
            assert sorted(found) == sorted({u} | {v for v in range(n) if path[u][v]})
        comp = scc_decomposition(n, adjacency)
        for u in range(n):
            for v in range(n):
                assert (comp[u] == comp[v]) == (u == v or path[u][v] and path[v][u])
            # a node lies on a cycle iff it has an edge into its own component
            assert any(comp[v] == comp[u] for v in adjacency[u]) == path[u][u]
            # every edge goes to its own component or to an earlier one
            for v in adjacency[u]:
                assert comp[v] <= comp[u]


def test_scc_decomposition_deep_graphs():
    # no recursion: a path and a cycle far deeper than the recursion limit,
    # and the limit itself is left alone
    n = 100_000
    limit = sys.getrecursionlimit()
    path = [[i + 1] for i in range(n - 1)] + [[]]
    assert scc_decomposition(n, path) == [n - 1 - i for i in range(n)]
    cycle = [[(i + 1) % n] for i in range(n)]
    assert scc_decomposition(n, cycle) == [0] * n
    assert sys.getrecursionlimit() == limit
