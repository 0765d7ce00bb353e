"""Graph walks: reachability and strongly connected components (iterative Tarjan)."""

from __future__ import annotations


def reachable(starts, successors):
    """Every node reachable from `starts`, in breadth-first discovery order.

    Nodes are hashable and `successors(node)` gives an iterable of a node's
    successors.  The distinct starts come first, in their given order.
    """
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for node in order:              # the list grows while it is walked
        for succ in successors(node):
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
    return order


def scc_decomposition(node_count, adjacency):
    """Strongly connected components of a directed graph on nodes 0..n-1.

    adjacency: a list giving an iterable of successors per node.  Returns
    `component_of`, the component id of each node.  Ids count up in the order
    Tarjan's algorithm (run without recursion) closes the components, so every
    edge u -> v has component_of[v] <= component_of[u]: sinks come first.  A
    node lies on a cycle iff it has an edge into its own component.
    """
    index = [-1] * node_count
    low = [0] * node_count
    stack = []                          # visited nodes not yet in a component
    component_of = [-1] * node_count
    closed = 0
    counter = 0
    for root in range(node_count):
        if index[root] != -1:
            continue
        work = [(root, iter(adjacency[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        while work:
            node, it = work[-1]
            for succ in it:
                if index[succ] == -1:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    work.append((succ, iter(adjacency[succ])))
                    break
                if component_of[succ] == -1 and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    w = -1
                    while w != node:
                        w = stack.pop()
                        component_of[w] = closed
                    closed += 1
    return component_of
