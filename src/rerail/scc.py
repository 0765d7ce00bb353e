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


class SccDecomposition:
    """Components of a directed graph on nodes 0..n-1.

    Components are numbered by their smallest contained node, listed in that
    order, and `topo_order` gives component indices so that every edge goes
    from a later entry to an earlier one or stays inside one component
    (i.e. reverse-topological for the condensation).  `nontrivial` is the set
    of component ids that contain a cycle.
    """

    def __init__(self, component_of, components, topo_order, nontrivial):
        self.component_of = component_of
        self.components = components
        self.topo_order = topo_order
        self.nontrivial = nontrivial

    def __len__(self):
        return len(self.components)


def scc_decomposition(node_count, adjacency):
    """Tarjan's algorithm without recursion.

    adjacency: a list giving an iterable of successors per node.
    """
    index = [-1] * node_count
    low = [0] * node_count
    on_stack = [False] * node_count
    stack = []
    comp_of = [-1] * node_count
    raw_components = []
    counter = 0
    for root in range(node_count):
        if index[root] != -1:
            continue
        work = [(root, iter(adjacency[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if index[succ] == -1:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                elif on_stack[succ]:
                    if index[succ] < low[node]:
                        low[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                raw_components.append(sorted(comp))
    # Tarjan emits components in reverse topological order; renumber by
    # smallest node for a stable public numbering.
    order = sorted(range(len(raw_components)), key=lambda i: raw_components[i][0])
    components = [raw_components[i] for i in order]
    comp_index = {old: new for new, old in enumerate(order)}
    raw_of = [-1] * node_count
    for raw_id, comp in enumerate(raw_components):
        for node in comp:
            raw_of[node] = raw_id
    component_of = [comp_index[raw_of[v]] for v in range(node_count)]
    topo_order = [comp_index[i] for i in range(len(raw_components))]
    nontrivial = frozenset(
        comp_id for comp_id, comp in enumerate(components)
        if len(comp) > 1 or any(s == comp[0] for s in adjacency[comp[0]]))
    return SccDecomposition(component_of, components, topo_order, nontrivial)
