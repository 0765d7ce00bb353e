"""Independent reference implementations used to cross-check the package.

Everything here favors obviousness over speed and deliberately takes a
different algorithmic route than the library code: membership goes through
color-threshold subgraphs instead of per-component cycle minima, parity
games are solved by enumerating positional strategies, equireachability
uses the subset construction instead of the pair product, and realizability
of deterministic automata uses the plain product game instead of successor
classes.
"""

from __future__ import annotations

import itertools

from rerail.games import GameArena
from rerail.raf import Alphabet, AutomatonStructure
from rerail.lasso import LassoWord


# ---------------------------------------------------------------------------
# Graph plumbing


def scc_partition(n, succ):
    """Strongly connected components via Kosaraju; list of sorted lists."""
    order = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, iter(succ[start]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    pred = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    comp = [-1] * n
    count = 0
    for v in reversed(order):
        if comp[v] != -1:
            continue
        comp[v] = count
        todo = [v]
        while todo:
            u = todo.pop()
            for w in pred[u]:
                if comp[w] == -1:
                    comp[w] = count
                    todo.append(w)
        count += 1
    groups = [[] for _ in range(count)]
    for v in range(n):
        groups[comp[v]].append(v)
    return [sorted(g) for g in groups]


def _reachable_from(start, succ):
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


# ---------------------------------------------------------------------------
# Lasso membership via color thresholds


def product_graph(aut, lasso):
    """Lasso-product nodes and colored edges, built from scratch.

    Nodes are (state, position) with positions 0..len(stem)+len(cycle)-1;
    the successor position wraps back to len(stem).  Returns (nodes, edges)
    with edges as (node, color, node) triples, restricted to the part
    reachable from (initial, 0).
    """
    stem, cycle = lasso.stem, lasso.cycle
    length = len(stem) + len(cycle)

    def sym_at(pos):
        return stem[pos] if pos < len(stem) else cycle[pos - len(stem)]

    def nxt(pos):
        return pos + 1 if pos + 1 < length else len(stem)

    start = (aut.initial, 0)
    seen = {start}
    todo = [start]
    edges = []
    while todo:
        (q, pos) = todo.pop()
        for (dst, color) in aut.successors(q, sym_at(pos)):
            node = (dst, nxt(pos))
            edges.append(((q, pos), color, node))
            if node not in seen:
                seen.add(node)
                todo.append(node)
    return sorted(seen), sorted(edges)


def dominating_colors(aut, lasso):
    """All colors that arise as the dominating color of some run.

    For each candidate color c, keep only edges of color >= c and look for
    a strongly connected component containing an edge of color exactly c;
    any such component is reachable by construction of the product.
    """
    nodes, edges = product_graph(aut, lasso)
    index = {v: i for i, v in enumerate(nodes)}
    result = set()
    for c in sorted({color for (_u, color, _v) in edges}):
        succ = [[] for _ in nodes]
        for (u, color, v) in edges:
            if color >= c:
                succ[index[u]].append(index[v])
        comp_of = {}
        for k, group in enumerate(scc_partition(len(nodes), succ)):
            for i in group:
                comp_of[i] = k
        for (u, color, v) in edges:
            if color == c and comp_of[index[u]] == comp_of[index[v]]:
                result.add(c)
                break
    return result


def enumerated_cycle_minima(aut, lasso):
    """dominating_colors by listing every simple product cycle outright.

    Exponential; meant for very small products only.  Each cycle is counted
    at its least node under a fixed ordering.
    """
    nodes, edges = product_graph(aut, lasso)
    order = {v: k for k, v in enumerate(nodes)}
    adj = {v: [] for v in nodes}
    for (u, color, v) in edges:
        adj[u].append((color, v))
    minima = set()

    def explore(start, v, lowest, visited):
        for (color, w) in adj[v]:
            low2 = min(lowest, color)
            if w == start:
                minima.add(low2)
            elif order[w] > order[start] and w not in visited:
                explore(start, w, low2, visited | {w})

    for start in nodes:
        explore(start, start, float("inf"), {start})
    return minima


def member_rerailing(aut, lasso):
    return max(dominating_colors(aut, lasso)) % 2 == 0


def member_parity_exists(aut, lasso):
    return any(c % 2 == 0 for c in dominating_colors(aut, lasso))


def member_parity_det(aut, lasso):
    colors = dominating_colors(aut, lasso)
    assert len(colors) == 1, "automaton is not deterministic"
    return max(colors) % 2 == 0


def member_cobuchi(aut, lasso):
    """Some run eventually avoids rejecting transitions (colors are 1/2)."""
    return 2 in dominating_colors(aut, lasso)


def node_color_sets(aut, lasso):
    """{(q, pos): (dominating, uniform)} for each node of the lasso product.

    Positions are those of `lasso` as given (pass a canonical lasso to
    compare with the library).  dominating holds the dominating colors of
    the automaton restarted at q over the word from pos on, and uniform the
    colors c such that some node reachable from (q, pos), itself included,
    has dominating colors {c}.  Nodes come in sorted order.
    """
    word = lasso.stem + lasso.cycle
    nodes, edges = product_graph(aut, lasso)
    index = {v: i for i, v in enumerate(nodes)}
    succ = [[] for _ in nodes]
    for (u, _color, v) in edges:
        succ[index[u]].append(index[v])
    dominating = []
    for (q, pos) in nodes:
        restarted = AutomatonStructure(aut.alphabet, aut.state_count,
                                       aut.transitions, q)
        dominating.append(dominating_colors(restarted,
                                            LassoWord(word[pos:], lasso.cycle)))
    return {node: (dominating[i], {c for j in _reachable_from(i, succ)
                                   for c in dominating[j] if len(dominating[j]) == 1})
            for i, node in enumerate(nodes)}


def rerailing_violations(aut, lasso):
    """Violations of the bounded rerailing property on one lasso.

    Positions are those of `lasso` as given (pass a canonical lasso to
    compare with the library).  Every dominating color d of a node (see
    node_color_sets) that no uniform color c >= d of the verdict's parity
    reaches is a violation; the list is sorted by node, then d.
    """
    sets = node_color_sets(aut, lasso)
    member = max(sets[(aut.initial, 0)][0]) % 2 == 0
    violations = []
    for node, (dominating, uniform) in sets.items():
        good = [c for c in uniform if (c % 2 == 0) == member]
        for d in sorted(dominating):
            if any(c >= d for c in good):
                continue
            if not uniform:
                reason = "no-uniform-successor"
            elif not good:
                reason = "parity-mismatch"
            else:
                reason = "color-decrease"
            violations.append((node, d, reason))
    return violations


def chain_color(chain, lasso):
    best = 0
    for i in range(1, len(chain) + 1):
        if member_cobuchi(chain.levels[i - 1], lasso):
            best = i
    return best


def chain_member(chain, lasso):
    return chain_color(chain, lasso) % 2 == 0


def floating_member(f, lasso):
    """Plain walk: try every floating position up to the tracker period."""
    stem, cycle = lasso.stem, lasso.cycle

    def sym_at(k):
        if k < len(stem):
            return stem[k]
        return cycle[(k - len(stem)) % len(cycle)]

    def phase(k):
        if k < len(stem):
            return k
        return len(stem) + (k - len(stem)) % len(cycle)

    def runs_forever(q, k):
        seen = set()
        while True:
            key = (q, phase(k))
            if key in seen:
                return True
            seen.add(key)
            q = f.step(q, sym_at(k))
            if q is None:
                return False
            k += 1

    limit = len(stem) + len(cycle) * (f.rlta.state_count + 1)
    tracker = f.rlta.initial
    for k in range(limit + 1):
        for q in range(f.state_count):
            if f.labels[q] == tracker and runs_forever(q, k):
                return True
        tracker = f.rlta.step(tracker, sym_at(k))
    return False


def floating_chain_color(fchain, lasso):
    best = 0
    for i in range(1, len(fchain) + 1):
        if floating_member(fchain.levels[i - 1], lasso):
            best = i
    return best


# ---------------------------------------------------------------------------
# Equireachability via the subset construction


def subset_equireach(aut):
    """Ordered pairs of states sharing a reaching word, via reachable subsets."""
    start = frozenset([aut.initial])
    seen = {start}
    todo = [start]
    while todo:
        group = todo.pop()
        for a in range(len(aut.alphabet)):
            image = frozenset(d for q in group for d in aut.successor_states(q, a))
            if image and image not in seen:
                seen.add(image)
                todo.append(image)
    pairs = set()
    for group in seen:
        for p in group:
            for q in group:
                pairs.add((p, q))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# Parity games by strategy enumeration


def _odd_cycle_vertices(arena, succ):
    """Vertices lying on a cycle whose minimum color is odd, given fixed edges."""
    n = arena.vertex_count
    bad = set()
    for c in sorted(set(arena.colors)):
        if c % 2 == 0:
            continue
        keep = [v for v in range(n) if arena.colors[v] >= c]
        keepset = set(keep)
        sub = [[w for w in succ[v] if w in keepset] if v in keepset else []
               for v in range(n)]
        for group in scc_partition(n, sub):
            groupset = set(group) & keepset
            has_cycle = any(w in groupset for v in groupset for w in sub[v])
            if has_cycle and any(arena.colors[v] == c for v in groupset):
                bad |= groupset
    return bad


def solve_by_strategies(arena):
    """Winning region of player 0, by trying every positional strategy."""
    n = arena.vertex_count
    zero = [v for v in range(n) if arena.owners[v] == 0]
    win0 = set()
    for picks in itertools.product(*[arena.edges[v] for v in zero]):
        choice = dict(zip(zero, picks))
        succ = [[choice[v]] if v in choice else list(arena.edges[v])
                for v in range(n)]
        bad = _odd_cycle_vertices(arena, succ)
        losing = set(bad)
        for v in range(n):
            if v not in losing and losing & _reachable_from(v, succ):
                losing.add(v)
        win0 |= set(range(n)) - losing
    return win0


# ---------------------------------------------------------------------------
# Realizability of deterministic specifications


def dpw_realizability_game(aut, io):
    """Product game for a deterministic specification: no successor classes.

    The system owns state vertices and commits an output letter first; the
    environment then picks an input letter.  The color of a transition sits
    on an extra pass-through vertex, so dominating colors of plays match
    dominating transition colors of the unique run.
    """
    top = aut.max_color
    n_out = len(io.outputs)
    n_in = len(io.inputs)
    owners, colors, names, edges = [], [], [], []
    ids = {}

    def vertex(key, owner, color, name):
        if key not in ids:
            ids[key] = len(owners)
            owners.append(owner)
            colors.append(color)
            names.append(name)
            edges.append([])
        return ids[key]

    for q in range(aut.state_count):
        vertex(("q", q), 0, top, aut.state_name(q))
    for q in range(aut.state_count):
        vq = ids[("q", q)]
        for yi in range(n_out):
            vy = vertex(("y", q, yi), 1, top,
                        "%s / %s" % (aut.state_name(q), io.outputs.symbols[yi]))
            edges[vq].append(vy)
            for xi in range(n_in):
                sym = io.combined_index(xi, yi)
                succ = aut.successors(q, sym)
                assert len(succ) == 1, "specification automaton is not deterministic"
                (dst, color) = succ[0]
                vt = vertex(("t", q, yi, xi), 1, color,
                            "%s / %s / %s" % (aut.state_name(q),
                                              io.outputs.symbols[yi],
                                              io.inputs.symbols[xi]))
                edges[vy].append(vt)
                edges[vt].append(ids[("q", dst)])
    return GameArena(owners, colors, edges, initial=ids[("q", aut.initial)],
                     names=names)


# ---------------------------------------------------------------------------
# Random instances


_LETTERS = "abcdefgh"


def _alphabet(n_symbols):
    return Alphabet(tuple(_LETTERS[:n_symbols]))


def random_dpw(rng, n_states, n_symbols, max_color):
    """Complete deterministic automaton, trimmed to its reachable part."""
    table = {(q, a): (rng.randrange(n_states), rng.randrange(max_color + 1))
             for q in range(n_states) for a in range(n_symbols)}
    alive = [0]
    seen = {0}
    for q in alive:
        for a in range(n_symbols):
            dst = table[(q, a)][0]
            if dst not in seen:
                seen.add(dst)
                alive.append(dst)
    renum = {q: i for i, q in enumerate(sorted(seen))}
    transitions = [(renum[q], a, renum[dst], c)
                   for (q, a), (dst, c) in table.items() if q in seen]
    return AutomatonStructure(_alphabet(n_symbols), len(seen), transitions, 0)


def split_states(aut, kind=AutomatonStructure):
    """`aut` with each state q split into the copies 2q and 2q + 1 of its
    language, built as a `kind`: every move goes to both copies of its target
    with its color, so the automaton keeps its language and is
    nondeterministic, but every level of a DPW's split is still
    history-deterministic."""
    return kind(aut.alphabet, 2 * aut.state_count,
                [(2 * q + b, x, 2 * d + e, c) for (q, x, d, c) in aut.transitions
                 for b in (0, 1) for e in (0, 1)], 2 * aut.initial)


def random_complete_automaton(rng, n_states, n_symbols, max_color, fanout=2):
    """Complete nondeterministic automaton; each (state, symbol) gets 1..fanout edges."""
    chosen = {}
    for q in range(n_states):
        for a in range(n_symbols):
            targets = rng.sample(range(n_states),
                                 min(n_states, 1 + rng.randrange(fanout)))
            for d in targets:
                chosen[(q, a, d)] = rng.randrange(max_color + 1)
    transitions = [(q, a, d, c) for (q, a, d), c in chosen.items()]
    return AutomatonStructure(_alphabet(n_symbols), n_states, transitions, 0)


def random_cobuchi_automaton(rng, n_states, n_symbols, fanout=2):
    """Complete nondeterministic automaton with transition colors in {1, 2}."""
    chosen = {}
    for q in range(n_states):
        for a in range(n_symbols):
            targets = rng.sample(range(n_states),
                                 min(n_states, 1 + rng.randrange(fanout)))
            for d in targets:
                chosen[(q, a, d)] = 1 + rng.randrange(2)
    transitions = [(q, a, d, c) for (q, a, d), c in chosen.items()]
    return AutomatonStructure(_alphabet(n_symbols), n_states, transitions, 0)


def random_arena(rng, n_vertices, max_color, fanout=3):
    owners = [rng.randrange(2) for _ in range(n_vertices)]
    colors = [rng.randrange(max_color + 1) for _ in range(n_vertices)]
    edges = [rng.sample(range(n_vertices),
                        min(n_vertices, 1 + rng.randrange(fanout)))
             for _ in range(n_vertices)]
    return GameArena(owners, colors, edges)


def random_lasso(rng, n_symbols, stem_max, cycle_max):
    stem = tuple(rng.randrange(n_symbols)
                 for _ in range(rng.randrange(stem_max + 1)))
    cycle = tuple(rng.randrange(n_symbols)
                  for _ in range(1 + rng.randrange(cycle_max)))
    return LassoWord(stem, cycle)
