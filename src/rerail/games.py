"""Vertex-colored parity game arenas and an iterative solver.

Player 0 wins a play iff the lowest vertex color occurring infinitely often
is even.  Arenas must be total: every vertex needs at least one successor.
"""

from __future__ import annotations

from operator import itemgetter, lt


class GameArena:
    """Game graph with vertex owners (0 or 1), vertex colors, and edge lists.

    `edges[v]` is the strictly increasing successor list of v.  The arena
    adopts every row given as a strictly increasing list (the caller must not
    change it afterwards) and copies any other row sorted and deduplicated.
    `names` is a list of display names or a function from vertex to name.
    """

    def __init__(self, owners, colors, edges, initial=0, names=None):
        self.owners = list(owners)
        self.colors = list(colors)
        n = len(self.owners)
        if len(self.colors) != n:
            raise ValueError("owners and colors must have equal length")
        if not 0 <= initial < n:
            raise ValueError("initial vertex out of range")
        self.initial = initial
        # pairs, the common rows, are checked for order without a slice
        self.edges = rows = [
            row if type(row) is list and (len(row) < 2 or (
                row[0] < row[1] if len(row) == 2 else all(map(lt, row, row[1:]))))
            else sorted(set(row)) for row in edges]
        if (len(rows) != n or not all(rows) or min(map(itemgetter(0), rows)) < 0
                or max(map(itemgetter(-1), rows)) >= n):
            for v, row in enumerate(rows):          # report the first bad vertex
                if not row:
                    raise ValueError("vertex %d has no successor (arena must be total)" % v)
                if row[0] < 0 or row[-1] >= n:
                    raise ValueError("edge target out of range: %d -> %d"
                                     % (v, row[0] if row[0] < 0 else row[-1]))
            raise ValueError("edge list length mismatch")
        if not set(self.owners) <= {0, 1} or min(self.colors) < 0:
            v = next(v for v in range(n) if self.owners[v] not in (0, 1) or self.colors[v] < 0)
            if self.owners[v] not in (0, 1):
                raise ValueError("vertex %d has owner %r" % (v, self.owners[v]))
            raise ValueError("vertex %d has negative color" % v)
        if names is not None and not callable(names):
            if len(names) != n:
                raise ValueError("names must have one entry per vertex")
            names = list(names).__getitem__
        self._name = names

    @property
    def vertex_count(self):
        return len(self.owners)

    def vertex_name(self, v):
        return str(v) if self._name is None else self._name(v)

    def dump_table(self):
        """Human/machine readable table: one line per vertex."""
        out = []
        for v in range(self.vertex_count):
            succ = " ".join(str(w) for w in self.edges[v])
            out.append("vertex %d owner %d color %d name \"%s\" succ %s"
                       % (v, self.owners[v], self.colors[v], self.vertex_name(v), succ))
        return "\n".join(out) + "\n"


def solve(arena):
    """Winning regions (player 0 set, player 1 set) of the whole arena.

    Zielonka's decomposition on the minimum color, run on an explicit stack.
    A frame holds a subgame, the regions it has won so far and the parity p
    of its minimum color; its first subproblem (the subgame minus the
    p-attractor of that color) is pushed as a new frame, and its second one
    continues in the same frame after removing the opponent's attractor.
    A subgame whose colors all have one parity goes to that player at once.

    An attractor walks its queue as a growing list, in any order, since it is
    a fixed point.  An opponent vertex joins when its last live successor
    does; one with a single successor joins at once, and one with more keeps
    a count of live successors not yet attracted.
    """
    n = arena.vertex_count
    owners = arena.owners
    colors = arena.colors
    edges = arena.edges
    preds = [[] for _ in range(n)]
    for v, row in enumerate(edges):
        for w in row:
            preds[w].append(v)

    def attractor(attr, player, alive):      # grows the caller's target set in place
        counts = {}
        queue = list(attr)
        for u in queue:
            for v in preds[u]:
                if v in attr or v not in alive:
                    continue
                if owners[v] != player:
                    row = edges[v]
                    if len(row) > 1:
                        k = counts.get(v)
                        if k is None:
                            k = sum(map(alive.__contains__, row))
                        counts[v] = k = k - 1
                        if k:
                            continue
                attr.add(v)
                queue.append(v)
        return attr

    frames = []
    sub, won = set(range(n)), [set(), set()]
    while True:
        while sub:
            present = set(map(colors.__getitem__, sub))
            c = min(present)
            p = c & 1
            if all(d & 1 == p for d in present):
                won[p] |= sub
                break
            a = attractor({v for v in sub if colors[v] == c}, p, sub)
            frames.append((sub, won, p))
            sub, won = sub - a, [set(), set()]
        while frames:
            result = won
            sub, won, p = frames.pop()
            opponent = result[1 - p]
            if opponent:
                b = attractor(opponent, 1 - p, sub)
                won[1 - p] |= b
                sub = sub - b
                break
            won[p] |= sub
        else:
            return won[0], won[1]
