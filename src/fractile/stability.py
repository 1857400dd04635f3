"""Bonds and stability: which abutting glues bond, and whether an
assembly's bond graph has no cut lighter than the temperature."""

from __future__ import annotations

from collections.abc import Mapping
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from .grid import Point, neighbors

if TYPE_CHECKING:
    from .tiles import Glue, TileType


def glues_bind(a: Glue, b: Glue) -> int:
    """Strength of the bond two facing glues form: their common strength
    when they are equal in both label and strength, else zero."""
    if a.label == b.label and a.strength == b.strength and a.strength > 0:
        return a.strength
    return 0


def _sides(tile: TileType) -> tuple[Glue, Glue, Glue, Glue]:
    """The tile's glues indexed by side, in the order of
    :class:`grid.Direction`."""
    return (tile.north, tile.east, tile.south, tile.west)


def is_tau_stable(assembly: Mapping[Point, TileType], tau: int) -> bool:
    """Whether every cut of the bond graph weighs at least tau.

    Singletons are stable by convention; anything with a bond-disconnected
    domain admits a weight-zero cut and is not.  An edge of weight tau or
    more crosses no lighter cut, so every such edge is contracted as soon
    as it appears, which leaves tau=1 to connectivity alone.  Stoer-Wagner
    minimum-cut phases (Stoer and Wagner, JACM 44(4), 1997) decide the
    rest: the first phase also checks connectivity, and the loop stops at
    the first phase whose cut is lighter than tau.
    """
    index = {p: i for i, p in enumerate(assembly)}
    adj: dict[int, dict[int, int]] = {i: {} for i in index.values()}
    for p, i in index.items():
        sides = _sides(assembly[p])
        for side, q in enumerate(neighbors(p)[:2]):  # north, east
            j = index.get(q)
            if j is not None:
                w = glues_bind(sides[side], _sides(assembly[q])[side ^ 2])
                if w:
                    adj[i][j] = adj[j][i] = w
    strong = [(i, j) for i in adj for j, w in adj[i].items() if w >= tau]

    def merge(s: int, t: int) -> None:
        """Contract whichever of s and t has fewer neighbours into the
        other, queueing every edge the contraction brings up to tau."""
        if len(adj[s]) < len(adj[t]):
            s, t = t, s
        for b, w in adj.pop(t).items():
            del adj[b][t]
            if b != s:
                adj[s][b] = adj[b][s] = w = adj[s].get(b, 0) + w
                if w >= tau:
                    strong.append((s, b))

    while True:
        while strong:
            s, t = strong.pop()
            if t in adj.get(s, ()):
                merge(s, t)
        if len(adj) <= 1:
            return True
        cut, order = _min_cut_phase(adj)
        # a search that stops short has found a bond-disconnected part
        if len(order) < len(adj) or cut < tau:
            return False
        merge(*order[-2:])


def _min_cut_phase(adj: dict[int, dict[int, int]]) -> tuple[int, list[int]]:
    """One Stoer-Wagner phase: visit the vertices from an arbitrary start,
    each time taking the one most tightly bonded to those visited.  Returns
    the last vertex's total weight to the others, which is a cut, and the
    visit order, which stops short when the graph is disconnected."""
    unvisited = dict.fromkeys(adj, 0)
    heap = [(0, next(iter(adj)))]
    order: list[int] = []
    cut = 0
    while heap:
        negative, v = heappop(heap)
        if v not in unvisited:
            continue
        del unvisited[v]
        order.append(v)
        cut = -negative
        for b, w in adj[v].items():
            if b in unvisited:
                unvisited[b] += w
                heappush(heap, (-unvisited[b], b))
    return cut, order
