"""Integer-lattice geometry: points, directions, and grid-graph predicates.

Everything downstream (fractal stages, tile assemblies, windows) works on
plain ``(x, y)`` tuples and treats a set of points as the vertex set of its
full grid graph: vertices are the points, edges join points at unit
horizontal or vertical distance.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Iterable, NamedTuple

Point = tuple[int, int]
PointSet = frozenset[Point]


class Direction(IntEnum):
    """The four sides of a cell, numbered N=0, E=1, S=2, W=3.

    This is the one side order: :func:`neighbors` lists a point's
    neighbours in it, and a tile's glues are indexed by it.  Side ``d`` of
    one cell faces side ``d ^ 2`` of the neighbour across it.  A direction
    is also a function on points, to the neighbour on that side.
    """

    N = 0
    E = 1
    S = 2
    W = 3

    @property
    def unit(self) -> Point:
        return neighbors((0, 0))[self]

    def __call__(self, p: Point) -> Point:
        return neighbors(p)[self]

    def inverse(self) -> "Direction":
        return DIRECTIONS[self ^ 2]


#: The directions in side order, so ``DIRECTIONS[d] is d``.
DIRECTIONS: tuple[Direction, ...] = tuple(Direction)


class Extents(NamedTuple):
    """Leftmost/rightmost x and bottommost/topmost y of a point set."""

    left: int
    right: int
    bottom: int
    top: int


def extents(points: Iterable[Point]) -> Extents:
    pts = list(points)
    if not pts:
        raise ValueError("empty point set")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return Extents(min(xs), max(xs), min(ys), max(ys))


def neighbors(p: Point) -> tuple[Point, Point, Point, Point]:
    x, y = p
    return ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y))


def translate(points: Iterable[Point], vec: Point) -> PointSet:
    dx, dy = vec
    return frozenset((x + dx, y + dy) for x, y in points)


def grid_edges(points: Iterable[Point]) -> list[tuple[Point, Point]]:
    """Undirected edges of the full grid graph, each listed once."""
    pts = set(points)
    edges = []
    for p in pts:
        for q in (Direction.E(p), Direction.N(p)):
            if q in pts:
                edges.append((p, q))
    return edges


def _reach(start: Point, pts: set) -> set:
    """The points of ``pts`` joined to ``start`` by grid edges within it."""
    seen = {start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for q in neighbors(p):
            if q in pts and q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def is_connected(points: Iterable[Point]) -> bool:
    """True when the full grid graph on ``points`` is connected.

    The empty set counts as not connected.
    """
    pts = set(points)
    return bool(pts) and len(_reach(next(iter(pts)), pts)) == len(pts)


def is_tree(points: Iterable[Point]) -> bool:
    """True when the full grid graph on ``points`` is a tree.

    A connected graph on n vertices is a tree exactly when it has n - 1
    edges, which is what we count here.
    """
    pts = set(points)
    return is_connected(pts) and len(grid_edges(pts)) == len(pts) - 1


def row_major(points: Iterable[Point]) -> list[Point]:
    """The points row by row from the bottom, each from the left: the one report order."""
    return sorted(points, key=lambda p: (p[1], p[0]))


def free_directions(pts: set | frozenset, p: Point) -> tuple[Direction, ...]:
    return tuple(d for d, q in zip(DIRECTIONS, neighbors(p)) if q not in pts)


def connected_components(points: Iterable[Point]) -> list[PointSet]:
    """Connected components of the full grid graph, in the row order of
    their first members."""
    pts = set(points)
    comps = []
    remaining = set(pts)
    for start in row_major(pts):
        if start in remaining:
            comp = frozenset(_reach(start, pts))
            remaining -= comp
            comps.append(comp)
    return comps
