"""Square windows around pier blocks of fractal stages.

The window at stage s wraps one copy-of-a-copy block: the square of side
c * g**(s-2) sitting at the pier cell of the anchor copy.  Windows of
different stages around the same pier/anchor pair are similar, and the
vector between their corners is what the splicing machinery shifts
assemblies by.

A window is its inside point set, a plain frozenset: the filled square
:func:`window_inside` builds.  The cut separating a finite inside from
the infinite outside is the set of edges leaving those points; nothing
builds that edge set, and every function here and in
:mod:`fractile.movies` takes the points themselves.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .grid import DIRECTIONS, Direction, Point, PointSet, neighbors


class WindowSpec(
    NamedTuple(
        "WindowSpec",
        [("c", int), ("stage", int), ("g", int), ("anchor", Point), ("pier", Point)],
    )
):
    """Parameters of a stage window: scale c, stage s >= 2, generator side
    g, anchor copy (e, f) and pier cell (p, q), checked on construction
    (``_replace`` skips the checks)."""

    __slots__ = ()

    def __new__(cls, c: int, stage: int, g: int, anchor: Point, pier: Point) -> "WindowSpec":
        if c < 1:
            raise ValueError(f"scale factor must be >= 1, got {c}")
        if stage < 2:
            raise ValueError(f"stage windows exist from stage 2, got {stage}")
        if g < 2:
            raise ValueError(f"side must be at least 2, got {g}")
        for name, (x, y) in (("anchor", anchor), ("pier", pier)):
            if not (0 <= x < g and 0 <= y < g):
                raise ValueError(f"{name} outside {g}x{g} square: {(x, y)}")
        return super().__new__(cls, c, stage, g, anchor, pier)

    @property
    def side(self) -> int:
        return self.c * self.g ** (self.stage - 2)

    @property
    def corner(self) -> Point:
        (e, f), (p, q), n = self.anchor, self.pier, self.side
        return (n * (self.g * e + p), n * (self.g * f + q))


def window_inside(spec: WindowSpec) -> PointSet:
    """All points enclosed by the window: the square of side c*g**(s-2)
    whose corner combines the anchor-copy and pier offsets."""
    ox, oy = spec.corner
    n = spec.side
    return frozenset((ox + dx, oy + dy) for dx in range(n) for dy in range(n))


# the name the acceptance tests use for a window built from its spec
closed_window = window_inside


def translation(c: int, g: int, i: int, j: int, e: int, f: int, p: int, q: int) -> Point:
    """Vector carrying the corner of the stage-i window to the corner of
    the stage-j window, for the same scale, side, anchor, and pier."""
    m = enclosure_margin(c, g, i, j)
    return (m * (g * e + p), m * (g * f + q))


def enclosure_margin(c: int, g: int, i: int, j: int) -> int:
    """The slack m = c*(g**(j-2) - g**(i-2)): how far the corner-aligned
    stage-i window can shift east and north inside the stage-j window."""
    if not 2 <= i < j:
        raise ValueError(f"stages must satisfy 2 <= i < j, got i={i}, j={j}")
    return c * (g ** (j - 2) - g ** (i - 2))


def enclosure_bound_ok(c: int, g: int, i: int, j: int, x: int, y: int) -> bool:
    """Whether an extra (x, y) shift keeps the translated stage-i window
    enclosed in the stage-j window: both components must stay within the
    margin."""
    if x < 0 or y < 0:
        raise ValueError("shift components must be nonnegative")
    m = enclosure_margin(c, g, i, j)
    return x <= m and y <= m


def encloses(outer: PointSet, inner: PointSet) -> bool:
    """Whether the inner window's inside lies within the outer's."""
    return inner <= outer


def boundary_contacts(
    inside: PointSet, shape: Iterable[Point]
) -> dict[Direction, list[tuple[Point, Point]]]:
    """Edges of the shape crossing the window, grouped by the direction of
    the crossing as seen from the inside point.

    Each entry (p, q) has p inside the window, q outside, both in the
    shape; lists are sorted by p for reproducibility.
    """
    shape_set = frozenset(shape)
    out: dict[Direction, list[tuple[Point, Point]]] = {d: [] for d in DIRECTIONS}
    for p in sorted(inside & shape_set):
        for d, q in zip(DIRECTIONS, neighbors(p)):
            if q not in inside and q in shape_set:
                out[d].append((p, q))
    return out


def free_sides(inside: PointSet, shape: Iterable[Point]) -> tuple[Direction, ...]:
    """Directions along which the window cuts no edge of the shape."""
    contacts = boundary_contacts(inside, shape)
    return tuple(d for d in DIRECTIONS if not contacts[d])
