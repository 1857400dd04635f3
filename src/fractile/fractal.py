"""Discrete self-similar fractals from square generators.

A generator is a pattern of occupied cells inside the g-by-g square that
contains the origin and meets every row and column.  Substituting the
pattern into itself yields the finite stages of a fractal; the infinite
union of stages is a tree fractal exactly when the generator's grid graph
is a tree and the pattern has one horizontal and one vertical bridge.

This module also owns the ``.gen`` grid syntax, which it reads and writes,
locates piers (cells free on exactly three sides), classifies them against
the bridges, and picks the pier/anchor pair that the window machinery in
:mod:`fractile.windows` is built around.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional

from .grid import (
    DIRECTIONS,
    Direction,
    Point,
    PointSet,
    connected_components,
    extents,
    free_directions,
    is_tree,
    neighbors,
    row_major,
)

TAXONOMY_REAL = "real"
TAXONOMY_PARALLEL = "parallel-single-bridge"
TAXONOMY_ORTHOGONAL = "orthogonal-single-bridge"
TAXONOMY_DOUBLE = "double-bridge"


class Generator(NamedTuple("Generator", [("g", int), ("cells", PointSet)])):
    """Occupied cells of a side-g square pattern.

    Invariants, enforced at construction (``_replace`` skips them): g >= 2,
    the origin is occupied, cells stay inside the g-by-g square, and every
    row and every column of the square holds at least one cell.
    """

    __slots__ = ()

    def __new__(cls, g: int, cells: Iterable[Point]) -> "Generator":
        if g < 2:
            raise ValueError(f"side must be at least 2, got {g}")
        cells = frozenset(cells)
        for (x, y) in cells:
            if not (0 <= x < g and 0 <= y < g):
                raise ValueError(f"cell outside {g}x{g} square: {(x, y)}")
        if (0, 0) not in cells:
            raise ValueError("origin not occupied")
        rows = {y for _, y in cells}
        cols = {x for x, _ in cells}
        for k in range(g):
            if k not in rows:
                raise ValueError(f"row {k} empty")
            if k not in cols:
                raise ValueError(f"column {k} empty")
        return super().__new__(cls, g, cells)


class Bridge(NamedTuple):
    """A pair of cells on opposite extremes of the same row or column.

    ``kind`` is "horizontal" (leftmost and rightmost cell of row ``index``)
    or "vertical" (bottom and top cell of column ``index``).  ``connected``
    records whether a path inside the point set joins the two endpoints.
    """

    kind: str
    index: int
    endpoints: tuple[Point, Point]
    connected: bool


class Pier(NamedTuple):
    """A cell free on exactly three sides, pointing away from its support."""

    position: Point
    pointing: Direction
    taxonomy: str


class PierAnchor(NamedTuple):
    """A pier together with the stage-copy anchor its windows are built at.

    ``pier`` is the (p, q) cell inside the generator, ``anchor`` the (e, f)
    cell selecting which copy of the previous stage the windows live in,
    ``glue_side`` the single window side that carries bonds, and
    ``bridge_offset`` the bridge coordinate (row of the horizontal bridge
    for E/W glue sides, column of the vertical bridge for N/S) used to
    align windows of different stages.
    """

    pier: Point
    pointing: Direction
    anchor: Point
    glue_side: Direction
    bridge_offset: int


# ---------------------------------------------------------------------------
# .gen format


def parse_generator(text: str) -> Generator:
    """Parse the .gen format: a ``g=<int>`` header, then g rows of g cells,
    ``#`` occupied and ``.`` empty, top row first."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith("g="):
        raise ValueError("line 1: first line must be g=<int>")
    try:
        g = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"line 1: bad side in header: {lines[0]!r}") from None
    if g < 2:
        raise ValueError(f"line 1: side must be at least 2, got {g}")
    grid_lines = lines[1:]
    if len(grid_lines) != g:
        # name the first missing or surplus line
        lineno = min(len(grid_lines), g) + 2
        raise ValueError(f"line {lineno}: expected {g} grid lines, got {len(grid_lines)}")
    cells = set()
    for i, line in enumerate(grid_lines):
        if len(line) != g:
            raise ValueError(f"line {i + 2}: expected {g} cells, got {len(line)}")
        y = g - 1 - i
        for x, ch in enumerate(line):
            if ch == "#":
                cells.add((x, y))
            elif ch != ".":
                raise ValueError(f"line {i + 2}: bad cell {ch!r}")
    return Generator(g, frozenset(cells))


def format_grid(points: Iterable[Point], side: int) -> str:
    """Render a point set in the generator grid syntax at the given side."""
    pts = set(points)
    rows = [f"g={side}"]
    for y in range(side - 1, -1, -1):
        rows.append("".join("#" if (x, y) in pts else "." for x in range(side)))
    return "\n".join(rows) + "\n"


def format_generator(gen: Generator) -> str:
    """Inverse of :func:`parse_generator`; round-trips bit-exactly."""
    return format_grid(gen.cells, gen.g)


# ---------------------------------------------------------------------------
# Stages and scaling


def stage(gen: Generator, i: int) -> PointSet:
    """The i-th finite stage: stage 1 is the generator itself, and each
    later stage translates the previous one to every occupied cell of the
    pattern, scaled up by a factor of g per level."""
    if i < 1:
        raise ValueError(f"stage index must be >= 1, got {i}")
    pts = set(gen.cells)
    block = 1
    for _ in range(i - 1):
        block *= gen.g
        pts = {(x + block * nx, y + block * ny) for (nx, ny) in gen.cells for (x, y) in pts}
    return frozenset(pts)


def scale(points: Iterable[Point], c: int) -> PointSet:
    """Replace every point by a c-by-c block of points."""
    if c < 1:
        raise ValueError(f"scale factor must be >= 1, got {c}")
    out = set()
    for (x, y) in points:
        for dx in range(c):
            for dy in range(c):
                out.add((c * x + dx, c * y + dy))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Bridges and piers


def _bridge_ends(pts: set | frozenset) -> list[tuple[str, int, tuple[Point, Point]]]:
    """(kind, index, endpoints) of every bridge, in :func:`bridges` order."""
    left, right, bottom, top = extents(pts)
    ends = [
        ("horizontal", y, ((left, y), (right, y)))
        for y in range(bottom, top + 1)
        if (left, y) in pts and (right, y) in pts
    ]
    return ends + [
        ("vertical", x, ((x, bottom), (x, top)))
        for x in range(left, right + 1)
        if (x, bottom) in pts and (x, top) in pts
    ]


def bridges(points: Iterable[Point]) -> list[Bridge]:
    """All horizontal and vertical bridges of a nonempty point set.

    A horizontal bridge at row y is the pair of cells in the leftmost and
    rightmost columns of the whole set, both occupied at that row; vertical
    bridges are the transpose.  Horizontal bridges come first, by row, then
    vertical ones by column.
    """
    pts = set(points)
    comp_of = {p: idx for idx, comp in enumerate(connected_components(pts)) for p in comp}
    return [
        Bridge(kind, i, (a, b), comp_of[a] == comp_of[b]) for kind, i, (a, b) in _bridge_ends(pts)
    ]


def bridge_counts(points: Iterable[Point]) -> tuple[int, int]:
    """(number of horizontal bridges, number of vertical bridges), counted
    without the connectivity that :func:`bridges` reports."""
    ends = _bridge_ends(set(points))
    nh = sum(kind == "horizontal" for kind, _, _ in ends)
    return nh, len(ends) - nh


def is_tree_fractal_generator(gen: Generator) -> tuple[bool, str]:
    """Check the tree-fractal characterization, reporting the first failing
    clause: the pattern must be a tree and must have exactly one bridge of
    each kind."""
    if not is_tree(gen.cells):
        return False, "not a tree"
    nh, nv = bridge_counts(gen.cells)
    if nh != 1:
        return False, f"{nh} horizontal bridges (need exactly 1)"
    if nv != 1:
        return False, f"{nv} vertical bridges (need exactly 1)"
    return True, "tree-fractal generator"


def piers(gen: Generator) -> list[Pier]:
    """Piers of the generator, in row-major order (bottom row first).

    A pier is a cell with exactly three free sides; it points in the
    direction whose inverse leads to its single occupied neighbor.  The
    taxonomy records how the pier sits on the pattern's bridges.
    """
    ends = _bridge_ends(gen.cells)
    out = []
    for p in row_major(gen.cells):
        free = free_directions(gen.cells, p)
        if len(free) != 3:
            continue
        (occupied,) = (d for d in DIRECTIONS if d not in free)
        pointing = occupied.inverse()
        mine = [kind for kind, _, pair in ends if p in pair]
        if not mine:
            tax = TAXONOMY_REAL
        elif len(mine) == 2:
            tax = TAXONOMY_DOUBLE
        else:
            horizontal = mine[0] == "horizontal"
            along = pointing in (Direction.E, Direction.W)
            tax = TAXONOMY_PARALLEL if horizontal == along else TAXONOMY_ORTHOGONAL
        out.append(Pier(p, pointing, tax))
    return out


# ---------------------------------------------------------------------------
# Free points

# The free_point_* constructions all exploit the same fact: a maximal
# connected component has no neighbors in the rest of the set, so the
# nearest point of the set on the far side of a component cell is separated
# from it by at least one empty cell and is therefore free toward the
# component.  Scan orders are fixed so the returned point is reproducible,
# and the full output contract is re-checked before returning rather than
# trusted.


def _check_free_point(comp: PointSet, p: Point, conditions: dict[str, bool]) -> Point:
    conditions = {"point outside the component": p not in comp, **conditions}
    for what, ok in conditions.items():
        if not ok:
            raise RuntimeError(f"constructed point {p} violates its contract: {what}")
    return p


def _component_of(points: PointSet, component: Iterable[Point]) -> PointSet:
    comp = frozenset(component)
    for c in connected_components(points):
        if c == comp:
            return c
    raise ValueError("C is not a connected component of G")


def _connected_bridge(points: PointSet, kind: str) -> Bridge:
    for b in bridges(points):
        if b.kind == kind and b.connected:
            return b
    raise ValueError(f"no connected {kind} bridge")


# Words for free_point_north's frame and for its transpose, free_point_east:
# the free side, the far edge the component reaches, the near edge it
# avoids, the bridge kind needed and where the point lies from the component.
_FRAME_WORDS = {
    Direction.N: ("north", "top row", "leftmost column", "horizontal", "below"),
    Direction.E: ("east", "rightmost column", "bottom row", "vertical", "west of"),
}


def _free_point_toward(
    points: Iterable[Point], component: Iterable[Point], up: Direction
) -> Point:
    """:func:`free_point_north` when ``up`` is N; with x and y swapped,
    :func:`free_point_east` when it is E."""
    side, far_edge, near_edge, kind, beyond = _FRAME_WORDS[up]
    u, v = (1, 0) if up is Direction.N else (0, 1)  # along up, across it
    pts = frozenset(points)
    comp = _component_of(pts, component)
    ext = extents(pts)
    far, near = (ext.top, ext.left) if up is Direction.N else (ext.right, ext.bottom)
    if all(p[u] != far for p in comp):
        raise ValueError(f"component does not reach the {far_edge}")
    if any(p[v] == near for p in comp):
        raise ValueError(f"component touches the {near_edge}")
    _connected_bridge(pts, kind)
    floors: dict[int, int] = {}
    for p in comp:
        floors[p[v]] = min(p[u], floors.get(p[v], p[u]))
    for line, floor in sorted(floors.items(), key=lambda kv: (kv[1], kv[0])):
        under = [q for q in pts if q[v] == line and q[u] < floor]
        if under:
            point = max(under, key=lambda q: q[u])
            break
    else:
        raise RuntimeError(f"no point of the set lies {beyond} the component")
    conditions = {
        f"{side} side free": up(point) not in pts,
        f"{beyond} the {far_edge}": point[u] < far,
    }
    return _check_free_point(comp, point, conditions)


def free_point_north(points: Iterable[Point], component: Iterable[Point]) -> Point:
    """A north-free point outside ``component``, strictly below the top row.

    Requires a connected horizontal bridge and a component that reaches the
    top row while avoiding the leftmost column.  Scanning the component's
    columns (bottommost first), the topmost point of the set strictly below
    the component is north-free: the component is a maximal connected
    piece, so the cell separating the two would otherwise belong to it.
    """
    return _free_point_toward(points, component, Direction.N)


def free_point_northeast(points: Iterable[Point], component: Iterable[Point]) -> Point:
    """An east-free point of the top row, outside ``component`` and west of
    the rightmost column.

    Requires a connected vertical bridge and a component that touches the
    rightmost column and the top row but not the bottom row.  Returns the
    rightmost top-row cell of the bridge path.
    """
    pts = frozenset(points)
    comp = _component_of(pts, component)
    ext = extents(pts)
    if all(x != ext.right for x, _ in comp):
        raise ValueError("component does not reach the rightmost column")
    if all(y != ext.top for _, y in comp):
        raise ValueError("component does not reach the top row")
    if any(y == ext.bottom for _, y in comp):
        raise ValueError("component touches the bottom row")
    _connected_bridge(pts, "vertical")
    point = None
    for cx in sorted(x for x, y in comp if y == ext.top):
        row_west = [q for q in pts if q[1] == ext.top and q[0] < cx]
        if not row_west:
            continue
        candidate = max(row_west, key=lambda q: q[0])
        if candidate not in comp:
            point = candidate
            break
    if point is None:
        raise RuntimeError("no point of the set lies west of the component's top row")
    return _check_free_point(
        comp,
        point,
        {
            "east side free": Direction.E(point) not in pts,
            "in the top row": point[1] == ext.top,
            "west of the rightmost column": point[0] < ext.right,
        },
    )


def free_point_east(points: Iterable[Point], component: Iterable[Point]) -> Point:
    """An east-free point outside ``component``, strictly west of it.

    Requires a connected vertical bridge and a component that touches the
    rightmost column but not the bottom row.  The transpose of
    :func:`free_point_north`: scanning the component's rows (leftmost
    first), the rightmost point of the set strictly west of the component
    is east-free by the same maximality argument.
    """
    return _free_point_toward(points, component, Direction.E)


# ---------------------------------------------------------------------------
# Pier/anchor selection

_PREFERENCE = (TAXONOMY_REAL, TAXONOMY_PARALLEL, TAXONOMY_ORTHOGONAL)


def _along(d: Direction, g: int, p: Point) -> int:
    """p's coordinate along d in the g-by-g square, counted from 0 on the
    side d points away from."""
    dx, dy = d.unit
    return dx * p[0] + dy * p[1] + (g - 1 if dx + dy < 0 else 0)


def select_pier_anchor(gen: Generator, pier: Optional[Point] = None) -> PierAnchor:
    """Pick a pier and the anchor copy its windows are carved from.

    Among the generator's piers, real ones are preferred, then parallel
    single-bridge, then orthogonal single-bridge; double-bridge piers are
    never selected.  Ties go to the smallest (x, y) position.  Passing
    ``pier`` forces a specific pier instead.  A tree-fractal generator has
    at least two piers and at most one double-bridge pier, so the default
    choice always exists (checked over sides 2-5).

    A real pier is its own anchor.  A single-bridge pier lies on the far
    edge of the square along a direction ``up``: its pointing direction if
    it is parallel, otherwise the perpendicular direction whose far edge
    holds it.  Its anchor is the cell of greatest coordinate along ``up``,
    below g-1, on one line parallel to ``up``.  For a parallel pier that
    line is lateral coordinate k-1 (line 1 when k = 0), where k is the
    pier's x for N/S piers and its y for E/W piers.  For an orthogonal pier
    it is the pier's own line, coordinate k along its pointing direction
    (line 0 when k = g-1).

    The window wraps the pier's copy-of-a-copy block, so it touches the
    rest of the shape only through the side facing the pier's support; that
    side becomes ``glue_side`` and must carry a single line of glues, which
    is verified here on the second stage before returning.
    """
    ok, diagnosis = is_tree_fractal_generator(gen)
    if not ok:
        raise ValueError(f"not a tree-fractal generator: {diagnosis}")
    candidates = piers(gen)
    if pier is not None:
        chosen = next((pr for pr in candidates if pr.position == pier), None)
        if chosen is None:
            raise ValueError(f"{pier} is not a pier of the generator")
        if chosen.taxonomy == TAXONOMY_DOUBLE:
            raise ValueError("double-bridge piers cannot anchor windows")
    else:
        chosen = min(
            (pr for pr in candidates if pr.taxonomy in _PREFERENCE),
            key=lambda pr: (_PREFERENCE.index(pr.taxonomy), pr.position),
            default=None,
        )
        if chosen is None:
            raise RuntimeError("tree-fractal generator has no usable pier")

    g, anchor = gen.g, chosen.position
    if chosen.taxonomy != TAXONOMY_REAL:
        if chosen.taxonomy == TAXONOMY_PARALLEL:
            up = chosen.pointing
            across = Direction.E if up in (Direction.N, Direction.S) else Direction.N
            k = _along(across, g, anchor)
            line = k - 1 if k else 1
        else:
            across = chosen.pointing
            up = next(
                d
                for d in DIRECTIONS
                if d not in (across, across.inverse()) and _along(d, g, anchor) == g - 1
            )
            k = _along(across, g, anchor)
            line = 0 if k == g - 1 else k
        on_line = [
            c for c in gen.cells if _along(across, g, c) == line and _along(up, g, c) < g - 1
        ]
        if not on_line:
            raise RuntimeError(f"no anchor cell on line {line} along {up.name}")
        anchor = max(on_line, key=lambda c: _along(up, g, c))

    glue_side = chosen.pointing.inverse()
    kind = "horizontal" if glue_side in (Direction.E, Direction.W) else "vertical"
    offset = next(index for k, index, _ in _bridge_ends(gen.cells) if k == kind)
    result = PierAnchor(chosen.position, chosen.pointing, anchor, glue_side, offset)
    _check_anchor_window(gen, result)
    return result


def _check_anchor_window(gen: Generator, anchor: PierAnchor) -> None:
    # Cheap sanity pass on the second stage at scale 1: the window around
    # the pier block must be free on three sides and bonded on glue_side by
    # exactly one adjacent pair.
    from .windows import WindowSpec, boundary_contacts, window_inside

    shape = stage(gen, 2)
    spec = WindowSpec(1, 2, gen.g, anchor.anchor, anchor.pier)
    contacts = boundary_contacts(window_inside(spec), shape)
    bad = [d for d in DIRECTIONS if d != anchor.glue_side and contacts[d]]
    if bad or len(contacts[anchor.glue_side]) != 1:
        where = f"pier {anchor.pier}, anchor {anchor.anchor}, glue side {anchor.glue_side.name}"
        raise RuntimeError(f"window at {where} is not three-sided on stage 2")


# ---------------------------------------------------------------------------
# Stage-level checks and the census


def stage_property(gen: Generator, s: int) -> bool:
    """True when stage s is a tree with exactly one bridge of each kind."""
    pts = stage(gen, s)
    if not is_tree(pts):
        return False
    return bridge_counts(pts) == (1, 1)


class CensusStats(NamedTuple):
    """Counts from enumerating every generator of a given side."""

    g: int
    candidates: int
    valid: int
    tree_fractal: int
    taxonomy: dict[str, int]
    tree_fractal_generators: tuple[Generator, ...]


def _origin_trees(g: int) -> Iterator[PointSet]:
    """Every induced subtree of the g-by-g grid that contains the origin,
    each once: a cell joins only beside exactly one placed cell, and a cell
    once tried is banned for the rest of its branch."""
    tree = {(0, 0)}
    seen = {(0, 0), (1, 0), (0, 1)}

    def grow(untried: list[Point]) -> Iterator[PointSet]:
        yield frozenset(tree)
        while untried:
            cell = untried.pop()
            if sum(n in tree for n in neighbors(cell)) != 1:
                continue
            fresh = [n for n in neighbors(cell) if n not in seen and 0 <= min(n) and max(n) < g]
            tree.add(cell)
            seen.update(fresh)
            yield from grow(untried + fresh)
            tree.remove(cell)
            seen.difference_update(fresh)

    return grow([(1, 0), (0, 1)])


def census(g: int, allow_large: bool = False) -> CensusStats:
    """Count the patterns of side g that contain the origin.

    ``valid`` counts those that meet every row and column, by
    inclusion-exclusion over the rows and columns left empty, because
    listing them would mean visiting every mask.  A tree-fractal generator
    is a tree, so only trees are built, and each needs only its bridge
    counts checked.  They come from
    Redelmeier's polyomino enumeration (D. H. Redelmeier, "Counting
    polyominoes: yet another attack", Discrete Math. 36, 1981) restricted
    to trees, and are reported in ascending mask order, bit k being the
    k-th cell in row-major order.

    Side 4 means 2**15 candidates and is gated behind ``allow_large``;
    larger sides are refused outright.
    """
    if g < 2:
        raise ValueError(f"side must be at least 2, got {g}")
    if g == 4 and not allow_large:
        raise ValueError("side 4 has 32768 candidates; pass allow_large=True or --allow-large")
    if g > 4:
        raise ValueError(f"census supports sides up to 4, got {g}")

    valid = sum(
        (-1) ** (i + j) * comb(g - 1, i) * comb(g - 1, j) * 2 ** ((g - i) * (g - j) - 1)
        for i in range(g)
        for j in range(g)
    )
    tree_fractal = []
    for cells in _origin_trees(g):
        try:
            gen = Generator(g, cells)
        except ValueError:
            continue
        if bridge_counts(gen.cells) == (1, 1):
            tree_fractal.append(gen)
    tree_fractal.sort(key=lambda gen: sum(1 << (y * g + x) for (x, y) in gen.cells))
    taxonomy = Counter(pr.taxonomy for gen in tree_fractal for pr in piers(gen))
    return CensusStats(
        g=g,
        candidates=1 << (g * g - 1),
        valid=valid,
        tree_fractal=len(tree_fractal),
        taxonomy=dict(taxonomy),
        tree_fractal_generators=tuple(tree_fractal),
    )


def random_valid_generator(g: int, rng: random.Random) -> Generator:
    """Rejection-sample a valid generator of side g."""
    cells_all = [(x, y) for y in range(g) for x in range(g) if (x, y) != (0, 0)]
    while True:
        cells = {(0, 0)}
        cells.update(p for p in cells_all if rng.random() < 0.5)
        try:
            return Generator(g, frozenset(cells))
        except ValueError:
            continue
