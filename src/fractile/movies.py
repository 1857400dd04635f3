"""Window movies: what an assembly sequence shows along a window's cut.

A movie records, in placement order, every positive-strength glue a tile
presents across the window boundary.  The bond-forming submovie, a
``WindowMovie`` too, keeps only the glues that end up in actual bonds.
When one sequence shows the same bond-forming submovie along two
windows, one a translate of the other's surroundings, the window
interiors are interchangeable: `splice` rebuilds the sequence with the
smaller window's interior transplanted into the larger window, and the
result still assembles.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .grid import Direction, Point, PointSet, neighbors, translate
from .stability import _sides
from .tiles import (
    Assembly,
    AssemblySequence,
    Glue,
    ReplayError,
    SequenceEvent,
    TileType,
    glues_bind,
    replay,
)


class GlueEvent(NamedTuple):
    """One glue presented across the cut: ``vertex`` is the cell of the
    tile doing the presenting, ``orientation`` the side it presents on."""

    step: int
    vertex: Point
    orientation: Direction
    glue: Glue


class WindowMovie(NamedTuple):
    """Glue events a sequence presents along one window, in order: every
    event of a recorded movie, or those of its bond-forming submovie."""

    events: tuple[GlueEvent, ...]

    def canonical(self) -> tuple:
        """Translation- and step-invariant key: two movies are translates
        of each other iff their keys are equal."""
        if not self.events:
            return ()
        bx, by = self.events[0].vertex
        return tuple(
            (e.vertex[0] - bx, e.vertex[1] - by, e.orientation, e.glue.label, e.glue.strength)
            for e in self.events
        )


# the orientations by unit vector
_CUT_ORDER = (Direction.W, Direction.S, Direction.N, Direction.E)


def record_movie(seq: AssemblySequence, inside: PointSet) -> WindowMovie:
    """Record the glue events ``seq`` presents along the cut around the
    window ``inside``.

    Tiles already present at the start contribute events at step 0,
    ordered by cell (row-major) — their glues face the cut from the
    beginning.  A placement that crosses the cut on several sides emits
    one event per side, in W, S, N, E order.
    """
    inside = frozenset(inside)
    events: list[GlueEvent] = []
    start = ((0, pos, tile) for pos, tile in seq.initial.items())
    for step, pos, tile in chain(start, seq.events):
        here = pos in inside
        cells, glues = neighbors(pos), _sides(tile)
        for d in _CUT_ORDER:
            if glues[d].strength > 0 and (cells[d] in inside) != here:
                events.append(GlueEvent(step, pos, d, glues[d]))
    return WindowMovie(tuple(events))


def bond_forming(movie: WindowMovie, result: Assembly) -> WindowMovie:
    """Filter a movie down to the events whose glues actually bond in
    ``result``.  Bonding is temperature-independent: any positive matched
    strength is a bond.
    """
    kept = []
    for e in movie.events:
        d, p = e.orientation, e.vertex
        q = neighbors(p)[d]
        if p in result and q in result:
            if glues_bind(_sides(result[p])[d], _sides(result[q])[d ^ 2]) > 0:
                kept.append(e)
    return WindowMovie(tuple(kept))


def submovie_matches(a: WindowMovie, b: WindowMovie, vec: Point) -> bool:
    """Whether shifting every event of ``a`` by ``vec`` reproduces ``b``:
    same vertices, orientations, and glues, in the same order.  Absolute
    step numbers are ignored; only the order carries information."""
    if a.canonical() != b.canonical():
        return False
    if not a.events:  # empty matches empty
        return True
    (x, y), (dx, dy) = a.events[0].vertex, vec
    return (x + dx, y + dy) == b.events[0].vertex


def format_movie(movie) -> str:
    """One line per event: ``step x y orientation label strength``."""
    lines = [
        f"{e.step} {e.vertex[0]} {e.vertex[1]} {e.orientation.name}"
        f" {e.glue.label} {e.glue.strength}"
        for e in movie.events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def seed_side(start: PointSet, inside: PointSet) -> str:
    """Where the starting cells ``start`` lie relative to the window
    ``inside``: "inside", "outside" or "straddle"."""
    hit = start & inside
    if not hit:
        return "outside"
    return "inside" if hit == start else "straddle"


class SpliceError(ValueError):
    """A splice hypothesis does not hold for the given inputs."""


def splice(
    seq: AssemblySequence, w: PointSet, w_prime: PointSet, c_vec: Point
) -> AssemblySequence:
    """Transplant ``w``'s interior into ``w_prime`` along a matching movie.

    Requires a nonzero shift ``c_vec`` under which (1) ``w`` shifted is
    enclosed in ``w_prime``, (2) the sequence's bond-forming submovies
    along the two windows coincide, and (3) the starting assembly sits
    inside both windows or outside both.  The rebuilt sequence interleaves
    the placements outside ``w_prime`` with the shifted placements from
    inside ``w``, keyed on the shared submovie so every attachment still
    has its strength when it happens; its result is exactly (outside
    ``w_prime``) ∪ (inside ``w``, shifted).

    Hypothesis violations raise :class:`SpliceError` naming the failed
    hypothesis.  A replay failure after the hypotheses pass is a bug, not
    an input error, and raises RuntimeError.
    """
    inside_small = frozenset(w)
    inside_big = frozenset(w_prime)
    system = seq.system
    result = seq.result
    dx, dy = c_vec

    if (dx, dy) == (0, 0):
        raise SpliceError("translation hypothesis failed: the shift vector must be nonzero")
    if not translate(inside_small, c_vec) <= inside_big:
        raise SpliceError(
            "enclosure hypothesis failed: the shifted window is not enclosed"
            " in the target window"
        )
    start = seq.initial
    side = seed_side(start.domain, inside_small)
    if side == "straddle" or side != seed_side(start.domain, inside_big):
        raise SpliceError(
            "seed placement hypothesis failed: the seed must lie inside both"
            " windows or outside both"
        )
    small_sub = bond_forming(record_movie(seq, inside_small), result)
    big_sub = bond_forming(record_movie(seq, inside_big), result)
    if not submovie_matches(small_sub, big_sub, c_vec):
        raise SpliceError(
            "movie hypothesis failed: the bond-forming submovies do not match"
            " under the shift"
        )

    outer = ((ev.position, ev.tile) for ev in seq.events if ev.position not in inside_big)
    inner = (
        ((ev.position[0] + dx, ev.position[1] + dy), ev.tile)
        for ev in seq.events
        if ev.position in inside_small
    )

    gamma0 = start.translate(c_vec) if side == "inside" else start
    placed: dict[Point, TileType] = dict(gamma0)
    rebuilt: list[tuple[Point, TileType]] = []

    def append(pos: Point, tile: TileType) -> None:
        if pos in placed:
            raise RuntimeError(f"splice invariant broken: duplicate placement at {pos}")
        placed[pos] = tile
        rebuilt.append((pos, tile))

    def pull(placements, name: str, v: Point) -> None:
        while v not in placed:
            nxt = next(placements, None)
            if nxt is None:
                raise RuntimeError(f"splice invariant broken: no {name} placement at {v}")
            append(*nxt)

    # Walk the target-window submovie; each event forces the placements
    # that produce it, pulled from whichever side of the cut it lives on.
    for ev in big_sub.events:
        v = ev.vertex
        if v not in inside_big:
            pull(outer, "outer", v)
        elif v not in placed:
            # v is in w' and d(v) is not, d being the event's side.  Its
            # match u = v - c is in w: were it outside, d(u) would be in w,
            # so d(v) = d(u) + c would be in w + c, which lies in w'.
            pull(inner, "inner", v)

    for pos, tile in chain(inner, outer):
        append(pos, tile)

    expected = {p: result[p] for p in result if p not in inside_big}
    for p in result:
        if p in inside_small:
            expected[(p[0] + dx, p[1] + dy)] = result[p]
    if placed != expected:
        raise RuntimeError("splice invariant broken: result is not the outer/inner union")

    events = tuple(
        SequenceEvent(k, pos, tile) for k, (pos, tile) in enumerate(rebuilt, 1)
    )
    try:
        final = replay(system, events, start=gamma0)
    except ReplayError as exc:
        raise RuntimeError(f"spliced sequence does not replay: {exc}") from exc
    start_field = None if gamma0 == system.seed else gamma0
    return AssemblySequence(system, events, final, start=start_field)
