"""Tile systems and assembly semantics on the square lattice.

Square tiles carry a labeled, strength-weighted glue on each side.  Two
abutting glues bond only when label and strength both agree and the
strength is positive.  An assembly is stable at temperature tau when no
cut of its bond graph is lighter than tau, and a tile may attach to a
stable assembly exactly when its new bonds alone reach tau.

Growth is nondeterministic in the model; here it is driven by explicit
selection policies so every run is replayable bit for bit.  Bounded
regions stand in for the infinite plane: attachment sites outside the
region are reported at the end of a run, never silently dropped.

One growth engine serves runs, frontier queries and the strict check.  It
keeps the frontier incrementally: every empty site next to the assembly
keeps, per tile type, the total strength its placed neighbours' glues
offer that type.  A placement adds its outward glues to the totals of its
empty neighbours.  Glues are positive, so totals only grow, and a site
re-derives which tile types reach the temperature only when one of its
totals crosses it.  Bisection keeps the frontier sorted by row, column and
tile name, so no step re-sorts it.  A run's result keeps its final
frontier and answers its own frontier queries with it.

Records are named tuples.  Those that check their input (``Glue``,
``TileType``, ``Box``, ``TileSystem``) do so in ``__new__``, which the
inherited ``_replace`` and ``_make`` skip, so the package never calls them.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Mapping
from typing import Container, Iterable, Iterator, NamedTuple, Optional, Sequence

from .grid import Direction, Point, PointSet, is_connected, neighbors
from .stability import _sides, glues_bind, is_tau_stable

DEFAULT_MAX_STEPS = 100_000

VERDICT_VIOLATION = "VIOLATION"
VERDICT_INCOMPLETE_OK = "INCOMPLETE-OK"


class Glue(NamedTuple("Glue", [("label", str), ("strength", int)])):
    """A side label with a nonnegative binding strength.

    The null glue is written ``-`` in files and never binds; the ``-``
    label is reserved for it.
    """

    __slots__ = ()

    def __new__(cls, label: str, strength: int) -> "Glue":
        if label.split() != [label] or "=" in label:
            raise ValueError(f"bad glue label: {label!r}")
        if strength < 0:
            raise ValueError(f"glue strength must be >= 0, got {strength}")
        if label == "-" and strength != 0:
            raise ValueError("the null label '-' cannot carry positive strength")
        return super().__new__(cls, label, strength)


NULL_GLUE = Glue("-", 0)


class TileType(
    NamedTuple(
        "TileType",
        [("name", str), ("north", Glue), ("east", Glue), ("south", Glue), ("west", Glue)],
    )
):
    """An un-rotatable unit tile: a name and one glue per side."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        north: Glue = NULL_GLUE,
        east: Glue = NULL_GLUE,
        south: Glue = NULL_GLUE,
        west: Glue = NULL_GLUE,
    ) -> "TileType":
        if name.split() != [name]:
            raise ValueError(f"bad tile name: {name!r}")
        return super().__new__(cls, name, north, east, south, west)

    def glue(self, side: Direction) -> Glue:
        return _sides(self)[side]


class Assembly(Mapping):
    """A nonempty, connected placement of tile types on the lattice.

    Behaves as an immutable mapping from points to tile types; iteration
    order is row-major from the bottom-left for reproducible output.

    The results of :func:`run` and :func:`replay` skip the connectivity
    check: they grow from an assembly one attachment at a time, and every
    attachment bonds with strength at least tau >= 1 to a placed tile, so
    the domain stays connected.  Every other construction, and so every
    assembly built from outside input, is checked.
    """

    __slots__ = ("_tiles", "_frontier")

    def __init__(self, placements: Mapping[Point, TileType]):
        tiles = _row_major(placements)
        if not tiles:
            raise ValueError("assembly must be nonempty")
        if not is_connected(frozenset(tiles)):
            raise ValueError("assembly domain must be connected")
        object.__setattr__(self, "_tiles", tiles)
        object.__setattr__(self, "_frontier", None)

    @classmethod
    def _grown(cls, placements: Mapping[Point, TileType], final=None) -> "Assembly":
        """Placements grown from a checked assembly by attachments that
        each reach tau, taken without the connectivity check."""
        assembly = cls.__new__(cls)
        object.__setattr__(assembly, "_tiles", _row_major(placements))
        object.__setattr__(assembly, "_frontier", final)
        return assembly

    def __setattr__(self, name, value):
        raise AttributeError("assemblies are immutable")

    def __getitem__(self, p: Point) -> TileType:
        return self._tiles[p]

    def __iter__(self) -> Iterator[Point]:
        return iter(self._tiles)

    def __len__(self) -> int:
        return len(self._tiles)

    def __repr__(self) -> str:
        return f"Assembly({len(self._tiles)} tiles)"

    @property
    def domain(self) -> PointSet:
        return frozenset(self._tiles)

    def translate(self, vec: Point) -> "Assembly":
        dx, dy = vec
        return Assembly({(x + dx, y + dy): t for (x, y), t in self._tiles.items()})


def _row_major(placements: Mapping[Point, TileType]) -> dict[Point, TileType]:
    """The placements by row, then column.  A row's points share y, so
    they sort by x as plain tuples, with no key function."""
    rows: dict[int, list[Point]] = {}
    for p in placements:
        rows.setdefault(p[1], []).append(p)
    return {p: placements[p] for y in sorted(rows) for p in sorted(rows[y])}


class Box(NamedTuple("Box", [("x0", int), ("y0", int), ("x1", int), ("y1", int)])):
    """Inclusive axis-aligned bounding region."""

    __slots__ = ()

    def __new__(cls, x0: int, y0: int, x1: int, y1: int) -> "Box":
        if x1 < x0 or y1 < y0:
            raise ValueError(f"box corners out of order: {x0},{y0},{x1},{y1}")
        return super().__new__(cls, x0, y0, x1, y1)

    def __contains__(self, p: Point) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1

    def __str__(self) -> str:
        return f"{self.x0},{self.y0},{self.x1},{self.y1}"

    @classmethod
    def parse(cls, text: str) -> "Box":
        try:
            coords = [int(p) for p in text.split(",")]
        except ValueError:
            coords = []
        if len(coords) != 4:
            raise ValueError(f"expected x0,y0,x1,y1, got {text!r}")
        return cls(*coords)


class TileSystem(
    NamedTuple(
        "TileSystem",
        [("tiles", tuple[TileType, ...]), ("seed", Assembly), ("temperature", int)],
    )
):
    """Tile set, seed assembly, and temperature."""

    __slots__ = ()

    def __new__(cls, tiles: Iterable[TileType], seed: Assembly, temperature: int) -> "TileSystem":
        if temperature < 1:
            raise ValueError(f"temperature must be >= 1, got {temperature}")
        tiles = tuple(tiles)
        names = [t.name for t in tiles]
        if len(set(names)) != len(names):
            raise ValueError("tile names must be unique")
        known = set(tiles)
        for p, t in seed.items():
            if t not in known:
                raise ValueError(f"seed tile at {p} is not in the tile set")
        if not is_tau_stable(seed, temperature):
            raise ValueError("seed assembly is not stable at this temperature")
        return super().__new__(cls, tiles, seed, temperature)


def attachment_strength(assembly: Mapping[Point, TileType], p: Point, tile: TileType) -> int:
    """Total strength of the bonds a tile would form if placed at p."""
    total = 0
    for side, q in enumerate(neighbors(p)):
        if q in assembly:
            total += glues_bind(_sides(tile)[side], _sides(assembly[q])[side ^ 2])
    return total


# ---------------------------------------------------------------------------
# Assembly sequences


class SequenceEvent(NamedTuple):
    """One attachment: at step ``index`` the tile was placed at ``position``."""

    index: int
    position: Point
    tile: TileType


class AssemblySequence(NamedTuple):
    """An ordered construction history.

    ``start`` is the assembly the events grow from; None means the
    system's seed.  Splicing can relocate the starting assembly, which is
    why it is carried explicitly.
    """

    system: TileSystem
    events: tuple[SequenceEvent, ...]
    result: Assembly
    start: Optional[Assembly] = None

    @property
    def initial(self) -> Assembly:
        return self.start if self.start is not None else self.system.seed


class ReplayError(ValueError):
    pass


def replay(
    system: TileSystem,
    events: Iterable[SequenceEvent],
    start: Optional[Assembly] = None,
) -> Assembly:
    """Re-run a sequence of attachments, validating every step.

    This is the validity oracle for spliced sequences: each event must
    land on an empty cell and bond with at least the temperature's worth
    of strength.
    """
    tiles = dict(start if start is not None else system.seed)
    for k, ev in enumerate(events, 1):
        if ev.position in tiles:
            raise ReplayError(f"invalid at step {k}: position occupied")
        if attachment_strength(tiles, ev.position, ev.tile) < system.temperature:
            raise ReplayError(f"invalid at step {k}: insufficient strength")
        tiles[ev.position] = ev.tile
    return Assembly._grown(tiles)


class LexicographicPolicy:
    """Always take the first frontier site: lowest row, then column, then
    tile name."""

    def choose(self, sites: Sequence[tuple[Point, TileType]]) -> tuple[Point, TileType]:
        return sites[0]


class SeededUniformPolicy:
    """Uniform choice over frontier sites from a seeded PRNG."""

    def __init__(self, seed: int = 0):
        self._bits = random.Random(seed).getrandbits

    def choose(self, sites: Sequence[tuple[Point, TileType]]) -> tuple[Point, TileType]:
        # the draw randrange(n) makes, without its two Python frames
        n = len(sites)
        if not n:
            raise ValueError("empty range for randrange()")
        k, r = n.bit_length(), n
        while r >= n:
            r = self._bits(k)
        return sites[r]


# ---------------------------------------------------------------------------
# The growth engine


class _Frontier:
    """Attachment sites, kept current as tiles are placed: ``sites`` maps
    each to its tile types in name order, and ``inside`` lists those in
    the region as (position, tile) pairs sorted by row, column, tile name.
    Nothing is placed beyond the region, so ``outside`` sorts those pairs
    only when asked.

    ``_totals`` maps every empty site next to a placed tile to the
    strength each tile type would bond with there, summed over the placed
    neighbours.  Placing a tile adds its outward glues to the totals of its
    empty neighbours.  Glues are positive, so totals only grow, and a site
    is re-derived only when some total crosses the temperature.
    ``_binders`` lists, for each tile name, the offsets of the sides whose
    positive glue some tile type binds, with the glue's strength and the
    binding types' names; it is read off an index keyed by (side, glue
    label, glue strength).  Names and plain tuples are the keys because they
    hash faster than ``TileType`` and ``Glue``."""

    def __init__(
        self, system: TileSystem, tiles: dict[Point, TileType], region: Optional[Container[Point]]
    ):
        self.tiles = tiles
        self.region = region
        self.temperature = system.temperature
        self.events: list[SequenceEvent] = []
        self.sites: dict[Point, tuple[TileType, ...]] = {}
        self.inside: list[tuple[Point, TileType]] = []
        # (y, x) of each pair in inside, for bisection
        self._keys: list[tuple[int, int]] = []
        self._totals: dict[Point, dict[str, int]] = {}
        self._by_name = {t.name: t for t in system.tiles}
        index: dict[tuple[int, str, int], list[str]] = {}
        for t in system.tiles:
            for side, glue in enumerate(_sides(t)):
                if glue.strength > 0:
                    index.setdefault((side ^ 2, glue.label, glue.strength), []).append(t.name)
        offsets = neighbors((0, 0))
        self._binders = {
            t.name: tuple(
                (*offsets[side], glue.strength, index[side, glue.label, glue.strength])
                for side, glue in enumerate(_sides(t))
                if (side, glue.label, glue.strength) in index
            )
            for t in system.tiles
        }
        for p, tile in tiles.items():
            self._offer(p, tile)

    def _offer(self, p: Point, tile: TileType) -> None:
        """Add the placed tile's outward glues to its empty neighbours'
        totals, and re-derive each neighbour where one crosses tau."""
        tiles, all_totals, tau = self.tiles, self._totals, self.temperature
        x, y = p
        for dx, dy, strength, names in self._binders[tile.name]:
            q = (x + dx, y + dy)
            if q in tiles:
                continue
            totals = all_totals.get(q)
            if totals is None:
                totals = all_totals[q] = {}
            crossed = []
            for name in names:
                total = totals.get(name, 0) + strength
                totals[name] = total
                if total - strength < tau <= total:
                    crossed.append(name)
            if not crossed:
                continue
            old = self.sites.get(q, ())
            if old:
                crossed += [t.name for t in old]
            if self.region is not None and q not in self.region:
                crossed.sort()
                self.sites[q] = tuple(self._by_name[name] for name in crossed)
                continue
            # q's pairs share (y, x), so they form one run in inside
            inside, keys, key = self.inside, self._keys, (q[1], q[0])
            at = bisect_left(keys, key)
            if len(crossed) == 1:
                # the usual case: q becomes a site with one tile type
                t = self._by_name[crossed[0]]
                self.sites[q] = (t,)
                inside.insert(at, (q, t))
                keys.insert(at, key)
            else:
                crossed.sort()
                attachable = self.sites[q] = tuple(self._by_name[name] for name in crossed)
                inside[at : at + len(old)] = [(q, t) for t in attachable]
                keys[at : at + len(old)] = [key] * len(attachable)

    @property
    def outside(self) -> list[tuple[Point, TileType]]:
        if self.region is None:
            return []
        beyond = sorted((y, x) for x, y in self.sites if (x, y) not in self.region)
        return [((x, y), t) for y, x in beyond for t in self.sites[x, y]]


def _grow(
    system: TileSystem, region: Optional[Container[Point]], policy, max_steps: int
) -> Iterator[_Frontier]:
    """Yield the state before each step and once after the last."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    tiles = dict(system.seed)
    if region is not None and any(p not in region for p in tiles):
        raise ValueError("seed outside region")
    if policy is None:
        policy = LexicographicPolicy()
    state = _Frontier(system, tiles, region)
    events, sites, inside, keys = state.events, state.sites, state.inside, state._keys
    totals, offer = state._totals, state._offer
    choose, record, new = policy.choose, events.append, tuple.__new__
    yield state
    while inside and len(events) < max_steps:
        p, tile = choose(inside)
        tiles[p] = tile
        # tuple.__new__ skips the named tuple's Python-level __new__
        record(new(SequenceEvent, (len(events) + 1, p, tile)))
        del totals[p]
        at = bisect_left(keys, (p[1], p[0]))
        end = at + len(sites.pop(p))
        del inside[at:end], keys[at:end]
        offer(p, tile)
        yield state


def _sites(system: TileSystem, assembly: Mapping[Point, TileType], region) -> tuple[tuple, tuple]:
    """Sites in and beyond the region: the run's own if this is its result, system and region."""
    kept = getattr(assembly, "_frontier", None)
    if kept is not None and kept[0] is system and kept[1] is region:
        return kept[2], kept[3]
    state = _Frontier(system, dict(assembly), region)
    return tuple(state.inside), tuple(state.outside)


def frontier(
    system: TileSystem,
    assembly: Mapping[Point, TileType],
    region: Optional[Container[Point]] = None,
) -> tuple[tuple[Point, TileType], ...]:
    """Every (position, tile) pair that could stably attach right now.

    Since one new tile's bonds must alone reach the temperature, adding any
    frontier pair to a stable assembly keeps it stable.  Sites are sorted
    by row, column, then tile name, the order the growth engine keeps.
    On a run's own result, with its system and region, the run answers.
    """
    return _sites(system, assembly, region)[0]


def clipped_frontier(
    system: TileSystem,
    assembly: Mapping[Point, TileType],
    region: Container[Point],
) -> tuple[tuple[Point, TileType], ...]:
    """Attachment sites that exist beyond the region boundary.

    A bounded run stops at the region's edge; this reports what it was
    forced to leave out, so boundary clipping is visible instead of
    silent.  On a run's own result, with its system and region, the run answers.
    """
    return _sites(system, assembly, region)[1]


def run(
    system: TileSystem,
    region: Optional[Container[Point]] = None,
    policy=None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> AssemblySequence:
    """Grow the seed one tile at a time until nothing attaches in the
    region or the step budget runs out.

    The policy picks from the frontier, which is kept sorted by row,
    column and tile name as tiles attach, so runs are reproducible:
    the same system, region, policy, and budget give identical sequences.
    Use :func:`clipped_frontier` on the result to see what the region
    boundary cut off; on the result, with this system and a region that is
    None or a ``Box``, that and :func:`frontier` cost nothing.
    """
    for state in _grow(system, region, policy, max_steps):
        pass
    final = None
    if region is None or isinstance(region, Box):
        final = (system, region, tuple(state.inside), tuple(state.outside))
    return AssemblySequence(system, tuple(state.events), Assembly._grown(state.tiles, final))


# ---------------------------------------------------------------------------
# Bounded strict self-assembly checking


class StrictCheck(NamedTuple):
    """Outcome of a bounded strict self-assembly check.

    VIOLATION carries a witness cell where the system can grow off the
    target, in the region or clipped beyond it, or a target cell that a
    terminal assembly leaves empty.  INCOMPLETE-OK means the region or the
    step limit cut the run short before any off-target site appeared; it is
    evidence, never a proof.
    """

    status: str
    witness: Optional[Point]
    detail: str
    steps: int


def check_strict_self_assembly(
    system: TileSystem,
    target: Iterable[Point],
    region: Container[Point],
    policy=None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> StrictCheck:
    """Run the system and watch for any chance to leave the target shape.

    Every step checks the whole in-region frontier, so a violation is
    found as soon as any off-target attachment becomes possible, whether
    or not the policy would have taken it.  Once the run stops, the sites
    the region clipped are checked too, and the first off the target in
    row order is a violation.  A run that stops with no attachment site in
    or beyond the region is terminal in the plane, so if it misses target
    cells that is a violation too.
    """
    target_set = frozenset(target)
    for state in _grow(system, region, policy, max_steps):
        steps = len(state.events)
        # only the seed (iterated row-major) needs checking: later tiles land on checked sites
        off = next((p for p in state.tiles if p not in target_set), None) if steps == 0 else None
        if off is not None:
            return StrictCheck(VERDICT_VIOLATION, off, f"seed tile off target at {off}", 0)
        off = next((p for p, _ in state.inside if p not in target_set), None)
        if off is not None:
            detail = f"frontier site off target at {off} after {steps} steps"
            return StrictCheck(VERDICT_VIOLATION, off, detail, steps)
    outside = state.outside
    off = next((p for p, _ in outside if p not in target_set), None)
    if off is not None:
        detail = f"clipped site off target at {off} after {steps} steps"
        return StrictCheck(VERDICT_VIOLATION, off, detail, steps)
    covered = f"covered {len(target_set & state.tiles.keys())}/{len(target_set)} target cells"
    if state.inside:
        detail = f"step limit reached; {covered}"
    elif outside:
        detail = f"region boundary reached; {len(outside)} sites clipped; {covered}"
    else:
        detail = f"terminal; {covered}"
        missing = target_set - state.tiles.keys()
        if missing:
            witness = min(missing, key=lambda p: (p[1], p[0]))
            return StrictCheck(VERDICT_VIOLATION, witness, detail, steps)
    return StrictCheck(VERDICT_INCOMPLETE_OK, None, detail, steps)


# ---------------------------------------------------------------------------
# Tile-system files


def _format_glue(g: Glue) -> str:
    return f"{g.label}:{g.strength}"


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {what} {token!r}") from None


def _parse_glue(token: str, lineno: int) -> Glue:
    label, sep, raw = token.rpartition(":")
    if not sep or not label:
        raise ValueError(f"line {lineno}: bad glue {token!r}")
    strength = _parse_int(raw, "glue strength", lineno)
    try:
        return Glue(label, strength)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def parse_tile_system(text: str) -> TileSystem:
    """Parse the line-based tile-system format.

    Directives: ``temperature <t>``, ``tile <name> N=<glue> E=<glue>
    S=<glue> W=<glue>`` with glues written ``label:strength`` (``-:0`` for
    the null glue), and one ``seed <x> <y> <name>`` per seed tile.  Blank
    lines and ``#`` comments are skipped.
    """
    temperature: Optional[int] = None
    tile_list: list[TileType] = []
    by_name: dict[str, TileType] = {}
    seed_placements: dict[Point, TileType] = {}

    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "temperature":
            if temperature is not None:
                raise ValueError(f"line {lineno}: duplicate temperature")
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected 'temperature <t>'")
            temperature = _parse_int(tokens[1], "temperature", lineno)
        elif kind == "tile":
            if len(tokens) != 6:
                raise ValueError(f"line {lineno}: expected 'tile <name> N=.. E=.. S=.. W=..'")
            name = tokens[1]
            if name in by_name:
                raise ValueError(f"line {lineno}: duplicate tile {name!r}")
            glues = {}
            for token in tokens[2:]:
                side, sep, rest = token.partition("=")
                if not sep or side not in Direction.__members__ or side in glues:
                    raise ValueError(f"line {lineno}: bad side assignment {token!r}")
                glues[side] = _parse_glue(rest, lineno)
            tile = TileType(name, *(glues[d.name] for d in Direction))
            tile_list.append(tile)
            by_name[name] = tile
        elif kind == "seed":
            if len(tokens) != 4:
                raise ValueError(f"line {lineno}: expected 'seed <x> <y> <name>'")
            x, y = (_parse_int(t, "coordinate", lineno) for t in tokens[1:3])
            if tokens[3] not in by_name:
                raise ValueError(f"line {lineno}: unknown tile {tokens[3]!r}")
            if (x, y) in seed_placements:
                raise ValueError(f"line {lineno}: duplicate seed position {(x, y)}")
            seed_placements[(x, y)] = by_name[tokens[3]]
        else:
            raise ValueError(f"line {lineno}: unknown directive {kind!r}")

    if temperature is None:
        raise ValueError("missing temperature")
    if not seed_placements:
        raise ValueError("missing seed placement")
    return TileSystem(tuple(tile_list), Assembly(seed_placements), temperature)


def format_tile_system(system: TileSystem) -> str:
    """Inverse of :func:`parse_tile_system`; canonical output round-trips."""
    lines = [f"temperature {system.temperature}"]
    for t in system.tiles:
        sides = (f"{d.name}={_format_glue(g)}" for d, g in zip(Direction, _sides(t)))
        lines.append(f"tile {t.name} " + " ".join(sides))
    for (x, y), t in system.seed.items():
        lines.append(f"seed {x} {y} {t.name}")
    return "\n".join(lines) + "\n"
