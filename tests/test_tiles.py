"""Tests for tile systems, stability, frontiers, runs, and the .tas format."""

import random
import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractile import (
    Assembly,
    Box,
    Direction,
    DIRECTIONS,
    Generator,
    Glue,
    LexicographicPolicy,
    NULL_GLUE,
    PIER_LABELS_UNIFORM,
    ReplayError,
    SeededUniformPolicy,
    SequenceEvent,
    TileSystem,
    TileType,
    VERDICT_INCOMPLETE_OK,
    VERDICT_VIOLATION,
    check_strict_self_assembly,
    clipped_frontier,
    format_tile_system,
    frontier,
    is_tau_stable,
    neighbors,
    parse_tile_system,
    replay,
    run,
    stage,
    tree_edge_system,
)
from fractile.tiles import _Frontier, _grow, _row_major, attachment_strength, glues_bind

# ---------------------------------------------------------------------------
# Oracles: exhaustive cut enumeration, and frontier by definition.
#
# Stability is defined through min cuts, so the oracle enumerates every
# bipartition of the domain and sums the bond strengths crossing it.  The
# frontier oracle then applies the definition directly: a site is on the
# frontier iff the augmented assembly is stable.  Both stay independent of
# the library's min-cut and incremental bookkeeping.


def bond_edges(placed):
    out = []
    for p in placed:
        for d in (Direction.N, Direction.E):
            q = d(p)
            if q in placed:
                w = glues_bind(placed[p].glue(d), placed[q].glue(d.inverse()))
                if w:
                    out.append((p, q, w))
    return out


def oracle_stable(placed, tau):
    if len(placed) <= 1:
        return True
    pts = sorted(placed)
    index = {p: i for i, p in enumerate(pts)}
    edges = [(index[p], index[q], w) for p, q, w in bond_edges(placed)]
    for mask in range(1, (1 << len(pts)) - 1):
        weight = 0
        for i, j, w in edges:
            if (mask >> i & 1) != (mask >> j & 1):
                weight += w
        if weight < tau:
            return False
    return True


def oracle_frontier(system, placed, region=None):
    empty = {q for p in placed for q in neighbors(p)} - set(placed)
    sites = []
    for p in empty:
        if region is not None and p not in region:
            continue
        for t in system.tiles:
            if oracle_stable({**dict(placed), p: t}, system.temperature):
                sites.append((p, t))
    sites.sort(key=lambda s: (s[0][1], s[0][0], s[1].name))
    return tuple(sites)


def oracle_clipped(system, placed, region):
    return tuple(s for s in oracle_frontier(system, placed) if s[0] not in region)


def reference_growth(system, region, policy, max_steps, target=None):
    """Grow by choosing from ``oracle_frontier`` at every step.  With a
    target, stop at the first off-target frontier site the way the strict
    check does; that site is returned as the witness."""
    placed = dict(system.seed)
    events = []
    while True:
        sites = oracle_frontier(system, placed, region)
        off = sorted(
            {p for p, _ in sites if target is not None and p not in target},
            key=lambda p: (p[1], p[0]),
        )
        if off:
            return events, placed, sites, off[0]
        if not sites or len(events) >= max_steps:
            return events, placed, sites, None
        p, t = policy.choose(sites)
        placed[p] = t
        events.append(SequenceEvent(len(events) + 1, p, t))


LABELS = ("a", "b")


def random_tile(rng, name):
    def side():
        strength = rng.choice((0, 1, 1, 2))
        return Glue(rng.choice(LABELS), strength) if strength else NULL_GLUE

    return TileType(name, side(), side(), side(), side())


GLUE_POOL = tuple(Glue(label, s) for label in LABELS for s in (1, 2))


def random_assembly(rng, max_cells=6):
    """Random connected placement: most internal edges bonded, some label-
    mismatched or bare, and outward sides sprinkled with pool glues."""
    size = rng.randrange(2, max_cells + 1)
    cells = {(0, 0)}
    while len(cells) < size:
        p = rng.choice(sorted(cells))
        cells.add(rng.choice(neighbors(p)))
    sides = {}
    for p in cells:
        for d in (Direction.N, Direction.E):
            q = d(p)
            if q not in cells:
                continue
            roll = rng.randrange(6)
            if roll < 4:
                glue = Glue(rng.choice(LABELS), rng.choice((1, 1, 2)))
                sides[(p, d)] = glue
                sides[(q, d.inverse())] = glue
            elif roll < 5:
                sides[(p, d)] = Glue("a", 1)
                sides[(q, d.inverse())] = Glue("b", 1)
    for p in cells:
        for d in Direction:
            if d(p) not in cells and rng.randrange(2):
                sides[(p, d)] = rng.choice(GLUE_POOL)
    tiles = {}
    for i, p in enumerate(sorted(cells)):
        tiles[p] = TileType(
            f"t{i}",
            north=sides.get((p, Direction.N), NULL_GLUE),
            east=sides.get((p, Direction.E), NULL_GLUE),
            south=sides.get((p, Direction.S), NULL_GLUE),
            west=sides.get((p, Direction.W), NULL_GLUE),
        )
    return Assembly(tiles)


def glued_assembly(cells, glue):
    """Tiles t0, t1, ... on cells, the one at p carrying glue[(p, d)] on
    side d and the null glue where there is none."""
    return Assembly(
        {p: TileType(f"t{i}", *(glue.get((p, d), NULL_GLUE) for d in Direction))
         for i, p in enumerate(cells)}
    )


def random_block(rng, max_cells=12):
    """Random rectangle of 7 to max_cells cells whose internal edges mostly
    bond at strength 1-3 under their own labels: cycle-rich bond graphs,
    often stable at tau 2-4, unlike most of what random_assembly makes."""
    width = rng.randrange(2, 5)
    height = rng.randrange(-(-7 // width), max_cells // width + 1)  # rounds 7 / width up
    cells = [(x, y) for y in range(height) for x in range(width)]
    glue = {}
    for p in cells:
        for d in (Direction.N, Direction.E):
            strength = rng.choice((0, 1, 1, 2, 2, 3))
            if d(p) in cells and strength:
                glue[(p, d)] = glue[(d(p), d.inverse())] = Glue(f"{p[0]}.{p[1]}{d.name}", strength)
    return glued_assembly(cells, glue)


# tau=2 cooperative filler: a corner seed grows a strength-2 row and column,
# and the inner tile needs both its strength-1 west and south bonds.
FILL_T2 = """\
temperature 2
tile corner N=col:2 E=row:2 S=-:0 W=-:0
tile row N=r:1 E=row:2 S=-:0 W=row:2
tile col N=col:2 E=k:1 S=col:2 W=-:0
tile inner N=r:1 E=k:1 S=r:1 W=k:1
seed 0 0 corner
"""


# ---------------------------------------------------------------------------


class TestGlue:
    def test_validation(self):
        with pytest.raises(ValueError, match="bad glue label"):
            Glue("", 1)
        with pytest.raises(ValueError, match="bad glue label"):
            Glue("a b", 1)
        with pytest.raises(ValueError, match="bad glue label"):
            Glue("a=b", 1)
        with pytest.raises(ValueError, match="glue strength must be >= 0"):
            Glue("a", -1)
        with pytest.raises(ValueError, match="cannot carry positive strength"):
            Glue("-", 2)
        assert NULL_GLUE == Glue("-", 0)

    def test_binding(self):
        assert glues_bind(Glue("a", 1), Glue("a", 1)) == 1
        assert glues_bind(Glue("a", 2), Glue("a", 2)) == 2
        assert glues_bind(Glue("a", 1), Glue("b", 1)) == 0
        # equal labels with unequal strengths never bind
        assert glues_bind(Glue("a", 1), Glue("a", 2)) == 0
        assert glues_bind(NULL_GLUE, NULL_GLUE) == 0

    @given(
        st.tuples(st.sampled_from("ab"), st.integers(0, 3)),
        st.tuples(st.sampled_from("ab"), st.integers(0, 3)),
    )
    def test_binding_symmetric(self, a, b):
        ga, gb = Glue(*a), Glue(*b)
        assert glues_bind(ga, gb) == glues_bind(gb, ga)


class TestTileType:
    def test_side_accessor(self):
        t = TileType("t", north=Glue("n", 1), east=Glue("e", 2))
        assert t.glue(Direction.N) == Glue("n", 1)
        assert t.glue(Direction.E) == Glue("e", 2)
        assert t.glue(Direction.S) == NULL_GLUE
        assert t.glue(Direction.W) == NULL_GLUE

    def test_bad_names(self):
        for name in ("", "a b"):
            with pytest.raises(ValueError, match="bad tile name"):
                TileType(name)


@pytest.mark.parametrize("label", ["a b", "a\tb"])
def test_whitespace_in_labels_is_rejected(label):
    with pytest.raises(ValueError, match=f"^bad glue label: {re.escape(repr(label))}$"):
        Glue(label, 1)
    with pytest.raises(ValueError, match=f"^bad tile name: {re.escape(repr(label))}$"):
        TileType(label)


class TestAssembly:
    def test_rejects_empty_and_disconnected(self):
        t = TileType("t")
        with pytest.raises(ValueError, match="nonempty"):
            Assembly({})
        with pytest.raises(ValueError, match="connected"):
            Assembly({(0, 0): t, (2, 0): t})
        with pytest.raises(ValueError, match="connected"):
            Assembly({(0, 0): t, (1, 1): t})

    def test_mapping_in_row_major_order(self):
        t = TileType("t")
        asm = Assembly({(1, 1): t, (0, 0): t, (1, 0): t, (0, 1): t})
        assert list(asm) == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert len(asm) == 4
        assert asm[(1, 1)] is t
        assert asm.domain == frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})

    def test_immutable(self):
        asm = Assembly({(0, 0): TileType("t")})
        with pytest.raises(AttributeError):
            asm._tiles = {}

    def test_translate(self):
        t = TileType("t")
        asm = Assembly({(0, 0): t, (1, 0): t}).translate((3, -2))
        assert asm.domain == frozenset({(3, -2), (4, -2)})


class TestBox:
    def test_contains(self):
        box = Box(0, 0, 2, 3)
        assert (0, 0) in box and (2, 3) in box
        assert (3, 0) not in box and (0, -1) not in box

    def test_corner_order(self):
        with pytest.raises(ValueError, match="^box corners out of order: 1,0,0,0$"):
            Box(1, 0, 0, 0)

    def test_parse_round_trip(self):
        box = Box(-1, 2, 3, 4)
        assert Box.parse(str(box)) == box
        with pytest.raises(ValueError, match="expected x0,y0,x1,y1"):
            Box.parse("1,2,3")
        with pytest.raises(ValueError, match="expected x0,y0,x1,y1, got '0,0,a,1'"):
            Box.parse("0,0,a,1")


class TestTileSystem:
    def test_validation(self, ribbon_system):
        col = ribbon_system.tiles[0]
        seed = ribbon_system.seed
        with pytest.raises(ValueError, match="temperature must be >= 1"):
            TileSystem((col,), seed, 0)
        with pytest.raises(ValueError, match="tile names must be unique"):
            TileSystem((col, col), seed, 1)
        with pytest.raises(ValueError, match="not in the tile set"):
            TileSystem((TileType("other"),), seed, 1)

    def test_seed_must_be_stable(self):
        # two seed tiles held by a single strength-1 bond fail at tau=2
        a = TileType("a", east=Glue("x", 1))
        b = TileType("b", west=Glue("x", 1))
        seed = Assembly({(0, 0): a, (1, 0): b})
        TileSystem((a, b), seed, 1)
        with pytest.raises(ValueError, match="seed assembly is not stable"):
            TileSystem((a, b), seed, 2)


def two_by_two_ring():
    """Four distinct tiles bonded pairwise around a 2x2 square."""
    t00 = TileType("t00", north=Glue("L", 1), east=Glue("B", 1))
    t10 = TileType("t10", north=Glue("R", 1), west=Glue("B", 1))
    t01 = TileType("t01", south=Glue("L", 1), east=Glue("T", 1))
    t11 = TileType("t11", south=Glue("R", 1), west=Glue("T", 1))
    return Assembly({(0, 0): t00, (1, 0): t10, (0, 1): t01, (1, 1): t11})


def square_ring(side):
    """The boundary cells of a side x side square, each bonded at strength 1
    to its two neighbours along the boundary under a label of its own."""
    last = side - 1
    ring = [(x, 0) for x in range(last)] + [(last, y) for y in range(last)]
    ring += [(x, last) for x in range(last, 0, -1)] + [(0, y) for y in range(last, 0, -1)]
    glue = {}
    for i, p in enumerate(ring):
        q = ring[(i + 1) % len(ring)]
        d = DIRECTIONS[neighbors(p).index(q)]
        glue[(p, d)] = glue[(q, d.inverse())] = Glue(f"r{i}", 1)
    return glued_assembly(ring, glue)


class TestStability:
    def test_single_bond_pair(self):
        a = TileType("a", east=Glue("x", 1))
        b = TileType("b", west=Glue("x", 1))
        pair = {(0, 0): a, (1, 0): b}
        assert is_tau_stable(pair, 1)
        assert not is_tau_stable(pair, 2)

    def test_singletons_stable(self):
        assert is_tau_stable({(0, 0): TileType("t")}, 5)

    def test_ring_survives_tau_two(self):
        # four strength-1 bonds in a cycle: every cut severs at least two
        ring = two_by_two_ring()
        assert oracle_stable(ring, 2)
        assert is_tau_stable(ring, 1)
        assert is_tau_stable(ring, 2)
        assert not is_tau_stable(ring, 3)

    def test_unbonded_adjacency_is_unstable(self):
        plain = TileType("p")
        asm = {(0, 0): plain, (1, 0): plain}
        assert not is_tau_stable(asm, 1)

    def test_against_cut_enumeration(self):
        rng = random.Random(2)
        stable = unstable = 0
        for _ in range(60):
            asm = random_assembly(rng)
            for tau in (1, 2, 3):
                expected = oracle_stable(asm, tau)
                assert is_tau_stable(asm, tau) == expected
                stable += expected
                unstable += not expected
        assert stable >= 20 and unstable >= 20

    def test_against_cut_enumeration_up_to_twelve_cells(self):
        rng = random.Random(12)
        corpus = [random_assembly(rng, max_cells=12) for _ in range(150)]
        corpus += [random_block(rng) for _ in range(60)]
        verdicts = {True: 0, False: 0}
        large_stable = 0
        for asm in corpus:
            for tau in (1, 2, 3, 4):
                expected = oracle_stable(asm, tau)
                assert is_tau_stable(asm, tau) == expected
                verdicts[expected] += 1
                large_stable += expected and tau >= 2 and len(asm) > 6
        assert max(len(asm) for asm in corpus) == 12
        assert verdicts[True] >= 100 and verdicts[False] >= 100
        assert large_stable >= 20

    def test_grown_filler_is_stable_at_two_not_three(self):
        # far beyond cut enumeration: at tau=2 the strength-2 row and column
        # contract, and then each inner tile meets the contracted part with
        # two strength-1 bonds; the top-right corner tile hangs on exactly
        # two strength-1 bonds, a cut of weight 2
        seq = run(parse_tile_system(FILL_T2), Box(0, 0, 15, 15))
        assert len(seq.result) == 256
        assert is_tau_stable(seq.result, 2)
        assert not is_tau_stable(seq.result, 3)

    def test_long_ring_survives_tau_two(self):
        # no two bonds share an endpoint pair, so nothing contracts until
        # Stoer-Wagner phases have shrunk the ring to a triangle
        ring = square_ring(16)
        assert len(ring) == 60
        assert is_tau_stable(ring, 2)
        assert not is_tau_stable(ring, 3)
        broken = dict(ring)
        broken[(0, 0)] = ring[(0, 0)]._replace(east=NULL_GLUE)
        assert is_tau_stable(broken, 1)
        assert not is_tau_stable(broken, 2)

    def test_grown_sierpinski_is_a_strength_one_tree(self, sierpinski):
        seq = run(tree_edge_system(sierpinski, 5), policy=SeededUniformPolicy(1))
        assert len(seq.result) > 100
        assert is_tau_stable(seq.result, 1)
        assert not is_tau_stable(seq.result, 2)


@pytest.fixture
def cooperation_system():
    """tau=2 fixture: a corner tile that needs both of its strength-1 bonds."""
    hub = TileType("hub", north=Glue("hn", 2), east=Glue("he", 2))
    arm_e = TileType("armE", west=Glue("he", 2), north=Glue("n1", 1))
    arm_n = TileType("armN", south=Glue("hn", 2), east=Glue("e1", 1))
    coop = TileType("coop", west=Glue("e1", 1), south=Glue("n1", 1))
    seed = Assembly({(0, 0): hub, (1, 0): arm_e, (0, 1): arm_n})
    return TileSystem((hub, arm_e, arm_n, coop), seed, 2)


def all_glue_system(tau=1):
    """One tile type that bonds to itself on every side."""
    g = Glue("u", tau)
    t = TileType("u", g, g, g, g)
    return TileSystem((t,), Assembly({(0, 0): t}), tau)


class TestFrontier:
    def test_seed_neighbors(self):
        system = all_glue_system()
        t = system.tiles[0]
        sites = frontier(system, system.seed)
        assert sites == (((0, -1), t), ((-1, 0), t), ((1, 0), t), ((0, 1), t))

    def test_region_clips_sites(self, ribbon_system, ribbon_region):
        col = ribbon_system.tiles[0]
        assert frontier(ribbon_system, ribbon_system.seed, ribbon_region) == (
            ((0, 1), col),
        )
        unrestricted = frontier(ribbon_system, ribbon_system.seed)
        assert {p for p, _ in unrestricted} == {(0, 1), (0, -1)}

    def test_terminal_assembly_has_none(self, sierpinski):
        system = tree_edge_system(sierpinski, 1)
        grown = run(system, Box(0, 0, 1, 1)).result
        assert grown.domain == stage(sierpinski, 1)
        assert frontier(system, grown) == ()

    def test_cooperation_needs_both_neighbors(self, cooperation_system):
        coop = next(t for t in cooperation_system.tiles if t.name == "coop")
        assert attachment_strength(cooperation_system.seed, (1, 1), coop) == 2
        assert attachment_strength(cooperation_system.seed, (0, 2), coop) == 0
        assert frontier(cooperation_system, cooperation_system.seed) == (((1, 1), coop),)

    def test_against_definition_oracle(self):
        # frontier must agree with "augmented assembly is stable", computed
        # through exhaustive cut enumeration
        rng = random.Random(3)
        compared = nonempty = 0
        while compared < 25:
            asm = random_assembly(rng)
            tau = rng.choice((1, 2))
            if not oracle_stable(asm, tau):
                continue
            tiles = tuple({t.name: t for t in asm.values()}.values())
            tiles += (random_tile(rng, "extra"),)
            system = TileSystem(tiles, Assembly({(0, 0): asm[(0, 0)]}), tau)
            region = rng.choice((None, Box(-2, -2, 2, 2)))
            sites = frontier(system, asm, region)
            assert sites == oracle_frontier(system, asm, region)
            compared += 1
            nonempty += bool(sites)
        assert nonempty >= 8


def random_system(rng):
    """Up to two tile types with sides from the glue pool, plus a seed.

    Half the time the seed is an L tromino held by strength-2 bonds and a
    further tile fits the corner it leaves through two strength-1 bonds, so
    temperature-2 runs meet a site that needs cooperation."""

    def tile(name, **fixed):
        sides = ("north", "east", "south", "west")
        glues = {d: rng.choice(GLUE_POOL + (NULL_GLUE,)) for d in sides}
        return TileType(name, **{**glues, **fixed})

    extra = tuple(tile(f"r{i}") for i in range(rng.randrange(3)))
    tau = rng.choice((1, 2))
    if rng.randrange(2):
        single = tile("s0")
        return TileSystem((single, *extra), Assembly({(0, 0): single}), tau)
    x, y = Glue("x", 2), Glue("y", 2)
    hub = tile("s0", east=x, north=y)
    right = tile("s1", west=x, north=Glue(rng.choice(LABELS), 1))
    up = tile("s2", south=y, east=Glue(rng.choice(LABELS), 1))
    corner = tile("s3", south=right.north, west=up.east)
    seed = Assembly({(0, 0): hub, (1, 0): right, (0, 1): up})
    return TileSystem((hub, right, up, corner, *extra), seed, tau)


def make_policy(seed):
    return LexicographicPolicy() if seed is None else SeededUniformPolicy(seed)


SMALL_BOX = Box(-1, 0, 1, 1)


class TestGrowthAgainstOracleLoop:
    """The incremental engine against a loop that recomputes the frontier
    by definition before every step."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from((None, 0, 1, 2)),
        st.sampled_from((None, SMALL_BOX)),
        st.integers(0, 6),
    )
    def test_run(self, rng, seed, region, max_steps):
        system = random_system(rng)
        seq = run(system, region, make_policy(seed), max_steps)
        events, placed, _, _ = reference_growth(system, region, make_policy(seed), max_steps)
        assert seq.events == tuple(events)
        assert dict(seq.result) == placed
        if region is not None:
            assert clipped_frontier(system, seq.result, region) == oracle_clipped(
                system, placed, region
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from((None, 0, 1, 2)),
        st.integers(0, 6),
    )
    def test_strict_check(self, rng, seed, max_steps):
        system = random_system(rng)
        cells = [(x, y) for y in range(2) for x in range(-1, 2)]
        target = set(system.seed) | {p for p in cells if rng.random() < 0.7}
        verdict = check_strict_self_assembly(
            system, target, SMALL_BOX, make_policy(seed), max_steps
        )
        events, placed, sites, witness = reference_growth(
            system, SMALL_BOX, make_policy(seed), max_steps, target
        )
        assert verdict.steps == len(events)
        if witness is not None:
            assert verdict.status == VERDICT_VIOLATION
            assert verdict.witness == witness
            assert verdict.detail == (
                f"frontier site off target at {witness} after {len(events)} steps"
            )
            return
        # once the run stops, the first clipped site off the target is a witness
        clipped = oracle_clipped(system, placed, SMALL_BOX)
        off = next((p for p, _ in clipped if p not in target), None)
        if off is not None:
            assert verdict.status == VERDICT_VIOLATION
            assert verdict.witness == off
            assert verdict.detail == f"clipped site off target at {off} after {len(events)} steps"
            return
        covered = f"covered {len(target & placed.keys())}/{len(target)} target cells"
        if sites:
            assert verdict.detail == f"step limit reached; {covered}"
        elif clipped:
            assert verdict.detail == (
                f"region boundary reached; {len(clipped)} sites clipped; {covered}"
            )
        else:
            # terminal in the plane: a missed target cell is a violation
            assert verdict.detail == f"terminal; {covered}"
            missing = sorted(target - placed.keys(), key=lambda p: (p[1], p[0]))
            if missing:
                assert verdict.status == VERDICT_VIOLATION
                assert verdict.witness == missing[0]
                return
        assert verdict.status == VERDICT_INCOMPLETE_OK
        assert verdict.witness is None


def random_system_with_twin(rng):
    """``random_system`` plus a renamed copy of one of its tile types, which
    shares all that type's sites, so some sites hold several tile types."""
    system = random_system(rng)
    twin = rng.choice(system.tiles)._replace(name="twin")
    return TileSystem((*system.tiles, twin), system.seed, system.temperature)


GROWTH_REGIONS = (None, SMALL_BOX, Box(-2, -1, 2, 2))


class TestKeptOrder:
    """The engine keeps its frontier lists sorted incrementally; at every
    state a run passes through they must equal a fresh sort of its site
    map, and the site map must equal one built from scratch."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from((None, 0, 1)),
        st.sampled_from(GROWTH_REGIONS),
    )
    def test_lists_match_a_fresh_sort(self, rng, seed, region):
        system = random_system_with_twin(rng)
        for state in _grow(system, region, make_policy(seed), 12):
            pairs = sorted(
                ((p, t) for p, tiles in state.sites.items() for t in tiles),
                key=lambda s: (s[0][1], s[0][0], s[1].name),
            )
            inside = [s for s in pairs if region is None or s[0] in region]
            assert state.inside == inside
            assert state.outside == [s for s in pairs if s not in inside]
            assert state.sites == _Frontier(system, dict(state.tiles), region).sites


def oracle_sites(system, placed):
    """Every empty neighbour of the placed tiles, with the tile types whose
    bonds there reach the temperature, in name order."""
    sites = {}
    for p in {q for placed_at in placed for q in neighbors(placed_at)} - placed.keys():
        fits = [t for t in system.tiles if attachment_strength(placed, p, t) >= system.temperature]
        if fits:
            sites[p] = tuple(sorted(fits, key=lambda t: t.name))
    return sites


class TestSiteTotals:
    """The per-site totals the engine keeps, against sites derived from
    scratch with ``attachment_strength``: at every state a run passes
    through, and for a state seeded with that state's assembly."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from((None, 0, 1)),
        st.sampled_from(GROWTH_REGIONS),
    )
    def test_sites_match_attachment_strength(self, rng, seed, region):
        system = random_system_with_twin(rng)
        for state in _grow(system, region, make_policy(seed), 12):
            expected = oracle_sites(system, state.tiles)
            assert state.sites == expected
            assert _Frontier(system, dict(state.tiles), region).sites == expected


def grow_states(system, region):
    """(sites, inside, outside, totals) at every state of a lexicographic
    run."""
    return [
        (
            dict(state.sites),
            list(state.inside),
            list(state.outside),
            {p: dict(t) for p, t in state._totals.items()},
        )
        for state in _grow(system, region, LexicographicPolicy(), 10)
    ]


class TestCrossings:
    """A site's tile types change only when a total crosses tau; these pin
    the cases a crossing can take."""

    def test_two_types_cross_in_one_placement(self):
        seed = TileType("s", east=Glue("b", 1))
        mid = TileType("m", west=Glue("b", 1), east=Glue("a", 1))
        v, u = TileType("v", west=Glue("a", 1)), TileType("u", west=Glue("a", 1))
        system = TileSystem((seed, mid, v, u), Assembly({(0, 0): seed}), 1)
        sites, inside, _, _ = grow_states(system, Box(0, 0, 2, 0))[1]
        assert sites == {(2, 0): (u, v)}
        assert inside == [((2, 0), u), ((2, 0), v)]

    @pytest.mark.parametrize("corner_inside", [True, False])
    def test_later_crossing_keeps_name_order(self, corner_inside):
        seed = TileType("s", north=Glue("n", 1), east=Glue("e", 1))
        right = TileType("e1", west=Glue("e", 1), north=Glue("y", 1))
        up = TileType("n1", south=Glue("n", 1), east=Glue("x", 1))
        a, b = TileType("a", west=Glue("x", 1)), TileType("b", south=Glue("y", 1))
        system = TileSystem((seed, right, up, b, a), Assembly({(0, 0): seed}), 1)
        region = Box(0, 0, 1, 1) if corner_inside else frozenset({(0, 0), (1, 0), (0, 1)})
        states = grow_states(system, region)
        # e1 goes to (1, 0), where b crosses at (1, 1); then n1 to (0, 1), where a does
        if corner_inside:
            after_e1 = ([((0, 1), up), ((1, 1), b)], [])
            after_n1 = ([((1, 1), a), ((1, 1), b)], [])
        else:
            after_e1 = ([((0, 1), up)], [((1, 1), b)])
            after_n1 = ([], [((1, 1), a), ((1, 1), b)])
        assert states[1][1:3] == after_e1
        assert states[2][0] == {(1, 1): (a, b)}
        assert states[2][1:3] == after_n1

    def test_total_below_tau_changes_no_site(self, cooperation_system):
        hub, arm_e, arm_n, coop = cooperation_system.tiles
        system = TileSystem(cooperation_system.tiles, Assembly({(0, 0): hub}), 2)
        states = grow_states(system, Box(0, 0, 1, 1))
        # armE at (1, 0) lifts coop's total at (1, 1) to 1, below tau
        assert states[0][1] == [((1, 0), arm_e), ((0, 1), arm_n)]
        assert states[1][:2] == ({(0, 1): (arm_n,)}, [((0, 1), arm_n)])
        assert states[1][3][(1, 1)] == {"coop": 1}
        # armN at (0, 1) lifts it to 2, and (1, 1) becomes a site
        assert states[2][1] == [((1, 1), coop)]

    def test_total_above_tau_changes_no_site(self):
        seed = TileType("s", north=Glue("n", 1), east=Glue("e", 1))
        right = TileType("e1", west=Glue("e", 1), north=Glue("y", 1))
        up = TileType("n1", south=Glue("n", 1), east=Glue("x", 1))
        both = TileType("c", west=Glue("x", 1), south=Glue("y", 1))
        system = TileSystem((seed, right, up, both), Assembly({(0, 0): seed}), 1)
        states = grow_states(system, Box(0, 0, 1, 1))
        # e1 at (1, 0) makes (1, 1) a site; n1 at (0, 1) lifts its total to 2
        assert states[1][1] == [((0, 1), up), ((1, 1), both)]
        assert states[2][:2] == ({(1, 1): (both,)}, [((1, 1), both)])
        assert states[2][3][(1, 1)] == {"c": 2}


@settings(max_examples=100, deadline=None)
@given(st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6))))
def test_row_major_matches_a_keyed_sort(points):
    placements = {p: i for i, p in enumerate(points)}
    expected = dict(sorted(placements.items(), key=lambda kv: (kv[0][1], kv[0][0])))
    assert list(_row_major(placements).items()) == list(expected.items())


@pytest.fixture
def frontiers_built(monkeypatch):
    """Counts the growth engines built from here on."""
    built = []

    def counting(*args):
        built.append(args)
        return _Frontier(*args)

    monkeypatch.setattr("fractile.tiles._Frontier", counting)
    return built


class TestFrontierOfARun:
    """A run's result answers frontier queries with the run's own final
    frontier, but only for the very system and region object it ran with."""

    @pytest.mark.parametrize(
        "case, region, policy, max_steps, stop",
        [
            ("ribbon", None, None, 5, "step limit"),
            ("ribbon", Box(0, 0, 0, 3), None, 100, "region boundary"),
            ("ribbon", Box(0, -2, 0, 3), SeededUniformPolicy(3), 2, "step limit"),
            ("filler", Box(0, 0, 3, 2), SeededUniformPolicy(1), 100, "region boundary"),
            ("filler", None, SeededUniformPolicy(2), 6, "step limit"),
            ("filler", Box(0, 0, 3, 3), None, 4, "step limit"),
            ("cooperation", None, None, 100, "terminal"),
            ("cooperation", Box(0, 0, 1, 1), None, 100, "terminal"),
        ],
    )
    def test_kept_sites_equal_a_rebuild(
        self, request, frontiers_built, case, region, policy, max_steps, stop
    ):
        system = {
            "ribbon": lambda: request.getfixturevalue("ribbon_system"),
            "filler": lambda: parse_tile_system(FILL_T2),
            "cooperation": lambda: request.getfixturevalue("cooperation_system"),
        }[case]()
        seq = run(system, region, policy, max_steps)
        built = len(frontiers_built)
        inside = frontier(system, seq.result, region)
        clipped = clipped_frontier(system, seq.result, region)
        assert len(frontiers_built) == built
        placed = dict(seq.result)
        assert inside == frontier(system, placed, region)
        assert clipped == clipped_frontier(system, placed, region)
        assert len(frontiers_built) == built + 2
        if stop == "step limit":
            assert len(seq.events) == max_steps and inside
        else:
            assert len(seq.events) < max_steps and not inside
            assert bool(clipped) == (stop == "region boundary")

    def test_other_queries_rebuild(self, frontiers_built):
        system = parse_tile_system(FILL_T2)
        region = Box(0, 0, 2, 2)
        seq = run(system, region, SeededUniformPolicy(5), 3)
        placed = dict(seq.result)
        queries = [
            (Box(*region), region),
            (Box(0, 0, 1, 2), Box(0, 0, 1, 2)),
            (Box(0, 0, 3, 3), Box(0, 0, 3, 3)),
        ]
        for asked, expected in queries:
            assert asked is not region
            before = len(frontiers_built)
            assert frontier(system, seq.result, asked) == oracle_frontier(system, placed, expected)
            assert clipped_frontier(system, seq.result, asked) == oracle_clipped(
                system, placed, expected
            )
            assert len(frontiers_built) == before + 2
        before = len(frontiers_built)
        assert frontier(system, seq.result) == oracle_frontier(system, placed)
        twin = TileSystem(system.tiles, system.seed, system.temperature)
        assert frontier(twin, seq.result, region) == oracle_frontier(system, placed, region)
        assert len(frontiers_built) == before + 2

    def test_only_a_run_keeps_its_frontier(self, ribbon_system, ribbon_region):
        seq = run(ribbon_system, ribbon_region)
        assert seq.result._frontier is not None
        assert seq.result.translate((0, 0))._frontier is None
        assert Assembly(dict(seq.result))._frontier is None
        assert Assembly(seq.result)._frontier is None
        assert replay(ribbon_system, seq.events)._frontier is None

    def test_a_mutable_region_is_not_trusted(self, ribbon_system):
        region = {(0, 0), (0, 1)}
        seq = run(ribbon_system, region)
        assert seq.result._frontier is None
        region.add((0, 2))
        col = ribbon_system.tiles[0]
        assert frontier(ribbon_system, seq.result, region) == (((0, 2), col),)
        assert clipped_frontier(ribbon_system, seq.result, region) == (((0, -1), col),)


class TestSeededUniformPolicy:
    def test_empty_frontier_raises(self):
        # a bare rejection loop never ends on n = 0, since getrandbits(0) is 0
        def give_up(signum, frame):
            raise TimeoutError("choose([]) did not return")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.setitimer(signal.ITIMER_REAL, 2)
        try:
            with pytest.raises(ValueError, match="empty range"):
                SeededUniformPolicy(0).choose([])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_draws_equal_randrange(self, seed):
        policy, rng = SeededUniformPolicy(seed), random.Random(seed)
        for n in range(1, 2050):
            assert policy.choose(range(n)) == rng.randrange(n)


class TestRunAndReplay:
    def test_fills_region(self):
        system = all_glue_system()
        seq = run(system, Box(0, 0, 2, 2))
        assert len(seq.events) == 8
        assert seq.result.domain == frozenset(
            (x, y) for x in range(3) for y in range(3)
        )

    def test_zero_budget(self, ribbon_system, ribbon_region):
        seq = run(ribbon_system, ribbon_region, max_steps=0)
        assert seq.events == ()
        assert seq.result.domain == ribbon_system.seed.domain

    def test_negative_budget_is_rejected(self, ribbon_system, ribbon_region):
        with pytest.raises(ValueError, match=r"max_steps must be >= 0, got -5"):
            run(ribbon_system, ribbon_region, max_steps=-5)
        target = ribbon_system.seed.domain
        with pytest.raises(ValueError, match=r"max_steps must be >= 0, got -1"):
            check_strict_self_assembly(ribbon_system, target, ribbon_region, max_steps=-1)

    def test_monotone_single_tile_steps(self, ribbon_system, ribbon_region):
        seq = run(ribbon_system, ribbon_region)
        assert [e.index for e in seq.events] == [1, 2, 3]
        placed = set(seq.initial)
        for event in seq.events:
            assert event.position not in placed
            placed.add(event.position)
        assert placed == set(seq.result)

    def test_every_prefix_replays_stably(self):
        system = all_glue_system()
        seq = run(system, Box(0, 0, 2, 1), policy=SeededUniformPolicy(4))
        for k in range(len(seq.events) + 1):
            partial = replay(system, seq.events[:k])
            assert oracle_stable(partial, system.temperature)

    def test_seeded_runs_are_reproducible(self):
        system = all_glue_system()
        box = Box(0, 0, 3, 3)
        a = run(system, box, policy=SeededUniformPolicy(9))
        b = run(system, box, policy=SeededUniformPolicy(9))
        assert a.events == b.events

    def test_policy_seed_changes_order_not_result(self):
        system = all_glue_system()
        box = Box(0, 0, 3, 3)
        runs = [run(system, box, policy=SeededUniformPolicy(s)) for s in (1, 2)]
        assert runs[0].events != runs[1].events
        assert runs[0].result.domain == runs[1].result.domain

    def test_lexicographic_takes_lowest_site(self, ribbon_system):
        seq = run(ribbon_system, Box(0, -2, 0, 2), policy=LexicographicPolicy())
        assert seq.events[0].position == (0, -1)

    def test_seed_outside_region(self, ribbon_system):
        with pytest.raises(ValueError, match="seed outside region"):
            run(ribbon_system, Box(5, 5, 6, 6))

    def test_replay_round_trip(self, ribbon_system, ribbon_region):
        seq = run(ribbon_system, ribbon_region)
        assert dict(replay(ribbon_system, seq.events)) == dict(seq.result)

    def test_replay_rejects_occupied(self, ribbon_system):
        col = ribbon_system.tiles[0]
        events = [SequenceEvent(1, (0, 1), col), SequenceEvent(2, (0, 1), col)]
        with pytest.raises(ReplayError, match="invalid at step 2: position occupied"):
            replay(ribbon_system, events)

    def test_replay_rejects_weak_attachment(self, ribbon_system):
        col = ribbon_system.tiles[0]
        events = [SequenceEvent(1, (5, 5), col)]
        with pytest.raises(ReplayError, match="invalid at step 1: insufficient strength"):
            replay(ribbon_system, events)

    def test_replay_from_alternate_start(self, ribbon_system):
        col = ribbon_system.tiles[0]
        start = Assembly({(0, 2): col})
        grown = replay(ribbon_system, [SequenceEvent(1, (0, 3), col)], start=start)
        assert grown.domain == frozenset({(0, 2), (0, 3)})

    def test_clipped_frontier_reports_boundary(self, ribbon_system, ribbon_region):
        seq = run(ribbon_system, ribbon_region)
        clipped = clipped_frontier(ribbon_system, seq.result, ribbon_region)
        assert {p for p, _ in clipped} == {(0, -1), (0, 4)}


class TestStrictCheck:
    def test_all_glue_tile_escapes_target(self, sierpinski):
        verdict = check_strict_self_assembly(
            all_glue_system(), stage(sierpinski, 2), Box(0, 0, 3, 3)
        )
        assert verdict.status == VERDICT_VIOLATION
        assert verdict.witness == (1, 1)
        assert "off target at (1, 1)" in verdict.detail

    def test_tree_edge_system_stays_on_target(self, sierpinski):
        target = stage(sierpinski, 2)
        verdict = check_strict_self_assembly(
            tree_edge_system(sierpinski, 2), target, Box(0, 0, 3, 3)
        )
        assert verdict.status == VERDICT_INCOMPLETE_OK
        assert verdict.witness is None
        assert "covered 9/9" in verdict.detail

    def test_off_target_seed(self):
        verdict = check_strict_self_assembly(
            all_glue_system(), {(1, 1)}, Box(0, 0, 3, 3)
        )
        assert verdict.status == VERDICT_VIOLATION
        assert verdict.witness == (0, 0)
        assert verdict.steps == 0

    def test_seed_outside_region(self, sierpinski):
        with pytest.raises(ValueError, match="seed outside region"):
            check_strict_self_assembly(
                all_glue_system(), stage(sierpinski, 2), Box(5, 5, 6, 6)
            )

    def test_terminal_short_run_is_a_violation(self, sierpinski):
        system = tree_edge_system(sierpinski, 4, PIER_LABELS_UNIFORM)
        verdict = check_strict_self_assembly(
            system, stage(sierpinski, 4), Box(0, 0, 15, 15), LexicographicPolicy()
        )
        assert verdict.status == VERDICT_VIOLATION
        assert verdict.witness == (5, 2)
        assert verdict.detail == "terminal; covered 71/81 target cells"

    def test_clipped_site_off_target_is_a_violation(self):
        # the run stays on target inside the region, but the region clips
        # an off-target site below the bottom row
        gen = Generator(4, {(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 0), (2, 1), (3, 1)})
        system = tree_edge_system(gen, 3, PIER_LABELS_UNIFORM)
        verdict = check_strict_self_assembly(
            system, stage(gen, 3), Box(0, 0, 63, 63), SeededUniformPolicy(1)
        )
        assert verdict == (
            VERDICT_VIOLATION,
            (10, -1),
            "clipped site off target at (10, -1) after 511 steps",
            511,
        )

    def test_step_limit_reported(self):
        # the target covers the ring around the region, so no clipped site is off it
        target = {(x, y) for x in range(-1, 11) for y in range(-1, 11)}
        verdict = check_strict_self_assembly(
            all_glue_system(), target, Box(0, 0, 9, 9), max_steps=3
        )
        assert verdict.status == VERDICT_INCOMPLETE_OK
        assert "step limit reached" in verdict.detail


RIBBON_TEXT = """\
# vertical ribbon
temperature 1

tile col N=n:1 E=-:0 S=n:1 W=-:0
seed 0 0 col
"""


class TestTasFormat:
    def test_parse(self):
        system = parse_tile_system(RIBBON_TEXT)
        assert system.temperature == 1
        assert [t.name for t in system.tiles] == ["col"]
        assert system.tiles[0].north == Glue("n", 1)
        assert system.tiles[0].east == NULL_GLUE
        assert dict(system.seed) == {(0, 0): system.tiles[0]}

    def test_round_trip(self, cooperation_system):
        text = format_tile_system(cooperation_system)
        parsed = parse_tile_system(text)
        assert parsed.tiles == cooperation_system.tiles
        assert parsed.temperature == cooperation_system.temperature
        assert dict(parsed.seed) == dict(cooperation_system.seed)
        assert format_tile_system(parsed) == text

    def test_errors_carry_line_numbers(self):
        cases = [
            ("temperature 1\ntemperature 2", "line 2: duplicate temperature"),
            ("temperature 1\ntile t N=x E=-:0 S=-:0 W=-:0", "line 2: bad glue 'x'"),
            (
                "temperature 1\ntile t N=a:q E=-:0 S=-:0 W=-:0",
                "line 2: bad glue strength 'q'",
            ),
            (
                "temperature 1\ntile t N=a:1 X=-:0 S=-:0 W=-:0",
                "line 2: bad side assignment",
            ),
            ("temperature 1\ntile t N=a:1", "line 2: expected 'tile"),
            ("temperature 1\nglue a b", "line 2: unknown directive 'glue'"),
            ("temperature x", "line 1: bad temperature 'x'"),
            ("temperature 1\nseed 0 y a", "line 2: bad coordinate 'y'"),
            ("temperature 1\nseed 0 0 ghost", "line 2: unknown tile 'ghost'"),
            (RIBBON_TEXT + "seed 0 0 col", "line 6: duplicate seed position"),
            ("tile t N=-:0 E=-:0 S=-:0 W=-:0\nseed 0 0 t", "missing temperature"),
            ("temperature 1\ntile t N=-:0 E=-:0 S=-:0 W=-:0", "missing seed"),
        ]
        for text, message in cases:
            with pytest.raises(ValueError, match=message):
                parse_tile_system(text)
