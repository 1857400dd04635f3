"""Generators, stages, bridges, piers, anchors, and free points.

The free-point functions are checked two ways: hand-traced fixtures with
pinned answers, and a harvested corpus of (set, component) pairs made by
deleting one cell from random tree generators, where every answer must lie
in the brute-force set of all points satisfying the output contract.
"""

import random
from collections import Counter

import pytest

from fractile import (
    DIRECTIONS,
    Direction,
    Generator,
    TAXONOMY_DOUBLE,
    TAXONOMY_ORTHOGONAL,
    TAXONOMY_PARALLEL,
    TAXONOMY_REAL,
    WindowSpec,
    boundary_contacts,
    bridges,
    census,
    format_generator,
    free_point_east,
    free_point_north,
    free_point_northeast,
    is_connected,
    is_tree_fractal_generator,
    neighbors,
    parse_generator,
    piers,
    random_valid_generator,
    scale,
    select_pier_anchor,
    stage,
    stage_property,
    window_inside,
)
from fractile.fractal import _origin_trees, bridge_counts
from fractile.grid import connected_components, grid_edges, is_tree
from conftest import HOOK4_CELLS, L_CELLS, REAL_PIER_CELLS, SIERPINSKI_CELLS

U3_CELLS = frozenset({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (2, 2)})


# ---------------------------------------------------------------------------
# Generator construction and the .gen format


def test_generator_rejects_bad_inputs():
    with pytest.raises(ValueError, match="side must be at least 2"):
        Generator(1, frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="origin not occupied"):
        Generator(2, frozenset({(1, 0), (0, 1)}))
    with pytest.raises(ValueError, match="row 1 empty"):
        Generator(2, frozenset({(0, 0), (1, 0)}))
    with pytest.raises(ValueError, match="column 1 empty"):
        Generator(2, frozenset({(0, 0), (0, 1)}))
    with pytest.raises(ValueError, match="outside"):
        Generator(2, frozenset({(0, 0), (2, 1), (1, 1), (0, 1), (1, 0)}))


def test_parse_generator_sierpinski():
    gen = parse_generator("g=2\n#.\n##\n")
    assert gen.g == 2
    assert gen.cells == SIERPINSKI_CELLS


def test_parse_generator_errors():
    with pytest.raises(ValueError, match="^line 1: first line must be"):
        parse_generator("2\n#.\n##\n")
    with pytest.raises(ValueError, match="^line 1: bad side in header: 'g=two'$"):
        parse_generator("g=two\n#.\n##\n")
    with pytest.raises(ValueError, match="^line 1: side must be at least 2, got 1$"):
        parse_generator("g=1\n#\n")
    with pytest.raises(ValueError, match="^line 3: expected 2 grid lines, got 1$"):
        parse_generator("g=2\n##\n")
    with pytest.raises(ValueError, match="^line 4: expected 2 grid lines, got 3$"):
        parse_generator("g=2\n#.\n##\n##\n")
    with pytest.raises(ValueError, match="line 2: expected 2 cells, got 3"):
        parse_generator("g=2\n#._\n##\n")
    with pytest.raises(ValueError, match="line 3: bad cell 'x'"):
        parse_generator("g=2\n#.\nx#\n")


def test_gen_round_trip_is_bit_exact():
    rng = random.Random(11)
    for _ in range(50):
        gen = random_valid_generator(rng.choice((2, 3, 4)), rng)
        text = format_generator(gen)
        assert parse_generator(text) == gen
        assert format_generator(parse_generator(text)) == text


# ---------------------------------------------------------------------------
# Stages and scaling


def test_stage_one_is_the_generator(sierpinski):
    assert stage(sierpinski, 1) == sierpinski.cells


def test_stage_two_sierpinski_is_the_nine_point_set(sierpinski):
    assert stage(sierpinski, 2) == {
        (0, 0), (1, 0), (2, 0), (3, 0),
        (0, 1), (2, 1),
        (0, 2), (1, 2),
        (0, 3),
    }


def test_stage_sizes_multiply(sierpinski, hook4):
    for gen in (sierpinski, hook4):
        for s in (1, 2, 3):
            assert len(stage(gen, s)) == len(gen.cells) ** s


def test_stage_fits_in_its_square(hook4):
    for s in (1, 2, 3):
        side = hook4.g**s
        assert all(0 <= x < side and 0 <= y < side for x, y in stage(hook4, s))


def test_stage_requires_positive_index(sierpinski):
    with pytest.raises(ValueError, match="stage index must be >= 1"):
        stage(sierpinski, 0)


def test_scale_blocks(sierpinski):
    assert scale(sierpinski.cells, 1) == sierpinski.cells
    doubled = scale(sierpinski.cells, 2)
    assert len(doubled) == 4 * len(sierpinski.cells)
    # (1,0) becomes the 2x2 block at (2,0); (0,1) the block at (0,2).
    assert {(2, 0), (3, 0), (2, 1), (3, 1)} <= doubled
    assert {(0, 2), (1, 2), (0, 3), (1, 3)} <= doubled
    assert doubled.isdisjoint({(2, 2), (3, 2), (2, 3), (3, 3)})
    with pytest.raises(ValueError, match="scale factor must be >= 1"):
        scale(sierpinski.cells, 0)


# ---------------------------------------------------------------------------
# Bridges and the tree-fractal characterization


def test_sierpinski_bridges(sierpinski):
    bs = bridges(sierpinski.cells)
    assert [(b.kind, b.index, b.connected) for b in bs] == [
        ("horizontal", 0, True),
        ("vertical", 0, True),
    ]
    assert bs[0].endpoints == ((0, 0), (1, 0))
    assert bs[1].endpoints == ((0, 0), (0, 1))
    assert bridge_counts(sierpinski.cells) == (1, 1)


def test_u_shape_has_three_h_bridges():
    assert bridge_counts(U3_CELLS) == (3, 2)
    ok, diagnosis = is_tree_fractal_generator(Generator(3, U3_CELLS))
    assert not ok
    assert diagnosis == "3 horizontal bridges (need exactly 1)"


def test_disconnected_bridge_is_reported():
    pts = frozenset({(0, 0), (2, 0), (0, 1), (0, 2), (1, 2)})
    (h,) = [b for b in bridges(pts) if b.kind == "horizontal"]
    assert h.endpoints == ((0, 0), (2, 0))
    assert not h.connected


def test_bridge_counts_agree_with_bridges():
    rng = random.Random(7)
    for _ in range(300):
        pts = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(1, 12))}
        kinds = [b.kind for b in bridges(pts)]
        assert bridge_counts(pts) == (kinds.count("horizontal"), kinds.count("vertical"))


def test_tree_fractal_characterization_g2(sierpinski, l_gen, mirrored_l):
    for gen in (sierpinski, l_gen, mirrored_l):
        ok, diagnosis = is_tree_fractal_generator(gen)
        assert ok, diagnosis
    ok, diagnosis = is_tree_fractal_generator(
        Generator(2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    )
    assert not ok and diagnosis == "not a tree"
    ok, diagnosis = is_tree_fractal_generator(
        Generator(2, frozenset({(0, 0), (1, 1)}))
    )
    assert not ok and diagnosis == "not a tree"


def test_stage_property(sierpinski, hook4):
    for s in (1, 2, 3):
        assert stage_property(sierpinski, s)
    assert stage_property(hook4, 2)
    assert not stage_property(Generator(3, U3_CELLS), 1)
    assert not stage_property(Generator(3, U3_CELLS), 2)


def test_characterization_predicts_stage_trees():
    """Positive direction of the characterization on random g=3 patterns."""
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        gen = random_valid_generator(3, rng)
        if not is_tree_fractal_generator(gen)[0]:
            continue
        checked += 1
        for s in (1, 2, 3):
            assert stage_property(gen, s), format_generator(gen)


def test_characterization_iff_stage_three_tree_for_g2():
    """Both directions, exhaustively at g=2, with an independent tree test."""

    def oracle_is_tree(pts):
        return is_connected(pts) and len(grid_edges(pts)) == len(pts) - 1

    stats = census(2)
    seen = 0
    for mask in range(8):
        extra = [(1, 0), (0, 1), (1, 1)]
        cells = frozenset(
            {(0, 0)} | {p for i, p in enumerate(extra) if mask >> i & 1}
        )
        try:
            gen = Generator(2, cells)
        except ValueError:
            continue
        seen += 1
        assert is_tree_fractal_generator(gen)[0] == oracle_is_tree(stage(gen, 3))
    assert seen == stats.valid


# ---------------------------------------------------------------------------
# Piers and anchors


def test_sierpinski_piers(sierpinski):
    got = [(p.position, p.pointing, p.taxonomy) for p in piers(sierpinski)]
    assert got == [
        ((1, 0), Direction.E, TAXONOMY_PARALLEL),
        ((0, 1), Direction.N, TAXONOMY_PARALLEL),
    ]


def test_l_generator_piers_are_its_leaves(l_gen):
    got = {(p.position, p.pointing) for p in piers(l_gen)}
    assert got == {((0, 0), Direction.W), ((1, 1), Direction.N)}
    assert all(p.taxonomy == TAXONOMY_PARALLEL for p in piers(l_gen))


def test_hook4_piers(hook4):
    got = [(p.position, p.pointing, p.taxonomy) for p in piers(hook4)]
    assert got == [
        ((2, 0), Direction.E, TAXONOMY_ORTHOGONAL),
        ((3, 2), Direction.E, TAXONOMY_PARALLEL),
        ((2, 3), Direction.N, TAXONOMY_PARALLEL),
    ]


def test_real_pier_detection(real_pier_gen):
    by_pos = {p.position: p for p in piers(real_pier_gen)}
    assert by_pos[(2, 3)].taxonomy == TAXONOMY_REAL
    assert by_pos[(2, 3)].pointing is Direction.N


def test_tree_fractal_generators_have_two_piers():
    """A tree-fractal generator has at least two piers, and at most one of
    them is a double-bridge pier, so select_pier_anchor always has a usable
    one to choose."""
    swept = 0
    for g in (2, 3, 4):
        for gen in census(g, allow_large=True).tree_fractal_generators:
            kinds = [p.taxonomy for p in piers(gen)]
            assert len(kinds) >= 2, format_generator(gen)
            assert kinds.count(TAXONOMY_DOUBLE) <= 1, format_generator(gen)
            swept += 1
    assert swept == 227


def test_no_double_bridge_piers_in_small_tree_fractals():
    """Sides 2 and 3 have no double-bridge pier; side 4 is the first side
    where the selection rule has to skip one."""
    for g in (2, 3):
        for gen in census(g).tree_fractal_generators:
            assert all(p.taxonomy != "double-bridge" for p in piers(gen))


def test_select_pier_anchor_sierpinski(sierpinski):
    a = select_pier_anchor(sierpinski)
    assert a.pier == (0, 1)
    assert a.anchor == (1, 0)
    assert a.glue_side is Direction.S
    assert a.bridge_offset == 0


def test_select_pier_anchor_hook4_default(hook4):
    a = select_pier_anchor(hook4)
    assert a.pier == (2, 3)
    assert a.anchor == (1, 2)
    assert a.glue_side is Direction.S
    assert a.bridge_offset == 2


def test_select_pier_anchor_hook4_forced_east_pier(hook4):
    a = select_pier_anchor(hook4, pier=(3, 2))
    assert a.pier == (3, 2)
    assert a.anchor == (0, 1)
    assert a.glue_side is Direction.W
    assert a.bridge_offset == 2


def test_real_pier_anchors_at_itself(real_pier_gen):
    a = select_pier_anchor(real_pier_gen)
    assert a.pier == (2, 3)
    assert a.anchor == a.pier


def test_select_pier_anchor_rejects_bad_inputs(sierpinski):
    full = Generator(2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    with pytest.raises(ValueError, match="not a tree-fractal generator"):
        select_pier_anchor(full)
    with pytest.raises(ValueError, match="is not a pier"):
        select_pier_anchor(sierpinski, pier=(0, 0))


# Both piers are orthogonal.  The chosen one, (0, 1), points north from the
# west edge, so its anchor is the westmost cell of its own row off that
# edge, (2, 1).
ORTHOGONAL4_CELLS = frozenset(
    {(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)}
)


def test_select_pier_anchor_mirrors_cells_not_generators():
    a = select_pier_anchor(Generator(4, ORTHOGONAL4_CELLS))
    assert a.pier == (0, 1)
    assert a.anchor == (2, 1)
    assert a.glue_side is Direction.S
    assert a.bridge_offset == 2


def test_anchor_sweep_over_all_small_tree_fractal_generators():
    """Every tree-fractal generator of side 2-4 gets an anchor at one of its
    piers, whose stage-2 window touches the rest of the stage on glue_side
    alone, at one pair."""
    swept = 0
    for g in (2, 3, 4):
        for gen in census(g, allow_large=True).tree_fractal_generators:
            a = select_pier_anchor(gen)
            assert a.pier in {p.position for p in piers(gen)}, gen
            inside = window_inside(WindowSpec(1, 2, g, a.anchor, a.pier))
            contacts = boundary_contacts(inside, stage(gen, 2))
            assert [d for d in DIRECTIONS if contacts[d]] == [a.glue_side], gen
            assert len(contacts[a.glue_side]) == 1, gen
            swept += 1
    assert swept == 227


# ---------------------------------------------------------------------------
# Free points

ROW_AND_HOOK = frozenset(
    {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (2, 2), (3, 2), (2, 3), (3, 3)}
)
COLUMN_AND_SPUR = frozenset(
    {(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (3, 2), (3, 3)}
)


def oracle_north(pts, comp):
    top = max(y for _, y in pts)
    return {
        p
        for p in pts - comp
        if (p[0], p[1] + 1) not in pts and p[1] < top
    }


def oracle_northeast(pts, comp):
    top = max(y for _, y in pts)
    right = max(x for x, _ in pts)
    return {
        p
        for p in pts - comp
        if (p[0] + 1, p[1]) not in pts and p[1] == top and p[0] < right
    }


def oracle_east(pts, comp):
    right = max(x for x, _ in pts)
    return {
        p
        for p in pts - comp
        if (p[0] + 1, p[1]) not in pts and p[0] < right
    }


def test_free_point_north_fixture():
    comp = frozenset({(2, 2), (3, 2), (2, 3), (3, 3)})
    p = free_point_north(ROW_AND_HOOK, comp)
    assert p == (2, 0)
    assert p in oracle_north(ROW_AND_HOOK, comp)


def test_free_point_northeast_fixture():
    comp = frozenset({(3, 2), (3, 3)})
    p = free_point_northeast(COLUMN_AND_SPUR, comp)
    assert p == (1, 3)
    assert oracle_northeast(COLUMN_AND_SPUR, comp) == {(1, 3)}


def test_free_point_east_fixture():
    comp = frozenset({(3, 2), (3, 3)})
    p = free_point_east(COLUMN_AND_SPUR, comp)
    assert p == (0, 2)
    assert p in oracle_east(COLUMN_AND_SPUR, comp)


def test_free_point_precondition_errors():
    with pytest.raises(ValueError, match="not a connected component"):
        free_point_north(ROW_AND_HOOK, {(2, 2), (2, 3)})
    with pytest.raises(ValueError, match="touches the leftmost column"):
        free_point_north(
            frozenset({(0, 0), (1, 0), (2, 0), (3, 0), (0, 2), (1, 2)}),
            {(0, 2), (1, 2)},
        )
    with pytest.raises(ValueError, match="does not reach the top row"):
        free_point_north(
            frozenset({(0, 0), (1, 0), (2, 0), (3, 0), (2, 2), (1, 3)}),
            {(2, 2)},
        )
    with pytest.raises(ValueError, match="no connected horizontal bridge"):
        free_point_north(
            frozenset({(0, 0), (1, 1), (2, 2), (2, 3), (3, 3)}),
            {(2, 2), (2, 3), (3, 3)},
        )
    with pytest.raises(ValueError, match="does not reach the rightmost column"):
        free_point_east(
            COLUMN_AND_SPUR, {(0, 0), (0, 1), (0, 2), (0, 3), (1, 3)}
        )
    with pytest.raises(ValueError, match="touches the bottom row"):
        free_point_east(
            frozenset({(0, 0), (0, 1), (0, 2), (0, 3), (2, 0), (3, 0)}),
            {(2, 0), (3, 0)},
        )
    with pytest.raises(ValueError, match="does not reach the top row"):
        free_point_northeast(
            frozenset({(0, 0), (0, 1), (0, 2), (0, 3), (3, 1), (3, 2)}),
            {(3, 1), (3, 2)},
        )


def random_tree_generator(g, rng, tries=400):
    """Random tree pattern covering every row and column, or None."""
    for _ in range(tries):
        cells = {(0, 0)}
        boundary = [(0, 1), (1, 0)]
        target = rng.randrange(2 * g, g * g)
        while boundary and len(cells) < target:
            p = boundary.pop(rng.randrange(len(boundary)))
            if p in cells or sum(q in cells for q in neighbors(p)) != 1:
                continue
            cells.add(p)
            for q in neighbors(p):
                if 0 <= q[0] < g and 0 <= q[1] < g and q not in cells:
                    boundary.append(q)
        if {x for x, _ in cells} == set(range(g)) and {y for _, y in cells} == set(
            range(g)
        ):
            gen = Generator(g, frozenset(cells))
            if is_tree_fractal_generator(gen)[0]:
                return gen
    return None


def detachment_corpus(count=100, seed=20260816):
    """(point set, component) pairs made by deleting one generator cell."""
    rng = random.Random(seed)
    gens, seen = [], set()
    while len(gens) < count:
        gen = random_tree_generator(rng.choice((4, 5, 6)), rng)
        if gen is not None and gen.cells not in seen:
            seen.add(gen.cells)
            gens.append(gen)
    pairs = []
    for gen in gens:
        for cut in sorted(gen.cells):
            rest = gen.cells - {cut}
            comps = connected_components(rest)
            if len(comps) < 2:
                continue
            pairs.extend((rest, comp) for comp in comps)
    return pairs


def test_free_points_against_brute_force_oracle():
    pairs = detachment_corpus()
    hits = {"north": 0, "northeast": 0, "east": 0}
    cases = (
        ("north", free_point_north, oracle_north),
        ("northeast", free_point_northeast, oracle_northeast),
        ("east", free_point_east, oracle_east),
    )
    for rest, comp in pairs:
        for name, fn, oracle in cases:
            try:
                p = fn(rest, comp)
            except ValueError:
                continue  # preconditions not met; not a corpus case
            hits[name] += 1
            assert p in oracle(rest, comp), (name, sorted(rest), sorted(comp))
    assert all(n >= 20 for n in hits.values()), hits


# free_point_north's refusals, as free_point_east words them on the transpose
TRANSPOSED_REFUSALS = {
    "C is not a connected component of G": "C is not a connected component of G",
    "component does not reach the top row": "component does not reach the rightmost column",
    "component touches the leftmost column": "component touches the bottom row",
    "no connected horizontal bridge": "no connected vertical bridge",
}


def test_free_point_east_is_north_transposed():
    def flip(points):
        return frozenset((y, x) for x, y in points)

    found = refused = 0
    for rest, comp in detachment_corpus():
        try:
            x, y = free_point_north(rest, comp)
        except ValueError as exc:
            with pytest.raises(ValueError) as east:
                free_point_east(flip(rest), flip(comp))
            assert str(east.value) == TRANSPOSED_REFUSALS[str(exc)]
            refused += 1
            continue
        assert free_point_east(flip(rest), flip(comp)) == (y, x)
        found += 1
    assert (found, refused) == (146, 1895)


# ---------------------------------------------------------------------------
# Census


def test_census_g2_counts():
    stats = census(2)
    assert stats.candidates == 8
    assert stats.valid == 5
    assert stats.tree_fractal == 3


def _census_by_masks(g):
    """The census as a loop over every origin-containing mask, bit k being
    the k-th cell after the origin in row-major order: the oracle for the
    tree growth.  Returns (valid, generators, taxonomy, trees)."""
    order = [(x, y) for y in range(g) for x in range(g) if (x, y) != (0, 0)]
    valid = 0
    found = []
    taxonomy = Counter()
    trees = set()
    for mask in range(1 << len(order)):
        cells = frozenset({(0, 0)} | {p for k, p in enumerate(order) if mask >> k & 1})
        if is_tree(cells):
            trees.add(cells)
        if {x for x, _ in cells} != set(range(g)) or {y for _, y in cells} != set(range(g)):
            continue
        valid += 1
        gen = Generator(g, cells)
        if is_tree_fractal_generator(gen)[0]:
            found.append(gen)
            taxonomy.update(pr.taxonomy for pr in piers(gen))
    return valid, tuple(found), dict(taxonomy), trees


@pytest.mark.parametrize("g, n_trees", [(2, 6), (3, 56), (4, 1426)])
def test_census_matches_mask_loop(g, n_trees):
    stats = census(g, allow_large=True)
    valid, found, taxonomy, trees = _census_by_masks(g)
    assert stats.candidates == 1 << (g * g - 1)
    assert stats.valid == valid
    assert stats.tree_fractal == len(found)
    assert stats.taxonomy == taxonomy
    assert stats.tree_fractal_generators == found
    grown = list(_origin_trees(g))
    assert len(grown) == len(set(grown)) == n_trees
    assert set(grown) == trees


def test_census_rejects_unreasonable_sides():
    with pytest.raises(ValueError, match="side must be at least 2"):
        census(1)
    with pytest.raises(ValueError, match="allow_large"):
        census(4)
    with pytest.raises(ValueError, match="up to 4"):
        census(5)


def test_random_valid_generator_is_deterministic():
    a = [random_valid_generator(3, random.Random(5)) for _ in range(3)]
    b = [random_valid_generator(3, random.Random(5)) for _ in range(3)]
    assert a == b
