"""Lattice helpers against brute-force oracles.

Connectivity is cross-checked with a union-find over all small subsets of a
3x3 board, and the tree predicate against the edge-count characterization
(connected with exactly |S|-1 edges).
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from fractile import DIRECTIONS, Direction, Glue, TileType, is_connected, neighbors, translate
from fractile.grid import connected_components, extents, free_directions, grid_edges, is_tree
from fractile.stability import _sides

BOARD3 = [(x, y) for y in range(3) for x in range(3)]


class UnionFind:
    def __init__(self, items):
        self.parent = {p: p for p in items}

    def find(self, p):
        while self.parent[p] != p:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        return p

    def union(self, p, q):
        self.parent[self.find(p)] = self.find(q)


def oracle_components(points):
    uf = UnionFind(points)
    for p, q in itertools.combinations(points, 2):
        if abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1:
            uf.union(p, q)
    groups = {}
    for p in points:
        groups.setdefault(uf.find(p), set()).add(p)
    return sorted((frozenset(g) for g in groups.values()), key=sorted)


def all_subsets(board):
    for mask in range(1, 1 << len(board)):
        yield frozenset(p for i, p in enumerate(board) if mask >> i & 1)


def test_connectivity_matches_union_find_on_all_3x3_subsets():
    for pts in all_subsets(BOARD3):
        want = len(oracle_components(pts)) == 1
        assert is_connected(pts) == want, pts


def test_components_match_union_find_on_all_3x3_subsets():
    for pts in all_subsets(BOARD3):
        got = sorted(connected_components(pts), key=sorted)
        assert got == oracle_components(pts), pts


def test_is_tree_matches_edge_count_oracle():
    for pts in all_subsets(BOARD3):
        want = is_connected(pts) and len(grid_edges(pts)) == len(pts) - 1
        assert is_tree(pts) == want, pts


def test_direction_units_and_inverses():
    assert Direction.N.unit == (0, 1)
    assert Direction.S.unit == (0, -1)
    assert Direction.E.unit == (1, 0)
    assert Direction.W.unit == (-1, 0)
    for d in DIRECTIONS:
        assert d.inverse().inverse() is d
        assert d.inverse().unit == (-d.unit[0], -d.unit[1])


def test_neighbors_order():
    assert neighbors((2, 5)) == ((2, 6), (3, 5), (2, 4), (1, 5))


def test_one_side_numbering():
    """A direction is its index into neighbors and into a tile's glues, and
    side d faces side d ^ 2."""
    t = TileType("t", Glue("n", 1), Glue("e", 2), Glue("s", 1), Glue("w", 2))
    for d in Direction:
        assert DIRECTIONS[d] is d
        assert d.inverse() is DIRECTIONS[d ^ 2]
        assert _sides(t)[d].label == d.name.lower()
        for p in [(0, 0), (2, 5), (-3, 4)]:
            assert d(p) == neighbors(p)[d]


def test_free_directions():
    pts = frozenset({(0, 0), (1, 0), (0, 1)})
    assert set(free_directions(pts, (0, 0))) == {Direction.S, Direction.W}
    assert set(free_directions(pts, (1, 0))) == {
        Direction.N,
        Direction.E,
        Direction.S,
    }


def test_extents():
    ext = extents({(1, 2), (4, 0), (2, 7)})
    assert (ext.left, ext.right, ext.bottom, ext.top) == (1, 4, 0, 7)
    with pytest.raises(ValueError, match="empty point set"):
        extents(())


points_strategy = st.frozensets(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=12
)


@given(points_strategy, st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_translate_preserves_structure(pts, vec):
    moved = translate(pts, vec)
    assert len(moved) == len(pts)
    assert is_connected(moved) == is_connected(pts)
    assert is_tree(moved) == is_tree(pts)
    back = translate(moved, (-vec[0], -vec[1]))
    assert back == pts


@given(points_strategy)
def test_components_partition_the_point_set(pts):
    comps = connected_components(pts)
    assert frozenset().union(*comps) == pts
    assert sum(len(c) for c in comps) == len(pts)
    for comp in comps:
        assert is_connected(comp)
