"""Tests for window point sets, stage-window arithmetic, and enclosure."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fractile import (
    Direction,
    WindowSpec,
    boundary_contacts,
    closed_window,
    enclosure_bound_ok,
    enclosure_margin,
    encloses,
    free_sides,
    stage,
    translate,
    translation,
    window_inside,
)


def square(corner, side):
    """Filled axis-aligned square, SW corner given."""
    ox, oy = corner
    return frozenset((ox + dx, oy + dy) for dx in range(side) for dy in range(side))


def contacts_by_side(w, shape):
    return {d: len(pairs) for d, pairs in boundary_contacts(w, shape).items()}


class TestClosedWindow:
    """A closed window is the plain frozenset of a filled square's points;
    its cut is the set of edges leaving them."""

    def test_accepts_filled_squares(self):
        for side in (1, 2, 5):
            spec = WindowSpec(side, 2, 4, (0, 1), (3, 2))
            w = closed_window(spec)
            assert len(w) == side * side
            assert type(w) is frozenset
            assert w == square(spec.corner, side)

    def test_translate(self):
        # a shifted square is still a closed window
        w = square((0, 0), 2)
        assert translate(w, (5, -1)) == square((5, -1), 2)

    def test_cut_edges_unit_window(self):
        # against a shape covering the whole cut, boundary_contacts lists
        # exactly the cut edges
        w = frozenset({(4, 7)})
        contacts = boundary_contacts(w, square((3, 6), 3))
        assert contacts == {
            Direction.N: [((4, 7), (4, 8))],
            Direction.E: [((4, 7), (5, 7))],
            Direction.S: [((4, 7), (4, 6))],
            Direction.W: [((4, 7), (3, 7))],
        }

    def test_cut_edges_point_from_inside(self):
        w = square((0, 0), 3)
        for d, pairs in boundary_contacts(w, square((-1, -1), 5)).items():
            for p, q in pairs:
                assert p in w and q not in w and d(p) == q

    def test_cut_size_is_perimeter(self):
        # a filled n-square has exactly n outgoing edges per side
        for side in (1, 2, 3, 6):
            w = square((-1, 2), side)
            shape = square((-2, 1), side + 2)
            assert contacts_by_side(w, shape) == {d: side for d in Direction}


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="scale factor must be >= 1, got 0"):
            WindowSpec(0, 2, 2, (0, 0), (0, 1))
        with pytest.raises(ValueError, match="stage windows exist from stage 2"):
            WindowSpec(1, 1, 2, (0, 0), (0, 1))
        with pytest.raises(ValueError, match="side must be at least 2"):
            WindowSpec(1, 2, 1, (0, 0), (0, 0))
        with pytest.raises(ValueError, match=r"anchor outside 4x4 square: \(4, 0\)"):
            WindowSpec(1, 2, 4, (4, 0), (0, 1))
        with pytest.raises(ValueError, match="pier outside"):
            WindowSpec(1, 2, 4, (0, 0), (0, -1))

    def test_side_and_corner(self):
        spec = WindowSpec(1, 2, 4, (0, 1), (3, 2))
        assert spec.side == 1
        assert spec.corner == (3, 6)
        bigger = WindowSpec(1, 3, 4, (0, 1), (3, 2))
        assert bigger.side == 4
        assert bigger.corner == (12, 24)

    def test_scale_linearity(self):
        spec = WindowSpec(2, 2, 4, (0, 1), (3, 2))
        assert spec.side == 2
        assert spec.corner == (6, 12)

    def test_window_inside(self):
        spec = WindowSpec(1, 2, 4, (0, 1), (3, 2))
        assert window_inside(spec) == frozenset({(3, 6)})
        bigger = WindowSpec(1, 3, 4, (0, 1), (3, 2))
        assert window_inside(bigger) == square((12, 24), 4)

    def test_sierpinski_pier_window(self, sierpinski):
        # the stage-2 window at the selected pier covers exactly one cell
        spec = WindowSpec(1, 2, sierpinski.g, (1, 0), (0, 1))
        assert window_inside(spec) == frozenset({(2, 1)})

    def test_closed_window_of_spec(self):
        spec = WindowSpec(2, 3, 3, (1, 1), (0, 2))
        w = closed_window(spec)
        assert isinstance(w, frozenset)
        assert w == window_inside(spec) == square(spec.corner, spec.side)


class TestTranslation:
    def test_known_vector(self):
        assert translation(1, 4, 2, 3, 0, 1, 3, 2) == (9, 18)

    def test_zero_anchor(self):
        assert translation(1, 4, 2, 3, 0, 0, 0, 0) == (0, 0)

    def test_stage_order_errors(self):
        for i, j in ((3, 3), (4, 2), (1, 3)):
            with pytest.raises(ValueError, match="stages must satisfy 2 <= i < j"):
                translation(1, 2, i, j, 0, 0, 0, 0)

    def test_carries_corner_to_corner(self):
        # translating the small window's SW corner lands on the big one's
        for c in (1, 2):
            for g in (2, 3, 4):
                for i, j in ((2, 3), (2, 4), (3, 4)):
                    for e, f, p, q in ((0, 0, 0, 0), (0, 1, 1, 0), (g - 1,) * 4):
                        a = WindowSpec(c, i, g, (e, f), (p, q))
                        b = WindowSpec(c, j, g, (e, f), (p, q))
                        vec = translation(c, g, i, j, e, f, p, q)
                        assert (a.corner[0] + vec[0], a.corner[1] + vec[1]) == b.corner


class TestEnclosure:
    def test_margin(self):
        assert enclosure_margin(1, 4, 2, 3) == 3
        assert enclosure_margin(2, 4, 2, 3) == 6
        assert enclosure_margin(1, 2, 2, 4) == 3
        with pytest.raises(ValueError, match="stages must satisfy"):
            enclosure_margin(1, 4, 3, 3)

    def test_bound_examples(self):
        assert enclosure_bound_ok(1, 4, 2, 3, 0, 2)
        assert not enclosure_bound_ok(1, 4, 2, 3, 0, 4)
        m = enclosure_margin(1, 4, 2, 3)
        assert enclosure_bound_ok(1, 4, 2, 3, m, m)

    def test_bound_rejects_negative_shift(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enclosure_bound_ok(1, 4, 2, 3, -1, 0)

    def test_encloses_examples(self):
        small = window_inside(WindowSpec(1, 2, 4, (0, 1), (3, 2)))
        big = window_inside(WindowSpec(1, 3, 4, (0, 1), (3, 2)))
        vec = translation(1, 4, 2, 3, 0, 1, 3, 2)
        shifted = translate(small, vec)
        assert encloses(big, shifted)
        assert encloses(small, small)
        assert not encloses(small, square((40, 40), 2))

    def test_shifted_window_enclosure_matches_bound(self):
        # the arithmetic bound and the geometric subset test must agree:
        # every shift within the margin keeps the translated small window
        # inside the big one, and one step past the margin breaks it
        rng = random.Random(5)
        checked = 0
        for c in (1, 2):
            for g in (2, 3, 4):
                for i, j in ((2, 3), (2, 4), (3, 4)):
                    m = enclosure_margin(c, g, i, j)
                    for _ in range(12):
                        e, f, p, q = (rng.randrange(g) for _ in range(4))
                        small = window_inside(WindowSpec(c, i, g, (e, f), (p, q)))
                        big = window_inside(WindowSpec(c, j, g, (e, f), (p, q)))
                        tx, ty = translation(c, g, i, j, e, f, p, q)
                        for x, y in ((0, 0), (m, 0), (0, m), (m, m)):
                            assert enclosure_bound_ok(c, g, i, j, x, y)
                            moved = translate(small, (tx + x, ty + y))
                            assert encloses(big, moved)
                        for x, y in ((m + 1, 0), (0, m + 1)):
                            assert not enclosure_bound_ok(c, g, i, j, x, y)
                            moved = translate(small, (tx + x, ty + y))
                            assert not encloses(big, moved)
                        checked += 1
        assert checked >= 200


class TestBoundaryContacts:
    def test_pier_window_touches_only_south(self, sierpinski):
        shape = stage(sierpinski, 2)
        w = window_inside(WindowSpec(1, 2, 2, (1, 0), (0, 1)))
        contacts = boundary_contacts(w, shape)
        assert contacts[Direction.S] == [((2, 1), (2, 0))]
        for d in (Direction.N, Direction.E, Direction.W):
            assert contacts[d] == []
        assert free_sides(w, shape) == (Direction.N, Direction.E, Direction.W)

    def test_origin_block_contacts(self, sierpinski):
        shape = stage(sierpinski, 2)
        contacts = boundary_contacts(square((0, 0), 2), shape)
        assert contacts[Direction.E] == [((1, 0), (2, 0))]
        assert contacts[Direction.N] == [((0, 1), (0, 2))]
        assert contacts[Direction.S] == [] and contacts[Direction.W] == []

    def test_contact_lists_sorted(self):
        shape = square((0, 0), 4)
        contacts = boundary_contacts(square((0, 0), 2), shape)
        for pairs in contacts.values():
            assert pairs == sorted(pairs)
        assert contacts[Direction.E] == [((1, 0), (2, 0)), ((1, 1), (2, 1))]


@given(
    st.integers(min_value=1, max_value=4),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_window_translation_round_trips(side, corner, vec):
    w = square(corner, side)
    moved = translate(w, vec)
    assert translate(moved, (-vec[0], -vec[1])) == w
    shape = square((corner[0] - 1, corner[1] - 1), side + 2)
    assert contacts_by_side(moved, translate(shape, vec)) == contacts_by_side(w, shape)
