"""Tests for window movies, bond-forming submovies, and splicing."""

import pytest

from fractile import (
    Assembly,
    Box,
    Direction,
    Glue,
    GlueEvent,
    SequenceEvent,
    SpliceError,
    TileSystem,
    TileType,
    WindowMovie,
    bond_forming,
    format_movie,
    record_movie,
    replay,
    run,
    splice,
)
from fractile.movies import submovie_matches


@pytest.fixture
def ribbon_run(ribbon_system, ribbon_region):
    """The column {(0,0)..(0,3)}, grown bottom-up: the canonical periodic
    sequence all the movie tests look at."""
    return run(ribbon_system, ribbon_region)


def movie_at(seq, cells):
    return record_movie(seq, frozenset(cells))


def submovie_at(seq, cells):
    movie = movie_at(seq, cells)
    return bond_forming(movie, seq.result)


def shifted(sub, vec):
    """``sub`` with every vertex moved by ``vec``, steps kept."""
    return WindowMovie(
        tuple(
            GlueEvent(e.step, (e.vertex[0] + vec[0], e.vertex[1] + vec[1]), e.orientation, e.glue)
            for e in sub.events
        )
    )


def event_tuples(movie):
    return [
        (e.step, e.vertex, e.orientation, e.glue.label, e.glue.strength)
        for e in movie.events
    ]


class TestRecordMovie:
    def test_untouched_window_gives_empty_movie(self, ribbon_run):
        assert movie_at(ribbon_run, {(5, 5)}).events == ()

    def test_ribbon_trace(self, ribbon_run):
        n = Glue("n", 1)
        assert event_tuples(movie_at(ribbon_run, {(0, 1)})) == [
            (0, (0, 0), Direction.N, "n", 1),
            (1, (0, 1), Direction.S, "n", 1),
            (1, (0, 1), Direction.N, "n", 1),
            (2, (0, 2), Direction.S, "n", 1),
        ]

    def test_one_placement_can_emit_four_ordered_events(self):
        # a tile landing inside a 1x1 window presents all four sides at
        # once; ties are broken by orientation unit vector, so W, S, N, E
        g = Glue("u", 1)
        t = TileType("u", g, g, g, g)
        system = TileSystem((t,), Assembly({(0, 0): t}), 1)
        seq = run(system, Box(0, 0, 1, 0))
        movie = movie_at(seq, {(1, 0)})
        placement = [e for e in movie.events if e.step == 1]
        assert [e.orientation for e in placement] == [
            Direction.W,
            Direction.S,
            Direction.N,
            Direction.E,
        ]
        assert [e.vertex for e in placement] == [(1, 0)] * 4

    def test_zero_strength_sides_never_recorded(self, ribbon_run):
        # col tiles have null E/W glues; no event mentions those sides
        for cells in ({(0, 0)}, {(0, 1)}, {(0, 2)}):
            for e in movie_at(ribbon_run, cells).events:
                assert e.orientation in (Direction.N, Direction.S)

    def test_deterministic(self, ribbon_run):
        a = record_movie(ribbon_run, frozenset({(0, 1)}))
        b = record_movie(ribbon_run, frozenset({(0, 1)}))
        assert a == b


class TestBondForming:
    def test_all_interior_events_kept(self, ribbon_run):
        movie = movie_at(ribbon_run, {(0, 1)})
        sub = bond_forming(movie, ribbon_run.result)
        assert sub.events == movie.events

    def test_glue_facing_empty_cell_excluded(self, ribbon_run):
        movie = movie_at(ribbon_run, {(0, 3)})
        sub = bond_forming(movie, ribbon_run.result)
        assert (3, (0, 3), Direction.N, "n", 1) in event_tuples(movie)
        assert all(e.vertex != (0, 3) or e.orientation is not Direction.N for e in sub.events)
        assert len(sub.events) == len(movie.events) - 1

    def test_mismatched_facing_glues_both_excluded(self):
        # a square whose top edge presents positive but unequal labels:
        # both presentations enter the movie, neither survives into B(M)
        t00 = TileType("t00", east=Glue("b0", 1), north=Glue("s0", 1))
        t10 = TileType("t10", west=Glue("b0", 1), north=Glue("r0", 1))
        t11 = TileType("t11", south=Glue("r0", 1), west=Glue("p", 1))
        t01 = TileType("t01", south=Glue("s0", 1), east=Glue("q", 1))
        system = TileSystem((t00, t10, t11, t01), Assembly({(0, 0): t00}), 1)
        events = [
            SequenceEvent(1, (1, 0), t10),
            SequenceEvent(2, (1, 1), t11),
            SequenceEvent(3, (0, 1), t01),
        ]
        result = replay(system, events)
        seq_movie = record_movie(
            type("Seq", (), {"initial": system.seed, "events": tuple(events)})(),
            frozenset({(1, 1)}),
        )
        labels = [e.glue.label for e in seq_movie.events]
        assert "p" in labels and "q" in labels
        sub = bond_forming(seq_movie, result)
        # the bonded edge keeps both of its presentations; p and q vanish
        assert [e.glue.label for e in sub.events] == ["r0", "r0"]

    def test_idempotent(self, ribbon_run):
        movie = movie_at(ribbon_run, {(0, 3)})
        sub = bond_forming(movie, ribbon_run.result)
        again = bond_forming(WindowMovie(sub.events), ribbon_run.result)
        assert again.events == sub.events


class TestMatching:
    def test_adjacent_ribbon_windows_match_one_period_up(self, ribbon_run):
        a = submovie_at(ribbon_run, {(0, 1)})
        b = submovie_at(ribbon_run, {(0, 2)})
        assert submovie_matches(a, b, (0, 1))
        assert not submovie_matches(a, b, (0, 2))
        assert not submovie_matches(a, b, (0, 0))

    def test_antisymmetric(self, ribbon_run):
        a = submovie_at(ribbon_run, {(0, 1)})
        b = submovie_at(ribbon_run, {(0, 2)})
        assert submovie_matches(b, a, (0, -1))
        assert not submovie_matches(b, a, (0, 1))

    def test_identical_movies_do_not_match(self, ribbon_run):
        # a nonempty movie is its own translate only under the zero shift,
        # which splice refuses
        a = submovie_at(ribbon_run, {(0, 1)})
        assert submovie_matches(a, a, (0, 0))
        for vec in ((0, 1), (1, 0), (-1, -1)):
            assert not submovie_matches(a, a, vec)

    def test_constructed_shift_recovered(self, ribbon_run):
        a = submovie_at(ribbon_run, {(0, 1)})
        moved = shifted(a, (9, 20))
        assert submovie_matches(a, moved, (9, 20))
        assert submovie_matches(moved, a, (-9, -20))
        assert not submovie_matches(a, moved, (9, 19))

    def test_glue_label_difference_spoils_match(self, ribbon_run):
        a = submovie_at(ribbon_run, {(0, 1)})
        events = list(shifted(a, (0, 1)).events)
        last = events[-1]
        events[-1] = GlueEvent(last.step, last.vertex, last.orientation, Glue("m", 1))
        assert submovie_matches(a, shifted(a, (0, 1)), (0, 1))
        assert not submovie_matches(a, WindowMovie(tuple(events)), (0, 1))

    def test_empty_movies_match_under_any_shift(self, ribbon_run):
        empty = WindowMovie(())
        for vec in ((0, 0), (1, 0), (-3, 7)):
            assert submovie_matches(empty, empty, vec)
        a = submovie_at(ribbon_run, {(0, 1)})
        assert not submovie_matches(empty, a, (0, 0))
        assert not submovie_matches(a, empty, (0, 0))

    def test_steps_are_ignored_order_is_not(self, ribbon_run):
        a = submovie_at(ribbon_run, {(0, 1)})
        renumbered = WindowMovie(
            tuple(
                GlueEvent(100 + i, e.vertex, e.orientation, e.glue)
                for i, e in enumerate(shifted(a, (0, 1)).events)
            )
        )
        assert submovie_matches(a, renumbered, (0, 1))
        reordered = WindowMovie(renumbered.events[::-1])
        assert not submovie_matches(a, reordered, (0, 1))

    def test_canonical_key_identifies_translates(self, ribbon_run):
        a = submovie_at(ribbon_run, {(0, 1)})
        b = submovie_at(ribbon_run, {(0, 2)})
        c = submovie_at(ribbon_run, {(0, 3)})
        assert a.canonical() == b.canonical()
        assert a.canonical() != c.canonical()


class TestSplice:
    def test_period_transplant(self, ribbon_run):
        spliced = splice(ribbon_run, {(0, 1)}, {(0, 2)}, (0, 1))
        assert spliced.result.domain == ribbon_run.result.domain
        assert [e.index for e in spliced.events] == [1, 2, 3]
        assert spliced.start is None
        replayed = replay(spliced.system, spliced.events, start=spliced.initial)
        assert dict(replayed) == dict(spliced.result)

    def test_result_is_outer_union_shifted_inner(self, ribbon_run):
        spliced = splice(ribbon_run, {(0, 1)}, {(0, 2)}, (0, 1))
        outer = ribbon_run.result.domain - {(0, 2)}
        shifted_inner = {(0, 2)}
        assert spliced.result.domain == outer | shifted_inner

    def test_degenerate_splice_away_from_assembly(self, ribbon_run):
        spliced = splice(ribbon_run, {(5, 5)}, {(5, 6)}, (0, 1))
        assert spliced.result.domain == ribbon_run.result.domain

    def test_seed_inside_both_windows_relocates_start(self, ribbon_run):
        big = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
        spliced = splice(ribbon_run, {(0, 0)}, big, (0, 1))
        assert spliced.start is not None
        assert spliced.initial.domain == frozenset({(0, 1)})
        assert spliced.result.domain == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_zero_shift_rejected(self, ribbon_run):
        with pytest.raises(SpliceError, match="translation hypothesis failed"):
            splice(ribbon_run, {(0, 1)}, {(0, 2)}, (0, 0))

    def test_enclosure_violation_rejected(self, ribbon_run):
        with pytest.raises(SpliceError, match="enclosure hypothesis failed"):
            splice(ribbon_run, {(0, 1)}, {(0, 3)}, (0, 3))

    def test_straddling_seed_rejected(self, ribbon_run):
        with pytest.raises(SpliceError, match="seed placement hypothesis failed"):
            splice(ribbon_run, {(0, 0)}, {(0, 3)}, (0, 3))

    def test_movie_mismatch_rejected(self, ribbon_run):
        with pytest.raises(SpliceError, match="movie hypothesis failed"):
            splice(ribbon_run, {(0, 1)}, {(0, 3)}, (0, 2))


class TestFormatMovie:
    def test_ribbon_movie_text(self, ribbon_run):
        movie = movie_at(ribbon_run, {(0, 1)})
        assert format_movie(movie) == (
            "0 0 0 N n 1\n1 0 1 S n 1\n1 0 1 N n 1\n2 0 2 S n 1\n"
        )

    def test_empty_movie_text(self, ribbon_run):
        assert format_movie(movie_at(ribbon_run, {(5, 5)})) == ""
