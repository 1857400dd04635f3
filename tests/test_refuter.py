"""Tests for the refutation pipeline and its fixture tile systems."""

import itertools

import pytest

from fractile import (
    Assembly,
    Box,
    Direction,
    Generator,
    NoMatchReport,
    PIER_LABELS_STAGED,
    PIER_LABELS_UNIFORM,
    RefutationConfig,
    SpliceCertificate,
    TAXONOMY_DOUBLE,
    TileSystem,
    WindowSpec,
    boundary_contacts,
    census,
    enclosure_bound_ok,
    format_certificate,
    format_no_match,
    piers,
    refute,
    replay,
    run,
    scale,
    select_pier_anchor,
    stage,
    translation,
    tree_edge_system,
    window_inside,
)
from fractile.refuter import alignment_offset, assembly_digest, generator_digest


@pytest.fixture
def uniform_system(sierpinski):
    return tree_edge_system(sierpinski, 4, PIER_LABELS_UNIFORM)


@pytest.fixture
def staged_system(sierpinski):
    return tree_edge_system(sierpinski, 4, PIER_LABELS_STAGED)


class TestTreeEdgeSystem:
    def test_builds_the_stage(self, sierpinski):
        system = tree_edge_system(sierpinski, 2)
        assert len(system.tiles) == 9
        assert system.temperature == 1
        assert system.seed.domain == frozenset({(0, 0)})
        grown = run(system, Box(0, 0, 3, 3))
        assert grown.result.domain == stage(sierpinski, 2)

    def test_tile_names_follow_cells(self, sierpinski):
        system = tree_edge_system(sierpinski, 2)
        assert {t.name for t in system.tiles} == {
            f"t{x}x{y}" for (x, y) in stage(sierpinski, 2)
        }

    def test_uniform_labels_share_the_pier_glue(self, uniform_system):
        labels = {
            g.label
            for t in uniform_system.tiles
            for g in (t.north, t.east, t.south, t.west)
        }
        assert "pier" in labels
        assert not any(label.startswith("pier2") for label in labels)

    def test_staged_labels_differ_per_stage(self, staged_system):
        labels = {
            g.label
            for t in staged_system.tiles
            for g in (t.north, t.east, t.south, t.west)
        }
        assert {"pier2", "pier3", "pier4"} <= labels
        assert "pier" not in labels

    def test_validation(self, sierpinski):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            tree_edge_system(sierpinski, 0)
        with pytest.raises(ValueError, match="unknown pier label scheme"):
            tree_edge_system(sierpinski, 2, "striped")


class TestAlignmentOffset:
    def test_east_pointing_pier(self, hook4):
        # east-pointing pier, glue line on the west side, bridge row 2
        anchor = select_pier_anchor(hook4, pier=(3, 2))
        assert anchor.glue_side is Direction.W
        assert anchor.bridge_offset == 2
        assert alignment_offset(hook4, 1, 2, 3, anchor) == (0, 2)

    def test_bridge_on_datum_row(self, sierpinski):
        anchor = select_pier_anchor(sierpinski)
        assert anchor.bridge_offset == 0
        for i, j in ((2, 3), (2, 4), (3, 4)):
            assert alignment_offset(sierpinski, 1, i, j, anchor) == (0, 0)

    def test_north_pointing_pier(self, hook4):
        anchor = select_pier_anchor(hook4)
        assert anchor.glue_side is Direction.S
        assert alignment_offset(hook4, 1, 2, 3, anchor) == (2, 0)

    def test_validation(self, sierpinski):
        anchor = select_pier_anchor(sierpinski)
        with pytest.raises(ValueError, match="stages must satisfy 2 <= i < j"):
            alignment_offset(sierpinski, 1, 3, 3, anchor)
        with pytest.raises(ValueError, match="scale factor must be >= 1"):
            alignment_offset(sierpinski, 0, 2, 3, anchor)

    def test_always_within_enclosure_margin(self):
        # refute relies on this and does not re-check it: for every
        # non-double pier of every tree-fractal generator of side 2-4, at
        # c in {1, 2, 3} and stage pairs up to 5, the full shift is nonzero
        # and carries the stage-i window into the stage-j window
        anchors = [
            (gen, select_pier_anchor(gen, pier=pr.position))
            for g in (2, 3, 4)
            for gen in census(g, allow_large=True).tree_fractal_generators
            for pr in piers(gen)
            if pr.taxonomy != TAXONOMY_DOUBLE
        ]
        # 6 + 12 + 740 non-double piers over the 3 + 5 + 219 generators
        assert len(anchors) == 758
        for gen, anchor in anchors:
            for c in (1, 2, 3):
                for i, j in itertools.combinations(range(2, 6), 2):
                    x, y = alignment_offset(gen, c, i, j, anchor)
                    assert enclosure_bound_ok(c, gen.g, i, j, x, y)
                    t = translation(c, gen.g, i, j, *anchor.anchor, *anchor.pier)
                    dx, dy = t[0] + x, t[1] + y
                    assert (dx, dy) != (0, 0), (gen, anchor, c, i, j)
                    # window_inside is the square of spec.side at spec.corner
                    w_i = WindowSpec(c, i, gen.g, anchor.anchor, anchor.pier)
                    w_j = WindowSpec(c, j, gen.g, anchor.anchor, anchor.pier)
                    x0, y0 = w_i.corner[0] + dx - w_j.corner[0], w_i.corner[1] + dy - w_j.corner[1]
                    slack = w_j.side - w_i.side
                    assert 0 <= x0 <= slack and 0 <= y0 <= slack, (gen, anchor, c, i, j)

    def test_shifts_glue_line_onto_glue_line(self, hook4):
        # for every tree-fractal generator of side 2-4, and for hook4's
        # east-pointing pier, the full shift (stage translation + alignment)
        # must carry the bonded boundary pair of each stage-i window exactly
        # onto that of the stage-j window, inside the actual fractal stage
        cases = [
            (gen, select_pier_anchor(gen))
            for g in (2, 3, 4)
            for gen in census(g, allow_large=True).tree_fractal_generators
        ]
        cases.append((hook4, select_pier_anchor(hook4, pier=(3, 2))))
        swept = 0
        for gen, anchor in cases:
            top = 4 if gen.g == 2 else 3
            points = stage(gen, top)
            for i, j in itertools.combinations(range(2, top + 1), 2):
                w_i = WindowSpec(1, i, gen.g, anchor.anchor, anchor.pier)
                w_j = WindowSpec(1, j, gen.g, anchor.anchor, anchor.pier)
                line_i = boundary_contacts(window_inside(w_i), points)[anchor.glue_side]
                line_j = boundary_contacts(window_inside(w_j), points)[anchor.glue_side]
                assert len(line_i) == 1 and len(line_j) == 1, (gen, i, j)
                t = translation(1, gen.g, i, j, *anchor.anchor, *anchor.pier)
                a = alignment_offset(gen, 1, i, j, anchor)
                dx, dy = t[0] + a[0], t[1] + a[1]
                shifted = [
                    ((px + dx, py + dy), (qx + dx, qy + dy))
                    for (px, py), (qx, qy) in line_i
                ]
                assert shifted == line_j, (gen, i, j)
                swept += 1
        # 227 generators plus hook4's second anchor; the 3 side-2 generators
        # have three stage pairs each, the other 225 anchors one
        assert len(cases) == 228
        assert swept == 3 * 3 + 225


class TestRefute:
    def test_uniform_labels_yield_certificate(self, sierpinski, uniform_system):
        cfg = RefutationConfig(sierpinski, 1, uniform_system, max_stage=4, policy_seed=1)
        cert = refute(cfg)
        assert isinstance(cert, SpliceCertificate)
        assert (cert.i, cert.j) == (2, 3)
        assert cert.alignment == (0, 0)
        assert cert.c_vec == (2, 1)
        assert len(cert.spliced_domain_diff) == 8
        assert len(cert.submovie.events) == 2
        assert all(e.glue.label == "pier" for e in cert.submovie.events)

    def test_certificate_replays_and_differs_from_target(self, sierpinski, uniform_system):
        cfg = RefutationConfig(sierpinski, 1, uniform_system, max_stage=4, policy_seed=1)
        cert = refute(cfg)
        replayed = replay(
            cert.spliced.system, cert.spliced.events, start=cert.spliced.initial
        )
        assert replayed.domain == cert.spliced.result.domain
        target = scale(stage(sierpinski, 4), 1)
        assert cert.spliced.result.domain != target
        assert set(cert.spliced_domain_diff) == cert.spliced.result.domain ^ target

    def test_domain_diff_row_major(self, sierpinski, uniform_system):
        cfg = RefutationConfig(sierpinski, 1, uniform_system, max_stage=4, policy_seed=1)
        cert = refute(cfg)
        diff = cert.spliced_domain_diff
        assert list(diff) == sorted(diff, key=lambda p: (p[1], p[0]))

    def test_deterministic(self, sierpinski, uniform_system):
        cfg = RefutationConfig(sierpinski, 1, uniform_system, max_stage=4, policy_seed=1)
        assert format_certificate(refute(cfg)) == format_certificate(refute(cfg))

    def test_lexicographic_run_has_vacuous_transplants(self, sierpinski, uniform_system):
        # deterministic bottom-up growth tiles every window interior
        # identically, so each matching pair is skipped as vacuous
        report = refute(RefutationConfig(sierpinski, 1, uniform_system, max_stage=4))
        assert isinstance(report, NoMatchReport)
        assert [g.stages for g in report.groups] == [(2, 3, 4)]
        assert all("identical window interiors" in note for note in report.notes)

    def test_staged_labels_never_match(self, sierpinski, staged_system):
        report = refute(RefutationConfig(sierpinski, 1, staged_system, max_stage=4))
        assert isinstance(report, NoMatchReport)
        assert report.stages == (2, 3, 4)
        assert [g.stages for g in report.groups] == [(2,), (3,), (4,)]
        assert all("submovies differ under shift" in note for note in report.notes)

    def test_staged_labels_never_match_uniform_policy(self, sierpinski, staged_system):
        for seed in (0, 1):
            report = refute(
                RefutationConfig(sierpinski, 1, staged_system, max_stage=4, policy_seed=seed)
            )
            assert isinstance(report, NoMatchReport)
            assert len(report.groups) == 3

    def test_seed_inside_one_window_is_skipped(self, sierpinski):
        # (2, 1) is the stage-2 window's one cell and lies outside the
        # stage-3 window
        system = tree_edge_system(sierpinski, 3)
        tile = next(t for t in system.tiles if t.name == "t2x1")
        seeded = TileSystem(system.tiles, Assembly({(2, 1): tile}), system.temperature)
        report = refute(RefutationConfig(sierpinski, 1, seeded, max_stage=3))
        assert isinstance(report, NoMatchReport)
        assert report.notes == ("stages 2->3: skipped by the seed rule (inside/outside)",)

    def test_no_growth_gives_one_empty_submovie(self, sierpinski, uniform_system):
        # with no step taken, only the origin seed is placed, and it
        # presents no glue along any pier window
        cfg = RefutationConfig(sierpinski, 1, uniform_system, max_stage=4, max_steps=0)
        text = format_no_match(refute(cfg))
        assert "distinct-submovies: 1\nsubmovie at stages 2 3 4:\n  (empty)\npair log:\n" in text
        assert text.count(": identical window interiors, transplant is vacuous\n") == 3

    def test_rejects_non_tree_fractal(self):
        full = Generator(2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
        system = tree_edge_system(Generator(2, frozenset({(0, 0), (1, 0), (0, 1)})), 2)
        with pytest.raises(ValueError, match="characterization failed: not a tree"):
            refute(RefutationConfig(full, 1, system, max_stage=4))

    def test_config_validation(self, sierpinski, uniform_system):
        with pytest.raises(ValueError, match="scale factor must be >= 1"):
            refute(RefutationConfig(sierpinski, 0, uniform_system))
        with pytest.raises(ValueError, match="max stage must be >= 2"):
            refute(RefutationConfig(sierpinski, 1, uniform_system, max_stage=1))


class TestSerialization:
    def test_digests_are_stable_hex(self, sierpinski, l_gen):
        d = generator_digest(sierpinski)
        assert len(d) == 64 and set(d) <= set("0123456789abcdef")
        assert generator_digest(sierpinski) == d
        assert generator_digest(l_gen) != d

    def test_assembly_digest_tracks_content(self, ribbon_system, ribbon_region):
        a = run(ribbon_system, ribbon_region).result
        b = run(ribbon_system, Box(0, 0, 0, 2)).result
        assert assembly_digest(a) == assembly_digest(a)
        assert assembly_digest(a) != assembly_digest(b)

    def test_certificate_text(self, sierpinski, uniform_system):
        cfg = RefutationConfig(sierpinski, 1, uniform_system, max_stage=4, policy_seed=1)
        text = format_certificate(refute(cfg))
        assert text.startswith("fractile splice certificate\n")
        assert f"generator-sha256: {generator_digest(sierpinski)}\n" in text
        assert "policy: uniform seed=1\n" in text
        assert "pier: 0 1\nanchor: 1 0\nglue-side: S\n" in text
        assert "matched-stages: 2 3\n" in text
        assert "alignment: 0 0\nshift: 2 1\nreplay: ok\n" in text
        assert "submovie:\n  2 2 0 N pier 1\n  3 2 1 S pier 1\n" in text
        assert "domain-diff: 8 points\n" in text
        assert text.endswith("\n")

    def test_no_match_text(self, sierpinski, staged_system):
        report = refute(RefutationConfig(sierpinski, 1, staged_system, max_stage=4))
        text = format_no_match(report)
        assert text.startswith("fractile no-match report\n")
        assert "policy: lexicographic\n" in text
        assert "stages-examined: 2..4\n" in text
        assert "distinct-submovies: 3\n" in text
        assert "submovie at stages 2:\n" in text
        assert "pair log:\n" in text
        assert "  stages 2->3: submovies differ under shift (2, 1)\n" in text
