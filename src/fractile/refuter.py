"""Search for a window-interior transplant that breaks a candidate tiling.

Given a tree-fractal generator and a tile system that is supposed to
build the scaled fractal, run the system once, record the bond-forming
submovies along the pier windows of successive stages, and look for two
stages whose submovies coincide under the stage-to-stage shift.  Such a
pair lets the larger window's interior be replaced by the smaller one's.
A certificate records a splice that replays and whose domain differs from
the target; nothing more is checked, so the spliced result may be an
on-target partial assembly rather than off-target growth.  If no pair
matches within the stage budget, the distinct submovies themselves are
the (honest, resource-bounded) answer.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .fractal import (
    Generator,
    PierAnchor,
    format_generator,
    is_tree_fractal_generator,
    scale,
    select_pier_anchor,
    stage,
)
from .grid import Direction, Point
from .movies import (
    WindowMovie,
    bond_forming,
    format_movie,
    record_movie,
    seed_side,
    splice,
    submovie_matches,
)
from .tiles import (
    DEFAULT_MAX_STEPS,
    Assembly,
    AssemblySequence,
    Box,
    LexicographicPolicy,
    SeededUniformPolicy,
    TileSystem,
    run,
)
from .windows import WindowSpec, enclosure_margin, translation, window_inside


def alignment_offset(
    gen: Generator, c: int, i: int, j: int, pier_anchor: PierAnchor
) -> Point:
    """The extra shift that lines up the glue lines of the stage-i and
    stage-j windows.

    The stage-to-stage translation matches the windows' corners, but the
    bonded side of the larger window is longer, so the glue line sits
    ``bridge_offset`` sub-blocks along it; for far-side glue lines the
    whole margin is added too.  The offset never exceeds the enclosure
    margin, so the shifted window stays enclosed.
    """
    margin = enclosure_margin(c, gen.g, i, j)
    if c < 1:
        raise ValueError(f"scale factor must be >= 1, got {c}")
    sigma = sum(gen.g**k for k in range(i - 2, j - 2))
    along = pier_anchor.bridge_offset * c * sigma
    side = pier_anchor.glue_side
    if side is Direction.W:
        return (0, along)
    if side is Direction.E:
        return (margin, along)
    if side is Direction.S:
        return (along, 0)
    return (along, margin)


class RefutationConfig(NamedTuple):
    """One refutation problem: the fractal, the scale, and the candidate
    tile system, plus run bounds.

    The run is bounded by the square around the max-stage fractal;
    ``policy_seed`` None runs the deterministic lexicographic policy,
    an integer runs the seeded uniform one.
    """

    generator: Generator
    c: int
    system: TileSystem
    max_stage: int = 6
    policy_seed: Optional[int] = None
    max_steps: int = DEFAULT_MAX_STEPS


class SpliceCertificate(NamedTuple):
    """A splice that replays and whose domain differs from the target;
    the result may still be an on-target partial assembly."""

    config: RefutationConfig
    pier_anchor: PierAnchor
    i: int
    j: int
    alignment: Point
    c_vec: Point
    submovie: WindowMovie
    spliced: AssemblySequence
    spliced_domain_diff: tuple[Point, ...]


class SubmovieGroup(NamedTuple):
    """Stages whose bond-forming submovies are translates of each other."""

    stages: tuple[int, ...]
    submovie: WindowMovie


class NoMatchReport(NamedTuple):
    """No stage pair matched within the budget — a resource-bounded
    outcome, not a verdict on the tile system."""

    config: RefutationConfig
    pier_anchor: PierAnchor
    stages: tuple[int, ...]
    groups: tuple[SubmovieGroup, ...]
    notes: tuple[str, ...]


def refute(cfg: RefutationConfig) -> Union[SpliceCertificate, NoMatchReport]:
    """Run the pipeline: characterize, anchor, simulate, record, match,
    splice, certify.

    Stage pairs are tried smallest-first.  A pair is skipped when the
    starting assembly straddles a window or sits in only one, when its
    submovies differ under the computed shift, when the two window
    interiors are identical as configurations (the transplant would be
    vacuous), or when the transplant reproduces the target exactly.
    """
    gen = cfg.generator
    ok, diagnosis = is_tree_fractal_generator(gen)
    if not ok:
        raise ValueError(f"characterization failed: {diagnosis}")
    if cfg.c < 1:
        raise ValueError(f"scale factor must be >= 1, got {cfg.c}")
    if cfg.max_stage < 2:
        raise ValueError(f"max stage must be >= 2, got {cfg.max_stage}")
    anchor = select_pier_anchor(gen)
    side = cfg.c * gen.g**cfg.max_stage
    target = scale(stage(gen, cfg.max_stage), cfg.c)
    if cfg.policy_seed is None:
        policy = LexicographicPolicy()
    else:
        policy = SeededUniformPolicy(cfg.policy_seed)
    seq = run(cfg.system, Box(0, 0, side - 1, side - 1), policy, cfg.max_steps)
    result = seq.result

    insides: dict[int, frozenset] = {}
    seed_sides: dict[int, str] = {}
    subs: dict[int, WindowMovie] = {}
    for s in range(2, cfg.max_stage + 1):
        inside = window_inside(WindowSpec(cfg.c, s, gen.g, anchor.anchor, anchor.pier))
        insides[s] = inside
        seed_sides[s] = seed_side(seq.initial.domain, inside)
        subs[s] = bond_forming(record_movie(seq, inside), result)

    notes: list[str] = []
    for i_stage in range(2, cfg.max_stage):
        for j_stage in range(i_stage + 1, cfg.max_stage + 1):
            label = f"stages {i_stage}->{j_stage}"
            side_i, side_j = seed_sides[i_stage], seed_sides[j_stage]
            if side_i == "straddle" or side_i != side_j:
                notes.append(f"{label}: skipped by the seed rule ({side_i}/{side_j})")
                continue
            base = translation(cfg.c, gen.g, i_stage, j_stage, *anchor.anchor, *anchor.pier)
            align = alignment_offset(gen, cfg.c, i_stage, j_stage, anchor)
            # both parts are >= 0; the translation is zero only for an origin
            # pier and anchor, whose glue side E or N makes the alignment
            # nonzero; bridge_offset <= g - 1 keeps it within the margin; so
            # the shift meets splice's translation and enclosure hypotheses
            c_vec = (base[0] + align[0], base[1] + align[1])
            if not submovie_matches(subs[i_stage], subs[j_stage], c_vec):
                notes.append(f"{label}: submovies differ under shift {c_vec}")
                continue
            interior_i = {pt: result[pt] for pt in insides[i_stage] if pt in result}
            interior_j = {pt: result[pt] for pt in insides[j_stage] if pt in result}
            shifted_i = {
                (pt[0] + c_vec[0], pt[1] + c_vec[1]): t for pt, t in interior_i.items()
            }
            if shifted_i == interior_j:
                notes.append(f"{label}: identical window interiors, transplant is vacuous")
                continue
            spliced = splice(seq, insides[i_stage], insides[j_stage], c_vec)
            diff = tuple(
                sorted(spliced.result.domain ^ target, key=lambda v: (v[1], v[0]))
            )
            if not diff:
                notes.append(f"{label}: transplanted assembly still matches the target")
                continue
            return SpliceCertificate(
                config=cfg,
                pier_anchor=anchor,
                i=i_stage,
                j=j_stage,
                alignment=align,
                c_vec=c_vec,
                submovie=subs[i_stage],
                spliced=spliced,
                spliced_domain_diff=diff,
            )

    grouped: dict[tuple, list[int]] = {}
    for s in range(2, cfg.max_stage + 1):
        grouped.setdefault(subs[s].canonical(), []).append(s)
    groups = tuple(SubmovieGroup(tuple(st), subs[st[0]]) for st in grouped.values())
    return NoMatchReport(
        config=cfg,
        pier_anchor=anchor,
        stages=tuple(range(2, cfg.max_stage + 1)),
        groups=groups,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Serialization


def generator_digest(gen: Generator) -> str:
    import hashlib  # loads OpenSSL; only certificates and no-match reports need it

    return hashlib.sha256(format_generator(gen).encode()).hexdigest()


def assembly_digest(assembly: Assembly) -> str:
    import hashlib

    text = "".join(f"{x} {y} {assembly[(x, y)].name}\n" for (x, y) in assembly)
    return hashlib.sha256(text.encode()).hexdigest()


def _policy_description(cfg: RefutationConfig) -> str:
    if cfg.policy_seed is None:
        return "lexicographic"
    return f"uniform seed={cfg.policy_seed}"


def _header_lines(title: str, cfg: RefutationConfig, anchor: PierAnchor) -> list[str]:
    return [
        title,
        f"generator-sha256: {generator_digest(cfg.generator)}",
        f"scale: {cfg.c}",
        f"temperature: {cfg.system.temperature}",
        f"policy: {_policy_description(cfg)}",
        f"max-stage: {cfg.max_stage}",
        f"pier: {anchor.pier[0]} {anchor.pier[1]}",
        f"anchor: {anchor.anchor[0]} {anchor.anchor[1]}",
        f"glue-side: {anchor.glue_side.name}",
    ]


def _indented_movie(submovie: WindowMovie) -> list[str]:
    dump = format_movie(submovie)
    if not dump:
        return ["  (empty)"]
    return ["  " + line for line in dump.splitlines()]


def format_certificate(cert: SpliceCertificate) -> str:
    """Deterministic text form of a certificate, stable field order."""
    lines = _header_lines("fractile splice certificate", cert.config, cert.pier_anchor)
    lines += [
        f"matched-stages: {cert.i} {cert.j}",
        f"alignment: {cert.alignment[0]} {cert.alignment[1]}",
        f"shift: {cert.c_vec[0]} {cert.c_vec[1]}",
        "replay: ok",
        f"replay-sha256: {assembly_digest(cert.spliced.result)}",
        "submovie:",
        *_indented_movie(cert.submovie),
        f"domain-diff: {len(cert.spliced_domain_diff)} points",
    ]
    lines += [f"  {x} {y}" for (x, y) in cert.spliced_domain_diff]
    return "\n".join(lines) + "\n"


def format_no_match(report: NoMatchReport) -> str:
    """Deterministic text form of a no-match report."""
    lines = _header_lines("fractile no-match report", report.config, report.pier_anchor)
    lines.append(f"stages-examined: {report.stages[0]}..{report.stages[-1]}")
    lines.append(f"distinct-submovies: {len(report.groups)}")
    for group in report.groups:
        stages = " ".join(str(s) for s in group.stages)
        lines.append(f"submovie at stages {stages}:")
        lines += _indented_movie(group.submovie)
    if report.notes:
        lines.append("pair log:")
        lines += [f"  {note}" for note in report.notes]
    return "\n".join(lines) + "\n"
