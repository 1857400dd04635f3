"""Ready-made tile systems for fractal stages.

These are test subjects for the refutation pipeline: systems that grow a
finite fractal stage tile-by-tile along its tree edges.  Every edge gets
its own glue except the pier-window glue lines, whose labeling scheme is
the experiment's knob — share one label across stages and the stage
windows can show matching movies; index the label by stage and they never
can.
"""

from __future__ import annotations

from .fractal import Generator, select_pier_anchor, stage
from .grid import Point, neighbors, row_major
from .tiles import NULL_GLUE, Assembly, Glue, TileSystem, TileType
from .windows import WindowSpec, boundary_contacts, window_inside

PIER_LABELS_UNIFORM = "uniform"
PIER_LABELS_STAGED = "staged"


def tree_edge_system(
    gen: Generator,
    depth: int,
    pier_labels: str = PIER_LABELS_UNIFORM,
) -> TileSystem:
    """A tile system that assembles stage ``depth`` of the generator.

    One tile type per cell, named t<x>x<y>, seeded at the origin, at
    temperature 1.  Tree edges carry per-edge strength-1 glue labels, so
    growth follows the fractal's own adjacency.  The edges crossed by the
    pier windows of stages 2..depth are relabeled per ``pier_labels``:
    "uniform" gives them all the single label "pier", "staged" gives stage
    s the label "pier<s>".
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if pier_labels not in (PIER_LABELS_UNIFORM, PIER_LABELS_STAGED):
        raise ValueError(f"unknown pier label scheme: {pier_labels!r}")
    points = stage(gen, depth)

    pier_edges: dict[frozenset, int] = {}
    if depth >= 2:
        anchor = select_pier_anchor(gen)
        for s in range(2, depth + 1):
            inside = window_inside(WindowSpec(1, s, gen.g, anchor.anchor, anchor.pier))
            for pair in boundary_contacts(inside, points)[anchor.glue_side]:
                pier_edges[frozenset(pair)] = s

    def edge_glue(a: Point, b: Point) -> Glue:
        edge = frozenset((a, b))
        if edge in pier_edges:
            if pier_labels == PIER_LABELS_UNIFORM:
                return Glue("pier", 1)
            return Glue(f"pier{pier_edges[edge]}", 1)
        lo, hi = sorted((a, b))
        return Glue(f"e{lo[0]}x{lo[1]}-{hi[0]}x{hi[1]}", 1)

    tiles = [
        TileType(
            f"t{cell[0]}x{cell[1]}",
            *(edge_glue(cell, nb) if nb in points else NULL_GLUE for nb in neighbors(cell)),
        )
        for cell in row_major(points)
    ]
    origin = next(t for t in tiles if t.name == "t0x0")
    return TileSystem(tuple(tiles), Assembly({(0, 0): origin}), 1)
