"""SVG renderings of point sets, windows, and glue lines.

Renderings are for inspection: axis-aligned rectangles, one color per
role (shape cell, window outline, glue-line marker), north up.  A cell
cap, overridable through the FRACTILE_CELL_CAP environment variable,
keeps accidental stage-9 requests from producing gigabyte files.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from .grid import Point

CELL_CAP_ENV = "FRACTILE_CELL_CAP"
DEFAULT_CELL_CAP = 262_144  # 512x512

_UNIT = 10  # SVG user units per cell
# the attributes of each role's rects
_CELL = 'class="cell" fill="#5b8bb0"'
_WINDOW = f'class="window" fill="none" stroke="#c2471d" stroke-width="{_UNIT / 5:g}"'
_GLUE = 'class="glue" fill="#2c8a4b"'


def cell_cap() -> int:
    raw = os.environ.get(CELL_CAP_ENV)
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"bad {CELL_CAP_ENV} value: {raw!r}") from None
    if cap < 1:
        raise ValueError(f"bad {CELL_CAP_ENV} value: {raw!r}")
    return cap


def check_cell_budget(side: int) -> None:
    cap = cell_cap()
    if side * side > cap:
        raise ValueError(
            f"rendering {side}x{side} cells exceeds the cap of {cap};"
            " try a smaller stage"
        )


def render_svg(
    points: Iterable[Point],
    side: int,
    windows: Sequence[frozenset] = (),
    glue_edges: Sequence[tuple[Point, Point]] = (),
) -> str:
    """An SVG of the shape with optional window outlines and glue markers.

    Each shape cell is one ``rect`` of class "cell"; windows are stroked
    squares of class "window"; each glue edge becomes a thin strip of
    class "glue" across the shared cell boundary.
    """
    size = side * _UNIT
    # (x, y, width, height, attributes) of each rect, in drawing order
    rects = [
        (x * _UNIT, (side - 1 - y) * _UNIT, _UNIT, _UNIT, _CELL)
        for (x, y) in sorted(points, key=lambda v: (v[1], v[0]))
    ]
    for window in windows:
        xs = [x for x, _ in window]
        ys = [y for _, y in window]
        w = (max(xs) - min(xs) + 1) * _UNIT
        rects.append((min(xs) * _UNIT, (side - min(ys)) * _UNIT - w, w, w, _WINDOW))
    thick = _UNIT / 4
    for (a, b) in glue_edges:
        if b[0] - a[0]:  # vertical strip on the shared east/west edge
            edge_x = max(a[0], b[0]) * _UNIT
            rects.append((edge_x - thick / 2, (side - 1 - a[1]) * _UNIT, thick, _UNIT, _GLUE))
        else:  # horizontal strip on the shared north/south edge
            edge_y = (side - max(a[1], b[1])) * _UNIT
            rects.append((a[0] * _UNIT, edge_y - thick / 2, _UNIT, thick, _GLUE))
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}"'
        f' viewBox="0 0 {size} {size}"'
    )
    if not rects:
        return head + " />\n"
    body = "".join(
        f'<rect x="{x:g}" y="{y:g}" width="{w:g}" height="{h:g}" {attrs} />'
        for x, y, w, h, attrs in rects
    )
    return f"{head}>{body}</svg>\n"
