"""A refute certificate's spliced result always misses target cells.

``splice`` keeps the result outside the larger window w_j and fills w_j
only with the smaller window's interior shifted by the certificate's
vector, so its result meets w_j only inside w_i + shift.  The target's part
of w_j is a scaled stage-(j-2) copy that touches every row and column of
w_j, while w_i + shift is a strictly smaller square.  So some target cell
of w_j is never placed, and refute's domain diff is never empty.  This
checks that such a cell exists for every stage pair refute tries, at the
shift refute computes.

Tier-1 checks sides 2 and 3 and every twentieth side-4 generator at scale
1 and 2; the full sweep (every side 2-4 generator, stages up to 6 for side
2 and up to 4 for sides 3-4: 1,404 cases) runs as::

    PYTHONPATH=src python tests/test_splice_geometry.py
"""

from __future__ import annotations

import sys

from fractile import (
    WindowSpec,
    census,
    scale,
    select_pier_anchor,
    stage,
    translate,
    translation,
    window_inside,
)
from fractile.refuter import alignment_offset

MAX_STAGES = {2: 6, 3: 4, 4: 4}
SCALES = (1, 2)


def missed_target_cells(tier1: bool = False):
    """(case, number of target cells of w_j outside w_i + shift) for every
    generator, scale and stage pair, or only the tier-1 subset."""
    for g, max_stage in MAX_STAGES.items():
        for k, gen in enumerate(census(g).tree_fractal_generators):
            if tier1 and g == 4 and k % 20:
                continue
            anchor = select_pier_anchor(gen)
            for c in SCALES:
                target = scale(stage(gen, max_stage), c)
                windows = {
                    s: window_inside(WindowSpec(c, s, g, anchor.anchor, anchor.pier))
                    for s in range(2, max_stage + 1)
                }
                for i in range(2, max_stage):
                    for j in range(i + 1, max_stage + 1):
                        base = translation(c, g, i, j, *anchor.anchor, *anchor.pier)
                        align = alignment_offset(gen, c, i, j, anchor)
                        shifted = translate(windows[i], (base[0] + align[0], base[1] + align[1]))
                        assert shifted < windows[j]
                        missed = (target & windows[j]) - shifted
                        yield f"g{g}#{k} c{c} {i}->{j}", len(missed)


def test_spliced_result_misses_a_target_cell():
    counts = dict(missed_target_cells(tier1=True))
    assert len(counts) == 156
    assert [case for case, n in counts.items() if n == 0] == []


if __name__ == "__main__":
    counts = dict(missed_target_cells())
    empty = [case for case, n in counts.items() if n == 0]
    print(f"{len(counts)} cases; fewest target cells missed: {min(counts.values())}")
    for case in empty:
        print(f"no target cell missed: {case}")
    sys.exit(1 if empty or len(counts) != 1404 else 0)
