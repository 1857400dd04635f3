"""Pinned pier/anchor choices for every small tree-fractal generator.

For each tree-fractal generator of sides 2-4, ``select_pier_anchor`` is
called once with its default choice and once per pier forced, and each
result (or error message) becomes one line of text.  The sha256 of those
lines is pinned, so any change to which pier is chosen, where its anchor
lies, or what a refusal says shows up here.

Tier-1 checks sides 2-4 (1,021 calls).  The side-5 sweep (61,195 calls)
runs as::

    PYTHONPATH=src python tests/test_anchor_digest.py
"""

from __future__ import annotations

import hashlib
import sys

from fractile import Generator, census, piers, select_pier_anchor
from fractile.fractal import _origin_trees, bridge_counts

DIGESTS = {
    (2, 3, 4): (1021, "0e2aa1345b5c702ff96dc6218ed89fbb73aff269ae12b42dee7becff876fee0b"),
    (5,): (61195, "1248840ac1b0dc75d2eab66eb7545ea4488a9c06d294db2eff744ed0e0955743"),
}


def generators(g: int) -> list[Generator]:
    """The tree-fractal generators of side g, in ascending mask order, as
    ``census`` filters them (without its side limit)."""
    if g <= 4:
        return list(census(g, allow_large=True).tree_fractal_generators)
    found = []
    for cells in _origin_trees(g):
        try:
            gen = Generator(g, cells)
        except ValueError:
            continue
        if bridge_counts(gen.cells) == (1, 1):
            found.append(gen)
    found.sort(key=lambda gen: sum(1 << (y * g + x) for (x, y) in gen.cells))
    return found


def _describe(gen: Generator, pier) -> str:
    try:
        a = select_pier_anchor(gen, pier)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return (
        f"pier {a.pier} {a.pointing.name} anchor {a.anchor} "
        f"glue {a.glue_side.name} offset {a.bridge_offset}"
    )


def anchor_lines(sides):
    """One line per call: the generator's side and cells, the forced pier
    (or ``default``), and what the call returned or raised."""
    for g in sides:
        for gen in generators(g):
            key = f"g{g} {sorted(gen.cells)}"
            yield f"{key} default {_describe(gen, None)}"
            for pr in piers(gen):
                yield f"{key} {pr.position} {_describe(gen, pr.position)}"


def digest(sides) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for line in anchor_lines(sides):
        h.update(line.encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def test_anchor_choices_match_pinned_digest():
    sides = (2, 3, 4)
    assert digest(sides) == DIGESTS[sides]


def test_double_bridge_piers_are_refused_when_forced():
    refusals = [
        line for line in anchor_lines((2, 3, 4)) if "double-bridge piers cannot" in line
    ]
    assert len(refusals) == 36


if __name__ == "__main__":
    sides = (5,)
    got = digest(sides)
    print(f"side 5: {got[0]} calls, sha256={got[1]}")
    sys.exit(0 if got == DIGESTS[sides] else 1)
