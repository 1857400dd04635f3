"""The ``.tas`` parser inverts the formatter over the tree-edge universe.

Every tree-fractal generator of side 2-4 is turned into a
``tree_edge_system`` (depth 4 for side 2, depth 3 for sides 3-4) with
uniform and with staged pier labels, formatted, and parsed back: the parse
has the formatted system's tiles, seed and temperature, and formats to the
same text.  Each edge's glue token is written on both tiles it joins, and a
pier label on many, so the parser reuses a ``Glue`` for most sides it reads.

Tier-1 checks sides 2 and 3 and every twentieth side-4 generator; the full
sweep (all 454 systems) runs as::

    PYTHONPATH=src python tests/test_tas_round_trip.py
"""

from __future__ import annotations

import sys

from fractile import (
    PIER_LABELS_STAGED,
    PIER_LABELS_UNIFORM,
    census,
    format_tile_system,
    parse_tile_system,
    tree_edge_system,
)

DEPTHS = {2: 4, 3: 3, 4: 3}


def round_trips(tier1: bool = False):
    """(case, whether the parse of the formatted system matches it) for
    every system of the universe, or only the tier-1 subset."""
    for g, depth in DEPTHS.items():
        for k, gen in enumerate(census(g, allow_large=True).tree_fractal_generators):
            if tier1 and g == 4 and k % 20:
                continue
            for labels in (PIER_LABELS_UNIFORM, PIER_LABELS_STAGED):
                system = tree_edge_system(gen, depth, labels)
                text = format_tile_system(system)
                parsed = parse_tile_system(text)
                same = (
                    parsed.tiles == system.tiles
                    and dict(parsed.seed) == dict(system.seed)
                    and parsed.temperature == system.temperature
                    and format_tile_system(parsed) == text
                )
                yield f"g{g}#{k} d{depth} {labels}", same


def test_parse_inverts_format():
    results = dict(round_trips(tier1=True))
    assert len(results) == 38
    assert [case for case, same in results.items() if not same] == []


if __name__ == "__main__":
    results = dict(round_trips())
    differ = [case for case, same in results.items() if not same]
    print(f"{len(results)} systems; {len(differ)} differ after a round trip")
    for case in differ:
        print(f"round trip differs: {case}")
    sys.exit(1 if differ or len(results) != 454 else 0)
