"""Golden table for the growth engine.

Every side-2/3 tree-fractal generator, at depths 3 and 4, with uniform and
staged pier labels, under the lexicographic policy and seeded-uniform
seeds 0-9, is grown in its bounding square and in the lower half of it.
Each case records the sha256 of the ``simulate``-style event lines and the
frontier and clipped-frontier sizes of the final assembly.  At depth 3 the
same systems also go through ``check_strict_self_assembly``: in the square
and in the half at the default step budget, and in the square at a budget
of 8 steps, so the region-boundary and step-limit verdicts have rows too.

The table in ``data/growth_golden.txt`` was produced by the growth loops
this engine replaced, so any change in event order, frontier contents or
strict verdicts shows up as a line diff.  Regenerate it with::

    PYTHONPATH=src python tests/test_golden_growth.py > tests/data/growth_golden.txt

only when a change to the event sequence is intended.
"""

from __future__ import annotations

import hashlib
from itertools import product
from pathlib import Path

import pytest

from fractile import (
    DEFAULT_MAX_STEPS,
    PIER_LABELS_STAGED,
    PIER_LABELS_UNIFORM,
    Assembly,
    Box,
    LexicographicPolicy,
    SeededUniformPolicy,
    census,
    check_strict_self_assembly,
    clipped_frontier,
    frontier,
    is_connected,
    replay,
    run,
    stage,
    tree_edge_system,
)

GOLDEN = Path(__file__).with_name("data") / "growth_golden.txt"
POLICIES = ("lex",) + tuple(f"seed{s}" for s in range(10))
# (row tag, region, step budget) of each strict check; the untagged rows,
# in the bounding square at the default budget, are the table's oldest
STRICT_CHECKS = (
    ("", "square", DEFAULT_MAX_STEPS),
    (" half", "half", DEFAULT_MAX_STEPS),
    (" square max_steps=8", "square", 8),
)


def _policy(name: str):
    if name == "lex":
        return LexicographicPolicy()
    return SeededUniformPolicy(int(name[4:]))


def _event_digest(seq) -> str:
    lines = "".join(
        f"{ev.index} {ev.position[0]} {ev.position[1]} {ev.tile.name}\n" for ev in seq.events
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def golden_lines():
    for g in (2, 3):
        for k, gen in enumerate(census(g).tree_fractal_generators):
            yield from generator_lines(f"g{g}#{k}", gen)


def generator_lines(key: str, gen):
    g = gen.g
    for depth in (3, 4):
        side = g**depth
        target = stage(gen, depth)
        regions = {
            "square": Box(0, 0, side - 1, side - 1),
            "half": Box(0, 0, side - 1, side // 2 - 1),
        }
        for labels in (PIER_LABELS_UNIFORM, PIER_LABELS_STAGED):
            system = tree_edge_system(gen, depth, labels)
            for name in POLICIES:
                case = f"{key} d{depth} {labels} {name}"
                for region_name, region in regions.items():
                    seq = run(system, region, _policy(name))
                    yield (
                        f"run {case} {region_name}"
                        f" steps={len(seq.events)}"
                        f" frontier={len(frontier(system, seq.result))}"
                        f" clipped={len(clipped_frontier(system, seq.result, region))}"
                        f" sha256={_event_digest(seq)}"
                    )
                if depth == 3:
                    for tag, region_name, max_steps in STRICT_CHECKS:
                        check = check_strict_self_assembly(
                            system, target, regions[region_name], _policy(name), max_steps
                        )
                        yield (
                            f"strict {case}{tag} {check.status} witness={check.witness}"
                            f" steps={check.steps} detail={check.detail}"
                        )


def test_growth_matches_golden_table():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert list(golden_lines()) == expected


@pytest.mark.parametrize("g", (2, 3))
def test_grown_results_equal_checked_assemblies(g):
    """``run`` and ``replay`` build their result without the connectivity
    check and sort it only when first iterated; lookups must work before
    that, and it must then iterate row-major, as the checked constructor's
    does."""
    for gen, depth in product(census(g).tree_fractal_generators, (3, 4)):
        region = Box(0, 0, g**depth - 1, g**depth - 1)
        for labels in (PIER_LABELS_UNIFORM, PIER_LABELS_STAGED):
            system = tree_edge_system(gen, depth, labels)
            for name in ("lex", "seed1"):
                seq = run(system, region, _policy(name))
                last = seq.events[-1]
                for grown in (seq.result, replay(system, seq.events)):
                    assert len(grown) == len(seq.initial) + len(seq.events)
                    assert last.position in grown and grown[last.position] == last.tile
                    assert list(grown) == sorted(grown.domain, key=lambda p: (p[1], p[0]))
                    assert list(grown.items()) == list(Assembly(dict(grown)).items())
                    assert is_connected(grown.domain)


if __name__ == "__main__":
    for line in golden_lines():
        print(line)
