"""Golden table for the refutation pipeline.

Every tree-fractal generator of side 2-4 is turned into a
``tree_edge_system`` (depth 4 for side 2, depth 3 for sides 3-4) with
uniform and with staged pier labels, and refuted at scale 1 up to that
depth under the lexicographic policy and seeded-uniform seeds 1 and 2:
1,362 cases.  Each row records whether ``refute`` returned a certificate
or a no-match report, and the sha256 of its formatted text.

Tier-1 checks the side-2 and side-3 rows and every twentieth side-4
generator; the full sweep runs as::

    PYTHONPATH=src python tests/test_golden_refute.py | diff - tests/data/refute_golden.txt

Regenerate the table (same command, redirected into it) only when a change
to the certificate or no-match text is intended.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from fractile import (
    PIER_LABELS_STAGED,
    PIER_LABELS_UNIFORM,
    NoMatchReport,
    RefutationConfig,
    census,
    format_certificate,
    format_no_match,
    refute,
    tree_edge_system,
)

GOLDEN = Path(__file__).with_name("data") / "refute_golden.txt"
DEPTHS = {2: 4, 3: 3, 4: 3}
SEEDS = {"lex": None, "seed1": 1, "seed2": 2}


def cases(tier1: bool = False):
    """(key, generator, depth) for every case of the universe, or only the
    tier-1 subset."""
    for g, depth in DEPTHS.items():
        for k, gen in enumerate(census(g, allow_large=True).tree_fractal_generators):
            if tier1 and g == 4 and k % 20:
                continue
            yield f"g{g}#{k} d{depth}", gen, depth


def golden_lines(tier1: bool = False):
    for key, gen, depth in cases(tier1):
        for labels in (PIER_LABELS_UNIFORM, PIER_LABELS_STAGED):
            system = tree_edge_system(gen, depth, labels)
            for name, seed in SEEDS.items():
                cfg = RefutationConfig(gen, 1, system, max_stage=depth, policy_seed=seed)
                outcome = refute(cfg)
                if isinstance(outcome, NoMatchReport):
                    kind, text = "no-match", format_no_match(outcome)
                else:
                    kind, text = "certificate", format_certificate(outcome)
                digest = hashlib.sha256(text.encode()).hexdigest()
                yield f"refute {key} {labels} {name} {kind} sha256={digest}"


def test_refute_matches_golden_table_subset():
    produced = list(golden_lines(tier1=True))
    assert len(produced) == 114
    cases_run = {line.rsplit(" ", 2)[0] for line in produced}
    expected = [
        line
        for line in GOLDEN.read_text(encoding="utf-8").splitlines()
        if line.rsplit(" ", 2)[0] in cases_run
    ]
    assert produced == expected


if __name__ == "__main__":
    for line in golden_lines():
        print(line)
