"""Golden table for the refutation pipeline.

Every tree-fractal generator of side 2-4 is turned into a
``tree_edge_system`` (depth 4 for side 2, depth 3 for sides 3-4) with
uniform and with staged pier labels, and refuted at scale 1 up to that
depth under the lexicographic policy and seeded-uniform seeds 1 and 2:
1,362 cases.  Each row reads::

    refute <key> <labels> <policy> <kind> <facts> sha256=<digest>

where ``kind`` is ``certificate`` or ``no-match`` and ``digest`` is the
sha256 of the formatted text.  A certificate's facts are
``stages=i->j off=N miss=M terminal=yes|no``: the spliced stage pair, the
cells of the spliced result off the target stage and missing from it, and
whether the result has no frontier in the plane.  A no-match report's
facts are ``submovies=N``, its number of distinct bond-forming submovies.

Tier-1 checks the side-2 and side-3 rows and every twentieth side-4
generator, matching rows on their first five fields; the full sweep runs
as::

    PYTHONPATH=src python tests/test_golden_refute.py | diff - tests/data/refute_golden.txt

Regenerate the table only when a change to the certificate or no-match
text, or to what these facts count, is intended::

    PYTHONPATH=src python tests/test_golden_refute.py > tests/data/refute_golden.txt
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

from fractile import (
    PIER_LABELS_STAGED,
    PIER_LABELS_UNIFORM,
    NoMatchReport,
    RefutationConfig,
    census,
    format_certificate,
    format_no_match,
    frontier,
    refute,
    stage,
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
                    facts = f"submovies={len(outcome.groups)}"
                else:
                    kind, text = "certificate", format_certificate(outcome)
                    facts = certificate_facts(outcome, stage(gen, depth))
                digest = hashlib.sha256(text.encode()).hexdigest()
                yield f"refute {key} {labels} {name} {kind} {facts} sha256={digest}"


def certificate_facts(cert, target) -> str:
    result = cert.spliced.result
    domain = result.domain
    terminal = "no" if frontier(cert.config.system, result) else "yes"
    return (
        f"stages={cert.i}->{cert.j} off={len(domain - target)}"
        f" miss={len(target - domain)} terminal={terminal}"
    )


def case_id(line: str) -> str:
    """The row's first five fields: ``refute``, the two-part key, labels, policy."""
    return " ".join(line.split()[:5])


def test_refute_matches_golden_table_subset():
    produced = list(golden_lines(tier1=True))
    assert len(produced) == 114
    cases_run = {case_id(line) for line in produced}
    expected = [
        line
        for line in GOLDEN.read_text(encoding="utf-8").splitlines()
        if case_id(line) in cases_run
    ]
    assert produced == expected


def test_golden_table_tally():
    """The verdict counts the ROADMAP quotes; a change to what refute
    concludes moves them on purpose."""
    tally = Counter()
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        labels, kind, facts = fields[3], fields[5], dict(f.split("=") for f in fields[6:-1])
        if kind == "no-match":
            tally[kind, labels] += 1
        elif facts["off"] != "0":
            tally["off-target"] += 1
        elif facts["terminal"] == "yes":
            tally["terminal"] += 1
        else:
            tally["partial"] += 1
    assert tally == {
        ("no-match", "staged"): 681,
        ("no-match", "uniform"): 450,
        "off-target": 80,
        "terminal": 136,
        "partial": 15,
    }


if __name__ == "__main__":
    for line in golden_lines():
        print(line)
