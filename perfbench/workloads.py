"""The benchmark's workloads: fixtures made from the workload seed, the
invocations of one pass, and what each invocation's output must show.

Every workload is a list of fresh ``fractile`` processes run one after
another (a closed loop with a single client).  Its end-to-end time is the
sum of their wall times; the sums over the processes of one command are
reported as ``refute_s``, ``simulate_s``, ``strict_s`` and ``census_s``.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

DEFAULT_SEED = 1

SIERPINSKI_CELLS = frozenset({(0, 0), (1, 0), (0, 1)})

# The policy seeds below 120 under which `refute` on the depth-6,
# uniform-label Sierpinski system finds a certificate after a base run of
# 685-705 steps.  With uniform pier labels the grown shape depends on the
# policy seed: 37 of the first 120 seeds end in a no-match report, and base
# runs take 607-801 steps, which moves the wall time by about 15% from seed
# to seed.  Workload seed S runs policy seed CERTIFICATE_SEEDS[S % 15], so
# every seed takes the certificate path on work of nearly the same size.
CERTIFICATE_SEEDS = (0, 5, 13, 14, 16, 35, 41, 44, 46, 69, 88, 91, 97, 105, 119)

# The 15 policy seeds below 80 whose uniform-policy run on FILL_T1 presents
# the policy with a total frontier (summed over all 16383 steps) closest to
# the median, all within 0.7% of it; over all 80 seeds that total ranges
# from -7% to +14%.  Workload seed S runs policy seed FILL_SEEDS[S % 15].
FILL_SEEDS = (1, 11, 12, 13, 16, 44, 45, 47, 50, 51, 55, 58, 59, 60, 69)

# tau=1: one tile bonding to itself on all four sides; uniform-policy growth
# is an Eden process with a wide, ragged frontier.
FILL_T1 = """\
temperature 1
tile fill N=v:1 E=h:1 S=v:1 W=h:1
seed 0 0 fill
"""

# tau=2: a corner seed grows a strength-2 row and column; the interior tile
# has only strength-1 glues, so it needs its west and south neighbours both.
FILL_T2 = """\
temperature 2
tile corner N=col:2 E=row:2 S=-:0 W=-:0
tile row N=r:1 E=row:2 S=-:0 W=row:2
tile col N=col:2 E=k:1 S=col:2 W=-:0
tile inner N=r:1 E=k:1 S=r:1 W=k:1
seed 0 0 corner
"""


@dataclass(frozen=True)
class Invocation:
    """One process of a pass.

    ``kind`` is ``cli`` (arguments go to ``fractile.cli.main``) or
    ``strict`` (the driver's strict-self-assembly check).  ``expect`` holds
    output fields every seed must reproduce; ``golden`` holds fields
    recorded for the default seed only.
    """

    label: str
    kind: str
    args: tuple[str, ...]
    exit_code: int
    expect: dict = field(default_factory=dict)
    golden: dict = field(default_factory=dict)
    probe_stable: bool = False

    @property
    def command(self) -> str:
        return self.args[0] if self.kind == "cli" else "strict"


@dataclass(frozen=True)
class Workload:
    name: str
    fixtures: dict
    invocations: tuple[Invocation, ...]


def _sierpinski_files(*systems: tuple[int, str]) -> dict:
    from fractile.fractal import Generator, format_generator
    from fractile.systems import tree_edge_system
    from fractile.tiles import format_tile_system

    gen = Generator(2, SIERPINSKI_CELLS)
    files = {"sierpinski.gen": format_generator(gen)}
    for depth, labels in systems:
        system = tree_edge_system(gen, depth, labels)
        files[f"d{depth}-{labels}.tas"] = format_tile_system(system)
    return files


def build(name: str, seed: int) -> Workload:
    """The named workload for workload seed ``seed``."""
    s = str(seed)
    if name == "sierpinski":
        certificate_seed = str(CERTIFICATE_SEEDS[seed % len(CERTIFICATE_SEEDS)])
        files = ((6, "uniform"), (5, "staged"), (6, "staged"), (4, "staged"), (5, "uniform"))
        return Workload(
            name,
            _sierpinski_files(*files),
            (
                Invocation(
                    "refute-d6",
                    "cli",
                    ("refute", "sierpinski.gen", "d6-uniform.tas", "--max-stage", "6",
                     "--seed", certificate_seed),
                    0,
                    expect={"replay": "ok"},
                    golden=GOLDEN["refute-d6"],
                    probe_stable=True,
                ),
                Invocation(
                    "refute-d5",
                    "cli",
                    ("refute", "sierpinski.gen", "d5-staged.tas", "--max-stage", "5"),
                    3,
                    expect=GOLDEN["refute-d5"],
                ),
                Invocation(
                    "simulate-d6",
                    "cli",
                    ("simulate", "d6-staged.tas", "--policy", "uniform", "--seed", s,
                     "--region", "0,0,63,63"),
                    0,
                    expect={"tiles": "729", "stopped": "terminal"},
                    golden=GOLDEN["simulate-d6"],
                ),
                Invocation(
                    "strict-d4",
                    "strict",
                    ("sierpinski.gen", "d4-staged.tas", "4", "uniform", s),
                    0,
                    expect=GOLDEN["strict-d4"],
                ),
                Invocation(
                    "strict-d5",
                    "strict",
                    ("sierpinski.gen", "d5-uniform.tas", "5", "lex", "0"),
                    0,
                    expect=GOLDEN["strict-d5"],
                ),
            ),
        )
    if name == "fill":
        fill_seed = str(FILL_SEEDS[seed % len(FILL_SEEDS)])
        region = ("--region", "0,0,127,127", "--policy", "uniform", "--seed", fill_seed)
        return Workload(
            name,
            {"fill-t1.tas": FILL_T1, "fill-t2.tas": FILL_T2},
            (
                Invocation(
                    "fill-t1",
                    "cli",
                    ("simulate", "fill-t1.tas", *region),
                    0,
                    expect={"tiles": "16384", "stopped": "region boundary, 512 sites clipped"},
                    golden=GOLDEN["fill-t1"],
                ),
                Invocation(
                    "fill-t2",
                    "cli",
                    ("simulate", "fill-t2.tas", *region),
                    0,
                    expect={"tiles": "16384", "stopped": "region boundary, 2 sites clipped"},
                    golden=GOLDEN["fill-t2"],
                ),
            ),
        )
    if name == "census":
        return Workload(
            name,
            {},
            tuple(
                Invocation(f"census-{g}", "cli", ("census", *extra), 0, expect=GOLDEN[f"census-{g}"])
                for g, extra in ((2, ("2",)), (3, ("3",)), (4, ("4", "--allow-large")))
            ),
        )
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")


NAMES = ("sierpinski", "fill", "census")

_FIELD = re.compile(r"^([a-z][a-z0-9 -]*): (.*)$")
_EVENT = re.compile(r"^\d+ -?\d+ -?\d+ \S+$")


def output_fields(text: str) -> dict:
    """The unindented ``key: value`` lines of an output, plus ``sha256``,
    the digest of the simulate event lines with the ``tiles:`` and
    ``stopped:`` lines."""
    fields = {}
    digest = hashlib.sha256()
    for line in text.splitlines():
        match = _FIELD.match(line)
        if match:
            fields.setdefault(match.group(1), match.group(2))
        if _EVENT.match(line) or line.startswith(("tiles: ", "stopped: ")):
            digest.update(line.encode() + b"\n")
    fields["sha256"] = digest.hexdigest()
    return fields


def event_lines(text: str) -> list[tuple[int, int, int, str]]:
    """The ``index x y tile`` lines of a simulate output."""
    out = []
    for line in text.splitlines():
        if _EVENT.match(line):
            index, x, y, name = line.split()
            out.append((int(index), int(x), int(y), name))
    return out


# Output fields recorded at the seed commit for the default seed.  The
# refute-d5, strict and census entries do not depend on the seed.
GOLDEN = {
    "refute-d6": {
        "matched-stages": "2 4",
        "shift": "6 3",
        "replay-sha256": "6256ae3506f56cd3a96bb4a6ab92648865ebbbd4d8d4069ce4454a8151c31d94",
    },
    "refute-d5": {"distinct-submovies": "4"},
    "simulate-d6": {
        "sha256": "818ef7f04ed38147cbb9c3ca2a250c0145f25e06c62f097d77baab44253149b0"
    },
    "strict-d4": {"verdict": "INCOMPLETE-OK", "witness": "none", "steps": "80"},
    "strict-d5": {"verdict": "VIOLATION", "witness": "3 1", "steps": "33"},
    "fill-t1": {"sha256": "400599a7f2294d6d467c53f28a4d06a7737d8f625365c68d182ec7a36c814e35"},
    "fill-t2": {"sha256": "390d9eb0b74f7cce97f18c8a8cb524a7a52a7056230766f329b1fbc001f6a558"},
    **{
        f"census-{g}": {
            "side": str(g),
            "candidates": candidates,
            "valid": valid,
            "tree-fractal": tree,
            "piers real": real,
            "piers parallel": parallel,
            "piers orthogonal": orthogonal,
            "piers double": double,
        }
        for g, candidates, valid, tree, real, parallel, orthogonal, double in (
            (2, "8", "5", "3", "0", "6", "0", "0"),
            (3, "256", "161", "5", "0", "12", "0", "0"),
            (4, "32768", "23045", "219", "242", "428", "70", "36"),
        )
    },
}
