"""The package's records are named tuples.

Every record is immutable and hashes like its field tuple, so sets and
dicts of records iterate in the same order as before; the records that
check their input still refuse bad values with the same messages.
Importing the command line loads none of the standard-library modules
that only some commands need, and importing the package loads none of its
modules: a command loads only the modules it runs.
"""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from fractile import (
    PIER_LABELS_STAGED,
    PIER_LABELS_UNIFORM,
    Assembly,
    Box,
    Generator,
    Glue,
    NoMatchReport,
    RefutationConfig,
    SpliceCertificate,
    TileSystem,
    TileType,
    WindowSpec,
    bridges,
    census,
    check_strict_self_assembly,
    piers,
    record_movie,
    refute,
    run,
    select_pier_anchor,
    stage,
    tree_edge_system,
    window_inside,
)
from conftest import SIERPINSKI_CELLS

RECORD_NAMES = {
    "Glue",
    "TileType",
    "Box",
    "TileSystem",
    "SequenceEvent",
    "AssemblySequence",
    "StrictCheck",
    "Generator",
    "Bridge",
    "Pier",
    "PierAnchor",
    "CensusStats",
    "GlueEvent",
    "WindowMovie",
    "RefutationConfig",
    "SpliceCertificate",
    "SubmovieGroup",
    "NoMatchReport",
    "WindowSpec",
}


def _samples():
    """One instance of every record, each made by the code that makes it."""
    gen = Generator(2, SIERPINSKI_CELLS)
    uniform = tree_edge_system(gen, 4, PIER_LABELS_UNIFORM)
    staged = tree_edge_system(gen, 4, PIER_LABELS_STAGED)
    seq = run(uniform)
    anchor = select_pier_anchor(gen)
    spec = WindowSpec(1, 3, gen.g, anchor.anchor, anchor.pier)
    movie = record_movie(seq, window_inside(spec))
    cert = refute(RefutationConfig(gen, 1, uniform, max_stage=4, policy_seed=1))
    report = refute(RefutationConfig(gen, 1, staged, max_stage=4))
    assert isinstance(cert, SpliceCertificate) and isinstance(report, NoMatchReport)
    region = Box(0, 0, 15, 15)
    samples = [
        uniform.tiles[0].north,
        uniform.tiles[0],
        region,
        uniform,
        seq.events[0],
        seq,
        check_strict_self_assembly(staged, stage(gen, 4), region),
        gen,
        bridges(gen.cells)[0],
        piers(gen)[0],
        anchor,
        census(2),
        movie.events[0],
        movie,
        cert.config,
        cert,
        report.groups[0],
        report,
        spec,
    ]
    assert {type(r).__name__ for r in samples} == RECORD_NAMES
    return samples


SAMPLES = _samples()
IDS = [type(r).__name__ for r in SAMPLES]


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_records_are_read_only(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a record holding an Assembly or a dict
        return TypeError


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_records_hash_as_their_field_tuples(record):
    assert type(record)._fields
    assert _hash(record) == _hash(tuple(record))


NULL_TILE = TileType("t")
PLUS = Glue("a", 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Glue("", 1), "bad glue label: ''"),
        (lambda: Glue("a b", 1), "bad glue label: 'a b'"),
        (lambda: Glue("a=b", 1), "bad glue label: 'a=b'"),
        (lambda: Glue("a", -1), "glue strength must be >= 0, got -1"),
        (lambda: Glue("-", 1), "the null label '-' cannot carry positive strength"),
        (lambda: TileType(""), "bad tile name: ''"),
        (lambda: TileType("a\tb", north=PLUS), "bad tile name: 'a\\tb'"),
        (lambda: Box(0, 0, -1, -1), "box corners out of order: 0,0,-1,-1"),
        (lambda: Box(2, 0, 1, 5), "box corners out of order: 2,0,1,5"),
        (
            lambda: TileSystem((NULL_TILE,), Assembly({(0, 0): NULL_TILE}), 0),
            "temperature must be >= 1, got 0",
        ),
        (
            lambda: TileSystem(
                (NULL_TILE, TileType("t", east=PLUS)), Assembly({(0, 0): NULL_TILE}), 1
            ),
            "tile names must be unique",
        ),
        (
            lambda: TileSystem((NULL_TILE,), Assembly({(0, 0): TileType("u")}), 1),
            "seed tile at (0, 0) is not in the tile set",
        ),
        (
            lambda: TileSystem(
                (TileType("l", east=PLUS), TileType("r", west=PLUS)),
                Assembly({(0, 0): TileType("l", east=PLUS), (1, 0): TileType("r", west=PLUS)}),
                2,
            ),
            "seed assembly is not stable at this temperature",
        ),
        (lambda: Generator(1, {(0, 0)}), "side must be at least 2, got 1"),
        (lambda: Generator(2, {(0, 0), (2, 0)}), "cell outside 2x2 square: (2, 0)"),
        (lambda: Generator(2, {(1, 0), (0, 1)}), "origin not occupied"),
        (lambda: Generator(2, {(0, 0), (1, 0)}), "row 1 empty"),
        (lambda: Generator(2, {(0, 0), (0, 1)}), "column 1 empty"),
        (lambda: WindowSpec(0, 2, 2, (0, 0), (0, 0)), "scale factor must be >= 1, got 0"),
        (lambda: WindowSpec(1, 1, 2, (0, 0), (0, 0)), "stage windows exist from stage 2, got 1"),
        (lambda: WindowSpec(1, 2, 1, (0, 0), (0, 0)), "side must be at least 2, got 1"),
        (lambda: WindowSpec(1, 2, 2, (2, 0), (0, 0)), "anchor outside 2x2 square: (2, 0)"),
        (lambda: WindowSpec(1, 2, 2, (0, 0), (0, -1)), "pier outside 2x2 square: (0, -1)"),
    ],
)
def test_checked_records_keep_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_checked_records_normalise_their_collections():
    gen = Generator(g=2, cells=[(0, 0), (1, 0), (0, 1)])
    assert gen.cells == SIERPINSKI_CELLS and type(gen.cells) is frozenset
    system = TileSystem(tiles=[NULL_TILE], seed=Assembly({(0, 0): NULL_TILE}), temperature=1)
    assert system.tiles == (NULL_TILE,) and type(system.tiles) is tuple


def _new_modules(code: str) -> set:
    """Modules a fresh interpreter has loaded after running ``code``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def test_cli_import_leaves_heavy_modules_unloaded():
    bare = _new_modules("pass")
    cli = _new_modules("import fractile.cli")
    assert "fractile.cli" in cli
    assert not {"dataclasses", "inspect", "hashlib", "xml.etree.ElementTree"} & (cli - bare)
    assert not {name for name in _new_modules("import fractile") if name.startswith("fractile.")}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["census", "2"], {"tiles", "movies", "refuter", "windows", "systems"}),
        (
            ["simulate", "{tas}", "--region", "0,0,3,3"],
            {"fractal", "movies", "refuter", "windows", "systems", "render"},
        ),
    ],
)
def test_command_loads_only_its_modules(tmp_path, argv, unloaded):
    tas = tmp_path / "ribbon.tas"
    tas.write_text("temperature 1\ntile col N=n:1 E=-:0 S=n:1 W=-:0\nseed 0 0 col\n")
    argv = [arg.format(tas=tas) for arg in argv] + ["--out", str(tmp_path / "out.txt")]
    loaded = _new_modules(f"import fractile.cli\nassert fractile.cli.main({argv!r}) == 0")
    assert (tmp_path / "out.txt").read_text()
    assert "fractile.cli" in loaded
    assert not {f"fractile.{module}" for module in unloaded} & loaded


def test_every_public_and_cli_name_resolves():
    # in a fresh process, so each name resolves on its first access
    _new_modules(
        "import fractile, fractile.cli as cli\n"
        "for name in fractile.__all__: getattr(fractile, name)\n"
        "for name in fractile.__all__: getattr(cli, name)"
    )
    import fractile
    import fractile.cli as cli

    for name in fractile.__all__:
        owner = import_module(f"fractile.{fractile._OWNER[name]}")
        assert getattr(fractile, name) is getattr(owner, name)
        assert getattr(cli, name) is getattr(owner, name)
    assert set(fractile.__all__) <= set(dir(fractile))
    assert fractile.tiles is import_module("fractile.tiles")
    with pytest.raises(AttributeError):
        fractile.no_such_name


def test_simulate_calls_a_rebound_run(tmp_path, monkeypatch):
    import fractile.cli as cli
    from fractile.tiles import run

    calls = []

    def counted(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr("fractile.cli.run", counted)
    tas = tmp_path / "ribbon.tas"
    tas.write_text("temperature 1\ntile col N=n:1 E=-:0 S=n:1 W=-:0\nseed 0 0 col\n")
    argv = ["simulate", str(tas), "--max-steps", "3", "--out", str(tmp_path / "out.txt")]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert (tmp_path / "out.txt").read_text().endswith("stopped: step limit, 2 open sites\n")
