"""End-to-end tests of the command-line surface and its exit codes."""

import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest

from fractile import (
    PIER_LABELS_STAGED,
    PIER_LABELS_UNIFORM,
    format_generator,
    format_tile_system,
    tree_edge_system,
)
from fractile.cli import build_parser, main

SIERPINSKI_GEN = "g=2\n#.\n##\n"
FULL2_GEN = "g=2\n##\n##\n"
# its pier window's glue line runs along the east side
EAST_GLUE_GEN = "g=2\n.#\n##\n"
RIBBON_TAS = "temperature 1\ntile col N=n:1 E=-:0 S=n:1 W=-:0\nseed 0 0 col\n"

ANALYZE_SIERPINSKI = """\
generator: g=2, 3 cells
tree-fractal: yes
bridge: horizontal at 0, (0,0)-(1,0), connected
bridge: vertical at 0, (0,0)-(0,1), connected
bridge counts: 1 horizontal, 1 vertical
piers: (1,0)E/parallel, (0,1)N/parallel
anchor: pier (0,1), (e,f)=(1,0), glue side S
"""

# side-4 generator whose two piers are both orthogonal
ORTHOGONAL4_GEN = "g=4\n..##\n...#\n#.##\n###.\n"

STAGE2_GRID = "g=4\n#...\n##..\n#.#.\n####\n"


@pytest.fixture
def files(tmp_path, sierpinski, hook4):
    paths = {
        "sierpinski.gen": SIERPINSKI_GEN,
        "hook4.gen": format_generator(hook4),
        "full2.gen": FULL2_GEN,
        "east.gen": EAST_GLUE_GEN,
        "orthogonal4.gen": ORTHOGONAL4_GEN,
        "bad.gen": "g=banana\n####\n",
        "ribbon.tas": RIBBON_TAS,
        "uniform.tas": format_tile_system(
            tree_edge_system(sierpinski, 4, PIER_LABELS_UNIFORM)
        ),
        "staged.tas": format_tile_system(
            tree_edge_system(sierpinski, 4, PIER_LABELS_STAGED)
        ),
        "path2.tas": format_tile_system(tree_edge_system(sierpinski, 2)),
    }
    for name, text in paths.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def svg_class_counts(text):
    root = ElementTree.fromstring(text)
    counts = {}
    for el in root.iter():
        cls = el.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


class TestAnalyze:
    def test_tree_fractal_report(self, files, capsys):
        assert main(["analyze", str(files / "sierpinski.gen")]) == 0
        assert capsys.readouterr().out == ANALYZE_SIERPINSKI

    def test_negative_verdict_exits_one(self, files, capsys):
        assert main(["analyze", str(files / "full2.gen")]) == 1
        out = capsys.readouterr().out
        assert "tree-fractal: no (not a tree)" in out
        assert "bridge counts: 2 horizontal, 2 vertical" in out
        assert "piers: none" in out
        assert "anchor: none" in out

    def test_orthogonal_piers_get_an_anchor(self, files, capsys):
        assert main(["analyze", str(files / "orthogonal4.gen")]) == 0
        out = capsys.readouterr().out
        assert "piers: (0,1)N/orthogonal, (2,3)W/orthogonal" in out
        assert "anchor: pier (0,1), (e,f)=(2,1), glue side S" in out
        assert "anchor: none" not in out

    def test_malformed_file_exits_two(self, files, capsys):
        assert main(["analyze", str(files / "bad.gen")]) == 2
        assert "error: line 1: bad side in header: 'g=banana'" in capsys.readouterr().err

    def test_missing_file_exits_two(self, files, capsys):
        assert main(["analyze", str(files / "nope.gen")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_flag_writes_file(self, files, capsys):
        target = files / "report.txt"
        assert main(["analyze", str(files / "sierpinski.gen"), "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == ANALYZE_SIERPINSKI


class TestStagesAndScale:
    def test_stage_two_text(self, files, capsys):
        assert main(["stages", str(files / "sierpinski.gen"), "--stage", "2"]) == 0
        assert capsys.readouterr().out == STAGE2_GRID

    def test_stage_one_echoes_generator(self, files, capsys):
        assert main(["stages", str(files / "sierpinski.gen"), "--stage", "1"]) == 0
        assert capsys.readouterr().out == SIERPINSKI_GEN

    def test_stage_svg_cell_count(self, files, capsys):
        code = main(
            ["stages", str(files / "sierpinski.gen"), "--stage", "2", "--format", "svg"]
        )
        assert code == 0
        counts = svg_class_counts(capsys.readouterr().out)
        assert counts == {"cell": 9}

    def test_scaled_generator(self, files, capsys):
        assert main(["scale", str(files / "sierpinski.gen"), "--scale", "2"]) == 0
        assert capsys.readouterr().out == "g=4\n##..\n##..\n####\n####\n"

    def test_scale_prints_stage_one(self, files, capsys):
        for name in ("sierpinski.gen", "hook4.gen"):
            for factor in ("1", "2"):
                for fmt in ("text", "svg"):
                    tail = ["--scale", factor, "--format", fmt]
                    assert main(["scale", str(files / name), *tail]) == 0
                    scaled = capsys.readouterr()
                    assert main(["stages", str(files / name), "--stage", "1", *tail]) == 0
                    assert capsys.readouterr() == scaled, (name, factor, fmt)

    def test_cell_cap(self, files, capsys):
        gen = str(files / "sierpinski.gen")
        assert main(["stages", gen, "--stage", "9"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "g=512"
        assert len(rows[1:]) == 512
        assert main(["stages", gen, "--stage", "10"]) == 2
        assert capsys.readouterr().err == (
            "error: rendering 1024x1024 cells exceeds the cap of 262144; try a smaller stage\n"
        )

    @pytest.mark.parametrize(
        "argv, cells",
        [(["stages", "--stage", "13"], "8192x8192"), (["scale", "--scale", "1500"], "3000x3000")],
    )
    def test_cell_cap_checked_before_building(self, files, capsys, monkeypatch, argv, cells):
        def refuse(*args):
            raise RuntimeError("built the points before checking the cap")

        monkeypatch.setattr("fractile.cli.stage", refuse)
        monkeypatch.setattr("fractile.cli.scale", refuse)
        argv = [argv[0], str(files / "sierpinski.gen"), *argv[1:]]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: rendering {cells} cells exceeds the cap of 262144; try a smaller stage\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stages", "--scale", "-1000"], "scale factor must be >= 1, got -1000"),
            (["scale", "--scale", "-1000"], "scale factor must be >= 1, got -1000"),
            (["render", "--scale", "-300"], "scale factor must be >= 1, got -300"),
            (["stages", "--stage", "0", "--scale", "2000"], "stage index must be >= 1, got 0"),
            (["render", "--stage", "-1", "--scale", "2000"], "stage index must be >= 1, got -1"),
        ],
    )
    def test_bad_size_named_before_the_cap(self, files, capsys, argv, message):
        assert main([argv[0], str(files / "sierpinski.gen"), *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCensus:
    def test_side_two(self, files, capsys):
        assert main(["census", "2"]) == 0
        assert capsys.readouterr().out == (
            "side: 2\ncandidates: 8\nvalid: 5\ntree-fractal: 3\n"
            "piers real: 0\npiers parallel: 6\npiers orthogonal: 0\npiers double: 0\n"
        )

    def test_module_entry_point_matches_readme(self):
        # `python -m fractile.cli` runs the same main as the console script
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        transcript = readme.split("$ fractile census 2\n", 1)[1].split("\n\n", 1)[0] + "\n"
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "fractile.cli", "census", "2"],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, transcript, "")

    def test_side_four_needs_opt_in(self, capsys):
        assert main(["census", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: side 4 has 32768 candidates; pass --allow-large\n"
        )

    def test_side_five_unsupported(self, capsys):
        assert main(["census", "5"]) == 2
        assert "up to 4" in capsys.readouterr().err


class TestSimulate:
    def test_bounded_ribbon(self, files, capsys):
        code = main(["simulate", str(files / "ribbon.tas"), "--region", "0,0,0,3"])
        assert code == 0
        assert capsys.readouterr().out == (
            "1 0 1 col\n2 0 2 col\n3 0 3 col\n"
            "tiles: 4\nstopped: region boundary, 2 sites clipped\n"
        )

    def test_terminal_run(self, files, capsys):
        assert main(["simulate", str(files / "path2.tas")]) == 0
        out = capsys.readouterr().out
        assert "tiles: 9\n" in out
        assert out.endswith("stopped: terminal\n")

    def test_step_limit(self, files, capsys):
        code = main(["simulate", str(files / "ribbon.tas"), "--max-steps", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiles: 3\n" in out
        assert out.endswith("stopped: step limit, 2 open sites\n")

    @pytest.mark.parametrize(
        "argv, stopped",
        [
            (["--region", "0,0,0,3"], "region boundary, 2 sites clipped"),
            (["--region", "0,-1,0,3", "--max-steps", "5"], "region boundary, 2 sites clipped"),
        ],
    )
    def test_early_stop_builds_no_frontier(self, files, capsys, monkeypatch, argv, stopped):
        # a run that stops short of its budget has no open site in its region
        def refuse(*args):
            raise RuntimeError("rebuilt the frontier of a run that stopped early")

        monkeypatch.setattr("fractile.cli.frontier", refuse)
        assert main(["simulate", str(files / "ribbon.tas"), *argv]) == 0
        assert capsys.readouterr().out.endswith(f"stopped: {stopped}\n")

    def test_bounded_step_limit(self, files, capsys, monkeypatch):
        # the region clips (0,-1), but open sites remain, so the clipped
        # ones are neither built nor reported
        def refuse(*args):
            raise RuntimeError("built the clipped sites of a step-limit stop")

        monkeypatch.setattr("fractile.cli.clipped_frontier", refuse)
        argv = ["simulate", str(files / "ribbon.tas"), "--region", "0,0,0,3", "--max-steps", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "1 0 1 col\n2 0 2 col\ntiles: 3\nstopped: step limit, 1 open sites\n"
        )

    def test_budget_spent_on_the_last_site(self, files, capsys):
        argv = ["simulate", str(files / "ribbon.tas"), "--region", "0,-1,0,3", "--max-steps", "4"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(
            "tiles: 5\nstopped: region boundary, 2 sites clipped\n"
        )

    def test_seeded_runs_repeat(self, files, capsys):
        argv = [
            "simulate",
            str(files / "ribbon.tas"),
            "--region",
            "0,0,0,3",
            "--policy",
            "uniform",
            "--seed",
            "5",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_region_exits_two(self, files, capsys):
        assert main(["simulate", str(files / "ribbon.tas"), "--region", "1,2"]) == 2
        assert "expected x0,y0,x1,y1" in capsys.readouterr().err

    def test_non_integer_region_names_the_option(self, files, capsys):
        argv = ["simulate", str(files / "ribbon.tas"), "--region", "0,0,a,1"]
        assert main(argv) == 2
        assert (
            "error: argument --region: expected x0,y0,x1,y1, got '0,0,a,1'"
            in capsys.readouterr().err
        )


class TestMovie:
    def test_bond_forming_stage_two(self, files, capsys):
        code = main(
            [
                "movie",
                str(files / "sierpinski.gen"),
                str(files / "uniform.tas"),
                "--stage",
                "2",
                "--bond-forming",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "2 2 0 N pier 1\n5 2 1 S pier 1\n"

    def test_full_movie_lines_are_well_formed(self, files, capsys):
        code = main(
            ["movie", str(files / "sierpinski.gen"), str(files / "uniform.tas"), "--stage", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            step, x, y, side, label, strength = line.split()
            int(step), int(x), int(y), int(strength)
            assert side in "NESW"

    @pytest.mark.parametrize("factor", ("0", "-1"))
    def test_bad_scale_names_the_scale(self, files, capsys, factor):
        argv = ["movie", str(files / "sierpinski.gen"), str(files / "uniform.tas")]
        assert main(argv + ["--scale", factor]) == 2
        err = capsys.readouterr().err
        assert err == f"error: scale factor must be >= 1, got {factor}\n"


class TestRefute:
    def test_uniform_fixture_certificate(self, files, capsys):
        code = main(
            [
                "refute",
                str(files / "sierpinski.gen"),
                str(files / "uniform.tas"),
                "--max-stage",
                "4",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("fractile splice certificate\n")
        assert "matched-stages: 2 3\n" in out
        assert "replay: ok\n" in out

    def test_staged_fixture_reports_no_match(self, files, capsys):
        code = main(
            [
                "refute",
                str(files / "sierpinski.gen"),
                str(files / "staged.tas"),
                "--max-stage",
                "4",
            ]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert out.startswith("fractile no-match report\n")
        assert "distinct-submovies: 3\n" in out

    def test_certificate_out_file(self, files, capsys):
        target = files / "cert.txt"
        code = main(
            [
                "refute",
                str(files / "sierpinski.gen"),
                str(files / "uniform.tas"),
                "--max-stage",
                "4",
                "--seed",
                "1",
                "--out",
                str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("fractile splice certificate\n")

    def test_missing_system_file(self, files, capsys):
        code = main(["refute", str(files / "sierpinski.gen"), str(files / "nope.tas")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, flag", [("movie", "--stage"), ("refute", "--max-stage")])
    @pytest.mark.parametrize("s, cells", [("12", "1024x1024"), ("30", "268435456x268435456")])
    def test_window_cap_checked_before_running(
        self, files, capsys, monkeypatch, command, flag, s, cells
    ):
        # movie's window and refute's largest one; 11 is the last stage under the cap
        def refuse(*args):
            raise RuntimeError("ran the system before checking the cap")

        monkeypatch.setattr("fractile.cli.run", refuse)
        monkeypatch.setattr("fractile.cli.refute", refuse)
        argv = [command, str(files / "sierpinski.gen"), str(files / "staged.tas"), flag, s]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: a stage-{s} window of {cells} cells exceeds the cap of 262144;"
            " try a smaller stage\n"
        )

    @pytest.mark.parametrize("command, flag", [("movie", "--stage"), ("refute", "--max-stage")])
    def test_stage_eleven_window_passes_the_cap(self, files, monkeypatch, command, flag):
        def reached(*args):
            raise RuntimeError("passed the cap")

        monkeypatch.setattr("fractile.cli.run", reached)
        monkeypatch.setattr("fractile.cli.refute", reached)
        argv = [command, str(files / "sierpinski.gen"), str(files / "staged.tas"), flag, "11"]
        with pytest.raises(RuntimeError, match="passed the cap"):
            main(argv)

    @pytest.mark.parametrize(
        "command, flag, message",
        [
            ("movie", "--stage", "stage windows exist from stage 2, got 1"),
            ("refute", "--max-stage", "max stage must be >= 2, got 1"),
        ],
    )
    def test_stage_below_two_named_before_the_cap(self, files, capsys, command, flag, message):
        gen, tas = str(files / "sierpinski.gen"), str(files / "staged.tas")
        assert main([command, gen, tas, flag, "1", "--scale", "2000"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRender:
    def test_stage_three_windows_and_glue(self, files, capsys):
        code = main(["render", str(files / "sierpinski.gen"), "--stage", "3"])
        assert code == 0
        counts = svg_class_counts(capsys.readouterr().out)
        assert counts == {"cell": 27, "window": 2, "glue": 2}

    def test_non_tree_fractal_has_no_windows(self, files, capsys):
        code = main(["render", str(files / "full2.gen"), "--stage", "2"])
        assert code == 0
        counts = svg_class_counts(capsys.readouterr().out)
        assert counts == {"cell": 16}

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["render", "sierpinski.gen", "--stage", "3"],
                "60069901c6c1e562a203c5c3162ba902a490aa7106622b8da00346358337f751",
            ),
            (
                ["stages", "sierpinski.gen", "--stage", "2", "--scale", "2", "--format", "svg"],
                "96b374591cd72f2c675aa60fe0d6ed169c9f81ccf2950fc96773c2d12c93c51e",
            ),
            (
                # the only input here whose glue marker is a vertical strip
                ["render", "east.gen"],
                "94e58e0eab9937c5cff1679fc89d1ae88b018bfcc40f34763c8aef7c5a8dfb2d",
            ),
        ],
        ids=["render", "stages", "render-east"],
    )
    def test_svg_bytes_pinned(self, files, capsys, argv, sha256):
        # class counts leave rect geometry and attribute text unpinned
        argv = [argv[0], str(files / argv[1]), *argv[2:]]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


class TestParser:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv, defaults",
        [
            (["analyze", "a.gen"], {"generator": "a.gen"}),
            (
                ["stages", "a.gen"],
                {"generator": "a.gen", "stage": 2, "scale": 1, "format": "text"},
            ),
            (
                ["scale", "a.gen"],
                {"generator": "a.gen", "stage": 1, "scale": 1, "format": "text"},
            ),
            (["census", "2"], {"g": 2, "allow_large": False}),
            (
                ["simulate", "s.tas"],
                {"system": "s.tas", "region": None, "policy": "lex", "seed": 0, "max_steps": None},
            ),
            (
                ["movie", "a.gen", "s.tas"],
                {
                    "generator": "a.gen",
                    "system": "s.tas",
                    "stage": 2,
                    "scale": 1,
                    "policy": "lex",
                    "seed": 0,
                    "max_steps": None,
                    "bond_forming": False,
                },
            ),
            (
                ["refute", "a.gen", "s.tas"],
                {
                    "generator": "a.gen",
                    "system": "s.tas",
                    "scale": 1,
                    "max_stage": 6,
                    "seed": None,
                    "max_steps": None,
                },
            ),
            (["render", "a.gen"], {"generator": "a.gen", "stage": 2, "scale": 1}),
        ],
    )
    def test_parsed_defaults(self, argv, defaults):
        parsed = vars(build_parser().parse_args(argv))
        parsed.pop("func")
        parsed.pop("uses", None)
        assert parsed == {"command": argv[0], "out": None, **defaults}

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_value(self, files, capsys):
        assert main(["stages", str(files / "sierpinski.gen"), "--stage", "x"]) == 2

    @pytest.mark.parametrize("command", ("simulate", "movie", "refute"))
    @pytest.mark.parametrize("budget", ("-5", "x"))
    def test_bad_step_budget_names_the_option(self, files, capsys, command, budget):
        inputs = [str(files / "uniform.tas")]
        if command != "simulate":
            inputs.insert(0, str(files / "sierpinski.gen"))
        assert main([command, *inputs, "--max-steps", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"error: argument --max-steps: expected a nonnegative integer, got '{budget}'"
            in captured.err
        )
