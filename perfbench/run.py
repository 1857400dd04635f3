"""fractile benchmark: wall time of fresh `fractile` processes, per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; the package is imported from
``src`` and nothing needs installing.  Workloads are listed in
workloads.py.  A run writes its fixtures under ``.bench_work/`` and
removes them when it ends.

Untraced (``--trace 0``): passes over the workload's invocations, one
fresh process at a time, until ``--seconds`` have passed and at least
three passes are done, with nine set-up processes spread over the run.
Reports the medians of ``wall_s`` (the pass's summed wall time),
``setup_s`` and ``peak_rss_mb``.

Traced (``--trace 1``): alternates an untraced pass with a traced one, in
which every process records spans around its calls into fractile's
modules (tracing.py).  Reports the median per-layer self times and counts,
and the tracing overhead.

Every output is checked: exit code, fields every seed must reproduce,
golden fields for the default seed, replay of simulated events, and
byte-identical output across passes and between traced and untraced
processes.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads
from tracing import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER = os.path.join(HERE, "driver.py")

SETUP_RUNS = 9
MIN_PASSES = 3
# Children still running this long after the start are killed, so that a
# run always ends within the 180 s a caller may allow it.
HARD_LIMIT_S = 165.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# Per-layer times are self times summed over a traced pass, except where
# noted: (metric, span names, "self" | "total" | "median").
LAYER_TIMES = (
    ("cli.import_s", ("cli.import",), "median"),
    ("cli.self_s", ("cli.main",), "self"),
    ("tiles.parse_s", ("tiles.parse",), "self"),
    ("tiles.run_s", ("tiles.run",), "self"),
    ("tiles.frontier_s", ("tiles.frontier", "tiles.clipped_frontier"), "self"),
    ("tiles.strict_s", ("tiles.strict",), "self"),
    ("tiles.replay_s", ("tiles.replay",), "self"),
    ("tiles.stable_s", ("tiles.stable",), "self"),
    ("movies.record_s", ("movies.record",), "self"),
    ("movies.bond_forming_s", ("movies.bond_forming",), "self"),
    ("movies.splice_s", ("movies.splice",), "self"),
    ("windows.inside_s", ("windows.inside",), "self"),
    ("refuter.refute_s", ("refuter.refute",), "total"),
    ("refuter.self_s", ("refuter.refute",), "self"),
    ("refuter.format_s", ("refuter.format",), "self"),
    ("fractal.census_s", ("fractal.census",), "self"),
    ("fractal.stage_s", ("fractal.stage",), "self"),
    ("fractal.anchor_s", ("fractal.anchor",), "self"),
    ("grid.connected_s", ("grid.connected",), "self"),
)
# (metric, span name, span field): summed over a traced pass.
LAYER_COUNTS = (
    ("tiles.run_steps", "tiles.run", "steps"),
    ("tiles.frontier_sites", "tiles.frontier", "sites"),
    ("tiles.clipped_sites", "tiles.clipped_frontier", "sites"),
    ("tiles.strict_steps", "tiles.strict", "steps"),
    ("movies.events", "movies.record", "events"),
    ("movies.bond_events", "movies.bond_forming", "events"),
    ("refuter.pairs", "refuter.refute", "pairs"),
    ("fractal.candidates", "fractal.census", "candidates"),
    ("fractal.tree_fractal", "fractal.census", "tree_fractal"),
)
OVERHEAD = "trace.overhead_s"


@dataclass
class Child:
    wall: float
    code: int
    rss_kb: int
    output: bytes
    errors: str


class Bench:
    def __init__(self, workload, seed: int, work: str, src: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._reference: dict[str, str] = {}
        self._checked: dict[tuple[str, str], list[str]] = {}

    # -- processes ---------------------------------------------------------

    def spawn(self, args: list[str]) -> Child:
        """Run the driver with ``args`` in the fixture directory and wait
        for it; wall time covers start-up, peak RSS comes from wait4."""
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise TimeoutError("time limit reached before a process could start")
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, DRIVER, *args], cwd=self.work, env=self.env,
                stdout=out, stderr=err,
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as handle:
            output = handle.read()
        with open(err_path, "r", encoding="utf-8", errors="replace") as handle:
            errors = handle.read()
        return Child(wall, proc.returncode, usage.ru_maxrss, output, errors)

    def run_checked(self, inv, options: list[str]) -> tuple[Child, list[str]]:
        """Run one invocation and return it with the problems its exit
        code and output show; the caller settles them."""
        child = self.spawn([*options, inv.kind, *inv.args])
        self.attempted += 1
        problems = []
        if child.code != inv.exit_code:
            tail = child.errors.strip().splitlines()[-1:] or [""]
            problems.append(f"exit code {child.code}, expected {inv.exit_code} {tail[0]}")
        digest = hashlib.sha256(child.output).hexdigest()
        if self._reference.setdefault(inv.label, digest) != digest:
            problems.append("output differs from the first process's output")
        key = (inv.label, digest)
        if key not in self._checked:
            self._checked[key] = self.content_problems(inv, child.output.decode())
        return child, problems + self._checked[key]

    def settle(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems))

    def setup_child(self) -> Child:
        child = self.spawn(["setup", *self.workload.fixtures])
        self.attempted += 1
        self.settle("setup", [f"exit code {child.code}"] if child.code != 0 else [])
        return child

    # -- checks ------------------------------------------------------------

    def content_problems(self, inv, text: str) -> list[str]:
        fields = workloads.output_fields(text)
        expected = dict(inv.expect)
        if self.seed == workloads.DEFAULT_SEED:
            expected.update(inv.golden)
        problems = [
            f"{key}: {fields.get(key)!r}, expected {value!r}"
            for key, value in expected.items()
            if fields.get(key) != value
        ]
        if inv.command == "simulate":
            problems += self.replay_problems(inv, text, fields)
        return problems

    def replay_problems(self, inv, text: str, fields: dict) -> list[str]:
        """Simulated events must replay on the system they came from."""
        from fractile.tiles import ReplayError, SequenceEvent, parse_tile_system, replay

        system = parse_tile_system(self.workload.fixtures[inv.args[1]])
        by_name = {t.name: t for t in system.tiles}
        lines = workloads.event_lines(text)
        if [index for index, *_ in lines] != list(range(1, len(lines) + 1)):
            return ["event indices are not 1..n"]
        try:
            events = [SequenceEvent(i, (x, y), by_name[name]) for i, x, y, name in lines]
            result = replay(system, events)
        except KeyError as exc:
            return [f"unknown tile {exc}"]
        except ReplayError as exc:
            return [f"events do not replay: {exc}"]
        if str(len(result)) != fields.get("tiles"):
            return [f"replay gives {len(result)} tiles, output says {fields.get('tiles')}"]
        return []

    # -- passes ------------------------------------------------------------

    def untraced_pass(self) -> dict:
        walls, rss = {}, []
        for inv in self.workload.invocations:
            child, problems = self.run_checked(inv, [])
            self.settle(inv.label, problems)
            walls[inv.label] = child.wall
            rss.append(child.rss_kb)
        return {"walls": walls, "wall": sum(walls.values()), "rss_kb": max(rss)}

    def traced_pass(self) -> dict:
        spans_by_child, wall = [], 0.0
        for inv in self.workload.invocations:
            path = os.path.join(self.work, f"{inv.label}.spans.json")
            options = ["--spans", path] + (["--probe-stable"] if inv.probe_stable else [])
            child, problems = self.run_checked(inv, options)
            spans = []
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    spans = json.load(handle)
                os.remove(path)
            wall += child.wall - sum(s["end"] - s["start"] for s in spans if s.get("probe"))
            problems += self.count_problems(inv, child.output.decode(), spans)
            self.settle(f"{inv.label} (traced)", problems)
            spans_by_child.append(spans)
        return {"wall": wall, "layers": layer_values(spans_by_child)}

    def count_problems(self, inv, text: str, spans: list[dict]) -> list[str]:
        """Counts seen by the traced process must equal what the output of
        the same invocation shows."""
        fields = workloads.output_fields(text)
        shown = {}
        if inv.command == "simulate":
            stopped = fields.get("stopped", "")
            number = int(stopped.split(", ")[1].split()[0]) if ", " in stopped else 0
            shown = {
                ("tiles.run", "steps"): len(workloads.event_lines(text)),
                ("tiles.frontier", "sites"): number if stopped.startswith("step limit") else 0,
                ("tiles.clipped_frontier", "sites"):
                    number if stopped.startswith("region boundary") else 0,
            }
        elif inv.command == "census":
            shown = {
                ("fractal.census", "candidates"): int(fields.get("candidates", -1)),
                ("fractal.census", "tree_fractal"): int(fields.get("tree-fractal", -1)),
            }
        elif inv.command == "strict":
            shown = {("tiles.strict", "steps"): int(fields.get("steps", -1))}
        problems = []
        for (name, key), value in shown.items():
            traced = sum(s.get(key, 0) for s in spans if s["name"] == name)
            if traced != value:
                problems.append(f"traced {name} {key} = {traced}, output shows {value}")
        return problems

    def measure(self, seconds: int, trace: bool) -> tuple[list, list, list]:
        setups, passes, traced = [], [], []
        begin = time.perf_counter()
        while True:
            # Set-up samples are spread over the run, one before each pass.
            if not trace and len(setups) < SETUP_RUNS:
                setups.append(self.setup_child().wall)
            passes.append(self.untraced_pass())
            if trace:
                traced.append(self.traced_pass())
            elapsed = time.perf_counter() - begin
            if elapsed >= seconds and len(passes) >= (1 if trace else MIN_PASSES):
                break
            # Stop early rather than let the next pass run into the hard limit.
            per_pass = elapsed / len(passes)
            if time.perf_counter() - self.started + 1.5 * per_pass > HARD_LIMIT_S - 15:
                break
        while not trace and len(setups) < SETUP_RUNS:
            setups.append(self.setup_child().wall)
        return setups, passes, traced


def layer_values(spans_by_child: list[list[dict]]) -> dict:
    values = {}
    flat = []
    for spans in spans_by_child:
        flat += zip(spans, self_times(spans))
    for metric, names, how in LAYER_TIMES:
        chosen = [(s, own) for s, own in flat if s["name"] in names]
        durations = [s["end"] - s["start"] for s, _ in chosen]
        if how == "median":
            values[metric] = statistics.median(durations) if durations else 0.0
        elif how == "total":
            values[metric] = sum(durations)
        else:
            values[metric] = sum(own for _, own in chosen)
    for metric, name, key in LAYER_COUNTS:
        values[metric] = sum(s.get(key, 0) for s, _ in flat if s["name"] == name)
    return values


def describe(values: list[float], unit: str) -> str:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit}, n={n}"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            tail = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return text + f", p{p} {tail:.6g} {unit}"
    return text + ", no percentile has 10 samples beyond it"


def provenance(root: str, seed: int, workload, fixtures: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    package = os.path.join(root, "src", "fractile")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "invocations": {inv.label: " ".join((inv.kind, *inv.args)) for inv in workload.invocations},
        "fixtures": fixtures,
    }


def write_fixtures(fixtures: dict, work: str) -> dict:
    """Write each fixture after checking that it round-trips through its
    parser; returns each file's size in cells or tile types."""
    from fractile.fractal import format_generator, parse_generator
    from fractile.tiles import format_tile_system, parse_tile_system

    info = {}
    for name, text in fixtures.items():
        if name.endswith(".gen"):
            gen = parse_generator(text)
            again, info[name] = format_generator(gen), {"cells": len(gen.cells)}
        else:
            system = parse_tile_system(text)
            again, info[name] = format_tile_system(system), {"tile_types": len(system.tiles)}
        if again != text:
            raise RuntimeError(f"fixture {name} does not round-trip through its parser")
        with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fractile", "cli.py")):
        print(f"perfbench: no fractile sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = workloads.build(args.workload, args.seed)
    base = os.path.join(root, ".bench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return report(args, workload, Bench(workload, args.seed, work, src), root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


def report(args, workload, bench: Bench, root: str) -> int:
    fixtures = write_fixtures(workload.fixtures, bench.work)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(root, args.seed, workload, fixtures)))
    try:
        setups, passes, traced = bench.measure(args.seconds, bool(args.trace))
    except TimeoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    by_command: dict[str, list[str]] = {}
    for inv in workload.invocations:
        walls = [p["walls"][inv.label] for p in passes]
        print(f"invocation {inv.label} [{inv.kind} {' '.join(inv.args)}]: {describe(walls, 's')}")
        by_command.setdefault(f"{inv.command}_s", []).append(inv.label)
    for name, labels in by_command.items():
        walls = [sum(p["walls"][label] for label in labels) for p in passes]
        print(f"command {name}: {describe(walls, 's')}")

    walls = [p["wall"] for p in passes]
    metrics = {}
    if not args.trace:
        samples = {
            "wall_s": walls,
            "setup_s": setups,
            "peak_rss_mb": [p["rss_kb"] / 1024 for p in passes],
        }
        for name, unit in END_TO_END:
            print(f"metric {name}: {describe(samples[name], unit)}")
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    else:
        layers = [t["layers"] for t in traced]
        counts = [{m: layer[m] for m, _, _ in LAYER_COUNTS} for layer in layers]
        if any(c != counts[0] for c in counts):
            bench.settle("traced passes", ["per-layer counts differ between passes"])
        for metric, *_ in LAYER_TIMES:
            value = statistics.median(layer[metric] for layer in layers)
            metrics[metric] = {"value": value, "unit": "s"}
        for metric, *_ in LAYER_COUNTS:
            metrics[metric] = {"value": counts[0][metric], "unit": "count"}
        overhead = statistics.median(t["wall"] for t in traced) - statistics.median(walls)
        metrics[OVERHEAD] = {"value": overhead, "unit": "s"}
        for metric, entry in metrics.items():
            print(f"layer {metric}: {entry['value']:.6g} {entry['unit']} (median of {len(layers)})")

    failed = bench.failed
    print(f"metric failed_frac: {failed / bench.attempted:.6g} ratio ({failed} of {bench.attempted})")
    for failure in bench.failures:
        print("FAILED " + failure)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
