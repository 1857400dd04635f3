"""Command-line surface.

Exit codes: 0 success, 1 negative verdict (e.g. analyze on a generator
that is not a tree fractal), 2 input or usage error, 3 resource-bounded
no-result (refute found no matching stage pair within its budget).
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Optional, Sequence

from . import _EXPORTS, _OWNER


def _bind(module: str) -> None:
    """Bind the public names of a library module in this module.

    Building the parser needs no library module: main binds the names of
    the modules the chosen command uses once the arguments parse, so a
    process compiles only what its command runs.  Each public name also
    resolves on first access as an attribute of this module.  A name that
    is already bound is kept, so one rebound here before main runs is the
    one the command calls; perfbench's traced pass wraps names that way.
    """
    found = vars(import_module(f".{module}", __package__))
    for name in _EXPORTS[module].split():
        globals().setdefault(name, found[name])


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_OWNER[name])
    return globals()[name]


def _short(taxonomy: str) -> str:
    return taxonomy.split("-")[0]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_generator(path: str) -> Generator:
    return parse_generator(_read(path))


def _region(text: str) -> Box:
    _bind("tiles")
    try:
        return Box.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _step_budget(text: str) -> int:
    try:
        steps = int(text)
        if steps >= 0:
            return steps
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def _policy(name: str, seed: int):
    if name == "uniform":
        return SeededUniformPolicy(seed)
    return LexicographicPolicy()


def cmd_analyze(args: argparse.Namespace) -> int:
    gen = _load_generator(args.generator)
    ok, diagnosis = is_tree_fractal_generator(gen)
    lines = [f"generator: g={gen.g}, {len(gen.cells)} cells"]
    lines.append("tree-fractal: yes" if ok else f"tree-fractal: no ({diagnosis})")
    all_bridges = bridges(gen.cells)
    for b in all_bridges:
        state = "connected" if b.connected else "disconnected"
        (ax, ay), (bx, by) = b.endpoints
        lines.append(
            f"bridge: {b.kind} at {b.index}, ({ax},{ay})-({bx},{by}), {state}"
        )
    nh = sum(1 for b in all_bridges if b.kind == "horizontal")
    lines.append(f"bridge counts: {nh} horizontal, {len(all_bridges) - nh} vertical")
    pier_bits = [
        f"({p.position[0]},{p.position[1]}){p.pointing.name}/{_short(p.taxonomy)}"
        for p in piers(gen)
    ]
    lines.append("piers: " + (", ".join(pier_bits) if pier_bits else "none"))
    try:
        anchor = select_pier_anchor(gen)
        lines.append(
            f"anchor: pier ({anchor.pier[0]},{anchor.pier[1]}),"
            f" (e,f)=({anchor.anchor[0]},{anchor.anchor[1]}),"
            f" glue side {anchor.glue_side.name}"
        )
    except ValueError as exc:
        lines.append(f"anchor: none ({exc})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _scaled_stage(args: argparse.Namespace) -> tuple[Generator, int, frozenset]:
    """The generator, the side and the cells of stage --stage at --scale;
    the cell budget is checked before any cell is built."""
    gen = _load_generator(args.generator)
    side = args.scale * gen.g**args.stage
    check_cell_budget(side)
    return gen, side, scale(stage(gen, args.stage), args.scale)


def cmd_stages(args: argparse.Namespace) -> int:
    _, side, points = _scaled_stage(args)
    draw = render_svg if args.format == "svg" else format_grid
    _emit(draw(points, side), args.out)
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    stats = census(args.g, allow_large=args.allow_large)
    lines = [
        f"side: {stats.g}",
        f"candidates: {stats.candidates}",
        f"valid: {stats.valid}",
        f"tree-fractal: {stats.tree_fractal}",
    ]
    for tax in (TAXONOMY_REAL, TAXONOMY_PARALLEL, TAXONOMY_ORTHOGONAL, TAXONOMY_DOUBLE):
        lines.append(f"piers {_short(tax)}: {stats.taxonomy.get(tax, 0)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    system = parse_tile_system(_read(args.system))
    region = args.region
    seq = run(system, region, _policy(args.policy, args.seed), args.max_steps)
    lines = [f"{index} {x} {y} {tile.name}" for index, (x, y), tile in seq.events]
    lines.append(f"tiles: {len(seq.result)}")
    # run stops short of its budget only once no site in the region is open
    at_limit = len(seq.events) == args.max_steps
    open_sites = frontier(system, seq.result, region) if at_limit else ()
    clipped = clipped_frontier(system, seq.result, region) if region and not open_sites else ()
    if open_sites:
        lines.append(f"stopped: step limit, {len(open_sites)} open sites")
    elif clipped:
        lines.append(f"stopped: region boundary, {len(clipped)} sites clipped")
    else:
        lines.append("stopped: terminal")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_movie(args: argparse.Namespace) -> int:
    gen = _load_generator(args.generator)
    system = parse_tile_system(_read(args.system))
    anchor = select_pier_anchor(gen)
    # the spec checks --scale and --stage before they size the region
    spec = WindowSpec(args.scale, args.stage, gen.g, anchor.anchor, anchor.pier)
    side = args.scale * gen.g**args.stage
    region = Box(0, 0, side - 1, side - 1)
    seq = run(system, region, _policy(args.policy, args.seed), args.max_steps)
    movie = record_movie(seq, window_inside(spec))
    if args.bond_forming:
        movie = bond_forming(movie, seq.result)
    _emit(format_movie(movie), args.out)
    return 0


def cmd_refute(args: argparse.Namespace) -> int:
    gen = _load_generator(args.generator)
    system = parse_tile_system(_read(args.system))
    cfg = RefutationConfig(
        generator=gen,
        c=args.scale,
        system=system,
        max_stage=args.max_stage,
        policy_seed=args.seed,
        max_steps=args.max_steps,
    )
    outcome = refute(cfg)
    if isinstance(outcome, NoMatchReport):
        _emit(format_no_match(outcome), args.out)
        return 3
    _emit(format_certificate(outcome), args.out)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    gen, side, points = _scaled_stage(args)
    windows = []
    glue_edges = []
    try:
        anchor = select_pier_anchor(gen)
    except ValueError:  # not a tree fractal
        anchor = None
    if anchor is not None:
        for s in range(2, args.stage + 1):
            inside = window_inside(WindowSpec(args.scale, s, gen.g, anchor.anchor, anchor.pier))
            windows.append(inside)
            glue_edges.extend(boundary_contacts(inside, points)[anchor.glue_side])
    _emit(render_svg(points, side, windows, glue_edges), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractile",
        description="Discrete self-similar fractals, tile assembly, and"
        " window-movie refutation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, uses: str, help_text: str) -> argparse.ArgumentParser:
        # uses: the library modules the command runs, bound by main
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, uses=uses.split())
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("analyze", cmd_analyze, "fractal", "characterize a generator file")
    p.add_argument("generator", help="path to a .gen file")

    # scale is stage 1 of stages
    for name, help_text in (
        ("stages", "render a fractal stage"),
        ("scale", "render the c-scaled generator pattern"),
    ):
        p = add(name, cmd_stages, "fractal render", help_text)
        p.add_argument("generator", help="path to a .gen file")
        if name == "stages":
            p.add_argument("--stage", type=int, default=2, help="stage index (default 2)")
        else:
            p.set_defaults(stage=1)
        p.add_argument("--scale", type=int, default=1, help="scale factor (default 1)")
        p.add_argument(
            "--format", choices=("text", "svg"), default="text", help="output format"
        )

    p = add("census", cmd_census, "fractal", "enumerate all generators of a side")
    p.add_argument("g", type=int, help="side length")
    p.add_argument(
        "--allow-large", action="store_true", help="permit the 32768-candidate side-4 run"
    )

    p = add("simulate", cmd_simulate, "tiles", "run a tile system")
    p.add_argument("system", help="path to a .tas file")
    p.add_argument(
        "--region", type=_region, help="bounding box x0,y0,x1,y1 (default unbounded)"
    )
    p.add_argument(
        "--policy", choices=("lex", "uniform"), default="lex", help="selection policy"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the uniform policy")
    p.add_argument("--max-steps", type=_step_budget, help="step budget")

    p = add(
        "movie",
        cmd_movie,
        "fractal tiles movies windows",
        "record a window movie along a stage window",
    )
    p.add_argument("generator", help="path to a .gen file")
    p.add_argument("system", help="path to a .tas file")
    p.add_argument("--stage", type=int, default=2, help="window stage (default 2)")
    p.add_argument("--scale", type=int, default=1, help="scale factor (default 1)")
    p.add_argument(
        "--policy", choices=("lex", "uniform"), default="lex", help="selection policy"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the uniform policy")
    p.add_argument("--max-steps", type=_step_budget, help="step budget")
    p.add_argument(
        "--bond-forming", action="store_true", help="keep only bond-forming events"
    )

    p = add("refute", cmd_refute, "fractal tiles refuter", "search for a splice counterexample")
    p.add_argument("generator", help="path to a .gen file")
    p.add_argument("system", help="path to a .tas file")
    p.add_argument("--scale", type=int, default=1, help="scale factor (default 1)")
    p.add_argument("--max-stage", type=int, default=6, help="largest window stage")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="run the seeded uniform policy (default: lexicographic)",
    )
    p.add_argument("--max-steps", type=_step_budget, help="step budget")

    p = add(
        "render",
        cmd_render,
        "fractal render windows",
        "SVG of a stage with windows and glue lines",
    )
    p.add_argument("generator", help="path to a .gen file")
    p.add_argument("--stage", type=int, default=2, help="stage index (default 2)")
    p.add_argument("--scale", type=int, default=1, help="scale factor (default 1)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    for module in args.uses:
        _bind(module)
    if getattr(args, "max_steps", 0) is None:
        args.max_steps = DEFAULT_MAX_STEPS
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
