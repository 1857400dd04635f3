"""One fractile invocation in a fresh process, optionally traced.

    python driver.py [--spans FILE [--probe-stable]] cli ARG...
    python driver.py [--spans FILE] strict GEN TAS DEPTH lex|uniform SEED
    python driver.py setup FILE...

``cli`` calls ``fractile.cli.main(ARG...)`` and exits with its code; no
console script or ``__main__`` is needed.  ``strict`` parses a generator
and a tile system and runs ``check_strict_self_assembly`` against the
generator's stage DEPTH inside its bounding square, a check that has no
command of its own.  ``setup`` imports ``fractile.cli``, parses each
``.gen``/``.tas`` file and exits.  The fractile sources must be on
PYTHONPATH.

With ``--spans FILE`` the process records spans around the calls into
each fractile module and writes them to FILE when it ends (see
tracing.py); the command's own output is unchanged.  ``--probe-stable``
additionally times ``is_tau_stable`` on the last ``run`` result, after
the command has finished.
"""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _install(tracer) -> None:
    import fractile.cli as cli
    import fractile.movies as movies
    import fractile.refuter as refuter
    import fractile.tiles as tiles

    def steps(seq):
        return {"steps": len(seq.events)}

    def sites(found):
        return {"sites": len(found)}

    def events(movie):
        return {"events": len(movie.events)}

    def census_counts(stats):
        return {"candidates": stats.candidates, "tree_fractal": stats.tree_fractal}

    def pairs(outcome):
        if isinstance(outcome, refuter.NoMatchReport):
            return {"pairs": len(outcome.notes)}
        top = outcome.config.max_stage
        order = [(i, j) for i in range(2, top) for j in range(i + 1, top + 1)]
        return {"pairs": order.index((outcome.i, outcome.j)) + 1}

    for module, attr, name, counts in (
        (cli, "parse_tile_system", "tiles.parse", None),
        (cli, "run", "tiles.run", steps),
        (cli, "frontier", "tiles.frontier", sites),
        (cli, "clipped_frontier", "tiles.clipped_frontier", sites),
        (cli, "refute", "refuter.refute", pairs),
        (cli, "format_certificate", "refuter.format", None),
        (cli, "format_no_match", "refuter.format", None),
        (cli, "census", "fractal.census", census_counts),
        (refuter, "run", "tiles.run", steps),
        (refuter, "record_movie", "movies.record", events),
        (refuter, "bond_forming", "movies.bond_forming", events),
        (refuter, "splice", "movies.splice", None),
        (refuter, "window_inside", "windows.inside", None),
        (refuter, "stage", "fractal.stage", None),
        (refuter, "select_pier_anchor", "fractal.anchor", None),
        (movies, "replay", "tiles.replay", None),
        (tiles, "is_connected", "grid.connected", None),
    ):
        tracer.wrap(module, attr, name, counts)


def _strict(args: list[str], timed) -> int:
    from fractile.fractal import parse_generator, stage
    from fractile.tiles import (
        Box,
        LexicographicPolicy,
        SeededUniformPolicy,
        check_strict_self_assembly,
        parse_tile_system,
    )

    gen_path, tas_path, depth, policy_name, seed = args
    depth = int(depth)
    gen = parse_generator(_read(gen_path))
    with timed("tiles.parse"):
        system = parse_tile_system(_read(tas_path))
    with timed("fractal.stage"):
        target = stage(gen, depth)
    side = gen.g**depth
    policy = (
        SeededUniformPolicy(int(seed)) if policy_name == "uniform" else LexicographicPolicy()
    )
    with timed("tiles.strict") as record:
        check = check_strict_self_assembly(
            system, target, Box(0, 0, side - 1, side - 1), policy
        )
    if record is not None:
        record["steps"] = check.steps
    witness = "none" if check.witness is None else f"{check.witness[0]} {check.witness[1]}"
    sys.stdout.write(
        f"verdict: {check.status}\nwitness: {witness}\nsteps: {check.steps}\n"
        f"detail: {check.detail}\n"
    )
    return 0


def main(argv: list[str]) -> int:
    spans_path = None
    probe_stable = False
    while argv and argv[0].startswith("--"):
        if argv[0] == "--spans":
            spans_path, argv = argv[1], argv[2:]
        elif argv[0] == "--probe-stable":
            probe_stable, argv = True, argv[1:]
        else:
            raise SystemExit(f"driver: unknown option {argv[0]}")
    if not argv or argv[0] not in ("cli", "strict", "setup"):
        raise SystemExit(__doc__)
    kind, args = argv[0], argv[1:]

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer(os.path.basename(spans_path))

    def timed(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    with timed("cli.import"):
        import fractile.cli as cli
    if tracer is not None:
        _install(tracer)

    if kind == "setup":
        for path in args:
            parse = cli.parse_generator if path.endswith(".gen") else cli.parse_tile_system
            parse(_read(path))
        code = 0
    elif kind == "strict":
        code = _strict(args, timed)
    else:
        with timed("cli.main"):
            code = cli.main(args)
    sys.stdout.flush()

    if tracer is not None:
        if probe_stable:
            from fractile.tiles import is_tau_stable

            seq = tracer.last["tiles.run"]
            with tracer.span("tiles.stable", probe=True):
                is_tau_stable(seq.result, seq.system.temperature)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
