"""Discrete self-similar tree fractals, aTAM simulation, window movies,
and splice-based refutation.

Importing the package loads none of its modules: each public name below
is imported from its module on first use (PEP 562), so a process pays only
for the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "fractal": """Bridge CensusStats Generator Pier PierAnchor TAXONOMY_DOUBLE
        TAXONOMY_ORTHOGONAL TAXONOMY_PARALLEL TAXONOMY_REAL bridges census
        format_generator free_point_east free_point_north free_point_northeast
        is_tree_fractal_generator parse_generator piers random_valid_generator
        scale select_pier_anchor stage stage_property""",
    "grid": "DIRECTIONS Direction is_connected neighbors translate",
    "movies": """GlueEvent SpliceError WindowMovie bond_forming format_movie
        record_movie splice""",
    "refuter": """NoMatchReport RefutationConfig SpliceCertificate SubmovieGroup
        format_certificate format_no_match glue_line_bound refute""",
    "render": "check_cell_budget format_grid render_svg",
    "systems": "PIER_LABELS_STAGED PIER_LABELS_UNIFORM tree_edge_system",
    "stability": "is_tau_stable",
    "tiles": """Assembly AssemblySequence Box DEFAULT_MAX_STEPS Glue
        LexicographicPolicy NULL_GLUE ReplayError SeededUniformPolicy
        SequenceEvent StrictCheck TileSystem TileType VERDICT_INCOMPLETE_OK
        VERDICT_VIOLATION check_strict_self_assembly clipped_frontier
        format_tile_system frontier parse_tile_system replay run""",
    "windows": """WindowSpec boundary_contacts closed_window
        enclosure_bound_ok enclosure_margin encloses free_sides translation
        window_inside""",
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
