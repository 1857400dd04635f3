import pytest

from fractile import (
    Assembly,
    Box,
    Generator,
    Glue,
    NULL_GLUE,
    TileSystem,
    TileType,
)

SIERPINSKI_CELLS = frozenset({(0, 0), (1, 0), (0, 1)})
L_CELLS = frozenset({(0, 0), (1, 0), (1, 1)})
MIRRORED_L_CELLS = frozenset({(0, 0), (0, 1), (1, 1)})

# g=4 pattern with an east-pointing pier at (3,2) and a north-pointing one
# at (2,3), both parallel; the default anchor choice and the forced (3,2)
# choice exercise a north- and an east-pointing pier.
HOOK4_CELLS = frozenset(
    {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 2), (3, 2), (2, 3)}
)

# g=4 pattern whose pier (2,3) sits on no bridge at all (a real pier).
REAL_PIER_CELLS = frozenset(
    {(0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (2, 2), (3, 2), (2, 3)}
)


@pytest.fixture
def sierpinski():
    return Generator(2, SIERPINSKI_CELLS)


@pytest.fixture
def l_gen():
    return Generator(2, L_CELLS)


@pytest.fixture
def mirrored_l():
    return Generator(2, MIRRORED_L_CELLS)


@pytest.fixture
def hook4():
    return Generator(4, HOOK4_CELLS)


@pytest.fixture
def real_pier_gen():
    return Generator(4, REAL_PIER_CELLS)


@pytest.fixture
def ribbon_system():
    """Single tile with matching N/S glues: grows an unbounded column."""
    tile = TileType(
        "col", north=Glue("n", 1), east=NULL_GLUE, south=Glue("n", 1), west=NULL_GLUE
    )
    return TileSystem(tiles=(tile,), seed=Assembly({(0, 0): tile}), temperature=1)


@pytest.fixture
def ribbon_region():
    return Box(0, 0, 0, 3)
