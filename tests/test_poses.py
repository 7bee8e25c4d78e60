import pytest

from sketchparts.poses import MERGE4, MIRROR, PHRASES, POSES, direction

COMPASS = {"N": "north", "E": "east", "S": "south", "W": "west"}


@pytest.mark.parametrize("p", POSES)
def test_tables_agree_with_direction(p):
    dx, dy = direction(p)
    mx, my = direction(MIRROR[p])
    assert abs(mx + dx) < 1e-12 and abs(my - dy) < 1e-12  # mirroring negates dx alone
    assert MIRROR[MIRROR[p]] == p
    if abs(dx) < 1e-9:
        assert MERGE4[p] == ("N" if dy < 0 else "S")  # y grows downward
    else:
        assert MERGE4[p] == ("E" if dx > 0 else "W")
    assert PHRASES[p] == "-".join(COMPASS[letter] for letter in p)
