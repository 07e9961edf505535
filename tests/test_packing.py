import pytest

from aqpath.cube import AugmentedCube
from aqpath.packing import pack_segments


@pytest.mark.parametrize("demands", [
    [(0, 1, 1), (1, 0, 1)],
    [(0, 1, 1), (0, 1, 1)],
    [(0, 1, 0), (1, 0, 2)],
], ids=["reversed", "repeated", "zero-count"])
def test_a_terminal_pair_in_two_demands_is_rejected(demands):
    # either demand alone may take the direct edge 0-1, so together they
    # would use it twice
    with pytest.raises(ValueError, match="more than one demand"):
        pack_segments(AugmentedCube(3), demands)


def test_one_demand_uses_the_direct_edge_once():
    segs, = pack_segments(AugmentedCube(3), [(0, 1, 2)])
    assert len(segs) == 2 and segs.count((0, 1)) == 1
