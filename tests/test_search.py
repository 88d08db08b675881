from legcob.front import parse_front
from legcob.moves import ISOTOPY_KINDS, apply_move
from legcob.search import connect_fronts

TWO_EYES = "L1 R1 L1 R1"


def _replay(d, path):
    for m in path:
        d = apply_move(d, m)
    return d


def _search(a, b, depth, budget):
    return connect_fronts(a, b, depth, budget, (0, 20), ISOTOPY_KINDS, None)


def test_connect_fronts_one_commute_apart():
    a = parse_front(TWO_EYES)
    b = apply_move(a, ("C", 1))
    assert b.word == "L1 L1 R3 R1"
    path = _search(a, b, 1, 100)
    assert _replay(a, path).word == b.word
    assert _search(a, a, 1, 100) == []
    assert _search(a, b, 0, 100) is None
    assert _search(a, b, 1, 0) is None


def test_connect_fronts_meets_in_the_middle():
    # four fish apart: one level from each side is too shallow; two
    # levels meet, and the backward half (two fish removals) comes back
    # inverted and in order
    a = parse_front("L1 R1")
    b = _replay(a, [("R1a", 1, 1), ("R1b", 1, 1), ("R1a", 7, 1),
                    ("R1b", 9, 1)])
    assert _search(a, b, 1, 2000) is None
    path = _search(a, b, 2, 2000)
    assert path == [("R1a", 1, 1), ("R1b", 3, 1), ("R1a", 1, 1),
                    ("R1b", 1, 1)]
    assert _replay(a, path).word == b.word
    assert _search(a, b, 2, 300) is None
