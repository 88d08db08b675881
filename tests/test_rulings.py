import itertools

from legcob.front import parse_front
from legcob.rulings import enumerate_rulings, ruling_polynomial, validate_ruling
from legcob.laurent import LaurentPoly

TREFOIL = "L1 L2 X3 X3 X3 R2 R1"


def test_unknot_single_ruling():
    d = parse_front("L1 R1")
    assert enumerate_rulings(d) == [()]
    assert enumerate_rulings(d, graded=True) == [()]


def test_kink_has_no_rulings():
    d = parse_front("L1 X1 R1")
    assert enumerate_rulings(d) == []
    assert enumerate_rulings(d, graded=True) == []


def test_trefoil_rulings_frozen():
    # hand-enumerated: switch the first crossing, the last, or all three
    d = parse_front(TREFOIL)
    assert enumerate_rulings(d) == [(2,), (2, 3, 4), (4,)]
    assert enumerate_rulings(d, graded=True) == [(2,), (2, 3, 4), (4,)]
    assert ruling_polynomial(d) == ruling_polynomial(d, graded=True) == \
        LaurentPoly({0: 2, 2: 1})


def test_trefoil_rulings_match_filtered_brute_force():
    d = parse_front(TREFOIL)
    found = set(enumerate_rulings(d))
    xs = [i for i, _, _, _ in d.crossings]
    brute = set()
    for k in range(len(xs) + 1):
        for combo in itertools.combinations(xs, k):
            if validate_ruling(d, combo):
                brute.add(combo)
    assert found == brute


def test_zigzag_stabilization_kills_graded_rulings():
    # stabilized trefoil: an extra kink crossing right after the first cusp
    d = parse_front("L1 X1 L2 X3 X3 X3 R2 R1")
    from legcob.front import classical_invariants
    assert classical_invariants(d)["rotation"] != [0]
    assert enumerate_rulings(d, graded=True) == []


def test_validator_agrees_on_trefoil_subsets():
    d = parse_front(TREFOIL)
    rulings = set(enumerate_rulings(d))
    for k in range(4):
        for combo in itertools.combinations([2, 3, 4], k):
            assert validate_ruling(d, combo) == (combo in rulings)
    assert not validate_ruling(d, (0,))  # a cusp event is not a crossing


def test_every_ruling_revalidates():
    for word in ["L1 R1", TREFOIL, "L1 L2 X2 X2 X2 R2 R1",
                 "L1 L2 R1 L1 R2 R1", "L1 L2 X1 X3 X2 R1 R1"]:
        d = parse_front(word)
        for sw in enumerate_rulings(d):
            assert validate_ruling(d, sw)
        for sw in enumerate_rulings(d, graded=True):
            assert validate_ruling(d, sw)


def test_graded_subset_of_ungraded():
    for word in [TREFOIL, "L1 L2 X2 X2 X2 R2 R1", "L1 L2 X2 R1 R1"]:
        d = parse_front(word)
        graded = set(enumerate_rulings(d, graded=True))
        assert graded <= set(enumerate_rulings(d))


def test_forty_twists_by_the_sweep():
    # k twists have Fibonacci(k + 1) rulings: 55 at k = 9 (the golden
    # TWIST9), 165,580,141 at k = 40, none of them listed
    d = parse_front("L1 L2 " + "X3 " * 40 + "R2 R1")
    assert ruling_polynomial(d).total_count() == 165580141
    assert len(enumerate_rulings(d, limit=3)) == 3
