import itertools

import pytest
from hypothesis import given, settings, strategies as st

from legcob.errors import DomainError
from legcob.laurent import LaurentPoly, parse_poly
from legcob.exactseq import (les_solve, zero_surgery_update, connect_sum,
                             filling_polynomial)


def brute_feasible(dims):
    """Independent oracle: enumerate interior rank tuples directly."""
    L = len(dims)
    if L == 1:
        return dims[0] == 0
    top = max(dims)
    for ranks in itertools.product(range(top + 1), repeat=L - 1):
        full = (0,) + ranks + (0,)
        if all(dims[i] == full[i] + full[i + 1] for i in range(L)):
            return True
    return False


def test_les_solve_isomorphism():
    assert les_solve([2, None]) == [(2,)]
    assert les_solve([None, 3]) == [(3,)]


def test_les_solve_four_term():
    # 0 -> X -> F -> F -> Y -> 0: X and Y vanish together or are both lines
    assert les_solve([None, 1, 1, None]) == [(0, 0), (1, 1)]


def test_les_solve_fully_known():
    assert les_solve([0, 0, 1, 2, 1]) == [()]
    assert les_solve([1, 0, 1]) == []


def test_les_solve_min_ranks():
    assert les_solve([1, None], min_ranks={0: 1}) == [(1,)]
    assert les_solve([1, None], min_ranks={0: 2}) == []


def test_les_solve_rejects_bad_input():
    with pytest.raises(DomainError):
        les_solve([])
    with pytest.raises(DomainError):
        les_solve([-1, None])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6))
def test_les_solve_matches_brute_force(dims):
    assert bool(les_solve(dims)) == brute_feasible(dims)


def test_zero_surgery_update_examples():
    assert zero_surgery_update(parse_poly("2t^3 + t^2 + 1"), 3) == \
        parse_poly("t^3 + t^2 + 1")
    assert zero_surgery_update(LaurentPoly({5: 2, 3: 1, 1: 1}), 5) == \
        LaurentPoly({5: 1, 3: 1, 1: 1})
    with pytest.raises(DomainError, match="precondition violated"):
        zero_surgery_update(parse_poly("t^3"), 3)
    with pytest.raises(DomainError, match="duality violated"):
        zero_surgery_update(LaurentPoly({3: 2, -2: 1}), 3)


def test_zero_surgery_round_trip():
    gamma = parse_poly("2t^3 + t^2 + 1")
    assert zero_surgery_update(gamma, 3) + LaurentPoly({3: 1}) == gamma


def test_connect_sum_examples():
    assert connect_sum([parse_poly("t^3 + t"), parse_poly("t^3 + t^2")], 3) \
        == parse_poly("t^3 + t^2 + t")
    assert connect_sum([parse_poly("t^4")], 4) == parse_poly("t^4")
    three = [parse_poly("t^3 + t"), parse_poly("t^3 + t"),
             LaurentPoly({3: 1, 4: 1, -2: 1})]
    assert connect_sum(three, 3) == LaurentPoly({3: 1, 1: 2, 4: 1, -2: 1})
    with pytest.raises(DomainError, match="coefficient underflow"):
        connect_sum([parse_poly("t^2"), parse_poly("t^2")], 3)


def test_connect_sum_order_independent():
    blocks = [parse_poly("t^3 + t"), parse_poly("t^3 + t^2"),
              parse_poly("2t^3")]
    expect = connect_sum(blocks, 3)
    for perm in itertools.permutations(blocks):
        assert connect_sum(list(perm), 3) == expect
    # folding in two stages agrees with one pass
    left = connect_sum(blocks[:2], 3)
    assert connect_sum([left, blocks[2]], 3) == expect


def test_filling_polynomial():
    assert str(filling_polynomial(1, 1)) == "t + 2"
    assert filling_polynomial(0, 1) == parse_poly("t")
    assert filling_polynomial(0, 2) == parse_poly("t + 1")
    with pytest.raises(DomainError):
        filling_polynomial(-1, 1)
    with pytest.raises(DomainError):
        filling_polynomial(0, 0)


@given(st.integers(min_value=0, max_value=9),
       st.integers(min_value=1, max_value=9))
def test_filling_polynomial_euler(genus, comps):
    poly = filling_polynomial(genus, comps)
    assert poly.evaluate(-1) == 2 * genus + comps - 2
