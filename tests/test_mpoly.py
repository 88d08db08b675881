import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legcob.errors import DomainError
from legcob.mpoly import MultiPoly, parse_mpoly

NAMES = ["x1", "e1"]


def poly(text):
    return parse_mpoly(text, NAMES)


def test_parse_format_round_trip():
    p = poly("3*e1 - 3*x1^2*e1 - e1^3")
    assert p.format(NAMES) == "-3*x1^2*e1 - e1^3 + 3*e1"
    assert parse_mpoly(p.format(NAMES), NAMES).terms == p.terms
    # format prints repr, so these coefficients print with an exponent
    # whose sign must not split the term
    for c in (1e-05, -2.5e-300, 1e+16):
        p = MultiPoly(2, {(2, 0): c, (0, 1): -3.0})
        assert parse_mpoly(p.format(NAMES), NAMES).terms == p.terms
    assert poly("1e+5*e1 - 1E-3").terms == {(0, 1): 1e5, (0, 0): -1e-3}


def test_parse_constants_and_signs():
    assert poly("5").terms == {(0, 0): 5.0}
    assert poly("-x1 + x1").is_zero()
    assert poly("2.5*x1^2").terms == {(2, 0): 2.5}


def test_parse_errors():
    with pytest.raises(DomainError):
        poly("x9")
    with pytest.raises(DomainError):
        poly("")
    with pytest.raises(DomainError):
        poly("x1^")


def test_powers_are_products():
    """evaluate takes x1^k by repeated squaring, bit for bit, so that
    it rounds alike on every numpy SIMD tier; for k <= 2 that is numpy's
    own x ** k."""
    def squaring(x, k):
        out = 1.0
        while k:
            if k & 1:
                out *= x
            k >>= 1
            x *= x
        return out
    xs = np.random.default_rng(5).uniform(-3.0, 3.0, size=1000)
    for k in range(1, 10):
        got = MultiPoly(1, {(k,): 1.0}).evaluate([xs])
        want = np.array([squaring(float(x), k) for x in xs])
        assert np.array_equal(got, want), k
        if k <= 2:
            assert np.array_equal(got, xs ** k), k


def test_diff():
    p = poly("3*e1 - 3*x1^2*e1 - e1^3")
    assert p.diff(0).format(NAMES) == "-6*x1*e1"
    assert p.diff(1).format(NAMES) == "-3*x1^2 - 3*e1^2 + 3"
    assert p.diff(0).diff(1).format(NAMES) == "-6*x1"


def test_shift_is_substitution():
    p = poly("x1^2*e1 + e1^3")
    q = p.shift(0, 1.5)
    xs = np.array([-2.0, 0.0, 0.7])
    es = np.array([1.0, -3.0, 0.2])
    assert np.allclose(q.evaluate([xs, es]), p.evaluate([xs + 1.5, es]))


def test_insert_rotation_evaluates_on_radius():
    p = poly("3*e1 - 3*x1^2*e1 - e1^3")
    r = p.insert_rotation(0)
    assert r.nvars == 3
    a, b, e = 0.6, 0.8, -1.3
    rad = np.sqrt(a * a + b * b)
    got = r.evaluate([np.array([a]), np.array([b]), np.array([e])])[0]
    want = p.evaluate([np.array([rad]), np.array([e])])[0]
    assert abs(got - want) < 1e-12


def test_insert_rotation_rejects_odd_exponent():
    with pytest.raises(DomainError, match="odd exponent"):
        poly("x1*e1").insert_rotation(0)


def test_evaluate_broadcasting():
    p = poly("x1*e1")
    out = p.evaluate([np.array([1.0, 2.0]), np.array([3.0, -1.0])])
    assert np.allclose(out, [3.0, -2.0])
    c = poly("7")
    assert np.allclose(c.evaluate([np.array([1.0, 2.0]),
                                   np.array([0.0, 0.0])]), [7.0, 7.0])


small = st.floats(min_value=-4, max_value=4,
                  allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       small, max_size=5),
       small, st.lists(small, min_size=2, max_size=2))
def test_shift_round_trip_and_arith(terms, c, pt):
    p = MultiPoly(2, dict(terms))
    back = p.shift(0, c).shift(0, -c)
    cols = [np.array([pt[0]]), np.array([pt[1]])]
    assert abs(back.evaluate(cols)[0] - p.evaluate(cols)[0]) < 1e-6
    q = p + p.scale(-1.0)
    assert abs(q.evaluate(cols)[0]) < 1e-9
