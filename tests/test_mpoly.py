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


def ref_fold(nvars, pairs):
    """The terms a chain of `+` builds, one single-term polynomial per
    pair: each step copies the sum, adds the term and drops every zero
    coefficient, the way MultiPoly built polynomials term by term."""
    total = {}
    for exps, c in pairs:
        term = {tuple(int(e) for e in exps): 0.0 + float(c)} if c else {}
        out = dict(total)
        for e, v in term.items():
            out[e] = out.get(e, 0.0) + v
        total = {e: 0.0 + float(v) for e, v in out.items() if v}
    return total


def _bits(terms):
    """The items of a term dict in order, each coefficient as its exact
    bits (nan and -0.0 included)."""
    return [(e, float(c).hex()) for e, c in terms.items()]


# few keys and coefficients that cancel, so that running sums reach 0
# and come back
fold_exps = st.tuples(st.integers(0, 2), st.integers(0, 1))
fold_coeffs = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.1, 0.2, -0.3, 0.0, -0.0]),
    st.floats(width=64))
fold_pairs = st.lists(st.tuples(fold_exps, fold_coeffs), max_size=30)


@settings(max_examples=300, deadline=None)
@given(fold_pairs)
def test_constructor_sums_pairs_like_the_chain(pairs):
    want = _bits(ref_fold(2, pairs))
    assert _bits(MultiPoly(2, pairs).terms) == want
    assert _bits(MultiPoly(2, iter(pairs)).terms) == want
    # a dict holds each key once, so it is its pairs
    d = dict(pairs)
    assert _bits(MultiPoly(2, d).terms) == _bits(ref_fold(2, d.items()))


@settings(max_examples=200, deadline=None)
@given(fold_pairs, fold_pairs)
def test_sum_and_parse_match_the_chain(left, right):
    p = MultiPoly(2, left) + MultiPoly(2, right)
    assert _bits(p.terms) == _bits(ref_fold(
        2, list(ref_fold(2, left).items()) + list(ref_fold(2, right).items())))
    finite = [(e, c) for e, c in left + right if np.isfinite(c)]
    if finite:
        text = " + ".join(f"{c!r}*x1^{e[0]}*e1^{e[1]}" for e, c in finite)
        assert _bits(poly(text).terms) == _bits(ref_fold(2, finite))


def test_constructor_revives_a_cancelled_term_last():
    p = MultiPoly(2, [((1, 0), 1.0), ((0, 1), 2.0), ((1, 0), -1.0),
                      ((1, 0), 3.0)])
    assert list(p.terms.items()) == [((0, 1), 2.0), ((1, 0), 3.0)]
    with pytest.raises(DomainError, match="3 slots, expected 2"):
        MultiPoly(2, [((0, 1, 0), 1.0)])
