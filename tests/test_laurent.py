import pytest
from hypothesis import given, settings, strategies as st

from legcob.errors import DomainError
from legcob.exactseq import connect_sum
from legcob.laurent import (LaurentPoly, parse_poly, decompose,
                            is_connected_form, tb_from_polynomial)


def test_parse_and_format_round_trip_basics():
    for text in ["t^5 + 2t^4 + 2", "t", "2 + t", "3t^(-1) + t", "t^3 + 2t"]:
        poly = parse_poly(text)
        assert parse_poly(str(poly)) == poly


def ref_str(poly):
    """The text __str__ printed before it joined cached term texts."""
    if not poly.coeffs:
        return "0"
    out = []
    for d, c in sorted(poly.coeffs.items(), reverse=True):
        if c > 0:
            out.append(" + ")
        else:
            out.append(" - ")
            c = -c
        var = ("" if d == 0 else "t" if d == 1
               else f"t^{d}" if d > 0 else f"t^({d})")
        out.append(var if c == 1 and d else f"{c}{var}")
    out[0] = "" if out[0] == " + " else "-"
    return "".join(out)


degrees = (st.sampled_from([0, 1, -1, 2, -2, 10**6, -(10**6), 2**70])
           | st.integers(-70, 70))
coefficients = (st.sampled_from([1, -1, 2, -2, 12, -(10**30)])
                | st.integers().filter(bool))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(degrees, coefficients, max_size=8))
def test_str_matches_the_term_loop(coeffs):
    poly = LaurentPoly(coeffs)
    assert str(poly) == ref_str(poly)
    assert parse_poly(str(poly)) == poly


def test_str_of_the_zero_polynomial():
    assert str(LaurentPoly()) == ref_str(LaurentPoly()) == "0"
    assert str(LaurentPoly({3: 1, 0: -1})) == "t^3 - 1"
    assert str(LaurentPoly({1: -1, -1: 1})) == "-t + t^(-1)"


# The compat targets at n = 8, 9 and 10 of the benchmark's exact_counts
# workload, seed 1, with 990, 10,098 and 20,160 splittings
BENCH_TARGETS = [
    (8, "t^8 + 4t^7 + 5t^6 + 4t^5 + 13t^4 + 10t^3 + 4t^2 + 5t + 2", 990),
    (9, "t^9 + 5t^8 + 19t^7 + 12t^6 + 5t^5 + 5t^4 + 7t^3 + 10t^2 + 16t + 2",
     10_098),
    (10, "t^10 + 3t^9 + 22t^8 + 10t^7 + 13t^6 + 3t^5 + 3t^4 + 15t^3 + 8t^2 "
         "+ 19t + 1", 20_160),
]


@pytest.mark.parametrize("n, text, count", BENCH_TARGETS,
                         ids=[str(n) for n, _, _ in BENCH_TARGETS])
def test_str_matches_the_term_loop_on_every_splitting(n, text, count):
    splits = decompose(parse_poly(text), n)
    assert len(splits) == count
    for q, p in splits:
        assert str(q) == ref_str(q) and str(p) == ref_str(p)


def test_parse_rejects_garbage():
    for bad in ["", "t^", "2 +", "x + 1", "t^^2"]:
        with pytest.raises(DomainError):
            parse_poly(bad)
    # a stray '*' or an unbalanced parenthesis is not a term either
    for bad in ["2*", "1 + 2*", "*t", "t^(2", "t^-1)"]:
        with pytest.raises(DomainError, match="cannot parse term"):
            parse_poly(bad)
    # nor do two digits on either side of a space join into one number
    for bad in ["2 3", "t^1 0", "1 2t"]:
        with pytest.raises(DomainError, match="space inside a number"):
            parse_poly(bad)


def test_parse_negative_exponents():
    poly = parse_poly("2t^-2 + 1")
    assert poly.coeff(-2) == 2 and poly.coeff(0) == 1
    assert parse_poly("2t^(-2) + 1") == poly


def test_parse_star_between_coefficient_and_t():
    assert parse_poly("2*t") == LaurentPoly({1: 2})
    assert parse_poly("3*t^(-1) + 2*t^4") == LaurentPoly({-1: 3, 4: 2})
    assert parse_poly("t^(-1)") == parse_poly("t^-1") == LaurentPoly({-1: 1})


def test_subtract_monomial_underflow():
    poly = parse_poly("t^3 + 2t")
    assert poly.subtract_monomial(1) == parse_poly("t^3 + t")
    with pytest.raises(DomainError, match="coefficient underflow"):
        poly.subtract_monomial(3, 2)


def test_reflect():
    p = LaurentPoly({4: 2})
    assert p.reflect(4) == LaurentPoly({0: 2})
    assert LaurentPoly({1: 1, 0: 3}).reflect(2) == LaurentPoly({1: 1, 2: 3})


# Hand-worked decomposition oracles.  For P = t^3 + 2t at n = 3 the only
# forced value is p_3 = 0, the middle band is p_1 (self dual) and p_2, and
# the feasible assignments are p = 0 and p = t exactly.

def test_decompose_t3_plus_2t():
    results = decompose(parse_poly("t^3 + 2t"), 3)
    as_pairs = {(str(q), str(p)) for q, p in results}
    assert as_pairs == {("t^3 + 2t", "0"), ("t^3", "t")}


def test_decompose_negative_tail_infeasible():
    # t^n + t^-2 forces p_(n+1) to be both 1 (from degree -2) and 0
    # (from degree n+1), so no decomposition can exist.
    for n in range(2, 7):
        poly = LaurentPoly({n: 1, -2: 1})
        assert decompose(poly, n) == []


def test_decompose_two_plus_t():
    results = decompose(parse_poly("2 + t"), 1)
    as_pairs = {(str(q), str(p)) for q, p in results}
    assert ("t", "1") in as_pairs
    assert as_pairs == {("t", "1"), ("t + 2", "0")}


def test_decompose_requires_fundamental_class():
    # No t^n term at all: q_n cannot reach 1.
    assert decompose(parse_poly("2t^2"), 3) == []


def test_connected_form_examples():
    assert is_connected_form(parse_poly("t^5 + 2t^4 + 2"), 5)
    assert is_connected_form(parse_poly("2 + t"), 1)
    # doubled fundamental class is never connected
    for n, a in [(3, 1), (5, 2), (4, 1)]:
        poly = LaurentPoly({n: 2, a: 1, n - 1 - a: 1})
        assert not is_connected_form(poly, n)


def test_unique_connected_decomposition_t5():
    results = decompose(parse_poly("t^5 + 2t^4 + 2"), 5)
    connected = [(q, p) for q, p in results
                 if q.coeff(5) == 1 and q.coeff(0) == 0]
    assert len(connected) == 1
    q, p = connected[0]
    assert str(q) == "t^5" and str(p) == "2t^4"


def test_decompose_window_guard():
    with pytest.raises(DomainError, match="outside search window"):
        decompose(LaurentPoly({100: 1, 3: 1}), 3)


def test_tb_from_polynomial_values():
    assert tb_from_polynomial(parse_poly("t"), 1) == -1
    assert tb_from_polynomial(parse_poly("2 + t"), 1) == 1
    assert tb_from_polynomial(parse_poly("t^5 + 2t^4 + 2"), 5) == 3
    assert tb_from_polynomial(parse_poly("t^3"), 3) == 1
    assert tb_from_polynomial(parse_poly("t^3 + 2t^2 + 2"), 3) == -3


@st.composite
def qp_pair(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    mid = n // 2
    q = {n: draw(st.integers(min_value=1, max_value=3))}
    for d in draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                           max_size=4)):
        q[d] = q.get(d, 0) + draw(st.integers(min_value=1, max_value=3))
    p = {}
    for d in draw(st.lists(st.integers(min_value=mid, max_value=n + 3),
                           max_size=3)):
        p[d] = p.get(d, 0) + draw(st.integers(min_value=1, max_value=2))
    return n, LaurentPoly(q), LaurentPoly(p)


@settings(max_examples=150, deadline=None)
@given(qp_pair())
def test_decompose_finds_planted_pair(data):
    n, q, p = data
    poly = q + p + p.reflect(n - 1)
    results = decompose(poly, n)
    assert (q, p) in results
    for q2, p2 in results:
        assert q2 + p2 + p2.reflect(n - 1) == poly
        assert all(0 <= d <= n for d in q2.coeffs)
        assert q2.coeff(n) >= 1


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(min_value=-4, max_value=10),
                       st.integers(min_value=1, max_value=3), max_size=5),
       st.integers(min_value=1, max_value=6))
def test_decompose_output_always_replays(coeffs, n):
    poly = LaurentPoly(coeffs)
    for q, p in decompose(poly, n):
        assert q + p + p.reflect(n - 1) == poly


def ref_fold(pairs):
    """The coefficients a chain of `+` builds, one monomial per pair:
    each step copies the sum, adds the monomial and drops every zero
    coefficient, the way LaurentPoly built polynomials term by term."""
    total = {}
    for d, c in pairs:
        term = {int(d): int(c)} if c else {}
        out = dict(total)
        for e, v in term.items():
            out[e] = out.get(e, 0) + v
        total = {int(e): int(v) for e, v in out.items() if v}
    return total


def ref_connect_sum(gammas, n):
    """The old connect sum: add each summand, then take one t^n off."""
    total = gammas[0]
    for g in gammas[1:]:
        total = LaurentPoly(ref_fold([*total.coeffs.items(),
                                      *g.coeffs.items()]))
        total = total.subtract_monomial(n)
    return total


# few degrees and small coefficients, so that running sums reach 0 and
# come back
fold_pairs = st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 2)),
                      max_size=30)


@settings(max_examples=300, deadline=None)
@given(fold_pairs, fold_pairs)
def test_constructor_sum_and_difference_match_the_chain(left, right):
    want = ref_fold(left)
    assert LaurentPoly(left).coeffs == want
    assert list(LaurentPoly(iter(left)).coeffs.items()) == list(want.items())
    assert LaurentPoly(dict(left)).coeffs == ref_fold(dict(left).items())
    a, b = LaurentPoly(left), LaurentPoly(right)
    both = [*a.coeffs.items(), *b.coeffs.items()]
    assert (a + b).coeffs == ref_fold(both)
    assert (a - b).coeffs == ref_fold(
        [*a.coeffs.items(), *((d, -c) for d, c in b.coeffs.items())])


def test_constructor_revives_a_cancelled_degree_last():
    p = LaurentPoly([(1, 2), (0, 1), (1, -2), (1, 3)])
    assert list(p.coeffs.items()) == [(0, 1), (1, 3)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 4), st.integers(-1, 2),
                                max_size=3), min_size=1, max_size=8),
       st.integers(2, 4))
def test_connect_sum_underflows_at_the_chain_prefix(summands, n):
    """connect_sum answers as the old fold does on every prefix, and
    refuses at the first prefix the fold refuses, with its message."""
    gammas = [LaurentPoly(c) for c in summands]
    for k in range(1, len(gammas) + 1):
        try:
            want = ref_connect_sum(gammas[:k], n)
        except DomainError as e:
            with pytest.raises(DomainError) as got:
                connect_sum(gammas[:k], n)
            assert str(got.value) == str(e)
            assert str(e).startswith(f"coefficient underflow at degree {n}")
            return
        assert connect_sum(gammas[:k], n).coeffs == want.coeffs
