import itertools
import random

import pytest

from legcob.errors import DomainError
from legcob.exactseq import connect_sum
from legcob.geography import Block, RealizationPlan, classical_fillable, realize
from legcob.laurent import LaurentPoly, is_connected_form, parse_poly, tb_from_polynomial


def test_block_polynomials():
    assert str(Block("Saucer", 4).gamma) == "t^4"
    assert str(Block("Manifold", 3, 2).gamma) == "t^3 + t^2"
    assert str(Block("Sphere", 3, 4).gamma) == "t^4 + t^3 + t^(-2)"
    assert str(Block("Sphere", 5, 2).gamma) == "t^5 + t^2 + t^2".replace(
        "t^2 + t^2", "2t^2")


def test_block_validation():
    with pytest.raises(DomainError, match="takes no degree"):
        Block("Saucer", 3, 1)
    with pytest.raises(DomainError, match="in 1..2"):
        Block("Manifold", 3, 3)
    with pytest.raises(DomainError, match="unknown block kind"):
        Block("Torus", 3, 1)


def test_realize_saucer_only_for_pure_top():
    for n in range(2, 7):
        plan = realize(LaurentPoly({n: 1}), n)
        assert [b.kind for b in plan.blocks] == ["Saucer"]
        assert plan.verified()


def test_realize_single_manifold():
    plan = realize(parse_poly("t^3 + t^2"), 3)
    assert [(b.kind, b.a) for b in plan.blocks] == [("Manifold", 2)]


def test_realize_single_sphere_above_top():
    plan = realize(parse_poly("t^4 + t^3 + t^-2"), 3)
    assert [(b.kind, b.a) for b in plan.blocks] == [("Sphere", 4)]


def test_realize_multi_block_replay():
    target = parse_poly("t^4 + t^3 + 2t^2 + t + 1 + t^-2")
    plan = realize(target, 3)
    assert connect_sum([b.gamma for b in plan.blocks], 3) == target
    assert plan.betti_realized == [1, 2, 2, 1]
    d = plan.to_dict()
    assert d["verification"]["equal"] is True
    assert len(d["blocks"]) == len(plan.blocks)


def test_realize_prefers_manifold_blocks():
    # t^3 + 2t also splits as t^3 plus a sphere in degree 1, but the
    # q-first policy keeps the self-dual pair in manifold blocks.
    plan = realize(parse_poly("t^3 + 2t"), 3)
    kinds = sorted((b.kind, b.a) for b in plan.blocks)
    assert kinds == [("Manifold", 1), ("Manifold", 1)]


def test_sphere_only_mode():
    plan = realize(parse_poly("t^3 + 2t"), 3, sphere_only=True)
    assert [(b.kind, b.a) for b in plan.blocks] == [("Sphere", 1)]
    with pytest.raises(DomainError, match="sphere-only plan impossible"):
        realize(parse_poly("t^3 + t^2"), 3, sphere_only=True)


def test_realize_rejects_incompatible():
    with pytest.raises(DomainError, match="not compatible with duality"):
        realize(parse_poly("t^3 + t^-2"), 3)
    with pytest.raises(DomainError, match="not compatible with duality"):
        realize(parse_poly("2t^3 + t^2"), 3)  # no splitting kills q_0... q_n = 2
    with pytest.raises(DomainError, match="dimension must be >= 2"):
        realize(parse_poly("t"), 1)


def test_realize_random_round_trip():
    rng = random.Random(7)
    done = 0
    while done < 60:
        n = rng.randint(2, 6)
        q = {n: 1}
        for a in range(1, n):
            q[a] = rng.randint(0, 2)
        p = {}
        for _ in range(rng.randint(0, 3)):
            p[rng.randint(-3, n + 3)] = rng.randint(1, 2)
        target = LaurentPoly(q)
        pp = LaurentPoly(p)
        target = target + pp + pp.reflect(n - 1)
        plan = realize(target, n)
        assert plan.verified()
        assert connect_sum([b.gamma for b in plan.blocks], n) == target
        done += 1


def test_classical_fillable_frozen_values():
    P, plan = classical_fillable(5, 3)
    assert str(P) == "t^5 + 2t^4 + 2"
    assert [(b.kind, b.a) for b in plan.blocks] == [("Sphere", 4)] * 2
    P, _ = classical_fillable(5, -3)
    assert str(P) == "2t^5 + t^(-1)"
    P, plan = classical_fillable(5, -1)
    assert str(P) == "t^5"
    assert [b.kind for b in plan.blocks] == ["Saucer"]


def test_classical_fillable_hits_every_odd_invariant():
    for n in (3, 5, 7):
        for tau in range(-9, 10, 2):
            P, plan = classical_fillable(n, tau)
            assert tb_from_polynomial(P, n) == tau
            assert plan.verified()
            assert is_connected_form(P, n)


def test_classical_fillable_rejects_bad_input():
    with pytest.raises(DomainError, match="n must be odd"):
        classical_fillable(4, 3)
    with pytest.raises(DomainError, match="tau must be odd"):
        classical_fillable(5, 2)
    with pytest.raises(DomainError, match="n must be >= 3"):
        classical_fillable(1, 1)


def _sphere_form_candidates(n, lo, hi, max_coeff, max_terms):
    """All t^n + p + reflect(p) with p supported in [lo, hi]."""
    degs = range(lo, hi + 1)
    for size in range(0, max_terms + 1):
        for support in itertools.combinations(degs, size):
            for coeffs in itertools.product(range(1, max_coeff + 1),
                                            repeat=size):
                p = LaurentPoly(dict(zip(support, coeffs)))
                yield LaurentPoly({n: 1}) + p + p.reflect(n - 1)


def test_negative_invariant_polynomial_is_minimal_support():
    # Among all sphere-form polynomials in dimension 5 with the target
    # invariant -3, none beats 2t^5 + t^(-1) on (support size, count).
    target, _ = classical_fillable(5, -3)
    best = (len(target.coeffs), target.total_count())
    for P in _sphere_form_candidates(5, -3, 8, 3, 2):
        if tb_from_polynomial(P, 5) != -3:
            continue
        assert (len(P.coeffs), P.total_count()) >= best
