"""Reference code for the splitting box, kept to check the fast paths.

`ref_decompose` is the enumerator that `laurent.decompose` replaced: it
walks every point of the product of per-degree ranges and keeps the
points whose q and p have no negative coefficient and whose q has a top
class.
`ref_choose` and `ref_realize` are the planner that `geography.realize`
replaced: list the splittings, keep the connected ones (the sphere-only
ones under sphere_only), and take the `min` by sphere count, then by
sphere degrees.  `is_connected_split` is the connected-form test on a
listed splitting, and `ref_incompat_reason` the refusal text, fallback
included, that the planner reported.  The box code must give the same
lists, the same (q, p) by `repr` (dict order included), the same block
list, and the same error text, on every small polynomial and on seeded
random ones with negative coefficients and mirrored high degrees.  A
listing cut at `limit` must be the head of the sorted list.
`ref_str` is the formatter `LaurentPoly.__str__` replaced; every listed
splitting must print as `ref_str` prints the reference's, and the two
must agree on random polynomials with negative coefficients and
degrees.
"""

import itertools
import random

import pytest

from legcob import geography, laurent
from legcob.errors import DomainError
from legcob.geography import Block, RealizationPlan, choose_split, realize
from legcob.laurent import (LaurentPoly, box_size, decompose,
                            incompat_reason, is_connected_form,
                            splitting_box)


# --- reference: enumerate, then filter and take the min ----------------

def ref_decompose(poly, n, window=64):
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    lo, hi = -window, n + window
    for d in poly.coeffs:
        if d < lo or d > hi:
            raise DomainError(f"degree {d} outside search window [{lo}, {hi}]")
    c = poly.coeff
    forced = {}
    high = set()
    for d in poly.coeffs:
        if d > n:
            high.add(d)
        elif d < -1:
            high.add(n - 1 - d)
    for d in high:
        if c(d) != c(n - 1 - d):
            return []
        if c(d):
            forced[d] = c(d)
    if c(-1):
        forced[n] = c(-1)
    if c(n) - c(-1) < 1:
        return []
    free_degrees = list(range(n // 2, n))
    bounds = []
    for i in free_degrees:
        if 2 * i == n - 1:
            bounds.append(c(i) // 2)
        else:
            bounds.append(min(c(i), c(n - 1 - i)))
    if any(b < 0 for b in bounds):
        return []
    results = []
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        p = dict(forced)
        for i, v in zip(free_degrees, combo):
            if v:
                p[i] = v
        q = {}
        ok = all(v >= 0 for v in p.values())
        for d in range(0, n + 1):
            qd = c(d) - p.get(d, 0) - p.get(n - 1 - d, 0)
            if qd < 0:
                ok = False
                break
            if qd:
                q[d] = qd
        if not ok or q.get(n, 0) < 1:
            continue
        results.append((LaurentPoly(q), LaurentPoly(p)))
    results.sort(key=lambda qp: (sorted(qp[1].coeffs.items()),
                                 sorted(qp[0].coeffs.items())))
    return results


def ref_str(poly):
    if not poly.coeffs:
        return "0"
    parts = []
    for d in sorted(poly.coeffs, reverse=True):
        c = poly.coeffs[d]
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            var = "t" if d == 1 else (f"t^{d}" if d > 0 else f"t^({d})")
            body = var if mag == 1 else f"{mag}{var}"
        parts.append((c > 0, body))
    out = parts[0][1] if parts[0][0] else "-" + parts[0][1]
    for positive, body in parts[1:]:
        out += (" + " if positive else " - ") + body
    return out


def is_connected_split(q, n):
    """The self-dual part q of a splitting is that of a connected
    filling: a single top class (q_n = 1) and none in degree 0."""
    return q.coeff(n) == 1 and q.coeff(0) == 0


def ref_incompat_reason(poly, n):
    c = poly.coeff
    for d in sorted(poly.coeffs):
        if c(d) < 0:
            return f"negative coefficient {c(d)} at degree {d}"
    for d in sorted(poly.coeffs):
        if (d > n or d < -1) and c(d) != c(n - 1 - d):
            return (f"mirror law fails: coefficient {c(d)} at degree {d} "
                    f"but {c(n - 1 - d)} at degree {n - 1 - d}")
    if c(n) - c(-1) < 1:
        return (f"needs a spare top class: coefficient {c(n)} at degree {n} "
                f"against {c(-1)} at degree -1")
    return ("no splitting with a single top class and trivial class "
            "in degree 0")


def ref_choose(poly, n, sphere_only=False):
    candidates = [(q, p) for q, p in ref_decompose(poly, n)
                  if is_connected_split(q, n)]
    if not candidates:
        raise DomainError(
            f"not compatible with duality in connected form: "
            f"{ref_incompat_reason(poly, n)}")
    if sphere_only:
        top = LaurentPoly({n: 1})
        candidates = [(q, p) for q, p in candidates if q == top]
        if not candidates:
            raise DomainError(
                f"sphere-only plan impossible for {poly}: every splitting "
                "leaves terms that need manifold blocks")
    return min(candidates,
               key=lambda qp: (qp[1].total_count(),
                               sorted(qp[1].coeffs.items())))


def ref_blocks(q, p, n):
    blocks = []
    for a in range(1, n):
        blocks.extend(Block("Manifold", n, a) for _ in range(q.coeff(a)))
    for a in sorted(p.coeffs):
        blocks.extend(Block("Sphere", n, a) for _ in range(p.coeffs[a]))
    return blocks or [Block("Saucer", n)]


def ref_realize(poly, n, sphere_only=False):
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    q, p = ref_choose(poly, n, sphere_only)
    plan = RealizationPlan(n, ref_blocks(q, p, n), poly)
    assert plan.verified(), \
        f"plan replay mismatch: {plan.recomposed} != {poly}"
    return plan


# --- the inputs ----------------------------------------------------------

def small_polys(n):
    """Every polynomial with coefficients 0..2 on degrees -2..n+2."""
    degrees = range(-2, n + 3)
    for coeffs in itertools.product(range(3), repeat=len(degrees)):
        yield LaurentPoly(dict(zip(degrees, coeffs)))


def random_polys(seed, count):
    """(poly, n) with negative coefficients and high degrees mirrored
    below 0, so that the forced part of p is often consistent."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        coeffs = {d: rng.randint(-2, 4) for d in range(-1, n + 1)
                  if rng.random() < 0.7}
        if rng.random() < 0.8:
            coeffs[n] = rng.randint(1, 3)
        for _ in range(rng.randint(0, 3)):
            d = rng.randint(n + 1, n + 6)
            c = rng.choice((-2, -1, 1, 2, 3))
            coeffs[d] = c
            coeffs[n - 1 - d] = c if rng.random() < 0.85 else c + 1
        out.append((LaurentPoly(coeffs), n))
    return out


SMALL = [(poly, n) for n in range(2, 6) for poly in small_polys(n)]
RANDOM = random_polys(7, 4000)


def outcome(fn, *args):
    """repr of the result, or the exception's type and first line (an
    assert in this module gets pytest's explanation appended)."""
    try:
        return repr(fn(*args))
    except (DomainError, AssertionError) as e:
        return (type(e).__name__, str(e).splitlines()[0])


def plan_outcome(fn, *args):
    try:
        return repr(fn(*args).blocks)
    except (DomainError, AssertionError) as e:
        return (type(e).__name__, str(e).splitlines()[0])


# --- the checks ----------------------------------------------------------

@pytest.mark.parametrize("cases", [SMALL, RANDOM], ids=["small", "random"])
def test_box_matches_enumeration(cases):
    for poly, n in cases:
        ref = ref_decompose(poly, n)
        box = splitting_box(poly, n)
        assert (box is None) == (ref == []), (poly, n)
        assert box_size(box) == len(ref), (poly, n)
        assert repr(decompose(poly, n)) == repr(ref), (poly, n)
        assert is_connected_form(poly, n) == any(
            is_connected_split(q, n) for q, _ in ref), (poly, n)
        want = None if ref else ref_incompat_reason(poly, n)
        assert incompat_reason(poly, n) == want, (poly, n)


@pytest.mark.parametrize("cases", [SMALL, RANDOM], ids=["small", "random"])
def test_realize_matches_min_over_enumeration(cases):
    for poly, n in cases:
        for sphere_only in (False, True):
            args = (poly, n, sphere_only)
            if n >= 2:
                assert outcome(choose_split, *args) \
                    == outcome(ref_choose, *args), args
            assert plan_outcome(realize, *args) \
                == plan_outcome(ref_realize, *args), args


def test_limited_listing_is_a_prefix():
    rng = random.Random(12)
    for poly, n in RANDOM + SMALL[::7]:
        ref = ref_decompose(poly, n)
        for k in (0, 1, rng.randint(0, len(ref) + 1)):
            assert repr(decompose(poly, n, limit=k)) == repr(ref[:k]), \
                (poly, n, k)


@pytest.mark.parametrize("cases", [SMALL, RANDOM], ids=["small", "random"])
def test_listed_splittings_print_as_reference(cases):
    for poly, n in cases:
        ref = [(ref_str(q), ref_str(p)) for q, p in ref_decompose(poly, n)]
        for limit in (0, 1, 1000):
            assert [(str(q), str(p)) for q, p in
                    decompose(poly, n, limit=limit)] == ref[:limit], \
                (poly, n, limit)


def test_str_matches_reference_formatter():
    rng = random.Random(5)
    coeffs = (-100, -3, -2, -1, 1, 2, 3, 100)
    for _ in range(20000):
        poly = LaurentPoly({rng.randint(-70, 70): rng.choice(coeffs)
                            for _ in range(rng.randint(0, 9))})
        assert str(poly) == ref_str(poly), poly.coeffs


def test_domain_errors_match():
    wide = LaurentPoly({100: 1, 3: 1})
    for args in ((wide, 3), (LaurentPoly({2: 1}), 0)):
        assert outcome(decompose, *args) == outcome(ref_decompose, *args)
    assert outcome(is_connected_form, wide, 3) \
        == outcome(ref_decompose, wide, 3)
    with pytest.raises(DomainError, match="dimension must be >= 1"):
        splitting_box(LaurentPoly({2: 1}), 0)


def test_splitting_cap(monkeypatch):
    monkeypatch.setattr(laurent, "MAX_SPLITTINGS", 4)
    for poly, n in RANDOM + SMALL[::10]:
        ref = ref_decompose(poly, n)
        if len(ref) > 4:
            with pytest.raises(DomainError, match="too many splittings"):
                decompose(poly, n)
        else:
            assert repr(decompose(poly, n)) == repr(ref)
        # a limited listing is never refused
        assert repr(decompose(poly, n, limit=5)) == repr(ref[:5])


def test_plan_block_cap(monkeypatch):
    monkeypatch.setattr(geography, "MAX_PLAN_BLOCKS", 3)
    for poly, n in RANDOM + SMALL[::10]:
        if n < 2:
            continue
        try:
            q, p = ref_choose(poly, n)
        except DomainError:
            continue
        if len(ref_blocks(q, p, n)) > 3:
            with pytest.raises(DomainError, match="plan too large"):
                realize(poly, n)
        else:
            assert plan_outcome(realize, poly, n) \
                == plan_outcome(ref_realize, poly, n)
