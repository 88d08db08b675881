"""Realization planner for count polynomials of fillable submanifolds.

Given a target Laurent polynomial P and a dimension n, find a connect
sum of standard building blocks whose count polynomial equals P exactly.
The available blocks and their polynomials:

    Saucer        t^n                          (spun one-chord disk)
    Manifold(a)   t^n + t^a,   1 <= a <= n-1   (spinning + surgery)
    Sphere(a)     t^n + t^a + t^(n-1-a)        (Hopf link + 0-surgery)

A plan never claims more than it checks: the constructor replays the
connect sum of its block polynomials and stores the comparison, so a
plan object is a certificate.  Block provenance strings record the
construction recipe (spinning steps, stabilizations, surgeries) without
executing it; fronts are only built in dimension 1.
"""

from .errors import DomainError
from .exactseq import connect_sum
from .laurent import LaurentPoly, check_dim_cap, connected_p_top, \
    incompat_reason, split_from_p, splitting_box, tb_from_polynomial, \
    tb_sign

# Largest number of blocks in a plan, planned or read; counted before
# any block is built.
MAX_PLAN_BLOCKS = 10**4


def check_block_cap(count):
    """Refuse a plan of count blocks above MAX_PLAN_BLOCKS."""
    if count > MAX_PLAN_BLOCKS:
        raise DomainError(
            f"plan too large: {count} blocks exceed the cap of "
            f"{MAX_PLAN_BLOCKS:.3g}")


class Block:
    """One connect-sum summand with its count polynomial and recipe."""

    def __init__(self, kind, n, a=None):
        if n < 2:
            raise DomainError(f"block dimension must be >= 2, got {n}")
        check_dim_cap(n)
        self.kind = kind
        self.n = n
        self.a = a
        if kind == "Saucer":
            if a is not None:
                raise DomainError("saucer block takes no degree parameter")
            degrees = [n]
            self.provenance = (
                "spin the one-chord disk family about its axis; the single "
                f"chord lands in degree {n}")
        elif kind == "Manifold":
            if a is None or not 1 <= a <= n - 1:
                raise DomainError(
                    f"manifold block degree must be in 1..{n - 1}, got {a}")
            degrees = [n, a]
            self.provenance = (
                f"spin a two-chord family so the second chord lands in "
                f"degree {a}; attach one index-{n - a - 1} surgery handle "
                "to connect the result")
        elif kind == "Sphere":
            if a is None:
                raise DomainError("sphere block needs a degree parameter")
            degrees = [n, a, n - 1 - a]
            self.provenance = (
                f"hopf-link pair with chords in degrees {a} and {n - 1 - a}; "
                "one 0-surgery between the copies removes a top chord and "
                "joins them into a sphere")
        else:
            raise DomainError(f"unknown block kind {kind!r}")
        self.gamma = LaurentPoly((d, 1) for d in degrees)

    def __repr__(self):
        if self.a is None:
            return f"Block({self.kind}, n={self.n})"
        return f"Block({self.kind}({self.a}), n={self.n})"

    def to_dict(self):
        return {"kind": self.kind, "a": self.a, "gamma": str(self.gamma),
                "provenance": self.provenance}


class RealizationPlan:
    """A verified multiset of blocks realizing a target polynomial."""

    def __init__(self, n, blocks, target):
        if not blocks:
            raise DomainError("empty plan")
        self.n = n
        self.blocks = list(blocks)
        self.target = target
        self.recomposed = connect_sum([b.gamma for b in self.blocks], n)
        q = LaurentPoly([(n, 1)] + [(b.a, 1) for b in self.blocks
                                    if b.kind == "Manifold"])
        self.betti_realized = [q.coeff(k) + q.coeff(n - k)
                               for k in range(n + 1)]

    def verified(self):
        return self.recomposed == self.target

    def __repr__(self):
        return (f"RealizationPlan(n={self.n}, target={self.target}, "
                f"blocks={self.blocks})")

    def to_dict(self):
        return {
            "n": self.n,
            "target": str(self.target),
            "blocks": [b.to_dict() for b in self.blocks],
            "betti_realized": self.betti_realized,
            "verification": {"recomposed": str(self.recomposed),
                             "equal": self.verified()},
        }


def choose_split(poly, n, sphere_only=False):
    """The splitting (q, p) that realize builds its plan from.

    Among the splittings with q_n = 1 and q_0 = 0 it takes the one with
    the fewest sphere blocks.  The connected form fixes p_(n-1) and no
    other free degree, so that optimum sets every other free p_i to 0.
    sphere_only demands q = t^n: each free p_i then takes all it can,
    its bound in the box, and the q that is left must be t^n.
    """
    box = splitting_box(poly, n)
    top = connected_p_top(poly, n, box)
    if top is None:
        reason = incompat_reason(poly, n) or (
            "no splitting with a single top class and trivial class "
            "in degree 0")
        raise DomainError(
            f"not compatible with duality in connected form: {reason}")
    forced, degrees, bounds = box
    if not sphere_only:
        return split_from_p(poly, n, forced, [(n - 1, top)])
    q, p = split_from_p(poly, n, forced, zip(degrees, bounds))
    if q != LaurentPoly({n: 1}):
        raise DomainError(
            f"sphere-only plan impossible for {poly}: every splitting "
            "leaves terms that need manifold blocks")
    return q, p


def realize(poly, n, sphere_only=False):
    """Plan a connect sum of blocks whose count polynomial is poly.

    Splits poly = q + p + reflect(p) with q the self-dual part (one
    manifold block per q-term below the top) and p the sphere part.
    Policy: among valid splittings, keep as much as possible in q
    (fewest sphere blocks), tie-broken by ascending sphere degrees.
    sphere_only restricts to splittings with q = t^n.  A plan of more
    than MAX_PLAN_BLOCKS blocks is refused before any block is built.

    >>> realize(LaurentPoly({3: 1, 2: 1}), 3).blocks
    [Block(Manifold(2), n=3)]
    """
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    q, p = choose_split(poly, n, sphere_only)
    check_block_cap(sum(q.coeff(a) for a in range(1, n))
                    + sum(max(v, 0) for v in p.coeffs.values()))
    blocks = []
    for a in range(1, n):
        blocks.extend(Block("Manifold", n, a) for _ in range(q.coeff(a)))
    for a in sorted(p.coeffs):
        blocks.extend(Block("Sphere", n, a) for _ in range(p.coeffs[a]))
    if not blocks:
        blocks = [Block("Saucer", n)]
    plan = RealizationPlan(n, blocks, poly)
    # the plan's answer rests on this check, so it must not vanish under
    # `python -O`
    if not plan.verified():
        raise AssertionError(
            f"plan replay mismatch: {plan.recomposed} != {poly}")
    return plan


def classical_fillable(n, tau):
    """The minimal-support count polynomial of a fillable sphere with the
    requested classical invariant, plus its realization plan.

    >>> P, _ = classical_fillable(5, 3)
    >>> str(P)
    't^5 + 2t^4 + 2'
    """
    if n % 2 == 0:
        raise DomainError(f"n must be odd, got {n}")
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    if tau % 2 == 0:
        raise DomainError(f"tau must be odd, got {tau}")
    st = tb_sign(n) * tau
    if st > 0:
        k = (st - 1) // 2
        poly = LaurentPoly({n: 1, n - 1: k + 1, 0: k + 1})
    else:
        k = -(st + 1) // 2
        poly = LaurentPoly({n: k + 1, -1: k})
    if tb_from_polynomial(poly, n) != tau:
        raise AssertionError(f"{poly} has tb {tb_from_polynomial(poly, n)}, "
                             f"not {tau}")
    plan = realize(poly, n)
    sphere_betti = [1 if k in (0, n) else 0 for k in range(n + 1)]
    if plan.betti_realized != sphere_betti:
        raise AssertionError(
            f"plan realizes Betti numbers {plan.betti_realized}, not a "
            f"sphere's {sphere_betti}")
    return poly, plan
