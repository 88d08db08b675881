"""Integer Laurent polynomials and duality-constrained decompositions.

The central solver here answers: given a candidate count polynomial P and
an ambient dimension n, in how many ways can P be written as

    P(t) = q(t) + p(t) + t^(n-1) * p(1/t)

with q, p having nonnegative integer coefficients, q supported in degrees
[0, n] with q_n >= 1, and p supported in degrees >= ceil((n-1)/2)?
Coefficients of P above degree n or below degree 0 force coefficients of
p outright; the only genuine freedom is a finite band in the middle, and
each free p_i meets only q_i and q_(n-1-i), so the splittings form a box
of per-degree ranges (splitting_box) that is counted before it is listed.
The box is empty exactly when incompat_reason names one of three
reasons: a negative coefficient (q, p >= 0), a mirror-law failure (a
degree above n and its mirror below -1 fix p alike) or no spare top
class (q_n = c(n) - c(-1) >= 1).
"""

import functools
import itertools
import math
import re

from .errors import DomainError

# Largest number of splittings decompose lists without a limit; the box
# is counted first.
MAX_SPLITTINGS = 10**5
# Largest dimension n the solver and the plan blocks take; every answer
# has per-degree lists of length about n.
MAX_DIM = 10**5
# Degree window of the solver: poly must be supported in
# [-WINDOW, n + WINDOW].
WINDOW = 64


class LaurentPoly:
    """A Laurent polynomial in one variable with integer coefficients.

    Stored as a sparse degree -> coefficient dict; zero coefficients are
    never kept.  The constructor sums a dict's or an iterable's (degree,
    coefficient) pairs in order: a running sum that reaches 0 leaves the
    dict, and a pair that revives it puts it back last, as a chain of
    `+`, one pair at a time, would.

    >>> str(LaurentPoly({5: 1, 4: 2, 0: 2}))
    't^5 + 2t^4 + 2'
    >>> LaurentPoly([(1, 2), (0, 1), (1, -2), (1, 3)])
    LaurentPoly({0: 1, 1: 3})
    """

    def __init__(self, coeffs=()):
        self.coeffs = out = {}
        for d, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
            d = int(d)
            total = out.get(d, 0) + int(c)
            if total:
                out[d] = total
            else:
                out.pop(d, None)

    def coeff(self, degree):
        return self.coeffs.get(degree, 0)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        return LaurentPoly(itertools.chain(self.coeffs.items(),
                                           other.coeffs.items()))

    def __sub__(self, other):
        return LaurentPoly(itertools.chain(
            self.coeffs.items(), ((d, -c) for d, c in other.coeffs.items())))

    def scale(self, k):
        return LaurentPoly({d: k * c for d, c in self.coeffs.items()})

    def reflect(self, pivot):
        """The polynomial t^pivot * self(1/t), i.e. degree d -> pivot - d."""
        return LaurentPoly({pivot - d: c for d, c in self.coeffs.items()})

    def shift(self, j):
        """Multiply by t^j, i.e. degree d -> d + j."""
        return LaurentPoly({d + j: c for d, c in self.coeffs.items()})

    def subtract_monomial(self, degree, count=1):
        """Remove count copies of t^degree, refusing to go negative."""
        have = self.coeff(degree)
        if have < count:
            raise DomainError(
                f"coefficient underflow at degree {degree}: have {have}, need {count}")
        out = dict(self.coeffs)
        out[degree] = have - count
        return LaurentPoly(out)

    def evaluate(self, x):
        """Evaluate at x.  Exact integer arithmetic for x = 1 or x = -1."""
        if x in (1, -1):
            return sum(c * (1 if d % 2 == 0 else x)
                       for d, c in self.coeffs.items())
        total = 0
        for d, c in self.coeffs.items():
            total += c * x ** d
        return total

    def total_count(self):
        """Sum of all coefficients, i.e. the value at t = 1."""
        return sum(self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        text = "".join([_term(d, c) for d, c
                        in sorted(self.coeffs.items(), reverse=True)])
        return text[3:] if text[1] == "+" else "-" + text[3:]

    @classmethod
    def _of(cls, coeffs):
        """A polynomial on coeffs as given: integer degrees to nonzero
        integer coefficients, kept in their order."""
        poly = cls.__new__(cls)
        poly.coeffs = coeffs
        return poly


@functools.lru_cache(maxsize=1 << 12)
def _term(d, c):
    """The text of the term c*t^d with its sign, as __str__ joins it:
    ' + 12t^8', ' - t', ' + 2', ' + t^(-2)'.  Each (degree, coefficient)
    is formatted once while it stays among the cache's most recent."""
    var = ("" if d == 0 else "t" if d == 1
           else f"t^{d}" if d > 0 else f"t^({d})")
    return (" + " if c > 0 else " - ") \
        + (var if abs(c) == 1 and d else f"{abs(c)}{var}")


# [C[*]]t[^E] or C, where E is an integer, parenthesized or not; a '*'
# stands only between a coefficient and t
_TERM_RE = re.compile(
    r"(?:(\d+)(?:\*(?=t))?)?(t(?:\^(?:\((-?\d+)\)|(-?\d+)))?)?")
# Spaces are dropped before a term is read, so two digits on either side
# of one would join into one number
_SPLIT_NUMBER_RE = re.compile(r"\d\s+\d")


def parse_poly(text):
    """Parse a polynomial string such as 't^5 + 2t^4 + 2' or '3t^-1 + t'.

    A term is an integer, 't', or 'Ct^E' with integer exponent E; a
    '*' may stand between C and t, and an exponent may be
    parenthesized.  Spaces may stand anywhere but between two digits.
    Returns a LaurentPoly.
    """
    split = _SPLIT_NUMBER_RE.search(text)
    if split:
        raise DomainError(
            f"space inside a number {split.group()!r} in {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise DomainError("empty polynomial string")
    coeffs = {}
    i = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while True:
        j = i
        depth = 0
        while j < len(s):
            ch = s[j]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch in "+-" and depth == 0 and s[j - 1] != "^":
                break
            j += 1
        term = s[i:j]
        m = _TERM_RE.fullmatch(term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise DomainError(f"cannot parse term {term!r} in {text!r}")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            deg = 0
        else:
            deg = int(m.group(3) or m.group(4) or 1)
        coeffs[deg] = coeffs.get(deg, 0) + sign * coeff
        if j >= len(s):
            break
        sign = -1 if s[j] == "-" else 1
        i = j + 1
        if i >= len(s):
            raise DomainError(f"trailing sign in {text!r}")
    return LaurentPoly(coeffs)


def check_dim_cap(n):
    """Refuse a dimension above MAX_DIM."""
    if n > MAX_DIM:
        raise DomainError(
            f"dimension too large: {n} exceeds the cap of {MAX_DIM:.3g}")


def incompat_reason(poly, n):
    """Why poly has no splitting in dimension n (naming the lowest
    offending degree), or None when it has one."""
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
    return None


def splitting_box(poly, n):
    """The splittings of poly = q + p + p.reflect(n-1) as a box.

    INPUT: as for decompose.

    OUTPUT: (forced, degrees, bounds), or None exactly when no splitting
    exists, that is when incompat_reason gives a reason.  forced is the
    {degree: coefficient} part of p that the degrees above n and below
    0 fix outright; degrees are the free middle degrees
    i = ceil((n-1)/2) .. n-1 of p, and p_i ranges over 0..bounds[k] for
    the k-th of them, independently of the others.
    Each free p_i touches only q_i and q_(n-1-i), so every point of the
    box is a splitting and there are prod(b + 1) of them.
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    check_dim_cap(n)
    lo, hi = -WINDOW, n + WINDOW
    for d in poly.coeffs:
        if d < lo or d > hi:
            raise DomainError(f"degree {d} outside search window [{lo}, {hi}]")
    if incompat_reason(poly, n) is not None:
        return None
    c = poly.coeff

    # Degrees above n can only come from p itself, degrees below 0 only
    # from the reflected copy; by the mirror law both force the same p.
    high = {d if d > n else n - 1 - d for d in poly.coeffs
            if d > n or d < -1}
    forced = {d: c(d) for d in high}
    if c(-1):
        forced[n] = c(-1)

    mid_lo = n // 2  # equals ceil((n - 1) / 2)
    free_degrees = list(range(mid_lo, n))
    bounds = []
    for i in free_degrees:
        if 2 * i == n - 1:
            bounds.append(c(i) // 2)
        else:
            bounds.append(min(c(i), c(n - 1 - i)))
    return forced, free_degrees, bounds


def box_size(box):
    """Number of splittings in a splitting_box (0 for None)."""
    return 0 if box is None else math.prod(b + 1 for b in box[2])


def _splitter(poly, n, forced, degrees):
    """The map from the values of p at the free `degrees` to the
    splitting (q, p) whose p is forced plus those values, with
    q = poly - p - p.reflect(n-1) on degrees 0..n.

    q at the origin (every free value 0) is computed once; a value v at
    a free degree i then adds v to p_i and takes v off q_i and
    q_(n-1-i), the only two degrees of q it meets.  Free degrees lie in
    0..n-1 and apart from the forced ones.
    """
    p0 = {d: c for d, c in forced.items() if c}
    origin = {d: c for d, c in poly.coeffs.items() if 0 <= d <= n}
    for i, v in p0.items():
        for d in (i, n - 1 - i):
            if 0 <= d <= n:
                origin[d] = origin.get(d, 0) - v
    support = sorted(origin.keys() | {d for i in degrees
                                      for d in (i, n - 1 - i)})
    at = {d: k for k, d in enumerate(support)}
    q0 = [origin.get(d, 0) for d in support]
    deltas = [(i, at[i], at[n - 1 - i]) for i in degrees]

    def split(values):
        q, p = q0[:], dict(p0)
        for (i, a, b), v in zip(deltas, values):
            if v:
                p[i] = v
                q[a] -= v
                q[b] -= v
        return (LaurentPoly._of({d: c for d, c in zip(support, q) if c}),
                LaurentPoly._of(p))

    return split


def split_from_p(poly, n, forced, free):
    """The splitting (q, p) whose p is forced plus the free (degree,
    value) pairs, with q = poly - p - p.reflect(n-1) on degrees 0..n."""
    free = list(free)
    return _splitter(poly, n, forced, [i for i, _ in free])(
        [v for _, v in free])


def _box_points(bounds, tail_first):
    """The points of prod(range(b + 1) for b in bounds), lazily, in
    increasing order of their lists of nonzero (index, value) items.

    At each index the values run 1..b, then 0: a 0 lets the list go on
    with an item of a later index, which sorts after every value there.
    The exception is a point whose values from some index on are all 0:
    with tail_first (no forced items end every list) its list is a
    prefix of the others that share its earlier values, so it comes
    first among them.
    """
    m = len(bounds)
    point = [0] * m
    if tail_first or not m:
        yield tuple(point)
    if not m:
        return
    choices = [None] * m
    choices[0] = itertools.chain(range(1, bounds[0] + 1), (0,))
    k = 0
    while k >= 0:
        v = next(choices[k], None)
        if v is None:
            point[k] = 0
            k -= 1
            continue
        point[k] = v
        if tail_first and v:
            yield tuple(point)  # the zero tail after v comes first
        if k + 1 < m:
            k += 1
            choices[k] = itertools.chain(range(1, bounds[k] + 1), (0,))
        elif not tail_first:
            yield tuple(point)


def decompose(poly, n, limit=None):
    """The first `limit` (q, p) with poly = q + p + p.reflect(n-1), all
    when limit is None.

    INPUT: poly with nonnegative coefficients and dimension n >= 1;
    poly must be supported in [-WINDOW, n + WINDOW].

    OUTPUT: a list of (q, p) LaurentPoly pairs in increasing order of
    (sorted p items, sorted q items); empty when no decomposition
    exists.  The box's points are walked in that order, so the first
    `limit` come without listing the others.  q at the box's origin and
    p's forced part are computed once; each point then adds its value
    at each live free degree i to p_i and takes it off q_i and
    q_(n-1-i).  A full listing of more than MAX_SPLITTINGS points is
    refused with a DomainError before anything is listed.
    """
    box = splitting_box(poly, n)
    if box is None:
        return []
    forced, degrees, bounds = box
    count = box_size(box)
    if limit is None and count > MAX_SPLITTINGS:
        raise DomainError(
            f"too many splittings to list: {count} exceed the cap of "
            f"{MAX_SPLITTINGS:.3g}")
    # p_i is 0 wherever its bound is: such degrees list no item
    live = [(i, b) for i, b in zip(degrees, bounds) if b]
    points = _box_points([b for _, b in live], tail_first=not forced)
    split = _splitter(poly, n, forced, [i for i, _ in live])
    return [split(point) for point in itertools.islice(points, limit)]


def connected_p_top(poly, n, box):
    """The value of p_(n-1) that every connected splitting in box has,
    or None when the box holds no connected splitting.

    q_n = c(n) - c(-1) for every point, and q_0 = c(0) - p_(n-1)
    (c(0) - 2 p_0 when n = 1), so the connected form fixes p_(n-1) and
    leaves the other free degrees alone.
    """
    if box is None or poly.coeff(n) - poly.coeff(-1) != 1:
        return None
    c0 = poly.coeff(0)
    mult = 2 if n == 1 else 1
    if c0 % mult or c0 // mult > box[2][-1]:
        return None
    return c0 // mult


def is_connected_form(poly, n):
    """True when some decomposition has q_n = 1 and q_0 = 0: a connected
    filling, a single top class and none in degree 0."""
    return connected_p_top(poly, n, splitting_box(poly, n)) is not None


def tb_from_polynomial(poly, n):
    """Classical invariant read off the count polynomial in dimension n.

    >>> tb_from_polynomial(parse_poly("t"), 1)
    -1
    >>> tb_from_polynomial(parse_poly("2 + t"), 1)
    1
    >>> tb_from_polynomial(parse_poly("t^5 + 2t^4 + 2"), 5)
    3
    """
    return tb_sign(n) * poly.evaluate(-1)


def tb_sign(n):
    """The sign (-1)^((n-2)(n-1)/2) relating tb to the count polynomial
    at t = -1 in dimension n."""
    return -1 if ((n - 2) * (n - 1) // 2) % 2 else 1
