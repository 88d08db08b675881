"""Rank feasibility for long exact sequences of finite dimensional spaces.

Only dimensions are modeled, never maps.  Exactness of

    0 -> V_1 -> V_2 -> ... -> V_L -> 0

over a field is equivalent to the existence of map ranks r_0..r_L with
r_0 = r_L = 0, every r_i >= 0 and dim V_i = r_(i-1) + r_i.  A known
dim fixes the next rank; unknown dims are searched within an explicit
bound.  Graded dimension counts are carried around as LaurentPoly
(degree -> dimension).
"""

from .errors import DomainError
from .laurent import LaurentPoly, is_connected_form


def les_solve(slots, min_ranks=None):
    """All assignments of the unknown slots making the sequence exact.

    INPUT: slots, a list whose entries are nonnegative ints (known dims)
    or None (unknown); optional min_ranks mapping a 0-based slot index i
    to a minimum rank for the map out of slot i.
    OUTPUT: sorted list of tuples, one value per None slot in order.  A
    fully known feasible sequence yields [()] and an infeasible one [].
    Unknown dims are searched up to max(max known + length, sum known + 1).
    """
    if not slots:
        raise DomainError("empty sequence")
    known = [d for d in slots if d is not None]
    if any(d < 0 for d in known):
        raise DomainError(f"negative dimension in {slots}")
    bound = max((max(known) if known else 0) + len(slots),
                sum(known) + 1)
    min_ranks = min_ranks or {}
    out = []

    def scan(i, r_prev, chosen):
        if i == len(slots):
            if r_prev == 0:
                out.append(tuple(chosen))
            return
        need = min_ranks.get(i, 0)
        d = slots[i]
        if d is not None:
            r = d - r_prev
            if r < 0 or r < need:
                return
            scan(i + 1, r, chosen)
        else:
            for r in range(need, bound - r_prev + 1):
                chosen.append(r_prev + r)
                scan(i + 1, r, chosen)
                chosen.pop()

    scan(0, 0, [])
    out.sort()
    return out


def zero_surgery_update(gamma_minus, n):
    """Count polynomial after a 0-surgery: subtract t^n, then recheck duality.

    >>> from .laurent import parse_poly
    >>> str(zero_surgery_update(parse_poly("2t^3 + t^2 + 1"), 3))
    't^3 + t^2 + 1'
    """
    have = gamma_minus.coeff(n)
    if have < 2:
        raise DomainError(
            f"precondition violated: coefficient of t^{n} is {have}, need >= 2")
    out = gamma_minus.subtract_monomial(n)
    if not is_connected_form(out, n):
        raise DomainError(
            f"duality violated: {out} admits no connected form at dimension {n}")
    return out


def connect_sum(gammas, n):
    """Fold count polynomials of summands: total minus (count-1) * t^n."""
    if not gammas:
        raise DomainError("empty connect sum")
    top = gammas[0].coeff(n)
    pairs = list(gammas[0].coeffs.items())
    for g in gammas[1:]:
        top += g.coeff(n)
        if top < 1:
            raise DomainError(
                f"coefficient underflow at degree {n}: have {top}, need 1")
        top -= 1
        pairs += g.coeffs.items()
        pairs.append((n, -1))
    return LaurentPoly(pairs)


def filling_polynomial(genus, components):
    """Graded dims of the relative cohomology of a surface filling.

    A connected genus-g surface with c boundary circles contributes
    (2g + c - 1) in degree 0 and 1 in degree 1.

    >>> str(filling_polynomial(1, 1))
    't + 2'
    >>> str(filling_polynomial(0, 2))
    't + 1'
    """
    if genus < 0 or components < 1:
        raise DomainError(
            f"bad surface data: genus {genus}, components {components}")
    return LaurentPoly({0: 2 * genus + components - 1, 1: 1})
