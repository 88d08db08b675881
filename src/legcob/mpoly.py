"""Sparse multivariate polynomials with float coefficients.

Small support layer for the numerical family code: polynomials built
from their (exponents, coefficient) pairs in one pass, exact evaluation on
numpy arrays, exact partial derivatives, variable shifts, and a parser
for expanded expressions like "3*e1 - 3*x1^2*e1 - e1^3".  The grammar
deliberately has no parentheses; families are written out in expanded
form so the stored text is the polynomial itself.  A coefficient may
carry an exponent (1e-05, 1e+16): format prints repr.

Powers are products: evaluate and bound take x^k by repeated squaring,
never numpy's float power, which rounds differently on numpy's SIMD
tiers for k >= 3.  A product rounds alike on every tier, so a
polynomial's values are the same bytes on every numpy tier of one
machine; across machines nothing is claimed.
"""

import functools
import itertools
import math
import re

import numpy as np

from .errors import DomainError


class MultiPoly:
    """terms: exponent tuple (one slot per variable) -> coefficient.

    The constructor sums a dict's or an iterable's (exponent tuple,
    coefficient) pairs in order: a running sum that reaches 0 leaves
    the dict, and a pair that revives it puts it back last, as a chain
    of `+`, one pair at a time, would, to the last bit.
    """

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        self.terms = out = {}
        for exps, c in terms.items() if isinstance(terms, dict) else terms:
            if len(exps) != nvars:
                raise DomainError(
                    f"exponent tuple {exps} has {len(exps)} slots, "
                    f"expected {nvars}")
            key = tuple(int(e) for e in exps)
            total = out.get(key, 0.0) + float(c)
            if total:
                out[key] = total
            else:
                out.pop(key, None)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return MultiPoly(self.nvars, itertools.chain(self.terms.items(),
                                                     other.terms.items()))

    def scale(self, k):
        return MultiPoly(self.nvars,
                         {e: k * c for e, c in self.terms.items()})

    def diff(self, i):
        return MultiPoly(self.nvars, (
            (e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
            for e, c in self.terms.items() if e[i]))

    def shift(self, i, c):
        """Substitute variable i -> variable i + c."""
        return MultiPoly(self.nvars, (
            (e[:i] + (k,) + e[i + 1:], coeff * math.comb(e[i], k)
             * c ** (e[i] - k))
            for e, coeff in self.terms.items() for k in range(e[i] + 1)))

    def insert_rotation(self, i):
        """Substitute (variable i)^2 -> x_i^2 + x_new^2, the new variable
        spliced in after slot i.  Requires every exponent of slot i even.
        """
        def pairs():
            for e, coeff in self.terms.items():
                if e[i] % 2:
                    raise DomainError(
                        f"odd exponent {e[i]} in rotated variable slot {i}")
                k = e[i] // 2
                for j in range(k + 1):
                    try:
                        c = coeff * math.comb(k, j)
                    except OverflowError:
                        raise DomainError(
                            f"rotated coefficient {coeff:g} * C({k}, {j}) "
                            "overflows a float") from None
                    yield e[:i] + (2 * j, 2 * (k - j)) + e[i + 1:], c
        return MultiPoly(self.nvars + 1, pairs())

    def evaluate(self, cols):
        """cols: one scalar or numpy array per variable.  Each power of
        a column is taken once per call and shared by the terms."""
        if len(cols) != self.nvars:
            raise DomainError(
                f"expected {self.nvars} columns, got {len(cols)}")
        cols = [np.asarray(c) for c in cols]
        powers = {}
        total = None
        for e, c in self.terms.items():
            term = c
            for v, k in enumerate(e):
                if k:
                    if (v, k) not in powers:
                        powers[v, k] = _power(cols[v], k)
                    term = term * powers[v, k]
            total = term if total is None else total + term
        shape = np.broadcast(*cols).shape if cols else ()
        return np.zeros(shape) if total is None else total + np.zeros(shape)

    def bound(self, lo, hi):
        """Range of the polynomial over boxes, term by term.

        Variable v ranges over [lo[v], hi[v]]; all are scalars or arrays
        broadcast together.  Returns (low, high, mag): every value of
        the polynomial in a box lies in [low, high] up to rounding, and
        mag bounds the sum of the absolute values of its terms there,
        the scale of evaluate's rounding.  An even power of a range
        straddling 0 starts at 0.
        """
        cache = {}

        def power(v, e):
            """The ends of variable v's range to the power e."""
            if (v, e) not in cache:
                a, b = np.asarray(lo[v]), np.asarray(hi[v])
                pa, pb = _power(a, e), _power(b, e)
                if e % 2:
                    cache[v, e] = (pa, pb)
                else:
                    cache[v, e] = (
                        np.where((a < 0) & (b > 0), 0.0,
                                 np.minimum(pa, pb)),
                        np.maximum(pa, pb))
            return cache[v, e]

        low = high = mag = 0.0
        for e, c in self.terms.items():
            t_lo = t_hi = c
            for v in range(self.nvars):
                if e[v]:
                    ts = (t_lo,) if t_hi is t_lo else (t_lo, t_hi)
                    ends = [t * p for t in ts for p in power(v, e[v])]
                    t_lo = functools.reduce(np.minimum, ends)
                    t_hi = functools.reduce(np.maximum, ends)
            low = low + t_lo
            high = high + t_hi
            mag = mag + np.maximum(np.abs(t_lo), np.abs(t_hi))
        return low, high, mag

    def format(self, names):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            coeff_str = _fmt_coeff(mag)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([coeff_str] + factors)
            else:
                body = coeff_str
            parts.append((c > 0, body))
        out = parts[0][1] if parts[0][0] else "-" + parts[0][1]
        for positive, body in parts[1:]:
            out += (" + " if positive else " - ") + body
        return out

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"


def _power(base, k):
    """base ** k for k >= 1 by repeated squaring: about log2 k
    products.  For k <= 2 these are numpy's bytes, whose ** 2 is a
    product."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


def _fmt_coeff(c):
    return str(int(c)) if float(c).is_integer() else repr(float(c))


_FACTOR_RE = re.compile(r"^([A-Za-z]\w*)(?:\^(-?\d+))?$")
# a term ends before each '-' and at each '+', except the sign of a
# coefficient's exponent (1e-05, 1e+16), which follows a digit and 'e'
_TERM_SPLIT_RE = re.compile(r"(?<![\d.][eE])(?:\+|(?=-))")


def parse_mpoly(text, names):
    """Parse an expanded polynomial over the given variable names.

    >>> p = parse_mpoly("3*e1 - 3*x1^2*e1 - e1^3", ["x1", "e1"])
    >>> p.format(["x1", "e1"])
    '-3*x1^2*e1 - e1^3 + 3*e1'
    """
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)
    pairs = []
    for chunk in _TERM_SPLIT_RE.split(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff = 1.0
        if chunk.startswith("-"):
            coeff = -1.0
            chunk = chunk[1:].strip()
        exps = [0] * nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise DomainError(f"empty factor in term {chunk!r}")
            try:
                coeff *= float(factor)
                continue
            except ValueError:
                pass
            m = _FACTOR_RE.match(factor)
            if not m or m.group(1) not in index:
                raise DomainError(
                    f"unknown factor {factor!r}; variables are {names}")
            k = int(m.group(2)) if m.group(2) else 1
            if k < 0:
                raise DomainError(f"negative exponent in {factor!r}")
            exps[index[m.group(1)]] += k
        pairs.append((exps, coeff))
    if not pairs:
        raise DomainError("empty polynomial expression")
    return MultiPoly(nvars, pairs)
