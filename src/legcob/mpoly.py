"""Sparse multivariate polynomials with float coefficients.

Small support layer for the numerical family code: exact evaluation on
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
import math
import re

import numpy as np

from .errors import DomainError


class MultiPoly:
    """terms: exponent tuple (one slot per variable) -> coefficient."""

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise DomainError(
                        f"exponent tuple {exps} has {len(exps)} slots, "
                        f"expected {nvars}")
                if c:
                    self.terms[tuple(int(e) for e in exps)] = \
                        self.terms.get(tuple(exps), 0.0) + float(c)

    @classmethod
    def variable(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1.0})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return MultiPoly(self.nvars, out)

    def scale(self, k):
        return MultiPoly(self.nvars,
                         {e: k * c for e, c in self.terms.items()})

    def diff(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0.0) + c * e[i]
        return MultiPoly(self.nvars, out)

    def shift(self, i, c):
        """Substitute variable i -> variable i + c."""
        out = MultiPoly(self.nvars)
        for e, coeff in self.terms.items():
            base = list(e)
            expanded = {}
            for k in range(e[i] + 1):
                base[i] = k
                expanded[tuple(base)] = (coeff * math.comb(e[i], k)
                                         * c ** (e[i] - k))
            out = out + MultiPoly(self.nvars, expanded)
        return out

    def insert_rotation(self, i):
        """Substitute (variable i)^2 -> x_i^2 + x_new^2, the new variable
        spliced in after slot i.  Requires every exponent of slot i even.
        """
        out = {}
        for e, coeff in self.terms.items():
            if e[i] % 2:
                raise DomainError(
                    f"odd exponent {e[i]} in rotated variable slot {i}")
            k = e[i] // 2
            for j in range(k + 1):
                ne = list(e)
                ne[i] = 2 * j
                ne.insert(i + 1, 2 * (k - j))
                ne = tuple(ne)
                try:
                    out[ne] = out.get(ne, 0.0) + coeff * math.comb(k, j)
                except OverflowError:
                    raise DomainError(
                        f"rotated coefficient {coeff:g} * C({k}, {j}) "
                        "overflows a float") from None
        return MultiPoly(self.nvars + 1, out)

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
    poly = MultiPoly(nvars)
    seen = 0
    for chunk in _TERM_SPLIT_RE.split(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        seen += 1
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
        poly = poly + MultiPoly(nvars, {tuple(exps): coeff})
    if not seen:
        raise DomainError("empty polynomial expression")
    return poly
