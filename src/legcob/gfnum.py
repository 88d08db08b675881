"""Numerical laboratory for linear-at-infinity generating families.

A family f(x, eta) on R^n x R^N is stored as a polynomial core, a
nonzero linear tail A(eta), and a cutoff radius R.  With r = |(x, eta)|
it has three regions:

- the core, r <= R, where f is the core polynomial;
- the collar, R < r < 2R, where the exp(-1/u) smoothstep s(u),
  u = (r - R) / R, glues the core to the tail:
  f = core + s (A - core);
- the tail, r >= 2R, where f is A(eta): there d_eta f is the nonzero
  constant tail and d_x f is 0, bit for bit, so no fiber-critical
  point, front point or chord lies there.  The value, computed as
  core + (A - core), equals A(eta) only up to rounding.

Evaluation follows the regions: the blend's exponentials are only
taken on the collar, and the gradient's collar term evaluates the core
only off the core region.  The fiber solve's seed scan is certified:
each family bounds d_eta f over a box (a range of x, a block of eta
grid cells) by interval arithmetic.  The scan first bounds blocks of x
grid points, over the whole x grid, then, per chunk of x rows, single
x rows of the boxes left and halves of their eta blocks; boxes wholly
beyond radius 2R are dropped unbounded, and d_eta f is only evaluated
at the grid points inside radius 2R whose cells no tier proves
seedless.  First derivatives are analytic everywhere (core, tail, and
bump terms); second derivatives are central differences of the
analytic gradient.

The operations follow the front/chord dictionary: the fiber-critical
set {d_eta f = 0} projects to the front via (x, d_x f, f), and the
positive-value critical points of the difference
delta(x, eta, eta~) = f(x, eta~) - f(x, eta) are the Reeb chords.  On
the fiber-critical set they lie over an x where two sheets have one
slope d_x f, so under N = 1 the chord Newton is only seeded where two
branches' slopes cross over a grid cell, or near a cusp.  A chord in
Morse index i contributes t^(i - (N+1)) to the count polynomial
estimate.  The estimate is chain-level: no differentials
are computed, and a warning is attached when two chords land in
adjacent degrees.

Every central difference is one _fd_jacobian call: one call of the
map on the points stacked over their probes.  Every solve (fiber roots
and chords) runs through one batched Newton that takes one such
Jacobian per step; the chord Hessians of a search, stacked, and the
regularity margin take one each.  So every family map is row-wise,
the tail A(eta) summed column by column: a row's value never depends
on the rest of its batch.  The fiber solve joins whole chunks of its
seed scan into one Newton call until the call holds FIBER_BATCH_ROWS
seed rows, and each chunk stops on the step its own rows converge, so
a row takes the steps a call per chunk gives it; the chord Newton is
one group.
fiber_critical_set is the one fiber solve, for gf-front, the chord
searches and the filling's slices alike: it returns the samples as
rows (x, eta), and only the readers of z = f and p = d_x f evaluate
them (gf-front both, the chord seeds p under N = 1).  The filling's
slice families are its only evaluator: its conditions are checked on
them.  The chord map evaluates both sheets of the difference function
in one gradient call.  Morse indices and the regularity margin come
from numpy's symmetric eigenvalues.  No tolerance, and no setting that
no caller changes, is a parameter: one used twice is a module constant
(FD_STEP, CHORD_*, FILLING_*, PATH_DT, PATH_GRID_STEP), any other a
literal at its use.  FAMILIES names the built-in families.  Refused:
dimensions other than 1 or 2 (a gf-file's before anything is built),
gf-files with a repeated or unknown key, tail coefficients that are
not finite, an R whose grid box [-2R, 2R]^(n+N) overflows, cores that
are not finite, or whose first derivatives are not, on that box by
MultiPoly.bound, grid steps whose seed grid exceeds MAX_GRID_SAMPLES,
chord searches whose Newton work exceeds MAX_CHORD_WORK, and
composites in spin and immersed_filling_family.

Every number a gf command prints is the same on every numpy SIMD tier
of one machine: the polynomials take their powers as products (see
mpoly), and the smoothstep takes its exponentials in long double, for
which numpy has no SIMD loop.  The limits: LAPACK (eigvalsh, and
solve and det for Newton systems of two or more unknowns; a 1x1
system divides and never calls LAPACK) and the C library's expl
belong to the machine, and np.longdouble is 80-bit on x86-64 Linux
but not everywhere, so the claim is the same bytes on two numpy tiers
of one machine, not across machines.
"""

import functools
import itertools
import math

import numpy as np

from .errors import DomainError
from .families import FAMILY_BUILDERS
from .laurent import LaurentPoly
from .mpoly import MultiPoly, _fmt_coeff, parse_mpoly


# --- smoothstep -------------------------------------------------------

def _smoothstep_pair(u):
    """(s, s') of the exp(-1/u) smoothstep: s = 0 for u <= 0 and 1 for
    u >= 1, with s' = 0 on both; on 0 < u < 1 both come from one pair
    of exponentials, b1 = exp(-1/u) and b2 = exp(-1/(1-u)).  Each is
    taken in long double and rounded back to float: numpy has no SIMD
    loop for long double, so every tier calls the C library's expl."""
    u = np.asarray(u, float)
    s = np.where(u >= 1.0, 1.0, 0.0)
    sd = np.zeros_like(u)
    on = (u > 0.0) & (u < 1.0)
    if not on.any():
        return s, sd
    v = u[on]
    w = 1.0 - v
    b1 = np.exp((-1.0 / v).astype(np.longdouble)).astype(float)
    b2 = np.exp((-1.0 / w).astype(np.longdouble)).astype(float)
    s[on] = b1 / (b1 + b2)
    sd[on] = (b1 / v ** 2 * b2 + b1 * (b2 / w ** 2)) / (b1 + b2) ** 2
    return s, sd


def smoothstep(u):
    """0 for u <= 0, 1 for u >= 1, smooth exp-based blend between."""
    return _smoothstep_pair(u)[0]


def smoothstep_d(u):
    return _smoothstep_pair(u)[1]


# Relative margin of every grad_eta bound: each bound is widened by
# BOUND_MARGIN times the magnitude of the terms it sums, which clears
# the float rounding of the bound and of the values grad_eta computes
# (a few ulps of that magnitude) by a wide factor.
BOUND_MARGIN = 1e-9
# Supremum of smoothstep_d, reached at u = 1/2 where it is 2; the
# margin covers the ulps by which computed values exceed 2.
SMOOTHSTEP_D_SUP = 2.0 * (1.0 + BOUND_MARGIN)


# --- linear algebra ---------------------------------------------------

def sym_eigenvalues(mat):
    """Eigenvalues of a symmetric matrix, ascending; of a stack (m, k,
    k) of them, one list per matrix, each as a call on it alone gives."""
    return np.linalg.eigvalsh(np.asarray(mat, float)).tolist()


# Central-difference step of Newton and of the regularity margin.
FD_STEP = 1e-6


def _fd_jacobian(F, P, h):
    """(F(P), J) for the row-wise map F at the rows of P, J the
    central-difference Jacobian J[m, i, k] = (F(P + h e_k) - F(P -
    h e_k))[m, i] / (2h), from one call of F on the rows of P stacked
    over their probes: [P; P + h e_1; ...; P + h e_k; P - h e_1; ...;
    P - h e_k]."""
    m, k = P.shape
    probes = h * np.eye(k)
    out = F(np.concatenate([P[None], P + probes[:, None, :],
                            P - probes[:, None, :]]).reshape(-1, k))
    out = out.reshape(2 * k + 1, m, -1)
    return out[0], ((out[1:k + 1] - out[k + 1:]) / (2 * h)).transpose(1, 2, 0)


def _newton(F, P, iters, starts=(0,)):
    """Batched Newton for F = 0, one independent system per row.

    F(Q, rows) maps the points Q of the batch rows `rows` (an index
    array) row by row: a row's value must not depend on the other rows
    of its batch.  Each step takes the residual and the Jacobian of the
    live points Q from one _fd_jacobian call, with h = FD_STEP and
    `rows` tiled to match its 2k + 1 stacked blocks.  Steps are clipped
    to 0.5 per coordinate.  A row whose Jacobian turns singular, |det|
    <= 1e-14, never moves again: it leaves the live rows, on which
    alone F, its Jacobian and the convergence test are evaluated, so it
    cannot keep the others iterating to the cap.  For k >= 2 LAPACK
    takes the determinants and solves the steps; a 1x1 system (k = 1)
    never calls LAPACK: its determinant is its one entry J, exactly,
    and its step is the division F / J.

    The rows form groups of consecutive rows, group g starting at row
    starts[g] (ascending, from 0), and each group stops on its own: on
    the step where its live rows reach max |F| < 1e-12, they leave the
    live rows unmoved.  So every row takes the steps it takes in a run
    on its group alone, bit for bit.  Returns (points, accept, stuck):
    accept marks rows with max |F| < 1e-9 (one more call of F, on every
    row), stuck the rows that hit a singular Jacobian.
    """
    P = np.array(P, float)
    k = P.shape[1]
    stuck = np.zeros(len(P), bool)
    live = np.arange(len(P))
    for _ in range(iters):
        if not len(live):
            break
        Q = P[live]
        res, jac = _fd_jacobian(lambda S: F(S, np.tile(live, 2 * k + 1)),
                                Q, FD_STEP)
        # a group stops once each of its live rows has max |F| < 1e-12
        near = np.abs(res).max(axis=1) < 1e-12
        if near.all():
            break
        if len(starts) > 1 and near.any():
            going = np.zeros(len(starts), bool)
            going[np.searchsorted(starts, live[~near], "right") - 1] = True
            on = going[np.searchsorted(starts, live, "right") - 1]
            if not on.all():
                live, Q, res, jac = live[on], Q[on], res[on], jac[on]
        # a 1x1 Jacobian is its own determinant
        det = jac[:, 0, 0] if k == 1 else np.linalg.det(jac)
        move = ~(np.abs(det) <= 1e-14)
        if move.all():
            step = _steps(jac, res)
        else:
            stuck[live[~move]] = True
            step = np.zeros_like(Q)
            step[move] = _steps(jac[move], res[move])
        P[live] = Q - np.minimum(np.maximum(step, -0.5), 0.5)
        live = live[move]
    accept = np.max(np.abs(F(P, np.arange(len(P)))), axis=1) < 1e-9
    return P, accept, stuck


def _steps(jac, res):
    """The Newton steps jac^-1 res of the rows: 1x1 systems divide, which
    gives LAPACK's solve bit for bit and its silence on overflow."""
    if jac.shape[1] == 1:
        with np.errstate(all="ignore"):
            return res / jac[:, 0]
    return np.linalg.solve(jac, res[..., None])[..., 0]


# --- families ---------------------------------------------------------

def _sq(A):
    """Sums of squares along the last axis (one or two columns), column
    by column."""
    out = A[..., 0] * A[..., 0]
    for j in range(1, A.shape[-1]):
        out = out + A[..., j] * A[..., j]
    return out


def _gap(lo, hi):
    """Per coordinate, the least |v_j| over [lo_j, hi_j]."""
    return np.where((lo < 0) & (hi > 0), 0.0,
                    np.minimum(np.abs(lo), np.abs(hi)))


class _Family:
    """What a family with a linear tail and a cutoff radius R derives
    from them."""

    def extent(self):
        """Radius beyond which the family is its tail: its gradient bit
        for bit, its value up to rounding."""
        return 2.0 * self.R

    def tail_value(self, E):
        """A(eta), column by column like _sq, so each row's value is
        computed alone."""
        out = E[..., 0] * self.tail[0]
        for j in range(1, len(self.tail)):
            out = out + E[..., j] * self.tail[j]
        return out

    def value_at(self, x, eta):
        return float(self.value(np.atleast_2d(np.asarray(x, float)),
                                np.atleast_2d(np.asarray(eta, float)))[0])


def _check_dims(n, N):
    if n not in (1, 2) or N not in (1, 2):
        raise DomainError(
            f"base and fiber dimensions must be 1 or 2, got {n}, {N}")


class GeneratingFamily(_Family):
    """Polynomial core + linear tail + cutoff radius.

    core is a MultiPoly in the variables x1..xn, e1..eN (in that
    order); tail is the list of N coefficients of A(eta).
    """

    def __init__(self, n, N, core, tail, R):
        _check_dims(n, N)
        if core.nvars != n + N:
            raise DomainError(
                f"core has {core.nvars} variables, expected {n + N}")
        tail = [float(t) for t in tail]
        if len(tail) != N or not any(tail):
            raise DomainError(f"tail must be a nonzero linear form on "
                              f"{N} fiber variables, got {tail}")
        for c in tail:
            if not math.isfinite(c):
                raise DomainError(f"tail coefficients must be finite, got {c}")
        if not 0 < R < math.inf:
            raise DomainError(
                f"cutoff radius must be finite and positive, got {R}")
        if 2.0 * R == math.inf:
            raise DomainError(
                f"cutoff radius must leave the grid box [-2R, 2R] finite, "
                f"got R = {R:g}")
        self.n = n
        self.N = N
        self.core = core
        self.tail = tail
        self.R = float(R)
        self._dx = [core.diff(i) for i in range(n)]
        self._de = [core.diff(n + j) for j in range(N)]
        # the grid samples the box [-2R, 2R]^(n+N); where the core or a
        # first derivative is not finite on it (a coefficient that is
        # not, or one times its exponent or a high power of the box's
        # edge overflowing), the solves lose points without a word
        edge = self.extent()
        lo, hi = [-edge] * (n + N), [edge] * (n + N)
        with np.errstate(over="ignore", invalid="ignore"):
            for p in [core, *self._dx, *self._de]:
                mag = float(p.bound(lo, hi)[2])
                if not math.isfinite(mag):
                    raise DomainError(
                        f"core and its first derivatives must be finite on "
                        f"the grid box [-{edge:g}, {edge:g}]^{n + N}, got a "
                        f"bound of {mag}")

    def var_names(self):
        return ([f"x{i + 1}" for i in range(self.n)]
                + [f"e{j + 1}" for j in range(self.N)])

    def _cols(self, X, E):
        return [X[:, i] for i in range(self.n)] \
            + [E[:, j] for j in range(self.N)]

    def near_box(self, Xlo, Xhi, Elo, Ehi):
        """Mask of the boxes [x_lo, x_hi] x [eta_lo, eta_hi], broadcast
        as in grad_eta_bound, that may hold a near pair: a pair (x, eta)
        with r < 2R, the only pairs at which the gradient can differ
        from the tail's.  A box's r^2 is its nearest point's, summed
        column by column; on a one-pair box (lo = hi) that is the pair's
        own r^2, so near_box(X, X, E, E) is the near mask of the rows.
        A box outside the mask holds no near pair, since rounding is
        monotone."""
        return _sq(_gap(Xlo, Xhi)) + _sq(_gap(Elo, Ehi)) \
            < self.extent() ** 2

    def _blend(self, X, E):
        """r, the blend s and its radial derivative s'(r) = s'(u) / R at
        u = (r - R) / R: 0 and 0 in the core r <= R, 1 and 0 beyond 2R;
        the exponentials are only taken on the collar rows between."""
        r = np.sqrt(_sq(X) + _sq(E))
        u = (r - self.R) / self.R
        s, sd = _smoothstep_pair(u)
        return r, s, sd / self.R

    def value(self, X, E):
        X, E = np.asarray(X, float), np.asarray(E, float)
        core_v = self.core.evaluate(self._cols(X, E))
        _, s, _ = self._blend(X, E)
        return core_v + s * (self.tail_value(E) - core_v)

    def _collar(self, X, E):
        """Pieces all gradients share: the variable columns, the blend
        s, and the collar factor s'(r) (A - core) / r that multiplies
        each coordinate.  The factor is zero where s' is, so the core
        value is only evaluated where s' != 0, and where s = 1: there
        the factor is a signed zero that decides the sign of grad_x's
        zero, (1 - s) d_x core + factor * x."""
        cols = self._cols(X, E)
        r, s, sd = self._blend(X, E)
        collar = np.zeros_like(r)
        on = (sd != 0.0) | (s == 1.0)
        if on.any():
            Xo, Eo = X[on], E[on]
            core_v = self.core.evaluate(self._cols(Xo, Eo))
            collar[on] = sd[on] * (1.0 / r[on]) \
                * (self.tail_value(Eo) - core_v)
        return cols, s, collar

    def _grad_x(self, X, cols, s, collar):
        out = np.empty_like(X)
        for i in range(self.n):
            out[:, i] = (1.0 - s) * self._dx[i].evaluate(cols) \
                + collar * X[:, i]
        return out

    def _grad_eta(self, E, cols, s, collar):
        out = np.empty_like(E)
        for j in range(self.N):
            out[:, j] = ((1.0 - s) * self._de[j].evaluate(cols)
                         + s * self.tail[j] + collar * E[:, j])
        return out

    def grad_x(self, X, E):
        X, E = np.asarray(X, float), np.asarray(E, float)
        return self._grad_x(X, *self._collar(X, E))

    def grad_eta(self, X, E):
        X, E = np.asarray(X, float), np.asarray(E, float)
        return self._grad_eta(E, *self._collar(X, E))

    def gradient(self, X, E):
        """(grad_x, grad_eta) from one collar evaluation."""
        X, E = np.asarray(X, float), np.asarray(E, float)
        pieces = self._collar(X, E)
        return self._grad_x(X, *pieces), self._grad_eta(E, *pieces)

    def grad_eta_bound(self, Xlo, Xhi, Elo, Ehi):
        """Bounds (lo, hi) of grad_eta over the boxes [x_lo, x_hi] x
        [eta_lo, eta_hi]: the x ends run over the last axis of Xlo and
        Xhi, the eta ends over that of Elo and Ehi, the other axes
        broadcast together.  Every value grad_eta computes in a box lies
        in its [lo, hi].

        d_eta_j f = (1 - s) d_eta_j core + s A_j + (s'(r) / r) (A - core)
        eta_j, bounded as a sum of interval products: the core and its
        derivative from their monomial ranges, s from r's range (from
        the least and the greatest |x| and |eta| of the box) since s is
        monotone in r, s'(r) / r between 0 and SMOOTHSTEP_D_SUP / (R
        max(r, R)) on boxes meeting the collar and 0 elsewhere.  Each
        bound is widened by BOUND_MARGIN times the magnitude of the
        terms it sums.
        """
        Xlo, Xhi, Elo, Ehi = (np.asarray(A, float)
                              for A in (Xlo, Xhi, Elo, Ehi))
        lo = [Elo[..., j] for j in range(self.N)]
        hi = [Ehi[..., j] for j in range(self.N)]
        box_lo = [Xlo[..., i] for i in range(self.n)] + lo
        box_hi = [Xhi[..., i] for i in range(self.n)] + hi
        absmax = np.maximum(np.abs(Elo), np.abs(Ehi))
        tail = np.asarray(self.tail)
        c_lo, c_hi, c_mag = self.core.bound(box_lo, box_hi)
        # A - core, and the scale of its rounding
        q_lo = np.minimum(Elo * tail, Ehi * tail).sum(axis=-1) - c_hi
        q_hi = np.maximum(Elo * tail, Ehi * tail).sum(axis=-1) - c_lo
        q_mag = absmax @ np.abs(tail) + c_mag
        r_lo = np.sqrt(_sq(_gap(Xlo, Xhi)) + _sq(_gap(Elo, Ehi)))
        u_lo = (r_lo - self.R) / self.R
        u_hi = (np.sqrt(_sq(np.maximum(np.abs(Xlo), np.abs(Xhi)))
                        + _sq(absmax)) - self.R) / self.R
        s_lo, s_hi = smoothstep(u_lo), smoothstep(u_hi)
        slope = np.where((u_hi > 0.0) & (u_lo < 1.0), SMOOTHSTEP_D_SUP
                         / self.R / np.maximum(r_lo, self.R), 0.0)
        out_lo, out_hi = [], []
        for j in range(self.N):
            d_lo, d_hi, d_mag = self._de[j].bound(box_lo, box_hi)
            ends = (q_lo * lo[j], q_lo * hi[j], q_hi * lo[j], q_hi * hi[j])
            t = self.tail[j]
            low = (np.minimum((1.0 - s_hi) * d_lo, (1.0 - s_lo) * d_lo)
                   + np.minimum(s_lo * t, s_hi * t)
                   + slope * np.minimum(functools.reduce(np.minimum, ends),
                                        0.0))
            high = (np.maximum((1.0 - s_hi) * d_hi, (1.0 - s_lo) * d_hi)
                    + np.maximum(s_lo * t, s_hi * t)
                    + slope * np.maximum(functools.reduce(np.maximum, ends),
                                         0.0))
            mag = d_mag + abs(t) + slope * q_mag * absmax[..., j]
            out_lo.append(low - BOUND_MARGIN * mag)
            out_hi.append(high + BOUND_MARGIN * mag)
        return np.stack(out_lo, axis=-1), np.stack(out_hi, axis=-1)

    def __repr__(self):
        return (f"GeneratingFamily(n={self.n}, N={self.N}, "
                f"core={self.core.format(self.var_names())!r}, "
                f"tail={self.tail}, R={self.R})")


class CompositeFamily(_Family):
    """Fiber-disjoint sum of families sharing one linear tail.

    Each part is a family translated in the fiber by its center; the
    sum is tail(eta) + sum_i (part_i(x, eta - c_i) - tail(eta - c_i)).
    Because every part is its tail outside the ball of radius 2R_i, the
    sum is part_i + tail(c_i) near center i and the tail elsewhere,
    provided the translated supports are disjoint.  Outside every ball
    the gradient is the tail's bit for bit, but the value is the tail's
    only up to rounding: each part's value there, computed as core +
    (A - core), differs from A by rounding.
    """

    def __init__(self, parts, centers):
        if not parts or len(parts) != len(centers):
            raise DomainError("composite needs one fiber center per part")
        base = parts[0]
        self.n, self.N = base.n, base.N
        self.tail = list(base.tail)
        self.parts = []
        reach = 1.0
        for fam, center in zip(parts, centers):
            if fam.n != self.n or fam.N != self.N or fam.tail != self.tail:
                raise DomainError(
                    "composite parts must share base dim, fiber dim, "
                    "and tail")
            center = tuple(float(c) for c in center)
            self.parts.append((fam, center))
            reach = max(reach, math.hypot(*center) + fam.extent())
        for i, (fa, ca) in enumerate(self.parts):
            for fb, cb in self.parts[i + 1:]:
                gap = math.hypot(*(a - b for a, b in zip(ca, cb)))
                if gap < fa.extent() + fb.extent():
                    raise DomainError(
                        f"fiber supports overlap: centers {ca} and {cb} "
                        f"are {gap:g} apart, need "
                        f"{fa.extent() + fb.extent():g}")
        self.R = reach / 2.0

    def value(self, X, E):
        X, E = np.asarray(X, float), np.asarray(E, float)
        total = self.tail_value(E)
        for fam, center in self.parts:
            El = E - np.asarray(center)
            total = total + fam.value(X, El) - fam.tail_value(El)
        return total

    def near_box(self, Xlo, Xhi, Elo, Ehi):
        """Union of the parts' box masks, each around its fiber center."""
        out = False
        for fam, center in self.parts:
            c = np.asarray(center)
            out = out | fam.near_box(Xlo, Xhi, np.asarray(Elo) - c,
                                     np.asarray(Ehi) - c)
        return out

    def grad_eta_bound(self, Xlo, Xhi, Elo, Ehi):
        """Bounds of grad_eta over boxes, as for one family: the tail
        plus each part's bound less its tail, the part's boxes shifted
        by its center in eta (x as it is)."""
        tail = np.asarray(self.tail, float)
        lo = hi = tail
        mag = np.abs(tail)
        for fam, center in self.parts:
            c = np.asarray(center)
            p_lo, p_hi = fam.grad_eta_bound(Xlo, Xhi, np.asarray(Elo) - c,
                                            np.asarray(Ehi) - c)
            p_tail = np.asarray(fam.tail)
            lo = lo + (p_lo - p_tail)
            hi = hi + (p_hi - p_tail)
            mag = mag + np.maximum(np.abs(p_lo), np.abs(p_hi)) \
                + np.abs(p_tail)
        return lo - BOUND_MARGIN * mag, hi + BOUND_MARGIN * mag

    def grad_x(self, X, E):
        X, E = np.asarray(X, float), np.asarray(E, float)
        out = np.zeros_like(X)
        for fam, center in self.parts:
            out += fam.grad_x(X, E - np.asarray(center))
        return out

    def grad_eta(self, X, E):
        X, E = np.asarray(X, float), np.asarray(E, float)
        out = np.tile(np.asarray(self.tail, float), (len(E), 1))
        for fam, center in self.parts:
            out += fam.grad_eta(X, E - np.asarray(center)) \
                - np.asarray(fam.tail)
        return out

    def gradient(self, X, E):
        """(grad_x, grad_eta) from one collar evaluation per part."""
        X, E = np.asarray(X, float), np.asarray(E, float)
        gx = np.zeros_like(X)
        ge = np.tile(np.asarray(self.tail, float), (len(E), 1))
        for fam, center in self.parts:
            px, pe = fam.gradient(X, E - np.asarray(center))
            gx += px
            ge += pe - np.asarray(fam.tail)
        return gx, ge

    def __repr__(self):
        return (f"CompositeFamily(n={self.n}, N={self.N}, "
                f"parts={len(self.parts)}, tail={self.tail}, R={self.R})")


def _fiber_linear(n, coeffs):
    """The linear form sum_j coeffs[j] * eta_j in the n + len(coeffs)
    variables of a family."""
    nv = n + len(coeffs)
    return MultiPoly(nv, ((tuple(int(v == n + j) for v in range(nv)), c)
                          for j, c in enumerate(coeffs)))


# --- standard families ------------------------------------------------

def unknot_family():
    """One-chord family: front z = +-2(1-x^2)^(3/2) with cusps at x = +-1.

    The steep tail -200 keeps the collar free of spurious fiber-critical
    points: on R <= r <= 2R every term of d_eta f is strictly negative
    once the tail is below -(3 + 3(2R)^2 + (2R)^2) = -147.
    """
    core = parse_mpoly("3*e1 - 3*x1^2*e1 - e1^3", ["x1", "e1"])
    return GeneratingFamily(1, 1, core, [-200.0], 3.0)


def scaled_unknot_family():
    """The unknot core with both wells deepened by the factor 2."""
    core = parse_mpoly("3*e1 - 3*x1^2*e1 - e1^3", ["x1", "e1"]).scale(2.0)
    return GeneratingFamily(1, 1, core, [-400.0], 3.0)


def shifted_unknot_family():
    """Unknot family recentred at x = 0.3 (breaks the x -> -x symmetry)."""
    core = parse_mpoly("3*e1 - 3*x1^2*e1 - e1^3",
                       ["x1", "e1"]).shift(0, -0.3)
    return GeneratingFamily(1, 1, core, [-260.0], 3.3)


def linear_family():
    """The tail -5 eta itself as a family: core == A(eta), so f == A
    globally and the fiber-critical set is empty."""
    return GeneratingFamily(1, 1, _fiber_linear(1, [-5.0]), [-5.0], 2.0)


def fish_family():
    """Kink family -(e^4 - e^2) + x*e.

    In the core region the fiber derivative is a cubic: three roots for
    small |x| (the swallowtail wedge |x| < 4/(3*sqrt(6))), one root for
    large |x|.  Because the core is even in eta while the tail is
    linear, one extra branch always lives in the collar where the blend
    turns the downward quartic end around; root counts in tests refer
    to the core region |eta| <= 1.5.
    """
    core = parse_mpoly("-e1^4 + x1*e1 + e1^2", ["x1", "e1"])
    return GeneratingFamily(1, 1, core, [-60.0], 2.0)


def stacked_pair_family():
    """Fiber-disjoint sum of two one-chord families.

    The copies sit at fiber centers -+6.5, which the shared tail turns
    into a large front separation in z.  The second copy is steepened
    by the factor 2 (no parallel strands, which would make mixed chords
    tangentially degenerate) and widened (cusps at x = +-1.25 instead
    of +-1, so no two cusps are vertically aligned); its constant term
    5 nudges it inside its own band.
    """
    tail = [-400.0]
    base = parse_mpoly("3*e1 - 3*x1^2*e1 - e1^3", ["x1", "e1"])
    low = GeneratingFamily(1, 1, base, tail, 3.0)
    high_core = parse_mpoly("6*e1 - 3.84*x1^2*e1 - 2*e1^3 + 5", ["x1", "e1"])
    high = GeneratingFamily(1, 1, high_core, tail, 3.0)
    return CompositeFamily([low, high], [(-6.5,), (6.5,)])


# --- gf-file format ---------------------------------------------------

# The fields of a gf-file, each on one line, each exactly once.
GF_FIELDS = ("n", "N", "core", "tail", "R")


def parse_gf_file(text):
    """Parse the n= / N= / core= / tail= / R= family format.

    >>> f = parse_gf_file("n=1\\nN=1\\ncore=3*e1 - 3*x1^2*e1 - e1^3\\n"
    ...                   "tail=-30*e1\\nR=3")
    >>> f.n, f.N, f.R
    (1, 1, 3.0)
    """
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad gf-file line {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in GF_FIELDS:
            raise DomainError(f"unknown gf-file field {key!r}")
        if key in fields:
            raise DomainError(f"gf-file field {key}= given twice")
        fields[key] = val.strip()
    for key in GF_FIELDS:
        if key not in fields:
            raise DomainError(f"gf-file missing field {key}=")
    n, N = _number(fields, "n", int), _number(fields, "N", int)
    _check_dims(n, N)
    names = [f"x{i + 1}" for i in range(n)] + [f"e{j + 1}" for j in range(N)]
    core = parse_mpoly(fields["core"], names)
    tail_poly = parse_mpoly(fields["tail"], names)
    tail = [0.0] * N
    for exps, c in tail_poly.terms.items():
        degree = sum(exps)
        if degree != 1 or any(exps[:n]):
            raise DomainError(
                f"tail must be linear in the fiber variables, got "
                f"{fields['tail']!r}")
        tail[exps[n:].index(1)] = c
    return GeneratingFamily(n, N, core, tail, _number(fields, "R", float))


def _number(fields, key, kind):
    """fields[key] read as kind (int or float), or a DomainError."""
    try:
        return kind(fields[key])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DomainError(
            f"gf-file field {key}= must be {what}, got {fields[key]!r}")


def format_gf_file(fam):
    names = fam.var_names()
    return (f"n={fam.n}\nN={fam.N}\ncore={fam.core.format(names)}\n"
            f"tail={_fiber_linear(fam.n, fam.tail).format(names)}\n"
            f"R={_fmt_coeff(fam.R)}\n")


# --- fiber-critical set ----------------------------------------------

# Cap on the (x, eta) seed grid of one fiber solve, in samples.  The
# saucer (n = 2, N = 1) at the default step 0.05 takes 1.4e7, of which
# the certified seed scan evaluates grad_eta at 22,482 (0.16%), after
# bounding 17,626 boxes in 15 calls.
MAX_GRID_SAMPLES = 3 * 10**7
# Grid cells per axis of an eta block of the certified seed scan's x
# tier, which its row tier halves once; grid points per axis of an x
# block.
SCAN_BLOCK = 16
SCAN_X_BLOCK = 8


def _check_step(fam, step):
    """Refuse a grid step that is not finite and positive, or whose
    seed grid of (2 extent / step + 1)^(n + N) samples exceeds the cap."""
    if not 0 < step < math.inf:
        raise DomainError(
            f"grid step must be finite and positive, got {step}")
    per_axis = 2.0 * fam.extent() / step + 1.0
    axes = fam.n + fam.N
    if axes * math.log(per_axis) > math.log(MAX_GRID_SAMPLES):
        raise DomainError(
            f"grid step {step} is too fine: {per_axis:.3g} points on each "
            f"of {axes} axes exceed the cap of {MAX_GRID_SAMPLES:.3g} "
            "samples")


def _product(axes):
    """The points of the product of the 1-d arrays axes as rows, the
    first coordinate slowest."""
    if len(axes) == 1:
        return axes[0][:, None]
    return np.stack(np.meshgrid(*axes, indexing="ij"),
                    -1).reshape(-1, len(axes))


def _sample_grid(fam, step, dims):
    """(axis, points): the axis -extent..extent in steps of step, and
    its dims-fold product as rows, the first coordinate slowest."""
    ext = fam.extent()
    axis = np.arange(-ext, ext + step / 2.0, step)
    return axis, _product([axis] * dims)


def _seedless(fam, Xlo, Xhi, Elo, Ehi, step):
    """Which boxes [x_lo, x_hi] x [eta_lo, eta_hi] (the last axes of
    the four arrays) provably hold no seed: those whose grad_eta_bound
    has one strict sign (N = 1: no sign change) or a component outside
    (-4 step, 4 step) (N = 2: no grid point picked)."""
    lo, hi = fam.grad_eta_bound(Xlo, Xhi, Elo, Ehi)
    if fam.N == 1:
        return (lo[..., 0] > 0.0) | (hi[..., 0] < 0.0)
    four = 4.0 * step
    return ((lo >= four) | (hi <= -four)).any(axis=-1)


def _may_seed(fam, Xlo, Xhi, es, first, count, step):
    """Mask of the boxes [x_lo, x_hi] x (the eta grid cells first ..
    first + count - 1 along each axis, whose corners run from
    es[first] to es[first + count]) that may hold a seed: a box that
    holds no pair of the near mask holds only tail pairs and no seed,
    and is not bounded; the others are kept unless proven seedless."""
    Elo, Ehi = es[first], es[first + count]
    keep = fam.near_box(Xlo, Xhi, Elo, Ehi)
    keep[keep] = ~_seedless(fam, Xlo[keep], Xhi[keep], Elo[keep],
                            Ehi[keep], step)
    return keep


def _halve(rows, first, count):
    """The boxes with each one that has more than SCAN_BLOCK // 2 cells
    on some axis halved along every axis (its 2^N halves, the empty
    ones dropped), the others whole."""
    N = first.shape[1]
    big = (count > SCAN_BLOCK // 2).any(axis=1, keepdims=True)
    half = np.where(big, count // 2, 0)
    rows = np.concatenate([rows] * 2 ** N)
    first = np.concatenate([first + c * half for c in _corners(N)])
    count = np.concatenate([np.where(c, count - half, half)
                            for c in _corners(N)])
    keep = (count > 0).all(axis=1)
    return rows[keep], first[keep], count[keep]


def _x_tier(fam, axis, step):
    """The first tier of the seed scan, over the whole x grid: every box
    of an x block times an eta block (SCAN_BLOCK cells per axis) is
    tested once (_may_seed).  x block k of the grid axis holds its
    points SCAN_X_BLOCK k .. SCAN_X_BLOCK (k + 1) - 1 (fewer in a ragged
    last block), and the x blocks of the grid are the products of one
    block per x axis, the first slowest as in the x rows.  Returns
    (first, count, top): the eta blocks, and per x row the mask of the
    blocks whose box with the row's x block may hold a seed."""
    n, N, size = fam.n, fam.N, len(axis) - 1
    first = _product([np.arange(0, size, SCAN_BLOCK)] * N)
    count = np.minimum(first + SCAN_BLOCK, size) - first
    starts = np.arange(0, len(axis), SCAN_X_BLOCK)
    ends = np.minimum(starts + SCAN_X_BLOCK, len(axis)) - 1
    x_lo, x_hi = _product([axis[starts]] * n), _product([axis[ends]] * n)
    nx, ne = len(x_lo), len(first)
    block, eta = np.divmod(np.arange(nx * ne), ne)
    keep = _may_seed(fam, x_lo[block], x_hi[block], axis, first[eta],
                     count[eta], step)
    at = np.arange(len(axis)) // SCAN_X_BLOCK
    top = keep.reshape((len(starts),) * n + (ne,))[np.ix_(*[at] * n)]
    return first, count, top.reshape(len(axis) ** n, ne)


def _live_cells(fam, xc, es, step, first, count, top):
    """The eta grid cells that may hold a seed, for the x rows xc, of
    the eta blocks (first, count) that the x tier (_x_tier) left to
    each row in the mask top.

    The row tier splits the x tier's boxes into their x rows and halves
    along every axis each eta block with more than SCAN_BLOCK // 2
    cells on one axis, then tests each box once (_may_seed): a box that
    holds no pair of the near mask, or whose bound proves it seedless,
    is dropped.  The cells of the boxes left are live.  Returns (rows,
    at, first, count): rows, ascending, index the rows of xc with live
    cells, and box k of those left spans the eta cells first[k] ..
    first[k] + count[k] - 1 along each axis in row rows[at[k]].
    """
    rows, eta = np.nonzero(top)
    rows, first, count = _halve(rows, first[eta], count[eta])
    X = xc[rows]
    keep = _may_seed(fam, X, X, es, first, count, step)
    rows, at = np.unique(rows[keep], return_inverse=True)
    return rows, at, first[keep], count[keep]


def _corners(N):
    return [np.array(c) for c in itertools.product((0, 1), repeat=N)]


def _cover(n_rows, size, at, first, count):
    """Mask (n_rows, size, ...) of the union of the boxes k that span
    first[k] .. first[k] + count[k] - 1 along each axis in row at[k]:
    each box is marked by +-1 at its corners, and cumulative sums along
    the axes fill it in."""
    N = first.shape[1]
    mask = np.zeros((n_rows,) + (size + 1,) * N, np.int8)
    for c in _corners(N):
        np.add.at(mask, (at,) + tuple((first + c * count).T),
                  (-1) ** int(c.sum()))
    for a in range(N):
        mask = mask.cumsum(axis=a + 1, dtype=np.int8)
    return mask[(slice(None),) + (slice(0, size),) * N] > 0


def _fiber_seeds(fam, step):
    """Grid seeds of the eta roots of grad_eta over the x rows of the
    grid of step, as one (Xs, Es) pair per chunk of rows.

    N = 1 seeds at the sign changes along the eta grid, N = 2 at the
    near pairs where |grad_eta| < 4 step.  The scan is certified:
    grad_eta is only evaluated at the grid pairs that are corners of
    live cells (_live_cells, covered into the mask points) and near
    pairs (near_box of the one-pair box), every pair off the near mask
    is exactly the tail, and under N = 1 only live cells (the mask
    cells, covered under N = 1 alone) are tested for a sign change, so
    both ends of a tested cell are exact.  The x tier bounds boxes over
    every x row once (_x_tier); the row tier runs per chunk, on the
    chunk's rows.
    The seeds are those of a scan of every near pair, in the same
    order.
    """
    es, xs = _sample_grid(fam, step, fam.n)
    eta_grid = _product([es] * fam.N)
    me = len(eta_grid)
    chunk = max(1, 200000 // me)
    first, count, top = _x_tier(fam, es, step)
    for lo in range(0, len(xs), chunk):
        if not top[lo:lo + chunk].any():
            continue
        xc = xs[lo:lo + chunk]
        sub, at, cfirst, ccount = _live_cells(fam, xc, es, step, first,
                                              count, top[lo:lo + chunk])
        if not len(sub):
            continue
        xc = xc[sub]
        points = _cover(len(xc), len(es), at, cfirst, ccount + 1)
        rows, cols = np.nonzero(points.reshape(len(xc), me))
        Xn = np.take(xc, rows, axis=0)
        En = np.take(eta_grid, cols, axis=0)
        near = fam.near_box(Xn, Xn, En, En)
        rows, cols, Xn, En = rows[near], cols[near], Xn[near], En[near]
        gn = fam.grad_eta(Xn, En)
        if fam.N == 1:
            cells = _cover(len(xc), len(es) - 1, at, cfirst, ccount)
            g = np.full((len(xc), me), fam.tail[0])
            g[rows, cols] = gn[:, 0]
            ga, gb = g[:, :-1], g[:, 1:]
            hit = np.sign(ga) * np.sign(gb) <= 0
            hit &= ~((ga == 0) & (gb == 0)) & cells
            rows, cols = np.nonzero(hit)
            denom = gb[rows, cols] - ga[rows, cols]
            frac = np.where(np.abs(denom) > 1e-300, -ga[rows, cols]
                            / np.where(denom == 0, 1, denom), 0.5)
            Xs = xc[rows]
            Es = (es[cols] + np.clip(frac, 0.0, 1.0) * step).reshape(-1, 1)
        else:
            # Only near pairs can seed: off the mask grad_eta is the
            # constant tail, where Newton stalls on a zero Jacobian.
            pick = np.abs(gn).max(axis=1) < 4.0 * step
            Xs, Es = Xn[pick], En[pick]
        if len(Xs):
            yield Xs, Es


# Seed rows at which a Newton batch of the fiber solve closes.  A batch
# joins consecutive chunks of the seed scan until it holds this many
# rows, so it holds fewer rows than this plus its last chunk, and a
# chunk of that size that opens a batch closes it.  The saucer at the
# default step seeds 2,502 rows in 12 chunks: one batch.  The small-tail
# N = 2 gf-file at step 0.1 seeds 139k rows in 10 chunks of 2k-16k, each
# a batch; as one batch, its gf-front peaked at 124 MB, not 50.
FIBER_BATCH_ROWS = 10000


def _batches(chunks):
    """The (Xs, Es) chunks of the seed scan joined, in order, into
    batches (Xs, Es, starts), starts the first row of each chunk in its
    batch.  A batch closes once it holds FIBER_BATCH_ROWS rows, before
    the next chunk is scanned; a batch of one chunk is passed on
    uncopied."""
    held, rows = [], 0
    for Xs, Es in chunks:
        held.append((Xs, Es))
        rows += len(Xs)
        if rows >= FIBER_BATCH_ROWS:
            batch, held, rows = _joined(held), [], 0
            yield batch
    if held:
        yield _joined(held)


def _joined(held):
    """One batch (Xs, Es, starts) of the chunks held."""
    if len(held) == 1:
        return held[0] + (np.zeros(1, int),)
    return (np.concatenate([Xs for Xs, _ in held]),
            np.concatenate([Es for _, Es in held]),
            np.cumsum([0] + [len(Xs) for Xs, _ in held[:-1]]))


def _solve_fiber(fam, step):
    """eta roots of grad_eta over each x row of the grid of step: the
    grid seeds of _fiber_seeds, then one Newton call per batch of
    chunks (_batches), in which each chunk is a group that stops on its
    own, as a call on the chunk alone would.  Rows that stall on a
    singular Jacobian (fold points) are rejected.
    """
    found_x, found_e = [], []
    for Xs, Es, starts in _batches(_fiber_seeds(fam, step)):
        Es, ok, stuck = _newton(lambda P, rows: fam.grad_eta(Xs[rows], P),
                                Es, 60, starts)
        ok &= ~stuck
        found_x.append(Xs[ok])
        found_e.append(Es[ok])
    if not found_x:
        return np.empty((0, fam.n)), np.empty((0, fam.N))
    return np.concatenate(found_x), np.concatenate(found_e)


def fiber_critical_set(fam, step=0.05):
    """Newton-polished samples of the fiber-critical set, as one row
    (x, eta) per sample, sorted by x and then eta.  One sample per (x
    gridpoint, eta branch); x stays on the grid, eta is polished.  Its
    front data z = f and p = d_x f are the family's value and grad_x on
    the rows, computed by the readers that need them.

    Of the solved rows whose x rounded to 9 decimals and eta rounded to
    7 agree, the first one solved is kept: a stable sort by the rounded
    keys puts it first among its equals.  Kept rows differ in (x, eta),
    so the sort by x and eta has no ties.
    """
    _check_step(fam, step)
    X, E = _solve_fiber(fam, step)
    keys = np.concatenate([np.round(X, 9), np.round(E, 7)], axis=1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(keys), bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    rows = np.concatenate([X, E], axis=1)[order[first]]
    return rows[np.lexsort(rows.T[::-1])]


def fiber_regularity_margin(fam, rows):
    """min over samples of the smallest singular value of D(d_eta f),
    rows one (x, eta) per sample; None without samples."""
    if not len(rows):
        return None
    n = fam.n
    _, jac = _fd_jacobian(lambda Q: fam.grad_eta(Q[:, :n], Q[:, n:]), rows,
                          FD_STEP)
    gram = jac @ jac.transpose(0, 2, 1)
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[:, 0].min()), 0.0))


# --- difference-function critical points ------------------------------

class CriticalPoint:
    """A critical point of the difference function.

    coords = (x, eta, eta~); value = difference there; index = Morse
    index; min_abs_hessian_eigenvalue = nondegeneracy margin.  The
    chord's degree contribution is index - (N+1).
    """

    def __init__(self, coords, value, index, margin, N):
        self.coords = coords
        self.value = value
        self.index = index
        self.min_abs_hessian_eigenvalue = margin
        self.N = N

    @property
    def degree(self):
        return self.index - (self.N + 1)

    def to_dict(self):
        x, eta, eta2 = self.coords
        return {"x": list(x), "eta": list(eta), "eta_tilde": list(eta2),
                "value": self.value, "index": self.index,
                "degree": self.degree,
                "margin": self.min_abs_hessian_eigenvalue}

    def __repr__(self):
        return (f"CriticalPoint(value={self.value:.6g}, index={self.index}, "
                f"coords={self.coords})")


def _diff_gradient(fam, pts):
    """Gradient of the difference function at pts (m, n+2N), from one
    gradient call on both sheets stacked: (x, eta) over (x, eta~)."""
    n, N, m = fam.n, fam.N, len(pts)
    X = pts[:, :n]
    gx, ge = fam.gradient(np.concatenate([X, X]),
                          np.concatenate([pts[:, n:n + N], pts[:, n + N:]]))
    return np.concatenate([gx[m:] - gx[:m], -ge[:m], ge[m:]], axis=1)


def _diff_value(fam, pts):
    n, N = fam.n, fam.N
    return (fam.value(pts[:, :n], pts[:, n + N:])
            - fam.value(pts[:, :n], pts[:, n:n + N]))


def _diff_hessians(fam, pts):
    """The symmetrized central-difference Hessians (m, k, k) of the
    difference function at the rows of pts, from one _diff_gradient
    call on the rows stacked over their probes."""
    hess = _fd_jacobian(lambda P: _diff_gradient(fam, P), pts, 1e-5)[1]
    return (hess + hess.transpose(0, 2, 1)) / 2.0


def _diff_hessian(fam, pt):
    return _diff_hessians(fam, pt[None])[0]


def _pairs(counts):
    """(cell, i, j): every pair i > j of the counts[c] branches of each
    cell c, cell by cell, ordered by i and then j within a cell.  The
    first c (c - 1) / 2 pairs of tril_indices are those of c branches."""
    counts = np.asarray(counts, int)
    npairs = counts * (counts - 1) // 2
    i, j = np.tril_indices(max(int(counts.max(initial=0)), 1), -1)
    cell = np.repeat(np.arange(len(counts)), npairs)
    off = np.arange(len(cell)) - np.repeat(np.cumsum(npairs) - npairs, npairs)
    return cell, i[off], j[off]


def _chord_seeds(fam, rows, step):
    """reeb_chords' Newton seeds (x, eta, eta~): ordered pairs of fiber
    branches over one grid x, in the order of x, then eta, then eta~.
    rows are the fiber samples (x, eta) at step (fiber_critical_set),
    sorted by x and then eta; their slopes p = d_x f are evaluated only
    under N = 1, the only case that reads them.  The seeds go to
    one Newton call as a single group, with no batch bound:
    MAX_CHORD_WORK caps their count.

    Under N = 1 the branches over each x are numbered by eta; they
    cannot cross in eta without merging at a cusp.  A chord is an x where
    two branches have one slope p = d_x f, so p_i - p_j takes both
    signs, or 0, over the corners of a grid cell that holds one (2 x
    points for n = 1, 4 for n = 2).  A cell whose corners carry one
    branch count seeds the pairs (i, j) for which every component of
    p_i - p_j does so, at each corner.  A cell whose counts differ holds
    a cusp, and seeds every pair at its corners; a corner without
    samples counts 0, beyond the ends of the grid as well.  Only the
    cells with an occupied corner are visited.  Under N >= 2 branches
    may cross, and every pair over each x is seeded.
    """
    n, N = fam.n, fam.N
    if not len(rows):
        return np.empty((0, n + 2 * N))
    X, E = rows[:, :n], rows[:, n:]
    axis = _sample_grid(fam, step, 1)[0]
    G = np.searchsorted(axis, X)
    # runs of samples over one x, and their keys on the grid padded by
    # one point at each end, ascending as the samples are
    new = np.ones(len(X), bool)
    new[1:] = (G[1:] != G[:-1]).any(axis=1)
    start = np.flatnonzero(new)
    count = np.diff(np.append(start, len(X)))
    base = len(axis) + 2
    weight = base ** np.arange(n - 1, -1, -1)
    keys = (G[start] + 1) @ weight
    full = np.full(len(start), N > 1)
    A, B = [], []
    if N == 1:
        corners = np.array(list(itertools.product((0, 1), repeat=n)))
        cells = np.unique((G[start][:, None] - corners).reshape(-1, n),
                          axis=0)
        ck = (cells[:, None] + corners + 1) @ weight
        run = np.minimum(np.searchsorted(keys, ck), len(keys) - 1)
        hit = keys[run] == ck
        cnt = np.where(hit, count[run], 0)
        same = (cnt == cnt[:, :1]).all(axis=1)
        full[run[~same[:, None] & hit]] = True
        eq = same & (cnt[:, 0] > 1)
        cell, i, j = _pairs(cnt[eq, 0])
        first = start[run[eq][cell]]
        a, b = first + i[:, None], first + j[:, None]
        P = fam.grad_x(X, E)
        d = P[a] - P[b]
        cross = ((d.min(axis=1) <= 0) & (d.max(axis=1) >= 0)).all(axis=1)
        A += [a[cross].ravel(), b[cross].ravel()]
        B += [b[cross].ravel(), a[cross].ravel()]
    run, i, j = _pairs(count[full])
    first = start[full][run]
    A += [first + i, first + j]
    B += [first + j, first + i]
    pair = np.unique(np.concatenate(A) * len(X) + np.concatenate(B))
    a, b = np.divmod(pair, len(X))
    return np.concatenate([X[a], E[a], E[b]], axis=1)


def _cluster(pts):
    """The rows of pts in ascending order, less each row within 1e-5 in
    every coordinate of one kept before it, as an array."""
    out = []
    for p in sorted(map(tuple, pts)):
        if any(max(abs(a - b) for a, b in zip(q, p)) < 1e-5 for q in out):
            continue
        out.append(p)
    return np.array(out, float).reshape(-1, pts.shape[1])


# Critical points with |value| <= CHORD_VALUE_FLOOR are dropped, and a
# Hessian eigenvalue below CHORD_MARGIN_TOL in magnitude is refused.
CHORD_VALUE_FLOOR = 1e-6
CHORD_MARGIN_TOL = 1e-8
# Iteration cap of the chord Newton, and the cap on its work before it
# starts: seed rows x (2k + 1) probes x CHORD_ITERS, k = n + 2N.  The
# built-in families need at most 2.9e5: the saucer (k = 4) at 0.039, the
# finest step the grid cap admits, has 408 seeds.  Random families of
# degree <= 4 at steps 0.1-0.4 need up to 3.3e6 (4,580 seeds, k = 4).
# The degenerate n = 2 family core = e1^3 - 3 x1^2 e1 + x2^2 e1 needs
# 6.1e6 at step 0.2 and 1.3e7 at 0.1, and is refused at both.
CHORD_ITERS = 80
MAX_CHORD_WORK = 4 * 10**6


def reeb_chords(fam, step=0.05):
    """Enumerate the critical points of the difference function.

    Newton starts from the pairs of fiber branches that _chord_seeds
    picks: under N = 1 the pairs whose slopes cross over a grid cell,
    and every pair at the cells around a cusp; under N = 2 every pair
    over each grid x.  A search whose seed rows x (2k + 1) probes x
    CHORD_ITERS exceeds MAX_CHORD_WORK is refused before Newton.

    Returns (chords, gamma_estimate, report): chords are the
    positive-value points sorted by value then coords, gamma_estimate
    sums t^(index - (N+1)) over them, and the report records value
    thresholds, the duality pairing, and whether the estimate is only
    chain-level (adjacent degrees present).  The full signed
    enumeration is checked for duality: every point must have a mirror
    partner (x, eta~, eta) with opposite value and complementary index.
    """
    n, N = fam.n, fam.N
    seeds = _chord_seeds(fam, fiber_critical_set(fam, step), step)
    if not len(seeds):
        return [], LaurentPoly({}), _chord_report([], step)
    probes = 2 * seeds.shape[1] + 1
    if len(seeds) * probes * CHORD_ITERS > MAX_CHORD_WORK:
        raise DomainError(
            f"chord search too large at grid step {step}: {len(seeds)} "
            f"seeds x {probes} probes x {CHORD_ITERS} Newton steps exceed "
            f"the cap of {MAX_CHORD_WORK:.3g}")
    # Stuck rows stay in: a seed that stalls on a degenerate critical
    # point must still reach the margin check below and raise there.
    pts, ok, _ = _newton(lambda P, rows: _diff_gradient(fam, P), seeds,
                         CHORD_ITERS)
    converged = pts[ok]
    vals = _diff_value(fam, converged)
    keep = np.abs(vals) > CHORD_VALUE_FLOOR
    cluster = _cluster(converged[keep])
    if not len(cluster):
        return [], LaurentPoly({}), _chord_report([], step)
    # every map is row-wise, so one call on the stacked points gives
    # each point what a call on it alone gives
    values = _diff_value(fam, cluster).tolist()
    spectra = sym_eigenvalues(_diff_hessians(fam, cluster))
    points = []
    for pt, value, eigs in zip(cluster, values, spectra):
        margin = min(abs(v) for v in eigs)
        coords = (tuple(pt[:n].tolist()), tuple(pt[n:n + N].tolist()),
                  tuple(pt[n + N:].tolist()))
        if margin < CHORD_MARGIN_TOL:
            raise DomainError(
                f"degenerate critical point at {coords}: min |eigenvalue| "
                f"{margin:.3e}")
        index = sum(1 for v in eigs if v < 0)
        points.append(CriticalPoint(coords, value, index, margin, N))
    _audit_duality(points, n, N)
    chords = sorted((p for p in points if p.value > 0),
                    key=lambda p: (p.value, p.coords))
    gamma = LaurentPoly((p.degree, 1) for p in chords)
    return chords, gamma, _chord_report(chords, step)


def _chord_report(chords, step):
    values = [p.value for p in chords]
    degrees = sorted({p.degree for p in chords})
    adjacent = any(d + 1 in degrees for d in degrees)
    return {
        "count": len(chords),
        "epsilon": min(values) / 2.0 if values else None,
        "omega": 2.0 * max(values) if values else None,
        "chain_level_only": adjacent,
        "warnings": (["chain-level estimate only: chords in adjacent "
                      "degrees, differentials not computed"]
                     if adjacent else []),
        "tolerances": {"grid_step": step, "value_floor": CHORD_VALUE_FLOOR,
                       "margin_tol": CHORD_MARGIN_TOL},
    }


def _audit_duality(points, n, N):
    total = n + 2 * N
    for p in points:
        x, e1, e2 = p.coords
        target = list(x) + list(e2) + list(e1)
        partner = None
        for q in points:
            qx, qe1, qe2 = q.coords
            flat = list(qx) + list(qe1) + list(qe2)
            if max(abs(a - b) for a, b in zip(flat, target)) < 1e-5:
                partner = q
                break
        if partner is None or abs(partner.value + p.value) > 1e-9 \
                or partner.index + p.index != total:
            raise DomainError(
                f"duality violated: point at {p.coords} value {p.value:.6g} "
                f"index {p.index} lacks a mirror partner with value "
                f"{-p.value:.6g} and index {total - p.index}")


# --- spinning ---------------------------------------------------------

def _refuse_composite(fam, what):
    if isinstance(fam, CompositeFamily):
        raise DomainError(
            f"{what} needs a single-piece family; a composite has no "
            "single polynomial core")


def spin(fam):
    """Rotate a 1-d base family about the x = 0 axis.

    The construction replaces x^2 by x1^2 + x2^2 in the core, which is
    exact for even cores; odd radial terms obstruct a smooth spun family
    and are rejected.
    """
    _refuse_composite(fam, "spin")
    if fam.n != 1:
        raise DomainError(f"spin needs a 1-dimensional base, got n={fam.n}")
    if any(e[0] % 2 for e in fam.core.terms):
        slope = max(abs(c) for e, c in fam.core.terms.items() if e[0] % 2)
        raise DomainError(
            f"not spinnable: θ-dependence near axis (odd radial terms of "
            f"size {slope:g} give the gradient a direction-dependent limit)")
    return GeneratingFamily(2, fam.N, fam.core.insert_rotation(0), fam.tail,
                            fam.R)


def saucer_family():
    """The unknot family spun about its vertical axis."""
    return spin(unknot_family())


# The built-in families by name, the --family choices of the CLI, in
# the order of the numpy-free table in legcob.families.
FAMILIES = {name: globals()[builder]
            for name, builder in FAMILY_BUILDERS.items()}


# --- immersed filling family ------------------------------------------

class ImmersedFilling:
    """The two-parameter interpolation from a linear slice to t * f.

    F(t, x, eta) = t*(sigma(t) f + (1-sigma(t)) A(eta)) - eps(t)*eta,
    with sigma the smoothstep rising on [1, 2]; eps(t) holds the
    regular value eps_G up to t = 2 and ramps linearly to 0 at t_plus.
    Every t-slice is again a polynomial-core family (slice_family),
    built once per time for the filling's lifetime.
    """

    def __init__(self, fam, eps_G, t_plus):
        self.family = fam
        self.eps_G = eps_G
        self.t_minus = 1.0
        self.t_plus = float(t_plus)
        self.report = None  # set by immersed_filling_family
        self._slices = {}

    def sigma(self, t):
        return float(smoothstep(np.asarray(t, float) - 1.0))

    def eps(self, t):
        if t <= 2.0:
            return self.eps_G
        if t >= self.t_plus:
            return [0.0] * self.family.N
        frac = (self.t_plus - t) / (self.t_plus - 2.0)
        return [e * frac for e in self.eps_G]

    def slice_family(self, t):
        """The slice at time t, the one built at the first call with
        float(t): the margins of the search, the conditions and the
        embeddedness path all read the same slices."""
        sl = self._slices.get(float(t))
        if sl is None:
            sl = self._slices[float(t)] = self._slice(t)
        return sl

    def _slice(self, t):
        fam = self.family
        s = self.sigma(t)
        eps = self.eps(t)
        core = fam.core.scale(t * s) + _fiber_linear(
            fam.n, [t * (1.0 - s) * fam.tail[j] - eps[j]
                    for j in range(fam.N)])
        tail = [t * fam.tail[j] - eps[j] for j in range(fam.N)]
        return GeneratingFamily(fam.n, fam.N, core, tail, fam.R)


# The filling tries FILLING_BUDGET offsets eps_G and takes the first
# whose slices, solved on a grid of step FILLING_GRID_STEP, keep a
# regularity margin of at least FILLING_MARGIN_TOL.
FILLING_BUDGET = 40
FILLING_GRID_STEP = 0.2
FILLING_MARGIN_TOL = 1e-6
# The first 2 * FILLING_BUDGET draws of np.random.default_rng(0).normal(),
# enough for N <= 2.  Try k's direction is draws k*N .. k*N + N - 1, what
# that generator gives try k when each try draws N of them (its stream
# does not depend on the draw size); a gf-check loads no numpy.random.
FILLING_DRAWS = (
    0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
    0.10490011715303971, -0.535669373161111, 0.36159505490948474,
    1.3040000451301372, 0.9470809631292422, -0.7037352358069926,
    -1.2654214710460525, -0.6232744625373522, 0.0413259793472436,
    -2.3250307746388343, -0.21879166393254573, -1.2459109472530652,
    -0.7322673547034516, -0.5442589828573099, -0.31630015636915454,
    0.4116305363741328, 1.0425133694426776, -0.12853466294403426,
    1.3664634705496859, -0.6651946734866135, 0.3515100700930197,
    0.9034701816518086, 0.09401229776087457, -0.7434992493538084,
    -0.9217253762584194, -0.45772582566733916, 0.2201951234700494,
    -1.009618183538736, -0.20917557487171307, -0.15922500991447772,
    0.5408455846858077, 0.2146591225063409, 0.3553727090399214,
    -0.6538286094183394, -0.12961363369276946, 0.7839754700613295,
    1.4934311452207607, -1.2590655321041202, 1.5139237747390626,
    1.3458754237823045, 0.7813114007004275, 0.2644556303293035,
    -0.3139228145364278, 1.4580206835369587, 1.9602583164499647,
    1.801634869866125, 1.31510376473437, 0.357380410658956,
    -1.2083186322821715, -0.004454133120083229, 0.6564749350763358,
    -1.2883614637495544, 0.39512206018200824, 0.42986369482223,
    0.6960427239628685, -1.184117966757189, -0.6617025720390349,
    -0.43643524714322124, -1.169801907772864, 1.739367877130134,
    -0.4959107284421519, 0.3289696294602021, -0.258572545473924,
    1.5834728788021222, 1.3203609870818391, 0.6333526228249152,
    -2.2035098806466507, 0.05202897425988651, 0.6836861907765345,
    1.0039615758421696, -0.6179070447076008, 1.8220113633283233,
    -1.3204309700132935, -0.6615280218152191, 0.9350499881140221,
    0.049054613825311656, 2.002392583645255,
)


def immersed_filling_family(fam, t_plus=3.0):
    """Build the filling interpolation and certify its slice conditions.

    Searches decreasing offsets eps_G until 0 is a regular value of the
    fiber derivative of every sampled slice (the Jacobian in (t, x,
    eta) keeps a singular-value margin); then checks on sample grids
    that the slice families are linear for t <= 1, t*f for t >= t_plus,
    and the tail far from the origin, to float rounding.
    """
    _refuse_composite(fam, "the filling interpolation")
    if not 2.0 < t_plus < math.inf:
        raise DomainError(f"t_plus must be finite and exceed 2, got {t_plus}")
    t_samples = [0.5, 1.0, 1.3, 1.6, 1.9, 2.2, 2.6, t_plus, t_plus + 0.5]
    for k in range(FILLING_BUDGET):
        mag = 0.5 * (0.7 ** (k // 4))
        direction = np.array(FILLING_DRAWS[k * fam.N:(k + 1) * fam.N])
        direction /= max(np.abs(direction).max(), 1e-12)
        eps_G = list(mag * direction)
        filling = ImmersedFilling(fam, eps_G, t_plus)
        margin = math.inf
        ok = True
        for t in t_samples:
            sl = filling.slice_family(t)
            if not any(sl.tail):
                ok = False
                break
            m = fiber_regularity_margin(
                sl, fiber_critical_set(sl, FILLING_GRID_STEP))
            if m is not None:
                margin = min(margin, m)
                if m < FILLING_MARGIN_TOL:
                    ok = False
                    break
        if ok:
            break
    else:
        raise DomainError(
            f"failed to locate regular value ε_G after {FILLING_BUDGET} "
            "samples")

    def dev(t, X, E, want):
        """The largest |slice t - want| over the rows (X, E), relative
        to want's largest magnitude where that exceeds 1.  The slice
        families are what the chords and margins are computed on."""
        got = filling.slice_family(t).value(X, E)
        return float(np.max(np.abs(got - want))) \
            / max(1.0, float(np.max(np.abs(want))))

    xs = np.linspace(-fam.extent(), fam.extent(), 9).reshape(-1, 1)
    if fam.n == 2:
        xs = np.column_stack([xs[:, 0], xs[::-1, 0]])
    es = np.linspace(-fam.extent(), fam.extent(), 9).reshape(-1, fam.N) \
        if fam.N == 1 else np.column_stack(
            [np.linspace(-fam.extent(), fam.extent(), 9)] * 2)
    far = np.full((9, fam.N), 1.5 * fam.extent())
    beyond = np.zeros((9, fam.n)) + 2.5 * fam.extent()
    conditions = {
        "linear_at_infinity": max(
            dev(t, beyond, far, t * fam.tail_value(far)
                - far @ np.asarray(filling.eps(t)))
            for t in t_samples) < 1e-9,
        "linear_below_t_minus": max(
            dev(t, xs, es, t * fam.tail_value(es) - es @ np.asarray(eps_G))
            for t in (0.3, 0.7, 1.0)) < 1e-9,
        "scaled_family_above_t_plus": max(
            dev(t, xs, es, t * fam.value(xs, es))
            for t in (t_plus, t_plus + 1.0)) < 1e-9,
        "fiber_derivative_regular": margin >= FILLING_MARGIN_TOL,
    }
    filling.report = {
        "eps_G": eps_G,
        "t_minus": 1.0,
        "t_plus": t_plus,
        "regularity_margin": margin,
        "conditions": conditions,
        "sigma": "exp-bump smoothstep rising on [1, 2]",
        "eps_path": "constant eps_G up to t = 2, linear ramp to 0 at t_plus",
        "tolerances": {"margin_tol": FILLING_MARGIN_TOL,
                       "slice_grid_step": FILLING_GRID_STEP},
    }
    return filling


# --- embeddedness along a path ----------------------------------------

# A chord whose value falls below CHORD_DEATH_TOL along a path counts
# as dead; d_t delta is a central difference of step PATH_DT; each
# sampled family's chords are searched on a grid of step PATH_GRID_STEP.
CHORD_DEATH_TOL = 1e-3
PATH_DT = 1e-4
PATH_GRID_STEP = 0.1


def embeddedness_check(path, t_start, t_end):
    """Certify the chord-length inequality along a family path.

    path: callable t -> family on [t_start, t_end], t_start > 0.
    Enumerates the difference-function critical points at 9 evenly
    spaced times; h is the smallest |value| seen, max_dt the largest time
    derivative of the difference function at those points, and the
    path passes when h/t stays above |d_t delta| everywhere sampled.
    The reported slowdown is the factor a time reparameterization must
    stretch the path by to restore the inequality when it fails: the
    largest t |d_t delta| / h over the samples, with h the path's
    smallest value, known once every sample is in.
    """
    if t_start <= 0:
        raise DomainError(
            f"embeddedness run: t_start must be positive, got {t_start}")
    if not t_start < t_end < math.inf:
        raise DomainError(
            f"embeddedness run: times must be finite with t_start < t_end, "
            f"got [{t_start}, {t_end}]")
    ts = np.linspace(t_start, t_end, 9)
    h_min = math.inf
    max_dt = 0.0
    rate_t = 0.0
    for t in ts:
        fam = path(t)
        chords, _, _ = reeb_chords(fam, PATH_GRID_STEP)
        if not chords:
            raise DomainError(
                f"chord death along path: no chords at t = {t:.6g}")
        values = [p.value for p in chords]
        h_t = min(values)
        if h_t < CHORD_DEATH_TOL:
            raise DomainError(
                f"chord death along path: minimal value {h_t:.3e} "
                f"at t = {t:.6g}")
        h_min = min(h_min, h_t)
        lo = path(max(t - PATH_DT, t_start))
        hi = path(min(t + PATH_DT, t_end))
        span = min(t + PATH_DT, t_end) - max(t - PATH_DT, t_start)
        pts = np.array([[*p.coords[0], *p.coords[1], *p.coords[2]]
                        for p in chords])
        for d_hi, d_lo in zip(_diff_value(hi, pts).tolist(),
                              _diff_value(lo, pts).tolist()):
            rate = abs(d_hi - d_lo) / span
            max_dt = max(max_dt, rate)
            rate_t = max(rate_t, float(rate * t))
    slowdown = rate_t / h_min
    ok = slowdown < 1.0
    return {"h": h_min, "max_dt": max_dt, "ok": ok,
            "slowdown": slowdown,
            "t_samples": list(map(float, ts)),
            "tolerances": {"grid_step": PATH_GRID_STEP,
                           "death_tol": CHORD_DEATH_TOL}}
