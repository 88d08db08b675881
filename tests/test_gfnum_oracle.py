"""gfnum's region-wise family evaluation against the formulas it
replaced.

The reference below evaluates everything on every row: the blend takes
its exponentials everywhere (smoothstep and its derivative from four
bump calls), the collar term evaluates the core on every row, the fiber
solve scans grad_eta over the full (x, eta) grid of each chunk, and
Newton iterates every row of its batch to the end.  The fast code must
agree exactly: np.array_equal, and the sign bits of zeros agree as
well.  Grids straddle r = R and r = 2R, including the rows where the
exponentials underflow.  The certified seed scan must give the seeds
of a scan of every near grid pair, and its grad_eta bounds must hold
every value grad_eta computes in their boxes, over a range of x as
over one x row.  The chord Newton, seeded only where two branches'
slopes cross, must find the chords, indices, gamma and duality audit
that seeding it with every ordered pair of branches finds, or the same
refusal.  Every family map is row-wise, so the Jacobian from one call
on the points stacked over their probes equals, bit for bit, the one
that calls the map once per probe column, and Newton on groups of rows
that stop on their own gives what one call per group gives.  Newton's
1x1 steps, taken by division, give LAPACK's solves bit for bit, and a
chord search's stacked certification gives the CriticalPoints of the
per-point loop it replaced.
"""

import functools
import math

import numpy as np
import pytest

from legcob import gfnum
from legcob.errors import DomainError
from legcob.gfnum import (
    CHORD_MARGIN_TOL, FAMILIES, FD_STEP, CompositeFamily, CriticalPoint,
    GeneratingFamily, _diff_gradient, _diff_value, _fd_jacobian,
    _fiber_seeds, _newton, _sample_grid, fiber_critical_set, fish_family,
    linear_family, parse_gf_file, reeb_chords, scaled_unknot_family,
    shifted_unknot_family, spin, stacked_pair_family, sym_eigenvalues,
    unknot_family)
from legcob.mpoly import MultiPoly
from test_gfnum import aligned_stacked_pair

# An n = 1, N = 2 family: no built-in family has two fiber variables.
TWO_FIBER = ("n=1\nN=2\ncore=3*e1 - 3*x1^2*e1 - e1^3 + e2^2\n"
             "tail=-200*e1 + 3*e2\nR=3\n")
# The same core with a tail below 4 step: every grid pair beyond 2R
# passes the reference's N = 2 seed pick, and its Newton row stalls.
SMALL_TAIL = TWO_FIBER.replace("-200*e1 + 3*e2", "0.05*e1 + 0.05*e2")


# --- reference: every formula on every row ----------------------------

def ref_bump(u):
    u = np.asarray(u, float)
    out = np.zeros_like(u)
    pos = u > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(
            (-1.0 / u[pos]).astype(np.longdouble)).astype(float)
    return out


def ref_bump_d(u):
    u = np.asarray(u, float)
    out = np.zeros_like(u)
    pos = u > 1e-12
    out[pos] = (np.exp((-1.0 / u[pos]).astype(np.longdouble)).astype(float)
                / u[pos] ** 2)
    return out


def ref_smoothstep(u):
    b1 = ref_bump(u)
    b2 = ref_bump(1.0 - np.asarray(u, float))
    return b1 / (b1 + b2)


def ref_smoothstep_d(u):
    b1, b2 = ref_bump(u), ref_bump(1.0 - np.asarray(u, float))
    db1, db2 = ref_bump_d(u), ref_bump_d(1.0 - np.asarray(u, float))
    return (db1 * b2 + b1 * db2) / (b1 + b2) ** 2


def ref_blend(fam, X, E):
    r = np.sqrt((X * X).sum(axis=1) + (E * E).sum(axis=1))
    u = (r - fam.R) / fam.R
    return r, ref_smoothstep(u), ref_smoothstep_d(u) / fam.R


def ref_value(fam, X, E):
    if isinstance(fam, CompositeFamily):
        total = fam.tail_value(E).astype(float)
        for part, center in fam.parts:
            El = E - np.asarray(center)
            total = total + ref_value(part, X, El) - part.tail_value(El)
        return total
    core_v = fam.core.evaluate(fam._cols(X, E))
    _, s, _ = ref_blend(fam, X, E)
    return core_v + s * (fam.tail_value(E) - core_v)


def ref_collar(fam, X, E):
    cols = fam._cols(X, E)
    core_v = fam.core.evaluate(cols)
    r, s, sd = ref_blend(fam, X, E)
    inv_r = np.where(r > 0, 1.0 / np.maximum(r, 1e-300), 0.0)
    return cols, s, sd * inv_r * (fam.tail_value(E) - core_v)


def ref_grad_x(fam, X, E):
    if isinstance(fam, CompositeFamily):
        out = np.zeros_like(X)
        for part, center in fam.parts:
            out += ref_grad_x(part, X, E - np.asarray(center))
        return out
    cols, s, collar = ref_collar(fam, X, E)
    out = np.empty_like(X)
    for i in range(fam.n):
        out[:, i] = (1.0 - s) * fam._dx[i].evaluate(cols) + collar * X[:, i]
    return out


def ref_grad_eta(fam, X, E):
    if isinstance(fam, CompositeFamily):
        out = np.tile(np.asarray(fam.tail, float), (len(E), 1))
        for part, center in fam.parts:
            out += ref_grad_eta(part, X, E - np.asarray(center)) \
                - np.asarray(part.tail)
        return out
    cols, s, collar = ref_collar(fam, X, E)
    out = np.empty_like(E)
    for j in range(fam.N):
        out[:, j] = ((1.0 - s) * fam._de[j].evaluate(cols)
                     + s * fam.tail[j] + collar * E[:, j])
    return out


def ref_fd_jacobian(F, P, h):
    """Central-difference Jacobian of F at the rows of P from one call
    of F per probe: out[m, i, k] = d F(P)[m, i] / d P[m, k]."""
    cols = []
    for k in range(P.shape[1]):
        dP = np.zeros((1, P.shape[1]))
        dP[0, k] = h
        cols.append((F(P + dP) - F(P - dP)) / (2 * h))
    return np.stack(cols, axis=2)


def ref_full_newton(F, P, iters, newton_tol=1e-12, accept_tol=1e-9,
                    h=1e-6):
    """Full-batch Newton for F(P) = 0: F and its Jacobian are evaluated
    on every row each iteration, stuck rows included."""
    P = np.array(P, float)
    stuck = np.zeros(len(P), bool)
    for _ in range(iters):
        res = F(P)
        if np.max(np.abs(res[~stuck]), initial=0.0) < newton_tol:
            break
        jac = ref_fd_jacobian(F, P, h)
        stuck |= np.abs(np.linalg.det(jac)) <= 1e-14
        move = ~stuck
        step = np.zeros_like(P)
        step[move] = np.linalg.solve(jac[move], res[move][..., None])[..., 0]
        P -= np.clip(step, -0.5, 0.5)
    accept = np.max(np.abs(F(P)), axis=1) < accept_tol
    return P, accept, stuck


def ref_solve_fiber(fam, xs, step, newton_tol, accept_tol):
    ext = fam.extent()
    es = np.arange(-ext, ext + step / 2.0, step)
    if fam.N == 1:
        eta_grid = es.reshape(-1, 1)
    else:
        E1, E2 = np.meshgrid(es, es, indexing="ij")
        eta_grid = np.column_stack([E1.ravel(), E2.ravel()])
    me = len(eta_grid)
    found_x, found_e = [], []
    chunk = max(1, 200000 // me)
    for lo in range(0, len(xs), chunk):
        xc = xs[lo:lo + chunk]
        X = np.repeat(xc, me, axis=0)
        E = np.tile(eta_grid, (len(xc), 1))
        g = ref_grad_eta(fam, X, E)
        if fam.N == 1:
            g = g[:, 0].reshape(len(xc), me)
            ga, gb = g[:, :-1], g[:, 1:]
            hit = np.sign(ga) * np.sign(gb) <= 0
            hit &= ~((ga == 0) & (gb == 0))
            rows, cols = np.nonzero(hit)
            denom = gb[rows, cols] - ga[rows, cols]
            frac = np.where(np.abs(denom) > 1e-300, -ga[rows, cols]
                            / np.where(denom == 0, 1, denom), 0.5)
            Xs = xc[rows]
            Es = (es[cols] + np.clip(frac, 0.0, 1.0) * step).reshape(-1, 1)
        else:
            pick = np.abs(g).max(axis=1) < 4.0 * step
            Xs, Es = X[pick], E[pick]
        if not len(Xs):
            continue
        Es, ok, stuck = ref_full_newton(lambda P: ref_grad_eta(fam, Xs, P),
                                        Es, 60, newton_tol, accept_tol)
        ok &= ~stuck
        found_x.append(Xs[ok])
        found_e.append(Es[ok])
    if not found_x:
        return np.empty((0, fam.n)), np.empty((0, fam.N))
    return np.concatenate(found_x), np.concatenate(found_e)


def ref_fiber_critical_set(fam, step, newton_tol=1e-12, accept_tol=1e-9):
    """The fiber samples with their front data, one row (x, eta, z, p)
    per sample: of the solved rows whose rounded (x, eta) agree the
    first one solved, sorted by x and then eta."""
    X, E = ref_solve_fiber(fam, _sample_grid(fam, step, fam.n)[1], step,
                           newton_tol, accept_tol)
    rows = []
    if len(X):
        Z = ref_value(fam, X, E)
        P = ref_grad_x(fam, X, E)
        seen = set()
        for i in range(len(X)):
            key = (tuple(np.round(X[i], 9)), tuple(np.round(E[i], 7)))
            if key not in seen:
                seen.add(key)
                rows.append((*X[i], *E[i], Z[i], *P[i]))
    rows.sort(key=lambda r: r[:fam.n + fam.N])
    return np.array(rows, float).reshape(-1, 2 * fam.n + fam.N + 1)


# --- grids straddling r = R and r = 2R --------------------------------

def _radii(R):
    """Radii from 0 to 2.5 R, plus R and 2R with their float
    neighbours, and the edges where exp(-1/u) and exp(-1/(1-u))
    underflow (u about 1/745 and 1 - 1/745)."""
    out = list(np.linspace(0.0, 2.5 * R, 211))
    for edge in (R, 2.0 * R, R * (1 + 1 / 745), R * (2 - 1 / 745),
                 R * (1 + 1e-12), R * (2 - 1e-15)):
        out.append(edge)
        lo = hi = edge
        for _ in range(3):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


def _directions(dim, count, rng):
    d = rng.normal(size=(count, dim))
    d /= np.linalg.norm(d, axis=1)[:, None]
    # axis directions too, so coordinates that are exactly zero occur
    return np.concatenate([d, np.eye(dim), -np.eye(dim)])


def straddling_grid(fam, seed=0):
    """(X, E) rows on spheres about the origin, and for a composite
    also about each part's fiber center, at the radii of _radii."""
    rng = np.random.default_rng(seed)
    dim = fam.n + fam.N
    if isinstance(fam, CompositeFamily):
        centers = [(part.R, np.array((0.0,) * fam.n + center))
                   for part, center in fam.parts]
    else:
        centers = [(fam.R, np.zeros(dim))]
    rows = []
    for R, center in centers:
        dirs = _directions(dim, 24, rng)
        rows.append((dirs[:, None, :] * _radii(R)[None, :, None]
                     ).reshape(-1, dim) + center)
    P = np.concatenate(rows)
    return np.ascontiguousarray(P[:, :fam.n]), \
        np.ascontiguousarray(P[:, fam.n:])


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


EVAL_FAMILIES = {
    "unknot (n=1, N=1)": unknot_family,
    "fish (n=1, N=1)": fish_family,
    "saucer (n=2, N=1)": lambda: spin(unknot_family()),
    "gf-file (n=1, N=2)": lambda: parse_gf_file(TWO_FIBER),
    "stacked-pair (composite)": stacked_pair_family,
}


@pytest.mark.parametrize("name", sorted(EVAL_FAMILIES))
def test_evaluations_match_reference(name):
    fam = EVAL_FAMILIES[name]()
    X, E = straddling_grid(fam)
    assert _same(fam.value(X, E), ref_value(fam, X, E))
    gx, ge = ref_grad_x(fam, X, E), ref_grad_eta(fam, X, E)
    assert _same(fam.grad_x(X, E), gx)
    assert _same(fam.grad_eta(X, E), ge)
    fx, fe = fam.gradient(X, E)
    assert _same(fx, gx) and _same(fe, ge)
    # the same rows as strided views of one array, as the chord Newton
    # passes them
    P = np.concatenate([X, E, E[::-1]], axis=1)
    Xv, Ev = P[:, :fam.n], P[:, fam.n:fam.n + fam.N]
    assert _same(fam.grad_x(Xv, Ev), gx)
    assert _same(fam.gradient(Xv, Ev)[1], ge)


def test_smoothstep_matches_reference():
    us = np.concatenate([np.linspace(-0.5, 1.5, 2001),
                         [0.0, 1.0, 1e-13, 1e-12, 1 / 745, 1 - 1 / 745,
                          1 - 1e-13, np.nextafter(1.0, 0.0)]])
    assert _same(gfnum.smoothstep(us), ref_smoothstep(us))
    assert _same(gfnum.smoothstep_d(us), ref_smoothstep_d(us))
    for t in (-1.0, 0.0, 0.3, 1.0, 2.0):
        assert float(gfnum.smoothstep(t)) == float(ref_smoothstep(t))


def test_near_mask_covers_where_the_family_differs_from_its_tail():
    for name in sorted(EVAL_FAMILIES):
        fam = EVAL_FAMILIES[name]()
        X, E = straddling_grid(fam, seed=1)
        near = fam.near_box(X, X, E, E)
        assert np.array_equal(near, ref_near(fam, X, E))
        far_g = fam.grad_eta(X[~near], E[~near])
        assert np.array_equal(far_g, np.tile(fam.tail, (len(far_g), 1)))
        assert not fam.grad_x(X[~near], E[~near]).any()


def _core_magnitude(fam, X, E):
    """|core| + |A| summed over the families value adds up: the scale
    of the rounding in core + (A - core) and in a composite's sum."""
    if isinstance(fam, CompositeFamily):
        total = np.abs(fam.tail_value(E))
        for part, center in fam.parts:
            total = total + _core_magnitude(part, X, E - np.asarray(center))
        return total
    return np.abs(fam.core.evaluate(fam._cols(X, E))) \
        + np.abs(fam.tail_value(E))


def test_value_beyond_2R_is_the_tail_up_to_rounding():
    """Off the near mask the gradient is the tail's bit for bit, but the
    value, core + (A - core), equals A only up to rounding of the
    terms it adds up."""
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    differs = 0
    for name in sorted(EVAL_FAMILIES):
        fam = EVAL_FAMILIES[name]()
        ext = fam.extent()
        P = rng.uniform(-3.0 * ext, 3.0 * ext, (20000, fam.n + fam.N))
        X = np.ascontiguousarray(P[:, :fam.n])
        E = np.ascontiguousarray(P[:, fam.n:])
        far = ~ref_near(fam, X, E)
        X, E = X[far], E[far]
        assert len(X) > 10000, name
        assert np.array_equal(fam.grad_eta(X, E),
                              np.tile(fam.tail, (len(X), 1))), name
        assert not fam.grad_x(X, E).any(), name
        gap = np.abs(fam.value(X, E) - fam.tail_value(E))
        assert (gap <= 4.0 * eps * _core_magnitude(fam, X, E)).all(), name
        differs += np.count_nonzero(gap)
    assert differs


FIBER_CASES = {
    "unknot": (unknot_family, 0.05),
    "scaled-unknot": (scaled_unknot_family, 0.05),
    "shifted-unknot": (shifted_unknot_family, 0.05),
    "linear": (linear_family, 0.05),
    "fish": (fish_family, 0.05),
    "stacked-pair": (stacked_pair_family, 0.05),
    "saucer": (lambda: spin(unknot_family()), 0.1),
    "gf-file N=2": (lambda: parse_gf_file(TWO_FIBER), 0.1),
    "gf-file N=2, small tail": (lambda: parse_gf_file(SMALL_TAIL), 0.5),
}


@pytest.mark.parametrize("name", sorted(FIBER_CASES))
def test_fiber_critical_set_matches_reference(name):
    """The rows (x, eta), with z and p evaluated on them, are the
    reference's bit for bit."""
    make, step = FIBER_CASES[name]
    fam = make()
    got = fiber_critical_set(fam, step)
    X, E = got[:, :fam.n], got[:, fam.n:]
    got = np.column_stack([got, fam.value(X, E), fam.grad_x(X, E)])
    assert _same(got, ref_fiber_critical_set(fam, step))
    if name != "linear":
        assert len(got)


# --- the certified seed scan -------------------------------------------

def ref_near(fam, X, E):
    """The near mask of the rows (X, E): |x|^2 + |eta - c|^2 < (2R)^2
    about the fiber center c of some part (about the origin, with the
    family's R, for a GeneratingFamily)."""
    out = np.zeros(len(X), bool)
    for R, center in _centers(fam):
        out |= (X * X).sum(axis=1) + ((E - center) ** 2).sum(axis=1) \
            < (2.0 * R) ** 2
    return out


def dense_seeds(fam, xs, step):
    """The seed scan that evaluates grad_eta at every near grid pair
    (ref_near) and takes the tail elsewhere, one (Xs, Es) pair per chunk
    of rows."""
    ext = fam.extent()
    es = np.arange(-ext, ext + step / 2.0, step)
    if fam.N == 1:
        eta_grid = es.reshape(-1, 1)
    else:
        E1, E2 = np.meshgrid(es, es, indexing="ij")
        eta_grid = np.column_stack([E1.ravel(), E2.ravel()])
    me = len(eta_grid)
    chunk = max(1, 200000 // me)
    for lo in range(0, len(xs), chunk):
        xc = xs[lo:lo + chunk]
        near = ref_near(fam, np.repeat(xc, me, axis=0),
                        np.tile(eta_grid, (len(xc), 1)))
        rows, cols = np.nonzero(near.reshape(len(xc), me))
        Xn, En = xc[rows], eta_grid[cols]
        gn = fam.grad_eta(Xn, En)
        if fam.N == 1:
            g = np.full((len(xc), me), fam.tail[0])
            g[rows, cols] = gn[:, 0]
            ga, gb = g[:, :-1], g[:, 1:]
            hit = np.sign(ga) * np.sign(gb) <= 0
            hit &= ~((ga == 0) & (gb == 0))
            rows, cols = np.nonzero(hit)
            denom = gb[rows, cols] - ga[rows, cols]
            frac = np.where(np.abs(denom) > 1e-300, -ga[rows, cols]
                            / np.where(denom == 0, 1, denom), 0.5)
            Xs = xc[rows]
            Es = (es[cols] + np.clip(frac, 0.0, 1.0) * step).reshape(-1, 1)
        else:
            pick = np.abs(gn).max(axis=1) < 4.0 * step
            Xs, Es = Xn[pick], En[pick]
        if len(Xs):
            yield Xs, Es


def _steps(make):
    """0.2, 0.1, 0.05, and 0.03 where the grid cap admits it (n + N =
    2)."""
    fam = make()
    return (0.2, 0.1, 0.05) + ((0.03,) if fam.n + fam.N == 2 else ())


SEED_CASES = [(name, step) for name in sorted(FIBER_CASES)
              for step in _steps(FIBER_CASES[name][0])]


@pytest.mark.parametrize("name,step", SEED_CASES)
def test_seeds_match_a_dense_scan(name, step):
    """The certified scan gives the dense scan's seeds, chunk by chunk
    and in order, so Newton sees the same batches."""
    fam = FIBER_CASES[name][0]()
    xs = _sample_grid(fam, step, fam.n)[1]
    got = list(_fiber_seeds(fam, step))
    want = list(dense_seeds(fam, xs, step))
    assert len(got) == len(want)
    for (gx, ge), (wx, we) in zip(got, want):
        assert _same(gx, wx) and _same(ge, we)


def _random_family(rng):
    """A family with a random core of degree <= 4, random tail and
    cutoff; one in five with N = 1 is a two-part composite."""
    n, N = [(1, 1), (1, 2), (2, 1)][rng.integers(3)]
    terms = {}
    for _ in range(rng.integers(1, 7)):
        exps = tuple(int(k) for k in rng.integers(0, 4, size=n + N))
        if sum(exps) <= 4:
            terms[exps] = round(float(rng.normal()) * 3, 2)
    core = MultiPoly(n + N, terms)
    tail = [round(float(rng.normal() * rng.choice([0.1, 3.0, 50.0])), 2)
            or 1.0 for _ in range(N)]
    R = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    fam = GeneratingFamily(n, N, core, tail, R)
    if N == 1 and rng.random() < 0.2:
        other = GeneratingFamily(n, N, core.scale(-1.3), tail, R)
        fam = CompositeFamily([fam, other], [(-2.1 * R,), (2.3 * R,)])
    return fam


@functools.lru_cache(maxsize=None)
def random_cases():
    """Sixty (family, step) pairs drawn from one seeded stream."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(60):
        fam = _random_family(rng)
        step = float(rng.choice([0.3, 0.2, 0.13, 0.1] if fam.n + fam.N == 2
                                else [0.4, 0.3, 0.2]))
        cases.append((fam, step))
    return cases


def test_seeds_match_a_dense_scan_on_random_families():
    for fam, step in random_cases():
        xs = _sample_grid(fam, step, fam.n)[1]
        got = list(_fiber_seeds(fam, step))
        want = list(dense_seeds(fam, xs, step))
        assert len(got) == len(want), fam
        for (gx, ge), (wx, we) in zip(got, want):
            assert _same(gx, wx) and _same(ge, we), fam


# x axes of 1-3 points (unknot and saucer: extent 6), and axes whose
# last x block is ragged (53 points: 6 blocks of 8 and one of 5) or
# full (64 points: 8 blocks of 8).
BLOCK_EDGE_CASES = [("unknot", 6.0, 3), ("unknot", 12.0, 2),
                    ("unknot", 13.0, 2), ("unknot", 25.0, 1),
                    ("unknot", 0.23, 53), ("unknot", 0.19, 64),
                    ("saucer", 6.0, 3), ("saucer", 12.0, 2),
                    ("saucer", 0.23, 53), ("saucer", 0.19, 64),
                    ("gf-file N=2", 0.23, 53)]


@pytest.mark.parametrize("name,step,points", BLOCK_EDGE_CASES)
def test_seeds_match_a_dense_scan_at_block_edges(name, step, points):
    """The x blocks of the scan's first tier hold SCAN_X_BLOCK points per
    x axis; axes shorter than a block and ragged last blocks give the
    dense scan's seeds too."""
    fam = FIBER_CASES[name][0]()
    xs = _sample_grid(fam, step, fam.n)[1]
    assert len(np.unique(xs[:, 0])) == points
    got = list(_fiber_seeds(fam, step))
    want = list(dense_seeds(fam, xs, step))
    assert len(got) == len(want)
    for (gx, ge), (wx, we) in zip(got, want):
        assert _same(gx, wx) and _same(ge, we)


def test_seed_scan_evaluates_few_near_pairs_once(monkeypatch):
    """grad_eta sees only grid pairs inside radius 2R, each once, and on
    the saucer under a tenth of them."""
    fam = spin(unknot_family())
    step = 0.2
    scanned = []
    grad_eta = fam.grad_eta

    def spy_grad_eta(X, E):
        scanned.append(np.concatenate([X, E], axis=1))
        return grad_eta(X, E)

    monkeypatch.setattr(fam, "grad_eta", spy_grad_eta)
    seeds = list(_fiber_seeds(fam, step))
    assert seeds
    rows = np.concatenate(scanned)
    r2 = (rows * rows).sum(axis=1)
    assert np.all(r2 < fam.extent() ** 2)
    assert len(np.unique(rows, axis=0)) == len(rows)
    axis = np.arange(-fam.extent(), fam.extent() + step / 2.0, step)
    g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    near = int(((g * g).sum(-1) < fam.extent() ** 2).sum())
    assert 0 < len(rows) < 0.1 * near


def _min_r2(fam, x_lo, x_hi, e_lo, e_hi):
    """Per box, the least squared distance of a box point from a fiber
    center, over (2R)^2 of that center's part: under 1 exactly when the
    box meets the 2R ball about some center."""
    def gap(lo, hi):
        return np.where((lo < 0) & (hi > 0), 0.0,
                        np.minimum(np.abs(lo), np.abs(hi)))
    out = np.full(len(x_lo), np.inf)
    for R, center in _centers(fam):
        r2 = (gap(x_lo, x_hi) ** 2).sum(axis=1) \
            + (gap(e_lo - center, e_hi - center) ** 2).sum(axis=1)
        out = np.minimum(out, r2 / (2.0 * R) ** 2)
    return out


def _top_boxes(fam, xs, step):
    """(x_lo, x_hi, eta_lo, eta_hi) of every (x block, eta block) box of
    the scan's first tier, built the plain way: runs of SCAN_X_BLOCK
    points of the x axis, their products over the x axes, each paired
    with each top-level eta block."""
    def product(axes):
        return np.stack(np.meshgrid(*axes, indexing="ij"),
                        -1).reshape(-1, len(axes))

    axis = np.unique(xs[:, 0])
    starts = np.arange(0, len(axis), gfnum.SCAN_X_BLOCK)
    ends = np.minimum(starts + gfnum.SCAN_X_BLOCK, len(axis)) - 1
    x_lo = product([axis[starts]] * fam.n)
    x_hi = product([axis[ends]] * fam.n)
    es = np.arange(-fam.extent(), fam.extent() + step / 2.0, step)
    first = product([np.arange(0, len(es) - 1, gfnum.SCAN_BLOCK)] * fam.N)
    last = np.minimum(first + gfnum.SCAN_BLOCK, len(es) - 1)
    i, j = np.divmod(np.arange(len(x_lo) * len(first)), len(first))
    return x_lo[i], x_hi[i], es[first[j]], es[last[j]]


# Boxes bounded per tier: x blocks times eta blocks, then, summed over
# the chunks of x rows, x rows times eta half blocks (16 cells per axis
# halve once, to 8, and are done).
TIER_BOXES = {"saucer": (8410, 9216), "stacked-pair": (787, 464),
              "gf-file N=2, small tail": (12, 263)}


@pytest.mark.parametrize("name,step", [("saucer", 0.05),
                                       ("stacked-pair", 0.05),
                                       ("gf-file N=2, small tail", 0.5)])
def test_seed_scan_bounds_only_rows_and_blocks_near_2R(monkeypatch, name,
                                                       step):
    """The first tier bounds, over the whole x grid, exactly the (x
    block, eta block) boxes that meet the 2R ball about some part's
    center; the row tier, per chunk of x rows, bounds single x rows.
    No box of any tier lies wholly beyond 2R of every center.  On the
    saucer at the default step that is 17,626 boxes in 15 bound calls,
    one of them the x tier's."""
    fam = FIBER_CASES[name][0]()
    xs = _sample_grid(fam, step, fam.n)[1]
    tiers = []
    seedless = gfnum._seedless

    def spy_seedless(fam, x_lo, x_hi, e_lo, e_hi, step):
        tiers.append((x_lo, x_hi, e_lo, e_hi))
        return seedless(fam, x_lo, x_hi, e_lo, e_hi, step)

    monkeypatch.setattr(gfnum, "_seedless", spy_seedless)
    assert list(_fiber_seeds(fam, step))
    bounded = [len(t[0]) for t in tiers]
    assert (bounded[0], sum(bounded[1:])) == TIER_BOXES[name]
    for box in tiers:
        assert np.all(_min_r2(fam, *box) < 1.0)
    top = _top_boxes(fam, xs, step)
    near = _min_r2(fam, *top) < 1.0
    assert len(tiers[0][0]) == near.sum() < len(near)
    assert np.any(tiers[0][0] < tiers[0][1])
    assert len(tiers) > 1
    assert all(np.array_equal(x_lo, x_hi) for x_lo, x_hi, _, _ in tiers[1:])


def _centers(fam):
    """(R, fiber center) of each family the bound is made of."""
    if isinstance(fam, CompositeFamily):
        return [(part.R, np.asarray(center)) for part, center in fam.parts]
    return [(fam.R, np.zeros(fam.N))]


def _straddling_boxes(fam, x, rng):
    """eta boxes around the points (x, eta) at r = R and r = 2R about
    each fiber center, and around each center (eta = 0 there), with
    half-widths from a hundredth of a cell to a few cells."""
    boxes = []
    for R, center in _centers(fam):
        mids = [center]
        for rho in (R, 2.0 * R):
            d = rho * rho - float(x @ x)
            if d > 0:
                v = rng.normal(size=fam.N)
                v *= np.sqrt(d) / np.linalg.norm(v)
                mids += [center + v, center - v]
        for mid in mids:
            for w in (0.001, 0.05, 0.4, 1.5):
                off = rng.uniform(-w, w, size=fam.N)
                boxes.append((mid + off - w, mid + off + w))
    return np.array([b[0] for b in boxes]), np.array([b[1] for b in boxes])


def _box_sample(lo, hi, ticks):
    """Points of each box [lo, hi] (rows of lo and hi) on the product of
    the fractions ticks[i] of its width along axis i, the fraction 1
    exactly at hi."""
    frac = np.stack(np.meshgrid(*ticks, indexing="ij"),
                    -1).reshape(-1, len(ticks))
    P = lo[:, None, :] + frac[None] * (hi - lo)[:, None, :]
    P = np.where(frac[None] == 1.0, hi[:, None, :], P)
    return np.clip(P, lo[:, None, :], hi[:, None, :])


# Widths of the x ranges of the bounded boxes: 0 is one x row, as the
# scan's row tier passes it; the others run from 1e-3 to four default
# grid steps.
X_WIDTHS = (0.0, 1e-3, 0.05, 0.2)


@pytest.mark.parametrize("name", sorted(EVAL_FAMILIES))
def test_grad_eta_bound_holds_every_computed_value(name):
    """Boxes about r = R, r = 2R and each fiber center (eta = 0 there)
    on straddling-grid rows, with x ranges of every width in X_WIDTHS:
    grad_eta at a dense sample of each box, its corners included, lies
    within the box's bound, and the bound proves a sign for some of
    the boxes.  One x row (width 0) is checked on 150 rows, and eta on
    17 ticks (N = 1) or 9 x 9; an x range on 60 rows, with the same eta
    ticks times 3 ticks per x axis."""
    fam = EVAL_FAMILIES[name]()
    n, N = fam.n, fam.N
    rng = np.random.default_rng(3)
    X, _ = straddling_grid(fam, seed=2)
    eta_ticks = [np.linspace(0.0, 1.0, 17 if N == 1 else 9)] * N
    for width in X_WIDTHS:
        rows, lo, hi = [], [], []
        for x in X[rng.choice(len(X), 60 if width else 150, replace=False)]:
            b_lo, b_hi = _straddling_boxes(fam, x, rng)
            rows += [x] * len(b_lo)
            lo.append(b_lo)
            hi.append(b_hi)
        rows, lo, hi = np.array(rows), np.concatenate(lo), np.concatenate(hi)
        if width:
            x_lo = rows - rng.uniform(0.0, width, size=rows.shape)
            x_hi = x_lo + width
            x_ticks = [np.linspace(0.0, 1.0, 3)] * n
        else:
            x_lo = x_hi = rows
            x_ticks = [np.zeros(1)] * n
        bound_lo, bound_hi = fam.grad_eta_bound(x_lo, x_hi, lo, hi)
        P = _box_sample(np.concatenate([x_lo, lo], axis=1),
                        np.concatenate([x_hi, hi], axis=1),
                        x_ticks + eta_ticks)
        g = fam.grad_eta(P[..., :n].reshape(-1, n),
                         P[..., n:].reshape(-1, N)).reshape(
                             len(P), -1, N)
        assert np.all(bound_lo[:, None, :] <= g), width
        assert np.all(g <= bound_hi[:, None, :]), width
        # and the bound is not vacuous: it is finite, and proves a sign
        # for some of the boxes
        assert np.all(np.isfinite(bound_lo)) and \
            np.all(np.isfinite(bound_hi))
        assert np.mean((bound_lo > 0) | (bound_hi < 0)) > 0.25, width


def test_smoothstep_d_sup_dominates():
    us = np.concatenate([np.linspace(-0.5, 1.5, 400001),
                         0.5 + np.arange(-5000, 5000) * 2.0 ** -53,
                         0.5 + np.linspace(-1e-6, 1e-6, 20001)])
    assert np.max(gfnum.smoothstep_d(us)) <= gfnum.SMOOTHSTEP_D_SUP
    assert gfnum.SMOOTHSTEP_D_SUP < 2.0 * (1.0 + 1e-6)


def ref_chord_seeds(fam, rows, step):
    """The reference Newton seeds of reeb_chords: every ordered pair of
    fiber branches over one x, from the fiber samples rows (x, eta)."""
    n = fam.n
    by_x = {}
    for r in rows.tolist():
        by_x.setdefault(tuple(r[:n]), []).append(r[n:])
    seeds = []
    for x, branches in by_x.items():
        for i, ei in enumerate(branches):
            for j, ej in enumerate(branches):
                if i != j:
                    seeds.append(list(x) + ei + ej)
    return np.array(seeds, float).reshape(-1, fam.n + 2 * fam.N)


def all_pair_seeds(fam, step):
    return ref_chord_seeds(fam, fiber_critical_set(fam, step), step)


def test_newton_matches_full_batch_reference():
    """The Newton that drops stuck rows gives the full-batch result bit
    for bit, on fiber seeds with many stuck rows and on chord seeds,
    while evaluating F on fewer rows."""
    cases = []
    for text, step in ((SMALL_TAIL, 0.5), (TWO_FIBER, 0.2)):
        fam = parse_gf_file(text)
        for Xs, Es in _fiber_seeds(fam, step):
            cases.append((lambda P, Xs=Xs, fam=fam: fam.grad_eta(Xs, P),
                          lambda P, rows, Xs=Xs, fam=fam:
                          fam.grad_eta(Xs[rows], P), Es, 60))
    for fam, step in ((stacked_pair_family(), 0.1), (fish_family(), 0.05),
                      (spin(unknot_family()), 0.1)):
        cases.append((lambda P, fam=fam: _diff_gradient(fam, P),
                      lambda P, rows, fam=fam: _diff_gradient(fam, P),
                      all_pair_seeds(fam, step), 80))
    full_rows, live_rows = [0], [0]
    saw_stuck = False
    for F_full, F_live, P, iters in cases:
        def count_full(P, F=F_full):
            full_rows[0] += len(P)
            return F(P)

        def count_live(P, rows, F=F_live):
            live_rows[0] += len(P)
            return F(P, rows)

        want = ref_full_newton(count_full, P, iters)
        got = _newton(count_live, P, iters)
        for a, b in zip(got, want):
            assert _same(a, b)
        saw_stuck |= bool(want[2].any())
    assert saw_stuck
    assert live_rows[0] < full_rows[0]


def per_probe_newton(F, P, iters):
    """_newton with one F call for the residual and one per probe
    (ref_fd_jacobian), as it was before the probes were stacked."""
    P = np.array(P, float)
    live = np.arange(len(P))
    for _ in range(iters):
        if not len(live):
            break
        Q = P[live]
        res = F(Q, live)
        if np.max(np.abs(res)) < 1e-12:
            break
        jac = ref_fd_jacobian(lambda Q: F(Q, live), Q, 1e-6)
        move = ~(np.abs(np.linalg.det(jac)) <= 1e-14)
        step = np.zeros_like(Q)
        step[move] = np.linalg.solve(jac[move], res[move][..., None])[..., 0]
        P[live] = Q - np.clip(step, -0.5, 0.5)
        live = live[move]
    F(P, np.arange(len(P)))
    return P


def test_newton_calls_F_once_per_step():
    """One F call per iteration, on the live rows stacked over their
    2k probes, and one on every row for the accept test: the fish's
    chord seeds run to the 80-iteration cap in 81 calls, not 561, on
    the rows one call per probe evaluated, to the same points."""
    def spy(fam, calls):
        def F(P, rows):
            assert len(P) == len(rows)
            calls.append(len(P))
            return _diff_gradient(fam, P)
        return F

    fam = fish_family()
    seeds = all_pair_seeds(fam, 0.05)
    k = len(seeds[0])
    calls, per_probe = [], []
    got = _newton(spy(fam, calls), seeds, 80)[0]
    want = per_probe_newton(spy(fam, per_probe), seeds, 80)
    assert _same(got, want)
    assert (len(calls), len(per_probe)) == (81, 561)
    assert sum(calls) == sum(per_probe)
    assert calls[-1] == len(seeds)
    assert all(m % (2 * k + 1) == 0 for m in calls[:-1])
    # a batch that converges: the last step's call finds max |F| small
    # and ends the loop
    fam, calls = unknot_family(), []
    _, accept, _ = _newton(spy(fam, calls), all_pair_seeds(fam, 0.1), 80)
    assert accept.any() and len(calls) < 81


def mixed_chord_map(fams, label):
    """The chord map of family fams[label[r]] on batch row r: each family
    maps its own rows, so the map stays row-wise."""
    def F(P, rows):
        out = np.empty_like(P)
        for f, fam in enumerate(fams):
            on = label[rows] == f
            out[on] = _diff_gradient(fam, P[on])
        return out
    return F


def test_grouped_newton_matches_one_call_per_group():
    """Groups in one _newton call each stop on their own, so every row
    ends where a call on its group alone leaves it, bit for bit: a group
    at its roots, which stops on the first step, and three with stuck
    rows, the unknot's converging in a few steps and the fish's running
    to the 80-step cap."""
    fams = [unknot_family(), fish_family(), stacked_pair_family()]
    unknot = all_pair_seeds(fams[0], 0.1)
    roots, ok, stuck = _newton(lambda P, rows: _diff_gradient(fams[0], P),
                               unknot, 80)
    groups = [(0, roots[ok & ~stuck]), (0, unknot),
              (1, all_pair_seeds(fams[1], 0.05)),
              (2, all_pair_seeds(fams[2], 0.1))]
    sizes = [len(seeds) for _, seeds in groups]
    label = np.repeat([f for f, _ in groups], sizes)
    starts = np.cumsum([0] + sizes[:-1])
    got = _newton(mixed_chord_map(fams, label),
                  np.concatenate([seeds for _, seeds in groups]), 80, starts)
    calls, stuck = [], []
    for lo, (f, seeds) in zip(starts, groups):
        count = []

        def alone(P, rows, fam=fams[f]):
            count.append(len(P))
            return _diff_gradient(fam, P)

        want = _newton(alone, seeds, 80)
        for a, b in zip(got, want):
            assert _same(a[lo:lo + len(seeds)], b)
        calls.append(len(count))
        stuck.append(bool(want[2].any()))
    # F calls alone, the accept test's included
    assert calls[0] == 2 and 2 < calls[1] < 81 and calls[2] == 81 \
        and calls[3] < 81
    assert stuck == [False, True, True, True]


# --- 1x1 steps by division ---------------------------------------------

def ref_newton(F, P, iters, starts=(0,), det=np.linalg.det):
    """_newton as it was, LAPACK solving every step, 1x1 systems too;
    the singularity test reads the determinants det gives, LAPACK's by
    default, which rounds a 1x1 determinant J through exp(log |J|)."""
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
        near = np.abs(res).max(axis=1) < 1e-12
        if near.all():
            break
        if len(starts) > 1 and near.any():
            going = np.zeros(len(starts), bool)
            going[np.searchsorted(starts, live[~near], "right") - 1] = True
            on = going[np.searchsorted(starts, live, "right") - 1]
            if not on.all():
                live, Q, res, jac = live[on], Q[on], res[on], jac[on]
        with np.errstate(invalid="ignore"):
            move = ~(np.abs(det(jac)) <= 1e-14)
        stuck[live[~move]] = True
        step = np.zeros_like(Q)
        step[move] = np.linalg.solve(jac[move], res[move][..., None])[..., 0]
        P[live] = Q - np.clip(step, -0.5, 0.5)
        live = live[move]
    accept = np.max(np.abs(F(P, np.arange(len(P)))), axis=1) < 1e-9
    return P, accept, stuck


def _same_bits(a, b):
    """The arrays hold the same bits: NaNs, their signs and payloads
    included."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == float:
        a, b = a.view(np.uint64), b.view(np.uint64)
    return a.shape == b.shape and np.array_equal(a, b)


def _ulps(x, count):
    """x and the count floats on each side of it, ascending."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


# The Jacobians of the spike systems: within 20 ulps of the singularity
# threshold 1e-14 on either sign, subnormal, zero, huge, infinite, NaN,
# and two plain ones; each meets each of the residuals.
SPIKE_JACOBIANS = (_ulps(1e-14, 20) + _ulps(-1e-14, 20)
                   + [5e-324, -1e-310, 2.2250738585072014e-308, 0.0, -0.0,
                      1e300, -1.7e308, np.inf, -np.inf, np.nan, 2.0, -3.5])
SPIKE_RESIDUALS = [1.0, -3.0, 1e300, 2e-12, np.inf, np.nan]


def one_by_one_systems(seed, smooth=300):
    """(F, P, starts) for Newton on 1x1 systems.  The first `smooth`
    rows solve a p^3 + c p = d, with coefficients over many scales, in
    30-odd groups of random sizes.  Each row after them is a spike
    system, a group of its own: F = b at p = 0, where it starts, and J p
    elsewhere, so its first Jacobian, from F(+-h) = +-h J, is J to an
    ulp, and its first residual is b."""
    rng = np.random.default_rng(seed)
    J, b = np.meshgrid(SPIKE_JACOBIANS, SPIKE_RESIDUALS)
    m = smooth + J.size
    J = np.concatenate([np.zeros(smooth), J.ravel()])
    b = np.concatenate([np.zeros(smooth), b.ravel()])

    def coefficients(lo):
        """Smooth rows' coefficients, of magnitudes 10^lo to 10^3."""
        return np.concatenate([rng.normal(size=smooth) * 10.0 ** rng.uniform(
            lo, 3, smooth), np.zeros(m - smooth)])

    a, c, d = coefficients(-3), coefficients(-6), coefficients(-3)

    def F(Q, rows):
        p = Q[:, 0]
        with np.errstate(all="ignore"):
            cubic = (a[rows] * p * p + c[rows]) * p - d[rows]
            spike = np.where(p == 0.0, b[rows], p * J[rows])
        return np.where(rows < smooth, cubic, spike)[:, None]

    P = np.concatenate([rng.normal(size=smooth) * 3.0, np.zeros(m - smooth)])
    cuts = rng.choice(np.arange(1, smooth), 30, replace=False)
    starts = np.concatenate([[0], np.sort(cuts), np.arange(smooth, m)])
    return F, P[:, None], starts


@pytest.mark.parametrize("seed", [3, 4])
def test_newton_divides_1x1_systems_as_lapack_solves(seed):
    """1x1 steps by division equal LAPACK's solves bit for bit, the
    stuck and accepted rows too, on systems whose Jacobians reach the
    singularity threshold, subnormal, huge, infinite and NaN ones
    included.  The singularity test reads the Jacobian itself: it parts
    from LAPACK's determinant only on the rows whose |J| and |det| fall
    on either side of 1e-14, each of which LAPACK alone calls stuck or
    _newton alone calls stuck."""
    F, P, starts = one_by_one_systems(seed)
    got = _newton(F, P, 60, starts)
    exact = ref_newton(F, P, 60, starts, det=lambda jac: jac[:, 0, 0])
    for a, b in zip(got, exact):
        assert _same_bits(a, b)
    _, jac = _fd_jacobian(lambda Q: F(Q, np.tile(np.arange(len(P)), 3)), P,
                          FD_STEP)
    with np.errstate(invalid="ignore"):
        straddle = (np.abs(jac[:, 0, 0]) <= 1e-14) \
            != (np.abs(np.linalg.det(jac)) <= 1e-14)
    lapack = ref_newton(F, P, 60, starts)
    for a, b in zip(got, lapack):
        assert _same_bits(a[~straddle], b[~straddle])
    assert straddle.any() and (got[2] != lapack[2])[straddle].all()
    assert got[1].any() and got[2].any() and not got[2].all()


def fiber_batches():
    """(F, seeds, starts) of every Newton call of the fiber solves of
    the built-in families (the saucer at step 0.1) and of the random
    N = 1 families."""
    cases = [(FAMILIES[name](), 0.1 if name == "saucer" else 0.05)
             for name in sorted(FAMILIES)]
    cases += [(fam, step) for fam, step in random_cases() if fam.N == 1]
    for fam, step in cases:
        for Xs, Es, starts in gfnum._batches(_fiber_seeds(fam, step)):
            yield (lambda P, rows, fam=fam, Xs=Xs: fam.grad_eta(Xs[rows], P),
                   Es, starts)


def test_fiber_newton_divides_as_lapack_solves():
    """Every N = 1 fiber solve's Newton, a 1x1 system per row, gives
    LAPACK's points, accepted and stuck rows bit for bit."""
    stuck = 0
    for F, Es, starts in fiber_batches():
        got = _newton(F, Es, 60, starts)
        for a, b in zip(got, ref_newton(F, Es, 60, starts)):
            assert _same_bits(a, b)
        stuck += int(got[2].sum())
    assert stuck


def polynomial_systems(k, seed, stuck):
    """(F, P, starts): 120 rows of A p + B p^3 = c in k unknowns, A near
    3 I, in three groups; with stuck, every third row's first equation
    is the constant -c_0, so its Jacobian has a zero row."""
    rng = np.random.default_rng(seed)
    m = 120
    A = 3.0 * np.eye(k) + rng.normal(size=(m, k, k))
    B, c = rng.normal(size=(m, k)), rng.normal(size=(m, k))
    if stuck:
        A[::3, 0] = 0.0
        B[::3, 0] = 0.0

    def F(Q, rows):
        return (A[rows] @ Q[..., None])[..., 0] + B[rows] * Q ** 3 - c[rows]

    return F, rng.normal(size=(m, k)), np.array([0, 40, 80])


def test_newton_on_larger_systems_keeps_lapack_steps():
    """k = 2, 3 and 4 systems still solve by LAPACK, with every row
    moving or some stuck: random polynomial systems, the N = 2 fiber
    solves, and the chord seeds of the unknot, the fish and the
    saucer."""
    cases = [polynomial_systems(k, k, stuck) + (40,)
             for k in (2, 3, 4) for stuck in (False, True)]
    for text, step in ((TWO_FIBER, 0.2), (SMALL_TAIL, 0.5)):
        fam = parse_gf_file(text)
        for Xs, Es, starts in gfnum._batches(_fiber_seeds(fam, step)):
            cases.append((lambda P, rows, fam=fam, Xs=Xs:
                          fam.grad_eta(Xs[rows], P), Es, starts, 60))
    for fam, step in ((unknot_family(), 0.1), (fish_family(), 0.05),
                      (spin(unknot_family()), 0.2)):
        cases.append((lambda P, rows, fam=fam: _diff_gradient(fam, P),
                      all_pair_seeds(fam, step), (0,), 80))
    kinds = set()
    for F, P, starts, iters in cases:
        got = _newton(F, P, iters, starts)
        for a, b in zip(got, ref_newton(F, P, iters, starts)):
            assert _same_bits(a, b)
        kinds.add((P.shape[1], bool(got[2].any())))
    assert kinds == {(k, stuck) for k in (2, 3, 4) for stuck in (False, True)}


def test_fiber_solve_polishes_whole_chunks_in_bounded_batches(monkeypatch):
    """A Newton batch of the fiber solve closes once it holds
    FIBER_BATCH_ROWS seed rows: the saucer's 12 scan chunks at the
    default step are polished in one _newton call, and each of the
    small-tail gf-file's chunks at step 0.1 (139k rows in all) in a call
    of its own, so no call there is larger than its largest chunk."""
    def chunk(m):
        return np.zeros((m, 1)), np.zeros((m, 1))

    bound = gfnum.FIBER_BATCH_ROWS
    sizes = [bound // 2, bound // 4, bound // 2, bound + 1, 3, 2]
    batches = list(gfnum._batches(map(chunk, sizes)))
    assert [(len(Xs), list(starts)) for Xs, _, starts in batches] == [
        (sum(sizes[:3]), [0, sizes[0], sizes[0] + sizes[1]]),
        (bound + 1, [0]), (5, [0, 3])]
    calls = []
    newton = gfnum._newton

    def spy(F, P, iters, starts=(0,)):
        calls.append((len(P), len(starts)))
        return newton(F, P, iters, starts)

    monkeypatch.setattr(gfnum, "_newton", spy)
    fam = FAMILIES["saucer"]()
    gfnum._solve_fiber(fam, 0.05)
    assert calls == [(2502, 12)]
    calls.clear()
    fam = parse_gf_file(SMALL_TAIL)
    chunks = [len(Xs) for Xs, _ in _fiber_seeds(fam, 0.1)]
    gfnum._solve_fiber(fam, 0.1)
    assert sum(chunks) == 139347 and len(chunks) == 10
    assert calls == [(m, 1) for m in chunks]


def test_each_fiber_solve_is_one_fiber_critical_set_call(monkeypatch):
    """reeb_chords and each slice of the filling's search solve the
    fiber through one call of the public fiber_critical_set, so a
    wrapper of it sees every fiber solve; the filling's margins read
    the rows of those calls."""
    solved, measured = [], []
    solve, margin = gfnum.fiber_critical_set, gfnum.fiber_regularity_margin

    def spy_solve(fam, step):
        solved.append(fam)
        return solve(fam, step)

    def spy_margin(fam, rows):
        measured.append(fam)
        return margin(fam, rows)

    monkeypatch.setattr(gfnum, "fiber_critical_set", spy_solve)
    monkeypatch.setattr(gfnum, "fiber_regularity_margin", spy_margin)
    for name, step in (("fish", 0.05), ("saucer", 0.1)):
        fam = FAMILIES[name]()
        solved.clear()
        assert reeb_chords(fam, step)[0]
        assert solved == [fam]
    solved.clear()
    gfnum.immersed_filling_family(unknot_family())
    # one slice per sampled time, each solved once
    assert len(solved) == 9 == len(set(map(id, solved)))
    assert measured == solved


# --- row-wise maps and the stacked Jacobian -----------------------------

# Every built-in family (the saucer at step 0.1) and both N = 2 gf-files,
# with the grid step of their chord and fiber point checks.
JACOBIAN_CASES = {**{name: (FAMILIES[name], 0.1 if name == "saucer"
                            else 0.05) for name in FAMILIES},
                  "gf-file N=2": FIBER_CASES["gf-file N=2"],
                  "gf-file N=2, small tail":
                  FIBER_CASES["gf-file N=2, small tail"]}


def random_rows(fam, seed):
    """(X, E): 200 rows drawn uniformly from the cube of half-side
    1.25 extent (core, collar and tail), and 200 straddling-grid rows."""
    rng = np.random.default_rng(seed)
    ext = 1.25 * fam.extent()
    P = rng.uniform(-ext, ext, size=(200, fam.n + fam.N))
    X, E = straddling_grid(fam, seed)
    pick = rng.choice(len(X), 200, replace=False)
    return (np.concatenate([P[:, :fam.n], X[pick]]),
            np.concatenate([P[:, fam.n:], E[pick]]))


@pytest.mark.parametrize("name", sorted(JACOBIAN_CASES))
def test_family_maps_are_row_wise(name):
    """Each row of tail_value, value, grad_x, grad_eta and gradient,
    computed as a batch of one, equals that row of the whole batch."""
    fam = JACOBIAN_CASES[name][0]()
    X, E = random_rows(fam, 11)
    maps = {"tail_value": lambda X, E: fam.tail_value(E),
            "value": fam.value, "grad_x": fam.grad_x,
            "grad_eta": fam.grad_eta,
            "gradient": lambda X, E: np.concatenate(fam.gradient(X, E),
                                                    axis=1)}
    for what, F in maps.items():
        full = F(X, E)
        for i in range(len(X)):
            assert _same(F(X[i:i + 1], E[i:i + 1]), full[i:i + 1]), \
                (what, X[i], E[i])


@functools.lru_cache(maxsize=None)
def chords_and_points(name):
    """The chord coordinates of reeb_chords and the fiber points, as
    rows, of a JACOBIAN_CASES family at its step."""
    make, step = JACOBIAN_CASES[name]
    fam = make()
    chords = np.array([[*c.coords[0], *c.coords[1], *c.coords[2]]
                       for c in reeb_chords(fam, step)[0]])
    points = fiber_critical_set(fam, step)
    return chords, points


@pytest.mark.parametrize("name", sorted(JACOBIAN_CASES))
def test_stacked_jacobian_matches_one_call_per_probe(name):
    """_fd_jacobian's residual and Jacobian, from one call on the stacked
    probes, equal F(P) and the Jacobian from one call per probe column,
    bit for bit: the difference gradient at every chord (all together
    and one at a time, as the Hessian takes them) and grad_eta at every
    fiber point."""
    fam = JACOBIAN_CASES[name][0]()
    chords, points = chords_and_points(name)
    # the linear family has neither
    assert (len(chords) > 0) == (len(points) > 0) == (name != "linear")
    n = fam.n

    def diff(P):
        return _diff_gradient(fam, P)

    def grad_eta(P):
        return fam.grad_eta(P[:, :n], P[:, n:])

    cases = [(diff, c[None], 1e-5) for c in chords]
    if name != "linear":
        cases += [(diff, chords, 1e-5), (grad_eta, points, FD_STEP)]
    for F, P, h in cases:
        res, jac = _fd_jacobian(F, P, h)
        assert _same(res, F(P))
        assert _same(jac, ref_fd_jacobian(F, P, h))


def test_hessian_and_margin_make_one_call_each(monkeypatch):
    """_diff_hessian calls _diff_gradient once, on 2k + 1 rows, and
    fiber_regularity_margin calls grad_eta once, on 2(n + N) + 1 rows
    per fiber point.  A chord search certifies its m clustered points
    with one _diff_gradient call on m (2k + 1) rows and one
    sym_eigenvalues call."""
    fam = stacked_pair_family()
    chords, _ = chords_and_points("stacked-pair")
    calls = []
    diff_gradient = gfnum._diff_gradient

    def spy_diff(fam, P):
        calls.append(len(P))
        return diff_gradient(fam, P)

    with monkeypatch.context() as m:
        m.setattr(gfnum, "_diff_gradient", spy_diff)
        gfnum._diff_hessian(fam, chords[0])
    assert calls == [2 * chords.shape[1] + 1]
    fam = parse_gf_file(TWO_FIBER)
    points = fiber_critical_set(fam, 0.2)
    calls = []
    grad_eta = fam.grad_eta

    def spy_grad_eta(X, E):
        calls.append(len(X))
        return grad_eta(X, E)

    monkeypatch.setattr(fam, "grad_eta", spy_grad_eta)
    assert gfnum.fiber_regularity_margin(fam, points) > 0
    assert calls == [(2 * (fam.n + fam.N) + 1) * len(points)]
    # one chord search: after its chord Newton, one _diff_gradient call
    # on the m (2k + 1) probe rows of its m clustered points' Hessians,
    # and one sym_eigenvalues call on the (m, k, k) stack
    fam = stacked_pair_family()
    calls, spectra = [], []
    newton = gfnum._newton
    eigenvalues = gfnum.sym_eigenvalues

    def spy_newton(*args):
        out = newton(*args)
        calls.append("newton")
        return out

    def spy_eigenvalues(mat):
        spectra.append(np.shape(mat))
        return eigenvalues(mat)

    monkeypatch.setattr(gfnum, "_diff_gradient", spy_diff)
    monkeypatch.setattr(gfnum, "_newton", spy_newton)
    monkeypatch.setattr(gfnum, "sym_eigenvalues", spy_eigenvalues)
    chords = reeb_chords(fam, 0.05)[0]
    # six chords and their mirror images
    m, k = 2 * len(chords), fam.n + 2 * fam.N
    assert m == 12
    # the fiber solve's Newton runs first, the chord Newton last
    assert calls[len(calls) - calls[::-1].index("newton"):] \
        == [m * (2 * k + 1)]
    assert spectra == [(m, k, k)]


@pytest.mark.parametrize("name", sorted(FAMILIES) + ["gf-file N=2"])
def test_diff_gradient_is_two_gradient_calls(name):
    """Both sheets in one gradient call give what one call per sheet
    gives, bit for bit."""
    fam = (FAMILIES[name]() if name in FAMILIES
           else parse_gf_file(TWO_FIBER))
    n, N = fam.n, fam.N
    X, E = straddling_grid(fam)
    E2 = E[np.random.default_rng(5).permutation(len(E))]
    P = np.concatenate([X, E, E2], axis=1)
    gx1, ge1 = fam.gradient(P[:, :n], P[:, n:n + N])
    gx2, ge2 = fam.gradient(P[:, :n], P[:, n + N:])
    want = np.concatenate([gx2 - gx1, -ge1, ge2], axis=1)
    assert _same(_diff_gradient(fam, P), want)


# --- chord seeds from slope sign changes --------------------------------

def _chord_outcome(fam, step):
    """reeb_chords' answer, or the kind of its refusal: the first two
    words of the DomainError, whose numbers must print as plain
    floats."""
    try:
        return reeb_chords(fam, step)
    except DomainError as err:
        assert "np.float64" not in str(err)
        return " ".join(str(err).split()[:2])


def check_against_all_pairs(fam, step, monkeypatch):
    """reeb_chords gives the chords, indices, gamma and report that it
    gives seeded with every pair of branches and no work cap, or the
    same kind of refusal; returns the outcome."""
    got = _chord_outcome(fam, step)
    with monkeypatch.context() as m:
        m.setattr(gfnum, "_chord_seeds", ref_chord_seeds)
        m.setattr(gfnum, "MAX_CHORD_WORK", math.inf)
        want = _chord_outcome(fam, step)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return got
    (chords, gamma, report), (ref, ref_gamma, ref_report) = got, want
    assert str(gamma) == str(ref_gamma) and len(chords) == len(ref)

    def flat(c):
        return np.array([*c.coords[0], *c.coords[1], *c.coords[2]])

    # chords of one value (a chord and its mirror image, say) may sort
    # either way, so each is matched to a reference chord: the same
    # index and value, and coordinates within the radius in which
    # reeb_chords takes two points for one
    left = list(ref)
    for c in chords:
        match = [r for r in left if r.index == c.index
                 and abs(r.value - c.value) < 1e-9
                 and np.abs(flat(r) - flat(c)).max() < 1e-5]
        assert match, c
        left.remove(match[0])
    loose = ("epsilon", "omega")
    assert {k: v for k, v in report.items() if k not in loose} \
        == {k: v for k, v in ref_report.items() if k not in loose}
    for k in loose:
        assert (report[k] is None) == (ref_report[k] is None)
        assert report[k] is None or abs(report[k] - ref_report[k]) < 1e-9
    return got


CHORD_CASES = ([(name, step) for name in sorted(FAMILIES)
                for step in ((0.2, 0.1) if name == "saucer"
                             else (0.2, 0.1, 0.05, 0.03))]
               + [("gf-file N=2", 0.1), ("gf-file N=2, small tail", 0.5)])


def ref_certify(fam, cluster):
    """reeb_chords' certification of its clustered points as it was:
    one value, one Hessian and one eigenvalue call per point, in order,
    raising on the first degenerate one."""
    n, N = fam.n, fam.N
    points = []
    for pt in cluster:
        value = float(_diff_value(fam, pt[None, :])[0])
        hess = _fd_jacobian(lambda P: _diff_gradient(fam, P), pt[None],
                            1e-5)[1][0]
        eigs = sym_eigenvalues((hess + hess.T) / 2.0)
        margin = min(abs(v) for v in eigs)
        coords = (tuple(pt[:n].tolist()), tuple(pt[n:n + N].tolist()),
                  tuple(pt[n + N:].tolist()))
        if margin < CHORD_MARGIN_TOL:
            raise DomainError(
                f"degenerate critical point at {coords}: min |eigenvalue| "
                f"{margin:.3e}")
        index = sum(1 for v in eigs if v < 0)
        points.append(CriticalPoint(coords, value, index, margin, N))
    return points


def _certified(fam, step, monkeypatch):
    """(cluster, points): the clustered points of reeb_chords(fam, step)
    and the CriticalPoints it certifies from them, or the text of its
    refusal for the points; (None, []) without a point to certify."""
    seen = {"cluster": None, "points": []}
    cluster, audit = gfnum._cluster, gfnum._audit_duality

    def spy_cluster(pts):
        seen["cluster"] = cluster(pts)
        return seen["cluster"]

    def spy_audit(points, n, N):
        seen["points"] = points
        return audit(points, n, N)

    with monkeypatch.context() as m:
        m.setattr(gfnum, "_cluster", spy_cluster)
        m.setattr(gfnum, "_audit_duality", spy_audit)
        try:
            reeb_chords(fam, step)
        except DomainError as err:
            seen["points"] = str(err)
    return seen["cluster"], seen["points"]


CERTIFY_CASES = {**{name: (FAMILIES[name], 0.1 if name == "saucer"
                           else 0.05) for name in FAMILIES},
                 "gf-file N=2": FIBER_CASES["gf-file N=2"],
                 "aligned cusps": (aligned_stacked_pair, 0.05)}


def test_stacked_certification_matches_per_point_loop(monkeypatch):
    """The CriticalPoints of one stacked certification pass are those
    of the per-point loop, in the same order, their values and margins
    bit for bit, or its refusal, on every built-in family, the N = 2
    gf-file, the stacked pair with aligned cusps and the first twenty
    random families."""
    cases = [(make(), step) for make, step in CERTIFY_CASES.values()]
    cases += random_cases()[:20]
    refused = certified = 0
    for fam, step in cases:
        cluster, got = _certified(fam, step, monkeypatch)
        if cluster is None:
            assert got == []
            continue
        try:
            want = ref_certify(fam, cluster)
        except DomainError as err:
            assert got == str(err)
            refused += 1
            continue
        assert [p.coords for p in got] == [p.coords for p in want]
        for p, q in zip(got, want):
            assert (p.index, p.N) == (q.index, q.N)
            assert type(p.value) is type(q.value) is float
            assert _same(p.value, q.value)
            assert _same(p.min_abs_hessian_eigenvalue,
                         q.min_abs_hessian_eigenvalue)
        certified += len(got)
    assert refused and certified


@pytest.mark.parametrize("name,step", CHORD_CASES)
def test_chords_match_all_pair_seeds(name, step, monkeypatch):
    fam = (FAMILIES[name] if name in FAMILIES else FIBER_CASES[name][0])()
    check_against_all_pairs(fam, step, monkeypatch)


def test_aligned_cusps_stay_refused_as_degenerate(monkeypatch):
    fam = aligned_stacked_pair()
    assert check_against_all_pairs(fam, 0.05, monkeypatch) \
        == "degenerate critical"


@pytest.mark.parametrize("k", range(60))
def test_chords_match_all_pair_seeds_on_random_families(k, monkeypatch):
    fam, step = random_cases()[k]
    check_against_all_pairs(fam, step, monkeypatch)
