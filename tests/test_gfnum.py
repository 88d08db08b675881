import inspect
import math
import re

import numpy as np
import pytest

from legcob import gfnum
from legcob.errors import DomainError
from legcob.gfnum import (
    CHORD_ITERS, FAMILIES, MAX_CHORD_WORK, MAX_GRID_SAMPLES, CompositeFamily,
    GeneratingFamily, ImmersedFilling, _chord_seeds, embeddedness_check,
    fiber_critical_set, fiber_regularity_margin, fish_family, format_gf_file,
    immersed_filling_family, linear_family, parse_gf_file, reeb_chords,
    scaled_unknot_family, shifted_unknot_family, smoothstep, smoothstep_d,
    spin, stacked_pair_family, sym_eigenvalues, unknot_family)
from legcob.laurent import LaurentPoly
from legcob.mpoly import MultiPoly, parse_mpoly


def test_smoothstep_shape():
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(2.0) == 1.0
    us = np.linspace(-0.5, 1.5, 101)
    s = smoothstep(us)
    assert np.all(np.diff(s) >= 0)
    h = 1e-6
    fd = (smoothstep(us + h) - smoothstep(us - h)) / (2 * h)
    assert np.max(np.abs(fd - smoothstep_d(us))) < 1e-5


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 5, 6):
        for _ in range(8):
            a = rng.normal(size=(d, d))
            sym = (a + a.T) / 2
            got = sym_eigenvalues(sym)
            want = np.linalg.eigvalsh(sym)
            assert np.max(np.abs(np.array(got) - want)) < 1e-9


def test_family_validation():
    core = parse_mpoly("e1^3", ["x1", "e1"])
    with pytest.raises(DomainError):
        GeneratingFamily(3, 1, core, [-1.0], 2.0)
    with pytest.raises(DomainError):
        GeneratingFamily(1, 1, core, [0.0], 2.0)
    with pytest.raises(DomainError):
        GeneratingFamily(1, 1, core, [-1.0], -2.0)
    with pytest.raises(DomainError):
        GeneratingFamily(1, 2, core, [-1.0, 0.0], 2.0)


def sample_families():
    return [unknot_family(), scaled_unknot_family(),
            shifted_unknot_family(), stacked_pair_family(), fish_family()]


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for fam in sample_families() + [FAMILIES["saucer"]()]:
        m = 50
        X = rng.uniform(-fam.extent(), fam.extent(), (m, fam.n))
        E = rng.uniform(-fam.extent(), fam.extent(), (m, fam.N))
        for i in range(fam.n):
            dX = np.zeros_like(X)
            dX[:, i] = h
            fd = (fam.value(X + dX, E) - fam.value(X - dX, E)) / (2 * h)
            an = fam.grad_x(X, E)[:, i]
            rel = np.abs(fd - an) / np.maximum(1.0, np.abs(an))
            assert np.max(rel) < 1e-6
        for j in range(fam.N):
            dE = np.zeros_like(E)
            dE[:, j] = h
            fd = (fam.value(X, E + dE) - fam.value(X, E - dE)) / (2 * h)
            an = fam.grad_eta(X, E)[:, j]
            rel = np.abs(fd - an) / np.maximum(1.0, np.abs(an))
            assert np.max(rel) < 1e-6


def test_unknot_fiber_circle_and_front():
    fam = unknot_family()
    pts = fiber_critical_set(fam, step=0.05)
    assert pts.shape[0] > 0 and pts.shape[1] == 2
    X, E = pts[:, :1], pts[:, 1:]
    Z, P = fam.value(X, E), fam.grad_x(X, E)
    for (x, eta), z in zip(pts, Z):
        assert abs(x * x + eta * eta - 1.0) < 1e-6
        want_z = 2.0 * (1 - x * x) ** 1.5 * (1 if eta > 0 else -1)
        assert abs(z - want_z) < 1e-6
    # cusps: samples reach the fold points x = +-1
    assert np.abs(X).max() > 0.99
    # front consistency: central-difference dz/dx along each branch
    # (polishing eta at x +- h by fiber Newton) matches the slope p
    h = 1e-4
    for (x0, eta0), p in zip(pts[::7], P[::7, 0]):
        if abs(x0) > 0.9:
            continue
        zs = []
        for x in (x0 - h, x0 + h):
            eta = eta0
            for _ in range(40):
                X = np.array([[x]])
                E = np.array([[eta]])
                g = fam.grad_eta(X, E)[0, 0]
                if abs(g) < 1e-13:
                    break
                dg = (fam.grad_eta(X, E + 1e-7)[0, 0]
                      - fam.grad_eta(X, E - 1e-7)[0, 0]) / 2e-7
                eta -= g / dg
            zs.append(fam.value(np.array([[x]]), np.array([[eta]]))[0])
        slope = (zs[1] - zs[0]) / (2 * h)
        assert abs(slope - p) < 1e-5
    # regularity of the fiber derivative along the samples
    margin = fiber_regularity_margin(fam, pts[::10])
    assert margin > 1e-3


def test_pure_linear_family():
    lin = linear_family()
    assert fiber_critical_set(lin, step=0.2).shape == (0, 2)
    chords, gamma, _ = reeb_chords(lin, step=0.2)
    assert chords == [] and gamma.is_zero()


def test_fish_root_counts():
    pts = fiber_critical_set(fish_family(), step=0.02)
    counts = {}
    for x, eta in pts.tolist():
        if abs(eta) <= 1.5:
            counts.setdefault(round(x, 4), 0)
            counts[round(x, 4)] += 1
    assert counts[0.0] == 3
    assert counts[1.0] == 1
    wedge = [x for x, c in counts.items() if c == 3]
    lim = 4.0 / (3.0 * math.sqrt(6.0))
    assert abs(max(wedge) - lim) < 0.03 and abs(min(wedge) + lim) < 0.03


def test_unknot_single_chord():
    chords, gamma, report = reeb_chords(unknot_family(), step=0.05)
    assert len(chords) == 1
    p = chords[0]
    assert abs(p.value - 4.0) < 1e-6
    assert p.index == 3 and p.degree == 1
    assert p.min_abs_hessian_eigenvalue > 1.0
    x, eta, eta2 = p.coords
    assert abs(x[0]) < 1e-6
    assert abs(eta[0] + 1.0) < 1e-6 and abs(eta2[0] - 1.0) < 1e-6
    assert gamma == LaurentPoly({1: 1})
    assert report["count"] == 1 and not report["chain_level_only"]
    assert abs(report["epsilon"] - 2.0) < 1e-6
    assert abs(report["omega"] - 8.0) < 1e-6


def _mirror_check(fam, chords, tol=1e-9):
    n, N = fam.n, fam.N
    for p in chords:
        x, eta, eta2 = p.coords
        pt = np.array([list(x) + list(eta2) + list(eta)])
        X = pt[:, :n]
        v = fam.value(X, pt[:, n + N:]) - fam.value(X, pt[:, n:n + N])
        assert abs(v[0] + p.value) < tol


def test_duality_pairing_across_families():
    # reeb_chords audits the full signed enumeration internally; here the
    # mirror value identity is re-checked directly on each positive chord.
    fams = [unknot_family(), scaled_unknot_family(), shifted_unknot_family(),
            stacked_pair_family()]
    for fam in fams:
        chords, _, _ = reeb_chords(fam, step=0.05)
        assert chords
        _mirror_check(fam, chords)
    saucer = FAMILIES["saucer"]()
    chords, _, _ = reeb_chords(saucer, step=0.1)
    assert chords
    _mirror_check(saucer, chords)


def test_stacked_pair_enumeration():
    chords, gamma, report = reeb_chords(stacked_pair_family(), step=0.05)
    values = [round(p.value, 6) for p in chords]
    assert values == [4.0, 8.0, 5189.0, 5193.0, 5197.0, 5201.0]
    assert [p.index for p in chords] == [3, 3, 0, 1, 2, 3]
    # the two self chords land in degree 1, and so does the tallest
    # mixed chord (it is a local max of the difference function), so
    # the chain-level t^1 count is 3
    assert gamma.coeff(1) == 3
    assert gamma == LaurentPoly({1: 3, 0: 1, -1: 1, -2: 1})
    assert report["chain_level_only"]
    assert any("chain-level" in w for w in report["warnings"])


FINE_STEPS = (0.2, 0.1, 0.05, 0.03)


@pytest.mark.parametrize("make,steps,values", [
    pytest.param(unknot_family, FINE_STEPS, [4.0], id="unknot_family"),
    pytest.param(scaled_unknot_family, FINE_STEPS, [8.0],
                 id="scaled_unknot_family"),
    pytest.param(shifted_unknot_family, FINE_STEPS, [4.0],
                 id="shifted_unknot_family"),
    pytest.param(fish_family, FINE_STEPS,
                 [23.625178, 23.808958, 23.976938], id="fish_family"),
    pytest.param(stacked_pair_family, FINE_STEPS,
                 [4.0, 8.0, 5189.0, 5193.0, 5197.0, 5201.0],
                 id="stacked_pair_family"),
    # the grid cap admits the saucer's three axes down to step 0.039
    pytest.param(FAMILIES["saucer"], (0.2, 0.1), [4.0], id="saucer")])
def test_chords_do_not_depend_on_grid_step(make, steps, values):
    fam = make()
    runs = []
    for step in steps:
        chords, gamma, report = reeb_chords(fam, step=step)
        runs.append((report["count"], [p.index for p in chords], gamma,
                     [p.value for p in chords]))
    count, indices, gamma, first = runs[0]
    assert count == len(values)
    assert np.allclose(first, values, rtol=0, atol=1e-6)
    for other in runs[1:]:
        assert other[:3] == (count, indices, gamma)
        assert np.allclose(other[3], first, rtol=0, atol=1e-6)


# Newton seed rows of reeb_chords at the default step: the pairs of
# branches whose slopes cross over a grid cell, with every pair at the
# cells around a cusp.
CHORD_SEED_ROWS = {"unknot": 8, "scaled-unknot": 8, "shifted-unknot": 8,
                   "linear": 0, "fish": 44, "stacked-pair": 56,
                   "saucer": 316}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_chord_seed_rows_per_family(name):
    fam = FAMILIES[name]()
    seeds = _chord_seeds(fam, fiber_critical_set(fam, 0.05), 0.05)
    assert seeds.shape == (CHORD_SEED_ROWS[name], fam.n + 2 * fam.N)


# An n = 2 family whose chord search, had it run, would meet a
# degenerate critical point
DEGENERATE_N2 = "n=2\nN=1\ncore=e1^3 - 3*x1^2*e1 + x2^2*e1\ntail=e1\nR=3\n"


def test_chord_work_cap():
    # the saucer at the finest step the grid cap admits fits the cap
    saucer = FAMILIES["saucer"]()
    seeds = _chord_seeds(saucer, fiber_critical_set(saucer, 0.039), 0.039)
    assert len(seeds) * (2 * seeds.shape[1] + 1) * CHORD_ITERS \
        <= MAX_CHORD_WORK
    # the degenerate family's 8,508 seeds at step 0.2 do not
    with pytest.raises(DomainError, match="chord search too large") as err:
        reeb_chords(parse_gf_file(DEGENERATE_N2), step=0.2)
    assert "8508 seeds x 9 probes x 80 Newton steps" in str(err.value)


def test_fiber_solve_rejects_stalled_rows():
    # rows that stall on a singular Jacobian at the fold points are
    # dropped, which fixes the sample count
    assert len(fiber_critical_set(stacked_pair_family(), 0.05)) == 176


def aligned_stacked_pair():
    """stacked_pair_family with its second copy not widened: its cusps
    sit at x = +-1, vertically aligned with the first copy's."""
    high = parse_mpoly("6*e1 - 6*x1^2*e1 - 2*e1^3 + 5", ["x1", "e1"])
    return CompositeFamily(
        [stacked_pair_family().parts[0][0],
         GeneratingFamily(1, 1, high, [-400.0], 3.0)], [(-6.5,), (6.5,)])


def test_stacked_aligned_cusps_degenerate():
    fam = aligned_stacked_pair()
    with pytest.raises(DomainError, match="degenerate critical point") as err:
        reeb_chords(fam, step=0.05)
    # the point's coordinates print as plain floats
    num = r"-?[\d.]+(e[-+]\d+)?"
    assert re.search(rf"at \(\({num},\), \({num},\), \({num},\)\): ",
                     str(err.value))


def test_composite_validation():
    u = unknot_family()
    other = GeneratingFamily(1, 1, u.core, [-100.0], 3.0)
    with pytest.raises(DomainError, match="share"):
        CompositeFamily([u, other], [(-6.5,), (6.5,)])
    u2 = unknot_family()
    with pytest.raises(DomainError, match="supports overlap"):
        CompositeFamily([u, u2], [(-3.0,), (3.0,)])


def test_spin_saucer():
    saucer = FAMILIES["saucer"]()
    assert saucer.n == 2 and saucer.N == 1
    pts = fiber_critical_set(saucer, step=0.1)
    assert np.abs((pts ** 2).sum(axis=1) - 1.0).max() < 1e-6
    # theta-slice front equals the rotated 1-d front
    slice_pts = pts[np.abs(pts[:, 1]) < 1e-9]
    assert len(slice_pts)
    Z = saucer.value(slice_pts[:, :2], slice_pts[:, 2:])
    for (x, _, eta), z in zip(slice_pts, Z):
        want = 2.0 * (1 - x * x) ** 1.5 * (1 if eta > 0 else -1)
        assert abs(z - want) < 1e-6
    chords, gamma, _ = reeb_chords(saucer, step=0.1)
    assert len(chords) == 1
    p = chords[0]
    assert abs(p.value - 4.0) < 1e-6
    assert p.index == 4 == saucer.n + 2 * saucer.N
    assert math.hypot(*p.coords[0]) < 1e-6
    assert gamma == LaurentPoly({2: 1})


def test_composites_are_refused():
    pair = stacked_pair_family()
    tail = "needs a single-piece family; a composite has no single " \
        "polynomial core"
    with pytest.raises(DomainError, match=f"^spin {tail}$"):
        spin(pair)
    with pytest.raises(DomainError,
                       match=f"^the filling interpolation {tail}$"):
        immersed_filling_family(pair)


def test_constant_path_spin_evaluates_nothing(monkeypatch):
    # spinning rewrites the core: it evaluates the family nowhere
    calls = []
    value = GeneratingFamily.value
    monkeypatch.setattr(GeneratingFamily, "value",
                        lambda self, X, E: calls.append(len(X))
                        or value(self, X, E))
    spun = spin(unknot_family())
    assert calls == []
    assert spun.n == 2


def test_spin_rejects_odd_radial_terms():
    with pytest.raises(DomainError, match="θ-dependence near axis"):
        spin(fish_family())


def filling_value(fil, t, X, E):
    """The closed formula of the filling's slice t:
    t (sigma(t) f + (1 - sigma(t)) A(eta)) - eps(t) . eta."""
    fam = fil.family
    s = fil.sigma(t)
    base = t * (s * fam.value(X, E) + (1.0 - s) * fam.tail_value(E))
    return base - E @ np.asarray(fil.eps(t))


def test_filling_conditions_and_slice_scaling():
    fam = unknot_family()
    fil = immersed_filling_family(fam, t_plus=3.0)
    assert all(fil.report["conditions"].values())
    assert fil.t_minus == 1.0 and fil.t_plus == 3.0
    chords, _, _ = reeb_chords(fil.slice_family(3.0), step=0.05)
    assert len(chords) == 1
    assert abs(chords[0].value - 12.0) < 1e-6
    assert chords[0].index == 3
    rng = np.random.default_rng(5)
    for t in (0.4, 1.0, 1.5, 2.0, 2.6, 3.0, 3.5):
        X = rng.uniform(-6, 6, (30, 1))
        E = rng.uniform(-6, 6, (30, 1))
        dev = np.max(np.abs(fil.slice_family(t).value(X, E)
                            - filling_value(fil, t, X, E)))
        assert dev < 1e-9


def test_filling_conditions_read_the_slice_families(monkeypatch):
    # a slice family that drifts from t f above t_plus fails that
    # condition alone
    slice_family = ImmersedFilling.slice_family

    def drifted(self, t):
        sl = slice_family(self, t)
        if t < self.t_plus:
            return sl
        return GeneratingFamily(sl.n, sl.N, sl.core.scale(1.0 + 1e-6),
                                sl.tail, sl.R)

    monkeypatch.setattr(ImmersedFilling, "slice_family", drifted)
    conditions = immersed_filling_family(unknot_family()).report["conditions"]
    assert [name for name, good in conditions.items() if not good] \
        == ["scaled_family_above_t_plus"]


def test_filling_builds_each_slice_once(monkeypatch):
    """A filling builds its slice at a time once, keyed by float(t): the
    search's margins, the conditions and the embeddedness path read the
    same slices, each the one a fresh build gives."""
    built = []
    build = ImmersedFilling._slice

    def spy(self, t):
        built.append((id(self), float(t)))
        return build(self, t)

    monkeypatch.setattr(ImmersedFilling, "_slice", spy)
    fil = immersed_filling_family(unknot_family())
    mine = [t for who, t in built if who == id(fil)]
    assert len(mine) == 12
    embeddedness_check(fil.slice_family, 2.0, 3.0)
    assert len(built) == len(set(built))
    mine = [t for who, t in built if who == id(fil)]
    # gf-check --embedded's path: 9 times, each with its two neighbours
    # PATH_DT away but the ends' outer ones, less t_plus = 3, which the
    # conditions built
    assert len(mine) == 12 + 9 * 3 - 2 - 1
    assert fil.slice_family(np.float64(2.5)) is fil.slice_family(2.5)
    X, E = np.linspace(-7, 7, 15)[:, None], np.linspace(7, -7, 15)[:, None]
    for t in mine:
        assert np.array_equal(fil.slice_family(t).value(X, E),
                              build(fil, np.float64(t)).value(X, E))


def test_filling_draws_are_the_seeded_generator_stream():
    """Every try may take two draws (N <= 2), and the tuple is the
    stream of default_rng(0), whatever the draw size: N draws per try
    from the generator give what slicing the tuple gives."""
    draws = gfnum.FILLING_DRAWS
    assert len(draws) >= 2 * gfnum.FILLING_BUDGET
    assert draws == tuple(
        np.random.default_rng(0).normal(size=len(draws)).tolist())
    for N in (1, 2):
        rng = np.random.default_rng(0)
        for k in range(gfnum.FILLING_BUDGET):
            assert np.array_equal(rng.normal(size=N),
                                  np.array(draws[k * N:(k + 1) * N]))


def test_filling_linear_and_adversarial():
    lin = linear_family()
    assert all(immersed_filling_family(lin, t_plus=3.0)
               .report["conditions"].values())
    adv = GeneratingFamily(1, 1, parse_mpoly("e1^3", ["x1", "e1"]),
                           [-100.0], 2.0)
    fil = immersed_filling_family(adv, t_plus=3.0)
    assert all(fil.report["conditions"].values())
    assert fil.report["regularity_margin"] > 1e-6


def test_family_rejects_non_finite_radius():
    # a gf-file with R=nan used to reach numpy's arange and fail there
    core = parse_mpoly("3*e1 - 3*x1^2*e1 - e1^3", ["x1", "e1"])
    for R in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="cutoff radius"):
            GeneratingFamily(1, 1, core, [-30.0], R)


@pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
def test_gf_file_rejects_non_finite_coefficients(bad):
    # a nan core answered gf-check with every condition passing, a nan
    # tail, being truthy, gf-chords with no chords, and an overflowing
    # derivative gf-chords and gf-front with no chords
    for core, tail in ((f"{bad}*e1 + e1^3", "-5*e1"),
                       ("e1^3", f"{bad}*e1"),
                       # finite, but d/de1 of the core overflows to inf
                       ("1.5e308*e1^2 + e1^3", "-5*e1")):
        with pytest.raises(DomainError, match="must be finite"):
            parse_gf_file(f"n=1\nN=1\ncore={core}\ntail={tail}\nR=3\n")


def test_gf_file_rejects_cores_that_overflow_on_the_grid_box():
    # e1^100001 underflows its derivative to 0 near the root at
    # |e1| ~ 0.9999, and overflows beyond |e1| ~ 1.007: gf-front and
    # gf-chords answered count 0.  The box is [-2R, 2R]^(n+N)
    huge = "n=1\nN=1\ncore=3*e1 - 3*x1^2*e1 - e1^{}\ntail=-200*e1\nR={}\n"
    with pytest.raises(DomainError, match=r"grid box \[-6, 6\]\^2, got a "
                                          r"bound of inf"):
        parse_gf_file(huge.format(100001, 3))
    # 6^394 is finite, but d/de1's 394 * 6^393 is not; 393 * 6^392 is
    with pytest.raises(DomainError, match="first derivatives must be finite"):
        parse_gf_file(huge.format(394, 3))
    assert parse_gf_file(huge.format(393, 3)).R == 3.0
    # the same power on a smaller box stays finite
    assert parse_gf_file(huge.format(100001, 0.25)).R == 0.25


def test_spin_refuses_binomials_beyond_float():
    # C(1030, 515) exceeds the largest float; C(1029, 514) does not, but
    # from x1^2040 on a spun coefficient times its exponent does, so the
    # spun core's derivative is refused.  On the box [-0.5, 0.5]^2 the
    # powers themselves stay finite
    def family(k):
        return parse_gf_file(
            f"n=1\nN=1\ncore=x1^{k}*e1 + e1\ntail=-5*e1\nR=0.25\n")

    assert spin(family(2038)).n == 2
    for k in (2040, 2058):
        with pytest.raises(DomainError, match="first derivatives must be "
                                              "finite"):
            spin(family(k))
    with pytest.raises(DomainError, match="overflows a float"):
        spin(family(2060))


def test_grid_cap_admits_the_saucer_at_the_default_step():
    # the saucer's seed grid at step h has (12 / h + 1)^3 samples
    assert 241 ** 3 <= MAX_GRID_SAMPLES < 344 ** 3
    with pytest.raises(DomainError, match="too fine"):
        fiber_critical_set(FAMILIES["saucer"](), step=0.035)


def test_filling_rejects_small_t_plus():
    with pytest.raises(DomainError):
        immersed_filling_family(unknot_family(), t_plus=1.5)


def test_embeddedness_constant_path():
    fam = unknot_family()
    report = embeddedness_check(lambda t: fam, 1.0, 3.0)
    assert report["ok"]
    assert abs(report["h"] - 4.0) < 1e-6
    assert report["max_dt"] < 1e-6
    assert report["slowdown"] < 1e-6


def test_embeddedness_tilted_path():
    def path(t):
        core = parse_mpoly("3*e1 - 3*x1^2*e1 - e1^3", ["x1", "e1"]) \
            + MultiPoly(2, {(0, 1): 0.5 * (t - 1.0)})
        return GeneratingFamily(1, 1, core, [-200.0], 3.0)
    report = embeddedness_check(path, 1.0, 3.0)
    assert report["max_dt"] > 0.1
    assert report["slowdown"] > 0.0
    # slowdown below 1 certifies the path as-is
    assert report["ok"] == (report["slowdown"] < 1.0)


def test_embeddedness_slowdown_divides_by_the_path_minimum():
    """On a path whose chord shrinks, value 16/t on [1, 2], h is the
    chord at t = 2 and the slowdown max_t t |d_t delta| / h = 16 / 8,
    not the 16 / 16 of the smallest value seen by t = 1."""
    def path(t):
        core = parse_mpoly("3*e1 - 3*x1^2*e1 - e1^3", ["x1", "e1"])
        return GeneratingFamily(1, 1, core.scale(4.0 / t), [-400.0], 3.0)
    report = embeddedness_check(path, 1.0, 2.0)
    assert report["h"] == pytest.approx(8.0, rel=1e-6)
    assert report["slowdown"] == pytest.approx(2.0, rel=1e-3)
    assert not report["ok"]


def test_embeddedness_chord_death():
    def shrink(t):
        k = max(1.0 - 0.5 * (t - 1.0), 1e-4)
        core = parse_mpoly("3*e1 - 3*x1^2*e1 - e1^3",
                           ["x1", "e1"]).scale(k)
        return GeneratingFamily(1, 1, core, [-200.0], 3.0)
    with pytest.raises(DomainError, match="chord death along path"):
        embeddedness_check(shrink, 1.0, 3.0)
    with pytest.raises(DomainError, match="t_start must be positive"):
        embeddedness_check(lambda t: unknot_family(), 0.0, 1.0)


def test_gf_file_round_trip():
    # the spun file is what `gf-spin --out` writes
    for fam in (unknot_family(), spin(unknot_family())):
        text = format_gf_file(fam)
        assert sorted(line.partition("=")[0] for line in text.splitlines()) \
            == sorted(gfnum.GF_FIELDS)
        back = parse_gf_file(text)
        assert (back.n, back.N) == (fam.n, fam.N)
        assert back.core.terms == fam.core.terms
        assert back.tail == fam.tail and back.R == fam.R
    with pytest.raises(DomainError, match="missing field"):
        parse_gf_file("n=1\nN=1\ncore=e1^3\nR=2")
    with pytest.raises(DomainError, match="tail must be linear"):
        parse_gf_file("n=1\nN=1\ncore=e1^3\ntail=e1^2\nR=2")
    with pytest.raises(DomainError, match="bad gf-file line"):
        parse_gf_file("n=1\nN=1\nnonsense\ncore=e1^3\ntail=-e1\nR=2")


UNKNOT_GF = "n=1\nN=1\ncore=3*e1 - 3*x1^2*e1 - e1^3\ntail=-30*e1\nR=3\n"


@pytest.mark.parametrize("text, message", [
    (UNKNOT_GF + "N=1\n", "field N= given twice"),
    (UNKNOT_GF.replace("R=3", "R=3\nR=2"), "field R= given twice"),
    (UNKNOT_GF + "extra=1\n", "unknown gf-file field 'extra'"),
    (UNKNOT_GF.replace("R=3", "r=3"), "unknown gf-file field 'r'"),
    # [-2R, 2R] is [-inf, inf]: refused by its own rule, not as a nan bound
    (UNKNOT_GF.replace("R=3", "R=1e308"),
     r"leave the grid box \[-2R, 2R\] finite, got R = 1e\+308"),
    (UNKNOT_GF.replace("R=3", "R=9e307"), "leave the grid box"),
    # a finite box passes this rule, and meets the core's
    (UNKNOT_GF.replace("R=3", "R=8.9e307"), "first derivatives must be"),
])
def test_gf_file_refuses_repeated_and_unknown_keys_and_overflowing_R(
        text, message):
    with pytest.raises(DomainError, match=message):
        parse_gf_file(text)


def test_only_the_cli_settings_are_parameters():
    # every setting no caller changes is a literal or a module constant;
    # the three left are the CLI's --step (twice) and --t-plus
    defaulted = []
    for name, obj in vars(gfnum).items():
        if name.startswith("_") or getattr(obj, "__module__", "") \
                != gfnum.__name__ or not callable(obj):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{m}", f) for m, f in vars(obj).items()
                        if not m.startswith("_") and inspect.isfunction(f)]
        for qual, f in members:
            defaulted += [f"{qual}({p.name})" for p in
                          inspect.signature(f).parameters.values()
                          if p.default is not p.empty]
    assert sorted(defaulted) == ["fiber_critical_set(step)",
                                 "immersed_filling_family(t_plus)",
                                 "reeb_chords(step)"]
