"""Reference code for the rulings, kept to check the fast paths.

`ref_enumerate_rulings` is the first walker: it lists every normal
ruling by one recursion per event and sorts the list.
`ref_ruling_polynomial` is the polynomial summed over that list, which
`rulings.ruling_polynomial` now gets from one sweep of the word without
listing any ruling.  `ref_sweep` is that sweep as it stood alone, before
the polynomial and the listing came to share one sweep per diagram.
`ref_walk_rulings` is the second walker, which
lists in increasing order with no sort but walks every state it meets,
remembers those that gave no ruling, and walks each through branch to
its end at every switch; `rulings.enumerate_rulings` replaced it with a
walk over the sweep's live states.  On hypothesis fronts, graded and
ungraded, the sweep must give the reference polynomial, a listing cut
at `limit` must be the head of the reference list, and every listed
ruling must pass `validate_ruling`; on those fronts, the twist fronts
and the benchmark's ruling fronts the listing must equal the second
walker's, order included, at every limit, and the polynomial the
standalone sweep's.  A `leg rulings` command computes each transition
once, and lets the shared sweep go with its diagram.
"""

import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from legcob import rulings
from legcob.cli import main
from legcob.errors import DomainError
from legcob.front import classical_invariants, maslov_potential, parse_front
from legcob.laurent import LaurentPoly
from legcob.rulings import _transitions, enumerate_rulings, \
    ruling_polynomial, validate_ruling

TWISTS = ["L1 L2 " + "X3 " * k + "R2 R1" for k in range(16)]
# the ruling fronts of the exact_counts benchmark, as (word, graded):
# four twist fronts and the closures of braids on 4, 5 and 6 strands
BENCH_FRONTS = [
    ("L1 L2 " + "X3 " * 9 + "R2 R1", True),
    ("L1 L2 " + "X3 " * 13 + "R2 R1", False),
    ("L1 L2 " + "X3 " * 17 + "R2 R1", True),
    ("L1 L2 " + "X3 " * 21 + "R2 R1", False),
    ("L1 L2 L3 L4 X5 X7 X6 X5 X7 X6 X6 X5 X7 X6 X5 X7 X7 X6 X5 X6 X7 X5 "
     "R4 R3 R2 R1", False),
    ("L1 L2 L3 L4 L5 X6 X9 X7 X8 X6 X7 X9 X8 X7 X6 X8 X9 X7 X8 X6 X9 X7 "
     "X8 R5 R4 R3 R2 R1", True),
    ("L1 L2 L3 L4 L5 L6 X7 X11 X9 X8 X10 X7 X9 X11 X8 X10 X9 X7 X11 X8 "
     "X10 X9 X7 X11 R6 R5 R4 R3 R2 R1", False),
]
LIMITS = (0, 1, 3, 1000, None)


# --- reference: walk every ruling, then sort ---------------------------

def ref_enumerate_rulings(diagram, graded=False):
    """All normal rulings, as sorted tuples of switched event indices:
    one recursive walk branching at every crossing, then a sort."""
    mu = None
    if graded:
        if any(classical_invariants(diagram)["rotation"]):
            return []
        pot = maslov_potential(diagram)
        mu = {i: (pot.values[u], pot.values[l])
              for i, _, u, l in diagram.crossings}
    results = []
    events = diagram.events

    def walk(e, partner, switches):
        if e == len(events):
            results.append(tuple(switches))
            return
        kind, pos = events[e]
        p = pos - 1
        if kind == "L":
            def shift(j):
                return j if j < p else j + 2
            new = [None] * (len(partner) + 2)
            for j, q in enumerate(partner):
                new[shift(j)] = shift(q)
            new[p] = p + 1
            new[p + 1] = p
            walk(e + 1, new, switches)
        elif kind == "R":
            if partner[p] != p + 1:
                return
            def shift(j):
                return j if j < p else j - 2
            new = [shift(q) for j, q in enumerate(partner)
                   if j not in (p, p + 1)]
            walk(e + 1, new, switches)
        else:
            if partner[p] == p + 1:
                return  # mates may neither cross nor switch
            def tau(j):
                if j == p:
                    return p + 1
                if j == p + 1:
                    return p
                return j
            new = [None] * len(partner)
            for j, q in enumerate(partner):
                new[tau(j)] = tau(q)
            walk(e + 1, new, switches)
            if mu is not None and mu[e][0] != mu[e][1]:
                return
            a1, a2 = sorted((p, partner[p]))
            b1, b2 = sorted((p + 1, partner[p + 1]))
            if a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2:
                return  # interleaved eyes cannot switch
            switches.append(e)
            walk(e + 1, partner, switches)
            switches.pop()

    walk(0, [], [])
    results.sort()
    return results


# --- reference: the dead-set walk, in increasing order --------------------

def ref_walk_rulings(diagram, graded=False, limit=None):
    """The first `limit` normal rulings (all when None), in increasing
    order: the walk follows the strands and branches at every admissible
    switch, emitting the through branch's all-through completion first;
    an (event, pairing, tail out) state that gave no ruling is
    remembered and never walked again."""
    transition = _transitions(diagram, graded)
    if transition is None:
        return []
    seen = {}

    def step(e, partner):
        key = (e, partner)
        got = seen.get(key)
        if got is None:
            got = seen[key] = transition(e, partner)
        return got

    n = len(diagram.events)
    results = []
    dead = set()   # (event, pairing, tail out) states that gave nothing

    def through_to_end(e, partner):
        while partner is not None and e < n:
            partner = step(e, partner)[0]
            e += 1
        return partner is not None

    # a task lists the rulings that extend switches from state (e,
    # partner); with tail_out its all-through completion is already out
    stack = [(0, (), (), False)]
    while stack and (limit is None or len(results) < limit):
        task = stack.pop()
        if task[0] is None:  # a task's end: (None, key, rulings before)
            if len(results) == task[2]:
                dead.add(task[1])
            continue
        e, partner, switches, tail_out = task
        stack.append((None, (e, partner, tail_out), len(results)))
        while e < n:
            through, switch = step(e, partner)
            if through is None:
                break
            if switch is not None:
                if not tail_out and through_to_end(e + 1, through):
                    results.append(switches)
                    tail_out = True
                if (e + 1, through, True) not in dead:
                    stack.append((e + 1, through, switches, True))
                if (e + 1, switch, False) not in dead:
                    stack.append((e + 1, switch, switches + (e,), False))
                break
            partner, e = through, e + 1
        else:
            if not tail_out:
                results.append(switches)
    return results


# --- reference: the polynomial's own sweep --------------------------------

def ref_sweep(diagram, graded=False):
    """(polynomial, transitions computed): the sweep that carries each
    eye pairing with its ways per switch count, run on its own."""
    step = _transitions(diagram, graded)
    if step is None:
        return LaurentPoly(), 0
    states = {(): {0: 1}}  # pairing -> {switch count: ways}
    calls = 0
    for e in range(len(diagram.events)):
        reached = {}
        for partner, ways in states.items():
            calls += 1
            for new, shift in zip(step(e, partner), (0, 1)):
                if new is None:
                    continue
                merged = reached.setdefault(new, {})
                for k, c in ways.items():
                    merged[k + shift] = merged.get(k + shift, 0) + c
        states = reached
    return LaurentPoly({k - diagram.n_right + 1: c for k, c in
                        sorted(states.get((), {}).items())}), calls


def ref_ruling_polynomial(diagram, rulings):
    """Sum of t^(#switches - #right cusps + 1) over the listed rulings."""
    return LaurentPoly(Counter(len(sw) - diagram.n_right + 1
                               for sw in rulings))


# --- the checks ----------------------------------------------------------

@st.composite
def fronts(draw, max_strands=8):
    """A valid front word of up to about 40 events.  Most keep a pairing
    of the strands into eyes that goes through every crossing, so the
    front has at least one ruling; the others put events anywhere."""
    ruled = draw(st.integers(min_value=0, max_value=3)) > 0
    mate, events = [], []

    def add(kind, p):
        nonlocal mate
        events.append(f"{kind}{p + 1}")
        if kind == "L":
            mate = [q if q < p else q + 2 for q in mate]
            mate[p:p] = [p + 1, p]
        elif kind == "R":
            mate = [q if q < p else q - 2 for q in mate[:p] + mate[p + 2:]]
        else:
            swap = {p: p + 1, p + 1: p}
            mate = [swap.get(q, q) for q in mate]
            mate[p], mate[p + 1] = mate[p + 1], mate[p]

    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        s = len(mate)
        through = [p for p in range(s - 1) if not ruled or mate[p] != p + 1]
        closing = [p for p in range(s - 1) if not ruled or mate[p] == p + 1]
        kinds = (["L"] if s + 2 <= max_strands else []) \
            + (["X", "X"] if through else []) + (["R"] if closing else [])
        kind = draw(st.sampled_from(kinds))
        where = {"L": range(s + 1), "X": through, "R": closing}[kind]
        add(kind, draw(st.sampled_from(where)))
    while ruled and mate:
        # cross the closest pair of mates together, then close it
        i = min(range(len(mate)), key=lambda j: (abs(mate[j] - j), j))
        j = max(i, mate[i])
        add("X" if abs(mate[i] - i) > 1 else "R", j - 1)
    events += ["R1"] * (len(mate) // 2)
    return parse_front(" ".join(events))


def check_against_reference(d, graded, cut):
    ref = ref_enumerate_rulings(d, graded)
    assert ruling_polynomial(d, graded=graded) == ref_ruling_polynomial(d, ref)
    check_against_sweep(d, graded)
    assert enumerate_rulings(d, graded) == ref
    k = min(cut, len(ref) + 1)
    listed = enumerate_rulings(d, graded, limit=k)
    assert listed == ref[:k]
    assert all(validate_ruling(d, sw) for sw in listed)
    check_against_walk(d, graded)


def check_against_sweep(d, graded):
    assert repr(ruling_polynomial(d, graded=graded)) \
        == repr(ref_sweep(d, graded)[0])


def check_against_walk(d, graded):
    for limit in LIMITS:
        assert enumerate_rulings(d, graded, limit) \
            == ref_walk_rulings(d, graded, limit)


@settings(max_examples=200, deadline=None)
@given(fronts(), st.booleans(), st.integers(min_value=0, max_value=40))
def test_sweep_and_listing_match_reference(d, graded, cut):
    check_against_reference(d, graded, cut)


@pytest.mark.parametrize("graded", [False, True])
def test_twists_match_reference(graded):
    for word in TWISTS:
        for cut in (0, 1, 7, 100):
            check_against_reference(parse_front(word), graded, cut)


def test_wide_front_is_refused(monkeypatch):
    # a diagram keeps the sweep it passed and returns it as it is, so
    # each patched cap sweeps a fresh front
    word = "L1 L2 L3 " + "X4 X5 " * 3 + "R3 R2 R1"
    d = parse_front(word)
    want = ref_ruling_polynomial(d, ref_enumerate_rulings(d))
    assert ruling_polynomial(d) == want
    for cap, value, text in (("MAX_PAIRINGS", 2, "eye pairings after"),
                             ("MAX_SWEEP_WORK", 20, "pairings carried by")):
        with monkeypatch.context() as m:
            m.setattr(rulings, cap, value)
            fresh = parse_front(word)
            with pytest.raises(DomainError, match=text):
                ruling_polynomial(fresh)
            with pytest.raises(DomainError, match=text):
                enumerate_rulings(fresh, limit=1)
            assert ruling_polynomial(d) == want


@pytest.mark.parametrize("word,graded", BENCH_FRONTS)
def test_bench_fronts_match_walk(word, graded):
    d = parse_front(word)
    check_against_walk(d, graded)
    check_against_walk(d, not graded)
    check_against_sweep(d, graded)
    check_against_sweep(d, not graded)
    assert len(enumerate_rulings(d, graded)) \
        == ruling_polynomial(d, graded=graded).total_count()


def test_listing_refuses_what_the_sweep_refuses():
    """The listing runs the polynomial's sweep first, so a front too wide
    for it is refused by the same DomainError (the walk it replaced
    listed such a front's first rulings)."""
    d = parse_front(" ".join([f"L{t}" for t in range(1, 11)]
                             + [f"X{10 + i}" for i in range(1, 10)] * 2
                             + [f"R{t}" for t in range(10, 0, -1)]))
    with pytest.raises(DomainError, match="eye pairings after") as sweep:
        ruling_polynomial(d)
    for limit in (1, 1000, None):
        with pytest.raises(DomainError) as listing:
            enumerate_rulings(d, limit=limit)
        assert str(listing.value) == str(sweep.value)


def test_rulings_command_sweeps_once(monkeypatch, capsys):
    """One `leg rulings` run on each benchmark front computes each
    transition once, for the polynomial and the listing alike (7,843
    calls, where a sweep apiece made 15,686), and its diagram, which
    holds the sweep, is let go with the command."""
    calls = Counter()
    seen = []

    def counting(diagram, graded):
        step = _transitions(diagram, graded)
        seen.append(weakref.ref(diagram))

        def spy(e, partner):
            calls[diagram.word, graded] += 1
            return step(e, partner)
        return step and spy

    monkeypatch.setattr(rulings, "_transitions", counting)
    for word, graded in BENCH_FRONTS:
        argv = ["rulings", "--front", word, "--json"]
        assert main(argv + ["--graded"] * graded) == 0
        capsys.readouterr()
        d = parse_front(word)
        assert calls[d.word, graded] == ref_sweep(d, graded)[1]
    assert sum(calls.values()) == 7843
    assert len(seen) == len(BENCH_FRONTS)
    assert all(ref() is None for ref in seen)
