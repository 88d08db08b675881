"""Reference code for the rulings, kept to check the fast paths.

`ref_enumerate_rulings` is the first walker: it lists every normal
ruling by one recursion per event and sorts the list.
`ref_ruling_polynomial` is the polynomial summed over that list, which
`rulings.ruling_polynomial` now gets from one sweep of the word without
listing any ruling.  `ref_sweep` is that sweep as it stood alone, before
the polynomial and the listing came to share one sweep per diagram, and
`ref_one_ended_sweep` the shared sweep as it ran from the start of the
word alone, before it ran from both ends: the two-ended sweep must keep
its live states and ends, and carry no more than twice its widest.
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


def ref_one_ended_sweep(diagram, graded=False):
    """(live, ends, widest): the shared sweep run from the start of the
    word alone.  A forward pass keeps each event's (through, switch)
    table and each pairing's {switch count: ways}; ends is that map past
    the last event.  A backward pass over the tables keeps in live[e]
    each pairing reached before event e whose completions reach the end,
    with (through, live switch or None, through is straight, through is
    rich).  widest is the most pairings carried past one event."""
    step = _transitions(diagram, graded)
    tables, states, widest = [], {(): {0: 1}} if step else {}, 0
    for e in range(len(diagram.events)):
        table, reached = {}, {}
        for partner, ways in states.items():
            table[partner] = pair = step(e, partner)
            for new, shift in zip(pair, (0, 1)):
                if new is None:
                    continue
                merged = reached.setdefault(new, {})
                for k, c in ways.items():
                    merged[k + shift] = merged.get(k + shift, 0) + c
        widest = max(widest, len(reached))
        tables.append(table)
        states = reached
    straight, rich = set(states), set()
    live = [None] * len(tables)
    for e in reversed(range(len(tables))):
        row, now_straight, now_rich = {}, set(), set()
        for partner, (through, switch) in tables.pop().items():
            t_straight, t_rich = through in straight, through in rich
            if switch not in straight and switch not in rich:
                switch = None
            if t_straight:
                now_straight.add(partner)
            if t_rich or switch is not None:
                now_rich.add(partner)
            if t_straight or t_rich or switch is not None:
                row[partner] = (through, switch, t_straight, t_rich)
        live[e] = row
        straight, rich = now_straight, now_rich
    return live, states, widest


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


def sweep_widths(word, graded):
    """(live, ends, widths): the two-ended sweep of a fresh diagram of
    the word, with the number of pairings it carries past each event."""
    widths = []
    check = rulings._check_caps

    def spy(e, width, work):
        widths.append(width)
        check(e, width, work)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rulings, "_check_caps", spy)
        live, ends = rulings._sweep(parse_front(word), graded)
    return live, ends, widths


def check_against_one_ended(word, graded):
    """The two-ended sweep keeps the one-ended sweep's live states and
    ends, and no side carries more than twice its widest: a side
    advances only while it carries no more than the other, and one event
    at most doubles what a side carries."""
    live, ends, widths = sweep_widths(word, graded)
    ref_live, ref_ends, widest = ref_one_ended_sweep(parse_front(word), graded)
    assert (live, ends) == (ref_live, ref_ends)
    assert max(widths, default=0) <= 2 * widest


def check_against_walk(d, graded):
    for limit in LIMITS:
        assert enumerate_rulings(d, graded, limit) \
            == ref_walk_rulings(d, graded, limit)


@settings(max_examples=200, deadline=None)
@given(fronts(), st.booleans(), st.integers(min_value=0, max_value=40))
def test_sweep_and_listing_match_reference(d, graded, cut):
    check_against_reference(d, graded, cut)


@settings(max_examples=200, deadline=None)
@given(fronts())
def test_two_ended_sweep_matches_one_ended(d):
    for graded in (False, True):
        check_against_one_ended(d.word, graded)


FIXED_FRONTS = TWISTS + [w for w, _ in BENCH_FRONTS] \
    + ["L1 L2 " + "X3 " * 3000 + "R2 R1"]


@pytest.mark.parametrize("word", FIXED_FRONTS,
                         ids=[f"front-{i}" for i in range(len(FIXED_FRONTS))])
def test_two_ended_sweep_matches_one_ended_on_fixed_fronts(word):
    for graded in (False, True):
        check_against_one_ended(word, graded)


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
    for cap, value, text in (("MAX_PAIRINGS", 2, "eye pairings at"),
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


TEN_EYES_TWICE = " ".join([f"L{t}" for t in range(1, 11)]
                          + [f"X{10 + i}" for i in range(1, 10)] * 2
                          + [f"R{t}" for t in range(10, 0, -1)])
# the crossings run four times: wide from both ends
TEN_EYES_FOUR_TIMES = " ".join([f"L{t}" for t in range(1, 11)]
                               + [f"X{10 + i}" for i in range(1, 10)] * 4
                               + [f"R{t}" for t in range(10, 0, -1)])


def test_front_wide_from_one_end_answers():
    """Ten nested eyes whose crossings run twice carry 13,122 pairings
    past one event when swept from the start alone, over the cap; swept
    from both ends they carry 2,064 in all, at most 512 at once."""
    d = parse_front(TEN_EYES_TWICE)
    assert ref_one_ended_sweep(d)[2] == 13122
    live, ends, widths = sweep_widths(TEN_EYES_TWICE, False)
    assert (sum(widths), max(widths)) == (2064, 512)
    poly = ruling_polynomial(d)
    assert str(poly) == "t^9 + 9t^7 + 28t^5 + 35t^3 + 15t + t^(-1)"
    assert repr(poly) == repr(ref_sweep(d)[0])
    assert len(enumerate_rulings(d)) == poly.total_count() == 89
    check_against_walk(d, False)


def test_listing_refuses_what_the_sweep_refuses():
    """The listing runs the polynomial's sweep first, so a front too wide
    for it is refused by the same DomainError (the walk it replaced
    listed such a front's first rulings)."""
    d = parse_front(TEN_EYES_FOUR_TIMES)
    with pytest.raises(DomainError, match="eye pairings at") as sweep:
        ruling_polynomial(d)
    for limit in (1, 1000, None):
        with pytest.raises(DomainError) as listing:
            enumerate_rulings(d, limit=limit)
        assert str(listing.value) == str(sweep.value)


# transitions a `leg rulings` command computes on each benchmark front:
# 1,490 in all, where a sweep from the start alone computed 7,843
BENCH_TRANSITIONS = [20, 28, 36, 44, 226, 470, 666]


def test_rulings_command_sweeps_once(monkeypatch, capsys):
    """One `leg rulings` run on each benchmark front computes each
    transition once, for the polynomial and the listing alike: as many
    as the polynomial's sweep alone.  Its diagram, which holds the
    sweep, is let go with the command."""
    calls = Counter()
    seen = []

    def counting(diagram, graded):
        step = _transitions(diagram, graded)
        seen.append(weakref.ref(diagram))

        def spy(e, partner, back=False):
            calls[diagram.word, graded] += 1
            return step(e, partner, back)
        return step and spy

    monkeypatch.setattr(rulings, "_transitions", counting)
    for (word, graded), want in zip(BENCH_FRONTS, BENCH_TRANSITIONS):
        key = parse_front(word).word, graded
        argv = ["rulings", "--front", word, "--json"]
        assert main(argv + ["--graded"] * graded) == 0
        capsys.readouterr()
        assert calls[key] == want
        # the polynomial's sweep alone computes as many
        ruling_polynomial(parse_front(word), graded=graded)
        assert calls[key] == 2 * want
    assert sum(calls.values()) == 2 * 1490
    assert len(seen) == 2 * len(BENCH_FRONTS)
    assert all(ref() is None for ref in seen)
