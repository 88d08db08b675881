"""Reference code for the rulings, kept to check the fast paths.

`ref_enumerate_rulings` is the walker that `rulings.enumerate_rulings`
replaced: it lists every normal ruling by one recursion per event and
sorts the list.  `ref_ruling_polynomial` is the polynomial summed over
that list, which `rulings.ruling_polynomial` now gets from one sweep of
the word without listing any ruling.  On hypothesis fronts, graded and
ungraded, the sweep must give the reference polynomial, a listing cut
at `limit` must be the head of the reference list, and every listed
ruling must pass `validate_ruling`.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from legcob import rulings
from legcob.errors import DomainError
from legcob.front import classical_invariants, maslov_potential, parse_front
from legcob.laurent import LaurentPoly
from legcob.rulings import enumerate_rulings, ruling_polynomial, \
    validate_ruling

TWISTS = ["L1 L2 " + "X3 " * k + "R2 R1" for k in range(16)]


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
    assert enumerate_rulings(d, graded) == ref
    k = min(cut, len(ref) + 1)
    listed = enumerate_rulings(d, graded, limit=k)
    assert listed == ref[:k]
    assert all(validate_ruling(d, sw) for sw in listed)


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
    d = parse_front("L1 L2 L3 " + "X4 X5 " * 3 + "R3 R2 R1")
    want = ref_ruling_polynomial(d, ref_enumerate_rulings(d))
    assert ruling_polynomial(d) == want
    for cap, value, text in (("MAX_PAIRINGS", 2, "eye pairings after"),
                             ("MAX_SWEEP_WORK", 20, "pairings carried by")):
        with monkeypatch.context() as m:
            m.setattr(rulings, cap, value)
            with pytest.raises(DomainError, match=text):
                ruling_polynomial(d)
