import hashlib
import random
from fractions import Fraction

import pytest

from legcob import whitehead
from legcob.braids import BraidWord
from legcob.errors import DomainError
from legcob.front import classical_invariants, parse_front
from legcob.moves import format_trace, parse_trace, trace_summary
from legcob.whitehead import whitehead_diagram, whitehead_double

UNKNOT = "L1 R1"
ZIGZAG = "L1 L2 R1 L1 R2 R1"
TREFOIL = "L1 L2 X3 X3 X3 R2 R1"
KINK = "L1 X1 R1"


def test_double_of_unknot_frozen_word():
    d = whitehead_diagram(parse_front(UNKNOT))
    assert d.word == "L1 L1 X2 L2 X1 X3 R2 X2 R1 R1"


def test_double_classical_invariants():
    for word in (UNKNOT, ZIGZAG, TREFOIL):
        d = whitehead_diagram(parse_front(word))
        inv = classical_invariants(d)
        assert inv["tb"] == 1
        assert inv["rotation"] == [0]
        assert inv["components"] == 1


def test_doubles_of_distinct_unknots_differ():
    a = whitehead_diagram(parse_front(UNKNOT))
    b = whitehead_diagram(parse_front(ZIGZAG))
    assert a.word != b.word
    assert classical_invariants(a)["tb"] == classical_invariants(b)["tb"]


def test_double_rejects_links():
    link = parse_front("L1 R1 L1 R1")
    with pytest.raises(DomainError, match="needs a knot front"):
        whitehead_diagram(link)


def test_trace_is_genus_one_filling():
    for word in (UNKNOT, ZIGZAG, TREFOIL):
        d, tr = whitehead_double(parse_front(word))
        s = trace_summary(tr)
        assert s["end"].word == d.word
        assert s["births"] == 1
        assert s["pinches"] == 2
        assert s["chi"] == -1
        assert s["components"] == 1
        assert s["genus"] == Fraction(1)


def test_unknot_trace_frozen_moves():
    _, tr = whitehead_double(parse_front(UNKNOT))
    assert tr.moves == [("B", 0, 1), ("R1b", 1, 1), ("C", 0),
                        ("R1b", 4, 1), ("C", 0), ("R1a", 5, 1),
                        ("R1b", 8, 2), ("PM", 7), ("PM", 3)]


def test_trace_round_trips_through_text():
    d, tr = whitehead_double(parse_front(TREFOIL))
    tr2 = parse_trace(format_trace(tr), gf_mode=True)
    assert tr2.moves == tr.moves
    assert trace_summary(tr2)["end"].word == d.word


def test_gf_gate_on_rotation():
    kink = parse_front(KINK)
    assert classical_invariants(kink)["rotation"] != [0]
    with pytest.raises(DomainError, match="gf mode requires rotation number 0"):
        whitehead_double(kink)
    d, tr = whitehead_double(kink, gf_mode=False)
    assert classical_invariants(d)["tb"] == 1
    assert trace_summary(tr)["genus"] == Fraction(1)


def _twist(k):
    return "L1 L2 " + "X3 " * k + "R2 R1"


def _closure(strands):
    """The closure of s1 s2 ... s_{strands-1}, a knot."""
    return " ".join([f"L{t}" for t in range(1, strands + 1)]
                    + [f"X{strands + i}" for i in range(1, strands)]
                    + [f"R{t}" for t in range(strands, 0, -1)])


def test_work_cap_boundary(monkeypatch):
    """The largest admitted twist front and closure reach the tongue
    walk, and so do the benchmark's and the golden rows' bases; one
    crossing pair or one strand more is refused before it."""
    class Walked(Exception):
        pass

    def walk(base):
        raise Walked

    monkeypatch.setattr(whitehead, "_drag_moves", walk)
    admitted = [_twist(87), _closure(13), UNKNOT, ZIGZAG, TREFOIL,
                "L1 L2 L3 X4 X5 X4 X5 R3 R2 R1"]
    admitted += [_twist(k) for k in (5, 7, 9)]
    for word in admitted:
        with pytest.raises(Walked):
            whitehead_double(parse_front(word))
    for word in (_twist(89), _closure(14), _twist(3001), _closure(40)):
        with pytest.raises(DomainError, match="front too large to double"):
            whitehead_double(parse_front(word))


def _random_braid_knots(rng, count, max_strands=9):
    """Closures of seeded random positive braids on 2 to max_strands
    strands with at most 14 letters that close to a knot within the work
    cap."""
    fronts = []
    while len(fronts) < count:
        s = rng.randint(2, max_strands)
        letters = [rng.randint(1, s - 1) for _ in range(rng.randint(1, 14))]
        if BraidWord(s, letters).permutation_cycles() != 1:
            continue
        d = parse_front(" ".join([f"L{t}" for t in range(1, s + 1)]
                                 + [f"X{s + x}" for x in letters]
                                 + [f"R{t}" for t in range(s, 0, -1)]))
        if len(d.events) ** 2 * (d.max_strands + 2) \
                <= whitehead.MAX_DOUBLE_WORK:
            fronts.append(d)
    return fronts


def test_each_stage_connects_on_its_one_search(monkeypatch):
    """The tongue walk makes one search per stage, and on the doubles of
    random braid-closure knots every one finds its path; each trace
    replays to the double with genus 1."""
    paths = []
    search = whitehead.connect_fronts

    def recording(*args, **kwargs):
        paths.append(search(*args, **kwargs))
        return paths[-1]

    monkeypatch.setattr(whitehead, "connect_fronts", recording)
    for base in _random_braid_knots(random.Random(5), 40):
        d, tr = whitehead_double(base)
        summary = trace_summary(tr)
        assert summary["end"].word == d.word, base.word
        assert summary["genus"] == 1, base.word
    assert len(paths) > 1000 and None not in paths


# sha256 of word + trace text of every double below, in both gf modes,
# taken before the tongue tip lost its side flag
TONGUE_WALK_DIGEST = \
    "6c539d7ce0665fb7ecbc0f54a626b52f82ca8e38f4cff431e333a8b83203db1e"


def test_tongue_walk_traces_are_pinned():
    """Every double and trace of a fixed corpus beyond the golden rows:
    the twist fronts with 1 to 21 crossings (odd counts), the closures
    of s1..s(s-1) on 2 to 8 strands, the zigzag and 40 seeded random
    positive-braid knots on 2 to 5 strands."""
    words = [_twist(k) for k in range(1, 22, 2)]
    words += [_closure(s) for s in range(2, 9)] + [ZIGZAG]
    bases = [parse_front(w) for w in words]
    bases += _random_braid_knots(random.Random(40), 40, max_strands=5)
    digest = hashlib.sha256()
    for base in bases:
        for gf_mode in (True, False):
            d, tr = whitehead_double(base, gf_mode=gf_mode)
            digest.update((d.word + "\n" + format_trace(tr) + "\0").encode())
    assert digest.hexdigest() == TONGUE_WALK_DIGEST
