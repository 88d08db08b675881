import random

import pytest

from legcob import render
from legcob.errors import DomainError
from legcob.front import _SHIFT, FrontDiagram, parse_front
from legcob.render import _strand_tracks, render_svg
from test_front_oracle import ref_stacks

TREFOIL = "L1 L2 X3 X3 X3 R2 R1"


def test_svg_structure():
    out = render_svg(parse_front(TREFOIL))
    assert out.startswith("<svg")
    assert 'width="' in out and 'height="' in out
    assert out.count("<path") == 4  # one per strand arc
    assert "C " in out  # cusps are cubic curve meeting points


def test_svg_deterministic():
    d1 = render_svg(parse_front("L1 R1"))
    d2 = render_svg(parse_front("L1 R1"))
    assert d1 == d2


def test_svg_cap_counts_events_times_strands(monkeypatch):
    """A front of events x max strands up to MAX_SVG_POINTS is drawn, one
    past it is refused before any strand is tracked.  The trefoil has 7
    events of up to 4 strands; n nested eyes have 2n events of up to 2n
    strands, so 600 are drawn and 2,000 refused."""
    trefoil = parse_front(TREFOIL)
    assert (len(trefoil.events), trefoil.max_strands) == (7, 4)
    monkeypatch.setattr(render, "MAX_SVG_POINTS", 28)
    assert render_svg(trefoil).startswith("<svg")
    monkeypatch.setattr(render, "MAX_SVG_POINTS", 27)

    def no_tracks(diagram):
        raise AssertionError("tracked strands past the cap")

    monkeypatch.setattr(render, "_strand_tracks", no_tracks)
    with pytest.raises(DomainError, match="SVG too large: 7 events x 4 "
                       "strands exceed the cap of 27 points"):
        render_svg(trefoil)
    monkeypatch.undo()
    for n, drawn in ((600, True), (2000, False)):
        eyes = parse_front("L1 " * n + "R1 " * n)
        assert len(eyes.events) == eyes.max_strands == 2 * n
        assert (4 * n * n <= render.MAX_SVG_POINTS) == drawn


def ref_strand_tracks(diagram):
    """The tracks as they were: birth and death events from the cusp
    list, and each id's position searched for in every slice it
    crosses, the slices the reference simulation's."""
    born = {}
    died = {}
    for i, kind, pos, u, l in diagram.cusps:
        if kind == "L":
            born[u] = i
            born[l] = i
        else:
            died[u] = i
            died[l] = i
    tracks = {}
    stacks = ref_stacks(diagram)
    for a in range(diagram.n_ids):
        pts = []
        for s in range(born[a] + 1, died[a] + 1):
            pts.append((s, stacks[s].index(a) + 1))
        tracks[a] = (born[a], died[a], pts)
    return tracks


def _random_front(rng, steps):
    """A valid front: `steps` events at random legal positions, then
    right cusps at random positions until no strand is left."""
    events, count = [], 0
    for _ in range(steps):
        kind = rng.choice("LXR") if count >= 2 else "L"
        top = count + 1 if kind == "L" else count - 1
        events.append((kind, rng.randint(1, top)))
        count += _SHIFT[kind]
    while count:
        events.append(("R", rng.randint(1, count - 1)))
        count -= 2
    return FrontDiagram(events)


def test_strand_tracks_match_reference():
    rng = random.Random(11)
    fronts = [_random_front(rng, rng.randint(1, 40)) for _ in range(300)]
    fronts.append(parse_front(TREFOIL))
    for d in fronts:
        assert _strand_tracks(d) == ref_strand_tracks(d), d.word
    assert max(d.max_strands for d in fronts) > 10
    assert sum(len(d.crossings) for d in fronts) > 1000
