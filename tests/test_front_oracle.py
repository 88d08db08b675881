"""The one cusp-cycle walk of FrontDiagram against the three separate
traversals it replaced: a union-find for the components, a 2-colouring
for the orientation and a second walk for the Maslov potential.

They are compared on every intermediate front of clasped-double and
braid-closure filling traces, which pass through multi-component fronts
and kinks, and on a few fronts with nonzero rotation numbers.
"""

from math import gcd

import pytest

from legcob.braids import BraidWord, closure_report
from legcob.front import classical_invariants, maslov_potential, parse_front
from legcob.moves import apply_move
from legcob.whitehead import whitehead_double

WH_BASES = ("L1 R1", "L1 L2 R1 L1 R2 R1", "L1 L2 X3 X3 X3 R2 R1")
BRAIDS = ((2, [1, 1, 1]), (3, [2, 1]), (3, [1, 2, 1, 2]), (4, [1]),
          (4, [1, 3, 2, 2, 1]), (5, [1, 4, 2, 3, 1, 2, 4]))
# Graded traces keep every rotation number 0; these fronts carry
# components whose potential is only defined mod 2|r|.
ROTATING = ("L1 X1 R1", "L1 X1 X1 X1 R1", "L1 L2 X2 X2 X2 R2 R1",
            "L1 R1 L1 X1 R1", "L1 L1 R2 X1 R1", "L1 L2 X1 R1 X1 R1")


def ref_components(d):
    parent = list(range(d.n_ids))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for _, _, _, u, l in d.cusps:
        parent[find(u)] = find(l)
    roots, comp_of, components = {}, {}, []
    for a in range(d.n_ids):
        r = find(a)
        if r not in roots:
            roots[r] = len(components)
            components.append([])
        comp_of[a] = roots[r]
        components[roots[r]].append(a)
    return comp_of, components


def _anchor(d, comp_of, c):
    for _, kind, _, u, l in d.cusps:
        if kind == "L" and comp_of[u] == c:
            return l


def ref_directions(d, reversed_components=()):
    comp_of, components = ref_components(d)
    edges = {a: [] for a in range(d.n_ids)}
    for _, _, _, u, l in d.cusps:
        edges[u].append(l)
        edges[l].append(u)
    dirs = {}
    for c in range(len(components)):
        queue = [(_anchor(d, comp_of, c), 1)]
        while queue:
            a, s = queue.pop()
            if a in dirs:
                assert dirs[a] == s, "orientation cycle has odd length"
                continue
            dirs[a] = s
            for b in edges[a]:
                queue.append((b, -s))
    rev = set(reversed_components)
    return {a: (-s if comp_of[a] in rev else s) for a, s in dirs.items()}


def ref_potential(d):
    comp_of, components = ref_components(d)
    rot = classical_invariants(d)["rotation"]
    edges = {a: [] for a in range(d.n_ids)}
    for _, _, _, u, l in d.cusps:
        edges[u].append((l, -1))
        edges[l].append((u, +1))
    values, mods = {}, []
    for c, ids in enumerate(components):
        defect = 0
        queue = [(_anchor(d, comp_of, c), 0)]
        while queue:
            a, v = queue.pop()
            if a in values:
                if values[a] != v:
                    defect = gcd(defect, abs(values[a] - v))
                continue
            values[a] = v
            for b, step in edges[a]:
                queue.append((b, v + step))
        if rot[c] == 0:
            assert defect == 0
            mods.append(None)
        else:
            assert defect == 2 * abs(rot[c])
            for a in ids:
                values[a] %= defect
            mods.append(defect)
    return values, mods


def _replayed(trace):
    d = trace.start
    out = [d]
    for move in trace.moves:
        d = apply_move(d, move, gf_mode=trace.gf_mode)
        out.append(d)
    return out


@pytest.fixture(scope="module")
def fronts():
    out = []
    for word in WH_BASES:
        out += _replayed(whitehead_double(parse_front(word))[1])
    for s, letters in BRAIDS:
        out += _replayed(closure_report(BraidWord(s, letters))["trace"])
    return out + [parse_front(word) for word in ROTATING]


def test_fronts_cover_links_kinks_and_rotation(fronts):
    assert len(fronts) > 200
    assert any(d.n_components > 2 for d in fronts)
    assert any(d.crossings and d.n_components > 1 for d in fronts)
    assert sum(any(maslov_potential(d).mods) for d in fronts) >= 4


def test_walk_matches_reference(fronts):
    for d in fronts:
        comp_of, components = ref_components(d)
        assert d.components == components, d.word
        assert [d.comp_of[a] for a in range(d.n_ids)] == \
            [comp_of[a] for a in range(d.n_ids)], d.word
        assert d.directions() == ref_directions(d), d.word
        every = range(d.n_components)
        assert d.directions(every) == ref_directions(d, every), d.word
        mp = maslov_potential(d)
        assert (mp.values, mp.mods) == ref_potential(d), d.word
