"""Event-word encoding of one dimensional front diagrams.

A front is written left to right as a word of events acting on a stack
of strands numbered from 1 at the top:

    L<i>  left cusp inserting two new strands at positions i, i+1
    X<i>  crossing of the strands at positions i, i+1
    R<i>  right cusp killing the strands at positions i, i+1

Validity means every position is legal for the current strand count and
the count returns to zero with as many left as right cusps.  Strand ids
are assigned at birth and persist through crossings, so an id names one
arc running from its left cusp to its right cusp.

>>> d = parse_front("L1 R1")
>>> classical_invariants(d)["tb"]
-1
"""

import re
from math import gcd

from .errors import DomainError

_TOKEN_RE = re.compile(r"([LXR])([0-9]+)")


def parse_front(text):
    """Parse a whitespace separated event word like 'L1 L2 X3 R2 R1'."""
    events = []
    for tok in text.split():
        m = _TOKEN_RE.fullmatch(tok)
        if not m:
            raise DomainError(f"bad event token {tok!r}")
        pos = int(m.group(2))
        if pos < 1:
            raise DomainError(f"bad event token {tok!r}: positions are >= 1")
        events.append((m.group(1), pos))
    return FrontDiagram(events)


class FrontDiagram:
    """A validated front word plus everything derived from its simulation.

    Attributes set during validation:
      stacks      tuple of strand-id stacks, one per slice (len(events)+1)
      crossings   list of (event_index, pos, upper_id, lower_id)
      cusps       list of (event_index, kind, pos, upper_id, lower_id)
      comp_of     id -> component index (components numbered by oldest id)
      components  list of sorted id lists
      potential   id -> raw Maslov potential, 0 on the lower strand of each
                  component's first left cusp; even means pointing right
      defects     per component, the gcd of the potential's jumps around
                  its cycle (0 when single valued)
    """

    def __init__(self, events):
        self.events = [(k, int(p)) for k, p in events]
        self._simulate()
        self._walk()

    @property
    def word(self):
        return " ".join(f"{k}{p}" for k, p in self.events)

    def __repr__(self):
        return f"FrontDiagram({self.word!r})"

    def _simulate(self):
        stack = []
        stacks = [()]
        next_id = 0
        crossings = []
        cusps = []
        n_l = n_r = 0
        for i, (kind, pos) in enumerate(self.events):
            count = len(stack)
            if kind == "L":
                if not 1 <= pos <= count + 1:
                    raise DomainError(
                        f"invalid position {pos} at event {i} (L{pos}) "
                        f"with {count} strands")
                u, l = next_id, next_id + 1
                next_id += 2
                stack[pos - 1:pos - 1] = [u, l]
                cusps.append((i, "L", pos, u, l))
                n_l += 1
            elif kind in ("X", "R"):
                if not 1 <= pos <= count - 1:
                    raise DomainError(
                        f"invalid position {pos} at event {i} ({kind}{pos}) "
                        f"with {count} strands")
                u, l = stack[pos - 1], stack[pos]
                if kind == "X":
                    stack[pos - 1], stack[pos] = l, u
                    crossings.append((i, pos, u, l))
                else:
                    del stack[pos - 1:pos + 1]
                    cusps.append((i, "R", pos, u, l))
                    n_r += 1
            else:
                raise DomainError(f"unknown event kind {kind!r} at event {i}")
            stacks.append(tuple(stack))
        if n_l != n_r:
            raise DomainError(f"unbalanced cusps: {n_l} left, {n_r} right")
        if stack:
            raise DomainError(f"nonzero final strand count {len(stack)}")
        self.stacks = tuple(stacks)
        self.crossings = crossings
        self.cusps = cusps
        self.n_ids = next_id
        self.n_left = n_l
        self.n_right = n_r
        self.max_strands = max(len(s) for s in stacks)

    def _walk(self):
        # Each id meets two cusps (birth and death), so the cusp edges on
        # ids form one cycle per component.  One LIFO walk per cycle, from
        # the lower strand of its first left cusp (oldest id + 1), sets
        # mu(upper) = mu(lower) + 1; revisits with another value give the
        # defect (0 when single valued).  Strands reverse direction at
        # every cusp, so the parity of the potential is the orientation.
        edges = [[] for _ in range(self.n_ids)]
        for _, _, _, u, l in self.cusps:
            edges[u].append((l, -1))
            edges[l].append((u, +1))
        potential = [None] * self.n_ids
        comp_of = [None] * self.n_ids
        components = []
        defects = []
        for oldest in range(0, self.n_ids, 2):
            if potential[oldest] is not None:
                continue
            c = len(components)
            ids = []
            defect = 0
            stack = [(oldest + 1, 0)]
            while stack:
                a, v = stack.pop()
                if potential[a] is not None:
                    gap = potential[a] - v
                    assert gap % 2 == 0, "orientation cycle has odd length"
                    defect = gcd(defect, abs(gap))
                    continue
                potential[a] = v
                comp_of[a] = c
                ids.append(a)
                for b, step in edges[a]:
                    stack.append((b, v + step))
            components.append(sorted(ids))
            defects.append(defect)
        self.potential = potential
        self.defects = defects
        self.comp_of = comp_of
        self.components = components
        self.n_components = len(components)

    def directions(self, reversed_components=()):
        """Per-id direction (+1 right, -1 left), optionally flipping
        the given component indices."""
        rev = set(reversed_components)
        bad = rev - set(range(self.n_components))
        if bad:
            raise DomainError(f"no such component: {sorted(bad)}")
        return {a: (1 if v % 2 == 0 else -1) * (-1 if c in rev else 1)
                for a, (v, c) in enumerate(zip(self.potential, self.comp_of))}


def classical_invariants(diagram, reversed_components=()):
    """Classical invariants of the whole front.

    INPUT: a valid FrontDiagram; optionally component indices whose
    orientation is flipped (rotation numbers change sign, tb does not).
    OUTPUT: dict with tb and writhe of the link, cusp count, rotation
    number per component, component count.

    >>> classical_invariants(parse_front("L1 L2 X3 X3 X3 R2 R1"))["tb"]
    1
    """
    dirs = diagram.directions(reversed_components)
    w = 0
    for _, pos, u, l in diagram.crossings:
        w += dirs[u] * dirs[l]
    down = [0] * diagram.n_components
    up = [0] * diagram.n_components
    for _, kind, pos, u, l in diagram.cusps:
        c = diagram.comp_of[u]
        moving = dirs[l] if kind == "L" else dirs[u]
        if moving == 1:
            down[c] += 1
        else:
            up[c] += 1
    rot = [(down[c] - up[c]) // 2 for c in range(diagram.n_components)]
    return {
        "tb": w - diagram.n_right,
        "writhe": w,
        "cusps": diagram.n_left + diagram.n_right,
        "rotation": rot,
        "components": diagram.n_components,
    }


class MaslovPotential:
    """Integer potential per strand id, one value class per component.

    values[id] is exact when mods[component] is None and otherwise only
    defined modulo mods[component] (which equals twice the absolute
    rotation number of that component).
    """

    def __init__(self, values, mods):
        self.values = values
        self.mods = mods

    @property
    def exact(self):
        return all(m is None for m in self.mods)


def maslov_potential(diagram):
    """The potential with mu(upper) = mu(lower) + 1 at every cusp, as
    the diagram's cusp-cycle walk propagated it.

    The lower strand of each component's first left cusp is normalized
    to 0.  Components with nonzero rotation number only admit a potential
    mod 2|r|; the mod is recorded per component.

    >>> mp = maslov_potential(parse_front("L1 R1"))
    >>> mp.values[0], mp.values[1], mp.mods
    (1, 0, [None])
    """
    rot = classical_invariants(diagram)["rotation"]
    values = {}
    mods = []
    for c, ids in enumerate(diagram.components):
        defect = diagram.defects[c]
        if rot[c] == 0:
            assert defect == 0, \
                f"inconsistent potential on component {c} with r = 0"
            mods.append(None)
        else:
            assert defect == 2 * abs(rot[c]), \
                f"inconsistent potential on component {c}: defect {defect}"
            mods.append(defect)
        for a in ids:
            v = diagram.potential[a]
            values[a] = v % defect if defect else v
    return MaslovPotential(values, mods)
