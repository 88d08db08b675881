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
    """A validated front word, its strand stacks, and what they determine.

    Set on construction, which checks every position against the strand
    count of its slice, an integer count per event (no strand ids):
      events      list of (kind, pos)
      word        the event word as text
      n_left      left cusps; n_right (equal) and n_ids = 2 * n_left
    Simulated on first use, one strand-id stack per event:
      stacks      tuple of strand-id stacks, one per slice (len(events)+1)
      born        tuple of per-slice birth counts: born[t] left cusps lie
                  in events[:t], so the ids born before slice t are
                  0 .. 2 * born[t] - 1
    Read off the stacks on each use: max_strands, the largest stack.
    Computed on first use, from the stacks:
      crossings   list of (event_index, pos, upper_id, lower_id)
      cusps       list of (event_index, kind, pos, upper_id, lower_id)
    and from one walk of the cusp cycles:
      comp_of     id -> component index (components numbered by oldest id)
      components  list of sorted id lists
      n_components
      potential   id -> raw Maslov potential, 0 on the lower strand of each
                  component's first left cusp; even means pointing right
      defects     per component, the size of the potential's jump around
                  its cycle (0 when single valued)

    With no parent the whole word is checked, and simulated on first
    use.  A windowed build takes a parent front and window=(w0, w1_old):
    `events` is the parent's word with events[w0:w1_old] replaced, so the
    rewritten window is events[w0:w1_new] and the rest is the parent's.
    Only the window is checked, from the parent's strand count at w0,
    and `word` joins the parent's tokens with the window's spliced in.
    When the window ends with as many strands as the parent has at
    w1_old, the parent's suffix stays valid.  On first use the window
    alone is simulated and joined to the parent's stacks and births:
    stacks[:w0 + 1] and born[:w0 + 1] are the parent's own objects, and
    from slice w1_new on the stacks are the parent's stacks[w1_old:],
    the same objects once the two agree, otherwise relabelled: each id
    on the parent's stack at w1_old by the id at the same height at
    w1_new, each id born later by the change in births.  (A window that
    ends with another strand count is checked and simulated to the end
    of the word.)
    """

    _LAZY = {"stacks": "_join", "born": "_join",
             "crossings": "_sweep", "cusps": "_sweep",
             "comp_of": "_walk", "components": "_walk",
             "n_components": "_walk", "potential": "_walk",
             "defects": "_walk"}

    def __init__(self, events, parent=None, window=None):
        if parent is None:
            # a full build rewrites the empty front's one slice
            events = [(k, int(p)) for k, p in events]
            parent, window = _EMPTY, (0, 0)
        w0, w1_old = window
        n = len(events)
        w1_new = w1_old + n - len(parent.events)
        stacks = parent.stacks
        count, goal, nb = len(stacks[w0]), len(stacks[w1_old]), parent.born[w0]
        self.events = events
        i = w0
        while i < n:
            if i == w1_new and count == goal:
                # the suffix's positions depend only on the strand count,
                # so it stays valid and ends with every strand closed
                break
            kind, pos = events[i]
            if kind == "L":
                if not 1 <= pos <= count + 1:
                    raise DomainError(
                        f"invalid position {pos} at event {i} (L{pos}) "
                        f"with {count} strands")
                count += 2
                nb += 1
            elif kind in ("X", "R"):
                if not 1 <= pos <= count - 1:
                    raise DomainError(
                        f"invalid position {pos} at event {i} ({kind}{pos}) "
                        f"with {count} strands")
                if kind == "R":
                    count -= 2
            else:
                raise DomainError(f"unknown event kind {kind!r} at event {i}")
            i += 1
        else:
            if count:
                # the strand count is 2 * (left - right cusps)
                raise DomainError(
                    f"unbalanced cusps: {nb} left, {nb - count // 2} right")
        self._tokens = tokens = parent._tokens[:]
        tokens[w0:w1_old] = [f"{k}{p}" for k, p in events[w0:w1_new]]
        self.word = " ".join(tokens)
        if i == n:  # checked to the end: no suffix to join
            self.n_left = nb
        else:
            self.n_left = parent.n_left + nb - parent.born[w1_old]
        self._pending = (parent, w0, w1_old, i)

    def _join(self):
        """Set stacks and born: simulate events[w0:end] from the parent's
        stack at w0, then join the parent's slices from w1_old on unless
        the window was simulated to the end of the word."""
        parent, w0, w1_old, end = self.__dict__.pop("_pending")
        events = self.events
        head, self.born = parent.stacks[:w0 + 1], parent.born[:w0 + 1]
        stack, nb = list(head[-1]), self.born[-1]
        stacks, born = [], []
        for kind, pos in events[w0:end]:
            if kind == "L":
                stack[pos - 1:pos - 1] = (2 * nb, 2 * nb + 1)
                nb += 1
            elif kind == "X":
                stack[pos - 1], stack[pos] = stack[pos], stack[pos - 1]
            else:
                del stack[pos - 1:pos + 1]
            stacks.append(tuple(stack))
            born.append(nb)
        self.born += tuple(born)
        if end == len(events):
            self.stacks = head + tuple(stacks)
            return
        old, new = parent.stacks[w1_old], stacks[-1] if stacks else head[-1]
        shift = self.born[-1] - parent.born[w1_old]
        tail = parent.stacks[w1_old + 1:]
        if shift:
            self.born += tuple(b + shift for b in parent.born[w1_old + 1:])
        else:
            self.born += parent.born[w1_old + 1:]
        if not shift and new == old:
            self.stacks = head + tuple(stacks) + tail
            return
        relabel = list(range(parent.n_ids))
        for a, b in zip(old, new):
            relabel[a] = b
        first = 2 * parent.born[w1_old]
        relabel[first:] = range(first + 2 * shift, parent.n_ids + 2 * shift)
        get = relabel.__getitem__
        for t, s in enumerate(tail):
            mapped = tuple(map(get, s))
            if not shift and mapped == s:
                # no relabelled id is left, and none is born again
                stacks.extend(tail[t:])
                break
            stacks.append(mapped)
        self.stacks = head + tuple(stacks)

    def __getattr__(self, name):
        # only reached while a lazy attribute is unset
        build = FrontDiagram._LAZY.get(name)
        if build is None:
            raise AttributeError(
                f"'FrontDiagram' object has no attribute {name!r}")
        getattr(self, build)()
        return self.__dict__[name]

    @property
    def n_ids(self):
        return 2 * self.n_left

    @property
    def n_right(self):
        # a valid word closes every strand
        return self.n_left

    @property
    def max_strands(self):
        return max(map(len, self.stacks))

    def __repr__(self):
        return f"FrontDiagram({self.word!r})"

    def _sweep(self):
        crossings = []
        cusps = []
        stacks = self.stacks
        for i, (kind, pos) in enumerate(self.events):
            if kind == "L":
                s = stacks[i + 1]
                cusps.append((i, "L", pos, s[pos - 1], s[pos]))
            else:
                s = stacks[i]
                if kind == "X":
                    crossings.append((i, pos, s[pos - 1], s[pos]))
                else:
                    cusps.append((i, "R", pos, s[pos - 1], s[pos]))
        self.crossings = crossings
        self.cusps = cusps

    def _walk(self):
        # Each id meets two cusps, its birth and its death, so the cusp
        # edges on ids form one cycle per component; a left cusp gives
        # birth to the pair 2k (upper) and 2k + 1.  The walk goes once
        # around each cycle from the lower strand of its first left cusp
        # (oldest id + 1), across its death cusp first and then across
        # births and deaths in turn, setting mu(upper) = mu(lower) + 1 at
        # each; the jump left at the birth cusp that closes the cycle is
        # the defect (0 when single valued).  Strands reverse direction at
        # every cusp, so the parity of the potential is the orientation.
        n = self.n_ids
        dies_with = [None] * n  # id -> (partner at its death, mu step)
        stacks = self.stacks
        for i, (kind, pos) in enumerate(self.events):
            if kind == "R":
                u, l = stacks[i][pos - 1], stacks[i][pos]
                dies_with[u] = (l, -1)
                dies_with[l] = (u, 1)
        potential = [None] * n
        comp_of = [None] * n
        components = []
        defects = []
        for oldest in range(0, n, 2):
            if comp_of[oldest] is not None:
                continue
            c = len(components)
            ids = []
            a, v = oldest + 1, 0
            while True:
                b, step = dies_with[a]
                potential[a] = v
                v += step
                potential[b] = v
                comp_of[a] = comp_of[b] = c
                ids += (a, b)
                if b == oldest:
                    break
                a = b ^ 1
                v += 1 if b & 1 else -1
            gap = v - 1  # mu(oldest) - mu(oldest + 1) - 1
            assert gap % 2 == 0, "orientation cycle has odd length"
            components.append(sorted(ids))
            defects.append(abs(gap))
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


# The empty front, with its one slice: every full build is a windowed
# build over it, rewriting the window (0, 0).
_EMPTY = object.__new__(FrontDiagram)
_EMPTY.__dict__.update(events=[], word="", n_left=0, stacks=((),),
                       born=(0,), _tokens=[])


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
