"""Event-word encoding of one dimensional front diagrams.

A front is written left to right as a word of events acting on a stack
of strands numbered from 1 at the top:

    L<i>  left cusp inserting two new strands at positions i, i+1
    X<i>  crossing of the strands at positions i, i+1
    R<i>  right cusp killing the strands at positions i, i+1

Validity means every position is legal for the current strand count and
the count returns to zero with as many left as right cusps.  Strand ids
are assigned at birth and persist through crossings, so an id names one
arc running from its left cusp to its right cusp.  Labels are kept in
one format only, the pair of ids at each crossing and cusp, which every
invariant reads; it comes from one run of the word (simulate).  No
front keeps a slice's ids: a reader of slices (a render, the tongue
walk's base) runs the word itself, and a trace replay keeps a label
pair per cusp and walks one slice across them.

>>> d = parse_front("L1 R1")
>>> classical_invariants(d)["tb"]
-1
"""

import re
from itertools import accumulate

from .errors import DomainError

_TOKEN_RE = re.compile(r"([LXR])([0-9]+)")
_SHIFT = {"L": 2, "X": 0, "R": -2}  # the change in strand count


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
    """A validated front word, its strand counts and event labels, and
    what they determine.

    Set on construction, which checks every position against the strand
    count of its slice, an integer count per event (no strand ids):
      events      list of (kind, pos)
      word        the event word as text
    Counted on first use:
      n_left      left cusps; n_right (equal) and n_ids = 2 * n_left
      counts      tuple of strand counts, one per slice (len(events)+1)
    Read off the counts on each use: max_strands, the largest count.
    Computed on first use, in one run of the word (simulate) on one
    list, each event's pair read as the run passes it:
      crossings   list of (event_index, pos, upper_id, lower_id)
      cusps       list of (event_index, kind, pos, upper_id, lower_id)
    and from one walk of the cusp cycles on that cusp list (cusp_walk):
      comp_of     id -> component index (components numbered by oldest id)
      components  list of sorted id lists
      n_components
      potential   id -> raw Maslov potential, 0 on the lower strand of each
                  component's first left cusp; even means pointing right
      defects     per component, the size of the potential's jump around
                  its cycle (0 when single valued)
    No slice's ids are kept: a reader of slices runs simulate itself.

    With no parent the whole word is checked.  A windowed build takes a
    parent front and window=(w0, w1_old): `events` is the parent's word
    with events[w0:w1_old] replaced, so the rewritten window is
    events[w0:w1_new] and the rest is the parent's.  Its word is the
    parent's splice of that window (splice), which checks the window
    alone; a full build is the splice of the whole word into the empty
    front.  A windowed build inherits the parent's counts, not its
    labels: on first use its counts are the parent's outside the window
    and the window's own inside it.  Its labels are one run of the whole
    word, as a full build's are, so a front whose labels are never read
    (most states of a search) never runs its word.
    """

    _LAZY = {"n_left": "_count_left", "counts": "_count",
             "_offsets": "_offset", "crossings": "_sweep", "cusps": "_sweep",
             "comp_of": "_walk", "components": "_walk",
             "n_components": "_walk", "potential": "_walk",
             "defects": "_walk"}

    def __init__(self, events, parent=None, window=None):
        if parent is None:
            # a full build rewrites the empty front's one slice
            events = [(k, int(p)) for k, p in events]
            parent, window = _EMPTY, (0, 0)
        w0, w1_old = window
        w1_new = w1_old + len(events) - len(parent.events)
        self.word = parent.splice(w0, w1_old, events[w0:w1_new])
        self.events = events
        self._pending = (parent.counts, w0, w1_new, w1_old)

    def splice(self, w0, w1_old, new):
        """The word of this front with events[w0:w1_old] replaced by the
        events `new`.  Their positions are checked first against this
        front's strand counts, from its count at w0, and they must end
        with its count at w1_old, as every move's window does; the rest
        of the word then stays valid (check_window).  Raises the
        DomainError of a full build of the new word.  The new tokens go
        between the word's own, cut at token offsets read off the word
        on first use, so a search keys a candidate by its word without
        building it."""
        counts, events = self.counts, self.events
        check_window(events, w0, w1_old, new, counts[w0], counts[w1_old])
        offsets, word = self._offsets, self.word
        parts = [word[:offsets[w0] - 1]] if w0 else []
        if new:
            parts.append(" ".join([f"{k}{p}" for k, p in new]))
        if w1_old < len(events):
            parts.append(word[offsets[w1_old]:])
        return " ".join(parts)

    def _count_left(self):
        self.n_left = _lefts(self.events)

    def _count(self):
        """Set counts: the parent's outside the window, events[w0:w1_new]
        counted from the parent's count at w0."""
        counts, w0, w1_new, w1_old = self.__dict__.pop("_pending")
        run = accumulate([_SHIFT[k] for k, _ in self.events[w0:w1_new]],
                         initial=counts[w0])
        self.counts = counts[:w0] + tuple(run) + counts[w1_old + 1:]

    def _offset(self):
        # token i starts at _offsets[i]; the last entry is len(word) + 1
        self._offsets = tuple(accumulate(
            [len(t) + 1 for t in self.word.split()], initial=0))

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
        return max(self.counts)

    def __repr__(self):
        return f"FrontDiagram({self.word!r})"

    def _sweep(self):
        crossings = []
        cusps = []
        stack = []
        run = simulate(self.events, stack, 0)
        for i, (kind, pos) in enumerate(self.events):
            if kind == "L":
                next(run)  # a left cusp's pair is read after it
            u, l = stack[pos - 1], stack[pos]
            if kind == "X":
                crossings.append((i, pos, u, l))
            else:
                cusps.append((i, kind, pos, u, l))
            if kind != "L":
                next(run)  # a crossing's or right cusp's before it
        self.crossings = crossings
        self.cusps = cusps

    def _walk(self):
        potential, comp_of, self.defects = cusp_walk(self.cusps)
        ids = range(self.n_ids)
        self.potential = [potential[a] for a in ids]
        self.comp_of = [comp_of[a] for a in ids]
        components = [[] for _ in self.defects]
        for a, c in enumerate(self.comp_of):
            components[c].append(a)
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
_EMPTY.__dict__.update(events=[], word="", counts=(0,))


def _lefts(events):
    return sum(k == "L" for k, _ in events)


def check_window(events, i, stop, window, count, goal):
    """Check the positions of the events `window`, which replace
    events[i:stop] of a valid word, against the strand count, from
    `count` strands at slice i, and that they end with `goal` strands,
    the word's count at slice stop, so the rest of the word keeps its
    positions.  Raises the DomainError of a full build of the new word,
    its event indices and its cusp counts read in the whole word."""
    for e, (kind, pos) in enumerate(window, i):
        if kind == "L":
            if not 1 <= pos <= count + 1:
                raise DomainError(
                    f"invalid position {pos} at event {e} (L{pos}) "
                    f"with {count} strands")
            count += 2
        elif kind in ("X", "R"):
            if not 1 <= pos <= count - 1:
                raise DomainError(
                    f"invalid position {pos} at event {e} ({kind}{pos}) "
                    f"with {count} strands")
            if kind == "R":
                count -= 2
        else:
            raise DomainError(f"unknown event kind {kind!r} at event {e}")
    if count != goal:
        # a full word ends with no strands: its count there is
        # 2 * (left - right cusps)
        left = _lefts(events) - _lefts(events[i:stop]) + _lefts(window)
        raise DomainError(
            f"unbalanced cusps: {left} left, "
            f"{left - (count - goal) // 2} right")


def simulate(events, stack, nid):
    """Run a valid run of events on `stack`, a list changed in place: a
    left cusp inserts the labels nid, nid + 1, the next one nid + 2,
    nid + 3, and so on.  Yields the stack after each event."""
    for kind, pos in events:
        if kind == "L":
            stack[pos - 1:pos - 1] = (nid, nid + 1)
            nid += 2
        elif kind == "X":
            stack[pos - 1], stack[pos] = stack[pos], stack[pos - 1]
        else:
            del stack[pos - 1:pos + 1]
        yield stack


def record_cusps(cusps, born_with, dies_with):
    """Record the partners at the cusps `cusps`, entries (event_index,
    kind, pos, upper, lower) as FrontDiagram.cusps lists them:
    born_with[x] = (y, step) when x is born with y at a left cusp,
    dies_with[x] likewise at a right cusp, where step is mu(y) - mu(x),
    -1 from the upper strand and 1 from the lower."""
    for _, kind, _, u, l in cusps:
        table = born_with if kind == "L" else dies_with
        table[u] = (l, -1)
        table[l] = (u, 1)


def walk_cycle(a, born_with, dies_with):
    """One walk around the cusp cycle of the label `a`, on the partners
    of record_cusps: from mu(a) = 0 across its death cusp first, then
    across births and deaths in turn, up to the label born with `a`.

    Returns (potential, jump): the raw Maslov potential, label -> mu,
    of each label on the cycle, and mu(a) less the value the birth cusp
    that closes the cycle gives it, the potential's jump around the
    cycle.  Starting from another label of the cycle shifts every
    difference mu(x) - mu(y) by 0 or +-jump, and keeps the jump's size.
    """
    stop = born_with[a][0]
    potential = {}
    v = 0
    for _ in dies_with:  # a cycle crosses each death cusp once
        b, step = dies_with[a]
        potential[a] = v
        v += step
        potential[b] = v
        if b == stop:
            return potential, v + born_with[b][1]
        a, step = born_with[b]
        v += step
    raise AssertionError("cusp cycle does not close")


def cusp_walk(cusps):
    """One walk of the cusp cycles of a front, from its cusp list
    `cusps` (as FrontDiagram.cusps lists it, on any strand labels).

    Returns (potential, comp_of, defects): dicts label -> raw Maslov
    potential and label -> component, and per component the size of the
    potential's jump around its cycle (0 when single valued).  A strand
    meets two cusps, its birth and its death, so the cusp edges form one
    cycle per component, numbered by its first left cusp.  The walk
    (walk_cycle) goes once around each cycle from the lower strand of
    that cusp, across its death cusp first and then across births and
    deaths in turn, setting mu(upper) = mu(lower) + 1 at each; the jump
    left at the birth cusp that closes the cycle is the defect.  Strands
    reverse direction at every cusp, so the potential's parity is the
    orientation.  A gf-mode trace replay keeps the partners of its
    running front and walks one cycle per graded pinch; a refused pinch
    takes its message from the whole-front walk of a FrontDiagram of
    its front, which runs this.
    """
    born_with, dies_with = {}, {}
    record_cusps(cusps, born_with, dies_with)
    potential = {}
    comp_of = {}
    defects = []
    # the upper strand of each left cusp, in word order
    for first, (lower, step) in born_with.items():
        if step > 0 or first in comp_of:
            continue
        cycle, jump = walk_cycle(lower, born_with, dies_with)
        if jump % 2:
            raise AssertionError("orientation cycle has odd length")
        potential |= cycle
        comp_of |= dict.fromkeys(cycle, len(defects))
        defects.append(abs(jump))
    return potential, comp_of, defects


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
            if defect != 0:
                raise AssertionError(
                    f"inconsistent potential on component {c} with r = 0")
            mods.append(None)
        else:
            if defect != 2 * abs(rot[c]):
                raise AssertionError(
                    f"inconsistent potential on component {c}: "
                    f"defect {defect}")
            mods.append(defect)
        for a in ids:
            v = diagram.potential[a]
            values[a] = v % defect if defect else v
    return MaslovPotential(values, mods)
