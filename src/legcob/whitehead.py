"""Whitehead doubles of knot fronts and their genus-one filling traces.

The double replaces every strand by two antiparallel copies: each base
event becomes a short group of events on the copies, and a clasp
inserted after the first cusp group makes it the tb-twisted double.
Replacing the clasp by a plain cut (close and reopen the two lowest
strands) gives an unknotted loop with tb -1, which a single birth plus
isotopy moves can reach; two merge pinches then trade the cut for the
clasp, so the whole trace is a genus-one filling.

The isotopy from the standard eye to the cut loop is built
constructively: the eye is a thin rectangle around the cut point, and
its free end (the tongue tip) walks once around the base knot.  Every
base feature the tip passes materializes as its doubled event group,
and consecutive stages differ by a handful of moves in a small window,
which a bidirectional search fills in.
"""

from collections import defaultdict

from .errors import DomainError
from .front import FrontDiagram, classical_invariants, parse_front, simulate
from .moves import ISOTOPY_KINDS, CobordismTrace, trace_summary
from .search import connect_fronts

_CLASP = [("L", 2), ("X", 1), ("X", 3), ("R", 2)]
_CUT = [("R", 1), ("L", 1)]
# fish in the cut region, fish two strands below, then merge both fish
# cusps with their neighbors: the four clasp events replace the cut
_CLASP_ENDING = [("R1a", 5, 1), ("R1b", 8, 2), ("PM", 7), ("PM", 3)]
# The cut sits at slice 1 on strand id 0, the upper strand of the L1 a
# valid front opens with.
_CUT_SLICE, _CUT_ID = 1, 0

# Cap on the work of one double: base events^2 x (max strands + 2).
# The tongue walk has a stage per base feature, and each stage's search
# builds fronts whose words grow with the base, so the time is about
# quadratic in the events and linear in the width.  It also bounds the
# base the walk simulates once.  Timed on an Intel Xeon (Python 3.11),
# ten runs each, the largest admitted bases took 0.22 to 0.37 s of CPU
# (the twist front with 87 crossings, 49,686 units, 4 to 7 microseconds
# a unit) and 0.26 to 0.45 s (the 13-strand closure of s1..s12, 40,432
# units, 6 to 11 microseconds); `leg wh` answers them in 0.3 to 0.5 s.
MAX_DOUBLE_WORK = 5 * 10**4


def _doubled(kind, a):
    """The doubled group of a base event of kind: its events on the
    copies of its strands, the lowest copy at height a."""
    if kind == "L":
        return [("L", a), ("L", a), ("X", a + 1)]
    if kind == "R":
        return [("X", a + 1), ("R", a), ("R", a)]
    return [("X", a + 1), ("X", a), ("X", a + 2), ("X", a + 1)]


def _double_groups(base):
    return [_doubled(kind, 2 * h - 1) for kind, h in base.events]


def _assemble(base, middle):
    groups = _double_groups(base)
    events = list(groups[0]) + middle
    for g in groups[1:]:
        events.extend(g)
    return FrontDiagram(events)


def whitehead_diagram(base):
    """The clasped double of a knot front (tb 1, rotation 0)."""
    if base.n_components != 1:
        raise DomainError(
            f"whitehead double needs a knot front, got "
            f"{base.n_components} components")
    return _assemble(base, list(_CLASP))


def _cut_loop(base):
    return _assemble(base, list(_CUT))


def _diff_span(ev_a, ev_b):
    """The differing stretch of two event lists: (lo, hi_a, hi_b) with
    ev_a[lo:hi_a] and ev_b[lo:hi_b] between a common prefix and a common
    suffix."""
    lo = 0
    while lo < len(ev_a) and lo < len(ev_b) and ev_a[lo] == ev_b[lo]:
        lo += 1
    hi_a, hi_b = len(ev_a), len(ev_b)
    while hi_a > lo and hi_b > lo and ev_a[hi_a - 1] == ev_b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    return lo, hi_a, hi_b


def _loop_visits(base):
    """Walk the knot once around, starting just right of the cut.

    Yields (strand_id, direction, features): direction +1 walks right
    toward the strand's death cusp, -1 walks left toward its birth, and
    features lists ('X', event, other_id) crossings in walking order
    followed by ('end', event, partner_id) for the turn cusp.  The cut
    strand opens the walk (right half), and the walk ends at the closing
    turn onto it, the birth at event 0, whose feature is
    ('close', 0, _CUT_ID): the close stage is the cut loop.
    """
    born, dies = {}, {}
    for i, kind, pos, u, l in base.cusps:
        if kind == "L":
            born[u] = (i, l)
            born[l] = (i, u)
        else:
            dies[u] = (i, l)
            dies[l] = (i, u)
    xs = defaultdict(list)
    for i, pos, u, l in base.crossings:
        xs[u].append((i, l))
        xs[l].append((i, u))
    visits = []
    cur, direction = _CUT_ID, 1
    while True:
        if direction > 0:
            e, partner = dies[cur]
            feats = [("X", i, o) for i, o in sorted(xs[cur])]
        else:
            e, partner = born[cur]
            feats = [("X", i, o) for i, o in sorted(xs[cur], reverse=True)]
        if partner == _CUT_ID:
            visits.append((cur, direction, feats + [("close", e, partner)]))
            return visits
        visits.append((cur, direction, feats + [("end", e, partner)]))
        cur, direction = partner, -direction


class _TongueState:
    """Coverage bookkeeping for the tongue walk, renderable to a front.

    spans[w] is the slice range where strand w already carries its two
    companion copies; mat holds base event indices whose doubled group
    has materialized; tip is [strand, direction, gap], the tip event
    sitting on slice gap (never below the cut slice, where it follows the
    start edge L1).
    stacks[t] lists the base's strand ids on slice t, from one run of
    its word (front.simulate); MAX_DOUBLE_WORK bounds the base.
    """

    def __init__(self, base):
        self.base = base
        self.stacks = [()] + list(map(tuple, simulate(base.events, [], 0)))
        self.mat = set()
        self.spans = {_CUT_ID: [_CUT_SLICE, _CUT_SLICE]}
        self.tip = [_CUT_ID, 1, _CUT_SLICE]

    def covered_at(self, w, t, at_event=False):
        if w not in self.spans:
            return False
        lo, hi = self.spans[w]
        if not lo <= t <= hi:
            return False
        if at_event and w == self.tip[0] and self.tip[1] > 0 \
                and t == self.tip[2] \
                and not (w == _CUT_ID and t >= _CUT_SLICE):
            # the event at index t sits just right of a right-moving
            # tip, so the tip strand's copies have not reached it yet;
            # the cut strand keeps its original copies right of the cut
            return False
        return True

    def _c_below(self, t, pos, at_event=False):
        return sum(1 for w in self.stacks[t][:pos]
                   if self.covered_at(w, t, at_event))

    def _group(self, e):
        kind, h = self.base.events[e]
        return _doubled(kind, 2 * self._c_below(e, h - 1, at_event=True) + 1)

    def _tip_event(self):
        wid, direction, gap = self.tip
        a = 2 * self._c_below(gap, self.stacks[gap].index(wid)) + 1
        return ("R", a) if direction > 0 else ("L", a)

    def render(self):
        ev = []
        gap = self.tip[2]
        for g in range(len(self.base.events) + 1):
            if g == _CUT_SLICE:
                ev.append(("L", 1))
            if gap == g:
                ev.append(self._tip_event())
            if g < len(self.base.events) and g in self.mat:
                ev.extend(self._group(g))
        return FrontDiagram(ev)


def _extend_span(state, g):
    lo, hi = state.spans.get(state.tip[0], (g, g))
    state.spans[state.tip[0]] = [min(lo, g), max(hi, g)]


def _advance(cur, target, moves):
    if target.word == cur.word:
        return cur
    lo, hi_a, hi_b = _diff_span(cur.events, target.events)
    old, new = cur.events[lo:hi_a], target.events[lo:hi_b]
    # One search per stage, picked by the stretch that differs.  A stage
    # that keeps its events' kinds is the tip sliding past a group: a few
    # commutes.  Any other adds a doubled group and needs fish growth,
    # which multiplies the branching by the stack height, so fish grow
    # only at the heights the stretch touches, padded by two.  Over
    # 97,890 stage gaps (the doubles of the twist knots up to 87
    # crossings, the closures of s1..s(s-1) up to 13 strands, the zigzag
    # and 3,206 random positive-braid knots on 2 to 6 strands) the commute
    # search connected every gap of the first kind within 54 candidates
    # (37 new states, the budget's unit) and 4 moves, and the fish search
    # every other gap within 1,163 candidates (1,149 new states) and 3
    # moves.
    if sorted(k for k, _ in old) == sorted(k for k, _ in new):
        kinds, fish, depth, budget = ("C", "Ch"), frozenset(), 6, 20000
    else:
        kinds, depth, budget = ISOTOPY_KINDS, 5, 120000
        fish = {h for _, pos in old + new for h in range(pos - 2, pos + 4)}
    window = (max(0, lo - 2), max(hi_a, hi_b) + 2)
    seq = connect_fronts(cur, target, depth=depth, budget=budget,
                         window=window, kinds=kinds, fish_heights=fish)
    if seq is not None:
        moves.extend(seq)
        return target
    raise DomainError(
        f"could not connect tongue stages {cur.word!r} -> {target.word!r}")


def _slide_to(state, cur, moves, fe, vdir):
    """Walk the tip up to the slot of base event fe, one hop at a time,
    rightward for vdir = 1 and leftward for vdir = -1."""
    stop = fe if vdir > 0 else fe + 1
    while (stop - state.tip[2]) * vdir > 0:
        state.tip[2] += vdir
        _extend_span(state, state.tip[2])
        cur = _advance(cur, state.render(), moves)
    return cur


def _cover(state, cur, moves, feat, vdir):
    kind, fe, other = feat
    if kind == "X":
        if state.covered_at(other, fe):
            state.mat.add(fe)
        state.tip[2] = fe + 1 if vdir > 0 else fe
    else:
        state.mat.add(fe)
        state.tip = [other, -vdir, fe if vdir > 0 else fe + 1]
    _extend_span(state, state.tip[2])
    return _advance(cur, state.render(), moves)


def _drag_moves(base):
    """Isotopy moves from the standard eye L1 R1 to the cut loop."""
    state = _TongueState(base)
    cur = state.render()
    moves = []
    for wid, vdir, feats in _loop_visits(base):
        for feat in feats:
            cur = _slide_to(state, cur, moves, feat[1], vdir)
            if feat[0] != "close":
                cur = _cover(state, cur, moves, feat, vdir)
    _advance(cur, _cut_loop(base), moves)
    return moves


def whitehead_double(base, gf_mode=True):
    """Clasped double plus its one-birth, two-pinch filling trace.

    INPUT: a knot front whose events^2 x (max strands + 2) is at most
    MAX_DOUBLE_WORK.  In gf mode the base must have rotation number
    zero and every pinch of the trace passes the grading check.
    OUTPUT: (diagram, trace); trace starts from the empty front and
    replays to the diagram with genus 1.
    """
    events, strands = len(base.events), base.max_strands
    if events ** 2 * (strands + 2) > MAX_DOUBLE_WORK:
        raise DomainError(
            f"front too large to double: {events} events on {strands} "
            f"strands exceed the search cap of {MAX_DOUBLE_WORK:.3g} "
            f"(events^2 x (strands + 2))")
    diagram = whitehead_diagram(base)
    if gf_mode:
        rot = classical_invariants(base)["rotation"][0]
        if rot != 0:
            raise DomainError(
                f"gf mode requires rotation number 0, base has {rot}")
    moves = [("B", 0, 1)] + _drag_moves(base) + list(_CLASP_ENDING)
    trace = CobordismTrace(parse_front(""), moves, gf_mode=gf_mode)
    # the one replay of the trace: `leg wh` reports genus 1 on the
    # strength of this check, so it must not vanish under `python -O`
    summary = trace_summary(trace)
    if summary["end"].word != diagram.word or summary["genus"] != 1:
        raise AssertionError(
            f"trace missed the double: ends at {summary['end'].word!r} "
            f"with genus {summary['genus']}")
    return diagram, trace
