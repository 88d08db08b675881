"""Moves on front words and replayable cobordism traces.

A move rewrites a small window of the event word, (w0, w1_old, new
events), which _rewrite reads off the table below.  The old
FrontDiagram splices it in (FrontDiagram.splice): it checks only that
window's positions, against its strand counts, with the checks of a
full build, so an illegal rewrite surfaces as "move not applicable"
instead of a corrupt diagram, and cuts the window's tokens into its
own word.  The new FrontDiagram's strand counts are the old diagram's
outside the window; its event labels, if read at all, are one run of
the whole new word (see FrontDiagram).  isotopy_candidates yields the
search's moves with their windows, so a search keys a candidate by its
spliced word and builds no FrontDiagram for it.

Move syntax, one per trace line (s = slice index, h = height, e = event
index, all 0-based except heights which are 1-based like event words):

    B s h     birth: insert L_h R_h at slice s (new unknot eye)
    P s h     pinch the strands at heights h, h+1: insert R_h L_h
    PM e      merge pinch: delete the adjacent pair R_h L_h at e, e+1
    R1a s h   grow a fish below the strand at height h in slice s
    R1b s h   grow a fish above the strand at height h in slice s
    R1a- e    remove the fish whose three events start at e
    R1b- e    remove the fish whose three events start at e
    R2u e     slide the cusp at event e up past the strand above it
    R2d e     slide the cusp at event e down past the strand below it
    R2u- e    undo an R2u (matches the three-event pattern at e)
    R2d- e    undo an R2d
    R3 e      triangle move on the three crossings at e, e+1, e+2
    C e       commute the independent events at e and e+1
    Ch e      commute, but when a left cusp moves back past a right cusp
              at its own height (R_h L_h), place the new pair below the
              dying one instead of above

B, P and PM change the surface topology; the rest are isotopies of the
front and leave tb, rotation numbers, component count and the graded
ruling count unchanged.

apply_move applies one move to a FrontDiagram and grades nothing; the
search calls it only for the states it expands or returns.  A trace
replay (see _replay) builds no FrontDiagram per move.  It carries one
running front in the labels' one format, a label pair per cusp event
as FrontDiagram.cusps lists them: the event list, those pairs and the
labels of one slice, which each move walks to its window (_seek).  It
rewrites each move's window by the same rule (_rewrite), checks the
window's positions with the build's own check (front.check_window),
runs the window alone on the slice and splices its events and pairs
in.  The labels are the nodes of a union-find that counts the
surface's connected pieces.  In gf mode it also checks each pinch's
grading (_check_grading) by walking one cusp cycle of its running
front (front.walk_cycle) on the cusp partners the replay keeps, seeded
from the start front's cusp list; no other code path grades a pinch.
Only the end front is built, and for a refused pinch the front it
pinches, whose own whole-front walk gives the numbers of the message.
"""

from collections import defaultdict
from fractions import Fraction

from .errors import DomainError
from .front import (_SHIFT, FrontDiagram, check_window, parse_front,
                    record_cusps, walk_cycle)

# Each move with its inverse as local rewrites old -> new of the event
# word, positions written as offsets from a height h.  A move whose old
# side is empty inserts new at a slice (K s h); the others match old at
# an event (K e) and read h off it.  The inverse kind rewrites new ->
# old.  A birth has no inverse; R3 is its own.
_REWRITES = (
    ("B", None, [("", "L0 R0")]),
    ("P", "PM", [("", "R0 L0")]),
    ("R1a", "R1a-", [("", "L1 X0 R1")]),
    ("R1b", "R1b-", [("", "L0 X1 R0")]),
    ("R2u", "R2u-", [("L0", "L-1 X0 X-1"), ("R0", "X-1 X0 R-1")]),
    ("R2d", "R2d-", [("L0", "L1 X0 X1"), ("R0", "X1 X0 R1")]),
    ("R3", "R3", [("X0 X1 X0", "X1 X0 X1")]),
)


def _tables():
    """kind -> [(old, new)] with sides as (event kind, offset) tuples,
    kind -> inverse kind, and kind -> argument count."""
    def side(text):
        return tuple((t[0], int(t[1:])) for t in text.split())

    rules, inverse = defaultdict(list), {}
    for kind, inv, pairs in _REWRITES:
        rules[kind] += [(side(old), side(new)) for old, new in pairs]
        inverse[kind] = inv
        if inv:
            rules[inv] += [(new, old) for old, new in rules[kind]]
            inverse[inv] = kind
    arity = {kind: 1 if r[0][0] else 2 for kind, r in rules.items()}
    arity.update(C=1, Ch=1)
    return dict(rules), inverse, arity


_RULES, _INVERSE, _MOVE_ARITY = _tables()


def parse_move(text):
    """Parse one move line like 'B 0 1' or 'PM 3' into a tuple."""
    tok = text.split()
    if not tok or tok[0] not in _MOVE_ARITY:
        raise DomainError(f"bad move line {text!r}")
    kind = tok[0]
    if len(tok) != 1 + _MOVE_ARITY[kind]:
        raise DomainError(
            f"bad move line {text!r}: {kind} takes {_MOVE_ARITY[kind]} "
            f"argument(s)")
    args = []
    for t in tok[1:]:
        # isdigit alone admits other scripts' digits and superscripts
        if not (t.isascii() and t.isdigit()):
            raise DomainError(
                f"bad move line {text!r}: arguments are decimal integers "
                f">= 0")
        args.append(int(t))
    return (kind, *args)


def format_move(move):
    return " ".join(str(x) for x in move)


def _fail(move, reason):
    raise DomainError(f"move not applicable ({format_move(move)}): {reason}")


_PINCHES = ("P", "PM")


def _check_grading(move, events, pairs, labels, born_with, dies_with):
    """A pinch P s h needs mu(a) - mu(b) = 1 for the strands a above b
    at heights h, h+1 of slice s (the new right cusp matches the
    potential), a merge PM e equal cusp levels mu(a) = mu(b) for a dying
    at its R_h and b born at its L_h; both modulo the potential's mod,
    its component's defect (twice its absolute rotation number).

    The front before the move is the replay's: its events, the label
    pair of each cusp (`pairs`, None at a crossing) and `labels`, those
    of slice s.  A pinch reads a and b off that slice, a merge off the
    upper labels of the pairs at e and e + 1.  It walks one cusp cycle,
    b's (front.walk_cycle), on born_with and dies_with, the cusp
    partners the replay keeps.  If the walk never meets a, the two
    strands lie on distinct components, whose potentials can be shifted
    freely.  Otherwise mu(a) - mu(b) - gap is tested modulo the cycle's
    jump, which does not depend on where the walk starts.  A refused
    pinch takes the numbers of its message from the whole-front walk of
    FrontDiagram(events), at the ids of a and b: that front numbers its
    strands by left cusp in word order, so the labels of the left
    cusps' pairs, in that order, are its ids."""
    if move[0] == "P":
        h = move[2]
        a, b, gap, what = labels[h - 1], labels[h], 1, "potentials"
    else:
        e = move[1]
        a, b, gap, what = pairs[e][0], pairs[e + 1][0], 0, "cusp levels"
    cycle, jump = walk_cycle(b, born_with, dies_with)
    if a not in cycle:
        return
    diff = cycle[a] - cycle[b] - gap
    if (diff % jump if jump else diff) == 0:
        return
    d = FrontDiagram(events)
    ids = [x for (k, _), p in zip(events, pairs) if k == "L" for x in p]
    a, b = ids.index(a), ids.index(b)
    m = d.defects[d.comp_of[a]] or None
    mu_a, mu_b = d.potential[a], d.potential[b]
    if m:
        mu_a, mu_b = mu_a % m, mu_b % m
    raise DomainError(
        f"grading mismatch at pinch: {what} {mu_a}, {mu_b} (mod {m})")


def _commute(first, second, below):
    """[second', first'], the adjacent events first, second swapped, or
    why they do not commute.  On the slice between them strand i sits at
    2i and the gap above it at 2i - 1; a right cusp's dead pair and a
    left cusp's unborn pair are gaps.  R_h L_h, a birth where a pair
    died, may go either way: the birth above, or below when `below`."""
    (k1, p1), (k2, p2) = first, second
    lo1, hi1 = (2 * p1 - 1,) * 2 if k1 == "R" else (2 * p1, 2 * p1 + 2)
    lo2, hi2 = (2 * p2 - 1,) * 2 if k2 == "L" else (2 * p2, 2 * p2 + 2)
    tie = (k1, k2, p1) == ("R", "L", p2)
    if hi2 < lo1 or tie and not below:
        return [(k2, p2), (k1, p1 + _SHIFT[k2])]
    if lo2 > hi1 or tie:
        return [(k2, p2 - _SHIFT[k1]), (k1, p1)]
    if k1 != "R" and k2 != "L":
        return "events share a strand"
    return "strands interleave vertically"


def apply_move(diagram, move):
    """Apply one move to a FrontDiagram, returning the new diagram.  It
    is built from `diagram`, checking the rewritten window only, so its
    position checks reject an illegal rewrite; its counts and labels
    wait for their first read.  No pinch grading is checked here: only
    a gf-mode replay grades (see _replay)."""
    w0, w1_old, repl = _rewrite(diagram.events, move)
    events = diagram.events[:]
    events[w0:w1_old] = repl
    try:
        return FrontDiagram(events, diagram, (w0, w1_old))
    except DomainError as err:
        _fail(move, f"rewritten word is invalid: {err}")


def _match(rules, ev, e):
    """(h, old, new) of the rule whose old side starts at event e."""
    if not 0 <= e < len(ev):
        return None
    first, pos = ev[e]
    for old, new in rules:
        if old[0][0] == first:
            h = pos - old[0][1]
            if ev[e:e + len(old)] == [(k, h + o) for k, o in old]:
                return h, old, new
    return None


def _placed(e, h, old, new):
    """The window of the rule old -> new at event or slice e and height
    h: (w0, w1_old, new events)."""
    return e, e + len(old), [(k, h + o) for k, o in new]


def _rewrite(ev, move):
    """The window [w0, w1_old) of the event word `ev` that `move`
    rewrites and its replacement events; the caller checks their
    positions (front.check_window)."""
    kind = move[0]
    arity = _MOVE_ARITY.get(kind)
    if arity is None or len(move) != 1 + arity:
        raise DomainError(f"bad move {move!r}")
    e = move[1]  # an event, or the slice of an insertion

    if kind in ("C", "Ch"):
        if not 0 <= e < len(ev) - 1:
            _fail(move, f"no event pair at {e}")
        repl = _commute(ev[e], ev[e + 1], kind == "Ch")
        if isinstance(repl, str):
            _fail(move, repl)
        return e, e + 2, repl
    if arity == 2:
        if not 0 <= e <= len(ev):
            _fail(move, f"no slice {e}")
        (old, new), = _RULES[kind]
        return _placed(e, move[2], old, new)
    found = _match(_RULES[kind], ev, e)
    if found is None:
        _fail(move, f"no pattern match at event {e}")
    return _placed(e, *found)


def invert_move(before, move, after):
    """The move undoing `move`, which takes `before` to `after`: applying
    the result to `after` gives back `before`'s event word.  Births have
    no inverse in the move set.
    """
    kind = move[0]
    if kind in ("C", "Ch"):
        # C and Ch differ on R_h L_h alone: take the one giving back before
        e = move[1]
        back = _commute(*after.events[e:e + 2], False)
        return ("C" if back == before.events[e:e + 2] else "Ch", e)
    inverse = _INVERSE.get(kind)
    if inverse is None:
        raise DomainError(f"no inverse move for {move!r}")
    if _MOVE_ARITY[inverse] == 1:
        return (inverse, move[1])
    h, _, _ = _match(_RULES[kind], before.events, move[1])
    return (inverse, move[1], h)


# Event-indexed isotopy kinds in the order a search tries them: removals
# first, then the neutral rewrites, then the expansions.  Fish growth
# (R1a/R1b, indexed by slice and height) comes after all of them.
ISOTOPY_KINDS = ("R1a-", "R1b-", "R2u-", "R2d-", "C", "Ch", "R3",
                 "R2u", "R2d")

# Event-indexed table kind -> its rules; fish growth's two kinds.
_EVENT_RULES = {kind: rules for kind, rules in _RULES.items()
                if rules[0][0]}
_FISH = [(kind, *_RULES[kind][0]) for kind in ("R1a", "R1b")]


def isotopy_candidates(diagram, window, kinds, fish_heights):
    """The isotopy moves (no B/P/PM) whose event or slice index falls in
    window = (lo, hi) and that rewrite the word, each with its window
    (w0, w1_old, new events) as _rewrite gives it.

    For each event, the kinds in the order given where they rewrite: a
    table kind where _match finds one of its old sides at the event, C
    where _commute accepts the event and the next, and Ch there too
    where it places the pair otherwise than C (R_h L_h) or C is not
    among the kinds, since elsewhere the two give one word.  Then fish
    growth by slice and height, at the heights in fish_heights (None:
    every height), since fish at every height of a tall diagram dominate
    the branching otherwise.  The new events' positions are not checked
    here: FrontDiagram.splice checks them, as a build would.
    """
    lo, hi = max(window[0], 0), window[1]
    ev = diagram.events
    n = len(ev)
    rules = [_EVENT_RULES.get(kind) for kind in kinds]  # None: C or Ch
    ties_only = "C" in kinds
    for e in range(lo, min(hi, n - 1) + 1):
        above = None
        for kind, table in zip(kinds, rules):
            if table:
                found = _match(table, ev, e)
                if found:
                    yield (kind, e), _placed(e, *found)
                continue
            if above is None:
                above = (_commute(ev[e], ev[e + 1], False) if e < n - 1
                         else "no event pair")
            if isinstance(above, str):
                continue
            if kind == "C":
                yield ("C", e), (e, e + 2, above)
            elif kind == "Ch":
                below = _commute(ev[e], ev[e + 1], True)
                if below != above or not ties_only:
                    yield ("Ch", e), (e, e + 2, below)
    for s in range(lo, min(hi, n) + 1):
        for h in range(1, diagram.counts[s] + 1):
            if fish_heights is None or h in fish_heights:
                for kind, old, new in _FISH:
                    yield (kind, s, h), _placed(s, h, old, new)


class CobordismTrace:
    """A start front plus a move list that replays to the end front.

    gf_mode=True enforces the pinch grading checks on every P and PM
    during replay.
    """

    def __init__(self, start, moves, gf_mode=False):
        self.start = start
        self.moves = [tuple(m) for m in moves]
        self.gf_mode = gf_mode

    def __repr__(self):
        return (f"CobordismTrace({self.start.word!r}, {len(self.moves)} "
                f"moves, gf_mode={self.gf_mode})")


def parse_trace(text, gf_mode=False):
    """Parse a trace file: first line is the start word (may be empty),
    each following nonblank line is one move.  '#' starts a comment on
    any line, the first included."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    start = parse_front(lines[0] if lines else "")
    moves = [parse_move(body) for body in lines[1:] if body]
    return CobordismTrace(start, moves, gf_mode=gf_mode)


def format_trace(trace):
    out = [trace.start.word]
    out.extend(format_move(m) for m in trace.moves)
    return "\n".join(out) + "\n"


# The change in event count each move makes: every rule of a table
# kind changes it alike (new side less old side), and the commutes keep
# it.
_GROWTH = {kind: len(rules[0][1]) - len(rules[0][0])
           for kind, rules in _RULES.items()}
_GROWTH.update(C=0, Ch=0)

# Cap on the work of one replay, in events, counted from the move kinds
# before it starts: each move walks its one slice to the move's window
# from the nearest of where the last move left it and the front's two
# ends, runs the window, and follows at most two renamed strands to
# their death cusps, work of the front's event count; each pinch or
# merge of a gf-mode replay also walks the cusp cycle of one of its
# strands on the partners the replay keeps, as much again when that
# cycle is the whole front.  Timed on an Intel Xeon (Python 3.11), the
# largest admitted traces took at most 0.33 microseconds of CPU a unit:
# births alternating between a quarter and three quarters of 12,000
# nested eyes, each walk crossing a quarter of the front, 2.0e6 units in
# 0.63 to 0.66 s (1.1 s from the shell); alternating between its first
# and last slice, 0.06 s.  The largest braid closure MAX_CLOSURE_WORK
# admits (2 strands x 431 letters) takes 5.7e5 units in 0.015 s, the
# largest Whitehead double MAX_DOUBLE_WORK admits (the 13-strand
# closure) 1.2e5 in 0.016 s, and 999 graded pinches on an eye 2.0e6 in
# 0.012 s.
MAX_REPLAY_WORK = 2 * 10**6


def _check_replay_work(trace):
    """Refuse a trace whose replay work exceeds MAX_REPLAY_WORK."""
    n = len(trace.start.events)
    work = 0
    for move in trace.moves:
        work += 2 * n if trace.gf_mode and move[0] in _PINCHES else n
        # a front never shrinks below the empty one: a replay stops at
        # its first refused move
        n = max(n + _GROWTH.get(move[0], 0), 0)
    if work > MAX_REPLAY_WORK:
        raise DomainError(
            f"trace too large to replay: {work} events of work exceed the "
            f"cap of {MAX_REPLAY_WORK:.3g} (each move works on the whole "
            f"front, a graded pinch twice)")


def _seek(labels, events, pairs, t, goal):
    """Move `labels`, the labels of slice t, to slice goal in place, on
    the label pairs `pairs` of the cusps of `events`: going right a left
    cusp inserts its pair and a right cusp deletes it, going left the
    other way round, and a crossing swaps the labels at its heights."""
    if t <= goal:
        run, birth = range(t, goal), "L"
    else:
        run, birth = range(t - 1, goal - 1, -1), "R"
    for i in run:
        kind, pos = events[i]
        if kind == "X":
            labels[pos - 1], labels[pos] = labels[pos], labels[pos - 1]
        elif kind == birth:
            labels[pos - 1:pos - 1] = pairs[i]
        else:
            del labels[pos - 1:pos + 1]


def _death(events, pairs, t, h, label):
    """Give `label` to the strand at index h of slice t in the pair of
    its death cusp, found by following its height, and return that
    cusp's index."""
    for t in range(t, len(events)):
        kind, pos = events[t]
        if kind == "X":
            if pos - 1 <= h <= pos:
                h = 2 * pos - 1 - h  # to the other height of the crossing
        elif kind == "L":
            if h >= pos - 1:
                h += 2
        elif h >= pos - 1:
            if h <= pos:
                pairs[t][h - pos + 1] = label
                return t
            h -= 2


def _replay(trace):
    """(end front, births, pinches, pieces) of a trace, replayed on one
    running front: the event list, the label pair [upper, lower] of each
    cusp (None at a crossing) and the labels of one slice.  A label is a
    node of a union-find over the strands of every front the trace
    passes, so the surface's pieces are its classes; the start front's
    labels are its ids, and its pairs those of its cusp list.

    A move first walks the slice to its w0 (_seek), from the nearest of
    where the last move left it and the two ends, which hold no strand,
    and copies it; the walk goes on over the old window to its right
    edge.  It checks its window's positions (front.check_window) and, in
    gf mode, a pinch's grading on one cusp cycle of the front it pinches
    (_check_grading).  It then runs the new window on the copy, new
    strands taking fresh labels, and splices the window's events and
    pairs in; the copy, now the slice at the window's new right edge,
    is where the next move's walk starts.  It joins the two strands of
    each cusp in the window, and, when the window's right edge holds
    other labels than before, the old label at each height there with
    the new one.  Where the two differ the strand keeps one label: a new
    strand in place of one born in the old window takes the old label,
    in its pair in the window; any other strand is cut or joined there
    (a pinch or a fish cuts it, a merge or a fish removal joins it), and
    the pair of its death cusp (_death) takes the new label.

    The replay keeps, for the running front, each label's partner and
    mu step at its birth and at its death cusp, recorded first from the
    start front's cusp list (front.record_cusps), so a graded pinch
    walks one cusp cycle and not the whole front.  A move
    changes them at the cusps of its window, which the loop that joins
    their strands records, and at the death cusps of the strands it
    renames.  A new strand that takes an old label takes its birth
    partners too.  Both strands of one death cusp may be renamed, so
    those cusps are recorded once every label is final.  Entries of
    labels that left the front stay, unread, as their union-find nodes
    do."""
    _check_replay_work(trace)
    start, gf_mode = trace.start, trace.gf_mode
    events = start.events[:]
    pairs = [None] * len(events)
    parent = list(range(start.n_ids))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        a, b = find(a), find(b)
        if a != b:  # the older root stays, so new labels hang below
            parent[max(a, b)] = min(a, b)

    for i, _, _, u, l in start.cusps:
        pairs[i] = [u, l]
        union(u, l)
    born_with, dies_with = {}, {}
    record_cusps(start.cusps, born_with, dies_with)
    labels, at = [], 0
    for move in trace.moves:
        w0, w1_old, repl = _rewrite(events, move)
        w1_new = w0 + len(repl)
        n = len(events)
        if min(w0, n - w0) < abs(w0 - at):  # start from an end
            labels, at = [], 0 if w0 < n - w0 else n
        _seek(labels, events, pairs, at, w0)
        edge = labels[:]  # slice w0, which the new window runs on
        _seek(labels, events, pairs, w0, w1_old)
        try:
            check_window(events, w0, w1_old, repl, len(edge), len(labels))
        except DomainError as err:
            _fail(move, f"rewritten word is invalid: {err}")
        if gf_mode and move[0] in _PINCHES:
            _check_grading(move, events, pairs, edge, born_with, dies_with)
        nid = len(parent)
        window = []
        for kind, pos in repl:
            if kind == "X":
                edge[pos - 1], edge[pos] = edge[pos], edge[pos - 1]
                window.append(None)
                continue
            if kind == "L":
                pair = [len(parent), len(parent) + 1]
                parent += pair
                edge[pos - 1:pos - 1] = pair
            else:
                pair = edge[pos - 1:pos + 1]
                del edge[pos - 1:pos + 1]
            u, l = pair
            table = born_with if kind == "L" else dies_with
            table[u], table[l] = (l, -1), (u, 1)
            union(u, l)
            window.append(pair)
        old_window = pairs[w0:w1_old]
        events[w0:w1_old] = repl
        pairs[w0:w1_old] = window
        if labels != edge:
            ends = []  # the death cusps of renamed strands
            for h, (a, b) in enumerate(zip(labels, edge)):
                if a == b:
                    continue  # most heights keep their label: no union
                union(a, b)
                if b >= nid and any(a in p for p in old_window if p):
                    # b takes the place of a, born in the old window,
                    # and a is born at b's left cusp
                    pair = next(p for p in window if p and b in p)
                    pair[pair.index(b)] = edge[h] = a
                    partner, step = born_with[a] = born_with[b]
                    born_with[partner] = (a, -step)
                else:
                    ends.append(_death(events, pairs, w1_new, h, b))
            for t in ends:
                # both strands of one death cusp may be renamed: record
                # its partners once every label is final
                u, l = pairs[t]
                dies_with[u], dies_with[l] = (l, -1), (u, 1)
        labels, at = edge, w1_new
        # only a birth makes a piece that joins no label of the last
        # front; a move that made no label made no piece
        if move[0] != "B" and nid < len(parent) and any(
                find(a) >= nid for a in range(nid, len(parent))):
            raise AssertionError(f"untracked component after {move[0]}")
    pieces = len({find(pair[0]) for (kind, _), pair in zip(events, pairs)
                  if kind == "L"})
    births = sum(m[0] == "B" for m in trace.moves)
    pinches = sum(m[0] in _PINCHES for m in trace.moves)
    return FrontDiagram(events), births, pinches, pieces


def trace_summary(trace):
    """Replay a trace and report the surgery bookkeeping.

    OUTPUT: dict with end (FrontDiagram), births, pinches,
    chi = births - pinches, components (of the end front), pieces
    (connected pieces of the cobordism surface), and genus.  Genus
    (2 - components - chi) / 2 is a Fraction and is only reported when
    the trace starts from the empty front, i.e. the surface is a filling
    of the end front; other traces get genus None.

    >>> t = parse_trace("\\nB 0 1")
    >>> trace_summary(t)["genus"]
    Fraction(0, 1)
    """
    end, births, pinches, pieces = _replay(trace)
    chi = births - pinches
    is_filling = trace.start.n_ids == 0
    genus = None
    if is_filling and trace.moves:
        if pieces > 1:
            raise DomainError(
                "disconnected filling: genus per component not defined "
                f"({pieces} pieces)")
        genus = Fraction(2 - end.n_components - chi, 2)
    return {
        "end": end,
        "births": births,
        "pinches": pinches,
        "chi": chi,
        "components": end.n_components,
        "pieces": pieces,
        "genus": genus,
    }
