"""Moves on front words and replayable cobordism traces.

A move rewrites a small window of the event word.  The new
FrontDiagram is built from the old one: its construction checks only
that window's positions, against strand counts, with the checks of a
full build, so an illegal rewrite surfaces as "move not applicable"
instead of a corrupt diagram, and splices the window's tokens into the
old word's.  Its strand stacks are built on first read: the window is
simulated and the stacks outside it are the old diagram's, shared or
relabelled (see FrontDiagram).

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
ruling count unchanged.  A replay counts the surface's connected
pieces with a union-find over strand labels that each move carries
past its window (see _replay); the count walks no cusp cycles.
"""

from collections import defaultdict
from fractions import Fraction

from .errors import DomainError
from .front import FrontDiagram, parse_front

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


# Kinds that never change how many L, X and R events a front has: the
# table rules whose two sides hold the same events (R3), and the
# commutes, which swap two events and keep their kinds (see _commute).
COUNT_KEEPING_KINDS = frozenset(
    [kind for kind, rules in _RULES.items()
     if all(sorted(k for k, _ in old) == sorted(k for k, _ in new)
            for old, new in rules)]
    + ["C", "Ch"])


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


def _check_grading(diagram, move):
    """A pinch P s h needs mu(a) - mu(b) = 1 for the strands a above b
    at heights h, h+1 of slice s (the new right cusp matches the
    potential), a merge PM e equal cusp levels mu(a) = mu(b) for a dying
    at its R_h and b born at its L_h; both modulo the potential's mod,
    its component's defect (twice its absolute rotation number)."""
    kind, st = move[0], diagram.stacks
    if kind == "P":
        _, w, h = move
        a, b, gap, what = st[w][h - 1], st[w][h], 1, "potentials"
    elif kind == "PM":
        w, h = move[1], diagram.events[move[1]][1]
        a, b, gap, what = st[w][h - 1], st[w + 2][h - 1], 0, "cusp levels"
    else:
        return
    c = diagram.comp_of[a]
    if diagram.comp_of[b] != c:
        return  # potentials on distinct components can be shifted freely
    m = diagram.defects[c] or None
    mu_a, mu_b = diagram.potential[a], diagram.potential[b]
    if m:
        mu_a, mu_b = mu_a % m, mu_b % m
    diff = mu_a - mu_b - gap
    if (diff % m if m else diff) != 0:
        raise DomainError(
            f"grading mismatch at pinch: {what} {mu_a}, {mu_b} (mod {m})")


_SHIFT = {"L": 2, "X": 0, "R": -2}  # the change in strand count


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


def apply_move(diagram, move, gf_mode=False):
    """Apply one move to a FrontDiagram, returning the new diagram."""
    new, _, _, _ = _apply(diagram, move, gf_mode)
    return new


def _apply(diagram, move, gf_mode=False):
    """Internal applier.  Returns (new_diagram, w0, w1_old, w1_new): the
    rewritten event window [w0, w1_old) was replaced by [w0, w1_new).
    The new diagram is built from `diagram`, checking the window only,
    so its position checks reject an illegal rewrite; its stacks wait
    for their first read."""
    w0, w1_old, repl = _rewrite(diagram, move)
    events = diagram.events[:]
    events[w0:w1_old] = repl
    try:
        new = FrontDiagram(events, diagram, (w0, w1_old))
    except DomainError as err:
        _fail(move, f"rewritten word is invalid: {err}")
    if gf_mode:
        _check_grading(diagram, move)
    return new, w0, w1_old, w0 + len(repl)


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


def _rewrite(diagram, move):
    """The window [w0, w1_old) of the event word that `move` rewrites and
    its replacement events; the window build checks their positions."""
    kind = move[0]
    arity = _MOVE_ARITY.get(kind)
    if arity is None or len(move) != 1 + arity:
        raise DomainError(f"bad move {move!r}")
    ev = diagram.events
    e = move[1]  # an event, or the slice of an insertion

    if kind in ("C", "Ch"):
        if not 0 <= e < len(ev) - 1:
            _fail(move, f"no event pair at {e}")
        repl = _commute(ev[e], ev[e + 1], kind == "Ch")
        if isinstance(repl, str):
            _fail(move, repl)
        return e, e + 2, repl
    if arity == 2:
        h = move[2]
        if not 0 <= e <= len(ev):
            _fail(move, f"no slice {e}")
        (old, new), = _RULES[kind]
    else:
        found = _match(_RULES[kind], ev, e)
        if found is None:
            _fail(move, f"no pattern match at event {e}")
        h, old, new = found
    return e, e + len(old), [(k, h + o) for k, o in new]


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

# Event-indexed table kind -> the event kinds its old sides start with.
_STARTS = {kind: frozenset(old[0][0] for old, _ in rules)
           for kind, rules in _RULES.items() if rules[0][0]}


def isotopy_candidates(diagram, window, kinds, fish_heights):
    """Candidate isotopy moves (no B/P/PM) whose event or slice index
    falls in window = (lo, hi).

    For each event, the kinds in the order given where they can match:
    a table kind where one of its old sides starts with the event's
    kind, C and Ch where _commute accepts the event and the next.  Then
    fish growth by slice and height, at the heights in fish_heights
    (None: every height), since fish at every height of a tall diagram
    dominate the branching otherwise.  Candidates are not guaranteed
    applicable; callers filter through apply_move.
    """
    lo, hi = max(window[0], 0), window[1]
    ev = diagram.events
    n = len(ev)
    starts = [_STARTS.get(kind) for kind in kinds]  # None: C or Ch
    for e in range(lo, min(hi, n - 1) + 1):
        swaps = e < n - 1 and not isinstance(
            _commute(ev[e], ev[e + 1], False), str)
        for kind, start in zip(kinds, starts):
            if (ev[e][0] in start) if start else swaps:
                yield (kind, e)
    for s in range(lo, min(hi, n) + 1):
        for h in range(1, len(diagram.stacks[s]) + 1):
            if fish_heights is None or h in fish_heights:
                yield ("R1a", s, h)
                yield ("R1b", s, h)


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


def _replay(trace):
    """(end front, births, pinches, pieces) of a trace: label[id] is
    the union-find label of each strand id of the current front.  A
    move keeps the labels of ids born before w0, shifts those born
    after w1 with their ids, and gives fresh labels to ids born in the
    window.  It joins the two strands of each cusp in the new window
    and the strands at each height of the stacks at w1, whose cells
    continue past the window."""
    d = trace.start
    parent = list(range(d.n_ids))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        a, b = find(a), find(b)
        if a != b:  # the older root stays, so new labels hang below
            parent[max(a, b)] = min(a, b)

    label = list(range(d.n_ids))
    for _, _, _, u, l in d.cusps:
        union(u, l)
    for move in trace.moves:
        new_d, w0, w1_old, w1_new = _apply(d, move, trace.gf_mode)
        old = len(parent)
        pairs = [label[a] for a in d.stacks[w1_old]]
        fresh = 2 * (new_d.born[w1_new] - new_d.born[w0])
        parent += range(old, old + fresh)
        label[2 * d.born[w0]:2 * d.born[w1_old]] = range(old, old + fresh)
        stacks = new_d.stacks
        for i in range(w0, w1_new):
            kind, pos = new_d.events[i]
            if kind != "X":
                s = stacks[i + 1] if kind == "L" else stacks[i]
                union(label[s[pos - 1]], label[s[pos]])
        for a, b in zip(pairs, stacks[w1_new]):
            if a != label[b]:  # most heights keep their label: no union
                union(a, label[b])
        # only a birth makes a piece that joins no label of the last front
        if move[0] != "B" and any(find(a) >= old
                                  for a in range(old, old + fresh)):
            raise AssertionError(f"untracked component after {move[0]}")
        d = new_d
    pieces = len({find(a) for a in label})
    births = sum(m[0] == "B" for m in trace.moves)
    pinches = sum(m[0] in ("P", "PM") for m in trace.moves)
    return d, births, pinches, pieces


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
