"""Normal rulings of front diagrams.

A ruling pairs the strands of every slice into eyes: one eye is born at
each left cusp and one dies at each right cusp.  At a crossing the two
strands either pass through (the default) or both turn back (a switch).
Constraints: mates never meet at a crossing, right cusps close mates
only, and a switch needs the two eyes involved to be nested or disjoint
at that slice, never interleaved.  A graded ruling also needs equal
Maslov potential on the two strands of every switch.

Both functions read one sweep of the word over the eye pairings it
reaches, kept on the diagram, so asking for the polynomial and then the
listing sweeps once.  The sweep runs from both ends of the word, the
side carrying fewer pairings advancing, and the two halves meet.  Every
call refuses a front past the cap MAX_PAIRINGS or MAX_SWEEP_WORK with
the same DomainError.  A listing by enumerate_rulings is the list, order
included, of walking every ruling and sorting, cut at its limit.
"""

from .errors import DomainError
from .laurent import LaurentPoly


# Largest number of distinct eye pairings a side of the sweep carries
# past one event; a wider front is refused before its pairings run the
# process out of memory.
MAX_PAIRINGS = 10**4
# Largest sum over the pairings the sweep carries of their strand
# counts, which its time and the memory of its tables follow; a long
# front that stays wide, or one of many nested eyes, is refused with it.
MAX_SWEEP_WORK = 2 * 10**6
# read backward, a left cusp is a death, a right cusp a birth and a
# crossing itself
_BACKWARD = {"L": "R", "R": "L", "X": "X"}


def _transitions(diagram, graded):
    """step(e, partner, back=False) -> (through, switch) for the event
    word, or None when the diagram admits no ruling at all.

    partner is the eye pairing of the strands before event e: partner[j]
    is the position of the strand that shares an eye with position j.
    through is the pairing after e when its strands go through, switch
    the pairing after a switch; each is None where that choice kills
    the ruling (switch also wherever e is no crossing).  With back, the
    word is read from its end: partner is the pairing after e, and
    through and switch are the pairings before e that step to it.

    graded=True admits only switches of equal potential; components with
    nonzero rotation number, those whose potential jumps by a defect of
    2|rot| around the component, admit no graded ruling.
    """
    if graded and any(diagram.defects):
        return None
    forward = [(kind, pos - 1) for kind, pos in diagram.events]
    plan = forward, [(_BACKWARD[kind], p) for kind, p in forward]
    level = None
    if graded:
        pot = diagram.potential
        level = {i: pot[u] == pot[l] for i, _, u, l in diagram.crossings}

    def step(e, partner, back=False):
        kind, p = plan[back][e]
        if kind == "L":
            new = tuple(q if q < p else q + 2 for q in partner)
            return new[:p] + (p + 1, p) + new[p:], None
        a, b = partner[p], partner[p + 1]
        if kind == "R":
            if a != p + 1:
                return None, None
            return tuple(q if q < p else q - 2
                         for q in partner[:p] + partner[p + 2:]), None
        if a == p + 1:
            return None, None  # mates may neither cross nor switch
        # the strands at p and p + 1 trade places; their mates a and b
        # lie elsewhere, so only these four entries change
        new = list(partner)
        new[p], new[p + 1], new[a], new[b] = b, a, p + 1, p
        a1, a2 = (p, a) if p < a else (a, p)
        b1, b2 = (p + 1, b) if p + 1 < b else (b, p + 1)
        if (level is not None and not level[e]) \
                or a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2:
            # a switch needs equal potential and eyes that do not interleave
            return tuple(new), None
        return tuple(new), partner

    return step


def _check_caps(e, width, work):
    """Refuse a sweep that carries `width` pairings over event e, or
    pairings of `work` strands in all."""
    if width > MAX_PAIRINGS:
        raise DomainError(
            f"front too wide for the ruling sweep: {width} eye pairings "
            f"at event {e + 1} exceed the cap of {MAX_PAIRINGS:.3g}")
    if work > MAX_SWEEP_WORK:
        raise DomainError(
            f"front too long and wide for the ruling sweep: {work} "
            f"strands of the pairings carried by event {e + 1} exceed "
            f"the cap of {MAX_SWEEP_WORK:.3g}")


def _advance(step, e, states, back):
    """(table, reached, marks): a sweep's pairings carried over event e,
    read backward when back.  table maps each pairing of `states`, which
    it empties, to its (through, switch) pair, and reached each pairing
    reached to its merged {switch count: ways}.  marks, filled on the
    backward side only, maps each pairing of `states` to (its ways hold
    0 switches, they hold 1 or more): (it is straight, it is rich)."""
    # ways go once read, and equal pairings reached share one tuple
    table, reached, canon, marks = {}, {}, {}, {}
    for partner in list(states):
        ways = states.pop(partner)
        if back:
            zero = 0 in ways
            marks[partner] = zero, len(ways) > zero
        through, switch = step(e, partner, back)
        table[partner] = pair = (canon.setdefault(through, through),
                                 canon.setdefault(switch, switch))
        for new, shift in zip(pair, (0, 1)):
            if new is None:
                continue
            have = reached.get(new)
            if have is None:
                reached[new] = {k + shift: c for k, c in ways.items()} \
                    if shift else ways
                continue
            merged = dict(have)
            for k, c in ways.items():
                merged[k + shift] = merged.get(k + shift, 0) + c
            reached[new] = merged
    return table, reached, marks


def _sweep(diagram, graded):
    """(live, ends) from a sweep of the word from both ends.  Each side
    carries the pairings it reaches with {switch count: ways}, merging
    equal pairings as they meet: the forward side from the start, the
    backward side from the end, with ways counted to the end.  At each
    event the side carrying fewer pairings advances, so neither carries
    more than twice the widest that a forward pass alone would; where
    they meet, ends maps () to the sum, over the pairings both carry, of
    the product of their two maps.

    live[e] maps each live pairing before event e, one reached from the
    start that reaches the end, to (through, live switch or None,
    through is straight, through is rich): straight when its
    all-through completion reaches the end, rich when one with a further
    switch does.  Before the meeting the forward side's tables are
    pruned from it backward; after it the live pairings are carried
    forward through the backward side's tables, inverted, so no
    transition is computed twice.  The sweep checks the caps as it goes,
    before a wide front can run the process out of memory, and a diagram
    keeps only a sweep that passed them: a later call returns that
    one."""
    # {graded: (live, ends)}
    sweeps = vars(diagram).setdefault("_ruling_sweeps", {})
    if graded in sweeps:
        return sweeps[graded]
    step = _transitions(diagram, graded)
    ahead, behind = ({(): {0: 1}}, {(): {0: 1}}) if step else ({}, {})
    tables, back_tables = [], []
    m, stop, work = 0, len(diagram.events), 0
    while m < stop:
        if len(ahead) <= len(behind):
            e, m = m, m + 1
            table, ahead, _ = _advance(step, e, ahead, False)
            tables.append(table)
            carried = ahead
        else:
            stop -= 1
            e = stop
            table, behind, marks = _advance(step, e, behind, True)
            back_tables.append((table, marks))
            carried = behind
        # the pairings carried past e share one strand count
        work += len(carried) * len(next(iter(carried), ()))
        _check_caps(e, len(carried), work)

    # the sides meet before event m: each shared pairing's two maps
    # multiply as polynomials in the switch count.  flags maps each live
    # pairing to (it is straight, it is rich), as marks does
    total, flags = {}, {}
    for partner, ways in ahead.items():
        rest = behind.get(partner)
        if rest is not None:
            for i, a in ways.items():
                for j, b in rest.items():
                    total[i + j] = total.get(i + j, 0) + a * b
            zero = 0 in rest
            flags[partner] = zero, len(rest) > zero
    ends = {(): total} if flags else {}
    live = [None] * len(diagram.events)
    now = list(flags)
    for e in reversed(range(m)):
        row, before = {}, {}
        for partner, (through, switch) in tables.pop().items():
            t_straight, t_rich = flags.get(through, (False, False))
            if switch not in flags:
                switch = None
            if t_straight or t_rich or switch is not None:
                row[partner] = (through, switch, t_straight, t_rich)
                before[partner] = t_straight, t_rich or switch is not None
        live[e] = row
        flags = before
    for e in range(m, len(live)):
        # the backward table of e maps each pairing after e that reaches
        # the end to the pairings before e that step to it
        table, marks = back_tables.pop()
        came = {}
        for after, (through, switch) in table.items():
            if through is not None:
                came[through] = after
        row, reached = {}, set()
        for partner in now:
            # a switch keeps the pairing, so it is live when the table
            # holds the pairing with a switch before e
            after, own = came.get(partner), table.get(partner)
            switch = partner if own and own[1] is not None else None
            if after is None:
                # only the switch is live; at a crossing the pairing's
                # backward through is its through
                row[partner] = (own[0], switch, False, False)
            else:
                row[partner] = (after, switch) + marks[after]
                reached.add(after)
            if switch is not None:
                reached.add(partner)
        live[e] = row
        now = reached
    sweeps[graded] = live, ends
    return live, ends


def ruling_polynomial(diagram, *, graded=False):
    """Sum of t^(#switches - #right cusps + 1) over the normal rulings
    (graded or not), read off the sweep's end.  graded is keyword-only,
    so a list of rulings passed in its place fails loudly.

    >>> from .front import parse_front
    >>> str(ruling_polynomial(parse_front("L1 L2 X3 X3 X3 R2 R1")))
    't^2 + 2'
    """
    ends = _sweep(diagram, graded)[1]
    return LaurentPoly({k - diagram.n_right + 1: c
                        for k, c in sorted(ends.get((), {}).items())})


def enumerate_rulings(diagram, graded=False, limit=None):
    """The first `limit` normal rulings (all when None), as sorted tuples
    of switched event indices, in increasing order: the same list, order
    included, as walking every ruling and sorting.

    Two rulings' tuples first differ at a crossing that one switches and
    the other goes through; the one that switches sorts first, unless
    the other switches nowhere after it and so is a prefix.  So the walk
    follows the strands through the sweep's live states and, at each
    live switch, emits the all-through completion of the through branch
    when it is straight, then lists the switch branch, then the rich
    rest of the through branch: that is increasing order, with no sort.
    It never enters a dead state, so every branch it takes lists at
    least one ruling.
    """
    live, ends = _sweep(diagram, graded)
    n = len(live)
    if () not in (live[0] if live else ends):
        return []

    # a task lists the rulings that extend switches from the live state
    # (e, partner); with tail_out it lists only those that switch again
    # (the state is rich), since its all-through completion is out
    # already or was never straight
    results = []
    stack = [(0, (), (), False)]
    while stack and (limit is None or len(results) < limit):
        e, partner, switches, tail_out = stack.pop()
        while e < n:
            through, switch, t_straight, t_rich = live[e][partner]
            if switch is not None:
                if t_straight and not tail_out:
                    results.append(switches)
                if t_rich:
                    stack.append((e + 1, through, switches, True))
                stack.append((e + 1, switch, switches + (e,), False))
                break
            partner, e = through, e + 1
        else:
            results.append(switches)
    return results


def validate_ruling(diagram, switches):
    """Slice-walking re-validation of a switch set, coded independently
    of the enumerator: eyes are explicit objects carrying the current
    positions of their two paths.  Returns True when the set is a normal
    ruling of the diagram."""
    switches = set(switches)
    if not switches <= {i for i, _, _, _ in diagram.crossings}:
        return False
    eyes = {}      # eye id -> [top_pos, bottom_pos], 0-based
    at = {}        # position -> (eye id, 0 for top / 1 for bottom)
    next_eye = 0
    for e, (kind, pos) in enumerate(diagram.events):
        p = pos - 1
        if kind == "L":
            for eye in eyes.values():
                for side in (0, 1):
                    if eye[side] >= p:
                        eye[side] += 2
            eyes[next_eye] = [p, p + 1]
            next_eye += 1
        elif kind == "R":
            if p not in at or (p + 1) not in at:
                return False
            ea, sa = at[p]
            eb, sb = at[p + 1]
            if ea != eb or sa != 0 or sb != 1:
                return False
            del eyes[ea]
            for eye in eyes.values():
                for side in (0, 1):
                    if eye[side] > p:
                        eye[side] -= 2
        else:
            ea, sa = at[p]
            eb, sb = at[p + 1]
            if ea == eb:
                return False
            if e in switches:
                a1, a2 = sorted(eyes[ea])
                b1, b2 = sorted(eyes[eb])
                nested = (a1 < b1 and b2 < a2) or (b1 < a1 and a2 < b2)
                disjoint = a2 < b1 or b2 < a1
                if not (nested or disjoint):
                    return False
            else:
                eyes[ea][sa], eyes[eb][sb] = p + 1, p
        at = {}
        for eid, eye in eyes.items():
            if eye[0] >= eye[1]:
                return False  # an eye's top path must stay on top
            at[eye[0]] = (eid, 0)
            at[eye[1]] = (eid, 1)
        if len(at) != 2 * len(eyes):
            return False
    return not eyes
