"""Normal rulings of front diagrams.

A ruling pairs the strands of every slice into eyes: one eye is born at
each left cusp and one dies at each right cusp.  At a crossing the two
strands either pass through (the default) or both turn back (a switch).
Constraints: mates never meet at a crossing, right cusps close mates
only, and a switch needs the two eyes involved to be nested or disjoint
at that slice, never interleaved.  A graded ruling also needs equal
Maslov potential on the two strands of every switch.
"""

from collections import Counter

from .front import classical_invariants, maslov_potential
from .laurent import LaurentPoly


def enumerate_rulings(diagram, graded=False):
    """All normal rulings, as sorted tuples of switched event indices.

    The search walks the event word once, branching only at crossings and
    pruning dead states immediately, so it stays far below the nominal
    2^(#crossings) cost on diagrams whose rulings are sparse.

    graded=True filters switches by equal potential; components with
    nonzero rotation number admit no graded ruling, so the graded set is
    empty as soon as one is present.
    """
    mu = None
    if graded:
        if any(classical_invariants(diagram)["rotation"]):
            return []
        pot = maslov_potential(diagram)
        mu = {i: (pot.values[u], pot.values[l])
              for i, _, u, l in diagram.crossings}
    results = []
    events = diagram.events

    def walk(e, partner, switches):
        if e == len(events):
            results.append(tuple(switches))
            return
        kind, pos = events[e]
        p = pos - 1
        if kind == "L":
            def shift(j):
                return j if j < p else j + 2
            new = [None] * (len(partner) + 2)
            for j, q in enumerate(partner):
                new[shift(j)] = shift(q)
            new[p] = p + 1
            new[p + 1] = p
            walk(e + 1, new, switches)
        elif kind == "R":
            if partner[p] != p + 1:
                return
            def shift(j):
                return j if j < p else j - 2
            new = [shift(q) for j, q in enumerate(partner)
                   if j not in (p, p + 1)]
            walk(e + 1, new, switches)
        else:
            if partner[p] == p + 1:
                return  # mates may neither cross nor switch
            def tau(j):
                if j == p:
                    return p + 1
                if j == p + 1:
                    return p
                return j
            new = [None] * len(partner)
            for j, q in enumerate(partner):
                new[tau(j)] = tau(q)
            walk(e + 1, new, switches)
            if mu is not None and mu[e][0] != mu[e][1]:
                return
            a1, a2 = sorted((p, partner[p]))
            b1, b2 = sorted((p + 1, partner[p + 1]))
            if a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2:
                return  # interleaved eyes cannot switch
            switches.append(e)
            walk(e + 1, partner, switches)
            switches.pop()

    walk(0, [], [])
    results.sort()
    return results


def ruling_polynomial(diagram, rulings):
    """Sum of z^(#switches - #right cusps + 1) over the given rulings,
    as listed by enumerate_rulings(diagram) (graded or not).

    >>> from .front import parse_front
    >>> d = parse_front("L1 L2 X3 X3 X3 R2 R1")
    >>> str(ruling_polynomial(d, enumerate_rulings(d)))
    't^2 + 2'
    """
    return LaurentPoly(Counter(len(sw) - diagram.n_right + 1
                               for sw in rulings))


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
