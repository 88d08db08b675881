"""Positive braid closures as fronts, with explicit filling traces.

The closure of a positive braid on s strands with letters i_1..i_k is
the front word

    L1 .. Ls  X_{s+i_1} .. X_{s+i_k}  Rs .. R1

(s nested eyes whose lower branches carry the braiding).  The filling
trace builds one closed one-letter block per letter, each from s-1
births plus a fish that creates the crossing, then merges consecutive
blocks with s merge pinches, so the surface has k(s-1) 0-handles and
s(k-1) 1-handles.
"""

from fractions import Fraction

from .errors import DomainError
from .front import parse_front
from .moves import CobordismTrace, _replay

NOT_A_FILLING = "not a surface filling for this closure convention"
DISCONNECTED = "disconnected filling: genus per component not defined"

# Cap on the replay work of one closure: filling moves x closure events
# x (strands + 2).  Every replayed move splices a window of up to 2s
# strands into one running front of about 2s + k events, and a graded
# merge pinch walks one of that front's cusp cycles (see moves._replay).
# The cap was timed when every move rebuilt a front: on an Intel Xeon
# with 2 to 150 strands one unit took at most 0.31 microseconds, and the
# largest admitted closures answered in 0.3 to 0.8 s; they now answer in
# about 0.2 s.  2 strands admit 431 letters, one letter admits 113
# strands.  Every admitted closure is within moves.MAX_REPLAY_WORK.
MAX_CLOSURE_WORK = 3 * 10**6


class BraidWord:
    """A positive braid word: strand count plus generator indices.

    >>> BraidWord(2, [1, 1, 1]).permutation_cycles()
    1
    >>> BraidWord(3, [2, 1]).permutation_cycles()
    1
    """

    def __init__(self, strands, letters):
        strands = int(strands)
        letters = [int(x) for x in letters]
        if strands < 2:
            raise DomainError(f"braid needs at least 2 strands, got {strands}")
        if not letters:
            raise DomainError("empty braid word")
        for x in letters:
            if not 1 <= x <= strands - 1:
                raise DomainError(
                    f"braid letter {x} out of range 1..{strands - 1}")
        self.strands = strands
        self.letters = letters

    def __repr__(self):
        return f"BraidWord({self.strands}, {self.letters})"

    def permutation_cycles(self):
        """Cycle count, fixed points included, of the strand permutation."""
        perm = list(range(self.strands))
        for x in self.letters:
            perm[x - 1], perm[x] = perm[x], perm[x - 1]
        seen = [False] * self.strands
        cycles = 0
        for a in range(self.strands):
            if seen[a]:
                continue
            cycles += 1
            while not seen[a]:
                seen[a] = True
                a = perm[a]
        return cycles


def _letter_block_moves(base, s, i):
    """Moves that append the closed one-letter block for generator i
    (word L1..Ls X_{s+i} Rs..R1) starting at word index base."""
    moves = []
    for k in range(1, s - i):
        moves.append(("B", base + k - 1, k))      # nested shells
    moves.append(("B", base + s - i - 1, s - i))  # host eye
    moves.append(("R1b", base + s - i, s - i + 1))  # fish: the crossing
    m = s - i + 1
    while m < s:
        # nest one more eye inside and commute its right cusp past the
        # crossing, pushing the crossing one level deeper
        moves.append(("B", base + m, m + 1))
        moves.append(("C", base + m + 1))
        m += 1
    return moves


def _closure(b):
    """The closure front, its filling trace, the formula genus and the
    number of connected pieces of the filling, from one replay.

    Block j is built at event 0 when j = 0; later blocks start at event
    2s + j, just after the blocks merged so far, and merge into them
    with s merge pinches.
    """
    s, letters = b.strands, b.letters
    k = len(letters)
    n_moves = sum(s + i - 1 for i in letters) + s * (k - 1)
    if n_moves * (2 * s + k) * (s + 2) > MAX_CLOSURE_WORK:
        raise DomainError(
            f"braid closure too large: {n_moves} filling moves on "
            f"{2 * s + k} events and {s} strands exceed the replay cap of "
            f"{MAX_CLOSURE_WORK:.3g} (moves x events x (strands + 2))")
    moves = []
    for j, i in enumerate(letters):
        base = 2 * s + j if j else 0
        moves += _letter_block_moves(base, s, i)
        if j:
            moves += [("PM", base - 1 - t) for t in range(s)]
    if len(moves) != n_moves:
        raise AssertionError(
            f"closure trace has {len(moves)} moves, not {n_moves}")
    trace = CobordismTrace(parse_front(""), moves, gf_mode=True)
    # the closure's answers rest on these checks of its one replay, so
    # they must not vanish under `python -O`
    d, births, pinches, pieces = _replay(trace)
    expected = ([("L", t) for t in range(1, s + 1)]
                + [("X", s + i) for i in letters]
                + [("R", t) for t in range(s, 0, -1)])
    if d.events != expected:
        raise AssertionError(
            f"closure construction went off pattern: ends at {d.word!r}")
    if (births, pinches) != (k * (s - 1), s * (k - 1)):
        raise AssertionError(
            f"closure trace has {births} births and {pinches} pinches, "
            f"not {k * (s - 1)} and {s * (k - 1)}")
    cycles = b.permutation_cycles()
    if d.n_components != cycles:
        raise AssertionError(
            f"closure components {d.n_components} disagree with "
            f"{cycles} permutation cycles")
    genus = Fraction(2 - cycles + k - s, 2)
    if pieces == 1 and Fraction(2 - d.n_components - births + pinches,
                                2) != genus:
        raise AssertionError(
            f"trace genus disagrees with the formula genus {genus}")
    return d, trace, genus, pieces


def positive_braid_closure(b):
    """Front closure of a positive braid plus the filling trace.

    OUTPUT: (diagram, trace, genus) where genus = (2 - c + k - s)/2 is
    the surface formula value with c the permutation cycle count; for a
    connected closure this equals the trace bookkeeping genus exactly.
    A genus below zero means the trace is not a filling of a connected
    closure by a surface (see closure_report for the flag).
    """
    d, trace, genus, _ = _closure(b)
    return d, trace, genus


def closure_report(b):
    """positive_braid_closure plus connectivity and boundary-case flags."""
    diagram, trace, genus, pieces = _closure(b)
    flags = []
    if pieces != 1:
        flags.append(DISCONNECTED)
    if genus < 0:
        flags.append(NOT_A_FILLING)
    return {
        "diagram": diagram,
        "trace": trace,
        "genus": genus,
        "cycles": diagram.n_components,
        "connected": pieces == 1,
        "chi": b.strands - len(b.letters),
        "flags": flags,
    }
