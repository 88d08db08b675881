"""Bounded searches over isotopy moves.

connect_fronts finds an isotopy move path between two nearby diagrams
by meeting in the middle.  The search is deterministic, so recorded
move sequences replay exactly.
"""

from .errors import DomainError
from .moves import apply_move, invert_move

_SHRINK = ("R1a-", "R1b-", "R2u-", "R2d-")
_NEUTRAL = ("C", "Ch", "R3")
_EXPAND = ("R2u", "R2d")


def _try(d, m):
    try:
        return apply_move(d, m)
    except DomainError:
        return None


def invert_path(start, moves):
    """Moves that retrace a path backwards.

    Given moves taking `start` to some end diagram, returns the move
    list taking that end back to `start` (word for word).
    """
    befores = []
    d = start
    for m in moves:
        befores.append((d, m))
        d = apply_move(d, m)
    return [invert_move(b, m) for b, m in reversed(befores)]


def _window_moves(d, lo, hi, kinds=None, fish_heights=None):
    """Isotopy moves whose event or slice index falls in [lo, hi].

    kinds restricts the event-indexed move kinds; fish_heights (a set)
    restricts where fish growth is offered, since fish at every height
    of a tall diagram dominate the branching otherwise.
    """
    if kinds is None:
        kinds = _SHRINK + _NEUTRAL + _EXPAND
    out = []
    top = min(hi, len(d.events) - 1)
    for e in range(max(lo, 0), top + 1):
        for kind in kinds:
            out.append((kind, e))
    for s in range(max(lo, 0), min(hi, len(d.events)) + 1):
        for h in range(1, len(d.stacks[s]) + 1):
            if fish_heights is None or h in fish_heights:
                out.append(("R1a", s, h))
                out.append(("R1b", s, h))
    return out


def connect_fronts(a, b, depth=6, budget=30000, window=None, kinds=None,
                   fish_heights=None):
    """Find an isotopy move path from front a to front b.

    Bidirectional breadth-first search; `window` = (lo, hi) restricts
    move indices (useful when the two words differ only locally), and
    kinds/fish_heights prune the per-state move fan the same way
    _window_moves does.  By default fish growth is offered at every
    height.  Returns the move list or None if the searches do not meet
    within depth moves from each side.
    """
    if a.word == b.word:
        return []
    if window is None:
        lo, hi = 0, max(len(a.events), len(b.events))
    else:
        lo, hi = window

    def verify(path):
        d = a
        for m in path:
            d = _try(d, m)
            if d is None:
                return None
        return path if d.word == b.word else None

    fwd_seen = {a.word: (a, [])}
    bwd_seen = {b.word: (b, [])}

    def expand(frontier, seen, other_seen, join, spent):
        # Meets are checked as states are generated so shallow paths
        # return without filling the level; a meet only counts if the
        # joined path actually replays a into b (the two half-paths can
        # disagree when a commute is inverted the wrong way round).
        new = {}
        for word, (d, trail) in frontier.items():
            for m in _window_moves(d, lo, hi, kinds, fish_heights):
                nd = _try(d, m)
                key = None if nd is None else nd.word
                if key is None or key in seen or key in new:
                    continue
                spent += 1
                if spent > budget:
                    return None, spent, None
                new[key] = (nd, trail + [m])
                if key in other_seen:
                    path = join(key, trail + [m])
                    if path is not None:
                        return new, spent, path
        seen.update(new)
        return new, spent, None

    def join_fwd(word, trail):
        return verify(trail + invert_path(b, bwd_seen[word][1]))

    def join_bwd(word, trail):
        return verify(fwd_seen[word][1] + invert_path(b, trail))

    fwd = dict(fwd_seen)
    bwd = dict(bwd_seen)
    spent = 0
    for _ in range(depth):
        fwd, spent, path = expand(fwd, fwd_seen, bwd_seen, join_fwd, spent)
        if path is not None:
            return path
        if not fwd:
            return None
        bwd, spent, path = expand(bwd, bwd_seen, fwd_seen, join_bwd, spent)
        if path is not None:
            return path
        if not bwd:
            return None
    return None
