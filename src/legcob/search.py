"""Bounded searches over isotopy moves.

connect_fronts finds an isotopy move path between two nearby diagrams
by meeting in the middle.  The search is deterministic, so recorded
move sequences replay exactly.
"""

from .errors import DomainError
from .moves import apply_move, invert_move, isotopy_candidates


def _try(d, m):
    try:
        return apply_move(d, m)
    except DomainError:
        return None


def _steps(seen, word):
    """The (before, move, after) steps from `word` back to the root of a
    search tree, nearest first; seen maps word -> (diagram, parent word,
    move), with parent word None at the root."""
    out = []
    after, parent, move = seen[word]
    while parent is not None:
        before, grand, up = seen[parent]
        out.append((before, move, after))
        after, parent, move = before, grand, up
    return out


def connect_fronts(a, b, depth, budget, window, kinds, fish_heights):
    """Find an isotopy move path from front a to front b.

    Bidirectional breadth-first search over the isotopy_candidates of
    each state for `window` = (lo, hi), `kinds` and `fish_heights`.
    Returns the move list, or None if the searches do not meet within
    depth moves from each side or spend more than budget new states.
    At a meet the backward half is inverted by invert_move, which is
    exact, so the joined path is returned without a replay.  A candidate
    state is used for its word, the search key, and its position check
    alone, and an expanded one for its strand counts too; no state's
    strand stacks are ever simulated (see FrontDiagram).  The caller
    picks kinds that can reach b: commutes and R3 keep the counts of L,
    X and R events, so a search by them alone never meets a b whose
    counts differ from a's.
    """
    if a.word == b.word:
        return []
    fwd_seen = {a.word: (a, None, None)}
    bwd_seen = {b.word: (b, None, None)}

    def join(word):
        path = [m for _, m, _ in reversed(_steps(fwd_seen, word))]
        return path + [invert_move(*step) for step in _steps(bwd_seen, word)]

    def expand(frontier, seen, other_seen, spent):
        # Meets are checked as states are generated so shallow paths
        # return without filling the level.
        new = {}
        for word, (d, _, _) in frontier.items():
            for m in isotopy_candidates(d, window, kinds, fish_heights):
                nd = _try(d, m)
                key = None if nd is None else nd.word
                if key is None or key in seen:
                    continue
                spent += 1
                if spent > budget:
                    return None, spent, None
                seen[key] = new[key] = (nd, word, m)
                if key in other_seen:
                    return new, spent, join(key)
        return new, spent, None

    fwd, bwd = dict(fwd_seen), dict(bwd_seen)
    spent = 0
    for _ in range(depth):
        fwd, spent, path = expand(fwd, fwd_seen, bwd_seen, spent)
        if path is not None or not fwd:
            return path
        bwd, spent, path = expand(bwd, bwd_seen, fwd_seen, spent)
        if path is not None or not bwd:
            return path
    return None
