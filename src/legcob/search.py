"""Bounded searches over isotopy moves.

connect_fronts finds an isotopy move path between two nearby diagrams
by meeting in the middle.  The search is deterministic, so recorded
move sequences replay exactly.  A state costs its rewrite window until
it is expanded: its key, the word, is spliced into its parent's word,
and its FrontDiagram is built only when the search expands it or
returns a path through it.
"""

from .errors import DomainError
from .moves import apply_move, invert_move, isotopy_candidates


def _built(seen, word):
    """The diagram of the state `word`, built from its parent's by its
    move on first use; seen maps word -> (diagram or None, parent word,
    move), with parent word None at the root."""
    d, parent, move = seen[word]
    if d is None:
        d = apply_move(seen[parent][0], move)
        seen[word] = (d, parent, move)
    return d


def _links(seen, word):
    """The (parent word, move) links from `word` back to the root of a
    search tree, nearest first."""
    out = []
    _, parent, move = seen[word]
    while parent is not None:
        out.append((parent, move))
        _, parent, move = seen[parent]
    return out


def connect_fronts(a, b, depth, budget, window, kinds, fish_heights):
    """Find an isotopy move path from front a to front b.

    Bidirectional breadth-first search over the isotopy_candidates of
    each state for `window` = (lo, hi), `kinds` and `fish_heights`.
    Returns the move list, or None if the searches do not meet within
    depth moves from each side or spend more than budget new states.
    A candidate is keyed by its word, which its parent splices from the
    candidate's window (FrontDiagram.splice); a refused splice drops it.
    A new state is kept as (None, parent word, move), and its diagram is
    built from its parent's (apply_move) only when it is expanded, or
    when it is the meet and the backward half needs its events.  At a
    meet the backward half is inverted by invert_move, which is exact,
    so the joined path is returned without a replay.  An expanded state
    is read for its strand counts, and no state's word is ever run for
    its labels (see FrontDiagram).  The caller picks kinds that can reach
    b: commutes and R3 keep the counts of L, X and R events, so a search
    by them alone never meets a b whose counts differ from a's.
    """
    if a.word == b.word:
        return []
    fwd_seen = {a.word: (a, None, None)}
    bwd_seen = {b.word: (b, None, None)}

    def join(word):
        path = [m for _, m in reversed(_links(fwd_seen, word))]
        after = fwd_seen[word][0] or _built(bwd_seen, word)
        for parent, move in _links(bwd_seen, word):
            before = bwd_seen[parent][0]
            path.append(invert_move(before, move, after))
            after = before
        return path

    def expand(frontier, seen, other_seen, spent):
        # Meets are checked as states are generated so shallow paths
        # return without filling the level.
        new = []
        for word in frontier:
            d = _built(seen, word)
            for m, (w0, w1_old, repl) in isotopy_candidates(
                    d, window, kinds, fish_heights):
                try:
                    key = d.splice(w0, w1_old, repl)
                except DomainError:
                    continue
                if key in seen:
                    continue
                spent += 1
                if spent > budget:
                    return None, spent, None
                seen[key] = (None, word, m)
                new.append(key)
                if key in other_seen:
                    return new, spent, join(key)
        return new, spent, None

    fwd, bwd = [a.word], [b.word]
    spent = 0
    for _ in range(depth):
        fwd, spent, path = expand(fwd, fwd_seen, bwd_seen, spent)
        if path is not None or not fwd:
            return path
        bwd, spent, path = expand(bwd, bwd_seen, fwd_seen, spent)
        if path is not None or not bwd:
            return path
    return None
