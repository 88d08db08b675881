"""connect_fronts against the full search.

`ref_connect_fronts` is connect_fronts as it was before the candidate
filter and the meet replay went in: it expands every
candidate of `ref_isotopy_candidates`, the unfiltered generator, until
the two sides meet or give out, and accepts a meet only if the joined
path replays a into b.  The two must return the same path, or both
None, on every search `whitehead_double` makes for the benchmark's
seven bases and on seeded random pairs of fronts, and every path
connect_fronts returns must replay a into b through apply_move.
"""

import random
from collections import Counter

from legcob import search, whitehead
from legcob.errors import DomainError
from legcob.front import classical_invariants, parse_front
from legcob.moves import (ISOTOPY_KINDS, _RULES, apply_move, invert_move,
                          trace_summary)
from legcob.rulings import ruling_polynomial
from legcob.search import connect_fronts
from legcob.whitehead import whitehead_double

TWO_EYES = "L1 R1 L1 R1"
# The bases the benchmark doubles: the unknot, the zigzag, twist fronts
# with 3, 5, 7 and 9 crossings and the closure of s1 s2 s1 s2.
BENCH_BASES = ("L1 R1", "L1 L2 R1 L1 R2 R1") + tuple(
    "L1 L2 " + "X3 " * k + "R2 R1" for k in (3, 5, 7, 9)) \
    + ("L1 L2 L3 X4 X5 X4 X5 R3 R2 R1",)
COMMUTES = ("C", "Ch")


def _replay(d, path):
    for m in path:
        d = apply_move(d, m)
    return d


def _search(a, b, depth, budget):
    return connect_fronts(a, b, depth, budget, (0, 20), ISOTOPY_KINDS, None)


def _counts(d):
    return Counter(kind for kind, _ in d.events)


def _try(d, m):
    try:
        return apply_move(d, m)
    except DomainError:
        return None


def _steps(seen, word):
    out = []
    after, parent, move = seen[word]
    while parent is not None:
        before, grand, up = seen[parent]
        out.append((before, move, after))
        after, parent, move = before, grand, up
    return out


def ref_isotopy_candidates(diagram, window, kinds, fish_heights):
    """isotopy_candidates before the filter: every kind at every event
    of the window, then fish growth."""
    lo, hi = max(window[0], 0), window[1]
    n = len(diagram.events)
    for e in range(lo, min(hi, n - 1) + 1):
        for kind in kinds:
            yield (kind, e)
    for s in range(lo, min(hi, n) + 1):
        for h in range(1, diagram.counts[s] + 1):
            if fish_heights is None or h in fish_heights:
                yield ("R1a", s, h)
                yield ("R1b", s, h)


def ref_connect_fronts(a, b, depth, budget, window, kinds, fish_heights):
    """connect_fronts over the unfiltered candidates and with the meet
    replay: the full search."""
    if a.word == b.word:
        return []
    fwd_seen = {a.word: (a, None, None)}
    bwd_seen = {b.word: (b, None, None)}

    def join(word):
        path = [m for _, m, _ in reversed(_steps(fwd_seen, word))]
        path += [invert_move(*step) for step in _steps(bwd_seen, word)]
        d = a
        for m in path:
            d = _try(d, m)
            if d is None:
                return None
        return path if d.word == b.word else None

    def expand(frontier, seen, other_seen, spent):
        new = {}
        for word, (d, _, _) in frontier.items():
            for m in ref_isotopy_candidates(d, window, kinds, fish_heights):
                nd = _try(d, m)
                key = None if nd is None else nd.word
                if key is None or key in seen:
                    continue
                spent += 1
                if spent > budget:
                    return None, spent, None
                seen[key] = new[key] = (nd, word, m)
                if key in other_seen:
                    path = join(key)
                    if path is not None:
                        return new, spent, path
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


def test_connect_fronts_one_commute_apart():
    a = parse_front(TWO_EYES)
    b = apply_move(a, ("C", 1))
    assert b.word == "L1 L1 R3 R1"
    path = _search(a, b, 1, 100)
    assert _replay(a, path).word == b.word
    assert _search(a, a, 1, 100) == []
    assert _search(a, b, 0, 100) is None
    assert _search(a, b, 1, 0) is None


def test_connect_fronts_meets_in_the_middle():
    # four fish apart: one level from each side is too shallow; two
    # levels meet, and the backward half (two fish removals) comes back
    # inverted and in order
    a = parse_front("L1 R1")
    b = _replay(a, [("R1a", 1, 1), ("R1b", 1, 1), ("R1a", 7, 1),
                    ("R1b", 9, 1)])
    assert _search(a, b, 1, 2000) is None
    path = _search(a, b, 2, 2000)
    assert path == [("R1a", 1, 1), ("R1b", 3, 1), ("R1a", 1, 1),
                    ("R1b", 1, 1)]
    assert _replay(a, path).word == b.word
    assert _search(a, b, 2, 300) is None


def test_search_simulates_no_stacks(monkeypatch):
    # candidates are keyed by spliced words: the diagrams built are the
    # expanded states and the returned path's, each once, the roots
    # aside.  An expanded one is read for its strand counts, and none
    # runs its word for its labels
    a = parse_front("L1 R1")
    b = _replay(a, [("R1a", 1, 1), ("R1b", 1, 1), ("R1a", 7, 1),
                    ("R1b", 9, 1)])
    expanded, built = [], []
    candidates, apply = search.isotopy_candidates, search.apply_move
    monkeypatch.setattr(search, "isotopy_candidates",
                        lambda d, *rest: expanded.append(d) or
                        candidates(d, *rest))

    def build(d, m):
        built.append(apply(d, m))
        return built[-1]

    monkeypatch.setattr(search, "apply_move", build)
    path = _search(a, b, 2, 2000)
    assert len(path) == 4
    states = [a]
    for m in path:
        states.append(apply_move(states[-1], m))
    assert states[-1].word == b.word
    want = {d.word for d in expanded + states} - {a.word, b.word}
    assert sorted(d.word for d in built) == sorted(want)
    assert len(expanded) > 5
    for d in expanded + built:
        assert "cusps" not in d.__dict__, d.word
    assert all("counts" in d.__dict__ for d in expanded)


def test_invariants_simulate_no_stacks():
    # tb and rotation numbers, a graded ruling count and a replay end
    # front's components read each event's own pair of ids from one run
    # of the word, and no front keeps a slice's ids
    fronts = [trace_summary(whitehead_double(parse_front(word))[1])["end"]
              for word in BENCH_BASES[2:4]]
    for word in BENCH_BASES:
        d = parse_front(word)
        classical_invariants(d)
        graded = parse_front(word)
        ruling_polynomial(graded, graded=True)
        fronts += [d, graded]
    for d in fronts:
        assert "potential" in d.__dict__, d.word
        assert not hasattr(d, "stacks"), d.word


def _walk(d, rng, kinds, fish_heights, steps):
    """`steps` random applicable isotopy moves from d, in a window over
    the whole word, drawn from the unfiltered candidates."""
    for _ in range(steps):
        cands = list(ref_isotopy_candidates(d, (0, len(d.events)), kinds,
                                            fish_heights))
        rng.shuffle(cands)
        for move in cands:
            nd = _try(d, move)
            if nd is not None:
                d = nd
                break
    return d


def _random_fronts(rng, count):
    """Seeded fronts: small knots and links moved by a few isotopy
    moves, fish included."""
    seeds = ("L1 R1", TWO_EYES, "L1 L2 R1 L1 R2 R1", "L1 L2 X3 X3 X3 R2 R1",
             "L1 L1 R2 X1 R1", "L1 L2 L3 X4 X5 X4 X5 R3 R2 R1")
    return [_walk(parse_front(rng.choice(seeds)), rng, ISOTOPY_KINDS, None,
                  rng.randint(0, 4)) for _ in range(count)]


def _change(old, new):
    """New less old event counts, by event kind."""
    return {k: sum(e == k for e, _ in new) - sum(e == k for e, _ in old)
            for k in "LXR"}


def test_table_kinds_change_counts_as_their_rules_say():
    """Each rewrite kind, applied wherever it applies on random fronts,
    changes the L, X and R counts by its new side less its old side;
    the commutes change none.  R3 and the commutes are the kinds that
    change none, so a search by them alone reaches only fronts with its
    root's counts."""
    change = {kind: _change(*rules[0]) for kind, rules in _RULES.items()}
    for kind, rules in _RULES.items():
        assert all(_change(*rule) == change[kind] for rule in rules)
    change.update({kind: _change((), ()) for kind in COMMUTES})
    assert {kind for kind, c in change.items() if not any(c.values())} \
        == {"R3", "C", "Ch"}
    inserts = {kind for kind, rules in _RULES.items() if not rules[0][0]}
    applied = Counter()
    for d in _random_fronts(random.Random(14), 60):
        n = len(d.events)
        cands = [(kind, e) for e in range(n) for kind in change
                 if kind not in inserts]
        cands += [(kind, s, h) for kind in inserts for s in range(n + 1)
                  for h in range(1, d.counts[s] + 2)]
        for move in cands:
            nd = _try(d, move)
            if nd is not None:
                got = {k: _counts(nd)[k] - _counts(d)[k] for k in "LXR"}
                assert got == change[move[0]], (d.word, move)
                applied[move[0]] += 1
    assert set(applied) == set(change)


def test_search_matches_full_search_on_random_pairs():
    """Pairs a short walk apart (commutes and R3, one fish, or any
    isotopy) and unrelated pairs, searched with commute-only kinds and
    with ISOTOPY_KINDS, without fish, with fish at two heights and with
    fish everywhere: connect_fronts returns the full search's path, or
    None with it.  A commute-only search without fish misses every pair
    whose event counts differ; with fish it finds the pairs one fish
    apart."""
    rng = random.Random(14)
    found = unreachable = fish_found = 0
    for a in _random_fronts(rng, 40):
        others = (_walk(a, rng, COMMUTES + ("R3",), (), rng.randint(1, 3)),
                  _walk(a, rng, (), None, 1),
                  _walk(a, rng, ISOTOPY_KINDS, None, rng.randint(1, 2)),
                  _random_fronts(rng, 1)[0])
        for b in others:
            for kinds in (COMMUTES, ISOTOPY_KINDS):
                for fish in (frozenset(), frozenset({1, 2}), None):
                    window = (0, max(len(a.events), len(b.events)))
                    args = (a, b, 2, 60, window, kinds, fish)
                    path = connect_fronts(*args)
                    assert path == ref_connect_fronts(*args), \
                        (a.word, b.word, kinds, fish)
                    if path is None:
                        unreachable += (fish == frozenset()
                                        and kinds == COMMUTES
                                        and _counts(a) != _counts(b))
                    else:
                        found += 1
                        fish_found += bool(kinds == COMMUTES and fish
                                           and _counts(a) != _counts(b))
                        assert _replay(a, path).word == b.word
    assert found > 350 and unreachable > 100 and fish_found > 20


def test_whitehead_searches_match_full_search(monkeypatch):
    """Every search of the tongue walks on the benchmark's bases, replayed
    through the reference: one per stage, commute-only exactly when the
    stage keeps its event counts, and every one finds a path that
    replays a into b."""
    calls = []

    def recording(a, b, depth, budget, window, kinds, fish_heights):
        args = (a, b, depth, budget, window, kinds, fish_heights)
        path = connect_fronts(*args)
        calls.append((args, path))
        return path

    monkeypatch.setattr(whitehead, "connect_fronts", recording)
    for base in BENCH_BASES:
        whitehead_double(parse_front(base))
    misses = [args for args, path in calls if path is None]
    assert (len(calls), len(misses)) == (74, 0)
    assert all((kinds == COMMUTES and not fish) == (_counts(a) == _counts(b))
               for (a, b, _, _, _, kinds, fish), _ in calls)
    for (a, b, depth, budget, window, kinds, fish), path in calls:
        assert ref_connect_fronts(a, b, depth, budget, window, kinds,
                                  fish) == path, (a.word, b.word)
        if path is not None:
            assert _replay(a, path).word == b.word, (a.word, b.word)
