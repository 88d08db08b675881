"""Reference code for the front core, kept to check the fast paths.

1. The one cusp-cycle walk of FrontDiagram against the traversals it
   replaced: a union-find for the components, a 2-colouring for the
   orientation, a second walk for the Maslov potential, and the LIFO
   walk that first merged them.  They are compared on every
   intermediate front of clasped-double and braid-closure filling
   traces, which pass through multi-component fronts and kinks, on a few
   fronts with nonzero rotation numbers, and on the random rewrites of
   item 2.
2. The windowed rebuild of a moved front against the full simulation it
   replaced: every isotopy candidate, birth, pinch and merge on every
   intermediate front of four `wh` traces and two braid filling traces
   must give the diagram a from-scratch build gives, field by field, or
   the same error.  Random rewrites of short windows, legal or not, are
   checked the same way against the constructor.  The reference checks
   pinch gradings through `maslov_potential`, which the applier's check
   does not call; every pinch and merge on the fronts with nonzero
   rotation numbers is checked that way too.
3. The replay's piece count.  `_replay` tracks pieces by a union-find
   over strand labels; `ref_replay` is the replay it replaced, which
   walked the cusp cycles of every new front and matched components by
   their per-strand overlap (`ref_strand_overlap`, itself checked
   against the cell-by-cell overlap).  They must give the same end word,
   births, pinches and pieces, or the same error, on the `wh` traces of
   the benchmark's bases, the braid survey's 300 closures and seeded
   random traces mixing births, pinches and merges with isotopies.
4. The table of local rewrites in `moves` and the positional commute
   rule against the rewriter they replaced, one branch per move kind
   with the commutes replayed on strand stacks, and its `invert_move`: every
   isotopy candidate, birth and pinch at every slice and height
   0..count+2, and merge at every event, on the fronts of items 1 and 2
   and of `test_moves.test_invert_move_is_faithful`, with the pinch
   gradings checked and not, must be accepted or refused alike and give
   the same word and the same inverse.
5. The commutes C and Ch and their inverses against that reference on
   seeded random words of up to 12 events, many with a birth where a
   pair just died (R_h L_h), where C and Ch differ.
6. The filtered `isotopy_candidates` against the unfiltered generator
   (`ref_isotopy_candidates` in test_search.py): on every front of item
   2 it keeps the reference's order, and apply_move refuses every
   candidate it drops.  Items 2 and 4 draw their moves from the
   unfiltered generator, so they keep checking those refusals.
"""

import random
from collections import defaultdict
from math import gcd

import pytest

from legcob.braids import BraidWord, closure_report
from legcob.errors import DomainError
from legcob.front import (FrontDiagram, classical_invariants,
                          maslov_potential, parse_front)
from legcob.moves import (ISOTOPY_KINDS, CobordismTrace, _apply, _fail,
                          _replay, _rewrite, apply_move, format_move,
                          invert_move, isotopy_candidates)
from legcob.whitehead import whitehead_diagram, whitehead_double
from test_search import BENCH_BASES, ref_isotopy_candidates

WH_BASES = ("L1 R1", "L1 L2 R1 L1 R2 R1", "L1 L2 X3 X3 X3 R2 R1")
TWIST_9 = "L1 L2 " + " ".join(["X3"] * 9) + " R2 R1"
BRAIDS = ((2, [1, 1, 1]), (3, [2, 1]), (3, [1, 2, 1, 2]), (4, [1]),
          (4, [1, 3, 2, 2, 1]), (5, [1, 4, 2, 3, 1, 2, 4]))
# The traces the windowed rebuild is checked on.
MOVE_BASES = WH_BASES + (TWIST_9,)
MOVE_BRAIDS = ((3, [2, 1]), (5, [1, 4, 2, 3, 1, 2, 4]))
# Graded traces keep every rotation number 0; these fronts carry
# components whose potential is only defined mod 2|r|.
ROTATING = ("L1 X1 R1", "L1 X1 X1 X1 R1", "L1 L2 X2 X2 X2 R2 R1",
            "L1 R1 L1 X1 R1", "L1 L1 R2 X1 R1", "L1 L2 X1 R1 X1 R1")
# The fronts of test_moves.test_invert_move_is_faithful.
INVERTED = ("L1 L2 X3 X3 X3 R2 R1", "L1 L2 R1 L1 R2 R1",
            "L1 L2 L3 X4 X5 X4 X5 R3 R2 R1",
            "L1 L3 L3 X4 X2 R1 R1 L1 L1 X2 X4 R3 L5 R3 X2 R1 R1")
FIELDS = ("events", "word", "stacks", "born", "crossings", "cusps",
          "n_ids", "n_left", "n_right", "max_strands", "comp_of",
          "components", "n_components", "potential", "defects")


def ref_components(d):
    parent = list(range(d.n_ids))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for _, _, _, u, l in d.cusps:
        parent[find(u)] = find(l)
    roots, comp_of, components = {}, {}, []
    for a in range(d.n_ids):
        r = find(a)
        if r not in roots:
            roots[r] = len(components)
            components.append([])
        comp_of[a] = roots[r]
        components[roots[r]].append(a)
    return comp_of, components


def ref_walk(d):
    """The LIFO walk of the cusp cycles the fronts used to run: potential,
    defects, comp_of and components."""
    edges = [[] for _ in range(d.n_ids)]
    for _, _, _, u, l in d.cusps:
        edges[u].append((l, -1))
        edges[l].append((u, +1))
    potential = [None] * d.n_ids
    comp_of = [None] * d.n_ids
    components = []
    defects = []
    for oldest in range(0, d.n_ids, 2):
        if potential[oldest] is not None:
            continue
        c = len(components)
        ids = []
        defect = 0
        stack = [(oldest + 1, 0)]
        while stack:
            a, v = stack.pop()
            if potential[a] is not None:
                gap = potential[a] - v
                assert gap % 2 == 0, "orientation cycle has odd length"
                defect = gcd(defect, abs(gap))
                continue
            potential[a] = v
            comp_of[a] = c
            ids.append(a)
            for b, step in edges[a]:
                stack.append((b, v + step))
        components.append(sorted(ids))
        defects.append(defect)
    return potential, defects, comp_of, components


def _anchor(d, comp_of, c):
    for _, kind, _, u, l in d.cusps:
        if kind == "L" and comp_of[u] == c:
            return l


def ref_directions(d, reversed_components=()):
    comp_of, components = ref_components(d)
    edges = {a: [] for a in range(d.n_ids)}
    for _, _, _, u, l in d.cusps:
        edges[u].append(l)
        edges[l].append(u)
    dirs = {}
    for c in range(len(components)):
        queue = [(_anchor(d, comp_of, c), 1)]
        while queue:
            a, s = queue.pop()
            if a in dirs:
                assert dirs[a] == s, "orientation cycle has odd length"
                continue
            dirs[a] = s
            for b in edges[a]:
                queue.append((b, -s))
    rev = set(reversed_components)
    return {a: (-s if comp_of[a] in rev else s) for a, s in dirs.items()}


def ref_potential(d):
    comp_of, components = ref_components(d)
    rot = classical_invariants(d)["rotation"]
    edges = {a: [] for a in range(d.n_ids)}
    for _, _, _, u, l in d.cusps:
        edges[u].append((l, -1))
        edges[l].append((u, +1))
    values, mods = {}, []
    for c, ids in enumerate(components):
        defect = 0
        queue = [(_anchor(d, comp_of, c), 0)]
        while queue:
            a, v = queue.pop()
            if a in values:
                if values[a] != v:
                    defect = gcd(defect, abs(values[a] - v))
                continue
            values[a] = v
            for b, step in edges[a]:
                queue.append((b, v + step))
        if rot[c] == 0:
            assert defect == 0
            mods.append(None)
        else:
            assert defect == 2 * abs(rot[c])
            for a in ids:
                values[a] %= defect
            mods.append(defect)
    return values, mods


def _replayed(trace):
    d = trace.start
    out = [d]
    for move in trace.moves:
        d = apply_move(d, move, gf_mode=trace.gf_mode)
        out.append(d)
    return out


def _wh_trace(word):
    return whitehead_double(parse_front(word))[1]


def _braid_trace(strands, letters):
    return closure_report(BraidWord(strands, letters))["trace"]


@pytest.fixture(scope="module")
def fronts():
    out = []
    for word in WH_BASES:
        out += _replayed(_wh_trace(word))
    for s, letters in BRAIDS:
        out += _replayed(_braid_trace(s, letters))
    return out + [parse_front(word) for word in ROTATING]


@pytest.fixture(scope="module")
def move_traces():
    return ([_wh_trace(word) for word in MOVE_BASES]
            + [_braid_trace(s, letters) for s, letters in MOVE_BRAIDS])


@pytest.fixture(scope="module")
def move_fronts(move_traces):
    return [d for trace in move_traces for d in _replayed(trace)]


def test_fronts_cover_links_kinks_and_rotation(fronts):
    assert len(fronts) > 200
    assert any(d.n_components > 2 for d in fronts)
    assert any(d.crossings and d.n_components > 1 for d in fronts)
    assert sum(any(maslov_potential(d).mods) for d in fronts) >= 4


def test_walk_matches_reference(fronts):
    for d in fronts:
        comp_of, components = ref_components(d)
        assert d.components == components, d.word
        assert [d.comp_of[a] for a in range(d.n_ids)] == \
            [comp_of[a] for a in range(d.n_ids)], d.word
        assert d.directions() == ref_directions(d), d.word
        every = range(d.n_components)
        assert d.directions(every) == ref_directions(d, every), d.word
        mp = maslov_potential(d)
        assert (mp.values, mp.mods) == ref_potential(d), d.word
        assert (d.potential, d.defects, d.comp_of, d.components) == \
            ref_walk(d), d.word


def ref_simulate(events):
    """The full simulation every build used to run: the fields it set,
    or the DomainError it raised."""
    stack = []
    stacks = [()]
    next_id = 0
    crossings = []
    cusps = []
    n_l = n_r = 0
    for i, (kind, pos) in enumerate(events):
        count = len(stack)
        if kind == "L":
            if not 1 <= pos <= count + 1:
                raise DomainError(
                    f"invalid position {pos} at event {i} (L{pos}) "
                    f"with {count} strands")
            u, l = next_id, next_id + 1
            next_id += 2
            stack[pos - 1:pos - 1] = [u, l]
            cusps.append((i, "L", pos, u, l))
            n_l += 1
        elif kind in ("X", "R"):
            if not 1 <= pos <= count - 1:
                raise DomainError(
                    f"invalid position {pos} at event {i} ({kind}{pos}) "
                    f"with {count} strands")
            u, l = stack[pos - 1], stack[pos]
            if kind == "X":
                stack[pos - 1], stack[pos] = l, u
                crossings.append((i, pos, u, l))
            else:
                del stack[pos - 1:pos + 1]
                cusps.append((i, "R", pos, u, l))
                n_r += 1
        else:
            raise DomainError(f"unknown event kind {kind!r} at event {i}")
        stacks.append(tuple(stack))
    if n_l != n_r:
        raise DomainError(f"unbalanced cusps: {n_l} left, {n_r} right")
    if stack:
        raise DomainError(f"nonzero final strand count {len(stack)}")
    return {"events": list(events),
            "word": " ".join(f"{k}{p}" for k, p in events),
            "stacks": tuple(stacks), "crossings": crossings, "cusps": cusps,
            "n_ids": next_id, "n_left": n_l, "n_right": n_r,
            "max_strands": max(len(s) for s in stacks)}


def ref_apply(d, move, gf_mode):
    """The applier as it was: the same rewrite, then a full rebuild and
    the pinch grading check through maslov_potential."""
    w0, w1_old, repl = _rewrite(d, move)
    try:
        new = FrontDiagram(d.events[:w0] + repl + d.events[w1_old:])
    except DomainError as err:
        _fail(move, f"rewritten word is invalid: {err}")
    st = d.stacks
    if gf_mode and move[0] == "P":
        _, w, h = move
        ref_check_grading(d, st[w][h - 1], st[w][h], 1, "potentials")
    elif gf_mode and move[0] == "PM":
        w, h = move[1], d.events[move[1]][1]
        ref_check_grading(d, st[w][h - 1], st[w + 2][h - 1], 0,
                          "cusp levels")
    return new


def ref_overlap(old, new, w0, w1_old, w1_new):
    """_overlap as it was: every strand cell of every slice outside the
    rewritten window."""
    shift = w1_new - w1_old
    found = defaultdict(set)
    pairs = [(t, t) for t in range(w0 + 1)]
    pairs += [(t, t + shift) for t in range(w1_old, len(old.events) + 1)]
    for t, tn in set(pairs):
        so = old.stacks[t]
        sn = new.stacks[tn]
        assert len(so) == len(sn)
        for p in range(len(so)):
            found[new.comp_of[sn[p]]].add(old.comp_of[so[p]])
    return found


def _outcome(build):
    try:
        return build()
    except DomainError as err:
        return str(err)


# What a windowed build sets itself; every other field is computed on
# first use from these alone, by the code a full build runs.
OWN_FIELDS = ("events", "word", "stacks", "born", "n_ids", "n_left",
              "n_right")


def _assert_same(d, ref, fields=FIELDS):
    for name in fields:
        assert getattr(d, name) == getattr(ref, name), (d.word, name)


def _every_move(d):
    yield from ref_isotopy_candidates(d, (0, len(d.events)), ISOTOPY_KINDS,
                                      None)
    for s in range(len(d.events) + 1):
        for h in range(1, len(d.stacks[s]) + 2):
            yield ("B", s, h)
            yield ("P", s, h)
    for e in range(len(d.events) - 1):
        yield ("PM", e)


def test_fresh_build_matches_reference_simulation(move_fronts):
    for d in move_fronts + [parse_front(word) for word in ROTATING]:
        ref = ref_simulate(d.events)
        for name, value in ref.items():
            assert getattr(d, name) == value, (d.word, name)
        assert d.born == tuple(
            sum(k == "L" for k, _ in d.events[:t])
            for t in range(len(d.events) + 1))


def test_move_fronts_cover_every_kind_of_window(move_fronts):
    kinds = set()
    for d in move_fronts:
        for move in _every_move(d):
            kinds.add(move[0])
    assert kinds == set(ISOTOPY_KINDS) | {"R1a", "R1b", "B", "P", "PM"}
    assert len(move_fronts) > 190


def test_windowed_moves_match_full_rebuild(move_fronts):
    # every field on the children of every fifth front, the fields a
    # windowed build sets on all of them
    accepted = shifted = swapped = rejected = 0
    for k, parent in enumerate(move_fronts):
        fields = FIELDS if k % 5 == 0 else OWN_FIELDS
        for move in _every_move(parent):
            want = _outcome(lambda: ref_apply(parent, move, True))
            got = _outcome(lambda: apply_move(parent, move, gf_mode=True))
            if isinstance(want, str):
                assert got == want, (parent.word, move)
                rejected += 1
                continue
            assert not isinstance(got, str), (parent.word, move, got)
            _assert_same(got, want, fields)
            accepted += 1
            shifted += got.n_left != parent.n_left
            swapped += (move[0] in ("C", "Ch") and
                        parent.events[move[1]][0] ==
                        parent.events[move[1] + 1][0] == "L")
    assert accepted > 50000 and rejected > 20000
    assert shifted > 50000 and swapped > 400


def test_pinch_gradings_on_rotating_fronts():
    # every pinch and merge on fronts whose potential is only defined
    # mod 2|r|, where the check reads the walk's defect as its mod
    modded = {"accepted": 0, "refused": 0}
    for word in ROTATING:
        d = parse_front(word)
        moves = [("P", s, h) for s in range(len(d.events) + 1)
                 for h in range(1, len(d.stacks[s]) + 2)]
        moves += [("PM", e) for e in range(len(d.events))]
        for move in moves:
            want = _outcome(lambda: ref_apply(d, move, True))
            got = _outcome(lambda: apply_move(d, move, gf_mode=True))
            if isinstance(want, str):
                assert got == want, (word, move)
                modded["refused"] += ("grading mismatch" in want
                                      and "(mod None)" not in want)
                continue
            assert not isinstance(got, str), (word, move, got)
            assert got.word == want.word, (word, move)
            if move[0] == "P":
                a, b = d.stacks[move[1]][move[2] - 1:move[2] + 1]
                c = d.comp_of[a]
                modded["accepted"] += c == d.comp_of[b] and d.defects[c] > 0
            for front in (d, got):
                rot = classical_invariants(front)["rotation"]
                assert front.defects == [2 * abs(r) for r in rot], front.word
    assert modded["accepted"] >= 20 and modded["refused"] >= 2, modded


def test_random_windows_match_full_simulation(move_fronts):
    # rewrites no move makes: positions out of range, unknown kinds,
    # windows that change the strand count or leave strands open
    rng = random.Random(6)
    errors = 0
    for parent in move_fronts[::3]:
        n = len(parent.events)
        for _ in range(40):
            w0 = rng.randint(0, n)
            w1_old = rng.randint(w0, min(n, w0 + 3))
            repl = [(rng.choice("LXRLXRQ"), rng.randint(1, 9))
                    for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                # a legal position more often than not
                repl = [(k, min(p, 1 + len(parent.stacks[w0]) // 2))
                        for k, p in repl]
            events = parent.events[:w0] + repl + parent.events[w1_old:]
            want = _outcome(lambda: ref_simulate(events))
            fresh = _outcome(lambda: FrontDiagram(events))
            got = _outcome(lambda: FrontDiagram(events, parent,
                                                (w0, w1_old)))
            if isinstance(want, str):
                assert fresh == want and got == want, \
                    (parent.word, w0, w1_old, repl)
                errors += 1
                continue
            for name, value in want.items():
                assert getattr(got, name) == value, (got.word, name)
            _assert_same(got, fresh)
            assert (got.potential, got.defects, got.comp_of,
                    got.components) == ref_walk(got)
    assert errors > 500


def ref_strand_overlap(old, new, w0, w1_old, w1_new):
    """Map each component of `new` to the set of components of `old` it
    shares a strand cell with, one pair per strand id: ids born before
    w0 are the same, the ids on the stacks at w1_old and w1_new pair by
    height, and ids born later pair up offset by the change in births."""
    found = defaultdict(set)
    old_comp, new_comp = old.comp_of, new.comp_of
    for a in range(2 * old.born[w0]):
        found[new_comp[a]].add(old_comp[a])
    so, sn = old.stacks[w1_old], new.stacks[w1_new]
    assert len(so) == len(sn)
    for a, b in zip(so, sn):
        found[new_comp[b]].add(old_comp[a])
    first = 2 * old.born[w1_old]
    shift = 2 * new.born[w1_new] - first
    for a in range(first, old.n_ids):
        found[new_comp[a + shift]].add(old_comp[a])
    return found


def ref_replay(trace):
    """_replay as it was: a union-find over the components of each
    front, merged by their per-strand overlap with the last one."""
    d = trace.start
    parent = list(range(d.n_components))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    piece_of = list(range(d.n_components))
    for move in trace.moves:
        new_d, w0, w1_old, w1_new = _apply(d, move, trace.gf_mode)
        overlap = ref_strand_overlap(d, new_d, w0, w1_old, w1_new)
        next_piece_of = []
        for c in range(new_d.n_components):
            olds = overlap.get(c)
            if not olds:
                assert move[0] == "B", f"untracked component after {move[0]}"
                parent.append(len(parent))
                next_piece_of.append(len(parent) - 1)
            else:
                roots = sorted({find(piece_of[o]) for o in olds})
                for r in roots[1:]:
                    parent[r] = roots[0]
                next_piece_of.append(roots[0])
        piece_of = next_piece_of
        d = new_d
    pieces = len({find(p) for p in piece_of}) if piece_of else 0
    births = sum(m[0] == "B" for m in trace.moves)
    pinches = sum(m[0] in ("P", "PM") for m in trace.moves)
    return d, births, pinches, pieces


def test_per_strand_overlap_matches_cells(move_traces):
    steps = 0
    for trace in move_traces:
        d = trace.start
        for move in trace.moves:
            new, w0, w1_old, w1_new = _apply(d, move, trace.gf_mode)
            assert ref_strand_overlap(d, new, w0, w1_old, w1_new) == \
                ref_overlap(d, new, w0, w1_old, w1_new), move
            d = new
            steps += 1
    assert steps > 180


def _replay_outcome(replay, trace):
    def run():
        d, births, pinches, pieces = replay(trace)
        return d.word, births, pinches, pieces
    return _outcome(run)


def _survey_braids():
    """The 300 braids of scripts/braid_genus_survey.py, drawn alike."""
    rng = random.Random(2024)
    for _ in range(300):
        s = rng.randint(2, 5)
        k = rng.randint(1, 8)
        yield BraidWord(s, [rng.randint(1, s - 1) for _ in range(k)])


def _random_traces(starts, rng, count):
    """Short traces from the given fronts, each move drawn from every
    isotopy candidate, birth, pinch and merge; a drawn move that is
    refused ends one trace in five and is skipped otherwise."""
    for _ in range(count):
        start = d = rng.choice(starts)
        gf_mode = rng.random() < 0.5
        moves = []
        for _ in range(rng.randint(1, 10)):
            move = rng.choice(list(_every_move(d)))
            try:
                d = apply_move(d, move, gf_mode=gf_mode)
            except DomainError:
                if rng.random() < 0.2:
                    moves.append(move)
                    break
                continue
            moves.append(move)
        yield CobordismTrace(start, moves, gf_mode=gf_mode)


def test_label_replay_matches_reference(move_fronts):
    traces = [_wh_trace(word) for word in BENCH_BASES]
    disconnected = 0
    for braid in _survey_braids():
        trace = closure_report(braid)["trace"]
        traces.append(trace)
        disconnected += ref_replay(trace)[3] > 1
    assert disconnected == 107
    traces += _random_traces(move_fronts, random.Random(17), 400)
    outcomes = []
    for trace in traces:
        want = _replay_outcome(ref_replay, trace)
        assert _replay_outcome(_replay, trace) == want, \
            (trace.start.word, trace.moves)
        outcomes.append(want)
    random_outcomes = outcomes[-400:]
    assert sum(isinstance(o, str) for o in random_outcomes) > 80
    assert sum(not isinstance(o, str) and o[3] > 1
               for o in random_outcomes) > 150
    kinds = {m[0] for t in traces[-400:] for m in t.moves}
    assert {"B", "P", "PM"} <= kinds and len(kinds) > 10


def test_filtered_candidates_drop_only_refused_moves(move_fronts):
    dropped = kept = 0
    for d in move_fronts:
        window = (0, len(d.events))
        for kinds in (ISOTOPY_KINDS, ("C", "Ch"), ("R2u", "C", "R3")):
            want = list(ref_isotopy_candidates(d, window, kinds, None))
            got = list(isotopy_candidates(d, window, kinds, None))
            keep = set(got)
            assert [m for m in want if m in keep] == got, d.word
            for move in want:
                if move in keep:
                    kept += 1
                    continue
                with pytest.raises(DomainError):
                    apply_move(d, move)
                dropped += 1
    assert dropped > 20000 and kept > 100000


# --- item 4: the rewriter before the table ------------------------------

REF_MOVE_ARITY = {
    "B": 2, "P": 2, "R1a": 2, "R1b": 2,
    "PM": 1, "R1a-": 1, "R1b-": 1,
    "R2u": 1, "R2d": 1, "R2u-": 1, "R2d-": 1,
    "R3": 1, "C": 1, "Ch": 1,
}


def ref_check_grading(diagram, a, b, gap, what):
    """A pinch is graded when mu(a) - mu(b) = gap, modulo the potential's
    mod: gap 1 for a new pinch on the pair a above b (the new right cusp
    must match the potential), gap 0 for a merge of the dying strand a
    and the born strand b (equal cusp levels)."""
    c = diagram.comp_of[a]
    if diagram.comp_of[b] != c:
        return  # potentials on distinct components can be shifted freely
    mp = maslov_potential(diagram)
    m = mp.mods[c]
    diff = mp.values[a] - mp.values[b] - gap
    if (diff % m if m else diff) != 0:
        raise DomainError(
            f"grading mismatch at pinch: {what} {mp.values[a]}, "
            f"{mp.values[b]} (mod {m})")


def ref_participants(event, before, after):
    kind, pos = event
    if kind == "L":
        return after[pos - 1], after[pos]
    return before[pos - 1], before[pos]


def ref_reposition(event, ids, stack, s2_pos, high=False):
    """Recompute an event against a new stack so that the final strand
    order s2_pos is reproduced.  Returns (new_event, stack_after).

    When the stack holds strands that die before the final slice, a
    left cusp can sit on either side of the dying run; high=False puts
    it above, high=True below.
    """
    kind, _ = event
    u, l = ids
    if kind == "L":
        target = s2_pos[u]
        goal = sum(1 for w in stack if w in s2_pos and s2_pos[w] < target)
        q = seen = 0
        while q < len(stack) and seen < goal:
            if stack[q] in s2_pos:
                seen += 1
            q += 1
        if high:
            while q < len(stack) and stack[q] not in s2_pos:
                q += 1
        return ("L", q + 1), stack[:q] + [u, l] + stack[q:]
    if u not in stack:
        raise DomainError("commuted strand is missing")
    i = stack.index(u)
    if i + 1 >= len(stack) or stack[i + 1] != l:
        raise DomainError("strands are not adjacent")
    if kind == "X":
        out = list(stack)
        out[i], out[i + 1] = l, u
        return ("X", i + 1), out
    return ("R", i + 1), stack[:i] + stack[i + 2:]


def ref_rewrite(diagram, move, gf_mode):
    """The rewriter as it was, one branch per move kind: the window
    [w0, w1_old) of the event word that `move` rewrites and its
    replacement events, after the move's own applicability checks."""
    kind = move[0]
    if kind not in REF_MOVE_ARITY or len(move) != 1 + REF_MOVE_ARITY[kind]:
        raise DomainError(f"bad move {move!r}")
    ev = diagram.events

    if kind in ("B", "P", "R1a", "R1b"):
        s, h = move[1], move[2]
        if not 0 <= s <= len(ev):
            _fail(move, f"no slice {s}")
        count = len(diagram.stacks[s])
        if kind == "B":
            if not 1 <= h <= count + 1:
                _fail(move, f"height {h} out of range for {count} strands")
            ins = [("L", h), ("R", h)]
        elif kind == "P":
            if not 1 <= h <= count - 1:
                _fail(move, f"no strand pair at heights {h}, {h + 1}")
            if gf_mode:
                stack = diagram.stacks[s]
                ref_check_grading(diagram, stack[h - 1], stack[h], 1,
                               "potentials")
            ins = [("R", h), ("L", h)]
        elif kind == "R1a":
            if not 1 <= h <= count:
                _fail(move, f"no strand at height {h}")
            ins = [("L", h + 1), ("X", h), ("R", h + 1)]
        else:
            if not 1 <= h <= count:
                _fail(move, f"no strand at height {h}")
            ins = [("L", h), ("X", h + 1), ("R", h)]
        return s, s, ins

    e = move[1]

    if kind == "PM":
        if not 0 <= e < len(ev) - 1:
            _fail(move, f"no event pair at {e}")
        (ka, pa), (kb, pb) = ev[e], ev[e + 1]
        if (ka, kb) != ("R", "L") or pa != pb:
            _fail(move, f"events at {e}, {e + 1} are not a matched R,L pair")
        if gf_mode:
            st = diagram.stacks
            a, _ = ref_participants(ev[e], st[e], st[e + 1])  # dying at R
            u, _ = ref_participants(ev[e + 1], st[e + 1], st[e + 2])  # born
            ref_check_grading(diagram, a, u, 0, "cusp levels")
        return e, e + 2, []

    if kind in ("R1a-", "R1b-"):
        if not 0 <= e <= len(ev) - 3:
            _fail(move, f"no event triple at {e}")
        (k1, p1), (k2, p2), (k3, p3) = ev[e:e + 3]
        want = p1 - 1 if kind == "R1a-" else p1 + 1
        if (k1, k2, k3) != ("L", "X", "R") or p2 != want or p3 != p1:
            _fail(move, f"events at {e}..{e + 2} are not a fish")
        return e, e + 3, []

    if kind in ("R2u", "R2d"):
        if not 0 <= e < len(ev):
            _fail(move, f"no event {e}")
        k, q = ev[e]
        if k not in ("L", "R"):
            _fail(move, f"event {e} is not a cusp")
        count = len(diagram.stacks[e])
        if kind == "R2u":
            if q < 2:
                _fail(move, "no strand above the cusp")
            repl = ([("L", q - 1), ("X", q), ("X", q - 1)] if k == "L"
                    else [("X", q - 1), ("X", q), ("R", q - 1)])
        else:
            need = q if k == "L" else q + 2
            if count < need:
                _fail(move, "no strand below the cusp")
            repl = ([("L", q + 1), ("X", q), ("X", q + 1)] if k == "L"
                    else [("X", q + 1), ("X", q), ("R", q + 1)])
        return e, e + 1, repl

    if kind in ("R2u-", "R2d-"):
        if not 0 <= e <= len(ev) - 3:
            _fail(move, f"no event triple at {e}")
        (k1, p1), (k2, p2), (k3, p3) = ev[e:e + 3]
        step = 1 if kind == "R2u-" else -1
        if ((k1, k2, k3) == ("L", "X", "X") and p2 == p1 + step
                and p3 == p1):
            repl = [("L", p1 + step)]
        elif ((k1, k2, k3) == ("X", "X", "R") and p2 == p1 + step
                and p3 == p1):
            repl = [("R", p1 + step)]
        else:
            _fail(move, f"events at {e}..{e + 2} do not match the pattern")
        return e, e + 3, repl

    if kind == "R3":
        if not 0 <= e <= len(ev) - 3:
            _fail(move, f"no event triple at {e}")
        (k1, p1), (k2, p2), (k3, p3) = ev[e:e + 3]
        if (k1, k2, k3) != ("X", "X", "X") or p3 != p1 or abs(p2 - p1) != 1:
            _fail(move, f"events at {e}..{e + 2} are not a triangle")
        return e, e + 3, [("X", p2), ("X", p1), ("X", p2)]

    if kind in ("C", "Ch"):
        if not 0 <= e < len(ev) - 1:
            _fail(move, f"no event pair at {e}")
        first, second = ev[e], ev[e + 1]
        s0 = list(diagram.stacks[e])
        s1 = diagram.stacks[e + 1]
        s2 = list(diagram.stacks[e + 2])
        pa = ref_participants(first, s0, s1)
        pb = ref_participants(second, s1, s2)
        if set(pa) & set(pb):
            _fail(move, "events share a strand")
        s2_pos = {w: i for i, w in enumerate(s2)}
        high = kind == "Ch"
        try:
            new_second, mid = ref_reposition(second, pb, s0, s2_pos, high)
            new_first, end = ref_reposition(first, pa, mid, s2_pos, high)
        except DomainError as err:
            _fail(move, str(err))
        if end != s2:
            _fail(move, "strands interleave vertically")
        return e, e + 2, [new_second, new_first]

    raise AssertionError(f"unhandled move kind {kind!r}")


def ref_invert_move(before, move, after):
    """invert_move as it was, one case per move kind."""
    kind = move[0]
    if kind == "B":
        raise DomainError("a birth has no inverse move")
    if kind == "P":
        return ("PM", move[1])
    if kind == "PM":
        return ("P", move[1], before.events[move[1]][1])
    if kind in ("R1a", "R1b", "R2u", "R2d"):
        return (kind + "-", move[1])
    if kind in ("R1a-", "R1b-"):
        p = before.events[move[1]][1]
        h = p - 1 if kind == "R1a-" else p
        return (kind[:-1], move[1], h)
    if kind in ("R2u-", "R2d-"):
        return (kind[:-1], move[1])
    if kind == "R3":
        return move
    if kind in ("C", "Ch"):
        # commuting back past a dying pair may need the other placement
        for cand in (("C", move[1]), ("Ch", move[1])):
            try:
                if ref_windowed_apply(after, cand, False).word == before.word:
                    return cand
            except DomainError:
                pass
        raise AssertionError(f"no faithful inverse for {move!r}")
    raise DomainError(f"bad move {move!r}")


def ref_windowed_apply(d, move, gf_mode):
    """The applier before the table: the old rewrite, then the windowed
    build."""
    w0, w1_old, repl = ref_rewrite(d, move, gf_mode)
    try:
        return FrontDiagram(d.events[:w0] + repl + d.events[w1_old:], d,
                            (w0, w1_old))
    except DomainError as err:
        _fail(move, f"rewritten word is invalid: {err}")


def _inverse(invert, d, move, after):
    try:
        return invert(d, move, after)
    except (DomainError, AssertionError):
        return None  # no inverse; the texts differ between the two


def test_rewrite_table_matches_reference(fronts, move_fronts):
    bases = fronts + move_fronts + [parse_front(word) for word in INVERTED]
    bases.append(whitehead_diagram(parse_front("L1 R1")))
    bases = list({d.word: d for d in bases}.values())
    cases = accepted = refused = 0
    kinds = set()
    for d in bases:
        n = len(d.events)
        moves = list(ref_isotopy_candidates(d, (0, n), ISOTOPY_KINDS, None))
        moves += [(kind, s, h) for s in range(n + 1)
                  for h in range(len(d.stacks[s]) + 3) for kind in "BP"]
        moves += [("PM", e) for e in range(n)]
        for move in moves:
            for gf_mode in (False, True):
                cases += 1
                want = _outcome(lambda: ref_windowed_apply(d, move, gf_mode))
                got = _outcome(lambda: apply_move(d, move, gf_mode=gf_mode))
                if isinstance(want, str):
                    assert isinstance(got, str), (d.word, move, gf_mode)
                    prefix = "move not applicable"
                    assert got.startswith(prefix) == want.startswith(prefix), \
                        (d.word, move, got, want)
                    refused += 1
                    continue
                assert not isinstance(got, str), (d.word, move, got)
                assert got.word == want.word, (d.word, move)
                inverse = _inverse(invert_move, d, move, got)
                assert inverse == _inverse(ref_invert_move, d, move, want), \
                    (d.word, move)
                if inverse and not gf_mode:
                    # the removals meet their patterns on the moved fronts
                    back = apply_move(got, inverse)
                    assert back.word == d.word, (d.word, move)
                    assert ref_windowed_apply(want, inverse, False).word \
                        == d.word, (d.word, move)
                accepted += 1
                kinds.add(move[0])
    assert kinds == set(ISOTOPY_KINDS) | {"R1a", "R1b", "B", "P", "PM"}
    assert len(bases) > 230
    assert cases > 300000 and accepted > 180000 and refused > 120000


# --- item 5: the commutes on random words --------------------------------

def _random_word(rng, size):
    """A valid event word of at most `size` events; half the right cusps
    that leave room are followed by a left cusp at their height."""
    events, count = [], 0
    while rng.random() < 0.92:
        used = len(events) + count // 2  # the closing right cusps included
        kinds = ("L" * (used + 2 <= size) + "X" * (count >= 2 and used < size)
                 + "R" * (count >= 2))
        if not kinds:
            break
        kind = rng.choice(kinds)
        pos = rng.randint(1, count + 1 if kind == "L" else count - 1)
        count += {"L": 2, "X": 0, "R": -2}[kind]
        events.append((kind, pos))
        if (kind == "R" and len(events) + count // 2 + 2 <= size
                and rng.random() < 0.5):
            events.append(("L", pos))
            count += 2
    for _ in range(count // 2):
        events.append(("R", rng.randint(1, count - 1)))
        count -= 2
    return events


def test_commute_matches_reference_on_random_words():
    rng = random.Random(12)
    accepted = ties = 0
    reasons = set()
    for _ in range(1500):
        d = FrontDiagram(_random_word(rng, rng.randint(2, 12)))
        for e in range(len(d.events) - 1):
            words = set()
            for move in (("C", e), ("Ch", e)):
                want = _outcome(lambda: ref_windowed_apply(d, move, False))
                got = _outcome(lambda: apply_move(d, move))
                if isinstance(want, str):
                    # the reference also said "strands are not adjacent"
                    reason = ("events share a strand"
                              if want.endswith("events share a strand")
                              else "strands interleave vertically")
                    assert got == (f"move not applicable "
                                   f"({format_move(move)}): {reason}"), \
                        (d.word, move, want)
                    reasons.add(reason)
                    continue
                assert not isinstance(got, str), (d.word, move, got)
                assert got.word == want.word, (d.word, move)
                inverse = invert_move(d, move, got)
                assert inverse == ref_invert_move(d, move, want), \
                    (d.word, move)
                assert apply_move(got, inverse).word == d.word, (d.word, move)
                words.add(got.word)
                accepted += 1
            ties += len(words) == 2
    assert len(reasons) == 2
    assert accepted > 5000 and ties > 750
