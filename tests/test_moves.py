import random
from fractions import Fraction

import pytest

from legcob.errors import DomainError
from legcob.front import classical_invariants, parse_front
from legcob.moves import (ISOTOPY_KINDS, CobordismTrace, apply_move,
                          format_move, format_trace, invert_move,
                          isotopy_candidates, parse_move, parse_trace,
                          trace_summary)
from legcob.rulings import enumerate_rulings
from legcob.whitehead import whitehead_diagram

TREFOIL = "L1 L2 X3 X3 X3 R2 R1"
ZIGZAG = "L1 L2 R1 L1 R2 R1"
PAST_DYING_PAIR = "L1 L3 L3 X4 X2 R1 R1 L1 L1 X2 X4 R3 L5 R3 X2 R1 R1"


def test_move_parse_format_round_trip():
    lines = ["B 0 1", "P 3 2", "PM 4", "R1a 1 2", "R1b 0 1", "R1a- 2",
             "R1b- 0", "R2u 5", "R2d 1", "R2u- 3", "R2d- 2", "R3 1", "C 0"]
    for line in lines:
        assert format_move(parse_move(line)) == line


def test_move_parse_rejects_garbage():
    for line in ["", "Q 1", "B 1", "PM 1 2", "B -1 1", "R2 3", "C x"]:
        with pytest.raises(DomainError):
            parse_move(line)


def test_birth_pinch_merge_words():
    d = apply_move(parse_front(""), ("B", 0, 1))
    assert d.word == "L1 R1"
    d2 = apply_move(d, ("P", 1, 1))
    assert d2.word == "L1 R1 L1 R1"
    assert d2.n_components == 2
    d3 = apply_move(d2, ("PM", 1))
    assert d3.word == "L1 R1"


def test_pinch_needs_two_strands():
    d = parse_front("L1 R1")
    with pytest.raises(DomainError, match="move not applicable"):
        apply_move(d, ("P", 0, 1))
    with pytest.raises(DomainError, match="move not applicable"):
        apply_move(d, ("P", 1, 2))


def test_merge_needs_matched_pair():
    d = parse_front("L1 L2 R2 R1")
    with pytest.raises(DomainError, match="move not applicable"):
        apply_move(d, ("PM", 1))


def test_fish_words():
    d = parse_front("L1 R1")
    assert apply_move(d, ("R1a", 1, 1)).word == "L1 L2 X1 R2 R1"
    assert apply_move(d, ("R1b", 1, 1)).word == "L1 L1 X2 R1 R1"


def test_fish_round_trip_and_invariants():
    d = parse_front(TREFOIL)
    base = classical_invariants(d)
    for kind in ("R1a", "R1b"):
        for s in range(len(d.events) + 1):
            for h in range(1, len(d.stacks[s]) + 1):
                d2 = apply_move(d, (kind, s, h))
                inv = classical_invariants(d2)
                assert inv["tb"] == base["tb"]
                assert inv["rotation"] == base["rotation"]
                assert inv["components"] == base["components"]
                assert apply_move(d2, (kind + "-", s)).word == TREFOIL


def test_r2_slide_and_undo():
    d = parse_front(TREFOIL)
    d2 = apply_move(d, ("R2u", 5))
    assert d2.word == "L1 L2 X3 X3 X3 X1 X2 R1 R1"
    inv = classical_invariants(d2)
    assert inv["tb"] == 1 and inv["rotation"] == [0]
    assert apply_move(d2, ("R2u-", 5)).word == TREFOIL
    d3 = apply_move(d, ("R2d", 1))
    inv3 = classical_invariants(d3)
    assert inv3["tb"] == 1 and inv3["rotation"] == [0]
    assert apply_move(d3, ("R2d-", 1)).word == TREFOIL


def test_r2_needs_a_neighbor_strand():
    d = parse_front("L1 R1")
    with pytest.raises(DomainError, match="move not applicable"):
        apply_move(d, ("R2u", 0))  # nothing above the top cusp
    with pytest.raises(DomainError, match="move not applicable"):
        apply_move(d, ("R2d", 0))  # nothing below either
    with pytest.raises(DomainError, match="move not applicable"):
        apply_move(parse_front(TREFOIL), ("R2u", 2))  # crossing, not cusp


def test_r3_round_trip():
    d = parse_front("L1 L2 X1 X2 X1 R2 R1")
    base = classical_invariants(d)
    d2 = apply_move(d, ("R3", 2))
    assert d2.word == "L1 L2 X2 X1 X2 R2 R1"
    assert classical_invariants(d2) == base
    assert apply_move(d2, ("R3", 2)).word == d.word


def test_r3_needs_a_triangle():
    with pytest.raises(DomainError, match="move not applicable"):
        apply_move(parse_front(TREFOIL), ("R3", 2))  # X3 X3 X3


def test_commute_cusp_pair():
    d = parse_front("L1 R1 L1 R1")
    d2 = apply_move(d, ("C", 1))
    assert d2.word == "L1 L1 R3 R1"
    assert apply_move(d2, ("C", 1)).word == d.word


def test_commute_stacked_births():
    d = parse_front("L1 L1 R1 R1")
    d2 = apply_move(d, ("C", 0))
    assert d2.word == "L1 L3 R1 R1"
    assert apply_move(d2, ("C", 0)).word == d.word


def test_commute_rejects_shared_strand():
    with pytest.raises(DomainError, match="share a strand"):
        apply_move(parse_front(TREFOIL), ("C", 2))


def test_commute_rejects_interleaved_cusps():
    # the second cusp is born between the strands of the first
    d = parse_front("L1 L2 R2 R1")
    with pytest.raises(DomainError, match="move not applicable"):
        apply_move(d, ("C", 0))


def test_moved_front_simulates_its_stacks_on_first_read():
    for word, move in ((TREFOIL, ("R1a", 2, 1)), (TREFOIL, ("R2u", 1)),
                       (TREFOIL, ("P", 3, 2)), ("L1 R1 L1 R1", ("C", 1))):
        moved = apply_move(parse_front(word), move)
        assert "stacks" not in moved.__dict__, move
        assert "born" not in moved.__dict__, move
        fresh = parse_front(moved.word)
        assert (moved.stacks, moved.born) == (fresh.stacks, fresh.born)
        assert "stacks" in moved.__dict__ and "born" in moved.__dict__


def test_pinch_grading_checks():
    assert apply_move(parse_front("L1 R1"), ("P", 1, 1),
                      gf_mode=True).word == "L1 R1 L1 R1"
    z = parse_front("L1 L2 R1 L1 R2 R1")
    apply_move(z, ("P", 2, 2), gf_mode=True)
    apply_move(z, ("P", 4, 2), gf_mode=True)
    for move in (("P", 2, 3), ("P", 3, 1)):
        with pytest.raises(DomainError, match="grading mismatch at pinch"):
            apply_move(z, move, gf_mode=True)
        apply_move(z, move, gf_mode=False)  # relaxed mode allows it


def test_merge_grading_checks():
    # same component, equal cusp levels: allowed
    z = parse_front("L1 L2 R1 L1 R2 R1")
    assert apply_move(z, ("PM", 2), gf_mode=True).word == "L1 L2 R2 R1"
    # distinct components: always allowed
    u = parse_front("L1 R1 L1 R1")
    assert apply_move(u, ("PM", 1), gf_mode=True).word == "L1 R1"
    # same component, mismatched levels: rejected in gf mode only
    w = parse_front("L1 L1 X1 X2 R1 L1 R2 R1")
    with pytest.raises(DomainError, match="grading mismatch at pinch"):
        apply_move(w, ("PM", 4), gf_mode=True)
    apply_move(w, ("PM", 4), gf_mode=False)


def test_trace_parse_format_round_trip():
    text = "L1 R1\nR1a 1 1\n# comment\n\nR1a- 1\n"
    t = parse_trace(text)
    assert t.start.word == "L1 R1"
    assert t.moves == [("R1a", 1, 1), ("R1a-", 1)]
    assert format_trace(t) == "L1 R1\nR1a 1 1\nR1a- 1\n"


def test_trace_start_line_may_carry_a_comment():
    t = parse_trace("L1 R1  # the unknot\nR1a 1 1  # a fish\n")
    assert t.start.word == "L1 R1"
    assert t.moves == [("R1a", 1, 1)]
    # the first line is the start front even when it is all comment
    t = parse_trace("# a filling from nothing\nB 0 1\n")
    assert t.start.word == ""
    assert t.moves == [("B", 0, 1)]


def test_trace_summary_disk():
    s = trace_summary(parse_trace("\nB 0 1"))
    assert s["end"].word == "L1 R1"
    assert s["chi"] == 1
    assert s["genus"] == Fraction(0)


def test_trace_summary_annulus_and_torus():
    s = trace_summary(parse_trace("\nB 0 1\nP 1 1"))
    assert (s["components"], s["chi"], s["genus"]) == (2, 0, Fraction(0))
    s = trace_summary(parse_trace("\nB 0 1\nP 1 1\nPM 1"))
    assert s["end"].word == "L1 R1"
    assert (s["chi"], s["genus"]) == (-1, Fraction(1))


def test_trace_summary_joined_births():
    s = trace_summary(parse_trace("\nB 0 1\nB 1 2\nP 2 1"))
    assert s["pieces"] == 1
    assert s["genus"] == Fraction(0)


def test_disconnected_filling_raises():
    with pytest.raises(DomainError, match="disconnected filling"):
        trace_summary(parse_trace("\nB 0 1\nB 2 1"))


def test_nonempty_start_has_no_genus():
    t = CobordismTrace(parse_front(TREFOIL), [("R2u", 5), ("R2u-", 5)])
    s = trace_summary(t)
    assert s["genus"] is None
    assert s["end"].word == TREFOIL


def test_gf_trace_replay_checks_pinches():
    t = parse_trace("L1 L2 R1 L1 R2 R1\nP 2 3", gf_mode=True)
    with pytest.raises(DomainError, match="grading mismatch at pinch"):
        trace_summary(t)


def _graded_ruling_count(d):
    return len(enumerate_rulings(d, graded=True))


def test_random_isotopies_preserve_invariants():
    rng = random.Random(7)
    for word in ("L1 R1", TREFOIL):
        d = parse_front(word)
        base = classical_invariants(d)
        base_rulings = _graded_ruling_count(d)
        for _ in range(60):
            fish = None if len(d.crossings) < 12 else ()
            cands = list(isotopy_candidates(d, (0, len(d.events)),
                                            ISOTOPY_KINDS, fish))
            rng.shuffle(cands)
            for move in cands:
                try:
                    d = apply_move(d, move)
                except DomainError:
                    continue
                break
            else:
                raise AssertionError("no applicable isotopy move")
            inv = classical_invariants(d)
            assert inv["tb"] == base["tb"]
            assert inv["rotation"] == base["rotation"]
            assert inv["components"] == base["components"]
            assert _graded_ruling_count(d) == base_rulings


def test_invert_move_is_faithful():
    """Every applicable isotopy candidate, pinch and merge pinch, then
    its inverse, gives back the same word; so does the inverse followed
    by its own inverse, which covers the removals (R1a-, R2u-, ...).
    The braid closure holds the only triangle (R3); the last front, met
    in the tongue walk of the trefoil's double, has a commute past a
    dying pair that only the other placement undoes."""
    kinds = set()
    for d in (parse_front(TREFOIL), parse_front(ZIGZAG),
              whitehead_diagram(parse_front("L1 R1")),
              parse_front("L1 L2 L3 X4 X5 X4 X5 R3 R2 R1"),
              parse_front(PAST_DYING_PAIR)):
        n = len(d.events)
        cands = list(isotopy_candidates(d, (0, n), ISOTOPY_KINDS, None))
        cands += [("P", s, h) for s in range(n + 1)
                  for h in range(1, len(d.stacks[s]))]
        cands += [("PM", e) for e in range(n - 1)]
        for move in cands:
            try:
                after = apply_move(d, move)
            except DomainError:
                continue
            inverse = invert_move(d, move, after)
            back = apply_move(after, inverse)
            assert back.word == d.word, (d.word, move)
            again = invert_move(after, inverse, back)
            assert apply_move(back, again).word == after.word, (d.word, move)
            kinds |= {move[0], inverse[0]}
    assert kinds == set(ISOTOPY_KINDS) | {"R1a", "R1b", "P", "PM"}
    d = parse_front(PAST_DYING_PAIR)
    after = apply_move(d, ("C", 12))
    assert invert_move(d, ("C", 12), after) == ("Ch", 12)
