import random
import time
from fractions import Fraction

import pytest

from legcob.braids import BraidWord, closure_report, positive_braid_closure
from legcob.cli import main
from legcob.errors import DomainError
from legcob.front import classical_invariants
from legcob.moves import trace_summary


def test_braid_word_validation():
    with pytest.raises(DomainError, match="at least 2 strands"):
        BraidWord(1, [1])
    with pytest.raises(DomainError, match="empty braid word"):
        BraidWord(3, [])
    with pytest.raises(DomainError, match="out of range"):
        BraidWord(3, [3])
    with pytest.raises(DomainError, match="out of range"):
        BraidWord(2, [0])


def test_permutation_cycles_counts_fixed_points():
    assert BraidWord(2, [1]).permutation_cycles() == 1
    assert BraidWord(2, [1, 1]).permutation_cycles() == 2
    assert BraidWord(4, [1]).permutation_cycles() == 3
    assert BraidWord(3, [2, 1]).permutation_cycles() == 1


def test_unknot_closure_is_a_disk():
    d, tr, genus = positive_braid_closure(BraidWord(2, [1]))
    assert d.word == "L1 L2 X3 R2 R1"
    assert genus == 0
    s = trace_summary(tr)
    assert s["genus"] == Fraction(0)
    assert classical_invariants(d)["tb"] == -1


def test_sigma2_sigma1_closure_genus_zero():
    d, tr, genus = positive_braid_closure(BraidWord(3, [2, 1]))
    assert genus == 0
    assert trace_summary(tr)["genus"] == Fraction(0)
    assert classical_invariants(d)["components"] == 1


def test_trefoil_closure():
    d, tr, genus = positive_braid_closure(BraidWord(2, [1, 1, 1]))
    assert d.word == "L1 L2 X3 X3 X3 R2 R1"
    assert genus == 1
    inv = classical_invariants(d)
    assert inv["tb"] == 1
    assert inv["rotation"] == [0]
    assert trace_summary(tr)["genus"] == Fraction(1)


def test_disconnected_closure_is_flagged_not_raised():
    rep = closure_report(BraidWord(4, [1]))
    assert rep["genus"] == -2
    assert rep["cycles"] == 3
    assert not rep["connected"]
    assert "disconnected filling" in rep["flags"][0]
    assert "not a surface filling" in rep["flags"][1]


def test_trace_births_and_pinches_match_construction():
    # k letters on s strands: k(s-1) births and s(k-1) pinches.
    b = BraidWord(3, [1, 2, 1, 2])
    _, tr, _ = positive_braid_closure(b)
    s = trace_summary(tr)
    assert s["births"] == len(b.letters) * (b.strands - 1)
    assert s["pinches"] == b.strands * (len(b.letters) - 1)
    assert s["chi"] == s["births"] - s["pinches"]


def test_random_braids_formula_matches_bookkeeping():
    rng = random.Random(4)
    for _ in range(40):
        s = rng.randint(2, 5)
        k = rng.randint(1, 8)
        b = BraidWord(s, [rng.randint(1, s - 1) for _ in range(k)])
        rep = closure_report(b)
        assert rep["genus"] == Fraction(2 - rep["cycles"] + k - s, 2)
        if rep["connected"]:
            assert trace_summary(rep["trace"])["genus"] == rep["genus"]


def test_tb_of_knot_closures_is_2g_minus_1():
    rng = random.Random(9)
    done = 0
    while done < 15:
        s = rng.randint(2, 4)
        k = rng.randint(s - 1, 7)
        b = BraidWord(s, [rng.randint(1, s - 1) for _ in range(k)])
        if b.permutation_cycles() != 1:
            continue
        d, tr, genus = positive_braid_closure(b)
        assert classical_invariants(d)["tb"] == 2 * genus - 1
        done += 1


def test_closure_cap_refuses_large_braids_quickly(capsys):
    for argv in (["braid", "--strands", "100000", "--word", "1"],
                 ["braid", "--strands", "2", "--word", ",".join(["1"] * 5000),
                  "--fill"]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 2.0
        assert "braid closure too large" in capsys.readouterr().out


def test_closure_cap_boundary_and_admitted_sizes():
    # one letter: 113 strands is the largest admitted closure
    assert closure_report(BraidWord(113, [1]))["cycles"] == 112
    with pytest.raises(DomainError, match="braid closure too large"):
        closure_report(BraidWord(114, [1]))
    with pytest.raises(DomainError, match="braid closure too large"):
        positive_braid_closure(BraidWord(2, [1] * 432))
    # 2 strands, 431 letters: the largest replay of any admitted closure
    assert closure_report(BraidWord(2, [1] * 431))["connected"]
    # the largest benchmark braids: 6 strands, 16 letters
    rep = closure_report(BraidWord(6, [5] * 16))
    assert rep["chi"] == 6 - 16
