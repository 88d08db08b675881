"""Short inputs that must not hang the `leg` command or run it out of
memory.

Each row is one argv for `python -m legcob.cli`, run in a fresh
interpreter with its address space capped at 1 GiB and a deadline of a
few seconds.  It must exit 0 or 1 (a DomainError), print no traceback
and not die from a signal.  An input that still fails is marked a
strict xfail naming the ROADMAP item that fixes it, so a fix shows up
as an unexpected pass.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MEMORY_CAP = 1 << 30
DEADLINE_S = 3.0
# Files a row may name, written to its working directory first.
FILES = {"bad-argument.trace": "L1 R1\nC --1\n",
         "huge-dim.plan": '{"n": 300000000, "target": "t^300000000", '
                          '"blocks": [{"kind": "Saucer"}]}',
         "huge-n.gf": "n=1000000000\nN=1\ncore=e1\ntail=-e1\nR=1\n",
         "huge-N.gf": "n=1\nN=1000000000\ncore=e1\ntail=-e1\nR=1\n",
         "degenerate-n2.gf": "n=2\nN=1\ncore=e1^3 - 3*x1^2*e1 + x2^2*e1\n"
                             "tail=e1\nR=3\n",
         # R = 0.25: on a larger grid box x1^2060 itself overflows
         "spin-2060.gf": "n=1\nN=1\ncore=x1^2060*e1 + e1\ntail=-5*e1\n"
                         "R=0.25\n",
         "huge-exponent.gf": "n=1\nN=1\ncore=3*e1 - 3*x1^2*e1 - e1^100001\n"
                             "tail=-200*e1\nR=3\n",
         "derivative-overflow.gf": "n=1\nN=1\ncore=1.5e308*e1^2 + e1^3\n"
                                   "tail=-5*e1\nR=3\n",
         # 60 KB of births, and 5,000 pinches each counted twice in gf
         # mode: both over the replay cap
         "births.trace": "\n" + "B 0 1\n" * 10000,
         "pinches.trace": "L1 R1\n" + "P 1 1\n" * 5000,
         # 999 graded pinches: 1,998,000 events of work, under the cap
         "pinches-999.trace": "L1 R1\n" + "P 1 1\n" * 999,
         "not-utf8.trace": b"\xff\xfe"}


ROWS = [
    pytest.param(["braid", "--strands", "100000", "--word", "1"],
                 id="braid-wide"),
    pytest.param(["gf-chords", "--family", "unknot", "--step", "1e-9"],
                 id="gf-chords-fine-step"),
    # the finest step the grid cap admits on the saucer (3 axes)
    pytest.param(["gf-chords", "--family", "saucer", "--step", "0.039"],
                 id="gf-chords-saucer-finest-step"),
    # 17,772 chord seeds: refused by the chord work cap before Newton
    pytest.param(["gf-chords", "--file", "degenerate-n2.gf", "--step", "0.1"],
                 id="gf-chords-degenerate-n2"),
    pytest.param(["gf-chords", "--file", "huge-n.gf"], id="gf-file-huge-n"),
    pytest.param(["gf-chords", "--file", "huge-N.gf"], id="gf-file-huge-N"),
    # C(1030, j) of the spun x1^2060 does not convert to a float
    pytest.param(["gf-spin", "--file", "spin-2060.gf"],
                 id="gf-spin-huge-exponent"),
    pytest.param(["tb", "--dim", "1", "--poly", "t^99999999999"],
                 id="tb-huge-degree"),
    pytest.param(["move", "--front", "L1 R1", "--move", "C --5"],
                 id="move-double-minus"),
    pytest.param(["move", "--front", "L1 R1", "--move", "C ²"],
                 id="move-superscript"),
    pytest.param(["trace", "bad-argument.trace"], id="trace-double-minus"),
    pytest.param(["inv", "--front", "L1 R1 " * 3000], id="inv-3000-circles"),
    # a 3.6 KB argv: each strand's track is listed in one pass over the
    # slices, not searched for in every slice
    pytest.param(["inv", "--front", "L1 " * 600 + "R1 " * 600,
                  "--svg", "eyes.svg"], id="inv-svg-600-nested-eyes"),
    # a 12 KB argv whose drawing has 4,000 slices of up to 4,000 strands:
    # refused by the SVG cap, 16e6 points
    pytest.param(["inv", "--front", "L1 " * 2000 + "R1 " * 2000,
                  "--svg", "eyes.svg"], id="inv-svg-2000-nested-eyes"),
    pytest.param(["compat", "--dim", "3", "--poly",
                  "t^3 + 100000000t^2 + 100000000t"],
                 id="compat-big-coefficients"),
    pytest.param(["compat", "--dim", "10", "--poly",
                  "t^10 + " + " + ".join(f"60t^{d}" for d in range(9, 0, -1))],
                 id="compat-dim-10-coefficients-60"),
    pytest.param(["plan", "--dim", "4", "--poly",
                  "t^4 + 1000000t^3 + 1000000"],
                 id="plan-big-coefficients"),
    pytest.param(["plan", "--dim", "3", "--poly", "t^3 - t^5 - t^(-3)"],
                 id="plan-negative-mirrored-coefficient"),
    pytest.param(["compat", "--dim", "30000000", "--poly", "t^30000000"],
                 id="compat-huge-dim"),
    pytest.param(["plan", "--dim", "30000000", "--poly", "t^30000000"],
                 id="plan-huge-dim"),
    pytest.param(["plan", "--verify", "huge-dim.plan"],
                 id="plan-verify-huge-dim"),
    pytest.param(["rulings", "--front", "L1 L2 " + "X3 " * 40 + "R2 R1"],
                 id="rulings-40-twists"),
    # ten nested eyes whose crossings run twice: over 10^4 pairings at
    # once from the start alone, at most 512 when swept from both ends
    pytest.param(["rulings", "--front",
                  " ".join([f"L{t}" for t in range(1, 11)]
                           + [f"X{10 + i}" for i in range(1, 10)] * 2
                           + [f"R{t}" for t in range(10, 0, -1)])],
                 id="rulings-wide-front"),
    # the crossings run four times, so the front is wide from both ends:
    # refused by the cap on pairings at once
    pytest.param(["rulings", "--front",
                  " ".join([f"L{t}" for t in range(1, 11)]
                           + [f"X{10 + i}" for i in range(1, 10)] * 4
                           + [f"R{t}" for t in range(10, 0, -1)])],
                 id="rulings-wide-front-both-ends"),
    # seven nested eyes over 180 crossings: never 10^4 pairings at once
    pytest.param(["rulings", "--front",
                  " ".join([f"L{t}" for t in range(1, 8)]
                           + [f"X{7 + i}" for i in range(1, 7)] * 30
                           + [f"R{t}" for t in range(7, 0, -1)])],
                 id="rulings-long-wide-front"),
    # 3001 crossings: with 3000 the front is a link, refused as one
    pytest.param(["wh", "--front", "L1 L2 " + "X3 " * 3001 + "R2 R1"],
                 id="wh-long-twist"),
    # the closure of s1 s2 ... s39 on 40 strands, a knot
    pytest.param(["wh", "--front",
                  " ".join([f"L{t}" for t in range(1, 41)]
                           + [f"X{40 + i}" for i in range(1, 40)]
                           + [f"R{t}" for t in range(40, 0, -1)])],
                 id="wh-40-strand-closure"),
    # e1^100001: a power taken as k products would not answer in time
    pytest.param(["gf-chords", "--file", "huge-exponent.gf"],
                 id="gf-chords-huge-exponent"),
    pytest.param(["gf-front", "--file", "huge-exponent.gf"],
                 id="gf-front-huge-exponent"),
    pytest.param(["gf-chords", "--file", "derivative-overflow.gf"],
                 id="gf-chords-derivative-overflow"),
    pytest.param(["trace", "births.trace"], id="trace-10000-births"),
    pytest.param(["trace", "pinches.trace", "--gf"],
                 id="trace-gf-5000-pinches"),
    pytest.param(["trace", "pinches-999.trace", "--gf"],
                 id="trace-gf-999-pinches"),
    pytest.param(["trace", "not-utf8.trace"], id="trace-not-utf8"),
    pytest.param(["trace", "/dev/zero"], id="trace-dev-zero"),
    pytest.param(["gf-chords", "--file", "/dev/zero"],
                 id="gf-chords-dev-zero"),
    pytest.param(["plan", "--verify", "/dev/zero"], id="plan-verify-dev-zero"),
]


def _nested_eyes(k):
    return "L1 " * k + "R1 " * k


# The births of a trace on 12,000 nested eyes that the replay cap admits
# (83 on 24,000 to 24,164 events), alternating between two slices of
# the growing front.
def _eye_births(first, second):
    return "".join(f"B {first(k) if k % 2 == 0 else second(k)} 1\n"
                   for k in range(83))


# Long inputs, written to the working directory of the long-input rows
# only.
LONG_FILES = {
    # a birth after 6,000 and 12,000 nested eyes, 36 KB and 72 KB: a
    # replay keeps a label pair per cusp and one slice, not the labels
    # of every slice
    "eyes-6000.trace": _nested_eyes(6000) + "\nB 0 1\n",
    "eyes-12000.trace": _nested_eyes(12000) + "\nB 0 1\n",
    # the replay's worst cases at the cap: births alternately at the
    # first and the last slice, which a walk of the slice from where the
    # last move left it would cross the whole front to reach, and at a
    # quarter and three quarters of the front, half a front apart
    "eyes-ends.trace": _nested_eyes(12000) + "\n" + _eye_births(
        lambda k: 0, lambda k: 24000 + 2 * k),
    "eyes-quarters.trace": _nested_eyes(12000) + "\n" + _eye_births(
        lambda k: 6000, lambda k: 18000),
    # 20,000 manifold blocks in distinct degrees, twice the plan cap
    "blocks-20000.plan": json.dumps({
        "n": 20001,
        "target": "t^20001 + " + " + ".join(
            f"t^{a}" for a in range(20000, 0, -1)),
        "blocks": [{"kind": "Manifold", "a": a} for a in range(1, 20001)]}),
    # 2,500 distinct terms x1^i*e1^j, 34 KB
    "core-2500.gf": "n=1\nN=1\ncore=" + " + ".join(
        f"x1^{i}*e1^{j}" for i in range(50) for j in range(50))
    + "\ntail=-5*e1\nR=0.25\n"}

# Each row: argv, its exit code and a line of its output.
LONG_ROWS = [
    # 9,999 manifold blocks in distinct degrees, under the plan cap: an
    # 89 KB argv
    pytest.param(["plan", "--dim", "20000", "--poly", "t^20000 + " + " + ".join(
        f"t^{a}" for a in range(9999, 0, -1))], 0, '    "equal": true,',
        id="plan-9999-degrees"),
    pytest.param(["plan", "--verify", "blocks-20000.plan"], 1,
                 "error: plan too large: 20000 blocks exceed the cap of 1e+04",
                 id="plan-verify-20000-blocks"),
    pytest.param(["gf-chords", "--file", "core-2500.gf"], 0, "gamma t",
                 id="gf-chords-2500-terms"),
    # 12,000 nested eyes, a 72 KB argv: the invariants read each event's
    # pair from one run of the word and keep no stack per slice
    pytest.param(["inv", "--front", "L1 " * 12000 + "R1 " * 12000], 0,
                 "tb -12000", id="inv-12000-nested-eyes"),
    # the ruling sweep's pairings grow by two strands an event: refused
    # by the strands it carries before their tuples fill the memory
    pytest.param(["rulings", "--front", "L1 " * 12000 + "R1 " * 12000], 1,
                 "error: front too long and wide for the ruling sweep: "
                 "2000810 strands of the pairings carried by event 1414 "
                 "exceed the cap of 2e+06", id="rulings-12000-nested-eyes"),
    pytest.param(["trace", "eyes-6000.trace"], 0, "pieces 6001",
                 id="trace-6000-nested-eyes"),
    pytest.param(["trace", "eyes-6000.trace", "--gf"], 0, "pieces 6001",
                 id="trace-gf-6000-nested-eyes"),
    pytest.param(["trace", "eyes-12000.trace"], 0, "pieces 12001",
                 id="trace-12000-nested-eyes"),
    pytest.param(["trace", "eyes-12000.trace", "--gf"], 0, "pieces 12001",
                 id="trace-gf-12000-nested-eyes"),
    pytest.param(["move", "--front", _nested_eyes(6000), "--move", "B 0 1"],
                 0, "moves 1", id="move-6000-nested-eyes"),
    pytest.param(["trace", "eyes-ends.trace"], 0, "pieces 12083",
                 id="trace-12000-nested-eyes-ends-at-cap"),
    pytest.param(["trace", "eyes-quarters.trace"], 0, "pieces 12083",
                 id="trace-12000-nested-eyes-quarters-at-cap"),
]


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _run(argv, tmp_path):
    """Run one argv under the caps and check its answer is bounded: exit
    0, or 1 with an error line, and no traceback.  Returns the process."""
    for name, text in FILES.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "legcob.cli", *argv], cwd=tmp_path,
            env=env, capture_output=True, text=True, timeout=DEADLINE_S,
            preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        pytest.fail(f"no answer within {DEADLINE_S} s")
    out = proc.stdout + proc.stderr
    assert proc.returncode >= 0, f"killed by signal {-proc.returncode}"
    assert proc.returncode in (0, 1), out[-500:]
    assert "Traceback" not in out, out[-500:]
    if proc.returncode == 1:
        # exit 1 is a DomainError, reported on standard output
        assert proc.stdout.startswith("error: "), out[-500:]
    return proc


@pytest.mark.parametrize("argv", ROWS)
def test_short_input_gets_a_bounded_answer(argv, tmp_path):
    _run(argv, tmp_path)


@pytest.mark.parametrize("births", [1414, 1415])
def test_move_births_meet_the_replay_cap(births, tmp_path):
    # from the empty front, the k-th birth works on the 2(k - 1) events
    # before it: 1,414 births come to 1,997,982 events of work, and
    # 1,415 to 2,000,810, over MAX_REPLAY_WORK
    argv = ["move", "--front", ""] + ["--move", "B 0 1"] * births
    proc = _run(argv, tmp_path)
    if births == 1414:
        assert proc.returncode == 0
        assert proc.stdout.endswith(f"moves {births}\n")
    else:
        assert proc.returncode == 1
        assert proc.stdout.startswith("error: trace too large to replay")


@pytest.mark.parametrize("command", ["gf-chords", "gf-front"])
def test_overflowing_core_is_refused(command, tmp_path):
    # e1^100001 is inf on the grid box [-6, 6]^2 and its derivative
    # underflows to 0 near the true root: both answered count 0
    proc = _run([command, "--file", "huge-exponent.gf"], tmp_path)
    assert proc.returncode == 1
    assert "grid box [-6, 6]^2" in proc.stdout


@pytest.mark.parametrize("argv, code, line", LONG_ROWS)
def test_long_input_gets_a_linear_answer(argv, code, line, tmp_path):
    """These inputs are long, tens of kilobytes, not short, so their
    cost may grow with their length but must stay linear in it: each
    term, degree or block is summed into its polynomial once, not by
    rebuilding the whole sum for each, a plan file over the block cap is
    refused before any block is built, and neither a front's invariants
    nor a trace replay keep a stack of strands per slice.  They answer
    under the same caps and deadline as the short inputs."""
    for name, text in LONG_FILES.items():
        (tmp_path / name).write_text(text)
    proc = _run(argv, tmp_path)
    assert proc.returncode == code, proc.stdout[-500:]
    assert line in proc.stdout.splitlines(), proc.stdout[:500]
