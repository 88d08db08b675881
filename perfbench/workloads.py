"""Seeded command scripts for the three benchmark workloads.

A workload is a list of command specs.  Each spec holds the `leg`
argument vector, the check that judges its answer, the ids of the
commands whose output it needs (a trace replay needs the trace file
written earlier in the same pass), and two marks: `guarded` for a known
blow-up kept as a probe, `heavy` for the costly commands the workload
centres on, which a run samples fewer times than the light ones.  The
seed fixes every generated input and the command order; the same seed
always gives the same script, and no argument vector repeats within a
script.

Paths inside argument vectors are relative to the pass's work
directory, which the child process makes its current directory.
"""

import random
from math import prod

GF_FAMILIES = ("unknot", "scaled-unknot", "shifted-unknot", "linear", "fish",
               "stacked-pair", "saucer")
# Nominal grid steps of the unknot sweep, spanning 0.2-0.03.  The seed
# moves each by up to 0.5%, so inputs change with the seed while the
# cost of the sweep, and which command is the median one, do not: the
# step-0.031 command is the workload's median command, and a 2% move of
# its step moved its time by up to 8%.
UNKNOT_STEPS = (0.19, 0.12, 0.08, 0.06, 0.04, 0.031)
STEP_JITTER = 0.005
STACKED_STEPS = (0.1, 0.03)
# Families whose chord search takes a third of a second or more at the
# default step; every other gf command takes a fifth or less.
HEAVY_FAMILIES = ("scaled-unknot", "fish", "stacked-pair", "saucer")

UNKNOT = "L1 R1"
ZIGZAG = "L1 L2 R1 L1 R2 R1"
TWIST_KS = (3, 5, 7, 9)
BRAID_WH = (3, (1, 2, 1, 2))
BRAID_STRANDS = (2, 3, 4, 5, 6)
BRAID_LENGTHS = (7, 10, 13, 16)

# exact_counts: (dimension, nominal splitting count) of the big targets.
BIG_TARGETS = ((8, 1_000), (9, 10_000), (10, 20_000))
SMALL_PLANS = 150
SMALL_TBS = 150
# Ruling fronts as (front word, graded): twist fronts L1 L2 X3^k R2 R1
# and wide braid closures, fixed so that the ruling cost does not change
# with the seed.
RULING_TWISTS = ((9, True), (13, False), (17, True), (21, False))
RULING_BRAIDS = ((4, (1, 3, 2, 1, 3, 2, 2, 1, 3, 2, 1, 3, 3, 2, 1, 2, 3, 1),
                  False),
                 (5, (1, 4, 2, 3, 1, 2, 4, 3, 2, 1, 3, 4, 2, 3, 1, 4, 2, 3),
                  True),
                 (6, (1, 5, 3, 2, 4, 1, 3, 5, 2, 4, 3, 1, 5, 2, 4, 3, 1, 5),
                  False))


def ruling_fronts():
    return [(twist_word(k), g) for k, g in RULING_TWISTS] \
        + [(braid_closure_word(s, letters), g)
           for s, letters, g in RULING_BRAIDS]
# Untimed, unchecked commands that each pass runs before its script, so
# that the one-time costs of an interpreter's first calls (lazy set-up,
# first numpy and LAPACK calls) land on none of the timed commands.
# Without them they landed on whichever command the seed put first: on
# gf_numerics that moved cmd_p50_s by a fifth on one seed in four.  No
# script holds any of these inputs.
WARMUP = {
    "gf_numerics": [["gf-chords", "--family", "unknot", "--step", "0.25",
                     "--json"]],
    "front_moves": [["braid", "--strands", "2", "--word", "1,1,1", "--fill",
                     "--out", "warmup.trace", "--json"],
                    ["trace", "warmup.trace", "--gf", "--json"]],
    "exact_counts": [["compat", "--dim", "2", "--poly", "t^2 + t", "--json"],
                     ["plan", "--dim", "7", "--poly", "t^7 + t^3", "--json"],
                     ["tb", "--dim", "1", "--poly", "t", "--json"],
                     ["rulings", "--front", "L1 R1", "--json"]],
}
BLOWUP = (10, "t^10 + " + " + ".join(f"60t^{d}" for d in range(9, 1, -1))
          + " + 60t")


def twist_word(k):
    return " ".join(["L1", "L2"] + ["X3"] * k + ["R2", "R1"])


def braid_closure_word(strands, letters):
    return " ".join([f"L{t}" for t in range(1, strands + 1)]
                    + [f"X{strands + i}" for i in letters]
                    + [f"R{t}" for t in range(strands, 0, -1)])


def format_poly(coeffs):
    """Text form of a {degree: coefficient} dict in the `leg` grammar.

    >>> format_poly({3: 1, 1: 40, 0: 2, -1: 1})
    't^3 + 40t^1 + 2 + t^-1'
    """
    terms = []
    for d in sorted(coeffs, reverse=True):
        c = coeffs[d]
        if c:
            mag = str(abs(c)) if d == 0 or abs(c) != 1 else ""
            body = mag + (f"t^{d}" if d else "")
            terms.append(("-" if c < 0 else "+") + body)
    if not terms:
        return "0"
    text = " ".join(t[0] + " " + t[1:] for t in terms)
    return text[2:] if text.startswith("+") else "-" + text[2:]


class Script:
    """Builds a command list; `add` returns the new command's id."""

    def __init__(self):
        self.commands = []
        self._seen = set()

    def add(self, argv, check, needs=(), guarded=False, heavy=False):
        key = tuple(argv)
        if key in self._seen:
            raise ValueError(f"input repeats within a pass: {argv}")
        self._seen.add(key)
        self.commands.append({"id": len(self.commands), "argv": list(argv),
                              "check": check, "needs": list(needs),
                              "guarded": guarded, "heavy": heavy})
        return len(self.commands) - 1


def _ordered(script, rng):
    """Shuffle the commands, keeping every command after those it needs."""
    cmds = script.commands
    order = list(range(len(cmds)))
    rng.shuffle(order)
    placed, out = set(), []
    while len(out) < len(cmds):
        for i in order:
            if i not in placed and all(n in placed for n in cmds[i]["needs"]):
                placed.add(i)
                out.append(cmds[i])
                break
    return out


def gf_numerics(rng):
    s = Script()
    for fam in GF_FAMILIES:
        s.add(["gf-chords", "--family", fam, "--json"],
              {"kind": "gf_chords", "family": fam},
              heavy=fam in HEAVY_FAMILIES)
    for step in STACKED_STEPS:
        s.add(["gf-chords", "--family", "stacked-pair", "--step", str(step),
               "--json"], {"kind": "gf_chords", "family": "stacked-pair"},
              heavy=True)
    for nominal in UNKNOT_STEPS:
        step = round(nominal * rng.uniform(1 - STEP_JITTER, 1 + STEP_JITTER),
                     5)
        s.add(["gf-chords", "--family", "unknot", "--step", str(step),
               "--json"], {"kind": "gf_chords", "family": "unknot"})
    s.add(["gf-check", "--family", "unknot", "--embedded", "--json"],
          {"kind": "gf_check", "family": "unknot"}, heavy=True)
    svg = f"fish-{rng.randrange(10**6)}.svg"
    s.add(["gf-front", "--family", "fish", "--svg", svg, "--json"],
          {"kind": "gf_front", "family": "fish", "svg": svg})
    return s


def _connected_braid(rng, strands, length):
    """Random positive word using every generator, so the closure's
    filling is connected and its trace replays."""
    letters = list(range(1, strands)) + [rng.randint(1, strands - 1)
                                         for _ in range(length - strands + 1)]
    rng.shuffle(letters)
    return letters


def front_moves(rng):
    s = Script()
    bases = [UNKNOT, ZIGZAG] + [twist_word(k) for k in TWIST_KS] \
        + [braid_closure_word(BRAID_WH[0], BRAID_WH[1])]
    for j, base in enumerate(bases):
        trace = f"wh-{j}.trace"
        svg = f"double-{j}.svg"
        wh = s.add(["wh", "--front", base, "--out", trace, "--json"],
                   {"kind": "wh", "trace": trace}, heavy=True)
        s.add(["trace", trace, "--gf", "--json"],
              {"kind": "replay", "of": wh}, needs=[wh])
        s.add(["inv", "--front", f"@word:{wh}", "--svg", svg, "--json"],
              {"kind": "double_inv", "of": wh, "svg": svg}, needs=[wh])
    seen = set()
    for strands in BRAID_STRANDS:
        for length in BRAID_LENGTHS:
            letters = _connected_braid(rng, strands, length)
            while tuple(letters) in seen:
                letters = _connected_braid(rng, strands, length)
            seen.add(tuple(letters))
            trace = f"braid-{strands}-{length}.trace"
            b = s.add(["braid", "--strands", str(strands), "--word",
                       ",".join(map(str, letters)), "--fill", "--out", trace,
                       "--json"],
                      {"kind": "braid", "strands": strands,
                       "letters": letters, "trace": trace})
            s.add(["trace", trace, "--gf", "--json"],
                  {"kind": "replay", "of": b}, needs=[b])
    return s


def _pairs(n):
    """Free splitting degrees of dimension n: (i, n-1-i) for i in
    n//2..n-1; the middle degree of odd n pairs with itself."""
    return [(i, n - 1 - i) for i in range(n // 2, n)]


def splitting_target(rng, n, size, slack=0.01):
    """Coefficients of a degree-n target with t^n once whose splitting
    count, the product of (bound + 1) over the free degrees, is within
    `slack` of `size`.  Returns (coeffs, count)."""
    pairs = _pairs(n)
    while True:
        f = [rng.randint(2, 40) for _ in pairs[:-1]]
        last = round(size / prod(f))
        if not 1 <= last <= 61 or abs(last * prod(f) - size) > slack * size:
            continue
        f.append(last)
        coeffs = {n: 1}
        for (hi, lo), fi in zip(pairs, f):
            b = fi - 1
            if hi == lo:
                coeffs[hi] = 2 * b + rng.randint(0, 1)
            elif lo == 0:
                # q_0 = 0 stays reachable for the planner: c_0 <= c_(n-1).
                coeffs[hi], coeffs[lo] = b + rng.randint(0, 3), b
            elif rng.random() < 0.5:
                coeffs[hi], coeffs[lo] = b + rng.randint(0, 3), b
            else:
                coeffs[hi], coeffs[lo] = b, b + rng.randint(0, 3)
        return coeffs, prod(f)


def _block_sum(rng, n):
    """Count polynomial of a random connect sum of planner blocks."""
    total = {n: 1}
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(("Manifold", "Sphere"))
        a = rng.randint(1, n - 1) if kind == "Manifold" \
            else rng.randint(n // 2, n - 1)
        total[a] = total.get(a, 0) + 1
        if kind == "Sphere":
            total[n - 1 - a] = total.get(n - 1 - a, 0) + 1
    return total


def exact_counts(rng):
    s = Script()
    for n, size in BIG_TARGETS:
        coeffs, count = splitting_target(rng, n, size)
        poly = format_poly(coeffs)
        s.add(["compat", "--dim", str(n), "--poly", poly, "--json"],
              {"kind": "compat", "n": n, "coeffs": coeffs, "count": count},
              heavy=True)
        s.add(["plan", "--dim", str(n), "--poly", poly, "--json"],
              {"kind": "plan", "n": n}, heavy=True)
    plans = set()
    while len(plans) < SMALL_PLANS:
        n = rng.randint(2, 6)
        plans.add((n, format_poly(_block_sum(rng, n))))
    for n, poly in sorted(plans):
        s.add(["plan", "--dim", str(n), "--poly", poly, "--json"],
              {"kind": "plan", "n": n})
    tbs = set()
    while len(tbs) < SMALL_TBS:
        n = rng.randint(2, 6)
        coeffs = {d: rng.randint(0, 5) for d in range(-2, n + 3)}
        coeffs[n] = coeffs[n] or 1
        tbs.add((n, format_poly(coeffs)))
    for n, poly in sorted(tbs):
        s.add(["tb", "--dim", str(n), "--poly", poly, "--json"],
              {"kind": "tb", "n": n})
    for word, graded in ruling_fronts():
        s.add(["rulings", "--front", word, "--json"]
              + (["--graded"] if graded else []),
              {"kind": "rulings", "word": word, "graded": graded},
              heavy=True)
    n, poly = BLOWUP
    s.add(["plan", "--dim", str(n), "--poly", poly, "--json"],
          {"kind": "plan", "n": n}, guarded=True)
    return s


BUILDERS = {"gf_numerics": gf_numerics, "front_moves": front_moves,
            "exact_counts": exact_counts}


def build(workload, seed):
    """The command list of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return _ordered(BUILDERS[workload](rng), rng)
