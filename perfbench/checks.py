"""Answer checks, run by the parent after a pass, outside every timed
region.

Each check reads the fields the paper fixes from a command's JSON
output, never its bytes, so listings that a later version caps still
pass as long as what they list is right.  A check returns None when the
answer is right and a one-line reason when it is not.
"""

import json
import os
import re
from fractions import Fraction

VALUE_TOL = 1e-6

_TERM = re.compile(r"([+-])(\d*)(t(?:\^\(?(-?\d+)\)?)?)?")


def parse_poly(text):
    """{degree: coefficient} of a polynomial printed by `leg`.

    >>> parse_poly("t^3 + 40t + 2 - t^(-1)")
    {3: 1, 1: 40, 0: 2, -1: -1}
    """
    s = text.replace(" ", "")
    if s == "0":
        return {}
    if s[0] not in "+-":
        s = "+" + s
    out, pos = {}, 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos + 1 or (not m.group(2) and not m.group(3)):
            raise ValueError(f"cannot parse polynomial {text!r}")
        c = int(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        d = 0 if not m.group(3) else int(m.group(4) or 1)
        out[d] = out.get(d, 0) + c
        pos = m.end()
    return {d: c for d, c in out.items() if c}


def _add(*polys):
    out = {}
    for p in polys:
        for d, c in p.items():
            out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


def _reflect(p, pivot):
    return {pivot - d: c for d, c in p.items()}


def _nonzero(coeffs):
    return {d: c for d, c in coeffs.items() if c}


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _expect(pairs):
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {got!r}, want {want!r}"
    return None


class Context:
    """What checks share: recorded answers, the work directory, and the
    parsed outputs of earlier commands of the same pass."""

    def __init__(self, refs, work_dir):
        self.refs = refs
        self.work_dir = work_dir
        self.docs = {}

    def file_text(self, name):
        path = os.path.join(self.work_dir, name)
        if not os.path.isfile(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def check_gf_chords(cmd, doc, ctx):
    ref = ctx.refs["gf_chords"][cmd["check"]["family"]]
    bad = _expect([("count", doc["count"], ref["count"]),
                   ("gamma", doc["gamma"], ref["gamma"]),
                   ("indices", [c["index"] for c in doc["chords"]],
                    ref["indices"])])
    if bad:
        return bad
    for got, want in zip([c["value"] for c in doc["chords"]], ref["values"]):
        if abs(got - want) > VALUE_TOL:
            return f"chord value {got!r}, want {want!r}"
    return None


def check_gf_check(cmd, doc, ctx):
    ref = ctx.refs["gf_check"][cmd["check"]["family"]]
    emb = doc["embeddedness"]
    bad = _expect([("ok", doc["ok"], True),
                   ("conditions", sorted(doc["filling"]["conditions"].items()),
                    sorted(ref["conditions"].items())),
                   ("embedded ok", emb["ok"], ref["embedded_ok"])])
    if bad:
        return bad
    if abs(emb["h"] - ref["h"]) > VALUE_TOL:
        return f"embeddedness h {emb['h']!r}, want {ref['h']!r}"
    return None


def check_gf_front(cmd, doc, ctx):
    ref = ctx.refs["gf_front"][cmd["check"]["family"]]
    if doc["count"] != ref["count"]:
        return f"count {doc['count']}, want {ref['count']}"
    if abs(doc["regularity_margin"] - ref["regularity_margin"]) > VALUE_TOL:
        return f"regularity margin {doc['regularity_margin']!r}"
    svg = ctx.file_text(cmd["check"]["svg"])
    if svg is None or svg.count("<circle") != ref["count"]:
        return "svg missing or without one dot per sample"
    return None


def check_wh(cmd, doc, ctx):
    bad = _expect([("tb", doc["tb"], 1), ("rotation", doc["rotation"], [0]),
                   ("components", doc["components"], 1),
                   ("genus", str(doc["genus"]), "1"),
                   ("filling polynomial", doc["filling_polynomial"],
                    "t + 2")])
    if bad:
        return bad
    if ctx.file_text(cmd["check"]["trace"]) is None:
        return "trace file not written"
    return None


def _emitter(cmd, ctx):
    return ctx.docs.get(cmd["check"]["of"])


def check_replay(cmd, doc, ctx):
    src = _emitter(cmd, ctx)
    if src is None:
        return "the command that wrote the trace failed"
    pairs = [("end word", doc["end"], src["word"]),
             ("genus", str(doc["genus"]), str(src["genus"])),
             ("components", doc["components"], src["components"])]
    if "moves" in src:
        pairs.append(("moves", doc["moves"], src["moves"]))
    return _expect(pairs)


def check_double_inv(cmd, doc, ctx):
    src = _emitter(cmd, ctx)
    if src is None:
        return "the double was not built"
    bad = _expect([("word", doc["word"], src["word"]), ("tb", doc["tb"], 1),
                   ("rotation", doc["rotation"], [0]),
                   ("components", doc["components"], 1)])
    if bad:
        return bad
    svg = ctx.file_text(cmd["check"]["svg"])
    if not svg or "<svg" not in svg:
        return "svg not written"
    return None


def _cycles(strands, letters):
    perm = list(range(strands))
    for x in letters:
        perm[x - 1], perm[x] = perm[x], perm[x - 1]
    seen, cycles = set(), 0
    for a in range(strands):
        if a not in seen:
            cycles += 1
            while a not in seen:
                seen.add(a)
                a = perm[a]
    return cycles


def check_braid(cmd, doc, ctx):
    from legcob.front import classical_invariants, parse_front
    s, letters = cmd["check"]["strands"], cmd["check"]["letters"]
    k = len(letters)
    c = _cycles(s, letters)
    genus = Fraction(2 - c + k - s, 2)
    word = " ".join([f"L{t}" for t in range(1, s + 1)]
                    + [f"X{s + i}" for i in letters]
                    + [f"R{t}" for t in range(s, 0, -1)])
    bad = _expect([("word", doc["word"], word),
                   ("components", doc["components"], c),
                   ("chi", doc["chi"], s - k),
                   ("genus", str(doc["genus"]), str(genus)),
                   ("connected", doc["connected"], True),
                   ("flags", doc["flags"], [])])
    if bad:
        return bad
    tb = classical_invariants(parse_front(doc["word"]))["tb"]
    if tb != k - s:
        return f"tb {tb}, want {k - s}"
    if c == 1 and tb != 2 * genus - 1:
        return f"knot closure breaks tb = 2g - 1: tb {tb}, g {genus}"
    if ctx.file_text(cmd["check"]["trace"]) is None:
        return "trace file not written"
    return None


def check_compat(cmd, doc, ctx):
    n = cmd["check"]["n"]
    want = _nonzero(cmd["check"]["coeffs"])
    connected = want.get(n) == 1 and want.get(0, 0) <= want.get(n - 1, 0)
    bad = _expect([("dim", doc["dim"], n),
                   ("poly", parse_poly(doc["poly"]), want),
                   ("compatible", doc["compatible"], True),
                   ("connected form", doc["connected_form"], connected)])
    if bad:
        return bad
    listed = doc["splittings"]
    total = doc.get("count", len(listed))
    if total != cmd["check"]["count"] or len(listed) > total:
        return f"{total} splittings ({len(listed)} listed), " \
               f"want {cmd['check']['count']}"
    seen = set()
    for sp in listed:
        q, p = parse_poly(sp["q"]), parse_poly(sp["p"])
        key = (sp["q"], sp["p"])
        if key in seen:
            return f"splitting listed twice: {key}"
        seen.add(key)
        if _add(q, p, _reflect(p, n - 1)) != want:
            return f"splitting q={sp['q']}; p={sp['p']} does not recompose"
        if min(q.values(), default=0) < 0 or min(p.values(), default=0) < 0 \
                or q.get(n, 0) < 1 or any(not 0 <= d <= n for d in q) \
                or any(d < n // 2 for d in p):
            return f"splitting q={sp['q']}; p={sp['p']} breaks the support rules"
    return None


def _block_gamma(kind, n, a):
    if kind == "Saucer":
        return {n: 1}
    if kind == "Manifold":
        return _add({n: 1}, {a: 1})
    if kind == "Sphere":
        return _add({n: 1}, {a: 1}, {n - 1 - a: 1})
    if kind == "HopfLink":
        return _add({n: 2}, {a: 1}, {n - 1 - a: 1})
    return None


def check_plan(cmd, doc, ctx):
    n = cmd["check"]["n"]
    target = parse_poly(_argv_value(cmd["argv"], "--poly"))
    bad = _expect([("n", doc["n"], n),
                   ("target", parse_poly(doc["target"]), target),
                   ("verification.equal", doc["verification"]["equal"], True)])
    if bad:
        return bad
    total = {}
    for b in doc["blocks"]:
        gamma = parse_poly(b["gamma"])
        if gamma != _block_gamma(b["kind"], n, b["a"]):
            return f"block {b['kind']}({b['a']}) has gamma {b['gamma']}"
        total = _add(total, gamma)
    total = _add(total, {n: 1 - len(doc["blocks"])})
    if total != target:
        return "blocks do not recompose to the target"
    return None


def check_tb(cmd, doc, ctx):
    n = cmd["check"]["n"]
    poly = parse_poly(_argv_value(cmd["argv"], "--poly"))
    sign = -1 if ((n - 2) * (n - 1) // 2) % 2 else 1
    want = sign * sum(c * (-1) ** (d % 2) for d, c in poly.items())
    return _expect([("tb", doc["tb"], want)])


def check_rulings(cmd, doc, ctx):
    from legcob.front import parse_front
    from legcob.rulings import validate_ruling
    word, graded = cmd["check"]["word"], cmd["check"]["graded"]
    ref = ctx.refs["rulings"][f"{word}|{graded}"]
    listed = doc["rulings"]
    bad = _expect([("count", doc["count"], ref["count"]),
                   ("polynomial", parse_poly(doc["polynomial"]),
                    parse_poly(ref["polynomial"]))])
    if bad:
        return bad
    if len(listed) > ref["count"]:
        return f"{len(listed)} rulings listed for count {ref['count']}"
    if len({tuple(r) for r in listed}) != len(listed):
        return "a ruling is listed twice"
    diagram = parse_front(word)
    for r in listed:
        if not validate_ruling(diagram, r):
            return f"ruling {r} is not a normal ruling"
    return None


CHECKS = {
    "gf_chords": check_gf_chords,
    "gf_check": check_gf_check,
    "gf_front": check_gf_front,
    "wh": check_wh,
    "replay": check_replay,
    "double_inv": check_double_inv,
    "braid": check_braid,
    "compat": check_compat,
    "plan": check_plan,
    "tb": check_tb,
    "rulings": check_rulings,
}

GUARDS = ("deadline", "memory")
# Keys of a check spec that name a file the check reads.
FILE_KEYS = ("svg", "trace")


def judge(cmd, outcome, text, ctx, checks=CHECKS):
    """None when the command answered right, else the reason it failed.
    The parsed output of a right answer is kept in ctx.docs."""
    if outcome["status"] != "ok":
        return outcome["status"]
    if outcome["rc"] != 0:
        return f"exit code {outcome['rc']}: {text.strip()[:160]}"
    try:
        doc = json.loads(text)
    except ValueError:
        return "output is not a JSON document"
    try:
        reason = checks[cmd["check"]["kind"]](cmd, doc, ctx)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        reason = f"malformed answer: {type(e).__name__}: {e}"
    if reason is None:
        ctx.docs[cmd["id"]] = doc
    return reason


class Tally:
    """Failure accounting over the commands of one or more passes.

    A wrong answer, an unexpected exit code, a crash, or a guard stop
    counts as one failure, except that a guard stop on a command marked
    `guarded` (a known blow-up kept as a probe) is counted apart: it is
    neither answered nor failed.
    """

    def __init__(self):
        self.attempted = 0
        self.answered = 0
        self.guarded = 0
        self.problems = []

    @property
    def failed(self):
        return len(self.problems)

    def add(self, cmd, reason):
        self.attempted += 1
        if reason is None:
            self.answered += 1
        elif cmd["guarded"] and reason in GUARDS:
            self.guarded += 1
        else:
            self.problems.append((cmd["id"], " ".join(cmd["argv"])[:120],
                                  reason))
