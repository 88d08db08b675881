"""Command line surface: ``leg COMMAND [flags]``.

Commands
    inv        classical invariants of a front word
    rulings    normal rulings and the ruling polynomial
    move       apply moves to a front word
    trace      replay and summarize a cobordism trace file
    wh         clasped double of a knot front with its genus-1 filling
    braid      positive braid closure, optionally with the filling trace
    plan       block realization plan for a count polynomial (JSON)
    tb         classical invariant read off a count polynomial
    compat     duality compatibility and splittings of a count polynomial
    gf-front   fiber-critical samples of a generating family
    gf-chords  chord enumeration with the duality audit
    gf-spin    rotate a 1-d generating family about its vertical axis
    gf-check   filling interpolation conditions, optional embeddedness run

Input grammars: a front word is whitespace-separated ``L<h> X<h> R<h>``
tokens, a braid word is comma-separated generator indices, a polynomial
is a signed sum of ``c*t^d`` terms.  Every command prints key-value
text by default or a JSON document under ``--json``; front pictures go
to ``--svg PATH``.  Exit codes: 0 success, 1 domain error (the output
document is a single error field), 2 usage error.  Output is
deterministic for fixed inputs; configuration is flags only.  An argv
that starts with a command name is read by that command's own parser
alone; any other, or one with arguments left over, by the full parser.

Each command imports only the modules it runs, when it runs: starting
`leg` loads the parser and nothing the command does not call, and only
the gf commands load numpy, through legcob.gfnum.  `import legcob`
itself imports no submodule until one of its names is used.
"""

import argparse
import json
import math
import os
import sys
from itertools import chain

from .errors import DomainError
from .families import FAMILY_BUILDERS

# Most rulings or splittings a command lists; it always prints how many
# there are, and a `listed N of M` line when it lists fewer.
MAX_LISTED = 1000
# Largest input file a command reads; every format it takes is short text.
MAX_INPUT_BYTES = 1 << 24


def _fmt(v):
    """One value as text: floats trimmed, lists comma-joined, booleans
    lowercase, None a dash.

    >>> from fractions import Fraction
    >>> _fmt([0, -1]), _fmt(Fraction(3, 2)), _fmt(True), _fmt(None)
    ('0,-1', '3/2', 'true', '-')
    """
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.10g" % v
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v) if len(v) else "-"
    return str(v)


def _kv(pairs):
    return (f"{k} {_fmt(v)}" for k, v in pairs)


_ascii = json.encoder.encode_basestring_ascii


def _dump(doc):
    """The JSON text of a document: byte for byte what
    json.dumps(sort_keys=True, indent=2) printed for it, in one pass.

    Keys are str(k), sorted and ensure-ASCII escaped; floats print as
    float.__repr__, with nan and +-inf as the strings "nan", "inf" and
    "-inf"; ints as int.__repr__; bools and None as true, false and
    null; tuples as lists; any other object as the string str(v) (a
    Fraction, a LaurentPoly, a numpy bool as "True"); an empty list or
    dict as [] or {}.  A list of plain ints, and a list of lists or tuples
    of plain ints, is joined in one comprehension.

    >>> print(_dump({"b": [1, 2], 1: float("nan"), "a": {}}))
    {
      "1": "nan",
      "a": {},
      "b": [
        1,
        2
      ]
    }
    """
    return _encode(doc, "\n")


def _encode(v, nl):
    """v as JSON text; nl is the newline and indent of v's own line.
    Exact str, int, finite float, dict, list and tuple are told by
    type; a bool, None, a subclass or any other object takes the
    isinstance chain."""
    t = type(v)
    if t is str:
        return _ascii(v)
    if t is int:
        return int.__repr__(v)
    if t is float and math.isfinite(v):
        return float.__repr__(v)
    if t is not dict and t is not list and t is not tuple:
        if isinstance(v, str):
            return _ascii(v)
        if v is None:
            return "null"
        if v is True:
            return "true"
        if v is False:
            return "false"
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, float):
            if math.isnan(v):
                return '"nan"'
            if math.isinf(v):
                return '"inf"' if v > 0 else '"-inf"'
            return float.__repr__(v)
        if not isinstance(v, (dict, list, tuple)):
            return _ascii(str(v))
    inner = nl + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = {str(k): x for k, x in v.items()}
        body = [_ascii(k) + ": " + _encode(items[k], inner)
                for k in sorted(items)]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    if not v:
        return "[]"
    if all(type(x) is int for x in v):
        body = map(int.__repr__, v)
    elif all((type(x) is list or type(x) is tuple)
             and all(type(y) is int for y in x) for x in v):
        deep = "," + inner + "  "
        body = ["[" + deep[1:] + deep.join(map(int.__repr__, x)) + inner
                + "]" if x else "[]" for x in v]
    else:
        body = [_encode(x, inner) for x in v]
    return "[" + inner + ("," + inner).join(body) + nl + "]"


def _read(path):
    """The text of a UTF-8 file of at most MAX_INPUT_BYTES, with
    newlines translated as text mode does."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_INPUT_BYTES + 1)
    except OSError as e:
        raise DomainError(f"cannot read {path}: {e.strerror or e}")
    if len(data) > MAX_INPUT_BYTES:
        raise DomainError(
            f"cannot read {path}: larger than the cap of "
            f"{MAX_INPUT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DomainError(
            f"cannot read {path}: not UTF-8 text ({e.reason} at byte "
            f"{e.start})")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise DomainError(f"cannot write {path}: {e.strerror or e}")


def _csv_ints(text, what):
    if not text:
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise DomainError(
            f"bad {what} {text!r}: expected comma-separated integers")


def _maybe_svg(args, diagram):
    if getattr(args, "svg", None):
        from .render import render_svg
        _write(args.svg, render_svg(diagram))


def _load_family(args):
    from .gfnum import FAMILIES, parse_gf_file
    if args.file:
        return parse_gf_file(_read(args.file))
    return FAMILIES[args.family]()


# --- command handlers --------------------------------------------------
# Each returns (text lines, JSON document).  The lines are a lazy
# iterable, formatted only when main prints text; a document may come
# already encoded, as a string.  Each imports what it runs at the top
# of its body, so a command loads only its own modules.

def cmd_inv(args):
    from .front import classical_invariants, parse_front
    d = parse_front(args.front)
    info = classical_invariants(d, _csv_ints(args.reverse, "--reverse"))
    _maybe_svg(args, d)
    doc = {"word": d.word, **info}
    return _kv(doc.items()), doc


def _cut(listed, count):
    """The `listed N of M` line when a listing stops at the cap."""
    return [f"listed {listed} of {count}"] if listed < count else []


def cmd_rulings(args):
    from .front import parse_front
    from .rulings import enumerate_rulings, ruling_polynomial
    d = parse_front(args.front)
    poly = ruling_polynomial(d, graded=args.graded)
    count = poly.total_count()
    rus = enumerate_rulings(d, graded=args.graded, limit=MAX_LISTED)
    doc = {"word": d.word, "graded": args.graded, "count": count,
           "polynomial": str(poly), "rulings": rus}
    lines = chain(_kv([("word", d.word), ("graded", args.graded),
                       ("count", count),
                       ("polynomial", doc["polynomial"])]),
                  (f"ruling {','.join(map(str, r)) or '-'}" for r in rus),
                  _cut(len(rus), count))
    return lines, doc


def cmd_move(args):
    from .front import parse_front
    from .moves import CobordismTrace, _replay, parse_move
    start = parse_front(args.front)
    moves = [parse_move(text) for text in args.move]
    d, _, _, _ = _replay(CobordismTrace(start, moves, gf_mode=args.gf))
    _maybe_svg(args, d)
    doc = {"word": d.word, "moves": len(args.move)}
    return _kv(doc.items()), doc


def cmd_trace(args):
    from .moves import parse_trace, trace_summary
    trace = parse_trace(_read(args.file), gf_mode=args.gf)
    s = trace_summary(trace)
    end = s.pop("end")
    _maybe_svg(args, end)
    doc = {"start": trace.start.word, "end": end.word,
           "moves": len(trace.moves), **s}
    return _kv(doc.items()), doc


def cmd_wh(args):
    from fractions import Fraction
    from .exactseq import filling_polynomial
    from .front import classical_invariants, parse_front
    from .moves import format_trace
    from .whitehead import whitehead_double
    base = parse_front(args.front)
    # whitehead_double replays the trace and checks it fills with genus 1
    diagram, trace = whitehead_double(base, gf_mode=not args.no_gf)
    genus = Fraction(1)
    inv = classical_invariants(diagram)
    fill = filling_polynomial(int(genus), inv["components"])
    _maybe_svg(args, diagram)
    doc = {"word": diagram.word, "tb": inv["tb"],
           "rotation": inv["rotation"], "components": inv["components"],
           "genus": genus, "moves": len(trace.moves),
           "filling_polynomial": str(fill)}
    if args.out:
        _write(args.out, format_trace(trace))
        doc["trace"] = args.out
    return _kv(doc.items()), doc


def cmd_braid(args):
    from .braids import BraidWord, closure_report
    from .moves import format_trace
    letters = _csv_ints(args.word, "braid word")
    rep = closure_report(BraidWord(args.strands, letters))
    d = rep["diagram"]
    _maybe_svg(args, d)
    doc = {"word": d.word, "strands": args.strands, "letters": letters,
           "components": d.n_components, "cycles": rep["cycles"],
           "chi": rep["chi"], "genus": rep["genus"],
           "connected": rep["connected"], "flags": rep["flags"]}
    lines = chain(_kv([(k, v) for k, v in doc.items() if k != "flags"]),
                  (f"flag {f}" for f in rep["flags"]))
    if args.fill or args.out:
        path = args.out or "braid.trace"
        _write(path, format_trace(rep["trace"]))
        doc["trace"] = path
        lines = chain(lines, [f"trace {path}"])
    return lines, doc


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _load_plan(path):
    from .geography import Block, RealizationPlan, check_block_cap
    from .laurent import parse_poly
    try:
        data = json.loads(_read(path))
    except ValueError as e:
        raise DomainError(f"plan file is not valid JSON: {e}")
    for key in ("n", "target", "blocks"):
        if not isinstance(data, dict) or key not in data:
            raise DomainError(f"plan file missing field {key!r}")
    n, target, blocks = data["n"], data["target"], data["blocks"]
    if not _is_int(n):
        raise DomainError(f"plan field 'n' must be an integer, got {n!r}")
    if not isinstance(target, str):
        raise DomainError(
            f"plan field 'target' must be a polynomial string, got "
            f"{target!r}")
    if not isinstance(blocks, list):
        raise DomainError("plan field 'blocks' must be a list")
    check_block_cap(len(blocks))
    for b in blocks:
        if not isinstance(b, dict) or "kind" not in b:
            raise DomainError("plan block missing field 'kind'")
        if b.get("a") is not None and not _is_int(b["a"]):
            raise DomainError(
                f"plan block degree 'a' must be an integer, got {b['a']!r}")
    target = parse_poly(target)
    blocks = [Block(b["kind"], n, b.get("a")) for b in blocks]
    plan = RealizationPlan(n, blocks, target)
    if not plan.verified():
        raise DomainError(
            f"plan does not re-validate: blocks recompose to "
            f"{plan.recomposed}, target is {target}")
    return plan


def cmd_plan(args):
    from .geography import realize
    from .laurent import parse_poly
    if args.verify:
        plan = _load_plan(args.verify)
        doc = {"file": args.verify, "n": plan.n, "target": str(plan.target),
               "recomposed": str(plan.recomposed),
               "blocks": len(plan.blocks), "verified": True}
        return _kv(doc.items()), doc
    plan = realize(parse_poly(args.poly), args.dim,
                   sphere_only=args.sphere_only)
    text = _dump(plan.to_dict())
    if args.out:
        _write(args.out, text + "\n")
    return [text], text


def cmd_tb(args):
    from .laurent import parse_poly, tb_from_polynomial
    if args.dim < 1:
        raise DomainError(f"dimension must be >= 1, got {args.dim}")
    poly = parse_poly(args.poly)
    val = tb_from_polynomial(poly, args.dim)
    return [str(val)], {"dim": args.dim, "poly": str(poly), "tb": val}


def cmd_compat(args):
    from .laurent import box_size, decompose, incompat_reason, \
        is_connected_form, parse_poly, splitting_box
    poly = parse_poly(args.poly)
    count = box_size(splitting_box(poly, args.dim))
    splits = decompose(poly, args.dim, limit=MAX_LISTED)
    listed = [{"q": str(q), "p": str(p)} for q, p in splits]
    doc = {"dim": args.dim, "poly": str(poly),
           "compatible": count > 0,
           "connected_form": is_connected_form(poly, args.dim),
           "count": count, "splittings": listed}
    if not count:
        doc["reason"] = incompat_reason(poly, args.dim)
    lines = chain(_kv([("dim", args.dim), ("poly", doc["poly"]),
                       ("compatible", doc["compatible"]),
                       ("connected_form", doc["connected_form"]),
                       ("splittings", count)]),
                  (f"split q={s['q']}; p={s['p']}" for s in listed),
                  _cut(len(listed), count),
                  _kv([("reason", doc["reason"])] if not count else []))
    return lines, doc


def cmd_gf_front(args):
    from .gfnum import fiber_critical_set, fiber_regularity_margin
    fam = _load_family(args)
    rows = fiber_critical_set(fam, step=args.step)
    margin = fiber_regularity_margin(fam, rows)
    X, E = rows[:, :fam.n], rows[:, fam.n:]
    Z, P = fam.value(X, E), fam.grad_x(X, E)
    if args.svg:
        from .render import render_points_svg
        _write(args.svg, render_points_svg(X[:, 0], Z))
    pts = [{"x": x, "eta": eta, "z": z, "p": p} for x, eta, z, p
           in zip(X.tolist(), E.tolist(), Z.tolist(), P.tolist())]
    doc = {"n": fam.n, "N": fam.N, "R": fam.R, "count": len(pts),
           "regularity_margin": margin, "points": pts}
    lines = chain(_kv([("n", fam.n), ("N", fam.N), ("R", fam.R),
                       ("count", len(pts)), ("regularity_margin", margin)]),
                  (f"point x {_fmt(q['x'])} eta {_fmt(q['eta'])} "
                   f"z {_fmt(q['z'])} p {_fmt(q['p'])}" for q in pts))
    return lines, doc


def _chord_line(c):
    x, e1, e2 = c.coords
    return (f"chord value {_fmt(c.value)} index {c.index} degree "
            f"{c.degree} margin {_fmt(c.min_abs_hessian_eigenvalue)} "
            f"x {_fmt(list(x))} eta {_fmt(list(e1))} eta~ {_fmt(list(e2))}")


def cmd_gf_chords(args):
    from .gfnum import reeb_chords
    fam = _load_family(args)
    chords, gamma, report = reeb_chords(fam, step=args.step)
    doc = {"count": len(chords), "gamma": str(gamma),
           "chords": [c.to_dict() for c in chords], "report": report}
    lines = chain(
        _kv([("count", len(chords)), ("gamma", doc["gamma"]),
             ("epsilon", report["epsilon"]), ("omega", report["omega"]),
             ("chain_level_only", report["chain_level_only"])]),
        map(_chord_line, chords),
        (f"warning {w}" for w in report["warnings"]),
        (f"tolerance {k} {_fmt(v)}"
         for k, v in sorted(report["tolerances"].items())))
    return lines, doc


def cmd_gf_spin(args):
    from .gfnum import format_gf_file, spin
    spun = spin(_load_family(args))
    text = format_gf_file(spun)
    if args.out:
        _write(args.out, text)
    doc = {"n": spun.n, "N": spun.N, "R": spun.R,
           "core": spun.core.format(spun.var_names()),
           "tail": list(spun.tail), "gf_file": text}
    return [text.rstrip("\n")], doc


def cmd_gf_check(args):
    from .gfnum import embeddedness_check, immersed_filling_family
    filling = immersed_filling_family(_load_family(args),
                                      t_plus=args.t_plus)
    rep = filling.report
    doc = {"filling": rep, "ok": all(rep["conditions"].values())}
    lines = chain(_kv([("eps_G", rep["eps_G"]), ("t_minus", rep["t_minus"]),
                       ("t_plus", rep["t_plus"]),
                       ("regularity_margin", rep["regularity_margin"])]),
                  (f"condition {name} {'pass' if good else 'fail'}"
                   for name, good in rep["conditions"].items()),
                  (f"tolerance {k} {_fmt(v)}"
                   for k, v in sorted(rep["tolerances"].items())),
                  _kv([("ok", doc["ok"])]))
    if args.embedded:
        t_end = args.t_end if args.t_end is not None else args.t_plus
        emb = embeddedness_check(filling.slice_family, args.t_start, t_end)
        doc["embeddedness"] = emb
        lines = chain(lines, _kv([("h", emb["h"]), ("max_dt", emb["max_dt"]),
                                  ("slowdown", emb["slowdown"]),
                                  ("embedded_ok", emb["ok"])]))
    return lines, doc


_HANDLERS = {
    "inv": cmd_inv,
    "rulings": cmd_rulings,
    "move": cmd_move,
    "trace": cmd_trace,
    "wh": cmd_wh,
    "braid": cmd_braid,
    "plan": cmd_plan,
    "tb": cmd_tb,
    "compat": cmd_compat,
    "gf-front": cmd_gf_front,
    "gf-chords": cmd_gf_chords,
    "gf-spin": cmd_gf_spin,
    "gf-check": cmd_gf_check,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="leg",
        description="Legendrian fronts, cobordism traces, realization "
                    "plans, and generating-family numerics.")
    sub = parser.add_subparsers(dest="cmd", metavar="COMMAND", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of "
                             "key-value text")

    svg = argparse.ArgumentParser(add_help=False)
    svg.add_argument("--svg", metavar="PATH",
                     help="also draw the result as SVG 1.1")

    front = argparse.ArgumentParser(add_help=False)
    front.add_argument("--front", required=True, metavar="WORD",
                       help="front word, e.g. 'L1 L2 X3 X3 X3 R2 R1'")

    gfsrc = argparse.ArgumentParser(add_help=False)
    src = gfsrc.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", metavar="PATH",
                     help="gf-file with n=, N=, core=, tail=, R= lines")
    src.add_argument("--family", choices=sorted(FAMILY_BUILDERS),
                     help="built-in sample family")

    p = sub.add_parser("inv", parents=[common, svg, front],
                       help="classical invariants of a front word")
    p.add_argument("--reverse", default="", metavar="CSV",
                   help="component indices to orientation-reverse")

    p = sub.add_parser("rulings", parents=[common, front],
                       help="normal rulings and the ruling polynomial")
    p.add_argument("--graded", action="store_true",
                   help="keep only switches of equal Maslov potential")

    p = sub.add_parser("move", parents=[common, svg, front],
                       help="apply moves to a front word")
    p.add_argument("--move", action="append", required=True,
                   metavar="'KIND ARGS'",
                   help="move line, repeatable, applied in order")
    p.add_argument("--gf", action="store_true",
                   help="enforce the pinch grading checks")

    p = sub.add_parser("trace", parents=[common, svg],
                       help="replay and summarize a cobordism trace file")
    p.add_argument("file",
                   help="trace file: start word line, then one move "
                        "per line")
    p.add_argument("--gf", action="store_true",
                   help="enforce the pinch grading checks")

    p = sub.add_parser("wh", parents=[common, svg, front],
                       help="clasped double of a knot front with its "
                            "genus-1 filling trace")
    p.add_argument("--no-gf", action="store_true",
                   help="skip the rotation and grading gates")
    p.add_argument("--out", metavar="PATH",
                   help="write the filling trace file")

    p = sub.add_parser("braid", parents=[common, svg],
                       help="positive braid closure and its filling")
    p.add_argument("--strands", type=int, required=True, metavar="S")
    p.add_argument("--word", required=True, metavar="CSV",
                   help="generator indices, e.g. 2,1")
    p.add_argument("--fill", action="store_true",
                   help="emit the filling trace file")
    p.add_argument("--out", metavar="PATH",
                   help="trace file path (default braid.trace, "
                        "implies --fill)")

    p = sub.add_parser("plan", parents=[common],
                       help="block realization plan for a count "
                            "polynomial (JSON)")
    p.add_argument("--dim", type=int, metavar="N")
    p.add_argument("--poly", metavar="P",
                   help="count polynomial, e.g. 't^3 + t^2'")
    p.add_argument("--sphere-only", action="store_true",
                   help="allow only sphere blocks besides the top class")
    p.add_argument("--out", metavar="PATH", help="write the plan JSON")
    p.add_argument("--verify", metavar="PATH",
                   help="re-validate an emitted plan file instead "
                        "of planning")

    p = sub.add_parser("tb", parents=[common],
                       help="classical invariant read off a count "
                            "polynomial")
    p.add_argument("--dim", type=int, required=True, metavar="N")
    p.add_argument("--poly", required=True, metavar="P")

    p = sub.add_parser("compat", parents=[common],
                       help="duality compatibility and splittings of a "
                            "count polynomial")
    p.add_argument("--dim", type=int, required=True, metavar="N")
    p.add_argument("--poly", required=True, metavar="P")

    p = sub.add_parser("gf-front", parents=[common, svg, gfsrc],
                       help="fiber-critical samples of a generating "
                            "family")
    p.add_argument("--step", type=float, default=0.05, metavar="H",
                   help="base grid step")

    p = sub.add_parser("gf-chords", parents=[common, gfsrc],
                       help="chord enumeration with the duality audit")
    p.add_argument("--step", type=float, default=0.05, metavar="H",
                   help="base grid step")

    p = sub.add_parser("gf-spin", parents=[common, gfsrc],
                       help="rotate a 1-d generating family about its "
                            "vertical axis")
    p.add_argument("--out", metavar="PATH",
                   help="write the spun family as a gf-file")

    p = sub.add_parser("gf-check", parents=[common, gfsrc],
                       help="filling interpolation conditions, optional "
                            "embeddedness run")
    p.add_argument("--t-plus", type=float, default=3.0, metavar="T",
                   help="time after which the slice is exactly the "
                        "scaled family")
    p.add_argument("--embedded", action="store_true",
                   help="also run the chord-length inequality along "
                        "the slice path")
    p.add_argument("--t-start", type=float, default=2.0, metavar="A",
                   help="first time of the embeddedness run")
    p.add_argument("--t-end", type=float, default=None, metavar="B",
                   help="last time of the embeddedness run "
                        "(default t-plus)")

    parser.commands = sub.choices  # name -> subparser, for main
    return parser


_PARSER = None


def _emit(text):
    """Print text; when the reader has closed standard output (`leg ...
    | head`), stop writing quietly."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # send the flush at exit to nowhere instead of the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    parser = _PARSER
    if argv is None:
        argv = sys.argv[1:]
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
    else:
        args, rest = sub.parse_known_args(argv[1:])
        if rest:
            parser.parse_args(argv)  # the top-level parser's own error
        args.cmd = argv[0]
    if args.cmd == "plan" and not args.verify \
            and (args.dim is None or args.poly is None):
        parser.error("plan needs --dim and --poly (or --verify PATH)")
    try:
        lines, doc = _HANDLERS[args.cmd](args)
    except DomainError as e:
        _emit(json.dumps({"error": str(e)}, sort_keys=True) if args.json
              else f"error: {e}")
        return 1
    if args.json:
        _emit(doc if isinstance(doc, str) else _dump(doc))
    else:
        _emit("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
