import json
import subprocess
import sys

import pytest

from legcob import cli, gfnum
from legcob.cli import _build_parser, main
from legcob.front import parse_front
from legcob.gfnum import parse_gf_file
from legcob.moves import apply_move

TREFOIL = "L1 L2 X3 X3 X3 R2 R1"


def run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


def grab(out, key):
    """Value of the first `key value` line."""
    for line in out.splitlines():
        if line.startswith(key + " "):
            return line[len(key) + 1:]
    raise KeyError(key)


def test_tb_example(capsys):
    rc, out = run(["tb", "--dim", "1", "--poly", "2 + t"], capsys)
    assert rc == 0
    assert out == "1\n"


def test_tb_json(capsys):
    rc, out = run(["tb", "--dim", "5", "--poly", "t^5 + 2t^4 + 2",
                   "--json"], capsys)
    assert rc == 0
    assert json.loads(out) == {"dim": 5, "poly": "t^5 + 2t^4 + 2", "tb": 3}


def test_braid_fill_emits_revalidating_trace(tmp_path, capsys):
    trace_file = tmp_path / "fig8.trace"
    rc, out = run(["braid", "--strands", "3", "--word", "2,1", "--fill",
                   "--out", str(trace_file)], capsys)
    assert rc == 0
    assert grab(out, "genus") == "0"
    assert grab(out, "components") == "1"
    assert grab(out, "connected") == "true"
    assert trace_file.exists()
    rc, out = run(["trace", str(trace_file), "--gf"], capsys)
    assert rc == 0
    assert grab(out, "genus") == "0"
    assert grab(out, "end") == "L1 L2 L3 X5 X4 R3 R2 R1"


def test_plan_example_single_manifold_block(capsys):
    rc, out = run(["plan", "--dim", "3", "--poly", "t^3 + t^2"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert [(b["kind"], b["a"]) for b in doc["blocks"]] == [("Manifold", 2)]
    assert doc["verification"]["equal"] is True
    assert doc["target"] == "t^3 + t^2"


def test_plan_verify_roundtrip(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    rc, _ = run(["plan", "--dim", "4", "--poly", "t^4 + t^2 + t",
                 "--out", str(plan_file)], capsys)
    assert rc == 0
    rc, out = run(["plan", "--verify", str(plan_file)], capsys)
    assert rc == 0
    assert grab(out, "verified") == "true"


def test_plan_verify_rejects_tampering(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    run(["plan", "--dim", "3", "--poly", "t^3 + t^2",
         "--out", str(plan_file)], capsys)
    doc = json.loads(plan_file.read_text())
    doc["target"] = "t^3 + t"
    plan_file.write_text(json.dumps(doc))
    rc, out = run(["plan", "--verify", str(plan_file)], capsys)
    assert rc == 1
    assert "does not re-validate" in out


def _verify_plan(tmp_path, capsys, doc):
    plan_file = tmp_path / "hand.json"
    plan_file.write_text(json.dumps(doc))
    return run(["plan", "--verify", str(plan_file)], capsys)


def test_plan_verify_rejects_hopf_link_block(tmp_path, capsys):
    # the planner never emits a HopfLink block, so the kind is gone
    rc, out = _verify_plan(tmp_path, capsys, {
        "n": 3, "target": "2t^3 + 2t",
        "blocks": [{"kind": "HopfLink", "a": 1}]})
    assert rc == 1
    assert out.startswith("error: unknown block kind 'HopfLink'")


def test_plan_verify_rejects_malformed_fields(tmp_path, capsys):
    # each used to end in a traceback (ValueError, AttributeError,
    # TypeError) instead of exit 1
    good = {"n": 3, "target": "t^3 + t^2",
            "blocks": [{"kind": "Manifold", "a": 2}]}
    for key, bad in (("n", 3.5), ("n", "3"), ("n", True), ("target", 5),
                     ("blocks", {"kind": "Saucer"}),
                     ("blocks", [{"kind": "Manifold", "a": "x"}]),
                     ("blocks", [{"kind": "Manifold", "a": 2.0}])):
        rc, out = _verify_plan(tmp_path, capsys, dict(good, **{key: bad}))
        assert rc == 1, (key, bad)
        assert out.startswith("error: plan "), (key, bad)
    rc, _ = _verify_plan(tmp_path, capsys, good)
    assert rc == 0


def test_plan_verify_meets_the_block_cap(tmp_path, capsys, monkeypatch):
    # a plan file gets the planner's cap, counted before any block is
    # built: at the cap it verifies, one over it is refused
    from legcob import geography
    monkeypatch.setattr(geography, "MAX_PLAN_BLOCKS", 3)
    three = {"n": 4, "target": "t^4 + t^3 + t^2 + t",
             "blocks": [{"kind": "Manifold", "a": a} for a in (1, 2, 3)]}
    rc, out = _verify_plan(tmp_path, capsys, three)
    assert rc == 0 and grab(out, "verified") == "true"
    four = dict(three, blocks=three["blocks"] + [{"kind": "Saucer"}])

    def no_block(*args):
        raise AssertionError("a block was built")
    monkeypatch.setattr(geography, "Block", no_block)
    rc, out = _verify_plan(tmp_path, capsys, four)
    assert rc == 1
    assert out.startswith("error: plan too large: 4 blocks exceed the cap "
                          "of 3")


def test_gf_file_rejects_malformed_numbers(tmp_path, capsys):
    # n=x and R=abc used to end in a ValueError traceback
    good = {"n": "1", "N": "1", "core": "3*e1 - 3*x1^2*e1 - e1^3",
            "tail": "-30*e1", "R": "3"}
    gf = tmp_path / "bad.gf"
    for key, bad in (("n", "x"), ("n", "1.5"), ("N", ""), ("R", "abc")):
        fields = dict(good, **{key: bad})
        gf.write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
        rc, out = run(["gf-chords", "--file", str(gf)], capsys)
        assert rc == 1, (key, bad)
        assert out.startswith(f"error: gf-file field {key}="), (key, bad)


def test_inv_text_and_svg(tmp_path, capsys):
    svg = tmp_path / "trefoil.svg"
    rc, out = run(["inv", "--front", TREFOIL, "--svg", str(svg)], capsys)
    assert rc == 0
    assert grab(out, "tb") == "1"
    assert grab(out, "rotation") == "0"
    assert svg.read_text().startswith("<svg")


def test_rulings_graded(capsys):
    rc, out = run(["rulings", "--front", TREFOIL, "--graded"], capsys)
    assert rc == 0
    assert grab(out, "count") == "3"
    assert grab(out, "polynomial") == "t^2 + 2"


def test_move_matches_library(capsys):
    want = apply_move(parse_front("L1 R1"), ("R1a", 1, 1)).word
    rc, out = run(["move", "--front", "L1 R1", "--move", "R1a 1 1",
                   "--gf"], capsys)
    assert rc == 0
    assert grab(out, "word") == want


def test_move_rejects_inapplicable(capsys):
    rc, out = run(["move", "--front", "L1 R1", "--move", "PM 0"], capsys)
    assert rc == 1
    assert out.startswith("error: move not applicable")


def test_move_arguments_are_ascii_digits(tmp_path, capsys):
    for bad in ("C --5", "C -1", "C \u00b2", "C \u0663", "B 0 +1"):
        rc, out = run(["move", "--front", "L1 R1", "--move", bad], capsys)
        assert rc == 1
        assert out.startswith("error: bad move line"), out
    trace_file = tmp_path / "bad.trace"
    trace_file.write_text("L1 R1\nC --1\n")
    rc, out = run(["trace", str(trace_file)], capsys)
    assert rc == 1
    assert out.startswith("error: bad move line"), out


# (start, moves): accepted, refused by the rewrite, by the window check
# and, in gf mode, by the pinch grading
MOVE_RUNS = [
    ("L1 R1", ["R1a 1 1", "R1b 1 1", "P 1 1"]),
    ("L1 R1", ["R1a 1 1", "PM 0"]),
    ("L1 R1", ["R2u 0"]),
    (TREFOIL, ["B 7 1", "C 2"]),
    ("L1 L2 R1 L1 R2 R1", ["C 2", "P 2 3"]),
]


def test_move_replays_like_trace(tmp_path, capsys):
    graded = 0
    for start, moves in MOVE_RUNS:
        trace_file = tmp_path / "run.trace"
        trace_file.write_text("\n".join([start, *moves]) + "\n")
        for gf in ([], ["--gf"]):
            argv = ["move", "--front", start, "--json", *gf]
            rc, out = run(argv + [a for m in moves for a in ("--move", m)],
                          capsys)
            rc_t, out_t = run(["trace", str(trace_file), "--json", *gf],
                              capsys)
            got, want = json.loads(out), json.loads(out_t)
            assert rc == rc_t, (start, moves, gf)
            if rc:
                assert got == want, (start, moves, gf)
                graded += "grading mismatch" in got["error"]
            else:
                assert got == {"word": want["end"], "moves": len(moves)}
    assert graded == 1


@pytest.mark.parametrize("move, reason", [
    ("B 9 1", "no slice 9"),
    ("R2u 5", "no pattern match at event 5"),
])
def test_move_refuses_a_position_off_the_front(move, reason, capsys):
    rc, out = run(["move", "--front", "L1 R1", "--move", move], capsys)
    assert rc == 1
    assert out == f"error: move not applicable ({move}): {reason}\n"


def test_trace_refuses_a_position_off_the_front(tmp_path, capsys):
    trace_file = tmp_path / "off.trace"
    trace_file.write_text("L1 R1\nR3 7\n")
    rc, out = run(["trace", str(trace_file)], capsys)
    assert rc == 1
    assert out == ("error: move not applicable (R3 7): no pattern match "
                   "at event 7\n")


def test_move_parses_every_line_first(capsys):
    # the C move is refused, but only once every line has parsed
    rc, out = run(["move", "--front", "L1 R1", "--move", "C 0", "--move",
                   "bogus"], capsys)
    assert rc == 1
    assert out == "error: bad move line 'bogus'\n"


def test_wh_contract(tmp_path, capsys):
    trace_file = tmp_path / "wh.trace"
    rc, out = run(["wh", "--front", "L1 R1", "--out", str(trace_file)],
                  capsys)
    assert rc == 0
    assert grab(out, "tb") == "1"
    assert grab(out, "rotation") == "0"
    assert grab(out, "genus") == "1"
    assert grab(out, "filling_polynomial") == "t + 2"
    rc, out = run(["trace", str(trace_file), "--gf"], capsys)
    assert rc == 0
    assert grab(out, "genus") == "1"


def test_wh_replays_its_trace_once(monkeypatch, capsys):
    import legcob.moves as moves
    calls = []
    replay = moves._replay

    def counted(trace):
        calls.append(trace)
        return replay(trace)

    monkeypatch.setattr(moves, "_replay", counted)
    rc, out = run(["wh", "--front", "L1 R1"], capsys)
    assert rc == 0
    assert grab(out, "genus") == "1"
    assert len(calls) == 1


def test_wh_gf_gate(capsys):
    rc, out = run(["wh", "--front", "L1 X1 R1"], capsys)
    assert rc == 1
    assert "gf mode requires rotation number 0" in out
    rc, _ = run(["wh", "--front", "L1 X1 R1", "--no-gf"], capsys)
    assert rc == 0


def test_compat_reason_and_splittings(capsys):
    rc, out = run(["compat", "--dim", "2", "--poly", "t^2 + t^-2"], capsys)
    assert rc == 0
    assert grab(out, "compatible") == "false"
    assert "mirror law fails" in grab(out, "reason")
    rc, out = run(["compat", "--dim", "1", "--poly", "2 + t"], capsys)
    assert rc == 0
    assert grab(out, "compatible") == "true"
    assert grab(out, "connected_form") == "true"
    assert int(grab(out, "splittings")) >= 1


# (poly, reason) at dimension 3: one row for each refusal of incompat_reason
REFUSALS = [
    ("t^3 - t^2", "negative coefficient -1 at degree 2"),
    ("t^5 + t^3",
     "mirror law fails: coefficient 1 at degree 5 but 0 at degree -3"),
    ("t^2 + t^(-1)",
     "needs a spare top class: coefficient 0 at degree 3 against 1 at "
     "degree -1"),
]


@pytest.mark.parametrize("poly, reason", REFUSALS)
def test_compat_and_plan_name_the_refusal(poly, reason, capsys):
    rc, out = run(["compat", "--dim", "3", "--poly", poly, "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert (doc["compatible"], doc["connected_form"], doc["count"],
            doc["splittings"], doc["reason"]) == (False, False, 0, [], reason)
    rc, out = run(["plan", "--dim", "3", "--poly", poly], capsys)
    assert (rc, out) == (
        1, f"error: not compatible with duality in connected form: {reason}\n")


def test_compatible_but_not_connected(capsys):
    rc, out = run(["compat", "--dim", "3", "--poly", "t^3 + 2", "--json"],
                  capsys)
    assert rc == 0
    assert json.loads(out) == {
        "dim": 3, "poly": "t^3 + 2", "compatible": True,
        "connected_form": False, "count": 1,
        "splittings": [{"q": "t^3 + 2", "p": "0"}]}
    rc, out = run(["plan", "--dim", "3", "--poly", "t^3 + 2"], capsys)
    assert (rc, out) == (
        1, "error: not compatible with duality in connected form: no "
        "splitting with a single top class and trivial class in degree 0\n")


def test_family_choices_are_the_catalogue():
    # every gf command takes its --family from one shared parent parser
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if a.dest == "cmd").choices["gf-chords"]
    family = next(a for a in sub._actions if a.dest == "family")
    assert family.choices == sorted(gfnum.FAMILIES)


@pytest.mark.parametrize("name", sorted(gfnum.FAMILIES))
def test_every_catalogue_family_builds(name):
    fam = gfnum.FAMILIES[name]()
    assert fam.n in (1, 2) and fam.N in (1, 2) and fam.extent() > 0


def test_gf_front_unknot(tmp_path, capsys):
    svg = tmp_path / "front.svg"
    rc, out = run(["gf-front", "--family", "unknot", "--step", "0.2",
                   "--svg", str(svg)], capsys)
    assert rc == 0
    assert int(grab(out, "count")) > 0
    assert float(grab(out, "regularity_margin")) > 1.0
    assert svg.read_text().count("<circle") == int(grab(out, "count"))


def test_gf_chords_unknot_json(capsys):
    rc, out = run(["gf-chords", "--family", "unknot", "--step", "0.1",
                   "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["gamma"] == "t"
    assert abs(doc["chords"][0]["value"] - 4.0) < 1e-6
    assert doc["chords"][0]["index"] == 3
    assert doc["report"]["tolerances"]["grid_step"] == 0.1


def test_gf_spin_roundtrip(tmp_path, capsys):
    gf = tmp_path / "saucer.gf"
    rc, out = run(["gf-spin", "--family", "unknot", "--out", str(gf)],
                  capsys)
    assert rc == 0
    fam = parse_gf_file(gf.read_text())
    assert (fam.n, fam.N) == (2, 1)
    rc, out = run(["gf-chords", "--file", str(gf), "--step", "0.25"],
                  capsys)
    assert rc == 0
    assert grab(out, "gamma") == "t^2"


@pytest.mark.parametrize("extra, key", [("N=1\n", "N="),
                                        ("extra=1\n", "'extra'")])
def test_gf_file_with_a_repeated_or_unknown_key_is_refused(
        extra, key, tmp_path, capsys):
    gf = tmp_path / "unknot.gf"
    gf.write_text("n=1\nN=1\ncore=3*e1 - 3*x1^2*e1 - e1^3\ntail=-30*e1\n"
                  "R=3\n" + extra)
    rc, out = run(["gf-chords", "--file", str(gf)], capsys)
    assert rc == 1
    assert out.startswith("error: ") and key in out


def test_gf_spin_file_reads_back_exponent_coefficients(tmp_path, capsys):
    """gf-spin writes 0.00001 as 1e-05; gf-front reads the file back."""
    core = tmp_path / "core.gf"
    core.write_text("n=1\nN=1\ncore=3*e1 - 3*x1^2*e1 - e1^3 + 0.00001*x1^2\n"
                    "tail=-5*e1\nR=3\n")
    spun = tmp_path / "spun.gf"
    rc, _ = run(["gf-spin", "--file", str(core), "--out", str(spun)], capsys)
    assert rc == 0
    assert "+ 1e-05*x1^2" in spun.read_text()
    rc, out = run(["gf-front", "--file", str(spun), "--step", "0.25",
                   "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["count"] > 0


def test_gf_spin_rejects_composite(capsys):
    rc, out = run(["gf-spin", "--family", "stacked-pair"], capsys)
    assert rc == 1
    assert "single-piece family" in out
    rc, out = run(["gf-check", "--family", "stacked-pair"], capsys)
    assert (rc, out) == (
        1, "error: the filling interpolation needs a single-piece family; "
        "a composite has no single polynomial core\n")


def test_gf_check_conditions(capsys):
    rc, out = run(["gf-check", "--family", "unknot"], capsys)
    assert rc == 0
    assert grab(out, "ok") == "true"
    assert "condition linear_at_infinity pass" in out
    assert "condition fiber_derivative_regular pass" in out


def test_gf_check_embedded_reports_slowdown(capsys):
    rc, out = run(["gf-check", "--family", "unknot", "--embedded",
                   "--t-start", "2.0", "--t-end", "2.2"], capsys)
    assert rc == 0
    assert float(grab(out, "h")) > 0
    assert grab(out, "embedded_ok") in ("true", "false")


def test_gf_check_rejects_bad_times(capsys):
    # a reversed interval used to pass with max_dt 0, an empty one to end
    # in a ZeroDivisionError, and a non-finite t-plus to print ok false
    for extra in (["--embedded", "--t-start", "3", "--t-end", "2"],
                  ["--embedded", "--t-start", "2.5", "--t-end", "2.5"],
                  ["--embedded", "--t-end", "nan"],
                  ["--t-plus", "nan"],
                  ["--t-plus", "inf"]):
        rc, out = run(["gf-check", "--family", "unknot"] + extra, capsys)
        assert rc == 1, extra
        assert out.startswith("error: "), extra
    # the refusal names the run's own times, not the filling's t_plus
    rc, out = run(["gf-check", "--family", "unknot", "--embedded",
                   "--t-start", "3", "--t-end", "2"], capsys)
    assert out == ("error: embeddedness run: times must be finite with "
                   "t_start < t_end, got [3.0, 2.0]\n")
    rc, out = run(["gf-check", "--family", "unknot", "--embedded",
                   "--t-start", "0"], capsys)
    assert (rc, out) == (
        1, "error: embeddedness run: t_start must be positive, got 0.0\n")


def test_gf_grid_step_is_validated(capsys):
    # zero and negative steps used to end in a ZeroDivisionError, nan in
    # a numpy ValueError, and 1e-9 asked numpy for 89 GiB
    for cmd in ("gf-chords", "gf-front"):
        for step in ("0", "-0.1", "nan", "inf"):
            rc, out = run([cmd, "--family", "unknot", "--step", step],
                          capsys)
            assert rc == 1, (cmd, step)
            assert out.startswith(
                "error: grid step must be finite and positive"), (cmd, step)
        rc, out = run([cmd, "--family", "saucer", "--step", "1e-9",
                       "--json"], capsys)
        assert rc == 1
        assert "too fine" in json.loads(out)["error"]


def test_gf_check_sanitizes_infinite_margin(capsys):
    rc, out = run(["gf-check", "--family", "linear", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["filling"]["regularity_margin"] == "inf"
    assert doc["ok"] is True


def test_domain_error_field(capsys):
    rc, out = run(["inv", "--front", "L1 X9 R1"], capsys)
    assert rc == 1
    assert out.startswith("error: ")
    rc, out = run(["inv", "--front", "L1 X9 R1", "--json"], capsys)
    assert rc == 1
    assert set(json.loads(out)) == {"error"}


def test_gf_spin_two_fiber_file(tmp_path, capsys):
    gf = tmp_path / "stab.gf"
    gf.write_text("n=1\nN=2\ncore=3*e1 - 3*x1^2*e1 - e1^3 - e2^2\n"
                  "tail=-200*e1\nR=3\n")
    rc, out = run(["gf-spin", "--file", str(gf), "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert (doc["n"], doc["N"]) == (2, 2)
    spun = parse_gf_file(doc["gf_file"])
    assert (spun.n, spun.N) == (2, 2)


def test_usage_errors_exit_2(capsys):
    for argv in (["nope"],
                 ["braid", "--strands", "3"],
                 ["inv", "--front", "L1 R1", "--bogus"],
                 ["plan", "--dim", "3"],
                 ["gf-front", "--family", "nope"],
                 ["gf-front", "--family", "unknot", "--file", "x.gf"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_byte_identical_reruns(capsys):
    runs = [run(["plan", "--dim", "4", "--poly", "2t^4 + t^2 + t + 1",
                 "--json"], capsys) for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run(["rulings", "--front", TREFOIL], capsys) for _ in range(2)]
    assert runs[0] == runs[1]


def test_parser_reuse_matches_fresh_interpreters(tmp_path, monkeypatch,
                                                 capsys):
    """main keeps one parser per process; each command must still run
    as it does alone in a fresh interpreter."""
    import os
    from pathlib import Path
    from legcob import cli
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    monkeypatch.chdir(tmp_path)
    sequence = [
        ["move", "--front", "L1 R1", "--move", "R1a 1 1", "--move",
         "R1a 1 1"],
        ["move", "--front", "L1 R1", "--move", "R1a 1 1"],
        ["inv", "--front", "L1 R1", "--bogus"],
        ["tb", "--dim", "1", "--poly", "2 + t"],
        ["plan", "--dim", "4", "--poly", "t^4 + t^2 + t", "--out",
         "plan.json"],
        ["plan", "--verify", "plan.json"],
    ]
    parsers, outs = set(), []
    for argv in sequence:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        here = capsys.readouterr()
        parsers.add(id(cli._PARSER))
        outs.append(here.out)
        fresh = subprocess.run([sys.executable, "-m", "legcob.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (rc, here.out, here.err) \
            == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert len(parsers) == 1
    assert grab(outs[0], "moves") == "2" and grab(outs[1], "moves") == "1"
    assert grab(outs[5], "verified") == "true"


# main hands an argv that starts with a command name to that command's
# own subparser; each of these must come out as the full parser gives it
DISPATCH_CORPUS = [
    # every command with valid flags
    ["inv", "--front", TREFOIL, "--reverse", "0", "--svg", "inv.svg",
     "--json"],
    ["rulings", "--front", TREFOIL, "--graded", "--json"],
    ["move", "--front", "L1 R1", "--move", "R1a 1 1", "--move", "R1a 1 1",
     "--gf"],
    ["trace", "wh.trace", "--gf", "--svg", "trace.svg"],
    ["wh", "--front", "L1 R1", "--no-gf", "--out", "wh.trace"],
    ["braid", "--strands", "3", "--word", "2,1", "--fill", "--out",
     "braid.trace"],
    ["plan", "--dim", "3", "--poly", "t^3 + t^2", "--sphere-only", "--out",
     "plan.json", "--json"],
    ["plan", "--verify", "plan.json"],
    ["tb", "--dim", "1", "--poly", "2 + t"],
    ["tb", "--dim=4", "--poly=t^4 + 2t^3 + t + 3", "--json"],
    ["compat", "--dim", "3", "--poly", "t^3 + t^2 + 1"],
    ["gf-front", "--family", "unknot", "--step", "0.2", "--svg", "gf.svg"],
    ["gf-chords", "--file", "fam.gf", "--step", "0.1", "--json"],
    ["gf-spin", "--family", "fish", "--out", "spun.gf"],
    ["gf-check", "--family", "saucer", "--t-plus", "4", "--embedded",
     "--t-start", "2.5", "--t-end", "3.5", "--json"],
    # abbreviated flags, help after a command
    ["tb", "--di", "1", "--po", "t", "--js"],
    ["compat", "--di", "3", "--po", "t^3"],
    ["gf-check", "--family", "unknot", "--t-p", "5", "--emb"],
    ["tb", "-h"],
    ["gf-check", "--family", "unknot", "--help"],
    # not a command first: the full parser alone
    [], ["-h"], ["--"], ["--", "tb", "--dim", "1", "--poly", "t"],
    ["nope"], ["TB", "--dim", "1", "--poly", "t"],
    ["--json", "tb", "--dim", "1", "--poly", "t"],
    ["-h", "tb"],
    # usage errors after a command
    ["tb", "--dim", "1"], ["braid", "--strands", "3"], ["gf-front"],
    ["tb", "--dim", "x", "--poly", "t"],
    ["gf-front", "--family", "unknot", "--step", "fast"],
    ["gf-front", "--family", "nope"],
    ["gf-front", "--family", "unknot", "--file", "fam.gf"],
    ["tb", "--dim", "1", "--poly", "-t"],
    ["tb", "--dim", "1", "--poly", "t", "extra"],
    ["tb", "--dim", "1", "extra", "--poly", "t", "more"],
    ["trace", "a.trace", "b.trace"],
    ["inv", "--front", "L1 R1", "--bogus"],
    ["inv", "--bogus", "--front", "L1 R1"],
    ["inv", "--front", "L1 R1", "--json", "--", "--bogus"],
    ["trace", "--", "wh.trace"],
    ["tb", "--d", "1", "--poly", "t"],
    # plan without --poly
    ["plan", "--dim", "3"], ["plan"],
]


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=repr)
def test_dispatch_matches_the_full_parser(argv, monkeypatch, capsys):
    """Exit code, stdout, stderr and the handler's namespace of main,
    against main with every argv sent through _PARSER.parse_args."""
    if cli._PARSER is None:
        cli._PARSER = cli._build_parser()
    seen = []

    def handler(args):
        seen.append(vars(args))
        return [repr(sorted(vars(args).items()))], {"cmd": args.cmd}

    full = []
    parse_args = cli._PARSER.parse_args
    monkeypatch.setattr(cli._PARSER, "parse_args",
                        lambda a: full.append(a) or parse_args(a))
    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS,
                                                        handler))

    def outcome():
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        here = capsys.readouterr()
        return rc, here.out, here.err, seen[-1] if seen else None

    direct = outcome()
    direct_full = list(full)
    seen.clear()
    monkeypatch.setattr(cli._PARSER, "commands", {})
    assert outcome() == direct
    if direct[0] == 0 and argv[:1] and argv[0] in cli._HANDLERS:
        assert direct_full == []  # the subparser alone read it
    if direct[0] == 2:
        assert direct[2] != ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "legcob.cli", "tb", "--dim", "1",
         "--poly", "2 + t"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


@pytest.mark.parametrize("argv", [
    ["rulings", "--front", "L1 L2 " + "X3 " * 21 + "R2 R1"],
    ["compat", "--dim", "3", "--poly", "t^3 + t^2 + 1", "--json"],
    ["tb", "--dim", "0", "--poly", "t"]], ids=["text", "json", "error"])
def test_closed_stdout_exits_quietly(argv):
    """`leg ... | head` closes the pipe early: no traceback, same code."""
    import os
    from pathlib import Path
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        proc = subprocess.run([sys.executable, "-m", "legcob.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=30)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == (1 if argv[0] == "tb" else 0)


# An n = 1, N = 2 family, and the same core with a tail below the grid
# step: no built-in family has two fiber variables.
TWO_FIBER = ("n=1\nN=2\ncore=3*e1 - 3*x1^2*e1 - e1^3 + e2^2\n"
             "tail=-200*e1 + 3*e2\nR=3\n")
SMALL_TAIL = TWO_FIBER.replace("-200*e1 + 3*e2", "0.05*e1 + 0.05*e2")

# Runs the commands of its JSON argument, prints [exit code, stdout]
# per command, one JSON line each.
GF_RUNNER = """
import contextlib, io, json, sys
from legcob.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([code, out.getvalue()]))
"""


def gf_tier_commands():
    """72 gf commands: gf-chords and gf-front --json on every built-in
    family at steps 0.2, 0.1, 0.05 and 0.03 (the saucer's grid is
    refused at 0.03), gf-check --json with and without --embedded, and
    both commands at step 0.2 on the two gf-files."""
    cmds = []
    for name in sorted(gfnum.FAMILIES):
        steps = ["0.2", "0.1", "0.05"] + ([] if name == "saucer"
                                          else ["0.03"])
        for step in steps:
            for cmd in ("gf-chords", "gf-front"):
                cmds.append([cmd, "--family", name, "--step", step, "--json"])
        cmds.append(["gf-check", "--family", name, "--json"])
        cmds.append(["gf-check", "--family", name, "--embedded", "--json"])
    for path in ("two-fiber.gf", "small-tail.gf"):
        for cmd in ("gf-chords", "gf-front"):
            cmds.append([cmd, "--file", path, "--step", "0.2", "--json"])
    return cmds


def test_gf_output_is_the_same_without_avx512(tmp_path, monkeypatch,
                                              capsys):
    """Every gf command prints the same bytes whether numpy dispatches
    to its AVX-512 kernels or not: the gf numbers take no numpy float
    power and no float64 exponential."""
    import os
    from pathlib import Path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two-fiber.gf").write_text(TWO_FIBER)
    (tmp_path / "small-tail.gf").write_text(SMALL_TAIL)
    cmds = gf_tier_commands()
    assert len(cmds) == 72
    here = [[main(argv), capsys.readouterr().out] for argv in cmds]
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    child = subprocess.run(
        [sys.executable, "-c", GF_RUNNER, json.dumps(cmds)],
        capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    there = [json.loads(line) for line in child.stdout.splitlines()]
    assert len(there) == len(cmds)
    for argv, mine, theirs in zip(cmds, here, there):
        assert mine == theirs, argv
