"""Each command loads only its own modules; only the gf commands and
legcob.gfnum load numpy.

`import legcob.cli` loads four legcob modules, and each command the
modules it runs, pinned per command below; the front, exact and
geography commands run with numpy blocked, byte for byte as they run
with it; the package resolves every public name on use, in its module;
and since the CLI's encoders name no numpy type, the gf documents may
carry no numpy scalar but float64, a float.  The documents are walked
by the JSON writer's reference copy (`test_json_writer.ref_jsonable`),
which visits every value.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import legcob
import test_json_writer as writer_oracle
from legcob import cli, gfnum
from legcob.families import FAMILY_BUILDERS

SRC = str(Path(__file__).resolve().parents[1] / "src")
TREFOIL = "L1 L2 X3 X3 X3 R2 R1"

# Runs COMMANDS through one cli.main in the work directory argv[1] and
# prints each command's exit code, stdout and stderr, the sha256 of every
# file written, and which of numpy, gfnum and mpoly were imported.
# argv[2] == "blocked" sets sys.modules["numpy"] = None first, so any
# import of numpy raises ImportError.
RUNNER = """
import contextlib, hashlib, io, json, os, sys
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None
from legcob.cli import main
os.chdir(sys.argv[1])
results = []
for argv in json.loads(sys.argv[3]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    results.append([argv, rc, out.getvalue(), err.getvalue()])
files = {}
for name in sorted(os.listdir(".")):
    with open(name, "rb") as fh:
        files[name] = hashlib.sha256(fh.read()).hexdigest()
loaded = [m for m in ("numpy", "legcob.gfnum", "legcob.mpoly")
          if sys.modules.get(m) is not None]
print(json.dumps({"results": results, "files": files, "loaded": loaded}))
"""

COMMANDS = [
    ["inv", "--front", TREFOIL, "--svg", "inv.svg"],
    ["rulings", "--front", TREFOIL, "--json"],
    ["move", "--front", "L1 R1", "--move", "R1a 1 1", "--gf"],
    ["wh", "--front", "L1 R1", "--out", "wh.trace"],
    ["trace", "wh.trace", "--gf"],
    ["braid", "--strands", "3", "--word", "2,1", "--fill"],
    ["plan", "--dim", "3", "--poly", "t^3 + t^2", "--out", "plan.json"],
    ["plan", "--verify", "plan.json"],
    ["tb", "--dim", "1", "--poly", "2 + t"],
    ["tb", "--dim", "0", "--poly", "t"],
    ["compat", "--dim", "3", "--poly", "t^3 + t^2 + 1"],
    ["gf-chords", "--family", "bogus"],
]


def run_commands(work, mode):
    work.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(work), mode,
         json.dumps(COMMANDS)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_front_commands_run_without_numpy(tmp_path):
    blocked = run_commands(tmp_path / "blocked", "blocked")
    normal = run_commands(tmp_path / "normal", "normal")
    assert blocked["loaded"] == []
    assert blocked["results"] == normal["results"]
    assert blocked["files"] == normal["files"]
    assert set(blocked["files"]) == {"inv.svg", "wh.trace", "braid.trace",
                                     "plan.json"}
    codes = [rc for _, rc, _, _ in blocked["results"]]
    assert codes == [0] * 9 + [1, 0, 2]
    _, _, out, err = blocked["results"][-1]
    assert out == "" and "invalid choice: 'bogus'" in err


def test_import_cli_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, legcob.cli; print(json.dumps(sorted(m for m in "
         "sys.modules if m.startswith('legcob') or m in ('numpy', "
         "'fractions'))))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "legcob", "legcob.cli", "legcob.errors", "legcob.families"]


# Runs the command argv[2] through cli.main in a fresh interpreter, in
# the work directory argv[1], and prints its exit code and the legcob
# modules then loaded.
LOADS_RUNNER = """
import contextlib, io, json, os, sys
from legcob.cli import main
os.chdir(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(json.loads(sys.argv[2]))
print(json.dumps([rc, sorted(m[len("legcob."):] for m in sys.modules
                             if m.startswith("legcob."))]))
"""

# The modules each command loads beside the parser's errors and
# families, one argv per command kind: a command loads what it runs.
GF_LOADS = ["gfnum", "laurent", "mpoly"]
COMMAND_LOADS = [
    (["inv", "--front", TREFOIL], ["front"]),
    (["inv", "--front", TREFOIL, "--svg", "inv.svg"], ["front", "render"]),
    (["rulings", "--front", TREFOIL], ["front", "laurent", "rulings"]),
    (["move", "--front", "L1 R1", "--move", "R1a 1 1"], ["front", "moves"]),
    (["trace", "start.trace"], ["front", "moves"]),
    (["wh", "--front", "L1 R1"],
     ["exactseq", "front", "laurent", "moves", "search", "whitehead"]),
    (["braid", "--strands", "3", "--word", "2,1"],
     ["braids", "front", "moves"]),
    (["plan", "--dim", "3", "--poly", "t^3 + t^2"],
     ["exactseq", "geography", "laurent"]),
    (["tb", "--dim", "1", "--poly", "2 + t"], ["laurent"]),
    (["compat", "--dim", "3", "--poly", "t^3 + t^2 + 1"], ["laurent"]),
    (["gf-front", "--family", "unknot", "--step", "0.2"], GF_LOADS),
    (["gf-chords", "--family", "unknot", "--step", "0.2"], GF_LOADS),
    (["gf-spin", "--family", "unknot"], GF_LOADS),
    (["gf-check", "--family", "unknot"], GF_LOADS),
]


@pytest.mark.parametrize("argv, loads", COMMAND_LOADS,
                         ids=[" ".join(a) for a, _ in COMMAND_LOADS])
def test_each_command_loads_only_its_modules(argv, loads, tmp_path):
    (tmp_path / "start.trace").write_text("L1 R1\nR1a 1 1\n")
    proc = subprocess.run(
        [sys.executable, "-c", LOADS_RUNNER, str(tmp_path), json.dumps(argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        0, sorted(["cli", "errors", "families", *loads])]


# Runs the command argv[1] through cli.main and prints its exit code and
# the name of every module then loaded.
MODULES_RUNNER = """
import contextlib, io, json, sys
from legcob.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, sorted(sys.modules)]))
"""


def test_gf_check_loads_no_numpy_random():
    """The filling's offsets come from a fixed tuple of draws: gf-check
    loads its gf modules and numpy, but not numpy.random, nor the
    hashlib and secrets that it pulls in."""
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_RUNNER,
         json.dumps(["gf-check", "--family", "unknot", "--embedded"])],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    assert rc == 0
    assert [m for m in loaded if m.startswith("legcob.")] == sorted(
        "legcob." + m for m in ["cli", "errors", "families", *GF_LOADS])
    assert "numpy" in loaded
    assert [m for m in loaded if m.startswith("numpy.random")
            or m in ("hashlib", "secrets")] == []


# Every public name of the package, by the module that defines it.
PUBLIC = {
    "errors": ["DomainError"],
    "laurent": ["LaurentPoly", "parse_poly", "decompose", "splitting_box",
                "is_connected_form", "tb_from_polynomial"],
    "exactseq": ["les_solve", "zero_surgery_update", "connect_sum",
                 "filling_polynomial"],
    "front": ["FrontDiagram", "parse_front", "classical_invariants"],
    "rulings": ["enumerate_rulings", "ruling_polynomial"],
    "moves": ["CobordismTrace", "apply_move", "parse_trace", "format_trace",
              "trace_summary"],
    "braids": ["BraidWord", "positive_braid_closure", "closure_report"],
    "whitehead": ["whitehead_double"],
    "geography": ["Block", "RealizationPlan", "realize",
                  "classical_fillable"],
    "gfnum": ["GeneratingFamily", "CompositeFamily", "fiber_critical_set",
              "reeb_chords", "spin", "immersed_filling_family",
              "embeddedness_check", "unknot_family", "stacked_pair_family",
              "parse_gf_file", "format_gf_file"],
}
PUBLIC_NAMES = [(m, name) for m, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", PUBLIC_NAMES,
                         ids=[name for _, name in PUBLIC_NAMES])
def test_package_gf_names_are_gfnum_names(module, name, monkeypatch):
    """Every public name, the generating-family ones among them, is its
    module's attribute."""
    mod = importlib.import_module("legcob." + module)
    assert getattr(legcob, name) is getattr(mod, name)
    assert name in dir(legcob)
    assert name not in vars(legcob)
    # looked up on every access: a replaced module function is what the
    # package hands out, as a tracer wrapping the modules' functions needs
    marker = object()
    monkeypatch.setattr(mod, name, marker)
    assert getattr(legcob, name) is marker


def test_package_lists_exactly_the_public_names():
    listed = {n for n in dir(legcob) if not n.startswith("_")
              and not inspect.ismodule(getattr(legcob, n))}
    assert listed == {name for _, name in PUBLIC_NAMES}


def test_package_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        legcob.nope
    assert not hasattr(legcob, "FAMILIES")


def test_family_catalogue_order():
    assert list(gfnum.FAMILIES) == list(FAMILY_BUILDERS)
    assert gfnum.FAMILIES["saucer"] is gfnum.saucer_family


# --- numpy scalars in gf documents --------------------------------------

TWO_FIBER = ("n=1\nN=2\ncore=3*e1 - 3*x1^2*e1 - e1^3 + e2^2\n"
             "tail=-200*e1 + 3*e2\nR=3\n")
SMALL_TAIL = TWO_FIBER.replace("-200*e1 + 3*e2", "0.05*e1 + 0.05*e2")
SOURCES = ([["--family", name] for name in sorted(gfnum.FAMILIES)]
           + [["--file", "two-fiber.gf"], ["--file", "small-tail.gf"]])
GF_COMMANDS = [["gf-front", "--step", "0.2"], ["gf-chords", "--step", "0.2"],
               ["gf-spin"], ["gf-check", "--embedded"]]


def gf_argvs():
    for cmd in GF_COMMANDS:
        for source in SOURCES:
            if cmd[0] == "gf-check" and source[-1] == "small-tail.gf":
                # its embeddedness run takes seconds; the filling report
                # is built by the same code as everywhere else
                yield ["gf-check"] + source
            else:
                yield cmd + source


def _recording(fn, seen):
    def spy(v):
        if isinstance(v, np.generic) and type(v) is not np.float64:
            seen.append(type(v).__name__)
        return fn(v)
    return spy


@pytest.mark.parametrize("argv", list(gf_argvs()), ids=" ".join)
def test_gf_documents_hold_no_numpy_scalar_but_float64(argv, tmp_path,
                                                       monkeypatch):
    """Every value the text formatter and the JSON writer's reference
    walk see: a numpy bool would print as "True" in either, and the
    writer prints what the reference prints."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two-fiber.gf").write_text(TWO_FIBER)
    (tmp_path / "small-tail.gf").write_text(SMALL_TAIL)
    args = cli._build_parser().parse_args(argv)
    try:
        lines, doc = cli._HANDLERS[args.cmd](args)
    except legcob.DomainError:
        return
    seen = []
    monkeypatch.setattr(cli, "_fmt", _recording(cli._fmt, seen))
    monkeypatch.setattr(writer_oracle, "ref_jsonable",
                        _recording(writer_oracle.ref_jsonable, seen))
    "\n".join(lines)
    assert cli._dump(doc) == writer_oracle.ref_dump(doc)
    assert seen == []


def test_document_walk_sees_a_numpy_bool(monkeypatch):
    """The spy above catches what the encoder would print wrong."""
    seen = []
    monkeypatch.setattr(writer_oracle, "ref_jsonable",
                        _recording(writer_oracle.ref_jsonable, seen))
    doc = {"ok": np.bool_(True)}
    assert json.loads(writer_oracle.ref_dump(doc)) == {"ok": "True"}
    assert json.loads(cli._dump(doc)) == {"ok": "True"}
    assert seen == ["bool"]
