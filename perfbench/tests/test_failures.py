"""Failure accounting: every kind of failure costs one command and
never ends the pass."""

import json
import time

import checks
from child import run_commands


def fake_main(argv):
    kind = argv[0]
    if kind == "slow":
        end = time.monotonic() + 5.0
        while time.monotonic() < end:
            pass
    if kind == "domain":
        print(json.dumps({"error": "not a knot front"}))
        return 1
    print(json.dumps({"v": 2 if kind == "wrong" else 1}))
    return 0


CHECKS = {"v": lambda cmd, doc, ctx: None if doc["v"] == 1 else "wrong v"}


def script(kinds, guarded=()):
    return [{"id": i, "argv": [k], "check": {"kind": "v"}, "needs": [],
             "guarded": k in guarded} for i, k in enumerate(kinds)]


def tally_of(cmds, tmp_path):
    outcomes = run_commands(cmds, fake_main, 0.2, str(tmp_path))
    tally = checks.Tally()
    ctx = checks.Context({}, str(tmp_path))
    for cmd, outcome in zip(cmds, outcomes):
        text = (tmp_path / f"out-{cmd['id']}.txt").read_text()
        tally.add(cmd, checks.judge(cmd, outcome, text, ctx, checks=CHECKS))
    return outcomes, tally


def test_each_failure_counts_once_and_the_pass_goes_on(tmp_path):
    cmds = script(["ok", "wrong", "ok", "domain", "slow", "ok"])
    outcomes, tally = tally_of(cmds, tmp_path)
    assert [o["status"] for o in outcomes] == \
        ["ok", "ok", "ok", "ok", "deadline", "ok"]
    assert outcomes[4]["seconds"] < 1.0
    assert tally.attempted == 6
    assert tally.answered == 3
    assert tally.failed == 3
    reasons = [r for _, _, r in tally.problems]
    assert reasons[0] == "wrong v"
    assert reasons[1].startswith("exit code 1")
    assert reasons[2] == "deadline"


def test_guarded_blowup_is_counted_apart(tmp_path):
    cmds = script(["ok", "slow"], guarded=("slow",))
    _, tally = tally_of(cmds, tmp_path)
    assert (tally.attempted, tally.answered, tally.guarded, tally.failed) \
        == (2, 1, 1, 0)


def test_memory_cap_stops_one_command(tmp_path):
    def hungry(argv):
        if argv[0] == "hungry":
            raise MemoryError
        return fake_main(argv)

    cmds = script(["hungry", "ok"])
    outcomes = run_commands(cmds, hungry, 1.0, str(tmp_path))
    assert [o["status"] for o in outcomes] == ["memory", "ok"]


def test_only_errors_at_the_cap_count_as_memory(tmp_path, monkeypatch):
    """A MemoryError, an error raised while handling one, or an error
    from a command that took the address space to the cap is a guard
    stop; any other error is a crash, however much the command had
    allocated."""
    import child

    mib = 1 << 20
    peak = {"now": 100 * mib}
    monkeypatch.setattr(child, "_vm_peak", lambda: peak["now"])

    def failing(argv):
        if argv[0] == "handled":
            try:
                raise MemoryError
            except MemoryError:
                raise RuntimeError("while reporting the failure")
        if argv[0] == "grew":
            peak["now"] = 180 * mib
            raise TypeError("bug after allocating 80 MiB")
        if argv[0] == "at-cap":
            peak["now"] = 250 * mib
            raise SystemError("error return without exception set")
        return fake_main(argv)

    kinds = ["handled", "grew", "ok", "at-cap"]
    cmds = script(kinds, guarded=kinds)
    outcomes = run_commands(cmds, failing, 1.0, str(tmp_path), cap=256 * mib)
    statuses = [o["status"] for o in outcomes]
    assert statuses[0] == "memory" and statuses[2:] == ["ok", "memory"]
    assert statuses[1].startswith("crash:TypeError")
    tally = checks.Tally()
    ctx = checks.Context({}, str(tmp_path))
    for cmd, outcome in zip(cmds, outcomes):
        tally.add(cmd, checks.judge(cmd, outcome, "", ctx, checks=CHECKS)
                  if outcome["status"] != "ok" else None)
    assert (tally.answered, tally.guarded, tally.failed) == (1, 2, 1)


def test_guarded_commands_run_apart_from_the_passes():
    from run import Run
    r = Run("exact_counts", 1, {})
    assert r.probes and all(c["guarded"] for c in r.probes)
    assert not any(c["guarded"] for c in r.commands)


def test_light_passes_hold_no_heavy_command_or_its_dependents():
    from run import Run
    r = Run("front_moves", 1, {})
    light = {c["id"] for c in r.light}
    assert light and all(not c["heavy"] for c in r.light)
    assert all(set(c["needs"]) <= light for c in r.light)
    wh = {c["id"] for c in r.commands if c["argv"][0] == "wh"}
    assert not any(set(c["needs"]) & wh for c in r.light)
    assert len(light) == 40    # 20 braid fillings and their replays


def test_a_verdict_is_reused_only_for_the_same_files(tmp_path, monkeypatch):
    """A later pass with the same output but a broken file the check
    reads is judged again."""
    from run import check_pass

    def svg_check(cmd, doc, ctx):
        svg = ctx.file_text(cmd["check"]["svg"])
        return None if svg and "<svg" in svg else "svg not written"

    monkeypatch.setitem(checks.CHECKS, "svg", svg_check)
    cmd = {"id": 0, "argv": ["draw"], "check": {"kind": "svg", "svg": "d.svg"},
           "needs": [], "guarded": False}
    result = {"outcomes": [{"id": 0, "status": "ok", "rc": 0,
                            "digest": "same"}]}
    tally, judged = checks.Tally(), {}
    for n, svg in enumerate(["<svg/>", "broken"]):
        pass_dir = tmp_path / f"pass-{n}"
        pass_dir.mkdir()
        (pass_dir / "out-0.txt").write_text("{}")
        (pass_dir / "d.svg").write_text(svg)
        check_pass([cmd], result, str(pass_dir), {}, tally, judged)
    assert (tally.answered, tally.failed) == (1, 1)
