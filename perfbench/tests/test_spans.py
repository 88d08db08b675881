"""Self-time arithmetic and the tracer's counts."""

import pytest

from legcob.errors import DomainError
from spans import Tracer, self_times


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and c [5, 9]; a holds b [2, 3].
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
             ("b", 2.0, 3.0, 1), ("c", 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_duration():
    spans = [("r", 0.0, 8.0, -1), ("x", 1.0, 2.5, 0), ("x", 3.0, 7.0, 0),
             ("y", 3.5, 4.0, 2), ("y", 5.0, 6.5, 2), ("z", 5.5, 6.0, 4)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_spans_counts_and_rejections():
    tr = Tracer(clock=FakeClock())
    tr.begin_command({"argv": ["demo"]})

    def leaf(n):
        if n < 0:
            raise DomainError("negative")
        return list(range(n))

    leaf = tr.wrap("m.leaf", leaf, {"items": len})

    def outer(n):
        return leaf(n) + leaf(n)

    outer = tr.wrap("m.outer", outer, {})
    assert outer(3) == [0, 1, 2] * 2
    with pytest.raises(DomainError):
        leaf(-1)
    spans = list(zip(tr.names, tr.starts, tr.ends, tr.parents))
    assert [s[0] for s in spans] == ["m.outer", "m.leaf", "m.leaf", "m.leaf"]
    assert [s[3] for s in spans] == [-1, 0, 0, -1]
    # Each call reads the clock twice: outer spans 1..6, leaves 1 each.
    assert self_times(spans) == [3.0, 1.0, 1.0, 1.0]
    assert tr.counts["m.leaf.calls"] == 3
    assert tr.counts["m.leaf.items"] == 6
    assert tr.counts["m.leaf.rejected"] == 1
    assert tr.counts["m.outer.calls"] == 1


def test_nested_calls_of_one_name_count_once():
    tr = Tracer(clock=FakeClock())

    def rec(n):
        return 0 if n == 0 else 1 + rec(n - 1)

    rec = tr.wrap("m.rec", rec, {})
    globals()["rec"] = rec
    try:
        assert rec(3) == 3
    finally:
        del globals()["rec"]
    assert tr.counts["m.rec.calls"] == 1
    assert len(tr.names) == 4


def test_traced_pass_sees_names_bound_by_import(tmp_path):
    """`legcob.cli` binds `decompose` and `whitehead` binds
    `connect_fronts` by name; the tracer must count calls made through
    those bindings."""
    import json
    import os
    import subprocess
    import sys

    from conftest import BENCH, SRC

    commands = [
        {"id": 0, "argv": ["compat", "--dim", "3", "--poly", "t^3 + t^2 + 1",
                           "--json"], "check": {"kind": "compat"}},
        {"id": 1, "argv": ["wh", "--front", "L1 L2 X3 X3 X3 R2 R1",
                           "--json"], "check": {"kind": "wh"}},
    ]
    job, result = tmp_path / "job.json", tmp_path / "result.json"
    job.write_text(json.dumps({"commands": commands,
                               "work_dir": str(tmp_path), "deadline_s": 60,
                               "mem_cap_mb": 1024, "trace": True,
                               "memory_share": 0.0, "warmup": []}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, SRC]))
    subprocess.run([sys.executable, os.path.join(BENCH, "child.py"),
                    str(job), str(result)], env=env, check=True, timeout=120)
    layers = json.loads(result.read_text())["layers"]
    assert layers["laurent.decompose.calls"] >= 1
    assert layers["search.connect_fronts.calls"] >= 1
    assert layers["front.FrontDiagram.builds"] > 0
    assert layers["cli.calls"] == 2
    assert layers["cli.compat.s"] > 0 and layers["cli.wh.s"] > 0
