"""Spans and counts around the public functions of each legcob module.

The tracer wraps functions from outside the program: a module function
is replaced in every legcob module that binds it by name (so
`legcob.cli`'s own `reeb_chords` and `decompose`, and `whitehead`'s
`connect_fronts`, are traced too), and a method is replaced on its
class.  Each call records a span [name, start, end, parent index] in
memory; counts are taken at the outermost call of each name, so a
composite family calling its parts does not count the same rows twice.
"""

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np


def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    direct children.  spans: sequence of (name, start, end, parent)."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _rows(result):
    return int(np.size(result))


def _len(result):
    return len(result)


def _chords(result):
    return len(result[0])


def _blocks(result):
    return len(result.blocks)


# (module, attribute, span name, {count suffix: f(result)}).  Every span
# name also counts `.calls` as they start; a DomainError out of a call
# counts as `.rejected` and a None result as `.misses`.
TARGETS = [
    ("mpoly", "MultiPoly.evaluate", "mpoly.evaluate", {"rows": _rows}),
    ("gfnum", "GeneratingFamily.value", "gfnum.value", {"rows": _len}),
    ("gfnum", "GeneratingFamily.grad_x", "gfnum.grad_x", {"rows": _len}),
    ("gfnum", "GeneratingFamily.grad_eta", "gfnum.grad_eta", {"rows": _len}),
    ("gfnum", "CompositeFamily.value", "gfnum.value", {"rows": _len}),
    ("gfnum", "CompositeFamily.grad_x", "gfnum.grad_x", {"rows": _len}),
    ("gfnum", "CompositeFamily.grad_eta", "gfnum.grad_eta", {"rows": _len}),
    ("gfnum", "fiber_critical_set", "gfnum.fiber_critical_set",
     {"points": _len}),
    ("gfnum", "fiber_regularity_margin", "gfnum.fiber_regularity_margin", {}),
    ("gfnum", "reeb_chords", "gfnum.reeb_chords", {"chords": _chords}),
    ("gfnum", "sym_eigenvalues", "gfnum.sym_eigenvalues", {}),
    ("gfnum", "immersed_filling_family", "gfnum.immersed_filling_family", {}),
    ("gfnum", "embeddedness_check", "gfnum.embeddedness_check", {}),
    ("front", "FrontDiagram.__init__", "front.FrontDiagram", {}),
    ("front", "classical_invariants", "front.classical_invariants", {}),
    ("front", "maslov_potential", "front.maslov_potential", {}),
    ("moves", "apply_move", "moves.apply_move", {}),
    ("moves", "trace_summary", "moves.trace_summary", {}),
    ("moves", "parse_trace", "moves.parse_trace", {}),
    ("search", "connect_fronts", "search.connect_fronts", {}),
    ("whitehead", "whitehead_double", "whitehead.whitehead_double", {}),
    ("braids", "closure_report", "braids.closure_report", {}),
    ("laurent", "decompose", "laurent.decompose", {"splittings": _len}),
    ("laurent", "is_connected_form", "laurent.is_connected_form", {}),
    ("geography", "realize", "geography.realize", {"blocks": _blocks}),
    ("exactseq", "connect_sum", "exactseq.connect_sum", {}),
    ("rulings", "enumerate_rulings", "rulings.enumerate_rulings",
     {"rulings": _len}),
    ("rulings", "ruling_polynomial", "rulings.ruling_polynomial", {}),
    ("render", "render_svg", "render.render_svg", {}),
    ("render", "render_points_svg", "render.render_points_svg", {}),
    ("cli", "main", "cli", {}),
]

MODULES = ("braids", "cli", "exactseq", "front", "geography",
           "gfnum", "laurent", "moves", "mpoly", "render", "rulings",
           "search", "whitehead")

COMMAND_KINDS = ("gf-chords", "gf-check", "gf-front", "wh", "trace", "inv",
                 "braid", "compat", "plan", "tb", "rulings")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # Spans live in flat arrays, which the garbage collector does not
        # scan, so a pass with 10^5 spans collects as fast as without.
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.kinds = {}          # span index of a `cli` span -> command
        self.counts = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)
        self._kind = None

    def begin_command(self, command):
        """Start of a command: a guard that stopped the previous one may
        have left the stack half unwound, or a span half recorded."""
        n = min(len(self.names), len(self.starts), len(self.ends),
                len(self.parents))
        del self.names[n:], self.starts[n:], self.ends[n:], self.parents[n:]
        self._stack.clear()
        self._depth.clear()
        self._kind = command["argv"][0]

    def wrap(self, name, fn, counters):
        from legcob.errors import DomainError
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._depth[name] == 0
            if outer:
                tracer.counts[name + ".calls"] += 1
            tracer._depth[name] += 1
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            if name == "cli":
                tracer.kinds[idx] = tracer._kind
            tracer._stack.append(idx)
            tracer.starts.append(tracer.clock())
            try:
                result = fn(*args, **kwargs)
            except DomainError:
                if outer:
                    tracer.counts[name + ".rejected"] += 1
                raise
            finally:
                tracer.ends[idx] = tracer.clock()
                tracer._stack.pop()
                tracer._depth[name] -= 1
            if outer:
                if result is None:
                    tracer.counts[name + ".misses"] += 1
                for suffix, f in counters.items():
                    tracer.counts[f"{name}.{suffix}"] += f(result)
            return result
        return traced

    def install(self):
        mods = {m: importlib.import_module("legcob." + m) for m in MODULES}
        namespaces = [importlib.import_module("legcob")] + list(mods.values())
        for mod_name, attr, name, counters in TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(mods[mod_name], owner_name)
                setattr(owner, fn_name,
                        self.wrap(name, owner.__dict__[fn_name], counters))
                continue
            fn = getattr(mods[mod_name], fn_name)
            traced = self.wrap(name, fn, counters)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, traced)

    def metrics(self):
        """Per-layer numbers: counts, self times and derived ratios."""
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        selfs = self_times(spans)
        self_s = defaultdict(float)
        kind_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            self_s[name] += selfs[i]
            if i in self.kinds:
                kind_s[self.kinds[i]] += end - start
        c = self.counts
        out = {}
        for _, _, name, counters in TARGETS:
            out[name + ".self_s"] = self_s[name]
            for suffix in ("calls", "rejected", "misses", *counters):
                out[f"{name}.{suffix}"] = c[f"{name}.{suffix}"]
        out["front.FrontDiagram.builds"] = out["front.FrontDiagram.calls"]
        calls = c["moves.apply_move.calls"]
        out["moves.apply_move.accept_ratio"] = (
            (calls - c["moves.apply_move.rejected"]) / calls if calls else 0.0)
        chords = c["gfnum.reeb_chords.chords"]
        out["gfnum.rows_per_chord"] = (
            (c["gfnum.grad_x.rows"] + c["gfnum.grad_eta.rows"]) / chords
            if chords else 0.0)
        for kind in COMMAND_KINDS:
            out[f"cli.{kind}.s"] = kind_s[kind]
        return out
