"""The legcob benchmark: seeded `leg` command scripts, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of the workload's command
script runs in a fresh interpreter (perfbench/child.py), one pass at a
time, with BLAS and OpenMP held to at most two threads.  Commands run
in a closed loop: the next starts when the previous one has returned.

--trace 0 takes set-up samples (a fresh interpreter importing
legcob.cli) before each full pass and runs a fixed number of untraced
full passes, as many as fit in S seconds at the workload's nominal pass
time (never fewer than two), then LIGHT_PASSES more of the script's
light commands alone, and reports the end-to-end metrics of
BENCHMARK.json.  Times are in reference seconds: a command's time is
divided by the host's slowness, measured by a yardstick (calib.py)
sampled all through the pass, and a set-up time by a bare
interpreter's start timed on either side of it.  A command's time is
its median over the passes it ran in.  --trace 1 runs one untraced
pass and then two traced ones (spans.py) and reports the per-layer
metrics; it fails if the traced passes count differently.  Commands
marked `guarded` (known blow-ups kept as probes) run apart, once, in an
interpreter of their own after the passes, so that they count in no
time or memory figure.  Every answer is checked after its pass
(checks.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calib
import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

THREADS = str(min(2, os.cpu_count() or 1))
DEADLINE_S = 30.0          # per command
PROBE_DEADLINE_S = 10.0    # per guarded command
MEM_CAP_MB = 256           # address space of a pass's interpreter
SETUP_PER_PASS = 5         # set-up samples taken before each full pass
SETUP_PROBE = "import time, legcob.cli; print(repr(time.monotonic()))"
BARE_PROBE = "import time; print(repr(time.monotonic()))"
# A bare interpreter's start on the reference machine (README.md).
BARE_START_S = 0.065
MIN_PASSES = 2
# Extra passes of the light commands alone, which are cheap to sample
# often.  A short command's time spreads by about a fifth from pass to
# pass even in reference seconds, and cmd_p50_s on gf_numerics is the
# time of one such command (the median of 17), not a median over
# hundreds of near neighbours as on the other workloads, so it takes
# more samples there.
LIGHT_PASSES = {"gf_numerics": 10, "front_moves": 4, "exact_counts": 4}
# Seconds one untraced pass takes on the reference machine (README.md).
# The pass count of a run follows from --seconds and these alone, so it
# does not change with the host's speed.
NOMINAL_PASS_S = {"gf_numerics": 13.0, "front_moves": 7.0,
                  "exact_counts": 7.0}
# Weight of the memory-bound part of the yardstick (calib.py) per
# workload: the chord searches slow down with it about as much as with
# the interpreter-bound part, the front and count commands with the
# latter alone.  Chosen from commands timed next to both parts.
MEMORY_SHARE = {"gf_numerics": 0.5, "front_moves": 0.0,
                "exact_counts": 0.0}
RUN_LIMIT_S = 170.0        # a run ends well inside three minutes
TRACED_PASSES = 2


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = THREADS
    return env


def spawn_seconds(code, env):
    """Seconds from spawning an interpreter that runs `code` until `code`
    prints the monotonic clock (both ends read the same clock)."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60, cwd=ROOT)
    return float(out.stdout.strip()) - t0


def measure_setup(env, samples):
    """Reference seconds from spawning an interpreter until `import
    legcob.cli` has finished in it, once per sample.  Set-up is process
    creation and file reads, which the in-process yardstick (calib.py)
    does not follow; its yardstick is a bare interpreter's start, timed
    just before and just after each sample."""
    bare = [spawn_seconds(BARE_PROBE, env)]
    times = []
    for _ in range(samples):
        seconds = spawn_seconds(SETUP_PROBE, env)
        bare.append(spawn_seconds(BARE_PROBE, env))
        times.append(calib.to_reference(
            seconds, (bare[-2] + bare[-1]) / 2 / BARE_START_S))
    return times


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def run_pass(commands, pass_dir, trace, env, timeout, workload,
             deadline_s=DEADLINE_S):
    """One pass in a fresh interpreter; returns the child's result."""
    os.makedirs(pass_dir)
    job = os.path.join(pass_dir, "job.json")
    result = os.path.join(pass_dir, "result.json")
    with open(job, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "work_dir": pass_dir,
                   "deadline_s": deadline_s, "mem_cap_mb": MEM_CAP_MB,
                   "trace": trace, "memory_share": MEMORY_SHARE[workload],
                   "warmup": workloads.WARMUP[workload]}, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), job,
                    result], env=env, check=True, timeout=timeout, cwd=ROOT)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def file_digest(path):
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_pass(commands, result, pass_dir, refs, tally, judged):
    """Check every answer of a pass.  `judged` carries verdicts across
    passes: an answer whose output, files the check reads, and output of
    the command it depends on are all byte-identical to those of one
    already judged gets the same verdict."""
    ctx = checks.Context(refs, pass_dir)
    digests = {o["id"]: o["digest"] for o in result["outcomes"]}
    for cmd, outcome in zip(commands, result["outcomes"]):
        files = tuple(file_digest(os.path.join(pass_dir, cmd["check"][k]))
                      for k in checks.FILE_KEYS if k in cmd["check"])
        key = (cmd["id"], outcome["status"], outcome["rc"], outcome["digest"],
               files, digests.get(cmd["check"].get("of")))
        if key not in judged:
            path = os.path.join(pass_dir, f"out-{cmd['id']}.txt")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            reason = checks.judge(cmd, outcome, text, ctx)
            judged[key] = (reason, ctx.docs.get(cmd["id"]))
        reason, doc = judged[key]
        if doc is not None:
            ctx.docs[cmd["id"]] = doc
        tally.add(cmd, reason)


def light_commands(commands):
    """The commands not marked heavy whose inputs come from light
    commands too, in script order."""
    light, ids = [], set()
    for cmd in commands:
        if not cmd["heavy"] and all(n in ids for n in cmd["needs"]):
            light.append(cmd)
            ids.add(cmd["id"])
    return light


def steady_figures(results, key="ref_s"):
    """Time figures of a set of passes, in reference seconds (or in
    seconds, with key="seconds").  Each command's time is its median
    over the passes it ran in; wall_s sums those times and cmd_p50_s is
    their median."""
    samples = {}
    for r in results:
        for o in r["outcomes"]:
            samples.setdefault(o["id"], []).append(o[key])
    per_cmd = [statistics.median(v) for v in samples.values()]
    return {"wall_s": sum(per_cmd), "cmd_p50_s": statistics.median(per_cmd)}


def is_count(name):
    return not (name.endswith("_s") or name.endswith(".s"))


def cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def machine():
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": int(THREADS)}


class Run:
    """The passes of one run, checked as they finish."""

    def __init__(self, workload, seed, refs):
        script = workloads.build(workload, seed)
        self.commands = [c for c in script if not c["guarded"]]
        self.probes = [c for c in script if c["guarded"]]
        self.light = light_commands(self.commands)
        self.workload = workload
        self.refs = refs
        self.env = child_env()
        self.work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self.start = time.monotonic()
        self.tally = checks.Tally()
        self.judged = {}
        self.plain, self.traced, self.lights, self.setup = [], [], [], []
        self.probe = None

    def elapsed(self):
        return time.monotonic() - self.start

    def one_pass(self, trace, light=False):
        commands = self.light if light else self.commands
        done = self.traced if trace else self.lights if light else self.plain
        pass_dir = os.path.join(self.work, f"pass-{self.passes()}")
        result = run_pass(commands, pass_dir, trace, self.env,
                          RUN_LIMIT_S - self.elapsed(), self.workload)
        check_pass(commands, result, pass_dir, self.refs, self.tally,
                   self.judged)
        shutil.rmtree(pass_dir)
        done.append(result)

    def passes(self):
        return len(self.plain) + len(self.traced) + len(self.lights)

    def run_probes(self):
        """The guarded commands, once, in an interpreter of their own."""
        if not self.probes:
            return
        pass_dir = os.path.join(self.work, "probes")
        self.probe = run_pass(self.probes, pass_dir, False, self.env,
                              RUN_LIMIT_S - self.elapsed(), self.workload,
                              PROBE_DEADLINE_S)
        check_pass(self.probes, self.probe, pass_dir, self.refs, self.tally,
                   {})
        shutil.rmtree(pass_dir)

    def measure(self, seconds):
        """Set-up samples and a fixed number of untraced passes, then the
        light passes."""
        for _ in range(pass_count(self.workload, seconds)):
            self.setup += measure_setup(self.env, SETUP_PER_PASS)
            self.one_pass(False)
        for _ in range(LIGHT_PASSES[self.workload] if self.light else 0):
            self.one_pass(False, light=True)

    def trace(self):
        """One untraced pass, for the overhead, then the traced ones."""
        self.one_pass(False)
        for _ in range(TRACED_PASSES):
            self.one_pass(True)

    def end_to_end(self):
        values = steady_figures(self.plain + self.lights)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                                  for r in self.plain)
        values["setup_s"] = statistics.median(self.setup)
        values["answered_frac"] = self.tally.answered / self.tally.attempted
        return values

    def per_layer(self):
        """Counts from the traced passes, which must agree exactly, and
        times as medians over them."""
        layers = [r["layers"] for r in self.traced]
        for name in layers[0]:
            if is_count(name) and any(l[name] != layers[0][name]
                                      for l in layers):
                raise SystemExit(f"perfbench: traced passes disagree on "
                                 f"{name}: {[l[name] for l in layers]}")
        values = {name: layers[0][name] if is_count(name)
                  else statistics.median(l[name] for l in layers)
                  for name in layers[0]}
        outs = self.traced[0]["outcomes"]
        values["cli.output_bytes"] = sum(o["bytes"] for o in outs)
        values["guard.tripped"] = sum(
            o["status"] in checks.GUARDS
            for o in (self.probe["outcomes"] if self.probe else []))
        values["trace.overhead_frac"] = (
            steady_figures(self.traced[:1], "seconds")["wall_s"]
            / steady_figures(self.plain, "seconds")["wall_s"] - 1)
        return values

    def report(self, metrics):
        print(f"{len(self.plain) + len(self.traced)} passes of "
              f"{len(self.commands)} commands, {len(self.lights)} of the "
              f"{len(self.light)} light ones, {len(self.probes)} guarded "
              f"command(s) apart; closed loop, one command at a time")
        print("machine " + json.dumps(machine(), sort_keys=True))
        print("pass seconds, raw/reference " + " ".join(
            "%.3f/%.3f" % (sum(o["seconds"] for o in r["outcomes"]),
                           sum(o.get("ref_s", 0) for o in r["outcomes"]))
            for r in self.plain + self.traced + self.lights))
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
        if self.tally.guarded:
            print(f"  {self.tally.guarded} guarded command(s) stopped by the "
                  f"deadline or the memory cap")
        for cid, text, reason in self.tally.problems[:20]:
            print(f"  FAILED command {cid} ({text}): {reason}")
        print(json.dumps({"correct": self.tally.failed == 0,
                          "attempted": self.tally.attempted,
                          "failed": self.tally.failed, "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "legcob", "cli.py")) \
            or not os.path.isfile(spec_path):
        print("perfbench: run from a legcob checkout: src/legcob and "
              "BENCHMARK.json are needed", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    sys.path.insert(0, SRC)

    run = Run(args.workload, args.seed, refs)
    try:
        if args.trace:
            run.trace()
        else:
            run.measure(args.seconds)
        run.run_probes()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    if args.trace:
        values, wanted = run.per_layer(), spec["per_layer"]
    else:
        values, wanted = run.end_to_end(), spec["end_to_end"]
    print(f"workload {args.workload} seed {args.seed}: ", end="")
    run.report({m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in wanted})
    return 0


if __name__ == "__main__":
    sys.exit(main())
