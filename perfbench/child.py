"""One pass of a command script in a fresh interpreter.

    python3 perfbench/child.py JOB.json RESULT.json

JOB.json holds the commands (from workloads.build), the untimed warm-up
commands run before them, the work directory, the per-command deadline,
the address-space cap, whether to trace, and the weight of the
yardstick's memory part (calib.py).  Each command
runs in-process through `legcob.cli.main(argv)` with its standard
output captured; only that call is timed, and an untraced pass samples
the yardstick all through to turn each time into reference seconds.
A command that passes the deadline or the cap is stopped and recorded,
and the pass goes on with the next command.  Each command's output is
written to out-<id>.txt in the work directory for the parent to check.
"""

import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

import calib

# The yardstick (calib.py) is sampled every this many seconds of the
# pass's CPU time, in the middle of a command too.
CALIBRATE_EVERY_S = 0.25


class DeadlineExceeded(BaseException):
    """Raised from the alarm handler; a BaseException so that no
    `except Exception` inside the program can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


class Yardstick:
    """Samples of the host-speed yardstick taken all through a pass,
    from a profiling-timer signal handler, so that a long command is
    measured against the host's speed while it ran."""

    def __init__(self, memory_share=0.0):
        self.memory_share = memory_share
        self.times = []       # monotonic time of each sample
        self.samples = []     # the host's slowness at each sample
        self.spent = 0.0      # seconds spent sampling
        self._busy = False

    def sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        try:
            slowness, seconds = calib.sample(self.memory_share)
            self.times.append(time.monotonic())
            self.samples.append(slowness)
            self.spent += seconds
        finally:
            self._busy = False

    def start(self):
        self.sample()
        self._old = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S,
                         CALIBRATE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        self.sample()

    def reference(self, seconds, start, end):
        """`seconds` of a command that ran from `start` to `end`
        (monotonic), in reference seconds: against the mean slowness of
        the samples taken during it, the last one before it and the
        first one after it.  (Widening that to the samples within a
        second of the command made each command's time spread more over
        the passes, on every workload: the host's speed changes within
        a second.)"""
        first = bisect.bisect_right(self.times, start) - 1
        last = bisect.bisect_left(self.times, end)
        return calib.to_reference(
            seconds, statistics.fmean(self.samples[first:last + 1]))


def _resolve(argv, words):
    """Replace `@word:<id>` by the front word that command <id> printed."""
    out = []
    for a in argv:
        if a.startswith("@word:"):
            a = words.get(int(a[len("@word:"):]), "")
        out.append(a)
    return out


# A command whose address space came this close to the cap has hit it.
HEADROOM = 32 << 20


def _vm_peak():
    """Peak address-space size of this process in bytes (what RLIMIT_AS
    caps), or None where /proc is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) << 10
    except OSError:
        pass
    return None


def _out_of_memory(exc, peak_before, cap):
    """Whether a crash came from the address-space cap: a MemoryError, an
    error raised while handling one, or any error from a command that
    took the address space to within HEADROOM of the cap.  The last case
    is needed because an allocation failing inside the interpreter can
    surface as a SystemError with no MemoryError in its chain."""
    while exc is not None:
        if isinstance(exc, MemoryError):
            return True
        exc = exc.__context__
    if cap is None or peak_before is None:
        return False
    try:
        peak = _vm_peak()
    except MemoryError:
        return True
    return peak > peak_before and peak >= cap - HEADROOM


def _call(main, argv, deadline_s, cap):
    """One guarded, timed call of main(argv).  Returns (status, exit
    code, captured output, seconds)."""
    buf = io.StringIO()
    status, rc = "ok", None
    reserve = bytearray(8 << 20)  # headroom for the handlers at the cap
    peak_before = _vm_peak()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status = "deadline"
    except MemoryError:
        status = "memory"
    except SystemExit as e:
        status, rc = "usage", e.code
    except Exception as e:  # a crash is one failed command
        del reserve
        status = "memory" if _out_of_memory(e, peak_before, cap) \
            else f"crash:{type(e).__name__}: {str(e)[:120]}"
    seconds = time.perf_counter() - t0
    return status, rc, buf.getvalue() if status == "ok" else "", seconds


def run_commands(commands, main, deadline_s, out_dir, before=None,
                 cap=None, calibrate=True, memory_share=0.0):
    """Run every command through `main`, one at a time.

    Returns one outcome dict per command: status (ok, deadline, memory,
    usage, or crash:<type>), exit code, seconds, output bytes and
    digest, and with `calibrate` the seconds in reference seconds too
    (`ref_s`, calib.py; the yardstick's own samples are taken out of
    `seconds`; `memory_share` weighs its parts).  `before(command)`
    runs untimed ahead of each command; `cap` is the address-space cap
    in bytes, if one is set.
    """
    referenced = {int(a[len("@word:"):]) for c in commands for a in c["argv"]
                  if a.startswith("@word:")}
    outcomes = []
    words = {}
    yard = Yardstick(memory_share) if calibrate else None
    ran = []
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        if yard:
            yard.start()
        for cmd in commands:
            argv = _resolve(cmd["argv"], words)
            if before is not None:
                before(cmd)
            gc.collect()
            spent, start = yard.spent if yard else 0.0, time.monotonic()
            status, rc, text, seconds = _call(main, argv, deadline_s, cap)
            ran.append((start, time.monotonic()))
            if yard:
                seconds -= yard.spent - spent
            outcomes.append(_record(cmd, status, rc, text, seconds, out_dir))
            if cmd["id"] in referenced and status == "ok" and rc == 0:
                with contextlib.suppress(ValueError, KeyError, TypeError):
                    words[cmd["id"]] = json.loads(text)["word"]
    finally:
        if yard:
            yard.stop()
        signal.signal(signal.SIGALRM, old)
    for o, (start, end) in zip(outcomes if yard else (), ran):
        o["ref_s"] = yard.reference(o["seconds"], start, end)
    return outcomes


def _record(cmd, status, rc, text, seconds, out_dir):
    """Write a command's output for the checks; returns its outcome."""
    path = os.path.join(out_dir, f"out-{cmd['id']}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    data = text.encode()
    return {"id": cmd["id"], "status": status, "rc": rc, "seconds": seconds,
            "bytes": len(data), "digest": hashlib.sha256(data).hexdigest()}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import legcob.cli as cli
    os.chdir(job["work_dir"])
    for argv in job["warmup"]:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"perfbench: warm-up command {argv} failed")
    calib.sample(job["memory_share"])  # warm-up
    # Objects that live for the whole pass leave the collector's view, so
    # the collection before each command costs the same all pass long.
    gc.collect()
    gc.freeze()
    tracer = None
    before = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        before = tracer.begin_command
    cap = int(job["mem_cap_mb"]) << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    # A traced pass takes no yardstick samples, which would land in the
    # self time of whichever span they interrupt.
    outcomes = run_commands(job["commands"], cli.main, job["deadline_s"],
                            ".", before=before, cap=cap,
                            calibrate=not job["trace"],
                            memory_share=job["memory_share"])
    result = {"outcomes": outcomes, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
