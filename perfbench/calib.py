"""The host-speed yardstick.

The benchmark's machine shares its cores, and the speed it gives one
process swings by a third or more within seconds and for minutes at a
time, so a raw time mostly measures the host's phase.  `sample()` times
two fixed pieces of work that do not touch legcob: interpreter work
(dict updates, integer arithmetic, small numpy calls), the mix most
legcob commands run, and elementwise numpy work on an array larger than
the first-level caches, which the generating-family numerics lean on
as well.  The two slow down by different amounts when the host does,
and interpreter-bound commands follow the first while the numerics
follow the two about equally, so each workload says how much weight
the second gets (`memory_share`).

A sample gives the host's slowness: the yardstick's time over its time
on the reference machine (INTERP_S, MEMORY_S), the two parts combined
as a weighted geometric mean.  A time divided by the slowness measured
around it is in reference seconds: what it would have taken on the
reference machine.  A change to legcob moves the measured time and
leaves the yardstick alone.
"""

import time

import numpy

# Median times of the two parts on the reference machine (README.md).
INTERP_S = 0.02
MEMORY_S = 0.011

_ARRAY = numpy.linspace(0.0, 1.0, 100_000)   # 800 KB


def _interp():
    d = {}
    s = 0
    for i in range(40_000):
        k = i % 257
        d[k] = d.get(k, 0) + i
        s += (i * 7) % 13
    a = numpy.arange(64.0)
    for _ in range(2_000):
        a = numpy.sqrt(a * 1.0001 + 1.0)
    return s + int(a[0])


def _memory():
    a = _ARRAY
    for _ in range(40):
        a = numpy.sqrt(a * 1.0001 + 0.5)
    return float(a[0])


def sample(memory_share=0.0):
    """The host's slowness now (1 at the reference machine's median
    speed), and the seconds the sample took."""
    t0 = time.perf_counter()
    _interp()
    t1 = time.perf_counter()
    slowness = (t1 - t0) / INTERP_S
    if memory_share:
        _memory()
        slowness = slowness ** (1 - memory_share) \
            * ((time.perf_counter() - t1) / MEMORY_S) ** memory_share
    return slowness, time.perf_counter() - t0


def to_reference(seconds, slowness):
    """`seconds` measured while the host ran at `slowness`, in reference
    seconds."""
    return seconds / slowness
