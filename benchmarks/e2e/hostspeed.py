"""Host-speed normalisation of the end-to-end benchmark's timings.

The benchmark runs on small shared virtual machines whose vCPUs slow
down, each on its own, by up to 2x for seconds to minutes at a time.
The guest sees almost no steal time: a thread is charged CPU time while
its vCPU runs slowly, so no clock in the guest filters the slowdown out.

Before every op, the benchmark times :func:`probe`, a fixed piece of
work that no change to ``src`` can speed up, on the vCPU the op is
about to use (:func:`probe_each_cpu` when a process pool uses every
vCPU).  The probe is timed in thread CPU time, which grows when the
vCPU runs slowly but not while the thread waits for a CPU or for the
interpreter lock: the program's own threads and processes, competing
with the probe, do not move it.  Each op's host time is then scaled by
``REFERENCE_S`` over the mean of the probes just before and just after
it (:func:`scales`): every time the benchmark reports is the time the
op would have taken on a host that runs the probe in ``REFERENCE_S``.  A change that speeds up the program moves the scaled
times as much as the host times; a host that slows down moves the probe
with them.

Traced runs do not probe: their per-layer numbers stay in host time.
"""

from __future__ import annotations

import os
import statistics
from time import thread_time

import numpy as np

#: the probe's time on the reference host (the 2-vCPU VM of the README)
#: in a quiet period; reported times are in reference seconds
REFERENCE_S = 0.005

_MATRIX = np.random.default_rng(0).standard_normal((96, 96)) + 96.0 * np.eye(96)


def probe() -> float:
    """Thread CPU seconds for a fixed piece of work: a pure Python loop
    over ints and a dict, then small dense solves and sorts, the two
    kinds of work the flows and queries spend their time in."""
    t0 = thread_time()
    acc, table = 0, {}
    for i in range(24_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 255] = acc
    for _ in range(18):
        np.linalg.solve(_MATRIX, _MATRIX[:, 0])
        np.sort(_MATRIX, axis=0)
    return thread_time() - t0


def probe_each_cpu() -> float:
    """Mean :func:`probe` time over every CPU this process may use,
    pinning the calling thread (only) to each in turn."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def scales(probes):
    """Per op, given the probe time before each op in order, the factor
    that turns its host time into reference time: ``REFERENCE_S`` over
    the mean of the probes on either side of it (its own, and the next
    op's, timed right after it ends)."""
    after = probes[1:] + probes[-1:]
    return [2.0 * REFERENCE_S / (before + next_) for before, next_ in zip(probes, after)]


def scaled_wall(ops, scales, start, end) -> float:
    """The window ``[start, end]`` in reference seconds, given each op's
    factor.  Each stretch from one op's end to the next op's end, less
    the wall spent probing in it, is scaled by that next op's factor;
    the tail after the last op by the last op's."""
    total, last = 0.0, start
    for op, scale in zip(ops, scales):
        total += (op.end_s - last - op.probe_wall_s) * scale
        last = op.end_s
    return total + (end - last) * scales[-1]
