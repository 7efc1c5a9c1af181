"""Command times scaled to a reference machine speed.

The 2-core virtual machines this benchmark was tuned on share their cores
with other tenants: the same command's CPU time moves by up to a factor of
two within a minute, in spells of seconds, as neighbours come and go.  A
fixed calibration kernel, run between
commands and inside them, measures the current speed, and each stretch of a
command's CPU time is scaled by ``REFERENCE_S / (kernel time around it)``.
A scaled time reads as the CPU time the command would take when the kernel
takes ``REFERENCE_S``.

The kernel is this file's own code, independent of the program: Python
loops over small numpy arrays with tuple keys in sets and dicts, the
interpreter-bound mix the program spends its time in.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# median kernel CPU time on the reference machine (2-core virtual machine,
# Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.0300
# CPU seconds of a command between two kernel samples taken inside it
SAMPLE_EVERY_S = 0.25


def kernel() -> float:
    x = np.linspace(0.0, 1.0, 12)
    table = {}
    seen = set()
    acc = 0.0
    for i in range(4000):
        row = x * (i % 7) - 0.5
        j = int(np.argmin(row[: 4 + i % 8]))
        key = (i % 53, j)
        if key not in seen:
            seen.add(key)
        table[key] = table.get(key, 0.0) + float(row[j])
        for v in (row[1], row[3], row[5]):
            if v < -0.25:
                acc += float(v)
    return acc + len(table)


def sample() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


class ScaledClock:
    """Runs commands and scales their CPU time piece by piece.

    Kernel samples are taken between commands and, when ``every`` is set,
    also inside a command: a CPU-time interval timer interrupts it every
    ``every`` CPU seconds to run the kernel, and the handler's own time is
    taken out of the command's.  Each stretch of a command between two
    samples is scaled by their mean.  Sampling inside long commands tracks
    the speed changes that happen while they run.
    """

    def __init__(self, every: float | None = SAMPLE_EVERY_S):
        self.every = every
        self.scaled = []
        self.samples = [sample()]

    def run(self, call):
        """``call()`` under the clock: returns ``(result, CPU seconds)`` and
        appends the command's scaled seconds to ``scaled``."""
        marks = []              # (command CPU seconds so far, kernel seconds)
        spent = 0.0             # CPU seconds spent in the handler

        def handler(signum, frame):
            nonlocal spent
            t0 = time.process_time()
            k = sample()
            marks.append((t0 - start - spent, k))
            spent += time.process_time() - t0

        if self.every:
            previous = signal.signal(signal.SIGPROF, handler)
            signal.setitimer(signal.ITIMER_PROF, self.every, self.every)
        start = time.process_time()
        try:
            result = call()
        finally:
            cpu = time.process_time() - start
            if self.every:
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
                signal.signal(signal.SIGPROF, previous)
        cpu -= spent
        self.samples.extend(k for _, k in marks)
        points = [(0.0, self.samples[-len(marks) - 1])] + marks
        self.samples.append(sample())
        points.append((cpu, self.samples[-1]))
        self.scaled.append(sum(
            (t1 - t0) * REFERENCE_S / (0.5 * (k0 + k1))
            for (t0, k0), (t1, k1) in zip(points, points[1:])))
        return result, cpu

    def total(self) -> float:
        return sum(self.scaled)
