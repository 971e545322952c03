"""How fast the machine runs Python right now, from a fixed reference computation.

The benchmark runs on shared virtual machines whose speed changes by a factor
of two or more from one minute to the next, and CPU time does not hide a
slower core: the same round of the same program reads 1.4 s of CPU in one
period and 3.5 s in another.  So every timed round interleaves short *ticks*
of a fixed computation with its work, and the run divides its times by the
round's slowdown: the mean tick time over the reference tick time.  A
reported time is thus the time the work would take on the reference machine
(a 2-vCPU virtual machine, Xeon at 2.1 GHz, Python 3.11.7, when the figures
in the README were taken), whatever the machine's speed during the run.

In-process work (``Meter``) ticks from a CPU-time timer, once per 40 ms of
the process's CPU, inside a query as well as between queries, so the ticks
sample the whole round evenly even when one query runs for seconds.  The
tick time is taken out of the query it fell in.  While that timer runs,
Linux reads the process's CPU clock only to the scheduler tick (4 ms), so
in-process times are read from the thread's CPU clock, which keeps its
nanoseconds; the program runs in one thread, so the two agree.  Work done by child
processes (``ChildMeter``) ticks between requests with a child of its own.

A tick is the benchmark's own code and calls nothing in ``sunlr``, so a
change to the program cannot move it.  It does what the program spends its
time on: building tuples, keeping them in a dictionary, and exact
``Fraction`` elimination.  The garbage collector is paused during a tick, so
a large heap left by the program does not slow the tick.
"""

from __future__ import annotations

import bisect
import gc
import resource
import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter, thread_time

from checks import n1_cycle_count, partitions_in_box

# mean CPU time of one tick on the reference machine, and the CPU time of the
# process between two ticks
REF_TICK_S = 0.0040
TICK_EVERY_S = 0.040

# the same for ChildMeter, whose ticks each start an interpreter; they come
# after a request once this much request CPU has passed since the last one
REF_CHILD_TICK_S = 0.082
CHILD_TICK_EVERY_S = 1.0
CHILD_TICK_CODE = "import argparse, dataclasses, fractions, importlib.resources, json"

# ticks around a query that set its slowdown
LOCAL_TICKS = 8

# a timer tick that finds the stack this close to the recursion limit is
# skipped, so a tick never raises RecursionError inside the program
STACK_MARGIN = 200


def _reference_work():
    """Componentwise sums of every pair of partitions in a 3 x 4 box, kept in
    a dictionary of some 1200 tuple keys, as the program keeps its memos;
    then Gaussian elimination over the rationals on a 5 x 6 matrix."""
    parts = partitions_in_box(3, 4)
    sums = {}
    for p in parts:
        for q in parts:
            w = max(len(p), len(q))
            s = tuple(a + b for a, b in zip(p + (0,) * (w - len(p)), q + (0,) * (w - len(q))))
            sums[p, q] = (s, sum(s))
    symmetric = sum(1 for (p, q), (s, size) in sums.items() if sums[q, p][0] == s and size % 3 == 0)
    rows = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 5) for j in range(6)] for i in range(5)]
    for c in range(5):
        piv = next((r for r in range(c, 5) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(5):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return symmetric, n1_cycle_count([3, 1, 2, 4] * 3), rows


class Meter:
    """Ticks taken during one round, and the slowdown they give.

    Used as a context manager around the round, it ticks from the timer;
    ``tick()`` takes one at once.  Each tick is placed on the round's *work
    clock*: the thread's CPU time with the ticks taken out.
    """

    ref_s = REF_TICK_S

    def __init__(self):
        self.cpu = []
        self.wall = []
        self.at = []  # work-clock time of each tick
        self.cpu_total = 0.0  # CPU in ticks so far, to take out of a query's time
        self.wall_total = 0.0
        self._saved = None

    def work_clock(self):
        return thread_time() - self.cpu_total

    def _measure(self):
        """(CPU, wall) seconds of one run of the reference work."""
        enabled = gc.isenabled()
        gc.disable()
        w0, c0 = perf_counter(), thread_time()
        _reference_work()
        c1, w1 = thread_time(), perf_counter()
        if enabled:
            gc.enable()
        return c1 - c0, w1 - w0

    def tick(self):
        self.at.append(self.work_clock())
        cpu, wall = self._measure()
        self.cpu.append(cpu)
        self.wall.append(wall)
        self.cpu_total += cpu
        self.wall_total += wall

    def _on_timer(self, signum, frame):
        try:
            sys._getframe(sys.getrecursionlimit() - STACK_MARGIN)
        except ValueError:  # the stack is shallow enough
            self.tick()

    def __enter__(self):
        self._saved = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, TICK_EVERY_S, TICK_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._saved)
        return False

    def cpu_slowdown(self):
        return sum(self.cpu) / len(self.cpu) / self.ref_s

    def wall_slowdown(self):
        return sum(self.wall) / len(self.wall) / self.ref_s

    def local_slowdowns(self, starts, durations, k=LOCAL_TICKS):
        """For each piece of work (start on the work clock, duration), the
        slowdown of the ticks that fell inside it, or of the k ticks nearest
        its middle when fewer did.  The machine's speed changes within a
        second, so per-query times, whose percentiles can fall in a band of
        queries that run within one second, are scaled by the speed around
        each query; a round's total is scaled by the mean of all its ticks,
        which is the steadier of the two for a total."""
        k = min(k, len(self.at))
        out = []
        for start, dur in zip(starts, durations):
            lo = bisect.bisect_left(self.at, start)
            hi = bisect.bisect_right(self.at, start + dur)
            if hi - lo >= k:
                out.append(sum(self.cpu[lo:hi]) / (hi - lo) / self.ref_s)
                continue
            mid = start + dur / 2
            i = bisect.bisect_left(self.at, mid)
            lo, hi = i, i  # widen [lo, hi) toward the nearer tick, k times
            while hi - lo < k:
                if lo > 0 and (hi == len(self.at) or mid - self.at[lo - 1] <= self.at[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
            out.append(sum(self.cpu[lo:hi]) / (hi - lo) / self.ref_s)
        return out


class ChildMeter(Meter):
    """Ticks that are each a fresh interpreter importing the standard modules
    the command line imports, for work whose cost is mostly start-up: process
    creation and import do not slow down in step with a loop.  The work
    clock is the requests' CPU so far."""

    ref_s = REF_CHILD_TICK_S

    def __init__(self):
        super().__init__()
        self.work = 0.0
        self.due = 0.0  # request CPU since the last tick

    def work_clock(self):
        return self.work

    def _measure(self):
        t0, w0 = children_cpu(), perf_counter()
        subprocess.run([sys.executable, "-c", CHILD_TICK_CODE], check=True)
        return children_cpu() - t0, perf_counter() - w0

    def after(self, request_cpu):
        """Call after each request with its CPU time; ticks when one is due."""
        self.work += request_cpu
        self.due += request_cpu
        if self.due >= CHILD_TICK_EVERY_S:
            self.due = 0.0
            self.tick()


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime
