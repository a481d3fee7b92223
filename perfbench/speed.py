"""Machine-speed probe for a shared machine.

On a machine whose other tenants take a varying share of the processor,
the same code runs up to about twice as slow for tens of seconds at a time,
and the process cannot see it: its CPU time grows with its wall time.  The
probe measures that slowdown from inside the run.  While it runs, an
interval timer interrupts the process every PROBE_EVERY_S, inside tasks
too, and times a fixed pure-Python loop that does not touch the library.
A task's time leaves out the probes that ran inside it, and is then
rescaled by a probe time near the task relative to REFERENCE_S, the loop's
time at the reference speed: a rescaled time is what the task would take
on a machine where the probe takes REFERENCE_S.  Library changes leave the
probe alone, so they move rescaled times by the same factor as raw ones.

The probe time a task is rescaled by is the mean of the probes inside it
when it holds at least INSIDE_PROBES of them, since its own time is the sum
over the same stretch; otherwise it is the median of the probes within
WINDOW_S of the task.  The load changes within a second, so a short window
follows it best, and the median keeps one probe that was itself
interrupted from skewing a short task.
"""

import bisect
import signal
import statistics
import time

PROBE_EVERY_S = 0.1
WINDOW_S = 0.25
INSIDE_PROBES = 10
PROBE_ITEMS = 8000
REFERENCE_S = 0.003


def _probe_loop():
    d = {}
    for i in range(PROBE_ITEMS):
        d[i] = (i * 7919) % 1009, str(i)
    return len(d)


class SpeedProbe:
    def __init__(self):
        self.starts = []  # increasing
        self.ends = []
        self.seconds = []
        _probe_loop()  # the first run of the loop pays for allocating its memory

    def sample(self, *_signal_args):
        start = time.perf_counter()
        _probe_loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append(end - start)

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, start, end):
        """(seconds, rescaled seconds) of the interval [start, end], leaving
        out the probes that ran inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = self.seconds[lo:hi]
        seconds = end - start - sum(inside)
        if len(inside) >= INSIDE_PROBES:
            return seconds, seconds * REFERENCE_S / statistics.fmean(inside)
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds[:1]  # [:1] before the first probe
        return seconds, seconds * REFERENCE_S / statistics.median(near)
