"""A fixed reference job that gauges how fast the host runs right now.

The measuring hosts are shares of busy machines.  Their speed changes
within seconds (a fixed loop runs 40-60% slower at some moments than at
others) and over minutes (every workload runs 30-60% slower for a few
minutes at a time).  The benchmark therefore runs this job, about a
millisecond of Python objects, small NumPy arithmetic and pickle/JSON,
many times at the same moments as the workload: between serve requests,
and every ``INTERVAL_S`` during a planning pass.  A timing is scaled by
the job's mean time over the same stretch to the reference host
(``stats.at_reference``): a pass that took 3 s while the job took 1.5 ms
is reported as 2 s, the time on a host where the job takes 1 ms.  A pass
is scaled by all the round's samples, an op by those near it
(:meth:`Yardstick.near_ms`), because the speed changes within a pass.

The job's time is subtracted from every timing it falls into, so the raw
timings stay what the workload took.  The collector is paused while the
job runs, so the job never pays for the program's heap.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import pickle
import signal
from typing import Callable, Iterator

import numpy as np

#: Seconds between two samples while a planning pass runs.
INTERVAL_S = 0.02

#: An op is scaled by the samples that began within this many seconds of
#: it: the host's speed holds for about that long, and 0.1 s on either
#: side holds 10-25 samples.
NEAR_S = 0.1

_NUMBERS = np.arange(1024, dtype=np.int64)
_RECORD = [{"id": i, "name": f"layer{i}", "dims": (i, i + 1, i + 2)} for i in range(40)]


def job() -> int:
    """The reference work: about 1 ms on a 2-vCPU host."""
    total = 0
    for scale in range(1, 31):
        total += int(((_NUMBERS * scale + 3) // 7).sum())
    table: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    for _ in range(3):
        total += len(pickle.loads(pickle.dumps(_RECORD))) + len(json.dumps(_RECORD))
    return total + len(table)


class Yardstick:
    """Samples of :func:`job`, timed on ``now_ns``."""

    def __init__(self, now_ns: Callable[[], int]) -> None:
        self._now_ns = now_ns
        self.samples_ns: list[int] = []
        self.starts_ns: list[int] = []
        self.total_ns = 0
        self._sampling = False

    def sample(self) -> None:
        """Run the job once with the collector paused and record its time.

        A signal that arrives while a sample runs takes no nested sample.
        """
        if self._sampling:
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()
        start = self._now_ns()
        try:
            job()
        finally:
            took = self._now_ns() - start
            if collecting:
                gc.enable()
            self.samples_ns.append(took)
            self.starts_ns.append(start)
            self.total_ns += took
            self._sampling = False

    def mark(self) -> tuple[int, int]:
        """``(now, total sample time)``, read with no sample in between.

        The difference of two marks splits wall time into the workload's
        part and the samples' part exactly, even while :meth:`every` runs.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._now_ns(), self.total_ns
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @contextlib.contextmanager
    def every(self, interval_s: float = INTERVAL_S) -> Iterator["Yardstick"]:
        """Take a sample every ``interval_s`` of wall time, from SIGALRM.

        The handler runs between the workload's bytecodes on the main
        thread, so the samples interleave with the work they gauge.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_ms(self) -> float:
        """Mean sample time in milliseconds (raises when nothing was sampled)."""
        if not self.samples_ns:
            raise ValueError("the yardstick took no sample")
        return self.total_ns / len(self.samples_ns) / 1e6

    def near_ms(self, start_ns: int, end_ns: int, near_s: float = NEAR_S) -> float:
        """Mean time in milliseconds of the samples that began within
        ``near_s`` of the interval ``[start_ns, end_ns]``, or of all
        samples when none did."""
        near_ns = int(near_s * 1e9)
        low = bisect.bisect_left(self.starts_ns, start_ns - near_ns)
        high = bisect.bisect_right(self.starts_ns, end_ns + near_ns)
        if low == high:
            return self.mean_ms()
        return sum(self.samples_ns[low:high]) / (high - low) / 1e6
