"""Host speed sampling: a fixed pure-Python event loop, timed during iterations.

On a shared cloud host the speed of one core drifts by 30% or more within
seconds, and that drift, not the program, dominated the spread of raw
packets per second between runs. While a ``Sampler`` is active, a SIGALRM
every ``INTERVAL_S`` of wall time runs one chunk of ``event_loop`` (a heap
of event tuples, small objects, an int64 ledger, in the style of ccguard's
simulator but sharing no code with it, so a change to ccguard cannot change
its speed) and times it. The chunk times sample the host's speed across the
iteration; ``run.py`` subtracts the time the chunks took from the
iteration's wall time and scales its rate by ``speed_factor``, which gives
packets per second on a host where a chunk takes ``NOMINAL_S``.
"""

from __future__ import annotations

import heapq
import signal
import time
from array import array

INTERVAL_S = 0.1
CHUNK_EVENTS = 2000

# Typical chunk time on the host the baseline was recorded on (2-vCPU cloud
# VM, Intel Xeon, Python 3.11). It only sets the scale of the normalized
# rate; changing it rescales every recorded value.
NOMINAL_S = 0.0012


class _Flow:
    __slots__ = ("inflight", "cwnd", "acked")

    def __init__(self):
        self.inflight = 0
        self.cwnd = 10.0
        self.acked = 0

    def on_ack(self):
        self.inflight -= 1
        self.acked += 1
        self.cwnd += 1.0 / self.cwnd


def event_loop(n_events: int) -> int:
    """Send/ack events for three flows, each ack scheduling the next send."""
    heap = [(i, i, 0, i) for i in range(3)]
    flows = [_Flow() for _ in range(3)]
    sent = array("q")
    seq = 3
    for _ in range(n_events):
        t, _, kind, fi = heapq.heappop(heap)
        f = flows[fi]
        if kind == 0:
            sent.append(t)
            f.inflight += 1
            heapq.heappush(heap, (t + 17 + seq % 5, seq, 1, fi))
        else:
            f.on_ack()
            heapq.heappush(heap, (t + 3, seq, 0, fi))
        seq += 1
    return len(sent)


def chunk() -> float:
    t0 = time.perf_counter()
    event_loop(CHUNK_EVENTS)
    return time.perf_counter() - t0


class Sampler:
    """Time a chunk every INTERVAL_S while the block runs. Python runs the
    handler between bytecodes of the main thread, so a long call into C
    delays the sample until it returns."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        self.samples.append(chunk())

    @property
    def busy_s(self) -> float:
        """Wall time the chunks took, to take out of the iteration's."""
        return sum(self.samples)

    def speed_factor(self) -> float:
        """How much slower than nominal the host ran, averaged over wall
        time: the harmonic mean chunk time over NOMINAL_S. An iteration too
        short to be sampled gets one chunk run after it."""
        samples = self.samples or [chunk()]
        return len(samples) / sum(1 / s for s in samples) / NOMINAL_S
