"""Classic AIMD congestion window, ack-driven.

Slow start grows the window by one packet per ack (doubling per RTT) until it
crosses the slow-start threshold; congestion avoidance grows it by 1/cwnd per
ack (one packet per RTT). Three duplicate acks count as one loss event per
episode: the threshold drops to half the current window and the window jumps
straight to it (no retransmission or timeout machinery lives here; the caller
owns sequencing and decides when a duplicate-ack episode has fired).

``AimdWindow.on_acks`` is the growth rule's only definition. It does not
return the window after each ack, only the acks at which the window first
reaches each of a ladder of levels. That is all its callers read: the
simulator asks for the levels above floor(cwnd), the acks at which a flow
may send one more packet, and ``metrics.first_cwnd_reaching`` for its
target.
"""

from __future__ import annotations

import math

SLOW_START = 0
AVOIDANCE = 1


class AimdWindow:
    """Window state for one flow. All sizes are in packets (floats)."""

    __slots__ = ("cwnd", "ssthresh", "phase", "floor")

    def __init__(
        self,
        cwnd: float = 10.0,
        ssthresh: float = 64.0,
        floor: float = 2.0,
    ):
        if cwnd < 1.0:
            raise ValueError("initial cwnd must be >= 1 packet")
        if floor < 1.0:
            raise ValueError("cwnd floor must be >= 1 packet")
        self.cwnd = float(cwnd)
        self.ssthresh = float(ssthresh)
        self.floor = float(floor)
        # RFC 5681 section 3.1: a window at or above its threshold is in
        # congestion avoidance, as on_acks decides when it leaves slow start.
        self.phase = AVOIDANCE if self.cwnd >= self.ssthresh else SLOW_START

    def on_ack(self) -> None:
        """Advance the window for one new (in-order) ack, asking for no
        crossing."""
        self.on_acks(1, math.inf)

    def on_acks(self, n: int, level: float) -> list[int]:
        """Advance the window for ``n`` new (in-order) acks. Returns, for
        ``level``, ``level + 1`` and so on up to the last level the window
        reaches, the index (from 0) of the first ack after which the window
        is at or above it. An index is listed once per level it reaches
        first, so an ack may be listed twice, or none at all; a level the
        window is already at counts as reached at the first ack. Each level
        is the one before plus 1.0, added in floating point. This is the
        rule's only definition."""
        crossed: list[int] = []
        record = crossed.append
        cwnd = self.cwnd
        k = 0
        if self.phase == SLOW_START:
            ssthresh = self.ssthresh
            while k < n:
                cwnd += 1.0
                # Rounding can carry one ack across two levels: from
                # nextafter(4, 0), cwnd + 1.0 is 5.0.
                while cwnd >= level:
                    record(k)
                    level += 1.0
                k += 1
                if cwnd >= ssthresh:
                    self.phase = AVOIDANCE
                    break
        for k in range(k, n):
            cwnd += 1.0 / cwnd
            while cwnd >= level:
                record(k)
                level += 1.0
        self.cwnd = cwnd
        return crossed

    def on_loss(self) -> None:
        """Multiplicative decrease for one loss event."""
        self.ssthresh = max(self.cwnd / 2.0, self.floor)
        self.cwnd = self.ssthresh
        self.phase = AVOIDANCE

    def clamp(self) -> None:
        """Re-apply the floor (callers multiply cwnd directly)."""
        if self.cwnd < self.floor:
            self.cwnd = self.floor
