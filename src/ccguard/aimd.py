"""Classic AIMD congestion window, ack-driven.

Slow start grows the window by one packet per ack (doubling per RTT) until it
crosses the slow-start threshold; congestion avoidance grows it by 1/cwnd per
ack (one packet per RTT). Three duplicate acks count as one loss event per
episode: the threshold drops to half the current window and the window jumps
straight to it (no retransmission or timeout machinery lives here; the caller
owns sequencing and decides when a duplicate-ack episode has fired).
"""

from __future__ import annotations

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
        start_in_avoidance: bool = False,
    ):
        if cwnd < 1.0:
            raise ValueError("initial cwnd must be >= 1 packet")
        if floor < 1.0:
            raise ValueError("cwnd floor must be >= 1 packet")
        self.cwnd = float(cwnd)
        self.ssthresh = float(ssthresh)
        self.floor = float(floor)
        self.phase = AVOIDANCE if start_in_avoidance else SLOW_START
        if start_in_avoidance:
            self.ssthresh = self.cwnd

    def on_ack(self) -> None:
        """Advance the window for one new (in-order) ack."""
        self.on_acks(1)

    def on_acks(self, n: int) -> list[float]:
        """Advance the window for ``n`` new (in-order) acks and return the
        window after each one. This is the rule's only definition."""
        cwnds: list[float] = []
        record = cwnds.append
        cwnd = self.cwnd
        if self.phase == SLOW_START:
            ssthresh = self.ssthresh
            for _ in range(n):
                cwnd += 1.0
                record(cwnd)
                if cwnd >= ssthresh:
                    self.phase = AVOIDANCE
                    break
            n -= len(cwnds)
        for _ in range(n):
            cwnd += 1.0 / cwnd
            record(cwnd)
        self.cwnd = cwnd
        return cwnds

    def on_loss(self) -> None:
        """Multiplicative decrease for one loss event."""
        self.ssthresh = max(self.cwnd / 2.0, self.floor)
        self.cwnd = self.ssthresh
        self.phase = AVOIDANCE

    def clamp(self) -> None:
        """Re-apply the floor (callers multiply cwnd directly)."""
        if self.cwnd < self.floor:
            self.cwnd = self.floor
