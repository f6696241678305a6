"""Deterministic trace-driven bottleneck-link simulator.

Topology: N senders -> one drop-tail queue -> trace-scheduled link -> receiver,
with a fixed one-way propagation delay on each direction. The receiver acks
every delivered packet immediately; an ack carries its packet's sequence
number and returns after the same propagation delay. Senders are ack-clocked:
a flow keeps `floor(cwnd)` packets in flight.

Time is integer microseconds throughout. Every event carries a key
(time, insertion sequence) and events run in key order, so identical
configurations replay bit-identically regardless of host or hash seed.
Delivery opportunities come from a ``TraceSchedule`` (mahimahi format,
looping); an opportunity with an empty queue is wasted. A packet arriving
exactly at an opportunity instant is eligible for it.

A packet's fate is fixed when it is sent. The queue is FIFO and its service
instants are given, and the delay is constant, so the packet reaches the
queue at its send time plus the delay and finds there exactly the earlier
kept packets not yet delivered. It is dropped if that count reaches the
buffer; otherwise it leaves at the first opportunity at or after both its
arrival and the previous kept packet's departure + 1 (Lindley's recursion).
The next opportunity comes from a cursor into the schedule's per-loop
offsets that only moves forward.

Deliveries therefore need no events, and the loop draws from two sources:

* the ack cursor, which walks the kept packets in send order, each due at
  its delivery plus the delay (deliveries are in send order);
* a heap of guardian ticks and flow starts, over a stop entry just past the
  horizon.

The one-way delay is at least 1 us, so the order of a delivery and the
other events at its instant cannot matter: everything that delivery takes in
was sent earlier. At equal times the heap event runs first, as one priority
queue keyed by (time, insertion sequence) would run it. A heap event due at
T was created at the start or at T - r, where r >= 2 x delay > delay: a tick
interval is the min RTT, and an RTT is at least twice the delay. The ack due
at T was created by its delivery at T - delay, which is later.

At the end, deliveries after the horizon revert to -1. The last delivery at
or before the horizon took in every packet that had arrived by then; the
others are still in flight, and a drop counts only among the packets taken
in.

Loss handling follows dupack-based TCP without retransmission: per-flow
deliveries stay in sequence order, so a delivery above the next expected
sequence is a duplicate-ack; the third one in an episode fires the AIMD loss
response once, declares the gap lost, and resynchronizes past it.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .aimd import AVOIDANCE, AimdWindow
from .guardian import Guardian, GuardianConfig
from .traces import TraceSchedule

INFINITE_BUFFER = 2**31

US_PER_S = 1_000_000

# Event kinds. Ticks, starts and the stop entry share the heap; acks come
# from a cursor of their own.
_ACK = 0
_TICK = 1
_START = 2
_STOP = 3
# Key of an empty event source: later than any event time.
_NEVER = 1 << 62

CONTROLLERS = ("guarded", "aimd")


class SimulationError(AssertionError):
    """Internal invariant violation (e.g. packet conservation)."""


@dataclass
class FlowSpec:
    """One sender's configuration."""

    flow_id: str = "flow0"
    controller: str = "guarded"
    start_s: float = 0.0
    cwnd_init: float = 10.0
    cwnd_floor: float = 2.0
    ssthresh_init: float = 64.0
    start_in_avoidance: bool = False
    guardian: GuardianConfig = field(default_factory=GuardianConfig)

    def validate(self) -> None:
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}")
        if self.cwnd_floor < 1.0:
            raise ValueError("cwnd_floor must be >= 1")
        if self.cwnd_init < 1.0:
            raise ValueError("cwnd_init must be >= 1")
        if self.start_s < 0.0:
            raise ValueError("start_s must be >= 0")
        if self.controller == "guarded":
            self.guardian.validate()


@dataclass
class SimConfig:
    schedule: TraceSchedule
    duration_s: float
    one_way_delay_s: float = 0.010
    buffer_pkts: int = INFINITE_BUFFER
    seed: int = 1
    flows: list[FlowSpec] = field(default_factory=lambda: [FlowSpec()])
    cwnd_watermark: float | None = None  # record first time cwnd >= this

    def validate(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0.0):
            raise ValueError("duration_s must be positive and finite")
        # Every RTT, and so every guardian tick interval, is then >= 2 us.
        if not (math.isfinite(self.one_way_delay_s)
                and round(self.one_way_delay_s * US_PER_S) >= 1):
            raise ValueError("one_way_delay_s must be finite and at least 1 us")
        if self.buffer_pkts < 1:
            raise ValueError("buffer_pkts must be >= 1")
        # Zero flows is legal: the run produces an empty log and every
        # delivery opportunity goes to waste.
        ids = [f.flow_id for f in self.flows]
        if len(set(ids)) != len(ids):
            raise ValueError("flow_id values must be unique")
        for f in self.flows:
            f.validate()


class _FlowState:
    __slots__ = (
        "spec", "win", "guardian", "inflight", "next_seq",
        "next_expected", "dup_count", "min_rtt_s", "si_sum", "si_n",
        "guardian_active", "awaiting_guardian",
        "next_cwnd_sample_us", "watermark_us",
    )

    def __init__(self, spec: FlowSpec, rng: random.Random):
        self.spec = spec
        self.win = AimdWindow(
            cwnd=spec.cwnd_init,
            ssthresh=spec.ssthresh_init,
            floor=spec.cwnd_floor,
            start_in_avoidance=spec.start_in_avoidance,
        )
        guarded = spec.controller == "guarded"
        self.guardian = Guardian(spec.guardian, rng) if guarded else None
        self.inflight = 0
        self.next_seq = 0
        self.next_expected = 0
        self.dup_count = 0
        self.min_rtt_s = math.inf
        self.si_sum = 0.0
        self.si_n = 0
        self.guardian_active = False
        # A guarded flow's guardian starts on the first ack that finds the
        # window in congestion avoidance.
        self.awaiting_guardian = guarded
        self.next_cwnd_sample_us = 0
        self.watermark_us = -1


@dataclass
class SimLog:
    """Everything a run produced. Packet ledgers are parallel arrays indexed
    by a global packet id; -1 in delivered/dropped means "did not happen".
    A packet reaches the queue (or the drop decision) at sent + one-way delay;
    its RTT sample is delivered + one-way delay - sent."""

    config: SimConfig
    flow_ids: list[str]
    p_flow: array
    p_seq: array
    p_sent_us: array
    p_delivered_us: array
    p_dropped_us: array
    # Guardian tick trail (parallel lists, one row per tick of any flow).
    tick_t_us: list[int]
    tick_flow: list[int]
    tick_zone: list[str]
    tick_multiplier: list[float]
    tick_mean: list[float]
    tick_delay_s: list[float]      # nan when the tick saw no samples
    tick_threshold_s: list[float]
    tick_cwnd: list[float]
    # Coarse cwnd trail for flows (covers aimd-only flows between ticks).
    cwnd_t_us: list[int]
    cwnd_flow: list[int]
    cwnd_val: list[float]
    # End-of-run accounting.
    n_sent: int
    n_delivered: int
    n_dropped: int
    n_in_queue: int
    n_in_flight: int
    min_rtt_s: list[float]
    watermark_us: list[int]        # first time cwnd >= watermark, -1 if never
    threshold_raised: bool

    def enqueued_us(self, pid: int) -> int:
        """When packet ``pid`` reached the queue (or the drop decision):
        its send time plus the one-way propagation delay."""
        return self.p_sent_us[pid] + round(self.config.one_way_delay_s * US_PER_S)

    def check_conservation(self) -> None:
        """The counters against the ledgers: one entry per sent packet in each
        ledger, as many delivered and dropped as counted and none both, and
        the queued and in-flight counts not negative and making up the rest."""
        n = self.n_sent
        ledgers = (self.p_flow, self.p_seq, self.p_sent_us, self.p_delivered_us, self.p_dropped_us)
        dlv = np.frombuffer(self.p_delivered_us, dtype=np.int64) >= 0
        drp = np.frombuffer(self.p_dropped_us, dtype=np.int64) >= 0
        if (any(len(a) != n for a in ledgers)
                or (np.count_nonzero(dlv), np.count_nonzero(drp), np.count_nonzero(dlv & drp))
                != (self.n_delivered, self.n_dropped, 0)
                or min(self.n_in_queue, self.n_in_flight) < 0
                or n != self.n_delivered + self.n_dropped + self.n_in_queue + self.n_in_flight):
            raise SimulationError(
                "packet conservation violated: "
                f"sent={n} delivered={self.n_delivered} "
                f"dropped={self.n_dropped} queued={self.n_in_queue} "
                f"in_flight={self.n_in_flight}; ledger lengths {[len(a) for a in ledgers]}"
            )


def run_sim(config: SimConfig) -> SimLog:
    """Run one simulation to completion and return its log."""
    config.validate()
    schedule: TraceSchedule = config.schedule
    duration_us = round(config.duration_s * US_PER_S)
    owd_us = round(config.one_way_delay_s * US_PER_S)
    buffer_pkts = config.buffer_pkts
    watermark = config.cwnd_watermark

    flows = [
        _FlowState(spec, random.Random(config.seed * 1_000_003 + i))
        for i, spec in enumerate(config.flows)
    ]

    # Packet ledgers (global packet id -> fields). A kept packet's delivery
    # is written when it is sent; p_dropped is built after the run.
    p_flow = array("h")
    p_seq = array("q")
    p_sent = array("q")
    p_delivered = array("q")
    drops = array("q")  # ids of the packets the queue turned away

    tick_t: list[int] = []
    tick_flow: list[int] = []
    tick_zone: list[str] = []
    tick_mult: list[float] = []
    tick_mean: list[float] = []
    tick_delay: list[float] = []
    tick_thresh: list[float] = []
    tick_cwnd: list[float] = []
    cwnd_t: list[int] = []
    cwnd_flow: list[int] = []
    cwnd_val: list[float] = []

    threshold_raised = False
    n_sent = 0

    # Queue accounting for the drop check. n_kept counts kept packets and
    # n_gone those below packet id `gone` that left before the latest
    # arrival, so n_kept - n_gone bounds the queue an arrival finds.
    n_kept = 0
    gone = n_gone = 0

    # Opportunity cursor: obase + offs[oi] (cached in opp_t) is the schedule
    # entry after the one the last kept packet takes, at last_dlv.
    # offs[-1] equals the loop length, so any target in
    # (obase, obase + loop_us] lies in the current loop.
    offs = schedule.offsets_us()
    loop_us = schedule.loop_length_us
    n_offs = len(offs)
    oi = 0
    obase = 0
    opp_t = offs[0]
    last_dlv = 0

    # Ack cursor: the kept packet a_pid is acked next, at a_t.
    a_pid = 0
    a_t = _NEVER

    # Ticks and starts, over a stop entry just past the horizon.
    heap = [(duration_us + 1, -1, _STOP, -1)]
    eseq = 0
    for fi, f in enumerate(flows):
        heappush(heap, (round(f.spec.start_s * US_PER_S), eseq, _START, fi))
        eseq += 1
    h_t = heap[0][0]

    while True:
        # A heap event wins a tie with an ack; see the module docstring.
        if a_t < h_t:
            t = a_t
            kind = _ACK
        else:
            t, _, kind, fi = heappop(heap)

        if kind == _ACK:
            pid = a_pid
            a_pid += 1
            while a_pid < n_sent and p_delivered[a_pid] < 0:
                a_pid += 1
            a_t = p_delivered[a_pid] + owd_us if a_pid < n_sent else _NEVER
            fi = p_flow[pid]
            f = flows[fi]
            rtt_s = (t - p_sent[pid]) * 1e-6
            if rtt_s < f.min_rtt_s:
                f.min_rtt_s = rtt_s
            if f.guardian_active:
                f.si_sum += rtt_s
                f.si_n += 1
            s = p_seq[pid]
            if s == f.next_expected:
                f.next_expected = s + 1
                f.dup_count = 0
                f.inflight -= 1
                f.win.on_ack()
            elif s > f.next_expected:
                f.dup_count += 1
                f.inflight -= 1
                if f.dup_count == 3:
                    # Gap sequences [next_expected, s] minus the 3
                    # delivered duplicates are lost for good; free
                    # their window slots.
                    f.inflight -= s - f.next_expected - 2
                    f.next_expected = s + 1
                    f.dup_count = 0
                    f.win.on_loss()
            # (s < next_expected is impossible: per-flow delivery order
            # is send order, and resync only moves next_expected forward.)
            if f.awaiting_guardian and f.win.phase == AVOIDANCE:
                f.awaiting_guardian = False
                f.guardian_active = True
                f.si_sum = 0.0
                f.si_n = 0
                t_next = t + round(f.min_rtt_s * US_PER_S)
                if t_next <= duration_us:
                    heappush(heap, (t_next, eseq, _TICK, fi))
                    eseq += 1
                    h_t = heap[0][0]
        elif kind == _STOP:
            break
        else:
            h_t = heap[0][0]
            f = flows[fi]
            if kind == _TICK:
                mean_delay = f.si_sum / f.si_n if f.si_n else None
                f.si_sum = 0.0
                f.si_n = 0
                action = f.guardian.tick(mean_delay, t * 1e-6, f.min_rtt_s)
                if action.multiplier != 1.0:
                    f.win.cwnd *= action.multiplier
                    f.win.clamp()
                if action.threshold_raised:
                    threshold_raised = True
                tick_t.append(t)
                tick_flow.append(fi)
                tick_zone.append(action.zone.value)
                tick_mult.append(action.multiplier)
                tick_mean.append(action.mean)
                tick_delay.append(action.delay_s if action.delay_s is not None else math.nan)
                tick_thresh.append(action.threshold_s)
                tick_cwnd.append(f.win.cwnd)
                t_next = t + round(f.min_rtt_s * US_PER_S)
                if t_next <= duration_us:
                    heappush(heap, (t_next, eseq, _TICK, fi))
                    eseq += 1
                    h_t = heap[0][0]

        # The flow's cwnd trail (at most one sample per 100 ms), its
        # watermark, then sends up to the window.
        cwnd = f.win.cwnd
        if t >= f.next_cwnd_sample_us:
            cwnd_t.append(t)
            cwnd_flow.append(fi)
            cwnd_val.append(cwnd)
            f.next_cwnd_sample_us = t + 100_000
        if watermark is not None and f.watermark_us < 0 and cwnd >= watermark:
            f.watermark_us = t
        k = int(cwnd) - f.inflight
        if k <= 0:
            continue
        f.inflight += k
        s = f.next_seq
        f.next_seq = s + k
        first = n_sent
        arrive = t + owd_us
        while k:
            k -= 1
            p_flow.append(fi)
            p_seq.append(s)
            s += 1
            p_sent.append(t)
            # Drop-tail: the queue this packet finds is the earlier kept
            # packets not yet delivered when it arrives.
            q = n_kept - n_gone
            if q >= buffer_pkts:
                while n_gone < n_kept:
                    d = p_delivered[gone]
                    if d >= arrive:
                        break
                    gone += 1
                    if d >= 0:
                        n_gone += 1
                q = n_kept - n_gone
            if q >= buffer_pkts:
                drops.append(n_sent)
                p_delivered.append(-1)
            else:
                # Delivered at the first opportunity at or after both its
                # arrival and the previous kept packet's delivery + 1.
                x = arrive if arrive > last_dlv else last_dlv + 1
                if opp_t < x:
                    r = x - obase
                    if r <= loop_us:
                        oi = bisect_left(offs, r, oi)
                    else:
                        loops, rem = divmod(x - 1, loop_us)
                        obase = loops * loop_us
                        oi = bisect_left(offs, rem + 1)
                    opp_t = obase + offs[oi]
                last_dlv = opp_t
                p_delivered.append(opp_t)
                n_kept += 1
                oi += 1
                if oi == n_offs:
                    oi = 0
                    obase += loop_us
                opp_t = obase + offs[oi]
            n_sent += 1
        # With every earlier kept packet acked the first of these packets
        # found the queue empty, so it was kept.
        if a_t == _NEVER:
            a_pid = first
            a_t = p_delivered[first] + owd_us

    # End of run. Deliveries after the horizon did not happen. The last one
    # that did (at -1 if none did) took in every packet that had arrived by
    # then; the rest are still in flight, and a drop counts only among the
    # packets taken in.
    n_delivered = n_kept
    last = -1
    pid = n_sent - 1
    while pid >= 0:
        d = p_delivered[pid]
        if d > duration_us:
            p_delivered[pid] = -1
            n_delivered -= 1
        elif d >= 0:
            last = d
            break
        pid -= 1
    n_taken = bisect_right(p_sent, last - owd_us)
    p_dropped = array("q", [-1]) * n_sent
    n_dropped = 0
    for pid in drops:
        if pid >= n_taken:
            break
        p_dropped[pid] = p_sent[pid] + owd_us
        n_dropped += 1

    log = SimLog(
        config=config,
        flow_ids=[f.spec.flow_id for f in flows],
        p_flow=p_flow,
        p_seq=p_seq,
        p_sent_us=p_sent,
        p_delivered_us=p_delivered,
        p_dropped_us=p_dropped,
        tick_t_us=tick_t,
        tick_flow=tick_flow,
        tick_zone=tick_zone,
        tick_multiplier=tick_mult,
        tick_mean=tick_mean,
        tick_delay_s=tick_delay,
        tick_threshold_s=tick_thresh,
        tick_cwnd=tick_cwnd,
        cwnd_t_us=cwnd_t,
        cwnd_flow=cwnd_flow,
        cwnd_val=cwnd_val,
        n_sent=n_sent,
        n_delivered=n_delivered,
        n_dropped=n_dropped,
        n_in_queue=n_taken - n_delivered - n_dropped,
        n_in_flight=n_sent - n_taken,
        min_rtt_s=[f.min_rtt_s for f in flows],
        watermark_us=[f.watermark_us for f in flows],
        threshold_raised=threshold_raised,
    )
    log.check_conservation()
    return log
