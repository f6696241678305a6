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
exactly at an opportunity instant is eligible for it (arrivals are absorbed,
with drop-tail checks, in arrival order before each delivery).

The event loop draws from three sources and runs whichever holds the
smallest (time, insertion sequence) key, so ties break exactly as one
global priority queue would break them:

* the armed delivery: at most one opportunity is pending at a time, held
  as a scalar key;
* the ack stream, a FIFO: deliveries happen in time order and every ack
  returns after the same constant delay, so acks fall due in the order
  they were created;
* a heap holding only guardian ticks and flow starts.

A packet's trip to the queue needs no event. Sends happen in time order
and the delay is constant, so the packets still propagating are always
the packet-id range [transit head, packets sent), and packet p reaches
the queue at its send time plus the one-way delay. The next opportunity
comes from a cursor into the schedule's per-loop offsets that only moves
forward.

Loss handling mirrors dupack-based TCP without retransmission: per-flow
deliveries stay in sequence order, so a delivery above the next expected
sequence is a duplicate-ack; the third one in an episode fires the AIMD loss
response once, declares the gap lost, and resynchronizes past it.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import repeat

from .aimd import AVOIDANCE, AimdWindow
from .guardian import Guardian, GuardianConfig
from .traces import TraceSchedule

INFINITE_BUFFER = 2**31

US_PER_S = 1_000_000

# Event kinds. Ticks and starts share the heap; deliveries and acks each
# have a source of their own.
_DELIVER = 0
_ACK = 1
_TICK = 2
_START = 3
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
    aimd_enabled: bool = True  # ablation switch: no ack-driven window changes
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
    packet_bytes: int = 1500
    seed: int = 1
    flows: list[FlowSpec] = field(default_factory=lambda: [FlowSpec()])
    cwnd_watermark: float | None = None  # record first time cwnd >= this

    def validate(self) -> None:
        if self.duration_s <= 0.0:
            raise ValueError("duration_s must be positive")
        if self.one_way_delay_s < 0.0:
            raise ValueError("one_way_delay_s must be >= 0")
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
        "spec", "win", "guardian", "rng", "inflight", "next_seq",
        "next_expected", "dup_count", "min_rtt_s", "si_sum", "si_n",
        "guardian_active", "awaiting_guardian", "aimd_on",
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
        self.rng = rng
        self.inflight = 0
        self.next_seq = 0
        self.next_expected = 0
        self.dup_count = 0
        self.min_rtt_s = math.inf
        self.si_sum = 0.0
        self.si_n = 0
        self.guardian_active = False
        # A guarded flow's guardian starts on the first ack that finds the
        # window in congestion avoidance (or AIMD switched off).
        self.awaiting_guardian = guarded
        self.aimd_on = spec.aimd_enabled
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
        if self.n_sent != self.n_delivered + self.n_dropped + self.n_in_queue + self.n_in_flight:
            raise SimulationError(
                "packet conservation violated: "
                f"sent={self.n_sent} delivered={self.n_delivered} "
                f"dropped={self.n_dropped} queued={self.n_in_queue} "
                f"in_flight={self.n_in_flight}"
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

    # Packet ledgers (global packet id -> fields).
    p_flow = array("h")
    p_seq = array("q")
    p_sent = array("q")
    p_delivered = array("q")
    p_dropped = array("q")

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
    n_delivered = 0
    n_dropped = 0

    # Bottleneck state. Packets [transit_head, n_sent) are propagating
    # towards the queue.
    transit_head = 0
    queue: deque = deque()
    q_total = 0

    # Opportunity cursor: obase + offs[oi] (cached in opp_t) is the schedule
    # entry after the last opportunity considered, used or wasted, at
    # last_opp_us. Arming moves it on to the first entry the delivery may
    # take. offs[-1] equals the loop length, so any target in
    # (obase, obase + loop_us] lies in the current loop.
    offs = schedule.offsets_us()
    loop_us = schedule.loop_length_us
    n_offs = len(offs)
    oi = 0
    obase = 0
    opp_t = offs[0]
    last_opp_us = 0

    # Event sources, each keyed (t, eseq); see the module docstring.
    d_t = d_seq = _NEVER                  # the armed delivery
    acks: deque = deque()                 # (t, eseq, pid), due in order
    heap = [(_NEVER, _NEVER, _START, -1)]  # ticks and starts over a sentinel
    eseq = 0
    for fi, f in enumerate(flows):
        heappush(heap, (round(f.spec.start_s * US_PER_S), eseq, _START, fi))
        eseq += 1
    h_t = heap[0][0]

    while True:
        # The next event is the smallest key of the three sources.
        t = d_t
        seq = d_seq
        kind = _DELIVER
        if acks:
            a_t, a_seq, pid = acks[0]
            if a_t < t or (a_t == t and a_seq < seq):
                t = a_t
                seq = a_seq
                kind = _ACK
        if h_t < t or (h_t == t and heap[0][1] < seq):
            t = h_t
            if t > duration_us:
                break
            _, _, kind, fi = heappop(heap)
            h_t = heap[0][0]
        elif t > duration_us:
            break

        if kind == _DELIVER:
            # Delivery opportunity. Absorb every arrival due by now, in
            # arrival order, applying drop-tail at the queue state each
            # would have seen.
            d_t = _NEVER
            cut = t - owd_us
            while transit_head < n_sent and p_sent[transit_head] <= cut:
                pid = transit_head
                transit_head += 1
                if q_total >= buffer_pkts:
                    p_dropped[pid] = p_sent[pid] + owd_us
                    n_dropped += 1
                else:
                    queue.append(pid)
                    q_total += 1
            last_opp_us = t
            oi += 1
            if oi == n_offs:
                oi = 0
                obase += loop_us
            opp_t = obase + offs[oi]
            if q_total:
                pid = queue.popleft()
                q_total -= 1
                p_delivered[pid] = t
                n_delivered += 1
                acks.append((t + owd_us, eseq, pid))
                eseq += 1
        else:
            if kind == _ACK:
                acks.popleft()
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
                    if f.aimd_on:
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
                        if f.aimd_on:
                            f.win.on_loss()
                # (s < next_expected is impossible: per-flow delivery order
                # is send order, and resync only moves next_expected forward.)
                if f.awaiting_guardian and (f.win.phase == AVOIDANCE or not f.aimd_on):
                    f.awaiting_guardian = False
                    f.guardian_active = True
                    f.si_sum = 0.0
                    f.si_n = 0
                    t_next = t + max(1, round(f.min_rtt_s * US_PER_S))
                    if t_next <= duration_us:
                        heappush(heap, (t_next, eseq, _TICK, fi))
                        eseq += 1
                        h_t = heap[0][0]
            elif kind == _TICK:
                f = flows[fi]
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
                t_next = t + max(1, round(f.min_rtt_s * US_PER_S))
                if t_next <= duration_us:
                    heappush(heap, (t_next, eseq, _TICK, fi))
                    eseq += 1
                    h_t = heap[0][0]
            else:  # _START
                f = flows[fi]

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
            if k > 0:
                s = f.next_seq
                if k == 1:
                    p_flow.append(fi)
                    p_seq.append(s)
                    p_sent.append(t)
                    p_delivered.append(-1)
                    p_dropped.append(-1)
                else:
                    p_flow.extend(repeat(fi, k))
                    p_seq.extend(range(s, s + k))
                    p_sent.extend(repeat(t, k))
                    p_delivered.extend(repeat(-1, k))
                    p_dropped.extend(repeat(-1, k))
                f.next_seq = s + k
                f.inflight += k
                n_sent += k

        # Arm the next delivery if none is pending and a packet is queued
        # or on its way: the first opportunity at or after max(when it can
        # leave, last opportunity + 1).
        if d_t == _NEVER:
            if q_total:
                x = t
            elif transit_head < n_sent:
                x = p_sent[transit_head] + owd_us
            else:
                continue
            if x <= last_opp_us:
                x = last_opp_us + 1
            if opp_t < x:
                r = x - obase
                if r <= loop_us:
                    oi = bisect_left(offs, r, oi)
                else:
                    loops, rem = divmod(x - 1, loop_us)
                    obase = loops * loop_us
                    oi = bisect_left(offs, rem + 1)
                opp_t = obase + offs[oi]
            d_t = opp_t
            d_seq = eseq
            eseq += 1

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
        n_in_queue=q_total,
        n_in_flight=n_sent - transit_head,
        min_rtt_s=[f.min_rtt_s for f in flows],
        watermark_us=[f.watermark_us for f in flows],
        threshold_raised=threshold_raised,
    )
    log.check_conservation()
    return log
