"""Deterministic trace-driven bottleneck-link simulator.

Topology: N senders -> one drop-tail queue -> trace-scheduled link -> receiver,
with a fixed one-way propagation delay on each direction. The receiver acks
every delivered packet immediately; an ack carries its packet's sequence
number and returns after the same propagation delay. Senders are ack-clocked:
a flow keeps `floor(cwnd)` packets in flight.

Time is integer microseconds throughout. Events run in the order of one
priority queue keyed by (time, insertion sequence), so identical
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
Deliveries therefore need no events: acks, guardian ticks and flow starts
are the only ones.

The loop runs in windows. A window opens at the next event, at w0, and
ends at w_end, the later of w0 + 2 x delay and the last kept packet's
delivery + 1 + delay. A packet sent inside the window arrives at or after
w0 + delay and leaves after that last delivery, so its ack comes at or after
w_end: nothing inside the window depends on the fate of a packet sent in it.
When the window opens its acks are known, the kept packets delivered before
w_end - delay. numpy groups them by flow into int64 rows of their times and
sequence numbers, a float64 array of their RTTs and an int64 array of their
send counts, all 1 to start with. The loop reads single times and sequence
numbers with ``ndarray.item``, which returns Python ints: the trails and the
heap hold only those, since a numpy scalar would change the reprs that
digests hash. Ticks and starts come from a heap over a stop entry just past
the horizon, keyed (due, scheduled at, sequence number). That is the queue's
tie rule stated directly: insertion order is push order, pushes happen in
time order, and at one time the heap events run before the ack there. A
start is scheduled at -1; a tick pushed by a heap event at t is scheduled at
t, with the next sequence number. Each event only notes how many packets it
sends.

Acks are taken a flow at a time. Between two heap events an ack changes only
its own flow: its window, sequencing, RTT samples and sends. No other flow
reads them, and the packets it sends get their fates only when the window
closes. So a flow takes all its pending acks in one call, ``take_acks``, just
before each of its own heap events, and every flow takes the rest when the
window closes. Along a run of in-order acks the window only grows, so a
run's send counts follow from the acks at which floor(cwnd) rises. Those
are the crossings ``on_acks``, the window rule's only definition, returns
when asked for the levels from floor(cwnd) + 1 up: the index of the ack at
which cwnd first reaches each integer, listed once per integer, so an ack
that crosses two is listed twice. Only the acks that drain a window left
above cwnd by a cut send nothing; the first ack that sends is found from
the crossings, a step per crossing. After it, each ack sends one packet for
the packet it frees, plus one per crossing at it, so a run costs a step per
integer crossed, not per ack, and writes only those counts that are not 1.
A run is cut after each ack due a cwnd sample, at most one per flow per
100 ms, so that the sample reads the window there. The min RTT and the
guardian's sum of RTT samples cost one numpy call each per ``take_acks``
call: the sum is a ``cumsum`` from the carried sum, which adds in order, as
one ack at a time would. A guarded flow whose guardian has not started is
the exception: its guardian starts at the ack that finds its window in
congestion avoidance. Such a flow takes its acks one at a time when the
window opens and stops at that ack, which pushes the first tick, one min RTT
later, scheduled at the ack's time with sequence number ``_NEVER``, above
every other. It is pushed before the heap events at that time run, but its
key orders it after the ticks they push; its min RTT is the one the flow
would hold after them, since the flow's next ack comes later.

When the window closes, ``window_fates`` fixes the fates of all its sends a
segment at a time, taking each segment's fates as if every packet were kept:

* Busy runs. While the queue never idles, j_k = j_0 + k: a slice of the
  loop's instants after one scalar search, up to the loop's end or the first
  packet that arrives after its slot. The first two runs of a segment are
  taken so; the pass takes the rest.
* The pass: Lindley's recursion in index space. Opportunity i is instant
  i % n of loop i // n. With g_k the first opportunity at or after packet
  k's arrival, j_k = max(g_k, j_{k-1} + 1), so j_k - k is the running
  maximum of g_k - k: exact integer arithmetic.
* Distinct instants. A trace with more than 1000 opportunities in one
  millisecond repeats a microsecond offset. A repeat can never carry a
  second packet, since the next one leaves at least 1 us later, so the index
  runs over the loop's distinct instants.
* Runs of drops. When the segment could fill the buffer, one count of the
  queue each packet finds, from the sorted deliveries, locates the first
  drop. The queue stays full until its next departure, so every packet
  arriving by then is dropped too (a packet leaving at the arrival instant
  still counts as queued). The next segment starts after that run.

The one-way delay is at least 1 us, so the order of a delivery and the
other events at its instant cannot matter: everything that delivery takes in
was sent earlier. At equal times the heap event runs first, as one priority
queue keyed by (time, insertion sequence) would run it. A heap event due at
T was created at the start or at T - r, where r >= 2 x delay > delay: a tick
interval is the min RTT, and an RTT is at least twice the delay. The ack due
at T was created by its delivery at T - delay, which is later. A tick can
come due inside the window that created it when the window is longer than
2 x delay; the loop takes heap events as they come due, so it runs in order.
When the window closes, its heap events that send are listed first, in the
order they ran, then the acks, and one stable sort by time puts their
sends in order: a heap event goes before an ack at its time because it is
listed first. No two acks share a time, since every kept packet leaves at a
distinct instant.

Each window costs a fixed few dozen numpy calls, about six fewer when its
batch is one busy run. They are ndarray methods (``a.searchsorted``,
``a.argsort``, ``a.take``, ``a.compress``) where numpy has one: the ``np.*``
function of the same name first passes through a Python-level wrapper, about
1 us a call. A gather is one ``take`` or ``compress`` call, not a fancy or
boolean index, which costs two to three times as much over a few hundred
columns. With a standing queue a window holds about a round trip of
packets; with the queue near empty and a sub-millisecond delay it may hold a
single event, and the run is slower than an event-at-a-time loop would be.

The packet ledgers are allocated once, before the first window: an int64
table with a row each for delivery, send time and sequence number, and an
int16 flow ledger. They hold the trace's delivery opportunities up to the
horizon plus every flow's initial window, clamped at a fixed 4 Mi packets so
that a long horizon reserves no more, and double by copying only when a
window's packets do not fit (drops can push a run past its deliveries).
Memory is reserved, not touched: only the pages that packets are written to
count toward the resident size (numpy asks for 2 MiB huge pages on arrays
of 4 MiB and up). Each window writes its packets in with two slice
assignments.

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
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter

import numpy as np

from .aimd import AVOIDANCE, AimdWindow
from .guardian import Guardian, GuardianConfig
from .traces import US_PER_S, TraceSchedule

INFINITE_BUFFER = 2**31

# Most flows a run may hold: every flow index fits the int16 flow ledger.
MAX_FLOWS = 2**15 - 1
# Largest initial window or floor a flow may have: 20 x the deepest buffer
# the gates use (51 200 packets).
MAX_CWND = 2**20

# Heap event kinds: ticks, starts and the stop entry. Acks come from each
# window's rows.
_TICK = 1
_START = 2
_STOP = 3
# Sequence key of a tick that an ack schedules: after every tick that a heap
# event at the ack's time schedules.
_NEVER = 1 << 62
# A flow's cwnd trail takes at most one sample per this many microseconds.
_CWND_SAMPLE_US = 100_000
# Most packets the ledgers hold when a run starts, whatever the trace and
# horizon: 104 MiB of address space at 26 bytes a packet, enough for the
# 120 s canonical run. A run that sends more grows them as it goes.
_MAX_LEDGER_START = 2**22

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
        if not 1.0 <= self.cwnd_floor <= MAX_CWND:
            raise ValueError(f"cwnd_floor must be in [1, {MAX_CWND}]")
        if not 1.0 <= self.cwnd_init <= MAX_CWND:
            raise ValueError(f"cwnd_init must be in [1, {MAX_CWND}]")
        # An infinite threshold is legal: the flow stays in slow start until
        # its first loss.
        if not 1.0 <= self.ssthresh_init <= math.inf:
            raise ValueError("ssthresh_init must be >= 1")
        if not 0.0 <= self.start_s < math.inf:
            raise ValueError("start_s must be finite and >= 0")
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
        if len(self.flows) > MAX_FLOWS:
            raise ValueError(f"{len(self.flows)} flows; a run holds at most {MAX_FLOWS}")
        ids = [f.flow_id for f in self.flows]
        if len(set(ids)) != len(ids):
            raise ValueError("flow_id values must be unique")
        for f in self.flows:
            f.validate()


class _FlowState(AimdWindow):
    """One sender: its AIMD window, which it extends, plus sequencing,
    RTT samples and guardian state."""

    __slots__ = ("spec", "guardian", "inflight", "next_expected", "dup_count", "min_rtt_s",
                 "si_sum", "si_n", "guardian_active", "next_cwnd_sample_us")

    def __init__(self, spec: FlowSpec, rng: random.Random):
        super().__init__(
            cwnd=spec.cwnd_init,
            ssthresh=spec.ssthresh_init,
            floor=spec.cwnd_floor,
            start_in_avoidance=spec.start_in_avoidance,
        )
        self.spec = spec
        guarded = spec.controller == "guarded"
        self.guardian = Guardian(spec.guardian, rng) if guarded else None
        self.inflight = 0
        self.next_expected = 0
        self.dup_count = 0
        self.min_rtt_s = math.inf
        self.si_sum = 0.0
        self.si_n = 0
        # A guarded flow's guardian starts on the first ack that finds the
        # window in congestion avoidance.
        self.guardian_active = False
        self.next_cwnd_sample_us = 0


@dataclass
class SimLog:
    """Everything a run produced. Packet ledgers are parallel arrays indexed
    by a global packet id; -1 in delivered/dropped means "did not happen".
    p_seq, p_sent_us and p_delivered_us are row views of one table, and
    p_flow a view of the run's flow ledger; each is C-contiguous and
    writeable.
    A packet reaches the queue (or the drop decision) at sent + one-way delay;
    its RTT sample is delivered + one-way delay - sent."""

    config: SimConfig
    flow_ids: list[str]
    p_flow: np.ndarray             # int16
    p_seq: np.ndarray              # int64, as are the other ledgers
    p_sent_us: np.ndarray
    p_delivered_us: np.ndarray
    p_dropped_us: np.ndarray
    # Guardian tick trail (parallel lists, one row per tick of any flow): the
    # time and flow, the fields of the tick's GuardianAction, then the cwnd.
    tick_t_us: list[int]
    tick_flow: list[int]
    tick_zone: list[str]
    tick_multiplier: list[float]
    tick_mean: list[float]
    tick_delay_s: list[float]      # nan before the flow's first sample
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

    def check_conservation(self) -> None:
        """The counters against the ledgers: one entry per sent packet in each
        ledger, as many delivered and dropped as counted and none both, and
        the queued and in-flight counts not negative and making up the rest."""
        n = self.n_sent
        ledgers = (self.p_flow, self.p_seq, self.p_sent_us, self.p_delivered_us, self.p_dropped_us)
        dlv = self.p_delivered_us >= 0
        drp = self.p_dropped_us >= 0
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


def _columns(rows: list[tuple], width: int) -> list[list]:
    """Rows of ``width`` fields as one list per field."""
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(width)]


def window_fates(arrive: np.ndarray, queued: np.ndarray, instants: np.ndarray, loop_us: int,
                 buffer_pkts: int) -> np.ndarray:
    """Fates of a batch of packets that reach the queue at ``arrive``
    (nondecreasing, in send order): each one's delivery instant, or -1 where
    the drop-tail buffer turns it away.

    ``queued`` holds the sorted deliveries of earlier kept packets, ending
    with the last one's; those before ``arrive[0]`` may be left out.
    ``instants`` are the loop's distinct opportunity offsets, sorted, in
    (0, loop_us], the last equal to ``loop_us``.

    A segment, the batch or the rest after a run of drops, takes its fates
    as if every packet were kept: up to two busy runs, packets that queue
    back to back inside one loop, take a slice of ``instants`` each, and the
    pass, which searches for every packet, the rest. Then one count of the
    queue each packet finds locates its first drop.
    """
    n = len(instants)
    queued = queued[queued.searchsorted(arrive[0]):]
    fates = []
    while True:
        # Opportunity i is instant i % n of loop i // n. A busy run takes the
        # instants from the first opportunity at or after its first arrival
        # and the last delivery + 1 to the loop's end or the first packet that
        # arrives after its slot (never the first: argmax 0 means none does).
        t = max(int(arrive[0]), int(queued[-1]) + 1) if len(queued) else int(arrive[0])
        rest = arrive
        runs = []
        for _ in range(2):  # one run, or a head, an idle gap and one more
            loops, rem = divmod(t - 1, loop_us)
            r = int(instants.searchsorted(rem + 1))
            busy = instants[r:r + len(rest)] + loops * loop_us
            b = int((rest[:len(busy)] > busy).argmax()) or len(busy)
            runs.append(busy[:b])
            if b == len(rest):
                break
            rest = rest[b:]
            t = max(int(rest[0]), int(busy[b - 1]) + 1)
        else:
            # The pass: Lindley's recursion in index space. With g_k the first
            # opportunity at or after arrival k, j_k = max(g_k, j_{k-1} + 1),
            # so j_k - k is a running maximum; j_0 follows the last run.
            cursor = loops * n + r + b
            loops, rem = np.divmod(rest - 1, loop_us)
            j = instants.searchsorted(rem + 1)
            j += loops * n
            step = np.arange(len(j))
            j -= step
            if j[0] < cursor:
                j[0] = cursor
            np.maximum.accumulate(j, out=j)
            j += step
            loops, rem = np.divmod(j, n)
            runs.append(loops * loop_us + instants[rem])
        d = np.concatenate(runs) if len(runs) > 1 else runs[0]
        if len(queued) + len(arrive) <= buffer_pkts:
            break
        # The queue each packet finds: the earlier kept packets not yet
        # delivered when it arrives (one leaving at that instant counts).
        kept = np.concatenate((queued, d))
        full = len(queued) + np.arange(len(arrive)) - kept.searchsorted(arrive) >= buffer_pkts
        f = int(full.argmax())
        if not full[f]:
            break
        # The first drop. The queue stays full until its next departure, so
        # every packet arriving by then is dropped too; the next segment
        # starts after that run of drops.
        kept = kept[:len(queued) + f]
        departure = kept[kept.searchsorted(arrive[f])]
        burst = int(arrive[f:].searchsorted(departure, side="right"))
        fates += d[:f], np.full(burst, -1, dtype=np.int64)
        f += burst
        if f == len(arrive):
            return np.concatenate(fates)
        arrive = arrive[f:]
        queued = kept[kept.searchsorted(arrive[0]):]
    return np.concatenate((*fates, d)) if fates else d


def take_acks(f: _FlowState, ts: np.ndarray, seqs: np.ndarray, rtts: np.ndarray,
              lo: int, hi: int, sends: np.ndarray, trail: list[tuple[int, float]]) -> None:
    """Flow ``f`` takes its acks ``lo`` to ``hi - 1``, at least one, in one
    call: the acks at times ``ts`` carrying sequence numbers ``seqs`` (int64
    arrays) and RTT samples ``rtts`` (a float64 array, in seconds), all its
    own, in order, with none of its other events among them. Single entries
    of ``ts`` and ``seqs`` are read with ``.item``, so the flow's state and
    the trail get Python ints. ``sends``, an int64 array indexed as ``ts``,
    holds 1 for each ack on entry; the call writes the count of each of its
    acks that sends another number of packets. Appends a ``(time, cwnd)``
    pair to ``trail`` for each cwnd sample. The guardian's running sum is
    folded into ``rtts[lo]``, which the call overwrites."""
    r = rtts[lo:hi]
    m = float(r.min())
    if m < f.min_rtt_s:
        f.min_rtt_s = m
    if f.guardian_active:
        # A left fold, as one ack at a time would add. cumsum adds in order,
        # so with the carried sum joined to the first term its last partial
        # sum is reduce(add, r, si_sum) bit for bit. Never ndarray.sum(),
        # which adds pairwise, or sum(), which compensates from Python 3.12:
        # the digests would depend on it.
        r[0] += f.si_sum
        f.si_sum = float(r.cumsum()[-1])
        f.si_n += hi - lo
    expected = f.next_expected
    inflight = f.inflight
    next_sample = f.next_cwnd_sample_us
    i = lo
    while i < hi:
        s = seqs.item(i)
        if s == expected:
            # A run of in-order acks; seqs[k] - k is constant along it and
            # never falls across a gap. (No duplicate is pending: every ack
            # after one is past it too.)
            e = hi
            if seqs.item(hi - 1) - s != hi - 1 - i:
                e = i + int((seqs[i:hi] - np.arange(hi - i)).searchsorted(s + 1))
            expected = seqs.item(e - 1) + 1
            while i < e:
                # The run is cut after an ack due a cwnd sample, so that the
                # sample reads the window there.
                j = e
                due = ts.item(e - 1) >= next_sample
                if due:
                    j = i + int(ts[i:e].searchsorted(next_sample)) + 1
                n = j - i
                w = math.trunc(f.cwnd)
                crossed = f.on_acks(n, w + 1.0)
                # The window only grows along the run, and floor(cwnd) after
                # an ack is w plus the crossings at or before it. Each ack
                # frees the place of one packet in flight and sends once
                # floor(cwnd) is above the packets left in flight.
                k = inflight - w
                b = 0
                if k > 0:
                    # A cut left k packets in flight above floor(cwnd): the
                    # first k acks only drain them, and send nothing. Each
                    # crossing among them ends the drain one ack sooner.
                    for c in crossed:
                        if c >= k:
                            break
                        k -= 1
                        b += 1
                    if k:
                        sends[i:i + min(k, n)] = 0
                elif k:
                    # floor(cwnd) is above the packets in flight: the first
                    # ack fills the gap too.
                    sends[i] = 1 - k
                # From then on the packets in flight are floor(cwnd), so each
                # ack sends one packet for the one it frees, as ``sends``
                # already holds, plus one per crossing at it.
                for c in crossed[b:]:
                    sends[i + c] += 1
                inflight = w + len(crossed) + max(k - n, 0)
                if due:
                    t = ts.item(j - 1)
                    trail.append((t, f.cwnd))
                    next_sample = t + _CWND_SAMPLE_US
                i = j
            continue
        # A duplicate ack: s is past the next expected number. (Below it is
        # impossible: per-flow delivery order is send order, and resync only
        # moves the expected number forward.)
        inflight -= 1
        dups = f.dup_count + 1
        if dups == 3:
            # Gap sequences [expected, s] minus the 3 delivered duplicates
            # are lost for good; free their window slots.
            inflight -= s - expected - 2
            expected = s + 1
            dups = 0
            f.on_loss()
        f.dup_count = dups
        cwnd = f.cwnd
        t = ts.item(i)
        if t >= next_sample:
            trail.append((t, cwnd))
            next_sample = t + _CWND_SAMPLE_US
        k = max(int(cwnd) - inflight, 0)
        inflight += k
        sends[i] = k
        i += 1
    f.next_expected = expected
    f.inflight = inflight
    f.next_cwnd_sample_us = next_sample


def ledger_capacity(config: SimConfig) -> int:
    """Packets the ledgers of a run of ``config`` hold when the run starts:
    the trace's delivery opportunities up to the horizon plus each flow's
    initial window, at most ``_MAX_LEDGER_START``. Drops can take a run past
    it; the ledgers then double."""
    duration_us = round(config.duration_s * US_PER_S)
    n = config.schedule.opportunities_until(duration_us)
    n += sum(int(f.cwnd_init) for f in config.flows)
    return min(n, _MAX_LEDGER_START)


def run_sim(config: SimConfig) -> SimLog:
    """Run one simulation to completion and return its log."""
    config.validate()
    schedule: TraceSchedule = config.schedule
    duration_us = round(config.duration_s * US_PER_S)
    owd_us = round(config.one_way_delay_s * US_PER_S)
    buffer_pkts = config.buffer_pkts
    loop_us = schedule.loop_length_us
    # The loop's distinct instants (see the module docstring), sharing the
    # schedule's memory when none repeats.
    instants = schedule.offsets_us()
    if len(instants) > 1 and (instants[1:] == instants[:-1]).any():
        instants = np.unique(instants)

    flows = [
        _FlowState(spec, random.Random(config.seed * 1_000_003 + i))
        for i, spec in enumerate(config.flows)
    ]

    # The packet ledgers, indexed by global packet id: the int16 flow ledger,
    # and one int64 table whose rows are the other rows of each window's
    # batch (delivery, send time, sequence number). Sized once from the
    # trace, they double only when a window's packets do not fit. SimLog
    # gets views of their first n_sent columns; p_dropped is built at the
    # end.
    cap = ledger_capacity(config)
    ledgers = np.empty((3, cap), dtype=np.int64)
    p_flow = np.empty(cap, dtype=np.int16)

    # The tick trail, one row per tick in SimLog's tick_* order.
    ticks: list[tuple] = []
    # The cwnd trail, sorted when the run ends: samples taken at heap events
    # as (time, 0, flow, cwnd), and each flow's samples taken at acks as
    # (time, cwnd).
    heap_trail: list[tuple[int, int, int, float]] = []
    trails: list[list[tuple[int, float]]] = [[] for _ in flows]

    n_sent = 0
    # Kept packets not yet acked, in send order; rows: flow, delivery, send
    # time, sequence number.
    pending = np.empty((4, 0), dtype=np.int64)
    next_seq = np.zeros(len(flows), dtype=np.int64)

    # Ticks and starts, over a stop entry just past the horizon, keyed
    # (due, scheduled at, sequence number).
    heap = [(duration_us + 1, -1, -1, _STOP, -1)]
    for fi, f in enumerate(flows):
        heappush(heap, (round(f.spec.start_s * US_PER_S), -1, fi, _START, fi))
    eseq = 0
    n_flows = len(flows)
    # Guarded flows whose guardian has not started yet.
    awaiting = [fi for fi, f in enumerate(flows) if f.guardian is not None]

    # Windows until the one in which the stop entry comes up.
    kind = _START
    while kind != _STOP:
        # Open a window at the next event. It ends when the first ack of a
        # packet sent in it could come: 2 x delay later, or a delay after
        # the last kept packet's delivery, if later. That is the last
        # pending one; with none pending, every kept packet was acked before
        # w0. Its acks are the kept packets delivered before its end minus
        # the delay, up to the horizon.
        w0 = heap[0][0]
        w_end = 0
        if pending.shape[1]:
            w0 = min(w0, int(pending[1, 0]) + owd_us)
            w_end = int(pending[1, -1]) + 1 + owd_us
        w_end = max(w0 + 2 * owd_us, w_end)
        n_acks = int(pending[1].searchsorted(min(w_end, duration_us + 1) - owd_us))
        # Packets acked in this window may still be queued when its sends
        # arrive.
        queued = pending[1]
        due = pending[:, :n_acks]
        pending = pending[:, n_acks:]
        # The acks grouped by flow, each flow's in window order: flow fi's
        # are [cursor[fi], ends[fi]) of the arrays ack_t (times), seqs, rtts
        # and sends. take_acks writes each ack's send count that is not 1
        # into sends.
        ends = [n_acks] * n_flows
        ack_t = seqs = rtts = sends = None
        if n_acks:
            grouped = due
            if n_flows > 1:
                grouped = due.take(due[0].argsort(kind="stable"), axis=1)
                ends = np.bincount(due[0], minlength=n_flows).cumsum().tolist()
            ack_t = grouped[1] + owd_us
            seqs = grouped[3]
            rtts = (ack_t - grouped[2]) * 1e-6
            sends = np.ones(n_acks, np.int64)
        cursor = [0, *ends[:-1]]

        # A flow awaiting its guardian takes its acks one at a time, up to
        # the one that starts it, which schedules the first tick.
        for fi in list(awaiting):
            f = flows[fi]
            c = cursor[fi]
            while c < ends[fi]:
                take_acks(f, ack_t, seqs, rtts, c, c + 1, sends, trails[fi])
                c += 1
                if f.phase == AVOIDANCE:
                    awaiting.remove(fi)
                    f.guardian_active = True
                    t = ack_t.item(c - 1)
                    t_next = t + round(f.min_rtt_s * US_PER_S)
                    if t_next <= duration_us:
                        heappush(heap, (t_next, t, _NEVER, _TICK, fi))
                    break
            cursor[fi] = c

        # The heap events, in order. Between two of them an ack changes only
        # its own flow, so a flow takes its acks before each of its own heap
        # events, and every flow takes the rest when the window closes.
        heap_events: list[tuple[int, int, int]] = []  # (flow, sends, time)
        while heap[0][0] < w_end:
            t, _, _, kind, fi = heappop(heap)
            if kind == _STOP:
                break
            f = flows[fi]
            c = cursor[fi]
            if c < ends[fi] and ack_t.item(c) < t:
                cursor[fi] = c + int(ack_t[c:ends[fi]].searchsorted(t))
                take_acks(f, ack_t, seqs, rtts, c, cursor[fi], sends, trails[fi])
            if kind == _TICK:
                mean_delay = f.si_sum / f.si_n if f.si_n else math.nan
                f.si_sum = 0.0
                f.si_n = 0
                action = f.guardian.tick(mean_delay, t * 1e-6, f.min_rtt_s)
                if action.multiplier != 1.0:
                    f.cwnd *= action.multiplier
                    f.clamp()
                ticks.append((t, fi, *action, f.cwnd))
                t_next = t + round(f.min_rtt_s * US_PER_S)
                if t_next <= duration_us:
                    heappush(heap, (t_next, t, eseq, _TICK, fi))
                    eseq += 1
            # The flow's cwnd trail, then sends up to the window.
            cwnd = f.cwnd
            if t >= f.next_cwnd_sample_us:
                heap_trail.append((t, 0, fi, cwnd))
                f.next_cwnd_sample_us = t + _CWND_SAMPLE_US
            k = int(cwnd) - f.inflight
            if k > 0:
                f.inflight += k
                heap_events.append((fi, k, t))

        # Close the window: every flow takes the rest of its acks.
        for fi in range(n_flows):
            if cursor[fi] < ends[fi]:
                take_acks(flows[fi], ack_t, seqs, rtts, cursor[fi], ends[fi], sends, trails[fi])

        # The fates of its sends, in send order. Each event's packets leave
        # at its time and belong to its flow; the rows of `ev` are those of
        # `pending`, the time and flow filled in from the heap events that
        # send, as they ran, then from the acks, grouped by flow as `sends`
        # counts them. The stable sort by time puts a heap event before an
        # ack at its time; no two acks share one. Row 1 holds each event's
        # send count until the fates replace it.
        n_heap = len(heap_events)
        ev = np.empty((4, n_heap + n_acks), dtype=np.int64)
        if heap_events:
            ev[:3, :n_heap] = np.array(heap_events, dtype=np.int64).T
        if n_acks:
            ev[0, n_heap:] = grouped[0]
            ev[1, n_heap:] = sends
            ev[2, n_heap:] = ack_t
        ev = ev.take(ev[2].argsort(kind="stable"), axis=1)
        batch = ev.repeat(ev[1], axis=1)
        if batch.shape[1]:
            flow, dlv, sent, seq = batch
            # Each flow's sequence numbers go on from its last send: a
            # packet's place among the window's packets sorted by flow, less
            # its flow's first place there, plus the flow's next number.
            if n_flows == 1:
                seq[:] = np.arange(next_seq[0], next_seq[0] + len(seq))
                next_seq[0] += len(seq)
            else:
                per_flow = np.bincount(flow, minlength=n_flows)
                seq[flow.argsort(kind="stable")] = np.arange(len(flow))
                seq += (next_seq + per_flow - per_flow.cumsum())[flow]
                next_seq += per_flow
            dlv[:] = window_fates(sent + owd_us, queued, instants, loop_us, buffer_pkts)
            m = n_sent + len(sent)
            if m > cap:
                cap = max(2 * cap, m)
                grown = np.empty((3, cap), dtype=np.int64)
                grown[:, :n_sent] = ledgers[:, :n_sent]
                grown_flow = np.empty(cap, dtype=np.int16)
                grown_flow[:n_sent] = p_flow[:n_sent]
                ledgers, p_flow = grown, grown_flow
            ledgers[:, n_sent:m] = batch[1:]
            p_flow[n_sent:m] = flow
            n_sent = m
            if dlv.min() < 0:
                batch = batch.compress(dlv >= 0, axis=1)
            if batch.shape[1]:
                pending = np.concatenate((pending, batch), axis=1)

    # The cwnd samples in event order. Windows do not overlap in time, so
    # one sort by (time, heap event before ack) puts every window's samples
    # in its own order.
    samples = heap_trail + [(t, 1, fi, c) for fi in range(n_flows) for t, c in trails[fi]]
    samples.sort(key=itemgetter(0, 1))
    cwnd_t, _, cwnd_flow, cwnd_val = _columns(samples, 4)
    (tick_t, tick_flow, tick_zone, tick_mult, tick_mean, tick_delay, tick_thresh,
     tick_cwnd) = _columns(ticks, 8)

    # End of run. Deliveries after the horizon did not happen. The last one
    # that did (at -1 if none did) took in every packet that had arrived by
    # then; the rest are still in flight, and a drop counts only among the
    # packets taken in.
    dlv, sent, p_seq = ledgers[:, :n_sent]
    turned_away = dlv < 0
    late = dlv > duration_us
    dlv[late] = -1
    n_delivered = n_sent - int(np.count_nonzero(turned_away)) - int(np.count_nonzero(late))
    last = int(dlv.max()) if n_sent else -1
    n_taken = int(sent.searchsorted(last - owd_us, side="right"))
    dropped = np.full(n_sent, -1, dtype=np.int64)
    turned_away = turned_away[:n_taken]
    dropped[:n_taken][turned_away] = sent[:n_taken][turned_away] + owd_us
    n_dropped = int(np.count_nonzero(turned_away))

    log = SimLog(
        config=config,
        flow_ids=[f.spec.flow_id for f in flows],
        p_flow=p_flow[:n_sent],
        p_seq=p_seq,
        p_sent_us=sent,
        p_delivered_us=dlv,
        p_dropped_us=dropped,
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
    )
    log.check_conservation()
    return log
