"""Property tests of the simulator: the invariants every run must keep,
checked on random small configurations.

Traces mix bursts, silences and very short loops; buffers range from one
packet to unbounded; one to four flows of either controller start at
staggered times; the one-way delay runs from 1 us to 10 ms. Every invariant
is checked from the returned ledgers, not from the simulator's own counters
alone. The window fate step, ``window_fates``, is checked against the
one-packet-at-a-time rule it replaces, and the per-flow ack step,
``take_acks``, against the one-ack-at-a-time body it replaces. The window
watermark derived from a run's log, ``metrics.first_cwnd_reaching``, is
checked against the tick and cwnd trails, and ``metrics.summarize`` and
``metrics.timeseries`` against the sort-based, mask-per-flow code they
replace.
"""

import dataclasses
import random
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, groupby
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccguard.guardian import GuardianConfig, Zone
from ccguard.metrics import (
    TIMESERIES_COLUMNS, FlowMetrics, MetricsSummary, bin_count, first_cwnd_reaching, jain_index,
    summarize, timeseries,
)
from ccguard.netsim import (
    INFINITE_BUFFER, FlowSpec, SimConfig, US_PER_S, _FlowState, run_sim, take_acks,
    window_fates,
)
from ccguard.traces import TraceSchedule, capacity_delivered


@st.composite
def schedules(draw):
    """A looping trace: each step is a gap in ms (silence when long) and a
    burst of opportunities landing on that millisecond."""
    steps = draw(st.lists(
        st.tuples(st.integers(1, 30), st.integers(0, 12)), min_size=1, max_size=12,
    ))
    timestamps = []
    ms = 0
    for gap, burst in steps:
        ms += gap
        timestamps += [ms] * burst
    if not timestamps or timestamps[-1] != ms:
        timestamps.append(ms)
    return TraceSchedule(timestamps)


@st.composite
def flow_specs(draw, flow_id):
    floor = draw(st.sampled_from([1.0, 2.0, 4.0]))
    guarded = draw(st.booleans())
    guardian = GuardianConfig()
    if guarded:
        fixed = draw(st.sampled_from([None, 0.002, 0.030]))
        guardian = GuardianConfig(
            threshold_multiplier=None if fixed else draw(st.sampled_from([1.2, 1.5, 3.0])),
            threshold_fixed_s=fixed,
            exploration=draw(st.sampled_from(["stochastic", "deterministic", "off"])),
        )
    cwnd_init = floor + draw(st.integers(0, 40))
    return FlowSpec(
        flow_id=flow_id,
        controller="guarded" if guarded else "aimd",
        start_s=draw(st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.25])),
        cwnd_init=cwnd_init,
        cwnd_floor=floor,
        # cwnd_init starts the flow in congestion avoidance.
        ssthresh_init=draw(st.sampled_from([4.0, 64.0, 1e9, cwnd_init])),
        guardian=guardian,
    )


@st.composite
def sim_configs(draw):
    n_flows = draw(st.integers(1, 4))
    return SimConfig(
        schedule=draw(schedules()),
        duration_s=draw(st.sampled_from([0.05, 0.2, 0.5])),
        one_way_delay_s=draw(st.sampled_from([1, 500, 3_000, 10_000])) / US_PER_S,
        buffer_pkts=draw(st.one_of(st.integers(1, 40), st.just(INFINITE_BUFFER))),
        seed=draw(st.integers(0, 1000)),
        flows=[draw(flow_specs(f"f{i}")) for i in range(n_flows)],
    )


def check_invariants(cfg, log):
    owd = round(cfg.one_way_delay_s * US_PER_S)
    horizon = round(cfg.duration_s * US_PER_S)
    sched = cfg.schedule
    n = log.n_sent
    sent, dlv, drop = log.p_sent_us, log.p_delivered_us, log.p_dropped_us
    assert len(log.p_flow) == len(log.p_seq) == len(sent) == len(dlv) == len(drop) == n

    # Packet conservation, from the ledgers.
    delivered = [p for p in range(n) if dlv[p] >= 0]
    dropped = [p for p in range(n) if drop[p] >= 0]
    pending = [p for p in range(n) if dlv[p] < 0 and drop[p] < 0]
    assert not set(delivered) & set(dropped)
    assert len(delivered) == log.n_delivered
    assert len(dropped) == log.n_dropped
    assert len(pending) == log.n_in_queue + log.n_in_flight
    log.check_conservation()

    # Per flow: sequence numbers count up in send order, and delivery
    # order is send order.
    last_seq = {}
    last_dlv = {}
    for p in range(n):
        fi = log.p_flow[p]
        assert log.p_seq[p] == last_seq.get(fi, -1) + 1
        last_seq[fi] = log.p_seq[p]
        if dlv[p] >= 0:
            assert dlv[p] > last_dlv.get(fi, -1)
            last_dlv[fi] = dlv[p]
        assert sent[p] >= round(cfg.flows[fi].start_s * US_PER_S)

    # RTT >= 2 x OWD: a packet leaves the queue no earlier than it reached it.
    for p in delivered:
        assert dlv[p] - sent[p] >= owd
        assert dlv[p] <= horizon
    for p in dropped:
        assert drop[p] == sent[p] + owd
    for rtt in log.min_rtt_s:
        assert rtt >= 2 * cfg.one_way_delay_s - 1e-12

    # Deliveries land on opportunity instants, one per opportunity, and
    # never outnumber the trace's opportunities up to the horizon.
    times = sorted(dlv[p] for p in delivered)
    assert all(sched.next_opportunity(t) == t for t in times)
    assert all(a < b for a, b in zip(times, times[1:]))
    assert log.n_delivered <= capacity_delivered(sched, 0.0, (horizon + 1) / US_PER_S)

    # End-of-run split. The last delivery at or before the horizon took in
    # every packet that had reached the queue by then; nothing after it
    # did. So the queued packets, the earliest pending ones, and every drop
    # arrived by that delivery, and every packet still in flight arrives
    # after it.
    queued, in_flight = pending[: log.n_in_queue], pending[log.n_in_queue:]
    if delivered:
        last = max(dlv[p] for p in delivered)
        assert all(sent[p] + owd <= last for p in queued + dropped)
        assert all(sent[p] + owd > last for p in in_flight)
    else:
        assert not queued and not dropped

    # Queue length never above the buffer. Rebuild the queue from the
    # ledgers: the packets still queued at the end are the earliest pending
    # ones (the queue is fed in send order). Every packet arriving at an
    # opportunity instant is there before that opportunity is used, so the
    # count is exact at every event and a drop must find the queue full.
    absorbed = set(pending[: log.n_in_queue]) | set(delivered)
    events = [(sent[p] + owd, 0, p) for p in absorbed | set(dropped)]
    events += [(dlv[p], 1, p) for p in delivered]
    qlen = 0
    for _, same_instant in groupby(sorted(events), key=lambda e: e[0]):
        for _, is_delivery, p in same_instant:
            if is_delivery:
                qlen -= 1
            elif drop[p] < 0:
                qlen += 1
                assert qlen <= cfg.buffer_pkts
            else:
                assert qlen == cfg.buffer_pkts
        assert 0 <= qlen <= cfg.buffer_pkts
    assert qlen == log.n_in_queue

    # cwnd never below the floor, at ticks or in the coarse trail.
    for fi, c in zip(log.tick_flow, log.tick_cwnd):
        assert c >= cfg.flows[fi].cwnd_floor
    for fi, c in zip(log.cwnd_flow, log.cwnd_val):
        assert c >= cfg.flows[fi].cwnd_floor


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sim_configs())
def test_simulator_invariants_hold(cfg):
    check_invariants(cfg, run_sim(cfg))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sim_configs(), st.sampled_from([0.0, 0.5, 2.25, 7.5, 30.0]))
def test_first_cwnd_reaching_agrees_with_the_trails(cfg, margin):
    # For a target ``margin`` above each flow's initial window: no tick and
    # no cwnd sample of the flow before the instant returned (before the
    # horizon, for -1) reaches it, and only a flow that dropped a packet may
    # be left without an answer.
    log = run_sim(cfg)
    for fi in range(len(cfg.flows)):
        target = cfg.flows[fi].cwnd_init + margin
        try:
            t = first_cwnd_reaching(log, fi, target)
        except ValueError:
            assert (log.p_dropped_us[log.p_flow == fi] >= 0).any()
            continue
        if t < 0:
            t = round(cfg.duration_s * US_PER_S) + 1
        trails = ((log.tick_t_us, log.tick_flow, log.tick_cwnd),
                  (log.cwnd_t_us, log.cwnd_flow, log.cwnd_val))
        for times, flows, cwnds in trails:
            assert all(c < target for ts, f, c in zip(times, flows, cwnds) if f == fi and ts < t)


def reference_fates(arrive, queued, last, offsets, loop_us, buffer_pkts):
    """The per-packet rule, one packet at a time: a packet is dropped when
    the earlier kept packets not yet delivered at its arrival fill the
    buffer; otherwise it leaves at the first opportunity at or after both its
    arrival and the previous kept packet's delivery + 1."""
    kept = list(queued)
    fates = []
    for a in arrive:
        if sum(d >= a for d in kept) >= buffer_pkts:
            fates.append(-1)
            continue
        loops, rem = divmod(max(a, last + 1) - 1, loop_us)
        last = loops * loop_us + offsets[bisect_left(offsets, rem + 1)]
        kept.append(last)
        fates.append(last)
    return fates


@st.composite
def fate_batches(draw):
    """A loop whose offsets may repeat, arrivals in bursts of up to six, and
    the point where the batch begins. Short loops, with gaps of up to three
    loops, make most batches wrap. Long loops dense with instants, with gaps
    of up to a tenth of a loop and a start in any of the first three loops,
    keep most inside one loop, where packets queue back to back."""
    if draw(st.booleans()):
        loop_us = draw(st.integers(1_000, 20_000))
        offsets = draw(st.lists(st.integers(1, loop_us), min_size=20, max_size=200))
        max_gap = loop_us // 10
        t = 1 + draw(st.integers(0, 3 * loop_us))
    else:
        loop_us = draw(st.integers(1, 40))
        offsets = draw(st.lists(st.integers(1, loop_us), max_size=12))
        max_gap = 3 * loop_us
        t = 1
    offsets = sorted(offsets + [loop_us])
    bursts = draw(st.lists(st.tuples(st.integers(0, max_gap), st.integers(1, 6)),
                           min_size=1, max_size=16))
    arrive = []
    for gap, k in bursts:
        t += gap
        arrive += [t] * k
    split = draw(st.integers(0, len(arrive) - 1))
    # Buffers near the batch's size put the batch on the line between
    # fitting the buffer and having to count the queue each packet finds.
    size = len(arrive) - split
    buffer_pkts = draw(st.one_of(st.sampled_from([1, 1, 2, 2, 3, 5, INFINITE_BUFFER]),
                                 st.integers(max(1, size - 4), size + 1)))
    return loop_us, offsets, arrive, split, buffer_pkts


class Instants(np.ndarray):
    """A loop's instants that note the rank of each search made in them once
    ``searches`` is set: 0 for one scalar, 1 for an array of them. Arrays
    made from them note nothing."""

    searches = None

    def searchsorted(self, v, side="left", sorter=None):
        if self.searches is not None:
            self.searches.append(np.ndim(v))
        return self.view(np.ndarray).searchsorted(v, side, sorter)


def busy_runs(fates, offsets, loop_us):
    """How many busy runs ``fates``, none a drop, make. A busy run is a
    stretch of packets that queue back to back inside one loop: they take
    consecutive distinct instants of it."""
    distinct = sorted(set(offsets))
    slots = [((d - 1) // loop_us, bisect_left(distinct, (d - 1) % loop_us + 1)) for d in fates]
    return 1 + sum(loop != prev_loop or rank != prev_rank + 1
                   for (prev_loop, prev_rank), (loop, rank) in zip(slots, slots[1:]))


def fates_both_ways(loop_us, offsets, arrive, split, buffer_pkts):
    """The batch from ``split`` on, by the per-packet rule and by
    ``window_fates`` given the state the packets before it left. Checks that
    ``window_fates`` searched the instants per packet exactly when some
    segment needs the pass. A segment starts at the batch's start or at the
    first packet after a run of drops, and needs the pass when the rest of
    the batch from there, taken as all kept after the kept packets before
    it, makes more than two busy runs."""
    before = reference_fates(arrive[:split], [], 0, offsets, loop_us, buffer_pkts)
    queued = [d for d in before if d >= 0]
    last = queued[-1] if queued else 0
    batch = arrive[split:]
    expected = reference_fates(batch, queued, last, offsets, loop_us, buffer_pkts)
    instants = np.unique(offsets).view(Instants)
    instants.searches = []
    got = window_fates(
        np.array(batch, dtype=np.int64), np.array(queued, dtype=np.int64), instants, loop_us,
        buffer_pkts,
    )
    starts = [0] + [k for k in range(1, len(batch)) if expected[k - 1] < 0 <= expected[k]]
    needs_pass = False
    for k in starts:
        kept = queued + [d for d in expected[:k] if d >= 0]
        all_kept = reference_fates(batch[k:], kept, kept[-1] if kept else 0, offsets, loop_us,
                                   INFINITE_BUFFER)
        needs_pass |= busy_runs(all_kept, offsets, loop_us) > 2
    assert (max(instants.searches) == 1) == needs_pass
    return got.tolist(), expected


@settings(max_examples=600, deadline=None, derandomize=True)
@given(fate_batches())
def test_window_fates_match_the_per_packet_rule(case):
    got, expected = fates_both_ways(*case)
    assert got == expected


# One instant every 10 us in a 100 us loop. Each case: the arrivals, where the
# batch begins, the buffer, and its fates.
TENS = list(range(10, 101, 10))
BUSY_EDGES = {
    "busy to the last packet": ([1] * 5, 0, INFINITE_BUFFER, TENS[:5]),
    "arrivals on their own slots": ([10, 10, 20, 30], 0, INFINITE_BUFFER, TENS[:4]),
    "first arrival on its slot, then idle": ([10, 10, 45], 0, INFINITE_BUFFER, [10, 20, 50]),
    "busy, idle, then busy again": ([1, 1, 1, 65, 65], 0, INFINITE_BUFFER, [10, 20, 30, 70, 80]),
    "three busy runs": ([1, 35, 65], 0, INFINITE_BUFFER, [10, 40, 70]),
    "first slot after the last delivery": ([1, 1, 1, 15, 15], 3, INFINITE_BUFFER, [40, 50]),
    "first slot at the first arrival": ([1, 35, 35, 36], 1, INFINITE_BUFFER, [40, 50, 60]),
    "last packet on the loop's last instant": ([1] * 10, 0, INFINITE_BUFFER, TENS),
    "one packet more wraps": ([1] * 11, 0, INFINITE_BUFFER, TENS + [110]),
    "batch fills the buffer": ([1] * 5, 0, 5, TENS[:5]),
    "queue and batch fill the buffer": ([1, 1, 5, 5, 5], 2, 5, [30, 40, 50]),
    "one over the buffer, never full": ([1, 1, 1, 1, 15], 0, 4, TENS[:5]),
    "one over the buffer, full": ([1] * 5, 0, 4, [10, 20, 30, 40, -1]),
    "queue and batch one over, never full": ([1, 1, 5, 5, 15], 2, 4, [30, 40, 50]),
    "queue and batch one over, full": ([1, 1, 5, 5, 5], 2, 4, [30, 40, -1]),
    # The packet after the loop's end finds 7 of the first run's queued.
    "over the buffer, wraps, never full": ([1] * 7 + [35] * 4, 0, 8, TENS + [110]),
    "over the buffer, wraps, full": ([1] * 7 + [35] * 4, 0, 7, TENS + [-1]),
    # The next segment starts after the last delivery, at 30.
    "a drop, then one busy run to the end": ([1, 1, 1, 15, 25], 0, 2, [10, 20, -1, 30, 40]),
    # Taken as all kept, the batch is one busy run; after the drops, three.
    "a drop, then three busy runs":
        ([1] * 5 + [35, 55, 75], 0, 2, [10, 20] + [-1] * 3 + [40, 60, 80]),
    "first packet dropped, then the queue empties": ([1, 1, 1, 45, 45], 2, 2, [-1, 50, 60]),
    "one packet": ([1], 0, INFINITE_BUFFER, [10]),
    "one packet after the last delivery": ([1, 1], 1, INFINITE_BUFFER, [20]),
}


@pytest.mark.parametrize("case", BUSY_EDGES.values(), ids=BUSY_EDGES.keys())
def test_window_fates_on_the_edges_of_a_busy_run(case):
    arrive, split, buffer_pkts, fates = case
    got, expected = fates_both_ways(100, TENS, arrive, split, buffer_pkts)
    assert got == expected == fates


def test_window_fates_with_several_drop_runs():
    # Bursts of six into a 2-packet buffer, one opportunity per 10 us, the
    # batch starting inside the first run of drops. The bursts at 20 and 30
    # us arrive as the queue's head leaves, which still counts as queued, so
    # each keeps one packet and drops five.
    arrive = [5] * 6 + [20] * 6 + [30] * 6 + [100] * 3
    got, expected = fates_both_ways(10, [10], arrive, 3, 2)
    assert got == expected == [-1] * 3 + [30] + [-1] * 5 + [40] + [-1] * 5 + [100, 110, -1]


def reference_acks(f, acks, sends, trail):
    """The per-ack body that ``take_acks`` replaces, one ack at a time."""
    for t, s, rtt in acks:
        if rtt < f.min_rtt_s:
            f.min_rtt_s = rtt
        if f.guardian_active:
            f.si_sum += rtt
            f.si_n += 1
        if s == f.next_expected:
            f.next_expected, f.dup_count, f.inflight = s + 1, 0, f.inflight - 1
            f.on_ack()
        elif s > f.next_expected:
            f.dup_count, f.inflight = f.dup_count + 1, f.inflight - 1
            if f.dup_count == 3:
                f.inflight -= s - f.next_expected - 2
                f.next_expected, f.dup_count = s + 1, 0
                f.on_loss()
        if t >= f.next_cwnd_sample_us:
            trail.append((t, f.cwnd))
            f.next_cwnd_sample_us = t + 100_000
        k = int(f.cwnd) - f.inflight
        f.inflight += max(k, 0)
        sends.append(max(k, 0))


FLOW_FIELDS = ("cwnd", "ssthresh", "phase", "inflight", "next_expected", "dup_count",
               "min_rtt_s", "si_sum", "si_n", "next_cwnd_sample_us")


@st.composite
def ack_batches(draw):
    """One flow's acks: sequence numbers with gaps (so duplicate-ack episodes
    that may fire a loss), times spanning several cwnd samples, arbitrary
    microsecond RTTs, and a window that may start below the packets in
    flight, as after a cut, just below an integer, or large enough that
    avoidance rarely crosses one; a guardian's RTT sum carried in from
    earlier acks; plus the points where the acks are split into calls."""
    n = draw(st.integers(1, 150))
    gaps = draw(st.lists(st.sampled_from([1] * 12 + [2, 3, 7]), min_size=n, max_size=n))
    steps = draw(st.lists(st.sampled_from([1, 3, 250, 9_000, 31_000]), min_size=n, max_size=n))
    rtts = [us * 1e-6 for us in draw(st.lists(st.integers(2, 2_000_000), min_size=n, max_size=n))]
    acks = list(zip(accumulate(steps), [s - 1 for s in accumulate(gaps)], rtts))
    cwnd = draw(st.sampled_from([1.0, 2.0, 5.5, 30.0, 61.7, 9.999999999, 1e4]))
    state = dict(
        cwnd=cwnd, floor=draw(st.sampled_from([1.0, 2.0])),
        ssthresh=cwnd + draw(st.sampled_from([-1.0, 0.0, 3.0, 12.5, 200.0])),
        phase=draw(st.integers(0, 1)), guardian_active=draw(st.booleans()),
        inflight=int(cwnd) + draw(st.sampled_from([0, 0, 1, 5, 40])),
        next_cwnd_sample_us=draw(st.sampled_from([0, 30_000, 10**9])),
        min_rtt_s=draw(st.sampled_from([float("inf"), 0.0199])),
        si_sum=draw(st.floats(0.0, 1e3)),
    )
    cuts = sorted(draw(st.lists(st.integers(1, len(acks)), max_size=6)))
    return acks, state, cuts


def flow_state(state):
    f = _FlowState(FlowSpec(controller="aimd"), random.Random(0))
    for name, value in state.items():
        setattr(f, name, value)
    return f


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ack_batches())
def test_take_acks_matches_the_per_ack_body(case):
    acks, state, cuts = case
    ref, got = flow_state(state), flow_state(state)
    ref_sends, ref_trail = [], []
    reference_acks(ref, acks, ref_sends, ref_trail)
    ts, seqs, rtts = zip(*acks)
    ts, seqs, rtts = np.array(ts, np.int64), np.array(seqs, np.int64), np.array(rtts)
    sends, trail = np.ones(len(acks), np.int64), []
    for lo, hi in zip([0] + cuts, cuts + [len(acks)]):
        if hi > lo:
            take_acks(got, ts, seqs, rtts, lo, hi, sends, trail)
    assert (sends.tolist(), trail) == (ref_sends, ref_trail)
    assert all(type(t) is int and type(c) is float for t, c in trail)
    assert [getattr(got, k) for k in FLOW_FIELDS] == [getattr(ref, k) for k in FLOW_FIELDS]
    # Python scalars, as the per-ack body leaves them: the log's reprs are hashed.
    assert [type(getattr(got, k)) for k in FLOW_FIELDS] == [type(getattr(ref, k))
                                                             for k in FLOW_FIELDS]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=400), st.floats(0.0, 1e6))
def test_carry_joined_cumsum_is_the_left_fold(terms, carry):
    # take_acks folds a flow's RTT samples into the guardian's running sum
    # with one cumsum, the carried sum joined to the first term. That is the
    # left fold one ack at a time would make only while numpy's accumulate
    # adds in order; ndarray.sum(), which adds pairwise, fails this.
    r = np.array(terms)
    r[0] += carry
    assert float(r.cumsum()[-1]) == reduce(add, terms, carry)


def sorted_rank(values, p):
    """The nearest-rank percentile by a full sort: the ceil(p n / 100)-th
    smallest value, for integer p."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    return float(arr[-(-p * arr.size // 100) - 1])


def mask_per_flow_summary(log, warmup_s, end_s):
    """``metrics.summarize`` as written before selection and counting: a full
    sort per percentile, and a mask per flow for its counts and delays."""
    cfg = log.config
    last_per_flow = dict(zip(log.tick_flow, log.tick_threshold_s))
    threshold_s = last_per_flow.popitem()[1] if len(set(last_per_flow.values())) == 1 else None
    t1_s = cfg.duration_s if end_s is None else end_s
    t0_us, t1_us = round(warmup_s * US_PER_S), round(t1_s * US_PER_S)
    window_s = t1_s - warmup_s
    owd_us = round(cfg.one_way_delay_s * US_PER_S)
    flow, sent, delivered = log.p_flow, log.p_sent_us, log.p_delivered_us
    in_window = (delivered > t0_us) & (delivered <= t1_us)
    drop_window = (log.p_dropped_us > t0_us) & (log.p_dropped_us <= t1_us)
    rtt_s = (delivered[in_window] + owd_us - sent[in_window]) * 1e-6
    qdelay_s = rtt_s - 2.0 * cfg.one_way_delay_s
    flows_in_window = flow[in_window]
    capacity = capacity_delivered(cfg.schedule, warmup_s, t1_s)
    nan = float("nan")
    per_flow, tputs = [], []
    for fi, flow_id in enumerate(log.flow_ids):
        m = flows_in_window == fi
        n, nd = int(m.sum()), int((flow[drop_window] == fi).sum())
        tputs.append(n * 12_000.0 / window_s / 1e6)
        f_rtt, f_q = rtt_s[m], qdelay_s[m]
        per_flow.append(FlowMetrics(
            flow_id, n, nd, tputs[-1],
            float(f_rtt.mean()) if n else nan, sorted_rank(f_rtt, 95) if n else nan,
            float(f_q.mean()) if n else nan, sorted_rank(f_q, 95) if n else nan,
            nd / (n + nd) if (n + nd) else nan))
    n_total = int(in_window.sum())
    mean_rtt = float(rtt_s.mean()) if n_total else nan
    return MetricsSummary(
        warmup_s, t1_s, n_total == 0, n_total, int(drop_window.sum()),
        n_total * 12_000.0 / window_s / 1e6,
        (n_total / capacity) if capacity > 0 else nan,
        mean_rtt, sorted_rank(rtt_s, 95) if n_total else nan,
        float(qdelay_s.mean()) if n_total else nan,
        sorted_rank(qdelay_s, 95) if n_total else nan,
        (mean_rtt / threshold_s) if threshold_s else nan,
        jain_index(tputs) if any(t > 0.0 for t in tputs) else nan,
        per_flow)


def mask_per_flow_timeseries(log, bin_s):
    """``metrics.timeseries`` as written before one count over (flow, bin)
    keys: the delivered packets compressed out, then a mask and two
    bincounts per flow."""
    bin_us, cfg = round(bin_s * US_PER_S), log.config
    n_bins = bin_count(cfg.duration_s, bin_s)
    owd_us = round(cfg.one_way_delay_s * US_PER_S)
    t0 = np.arange(n_bins, dtype=np.int64) * bin_us
    t1 = np.minimum(t0 + bin_us, round(cfg.duration_s * US_PER_S))
    flow, sent, delivered = log.p_flow, log.p_sent_us, log.p_delivered_us
    mask = delivered >= 0
    d_us = delivered[mask]
    rtt_all = (d_us + owd_us - sent[mask]) * 1e-6
    flow_all = flow[mask]
    bin_idx = np.minimum((d_us - 1) // bin_us, n_bins - 1)
    tick_t = np.array([*log.tick_t_us, -1], dtype=np.int64)
    tick_flow = np.asarray(log.tick_flow, dtype=np.int16)
    tick_zone = np.array(log.tick_zone, dtype=str)
    tick_mult = np.asarray(log.tick_multiplier, dtype=np.float64)
    tick_mean = np.array([*log.tick_mean, float("nan")])
    cwnd_t = np.asarray(log.cwnd_t_us, dtype=np.int64)
    cwnd_flow = np.asarray(log.cwnd_flow, dtype=np.int16)
    cwnd_val = np.array([*log.cwnd_val, float("nan")])
    widths = {"flow_id": max(map(len, log.flow_ids), default=1),
              "zone": max(len(z.value) for z in Zone)}
    rows = np.zeros(len(log.flow_ids) * n_bins, dtype=[
        (c, f"U{widths[c]}" if c in widths else np.float64) for c in TIMESERIES_COLUMNS])
    for fi, flow_id in enumerate(log.flow_ids):
        fm = flow_all == fi
        counts = np.bincount(bin_idx[fm], minlength=n_bins).astype(np.float64)
        rtt_sums = np.bincount(bin_idx[fm], weights=rtt_all[fm], minlength=n_bins)
        f_tick = np.append(np.nonzero(tick_flow == fi)[0], -1)
        k = f_tick[np.searchsorted(tick_t[f_tick[:-1]], t1, side="right") - 1]
        in_bin = tick_t[k] > t0
        f_cwnd = np.append(np.nonzero(cwnd_flow == fi)[0], -1)
        c = f_cwnd[np.searchsorted(cwnd_t[f_cwnd[:-1]], t1, side="right") - 1]
        r = rows[fi * n_bins:(fi + 1) * n_bins]
        r["t_s"] = t0 / US_PER_S
        r["flow_id"] = flow_id
        with np.errstate(divide="ignore", invalid="ignore"):
            rtt_avg = rtt_sums / counts
            r["throughput_mbps"] = counts * 12_000.0 / ((t1 - t0) / US_PER_S) / 1e6
        r["rtt_ms_avg"] = rtt_avg * 1e3
        r["queuing_delay_ms_avg"] = (rtt_avg - 2.0 * cfg.one_way_delay_s) * 1e3
        r["cwnd_pkts"] = cwnd_val[c]
        r["zone"][in_bin] = tick_zone[k[in_bin]]
        r["guardian_multiplier"] = 1.0
        r["guardian_multiplier"][in_bin] = tick_mult[k[in_bin]]
        r["mu"] = tick_mean[k]
    return rows


def hexed(value):
    """A summary dict with every float as its hex string, so == compares
    bits and nan equals nan."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [hexed(v) for v in value]
    return value


def check_analysis(cfg, warmup_frac, window_s, bin_s):
    """summarize and timeseries of one run against the references, bit for
    bit; returns the reference summary."""
    log = run_sim(cfg)
    warmup_s = warmup_frac * cfg.duration_s
    end_s = None if window_s is None else warmup_s + window_s
    want = mask_per_flow_summary(log, warmup_s, end_s)
    assert hexed(summarize(log, warmup_s, end_s).to_dict()) == hexed(want.to_dict())
    rows, ref = timeseries(log, bin_s), mask_per_flow_timeseries(log, bin_s)
    assert rows.dtype == ref.dtype
    assert rows.tobytes() == ref.tobytes()
    return want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sim_configs(), st.integers(0, 7), st.sampled_from([0.0, 0.3, 0.9]),
       st.sampled_from([None, 0.02]),
       st.sampled_from([0.0001, 0.001, 0.0137, 0.05, 1.0]))
def test_summary_and_timeseries_match_the_mask_per_flow_code(
        cfg, flows_kept, warmup_frac, window_s, bin_s):
    # About one draw in eight keeps no flows.
    if not flows_kept:
        cfg = dataclasses.replace(cfg, flows=[])
    check_analysis(cfg, warmup_frac, window_s, bin_s)


def analysis_case(flows, buffer_pkts=INFINITE_BUFFER, duration_s=0.2):
    return SimConfig(schedule=TraceSchedule([1, 1, 2, 4, 4, 4, 7]), duration_s=duration_s,
                     one_way_delay_s=0.002, buffer_pkts=buffer_pkts, seed=3, flows=flows)


# The shapes the random draws above must include, each pinned once.
@pytest.mark.parametrize("case", ["several flows with drops", "empty window", "no flows"])
def test_summary_and_timeseries_match_on_the_edge_cases(case):
    if case == "several flows with drops":
        cfg = analysis_case([FlowSpec(flow_id=f"f{i}", cwnd_init=20.0, start_s=0.01 * i)
                             for i in range(3)], buffer_pkts=4, duration_s=0.05)
        # 1 us bins: a never-delivered packet's slot, ceil(-1 / 1), is below 0.
        want = check_analysis(cfg, 0.1, None, 0.000_001)
        assert want.dropped > 0 and sum(f.delivered > 0 for f in want.flows) >= 2
        assert len({f.delivered for f in want.flows}) > 1
    elif case == "empty window":
        cfg = analysis_case([FlowSpec(start_s=0.15)])
        want = check_analysis(cfg, 0.1, 0.04, 0.05)
        assert want.empty and want.flows[0].delivered == 0
    else:
        want = check_analysis(analysis_case([]), 0.0, None, 0.001)
        assert want.empty and want.flows == []
