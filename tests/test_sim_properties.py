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
checked against the tick and cwnd trails.
"""

import random
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, groupby
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccguard.guardian import GuardianConfig
from ccguard.metrics import first_cwnd_reaching
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
    return TraceSchedule(timestamps, ms)


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
    return FlowSpec(
        flow_id=flow_id,
        controller="guarded" if guarded else "aimd",
        start_s=draw(st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.25])),
        cwnd_init=floor + draw(st.integers(0, 40)),
        cwnd_floor=floor,
        ssthresh_init=draw(st.sampled_from([4.0, 64.0, 1e9])),
        start_in_avoidance=draw(st.booleans()),
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
    """A short loop whose offsets may repeat, arrivals in bursts of up to six
    with gaps of up to three loops, and the point where the batch begins."""
    loop_us = draw(st.integers(1, 40))
    offsets = sorted(draw(st.lists(st.integers(1, loop_us), max_size=12)) + [loop_us])
    bursts = draw(st.lists(st.tuples(st.integers(0, 3 * loop_us), st.integers(1, 6)),
                           min_size=1, max_size=16))
    arrive = []
    t = 1
    for gap, k in bursts:
        t += gap
        arrive += [t] * k
    split = draw(st.integers(0, len(arrive) - 1))
    buffer_pkts = draw(st.sampled_from([1, 1, 2, 2, 3, 5, INFINITE_BUFFER]))
    return loop_us, offsets, arrive, split, buffer_pkts


def fates_both_ways(loop_us, offsets, arrive, split, buffer_pkts):
    """The batch from ``split`` on, by the per-packet rule and by
    ``window_fates`` given the state the packets before it left."""
    before = reference_fates(arrive[:split], [], 0, offsets, loop_us, buffer_pkts)
    queued = [d for d in before if d >= 0]
    last = queued[-1] if queued else 0
    expected = reference_fates(arrive[split:], queued, last, offsets, loop_us, buffer_pkts)
    got = window_fates(
        np.array(arrive[split:], dtype=np.int64), np.array(queued, dtype=np.int64), last,
        np.unique(offsets), loop_us, buffer_pkts,
    )
    return got.tolist(), expected


@settings(max_examples=400, deadline=None, derandomize=True)
@given(fate_batches())
def test_window_fates_match_the_per_packet_rule(case):
    got, expected = fates_both_ways(*case)
    assert got == expected


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
    ts, seqs, rtts = map(list, zip(*acks))
    rtts = np.array(rtts)
    sends, trail = np.ones(len(acks), np.int64), []
    for lo, hi in zip([0] + cuts, cuts + [len(acks)]):
        if hi > lo:
            take_acks(got, ts, seqs, rtts, lo, hi, sends, trail)
    assert (sends.tolist(), trail) == (ref_sends, ref_trail)
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
