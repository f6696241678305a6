"""Tests for the discrete-event bottleneck simulator: conservation, RTT
accounting, loss handling, determinism, and logging."""

import math
import os
import random
import resource
import subprocess
import sys

import numpy as np
import pytest

import ccguard
from ccguard.aimd import AVOIDANCE
from ccguard.guardian import GuardianConfig
from ccguard.metrics import first_cwnd_reaching, threshold_raised
from ccguard.netsim import (
    INFINITE_BUFFER,
    MAX_FLOWS,
    FlowSpec,
    SimConfig,
    SimulationError,
    _FlowState,
    run_sim,
    take_acks,
)
from ccguard.traces import TraceSchedule, synth_constant
from test_golden import log_digest

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ccguard.__file__)))


def aimd_flow(**kw):
    return FlowSpec(controller="aimd", **kw)


def small_sim(**overrides):
    base = dict(
        schedule=synth_constant(12.0, 1.0),
        duration_s=5.0,
        one_way_delay_s=0.010,
        buffer_pkts=INFINITE_BUFFER,
        seed=1,
        flows=[FlowSpec()],
    )
    base.update(overrides)
    return SimConfig(**base)


def test_conservation_holds_and_counts_are_consistent():
    log = run_sim(small_sim())
    log.check_conservation()
    assert log.n_sent == len(log.p_sent_us)
    assert log.n_delivered + log.n_dropped + log.n_in_queue + log.n_in_flight == log.n_sent


@pytest.mark.parametrize("how", [
    "erase-delivery", "drop-pending", "move-drop-to-delivered", "shorten-ledger",
])
def test_conservation_check_catches_a_corrupted_ledger(how):
    log = run_sim(small_sim(duration_s=2.0, buffer_pkts=8,
                            flows=[FlowSpec(), aimd_flow(flow_id="b")]))
    dlv, drop = log.p_delivered_us, log.p_dropped_us
    delivered = next(p for p in range(log.n_sent) if dlv[p] >= 0)
    dropped = next(p for p in range(log.n_sent) if drop[p] >= 0)
    pending = next(p for p in range(log.n_sent) if dlv[p] < 0 and drop[p] < 0)
    if how == "erase-delivery":
        dlv[delivered] = -1
    elif how == "drop-pending":
        drop[pending] = log.p_sent_us[pending] + 10_000
    elif how == "move-drop-to-delivered":
        drop[delivered] = drop[dropped]
        drop[dropped] = -1
    else:
        log.p_seq = log.p_seq[:-1]
    with pytest.raises(SimulationError):
        log.check_conservation()


def test_zero_flows_yield_empty_log():
    log = run_sim(small_sim(flows=[]))
    assert log.n_sent == 0
    assert log.n_delivered == 0
    assert len(log.p_sent_us) == 0
    assert log.tick_t_us == []
    log.check_conservation()
    for name, dtype in [("p_flow", np.int16), ("p_seq", np.int64), ("p_sent_us", np.int64),
                        ("p_delivered_us", np.int64), ("p_dropped_us", np.int64)]:
        ledger = getattr(log, name)
        assert ledger.dtype == dtype and ledger.flags.c_contiguous and len(ledger) == 0, name


def test_a_long_horizon_reserves_bounded_ledgers():
    # 1e12 delivery opportunities before the horizon, and one flow that
    # starts 50 ms before it and sends 52 packets. Ledgers sized by the
    # trace alone would ask for tens of TiB; under a 1 GiB address-space
    # limit on the child process the run must still finish.
    script = (
        "from ccguard.netsim import FlowSpec, SimConfig, run_sim\n"
        "from ccguard.traces import from_spec\n"
        "log = run_sim(SimConfig(schedule=from_spec('constant:12@1'), duration_s=1e9,\n"
        "                        flows=[FlowSpec(start_s=1e9 - 0.05)]))\n"
        "print(log.n_sent)\n"
    )
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["52"]


def test_flow_count_fits_the_int16_flow_ledger():
    flows = [aimd_flow(flow_id=f"f{i}") for i in range(MAX_FLOWS + 1)]
    assert MAX_FLOWS == np.iinfo(np.int16).max
    small_sim(flows=flows[:-1]).validate()
    with pytest.raises(ValueError, match=f"at most {MAX_FLOWS}"):
        run_sim(small_sim(flows=flows))


def test_duplicate_flow_ids_rejected():
    cfg = small_sim(flows=[FlowSpec(flow_id="a"), FlowSpec(flow_id="a")])
    with pytest.raises(ValueError):
        run_sim(cfg)


def test_aimd_only_run_consumes_every_opportunity():
    # 12 Mbps for 10 s = 10000 opportunities; a deep-window loss-free AIMD
    # flow keeps the queue non-empty, so every opportunity delivers, minus
    # whatever is still in flight or queued at the horizon.
    cfg = small_sim(
        schedule=synth_constant(12.0, 10.0),
        duration_s=10.0,
        flows=[aimd_flow(cwnd_init=50.0, ssthresh_init=50.0)],
    )
    log = run_sim(cfg)
    assert log.n_dropped == 0
    # Opportunities wasted on an empty queue are limited to the initial
    # propagation delay, and the horizon truncates at most a queue's worth.
    assert log.n_delivered <= 10_000
    assert log.n_delivered > 9_900
    assert log.n_sent == log.n_delivered + log.n_in_queue + log.n_in_flight


def test_rtt_floor_is_twice_one_way_delay():
    # A window that stays far below the 20-packet pipe never builds a
    # standing queue: every RTT is within 2 ms of 2 x OWD.
    cfg = small_sim(duration_s=0.5,
                    flows=[aimd_flow(cwnd_init=1.0, cwnd_floor=1.0, ssthresh_init=1.0)])
    log = run_sim(cfg)
    assert log.min_rtt_s[0] == pytest.approx(0.020, abs=1e-6)
    flow_rtts = [
        (d + 10_000 - s) * 1e-6
        for s, d in zip(log.p_sent_us, log.p_delivered_us)
        if d >= 0
    ]
    assert min(flow_rtts) >= 0.020 - 1e-9
    assert max(flow_rtts) == pytest.approx(0.020, abs=2e-3)


def test_droptail_losses_trigger_window_halving():
    # A 20-packet buffer against an aggressive slow-start burst must drop.
    cfg = small_sim(
        buffer_pkts=20,
        duration_s=8.0,
        flows=[aimd_flow(cwnd_init=10.0, ssthresh_init=10_000.0)],
    )
    log = run_sim(cfg)
    assert log.n_dropped > 0
    log.check_conservation()
    # Delivered packets plus losses account for the drop episodes; the flow
    # must keep operating afterwards (no deadlock at the horizon).
    assert log.n_delivered > 0.8 * (log.n_sent - log.n_dropped)


def test_losses_do_not_violate_conservation_across_buffers():
    for buf in (5, 17, 64, 256):
        cfg = small_sim(
            buffer_pkts=buf,
            duration_s=4.0,
            flows=[aimd_flow(cwnd_init=40.0, ssthresh_init=40.0)],
        )
        log = run_sim(cfg)
        log.check_conservation()


def test_replay_is_bit_identical_and_seed_sensitive():
    a = log_digest(run_sim(small_sim(seed=11)))
    b = log_digest(run_sim(small_sim(seed=11)))
    c = log_digest(run_sim(small_sim(seed=12)))
    assert a == b
    assert a != c


def test_two_flows_share_the_bottleneck():
    cfg = small_sim(
        schedule=synth_constant(24.0, 1.0),
        duration_s=6.0,
        flows=[FlowSpec(flow_id="a"), FlowSpec(flow_id="b", start_s=1.0)],
    )
    log = run_sim(cfg)
    log.check_conservation()
    flows = set(log.p_flow)
    assert flows == {0, 1}
    # The late flow sends nothing before its start time.
    first_b = min(t for fi, t in zip(log.p_flow, log.p_sent_us) if fi == 1)
    assert first_b >= 1_000_000


def test_watermark_records_first_crossing_only():
    log = run_sim(small_sim(duration_s=3.0, flows=[aimd_flow(cwnd_init=2.0, ssthresh_init=64.0)]))
    t = first_cwnd_reaching(log, 0, 30.0)
    assert t > 0
    # Slow start from 2 packets crosses 30 within a handful of RTTs.
    assert t < 500_000
    # The window first reached 30 at an ack: the delivery of the 28th
    # packet, whose ack takes cwnd from 29 to 30.
    owd_us = 10_000
    assert t == log.p_delivered_us[27] + owd_us


def test_guardian_tick_cadence_follows_min_rtt():
    log = run_sim(small_sim(duration_s=3.0))
    ticks = log.tick_t_us
    assert len(ticks) > 10
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    # Every gap is one 20 ms interval (give or take rounding).
    assert all(abs(g - 20_000) <= 1_000 for g in gaps)


def test_guardian_inactive_without_avoidance_entry():
    # Slow start never exits within the horizon: threshold far away, low rate.
    cfg = small_sim(
        schedule=synth_constant(1.2, 1.0),
        duration_s=1.0,
        flows=[FlowSpec(cwnd_init=1.0, cwnd_floor=1.0, ssthresh_init=1e9)],
    )
    log = run_sim(cfg)
    assert log.tick_t_us == []


def test_threshold_raise_flag_propagates():
    flow = FlowSpec(
        guardian=GuardianConfig(threshold_multiplier=None, threshold_fixed_s=0.001)
    )
    log = run_sim(small_sim(duration_s=2.0, flows=[flow]))
    assert threshold_raised(log) is True


def test_fixed_threshold_not_raised_when_generous():
    flow = FlowSpec(
        guardian=GuardianConfig(threshold_multiplier=None, threshold_fixed_s=0.040)
    )
    log = run_sim(small_sim(duration_s=2.0, flows=[flow]))
    assert threshold_raised(log) is False


def test_validate_rejects_bad_configs():
    with pytest.raises(ValueError):
        run_sim(small_sim(duration_s=0.0))
    with pytest.raises(ValueError):
        run_sim(small_sim(buffer_pkts=0))
    with pytest.raises(ValueError):
        run_sim(small_sim(flows=[FlowSpec(controller="bbr")]))


@pytest.mark.parametrize("field, value", [
    ("duration_s", math.nan),
    ("duration_s", math.inf),
    ("one_way_delay_s", math.nan),
    ("one_way_delay_s", math.inf),
    ("one_way_delay_s", 0.0),
    ("one_way_delay_s", 4e-7),
])
def test_validate_rejects_non_finite_or_sub_microsecond_values(field, value):
    with pytest.raises(ValueError, match=field):
        small_sim(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("start_s", math.nan),
    ("start_s", math.inf),
    ("ssthresh_init", math.nan),
])
def test_flow_validate_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        small_sim(flows=[FlowSpec(**{field: value})]).validate()


def test_flow_validate_accepts_an_infinite_ssthresh():
    small_sim(flows=[FlowSpec(ssthresh_init=math.inf)]).validate()


def in_order_sends(n, cwnd, inflight, ssthresh=None):
    """One aimd flow with ``cwnd`` and ``inflight`` takes ``n`` in-order acks
    in one ``take_acks`` call; its threshold is ``ssthresh``, by default
    ``cwnd``, so that it starts in avoidance. Returns the sends of each ack,
    and the flow."""
    spec = aimd_flow(cwnd_init=cwnd, ssthresh_init=cwnd if ssthresh is None else ssthresh)
    f = _FlowState(spec, random.Random(0))
    f.inflight = inflight
    sends = np.ones(n, np.int64)
    take_acks(f, np.arange(1000, 1000 * (n + 1), 1000), np.arange(n), np.full(n, 0.02), 0, n,
              sends, [])
    return sends.tolist(), f


def test_take_acks_drain_covers_the_whole_call():
    # A cut left 10 packets in flight under a window of 5: three acks grow
    # it to 5.58 and free three slots, and none sends.
    sends, f = in_order_sends(3, 5.0, 10)
    assert sends == [0, 0, 0]
    assert f.inflight == 7


def test_take_acks_first_ack_fills_a_window_above_the_packets_in_flight():
    # 2 in flight under a window of 5: the first ack frees one place and
    # fills the three the window had free, so it sends 4.
    sends, f = in_order_sends(3, 5.0, 2)
    assert sends == [4, 1, 1]
    assert f.inflight == 5


def test_take_acks_drain_ends_in_the_middle_of_a_run():
    # 7 in flight under a window of 5: the third ack (cwnd 5.58) leaves 4 in
    # flight and sends 1, each later one sends 1, and the sixth, which takes
    # cwnd past 6, sends 2.
    sends, f = in_order_sends(6, 5.0, 7)
    assert sends == [0, 0, 1, 1, 1, 2]
    assert f.inflight == 6


def test_take_acks_switches_from_slow_start_in_the_middle_of_a_run():
    # Slow start from 2 to the threshold 4 in two acks, each sending 2, then
    # avoidance, which first reaches 5 at the seventh ack.
    sends, f = in_order_sends(7, 2.0, 2, ssthresh=4.0)
    assert sends == [2, 2, 1, 1, 1, 1, 2]
    assert (f.inflight, f.phase) == (5, AVOIDANCE)


def test_take_acks_avoidance_run_crosses_two_integers():
    # From 4.0, cwnd first reaches 5 at the fifth ack and 6 at the tenth.
    sends, f = in_order_sends(10, 4.0, 4)
    assert sends == [1, 1, 1, 1, 2, 1, 1, 1, 1, 2]
    assert f.inflight == 6


def test_take_acks_one_ack_may_cross_two_integers():
    # The largest double below 4, plus one, rounds to 5.0: the first ack
    # takes floor(cwnd) from 3 to 5, so it sends 3 into the slot it frees.
    sends, f = in_order_sends(2, math.nextafter(4.0, 0.0), 3, ssthresh=1e9)
    assert sends == [3, 2]
    assert (f.cwnd, f.inflight) == (6.0, 6)


def test_simulation_error_is_an_assertion_error():
    assert issubclass(SimulationError, AssertionError)
