"""Tests for metrics: percentiles, fairness index, windowed summaries,
timeseries export, time-to-utilization, and the window watermark and
raised-threshold flag derived from a run's log."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccguard import metrics
from ccguard.guardian import GuardianConfig
from ccguard.metrics import (
    TIMESERIES_COLUMNS,
    first_cwnd_reaching,
    jain_index,
    percentile_nearest_rank,
    summarize,
    threshold_raised,
    time_to_utilization,
    timeseries,
)
from ccguard.netsim import FlowSpec, SimConfig, SimLog, run_sim
from ccguard.traces import synth_constant


# ---------------------------------------------------------------------------
# pure helpers


def test_percentile_nearest_rank_examples():
    vals = list(range(1, 101))  # 1..100
    assert percentile_nearest_rank(vals, 95) == 95.0
    assert percentile_nearest_rank(vals, 100) == 100.0
    assert percentile_nearest_rank(vals, 1) == 1.0
    assert percentile_nearest_rank([10.0, 20.0, 30.0], 50) == 20.0
    assert percentile_nearest_rank([7.0], 95) == 7.0
    # ceil semantics: 3 values, p=34 -> rank ceil(1.02) = 2
    assert percentile_nearest_rank([1.0, 2.0, 3.0], 34) == 2.0


def test_percentile_rejects_bad_p_and_handles_empty():
    with pytest.raises(ValueError):
        percentile_nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        percentile_nearest_rank([1.0], 101)
    assert math.isnan(percentile_nearest_rank([], 95))


def test_percentile_is_order_insensitive():
    assert percentile_nearest_rank([3.0, 1.0, 2.0], 66) == 2.0


def test_percentile_rank_is_exact():
    # 34 / 100.0 * 150 rounds up to 51.00000000000001, whose ceiling is 52.
    assert percentile_nearest_rank(list(range(1, 151)), 34) == 51.0


@pytest.mark.parametrize("n", [1, 3, 7, 100, 150, 997, 20_000])
def test_percentile_rank_is_ceil_p_n_over_100(n):
    values = np.random.default_rng(n).permutation(np.arange(1.0, n + 1))
    for p in range(1, 101):
        assert percentile_nearest_rank(values, p) == -(-p * n // 100), p


@given(st.lists(st.one_of(st.sampled_from([-math.inf, -1.0, 0.0, 2.5, math.inf]),
                          st.floats(allow_nan=False)), min_size=1, max_size=80),
       st.integers(1, 100))
def test_percentile_is_the_sorted_rank(values, p):
    # Ties (the sampled values recur) and both infinities.
    assert percentile_nearest_rank(values, p) == sorted(values)[-(-p * len(values) // 100) - 1]


def test_jain_examples():
    assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_index([2.0, 1.0]) == pytest.approx(0.9)
    assert jain_index([1.0, 0.0]) == pytest.approx(0.5)
    assert jain_index([5.0]) == pytest.approx(1.0)


def test_jain_rejects_empty_and_all_zero():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([0.0, 0.0])


# ---------------------------------------------------------------------------
# log-backed summaries


@pytest.fixture(scope="module")
def steady_log():
    cfg = SimConfig(
        schedule=synth_constant(12.0, 1.0),
        duration_s=12.0,
        one_way_delay_s=0.010,
        buffer_pkts=400,
        seed=3,
        flows=[FlowSpec()],
    )
    return run_sim(cfg)


def test_summary_window_and_counts(steady_log):
    s = summarize(steady_log, warmup_s=2.0)
    assert s.window_t0_s == 2.0
    assert s.window_t1_s == 12.0
    assert not s.empty
    # 12 Mbps = 1000 pkts/s; ten seconds of window can deliver at most 10000.
    assert 0 < s.delivered <= 10_000
    assert s.throughput_mbps == pytest.approx(
        s.delivered * 1500 * 8 / 10.0 / 1e6
    )
    assert 0.0 < s.utilization <= 1.0
    assert s.jain_index == pytest.approx(1.0)  # single flow
    assert len(s.flows) == 1
    assert s.flows[0].flow_id == "flow0"
    assert s.flows[0].delivered == s.delivered


def test_summary_rtt_and_queuing_delay_relate(steady_log):
    s = summarize(steady_log, warmup_s=2.0)
    # queuing delay = RTT - min RTT, so means differ by exactly the floor.
    assert s.mean_rtt_s - s.mean_queuing_delay_s == pytest.approx(0.020, abs=1e-4)
    assert s.p95_rtt_s >= s.mean_rtt_s - 1e-9 or s.p95_rtt_s > 0
    assert s.mean_rtt_s >= 0.020 - 1e-9


def test_summary_threshold_ratio(steady_log):
    # The ratio is nan only if the tick trail carries no threshold; guarded
    # runs record one, so it is finite.
    s = summarize(steady_log, warmup_s=2.0)
    assert s.delay_vs_threshold == s.mean_rtt_s / steady_log.tick_threshold_s[-1]
    assert math.isfinite(s.delay_vs_threshold)


def test_summary_empty_window(steady_log):
    s = summarize(steady_log, warmup_s=11.999, end_s=12.0)
    # A sub-millisecond tail window may legitimately contain deliveries;
    # force emptiness with a window before any traffic instead.
    cfg = SimConfig(
        schedule=synth_constant(12.0, 1.0),
        duration_s=1.0,
        flows=[],
        seed=1,
    )
    empty = summarize(run_sim(cfg), warmup_s=0.0)
    assert empty.empty
    assert empty.delivered == 0
    assert empty.throughput_mbps == 0.0


def test_summary_end_s_truncates(steady_log):
    full = summarize(steady_log, warmup_s=2.0)
    half = summarize(steady_log, warmup_s=2.0, end_s=7.0)
    assert half.window_t1_s == 7.0
    assert half.delivered < full.delivered


def test_summary_rejects_bad_window(steady_log):
    with pytest.raises(ValueError):
        summarize(steady_log, warmup_s=9.0, end_s=8.0)


def test_to_dict_round_trips_fields(steady_log):
    s = summarize(steady_log, warmup_s=2.0)
    d = s.to_dict()
    assert d["delivered"] == s.delivered
    assert d["flows"][0]["flow_id"] == "flow0"
    assert set(d) >= {
        "window_t0_s", "window_t1_s", "empty", "delivered", "dropped",
        "throughput_mbps", "utilization", "mean_rtt_s", "p95_rtt_s",
        "mean_queuing_delay_s", "p95_queuing_delay_s",
        "delay_vs_threshold", "jain_index", "flows",
    }


# ---------------------------------------------------------------------------
# timeseries


def test_timeseries_columns_are_stable():
    assert TIMESERIES_COLUMNS == (
        "t_s",
        "flow_id",
        "throughput_mbps",
        "rtt_ms_avg",
        "queuing_delay_ms_avg",
        "cwnd_pkts",
        "zone",
        "guardian_multiplier",
        "mu",
    )


def test_timeseries_rows_cover_run(steady_log):
    rows = timeseries(steady_log, bin_s=1.0)
    assert len(rows), "expected at least one row"
    assert rows.dtype.names == TIMESERIES_COLUMNS
    ts = sorted(set(rows["t_s"].tolist()))
    assert ts[0] <= 1.0 and ts[-1] <= 12.0 + 1e-9
    assert len(ts) == 12
    # Bin throughputs stay at or below the link rate.
    assert all(r["throughput_mbps"] <= 12.0 + 1e-6 for r in rows)


def test_timeseries_single_bin(steady_log):
    rows = timeseries(steady_log, bin_s=12.0)
    assert len({r["t_s"] for r in rows}) == 1


def reference_timeseries(log, bin_s):
    """The scalar per-bin loop that ``timeseries`` replaced: one dict per row."""
    bin_us, cfg = round(bin_s * 1e6), log.config
    n_bins, end_us = metrics.bin_count(cfg.duration_s, bin_s), round(cfg.duration_s * 1e6)
    owd_us = round(cfg.one_way_delay_s * 1e6)
    flow, sent, delivered = log.p_flow, log.p_sent_us, log.p_delivered_us
    mask = delivered >= 0
    rtt_all, flow_all = (delivered[mask] + owd_us - sent[mask]) * 1e-6, flow[mask]
    bin_idx = np.minimum((delivered[mask] - 1) // bin_us, n_bins - 1)
    tick_t, cwnd_t = np.asarray(log.tick_t_us), np.asarray(log.cwnd_t_us)
    rows = []
    for fi, flow_id in enumerate(log.flow_ids):
        fm = flow_all == fi
        counts = np.bincount(bin_idx[fm], minlength=n_bins).astype(np.float64)
        rtt_sums = np.bincount(bin_idx[fm], weights=rtt_all[fm], minlength=n_bins)
        f_tick = np.nonzero(np.asarray(log.tick_flow) == fi)[0]
        f_cwnd = np.nonzero(np.asarray(log.cwnd_flow) == fi)[0]
        for b in range(n_bins):
            t0, t1 = b * bin_us, min((b + 1) * bin_us, end_us)
            n = counts[b]
            rtt_avg = rtt_sums[b] / n if n else math.nan
            k = np.searchsorted(tick_t[f_tick], t1, side="right") - 1
            zone, mult = "", 1.0
            mu = log.tick_mean[f_tick[k]] if k >= 0 else math.nan
            if k >= 0 and tick_t[f_tick[k]] > t0:
                zone, mult = log.tick_zone[f_tick[k]], log.tick_multiplier[f_tick[k]]
            c = np.searchsorted(cwnd_t[f_cwnd], t1, side="right") - 1
            rows.append({
                "t_s": t0 / 1e6, "flow_id": flow_id,
                "throughput_mbps": n * 12000.0 / ((t1 - t0) / 1e6) / 1e6,
                "rtt_ms_avg": rtt_avg * 1e3 if n else math.nan,
                "queuing_delay_ms_avg":
                    (rtt_avg - 2.0 * cfg.one_way_delay_s) * 1e3 if n else math.nan,
                "cwnd_pkts": float(log.cwnd_val[f_cwnd[c]]) if c >= 0 else math.nan,
                "zone": zone, "guardian_multiplier": mult, "mu": mu,
            })
    return rows


@pytest.fixture(scope="module")
def mixed_log():
    """A long flow id, a guarded flow that starts late, and an AIMD flow
    that never ticks, on one shallow-buffered queue."""
    cfg = SimConfig(
        schedule=synth_constant(12.0, 1.0),
        duration_s=1.3,
        one_way_delay_s=0.010,
        buffer_pkts=30,
        seed=5,
        flows=[FlowSpec(flow_id="guarded-a"),
               FlowSpec(flow_id="late", start_s=0.55),
               FlowSpec(flow_id="c", controller="aimd", start_s=0.2)],
    )
    return run_sim(cfg)


def test_mixed_log_covers_the_edge_cases(mixed_log):
    rows = timeseries(mixed_log, bin_s=0.005)
    ticked = {fid for fid, zone in zip(rows["flow_id"].tolist(), rows["zone"].tolist()) if zone}
    assert ticked == {"guarded-a", "late"}
    late = rows[rows["flow_id"] == "late"]
    assert np.isnan(late["cwnd_pkts"][:100]).all() and not np.isnan(late["cwnd_pkts"]).all()


# Partial last bin, bins finer than the tick interval and the cwnd sample
# interval, a whole bin per run and one bin wider than the run.
@pytest.mark.parametrize("bin_s", [0.4, 0.1, 0.005, 0.0007, 1.3, 5.0])
def test_timeseries_matches_the_scalar_reference(mixed_log, bin_s):
    rows = timeseries(mixed_log, bin_s=bin_s)
    ref = reference_timeseries(mixed_log, bin_s)
    assert len(rows) == len(ref) == 3 * metrics.bin_count(1.3, bin_s)
    assert rows.dtype.names == TIMESERIES_COLUMNS
    for col in TIMESERIES_COLUMNS:
        got, want = rows[col].tolist(), [r[col] for r in ref]
        if col in ("flow_id", "zone"):
            assert got == want, col
            continue
        got, want = np.array(got), np.array(want, dtype=np.float64)
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all(), col
        assert (got[~nan].view(np.int64) == want[~nan].view(np.int64)).all(), col


def test_timeseries_of_a_run_without_ticks():
    cfg = SimConfig(schedule=synth_constant(12.0, 1.0), duration_s=1.0, seed=2,
                    flows=[FlowSpec(controller="aimd")])
    log = run_sim(cfg)
    assert not log.tick_t_us
    rows = timeseries(log, bin_s=0.25)
    ref = reference_timeseries(log, 0.25)
    assert rows["zone"].tolist() == [r["zone"] for r in ref] == [""] * 4
    assert rows["cwnd_pkts"].tolist() == [r["cwnd_pkts"] for r in ref]
    assert np.isnan(rows["mu"]).all()


# ---------------------------------------------------------------------------
# time_to_utilization


def test_timeseries_rejects_bins_below_one_microsecond(steady_log):
    for bin_s in (0.0, -1.0, 1e-7):
        with pytest.raises(ValueError):
            timeseries(steady_log, bin_s=bin_s)


def test_time_to_utilization_reaches_target(steady_log):
    t = time_to_utilization(steady_log, 0.5, from_s=0.0, window_s=1.0)
    assert t is not None
    assert t >= 1.0  # cannot measure earlier than one full window


def test_time_to_utilization_unreachable_returns_none():
    cfg = SimConfig(
        schedule=synth_constant(12.0, 1.0),
        duration_s=2.0,
        flows=[],
        seed=1,
    )
    log = run_sim(cfg)
    assert time_to_utilization(log, 0.9, from_s=0.0) is None


def test_time_to_utilization_rejects_bad_target(steady_log):
    with pytest.raises(ValueError):
        time_to_utilization(steady_log, 0.0, from_s=0.0)
    with pytest.raises(ValueError):
        time_to_utilization(steady_log, 1.5, from_s=0.0)


def test_default_warmup_constant():
    assert metrics.DEFAULT_WARMUP_S == 5.0


# ---------------------------------------------------------------------------
# derived figures: the window watermark and the raised-threshold flag


def hand_log(flows, packets=(), ticks=()):
    """A log built by hand for a 1 s run with a 1 ms one-way delay, so each
    ack comes 1 ms after its delivery. ``packets`` are (flow, delivered,
    dropped) rows in send order, -1 where that did not happen; ``ticks`` are
    (time, flow, threshold_s, cwnd) rows. Fields neither figure reads hold
    placeholders."""
    cfg = SimConfig(schedule=synth_constant(12.0, 1.0), duration_s=1.0,
                    one_way_delay_s=0.001, flows=flows)
    p_flow, p_dlv, p_drop = (np.array([p[k] for p in packets], dtype=np.int64) for k in range(3))
    t, fi, th, cwnd = (list(c) for c in zip(*ticks)) if ticks else ([], [], [], [])
    n, n_dlv, n_drop = len(packets), int((p_dlv >= 0).sum()), int((p_drop >= 0).sum())
    return SimLog(
        config=cfg, flow_ids=[f.flow_id for f in flows],
        p_flow=p_flow.astype(np.int16), p_seq=np.zeros(n, dtype=np.int64),
        p_sent_us=np.zeros(n, dtype=np.int64), p_delivered_us=p_dlv, p_dropped_us=p_drop,
        tick_t_us=t, tick_flow=fi, tick_zone=["neutral"] * len(t),
        tick_multiplier=[1.0] * len(t), tick_mean=[1.0] * len(t),
        tick_delay_s=[math.nan] * len(t), tick_threshold_s=th, tick_cwnd=cwnd,
        cwnd_t_us=[], cwnd_flow=[], cwnd_val=[],
        n_sent=n, n_delivered=n_dlv, n_dropped=n_drop, n_in_queue=0,
        n_in_flight=n - n_dlv - n_drop, min_rtt_s=[0.002] * len(flows),
    )


def test_first_cwnd_reaching_at_the_flow_start():
    log = hand_log([FlowSpec(start_s=0.25, cwnd_init=10.0)])
    assert first_cwnd_reaching(log, 0, 10.0) == 250_000
    assert first_cwnd_reaching(log, 0, 10.5) == -1


# A guarded flow in congestion avoidance from 4 packets. Acks at 2, 3 and
# 4 ms; ticks set the window to 8 at 3 ms, 3 at 4.5 ms and 9 at 5 ms. The
# tick goes before the ack at its instant, so the window reads 4.25 after
# the first ack, 8 + 1/8 after the second and 8.125 + 1/8.125 after the
# third.
RAMP = dict(
    flows=[FlowSpec(cwnd_init=4.0, cwnd_floor=1.0, start_in_avoidance=True)],
    packets=[(0, 1000, -1), (0, 2000, -1), (0, 3000, -1)],
    ticks=[(3000, 0, 0.003, 8.0), (4500, 0, 0.003, 3.0), (5000, 0, 0.003, 9.0)],
)


@pytest.mark.parametrize("target, instant", [
    (4.25, 2000),   # at an ack before any tick
    (8.1, 3000),    # at the ack that follows a tick at the same instant
    (8.2, 4000),    # at an ack between two ticks
    (8.3, 5000),    # at a tick
    (9.5, -1),      # never
])
def test_first_cwnd_reaching_replays_acks_and_ticks(target, instant):
    assert first_cwnd_reaching(hand_log(**RAMP), 0, target) == instant


def test_first_cwnd_reaching_raises_when_a_drop_comes_first():
    # Slow start from 2: the ack at 2 ms takes the window to 3; the second
    # packet is dropped at 2.5 ms, so the acks after it are not replayed.
    log = hand_log([FlowSpec(controller="aimd", cwnd_init=2.0)],
                   packets=[(0, 1000, -1), (0, -1, 2500), (0, 4000, -1)])
    assert first_cwnd_reaching(log, 0, 3.0) == 2000
    with pytest.raises(ValueError, match="first drop at 2500 us"):
        first_cwnd_reaching(log, 0, 3.5)


def test_threshold_raised_only_for_a_fixed_threshold_lifted_at_a_tick():
    fixed = GuardianConfig(threshold_multiplier=None, threshold_fixed_s=0.001)
    flows = [FlowSpec("fixed", guardian=fixed), FlowSpec("multiple")]
    # The fixed threshold held at its value; the multiple of the min RTT
    # moves with it and never counts.
    held = [(1000, 0, 0.001, 4.0), (2000, 1, 0.003, 4.0), (3000, 1, 0.0045, 4.0)]
    assert threshold_raised(hand_log(flows, ticks=held)) is False
    assert threshold_raised(hand_log(flows, ticks=held + [(4000, 0, 0.0022, 4.0)])) is True
    # An AIMD flow has no guardian ticks, whatever its threshold says.
    aimd = SimConfig(schedule=synth_constant(12.0, 1.0), duration_s=1.0,
                     flows=[FlowSpec(controller="aimd", guardian=fixed)])
    assert threshold_raised(run_sim(aimd)) is False
