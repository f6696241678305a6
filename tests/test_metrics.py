"""Tests for metrics: percentiles, fairness index, windowed summaries,
timeseries export, and time-to-utilization."""

import math

import pytest

from ccguard import metrics
from ccguard.metrics import (
    TIMESERIES_COLUMNS,
    jain_index,
    percentile_nearest_rank,
    summarize,
    time_to_utilization,
    timeseries,
)
from ccguard.netsim import FlowSpec, SimConfig, run_sim
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
    s = summarize(steady_log, warmup_s=2.0, threshold_s=0.030)
    assert s.delay_vs_threshold == pytest.approx(s.mean_rtt_s / 0.030)
    # Without a threshold anywhere, the ratio is nan only if the tick trail
    # carries none; guarded runs record one, so it is finite.
    s2 = summarize(steady_log, warmup_s=2.0)
    assert math.isfinite(s2.delay_vs_threshold)


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
    assert rows, "expected at least one row"
    assert all(set(r) == set(TIMESERIES_COLUMNS) for r in rows)
    ts = sorted({r["t_s"] for r in rows})
    assert ts[0] <= 1.0 and ts[-1] <= 12.0 + 1e-9
    assert len(ts) == 12
    # Bin throughputs stay at or below the link rate.
    assert all(r["throughput_mbps"] <= 12.0 + 1e-6 for r in rows)


def test_timeseries_single_bin(steady_log):
    rows = timeseries(steady_log, bin_s=12.0)
    assert len({r["t_s"] for r in rows}) == 1


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
