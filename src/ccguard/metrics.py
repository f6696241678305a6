"""Run-log analysis: throughput, delay percentiles, fairness, timeseries,
and controller figures derived from the ledgers and trails.

An analysis window (t0, t1] selects packets by delivery time; utilization
divides the packets delivered in it by the trace's delivery opportunities
over the same endpoints (the opportunity count is [t0, t1), so the two can
disagree by at most the window's two boundary instants — within the +epsilon
play the utilization bound allows). Percentiles are nearest-rank (the
smallest sample such that at least p% of samples are <= it).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field

import numpy as np

from .aimd import AimdWindow
from .guardian import Zone
from .netsim import SimLog
from .traces import PACKET_BYTES, US_PER_S, capacity_delivered

DEFAULT_WARMUP_S = 5.0

_BITS_PER_PKT = 8.0 * PACKET_BYTES


def jain_index(values) -> float:
    """Jain fairness index (sum x)^2 / (n * sum x^2) over nonnegative shares.

    At least one share must be positive; an empty or all-zero input has no
    defined fairness and is rejected.
    """
    xs = [float(v) for v in values]
    sq = sum(x * x for x in xs)
    if not xs or sq == 0.0:
        raise ValueError("jain_index needs at least one positive value")
    s = sum(xs)
    return s * s / (len(xs) * sq)


def percentile_nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile, p in (0, 100]. nan on empty input."""
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return math.nan
    # p * n is exact, so for integer p the rank is ceil(p * n / 100) exactly.
    rank = math.ceil(p * arr.size / 100.0)
    return float(np.partition(arr, rank - 1)[rank - 1])


@dataclass
class FlowMetrics:
    flow_id: str
    delivered: int
    dropped: int
    throughput_mbps: float
    mean_rtt_s: float
    p95_rtt_s: float
    mean_queuing_delay_s: float
    p95_queuing_delay_s: float
    loss_rate: float


@dataclass
class MetricsSummary:
    window_t0_s: float
    window_t1_s: float
    empty: bool                      # True when nothing was delivered in the window
    delivered: int
    dropped: int
    throughput_mbps: float
    utilization: float
    mean_rtt_s: float
    p95_rtt_s: float
    mean_queuing_delay_s: float
    p95_queuing_delay_s: float
    delay_vs_threshold: float        # mean RTT / delay threshold (nan if no threshold)
    jain_index: float
    flows: list[FlowMetrics] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def summarize(
    log: SimLog,
    warmup_s: float = DEFAULT_WARMUP_S,
    end_s: float | None = None,
) -> MetricsSummary:
    """Aggregate and per-flow metrics over the window (warmup, end].

    The delay-vs-threshold ratio divides the mean RTT by the delay threshold
    recovered from the run's tick trail: each flow's last resolved
    threshold, when every flow's is the same (the single-flow case); else
    the ratio is nan.
    """
    cfg = log.config
    last_per_flow = dict(zip(log.tick_flow, log.tick_threshold_s))
    thresholds = set(last_per_flow.values())
    threshold_s = thresholds.pop() if len(thresholds) == 1 else None
    t1_s = cfg.duration_s if end_s is None else end_s
    if not 0.0 <= warmup_s < t1_s:
        raise ValueError("need 0 <= warmup < end of analysis window")
    t0_us = round(warmup_s * US_PER_S)
    t1_us = round(t1_s * US_PER_S)
    window_s = t1_s - warmup_s
    owd_us = round(cfg.one_way_delay_s * US_PER_S)

    flow, sent, delivered = log.p_flow, log.p_sent_us, log.p_delivered_us
    in_window = delivered > t0_us
    in_window &= delivered <= t1_us
    drop_window = log.p_dropped_us > t0_us
    drop_window &= log.p_dropped_us <= t1_us

    rtt_us = delivered[in_window]
    rtt_us += owd_us
    rtt_us -= sent[in_window]
    rtt_s = rtt_us * 1e-6
    two_owd_s = 2.0 * cfg.one_way_delay_s
    qdelay_s = rtt_s - two_owd_s
    flows_in_window = flow[in_window]
    n_flows = len(log.flow_ids)
    delivered_per_flow = np.bincount(flows_in_window, minlength=n_flows).tolist()
    dropped_per_flow = np.bincount(flow[drop_window], minlength=n_flows).tolist()

    def delay_stats(rtt: np.ndarray, qdelay: np.ndarray) -> tuple[float, ...]:
        """Mean and p95 RTT, mean and p95 queuing delay; nan when empty.
        Subtracting the path delay is monotone, so it moves the p95 RTT to
        the p95 queuing delay bit for bit. A mean is taken of its own array:
        numpy's pairwise sums do not commute with the shift."""
        if not rtt.size:
            return (math.nan,) * 4
        p95 = percentile_nearest_rank(rtt, 95.0)
        return float(rtt.mean()), p95, float(qdelay.mean()), p95 - two_owd_s

    n_total = rtt_s.size
    totals = delay_stats(rtt_s, qdelay_s)
    capacity = capacity_delivered(cfg.schedule, warmup_s, t1_s)
    # When no flow holds every delivery in the window, one stable sort by
    # flow makes each flow's samples a slice, in the ledger order a mask
    # would keep; a flow holding all of them, or none, needs no slice.
    if n_total not in delivered_per_flow:
        order = np.argsort(flows_in_window, kind="stable")
        rtt_s, qdelay_s = rtt_s[order], qdelay_s[order]
    ends = np.cumsum(delivered_per_flow).tolist()

    per_flow: list[FlowMetrics] = []
    tputs = []
    for fi, (flow_id, n, nd) in enumerate(zip(log.flow_ids, delivered_per_flow,
                                              dropped_per_flow)):
        tput = n * _BITS_PER_PKT / window_s / 1e6
        tputs.append(tput)
        if n == n_total:  # this flow holds every delivery in the window, or none does
            stats = totals
        else:
            stats = delay_stats(rtt_s[ends[fi] - n:ends[fi]], qdelay_s[ends[fi] - n:ends[fi]])
        mean_rtt, p95_rtt, mean_q, p95_q = stats
        per_flow.append(
            FlowMetrics(
                flow_id=flow_id,
                delivered=n,
                dropped=nd,
                throughput_mbps=tput,
                mean_rtt_s=mean_rtt,
                p95_rtt_s=p95_rtt,
                mean_queuing_delay_s=mean_q,
                p95_queuing_delay_s=p95_q,
                loss_rate=nd / (n + nd) if (n + nd) else math.nan,
            )
        )

    mean_rtt, p95_rtt, mean_q, p95_q = totals
    return MetricsSummary(
        window_t0_s=warmup_s,
        window_t1_s=t1_s,
        empty=n_total == 0,
        delivered=n_total,
        dropped=sum(dropped_per_flow),
        throughput_mbps=n_total * _BITS_PER_PKT / window_s / 1e6,
        utilization=(n_total / capacity) if capacity > 0 else math.nan,
        mean_rtt_s=mean_rtt,
        p95_rtt_s=p95_rtt,
        mean_queuing_delay_s=mean_q,
        p95_queuing_delay_s=p95_q,
        delay_vs_threshold=(mean_rtt / threshold_s) if threshold_s else math.nan,
        jain_index=jain_index(tputs) if any(t > 0.0 for t in tputs) else math.nan,
        flows=per_flow,
    )


TIMESERIES_COLUMNS = (
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


def bin_count(duration_s: float, bin_s: float) -> int:
    """Timeseries bins per flow over a run, each a whole number of
    microseconds wide; the last one may be partial."""
    return -(-round(duration_s * US_PER_S) // round(bin_s * US_PER_S))


def timeseries(log: SimLog, bin_s: float = 1.0) -> np.ndarray:
    """Per-flow, per-bin rows (bin label = bin start) as a structured array:
    one record per row, flow by flow, one field per ``TIMESERIES_COLUMNS``
    name. Bins with no deliveries carry nan delay fields and zero
    throughput; guardian columns show the last tick in the bin (empty zone /
    multiplier 1 / nan mu when the flow ticked never or not in this bin)."""
    bin_us = round(bin_s * US_PER_S) if bin_s > 0.0 else 0
    if bin_us < 1:
        raise ValueError("bin_s must be at least 1 us")
    cfg = log.config
    n_bins = bin_count(cfg.duration_s, bin_s)
    owd_us = round(cfg.one_way_delay_s * US_PER_S)
    t0 = np.arange(n_bins, dtype=np.int64) * bin_us
    t1 = np.minimum(t0 + bin_us, round(cfg.duration_s * US_PER_S))

    flow, sent, delivered = log.p_flow, log.p_sent_us, log.p_delivered_us
    n_flows = len(log.flow_ids)
    # One (flow, slot) key per packet: the slot is ceil(delivery / bin)
    # clipped to [0, n_bins], so slot b + 1 holds bin b's deliveries and slot
    # 0, cut off below, the packets never delivered (delivery -1). A weighted
    # bincount adds each key's RTTs in ledger order, as counting one flow's
    # deliveries alone would, so the sums do not depend on the flow count.
    rtt_us = delivered + owd_us
    rtt_us -= sent
    rtt_s = rtt_us * 1e-6
    key = delivered - 1
    key //= bin_us
    key += 1
    np.clip(key, 0, n_bins, out=key)
    key += np.multiply(flow, n_bins + 1, out=rtt_us, dtype=np.int64)
    size = n_flows * (n_bins + 1)
    counts = np.bincount(key, minlength=size).astype(np.float64)
    rtt_sums = np.bincount(key, weights=rtt_s, minlength=size)
    counts = counts.reshape(n_flows, n_bins + 1)[:, 1:]
    rtt_sums = rtt_sums.reshape(n_flows, n_bins + 1)[:, 1:]

    # Times, means and cwnd values end in a sentinel entry, picked by index
    # -1: no tick or no sample at or before a bin's end. The sentinel tick
    # time is before every bin.
    tick_t = np.array([*log.tick_t_us, -1], dtype=np.int64)
    tick_flow = np.asarray(log.tick_flow, dtype=np.int16)
    tick_zone = np.array(log.tick_zone, dtype=str)
    tick_mult = np.asarray(log.tick_multiplier, dtype=np.float64)
    tick_mean = np.array([*log.tick_mean, math.nan])
    cwnd_t = np.asarray(log.cwnd_t_us, dtype=np.int64)
    cwnd_flow = np.asarray(log.cwnd_flow, dtype=np.int16)
    cwnd_val = np.array([*log.cwnd_val, math.nan])

    widths = {"flow_id": max(map(len, log.flow_ids), default=1),
              "zone": max(len(z.value) for z in Zone)}
    rows = np.zeros(n_flows * n_bins, dtype=[
        (c, f"U{widths[c]}" if c in widths else np.float64) for c in TIMESERIES_COLUMNS])
    grid = rows.reshape(n_flows, n_bins)  # a view: row fi holds flow fi's bins
    grid["t_s"] = t0 / US_PER_S
    grid["flow_id"] = np.array(log.flow_ids, dtype=rows.dtype["flow_id"])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0/0 is nan: a bin with no deliveries has no mean delay.
        rtt_avg = rtt_sums / counts
        grid["throughput_mbps"] = counts * _BITS_PER_PKT / ((t1 - t0) / US_PER_S) / 1e6
    grid["rtt_ms_avg"] = rtt_avg * 1e3
    grid["queuing_delay_ms_avg"] = (rtt_avg - 2.0 * cfg.one_way_delay_s) * 1e3
    grid["guardian_multiplier"] = 1.0

    # Each row's key: flow * (n_bins + 1) + bin.
    flow_key = np.arange(n_flows, dtype=np.int64)[:, None] * (n_bins + 1)
    row_key = flow_key + np.arange(n_bins)

    def last_by_bin(t: np.ndarray, flows: np.ndarray) -> np.ndarray:
        """Per flow and bin, the index of the flow's last entry at or before
        the bin's end, or -1. A stable sort by flow keeps each flow's entries
        in time order, so their keys, flow and the first bin ending at or
        after the entry, ascend and one search answers every row."""
        order = np.argsort(flows, kind="stable")
        key = flows[order].astype(np.int64)
        key *= n_bins + 1
        key += np.searchsorted(t1, t[order])
        last = np.searchsorted(key, row_key, side="right")
        last -= 1
        return np.where(last >= np.searchsorted(key, flow_key), np.append(order, -1)[last], -1)

    # The last tick in (t0, t1] and the last cwnd sample <= t1.
    k = last_by_bin(tick_t[:-1], tick_flow)
    in_bin = tick_t[k] > t0
    grid["cwnd_pkts"] = cwnd_val[last_by_bin(cwnd_t, cwnd_flow)]
    grid["zone"][in_bin] = tick_zone[k[in_bin]]
    grid["guardian_multiplier"][in_bin] = tick_mult[k[in_bin]]
    # mu persists between bins once the guardian has ticked
    grid["mu"] = tick_mean[k]
    return rows


# Seconds between the window ends time_to_utilization tries.
UTILIZATION_STEP_S = 0.01


def time_to_utilization(
    log: SimLog,
    target: float,
    from_s: float,
    window_s: float = 1.0,
) -> float | None:
    """Seconds after ``from_s`` until a trailing window first reaches the
    target utilization: smallest t >= from_s + window, on a grid of
    ``UTILIZATION_STEP_S``, with delivered(t-window, t] >= target *
    capacity(t-window, t]. None if never.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target utilization must be in (0, 1]")
    cfg = log.config
    delivered = log.p_delivered_us
    d_sorted = np.sort(delivered[delivered >= 0])
    t = from_s + window_s
    while t <= cfg.duration_s + 1e-9:
        t0_us = round((t - window_s) * US_PER_S)
        t1_us = round(t * US_PER_S)
        got = np.searchsorted(d_sorted, t1_us, side="right") - np.searchsorted(
            d_sorted, t0_us, side="right"
        )
        need = target * capacity_delivered(cfg.schedule, t - window_s, t)
        if got >= need:
            return t - from_s
        t += UTILIZATION_STEP_S
    return None


def first_cwnd_reaching(log: SimLog, flow: int, target: float) -> int:
    """The first microsecond flow ``flow``'s window reached ``target``, or -1
    if it never did. Replays ``AimdWindow.on_acks`` over the flow's in-order
    acks, each at delivery + delay up to the horizon, setting the window to
    ``tick_cwnd`` at each of its ticks (before an ack at the same instant);
    ``cwnd_init`` counts at the flow's start. The replay is exact up to the
    flow's first drop: a target not reached before it raises ValueError."""
    cfg, spec = log.config, log.config.flows[flow]
    horizon_us = round(cfg.duration_s * US_PER_S)
    start_us = round(spec.start_s * US_PER_S)
    if start_us > horizon_us or spec.cwnd_init >= target:
        return -1 if start_us > horizon_us else start_us
    # Per flow the ledgers are in sequence order, so the acks before the
    # first drop are in order. Every drop is at or before the horizon.
    mine = log.p_flow == flow
    drops, dlv = log.p_dropped_us[mine], log.p_delivered_us[mine]
    stop_us = int(drops[drops >= 0].min(initial=horizon_us + 1))
    acks = dlv[dlv >= 0] + round(cfg.one_way_delay_s * US_PER_S)
    acks = acks[acks < stop_us].tolist()
    ticks = [(t, c) for t, fi, c in zip(log.tick_t_us, log.tick_flow, log.tick_cwnd)
             if fi == flow and t < stop_us]
    window = AimdWindow(spec.cwnd_init, spec.ssthresh_init, spec.cwnd_floor)
    taken = 0
    for t, cwnd in [*ticks, (stop_us, None)]:
        upto = bisect_left(acks, t, taken)
        if upto > taken:
            crossed = window.on_acks(upto - taken, target)
            if crossed:
                return acks[taken + crossed[0]]
            taken = upto
        if cwnd is not None:
            window.cwnd = cwnd
            if cwnd >= target:
                return t
    if stop_us <= horizon_us:
        raise ValueError(f"flow {flow}'s window did not reach {target} before its "
                         f"first drop at {stop_us} us")
    return -1


def threshold_raised(log: SimLog) -> bool:
    """Whether some guarded flow's fixed delay threshold was lifted at a
    tick, to 1.1x its minimum RTT (see ``guardian.resolve_threshold``)."""
    fixed = [f.guardian.threshold_fixed_s for f in log.config.flows]
    return any(fixed[fi] is not None and th != fixed[fi]
               for fi, th in zip(log.tick_flow, log.tick_threshold_s))
