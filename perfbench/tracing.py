"""Span tracing for the benchmark's traced run, and the per-layer metrics.

``Recorder.install`` temporarily rebinds the public entry point of each
layer (module attributes, and ``Guardian.tick`` on its class) to a wrapper
that records a span: name, start, end, parent span and iteration id. Spans
stay in memory until the benchmark ends. A layer's self time is the summed
duration of its spans minus the time their direct children cover.

Per-packet calls (``TraceSchedule.next_opportunity``, ``AimdWindow.on_ack``)
are not wrapped, since that would add a Python call per packet; ``replay``
times them after the run instead. tracemalloc is only ever on around a
schedule build, never during a simulation.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import time
import tracemalloc

import numpy as np

from ccguard import aimd, cli, experiments, guardian, metrics, netsim, theory, traces

MIB = 1 << 20

# (owner, attribute, span name). A module attribute is rebound where its
# callers look it up: ccguard.cli imported run_sim by name, so both copies.
ENTRY_POINTS = (
    (experiments, "steady_state", "experiments.build"),
    (experiments, "step_up", "experiments.build"),
    (experiments, "synth_constant", "traces.build"),
    (experiments, "synth_step", "traces.build"),
    (traces, "from_spec", "traces.build"),
    (traces, "parse_trace", "traces.build"),
    (netsim, "run_sim", "netsim.run"),
    (cli, "run_sim", "netsim.run"),
    (guardian.Guardian, "tick", "guardian.tick"),
    (metrics, "summarize", "metrics.summarize"),
    (metrics, "timeseries", "metrics.timeseries"),
    (metrics, "time_to_utilization", "metrics.t90"),
    (theory, "run_self_checks", "theory.self_checks"),
    (cli, "load_ini", "cli.config"),
    (cli, "build_sim_config", "cli.config"),
    (cli, "write_run_outputs", "cli.write"),
)

# Layer self-time metrics, in report order: every span name maps to one.
LAYER_TIMES = {
    "experiments.build": "experiments.build_s",
    "traces.build": "traces.build_s",
    "traces.offsets": "traces.offsets_s",
    "netsim.run": "netsim.run_s",
    "guardian.tick": "guardian.tick_s",
    "metrics.summarize": "metrics.summarize_s",
    "metrics.timeseries": "metrics.timeseries_s",
    "metrics.t90": "metrics.t90_s",
    "theory.self_checks": "theory.self_checks_s",
    "cli.config": "cli.config_s",
    "cli.write": "cli.write_s",
    "bench.check": "bench.check_s",
}

ROOT = "iteration"


class NullRecorder:
    """Stands in for a Recorder when tracing is off."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def iteration(self, iteration_id: int):
        return contextlib.nullcontext()


class Recorder:
    """Collects spans of traced iterations; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, iteration]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._iteration = -1
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._iteration])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def iteration(self, iteration_id: int):
        self._iteration = iteration_id
        with self.span(ROOT):
            yield

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_run_sim(self, fn):
        def traced(config):
            # Time the schedule's lazy offsets build as its own span instead
            # of inside the event loop; later calls return the cached array.
            with self.span("traces.offsets"):
                config.schedule.offsets_us()
            with self.span("netsim.run"):
                return fn(config)

        return traced

    def _wrap_timeseries(self, fn):
        def traced(*args, **kwargs):
            rows = fn(*args, **kwargs)
            self.counts["metrics.timeseries_rows", self._iteration] += len(rows)
            return rows

        return traced

    def install(self) -> None:
        """Rebind every entry point in ENTRY_POINTS; ``uninstall`` undoes it."""
        for owner, attr, name in ENTRY_POINTS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            if name == "netsim.run":
                wrapped = self._wrap_run_sim(fn)
            elif name == "metrics.timeseries":
                wrapped = self._wrap(name, self._wrap_timeseries(fn))
            else:
                wrapped = self._wrap(name, fn)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def iteration_times(self, iteration_id: int) -> dict:
        """Wall time of one traced iteration and each layer's self time.

        The root span's self time is ``trace.unattributed_s``, so the layer
        times plus it add up to ``trace.wall_s``.
        """
        idxs = [i for i, s in enumerate(self.spans) if s[4] == iteration_id]
        child_time = collections.Counter()
        for i in idxs:
            _, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        self_time = dict.fromkeys(LAYER_TIMES.values(), 0.0)
        wall = unattributed = 0.0
        ticks = []
        for i in idxs:
            name, start, end, _, _ = self.spans[i]
            own = end - start - child_time[i]
            if name == ROOT:
                wall, unattributed = end - start, own
            else:
                self_time[LAYER_TIMES[name]] += own
            if name == "guardian.tick":
                ticks.append(end - start)
        out = self_time
        out["guardian.tick_us"] = float(np.mean(ticks)) * 1e6 if ticks else 0.0
        out["metrics.timeseries_rows"] = self.counts["metrics.timeseries_rows", iteration_id]
        out["trace.unattributed_s"] = unattributed
        out["trace.wall_s"] = wall
        return out


def _ns_per_call(calls: int, seconds: float) -> float:
    return seconds / calls * 1e9 if calls else 0.0


def replay(log: netsim.SimLog, build_schedule) -> dict:
    """Per-packet and memory figures timed after the run, from one run log."""
    dlv = np.frombuffer(log.p_delivered_us, dtype=np.int64)
    instants = dlv[dlv >= 0].tolist()
    n_delivered = len(instants)
    nxt = log.config.schedule.next_opportunity
    t0 = time.perf_counter()
    collections.deque(map(nxt, instants), maxlen=0)
    spent = time.perf_counter() - t0

    win = aimd.AimdWindow()
    on_ack = win.on_ack
    t0 = time.perf_counter()
    for _ in itertools.repeat(None, n_delivered):
        on_ack()
    ack_spent = time.perf_counter() - t0

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        schedule = build_schedule()
        schedule.offsets_us()
        schedule_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    return {
        "traces.next_opportunity_ns": _ns_per_call(n_delivered, spent),
        "aimd.on_ack_ns": _ns_per_call(n_delivered, ack_spent),
        "traces.schedule_mib": schedule_bytes / MIB,
        "traces.opportunities": schedule.opportunities_per_loop,
    }


def log_counts(logs: list, run_s: float) -> dict:
    """Work counts derived from the run logs of one iteration."""
    sent = sum(log.n_sent for log in logs)
    dropped = sum(log.n_dropped for log in logs)
    ticks = sum(len(log.tick_t_us) for log in logs)
    events = 0
    ledger_bytes = 0
    for log in logs:
        cfg = log.config
        owd_us = round(cfg.one_way_delay_s * netsim.US_PER_S)
        horizon_us = round(cfg.duration_s * netsim.US_PER_S)
        dlv = np.frombuffer(log.p_delivered_us, dtype=np.int64)
        acks = int(np.count_nonzero((dlv >= 0) & (dlv + owd_us <= horizon_us)))
        starts = sum(1 for f in cfg.flows if round(f.start_s * netsim.US_PER_S) <= horizon_us)
        events += log.n_delivered + acks + len(log.tick_t_us) + starts
        ledger_bytes += sum(
            a.itemsize * len(a)
            for a in (log.p_flow, log.p_seq, log.p_sent_us, log.p_delivered_us, log.p_dropped_us)
        )
    return {
        "netsim.pkts_sent": sent,
        "netsim.pkts_dropped": dropped,
        "netsim.events": events,
        "netsim.us_per_event": run_s / events * 1e6 if events else 0.0,
        "netsim.ledger_mib": ledger_bytes / MIB,
        "guardian.ticks": ticks,
        "guardian.ticks_per_kpkt": ticks / (sent / 1000) if sent else 0.0,
    }
