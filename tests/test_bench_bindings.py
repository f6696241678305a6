"""The benchmark in ``perfbench/`` rebinds and calls ccguard names by
attribute; renaming one breaks the benchmark only when it runs. These
checks fail fast instead."""

import importlib
import inspect
import os
import random

import numpy as np
import pytest

from ccguard import cli, experiments, metrics, theory, traces
from ccguard.aimd import AimdWindow
from ccguard.netsim import FlowSpec, SimConfig, run_sim
from ccguard.traces import TraceSchedule, synth_constant
from test_traces import timestamps_ms

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    for owner, attr, _ in tracing.ENTRY_POINTS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_names_the_workloads_call_resolve():
    assert callable(cli.main) and callable(cli.run_sim)
    assert callable(AimdWindow.on_ack)
    assert cli.EXIT_OK == 0
    assert callable(TraceSchedule.next_opportunity)
    assert callable(TraceSchedule.offsets_us)
    assert callable(TraceSchedule.opportunities_until)
    assert isinstance(TraceSchedule.opportunities_per_loop, property)
    assert isinstance(TraceSchedule.loop_length_us, property)


# Each call the workloads make, with stand-ins for the arguments they pass.
BENCH_CALLS = [
    (experiments.steady_state, (5,), {"duration_s": 30.0}),
    (experiments.step_up, ("stochastic", 1), {}),
    (experiments.bdp_packets, (300.0,), {}),
    (theory.steady_state_delay_bound, (500.0, 0.02), {}),
    (metrics.summarize, ("log",), {"warmup_s": 20.0}),
    (metrics.timeseries, ("log",), {}),
    (metrics.time_to_utilization, ("log", 0.9), {"from_s": 20.0, "window_s": 0.1}),
    (theory.run_self_checks, (), {}),
    (traces.capacity_delivered, ("schedule", 0.0, 30.0), {}),
    (traces.from_spec, ("cell.trace",), {}),
    (AimdWindow, (), {}),
    (AimdWindow().on_ack, (), {}),
]


@pytest.mark.parametrize("fn, args, kwargs", BENCH_CALLS,
                         ids=[fn.__qualname__ for fn, _, _ in BENCH_CALLS])
def test_the_calls_the_workloads_make_bind(fn, args, kwargs):
    # Binding fails on a parameter the benchmark passes that is gone.
    inspect.signature(fn).bind(*args, **kwargs)


def test_timeseries_length_counts_rows():
    # The workloads check and sum len() of a timeseries as its row count.
    log = run_sim(SimConfig(schedule=synth_constant(12.0, 1.0), duration_s=2.5, seed=1,
                            flows=[FlowSpec("a"), FlowSpec("b", controller="aimd")]))
    for bin_s in (1.0, 0.1):
        rows = metrics.timeseries(log, bin_s)
        assert len(rows) == 2 * metrics.bin_count(2.5, bin_s)


def test_run_log_types_the_benchmark_reads():
    # The benchmark hashes the ledgers' bytes, reads p_flow as int16, hashes
    # the repr of two trails and edits a ledger and a trail in place.
    log = run_sim(SimConfig(schedule=synth_constant(12.0, 1.0), duration_s=0.5, seed=1,
                            flows=[FlowSpec("a"), FlowSpec("b", controller="aimd")]))
    for name, dtype in [("p_flow", np.int16), ("p_seq", np.int64), ("p_sent_us", np.int64),
                        ("p_delivered_us", np.int64), ("p_dropped_us", np.int64)]:
        ledger = getattr(log, name)
        assert type(ledger) is np.ndarray and ledger.dtype == dtype, name
        assert ledger.flags.c_contiguous and ledger.flags.writeable, name
    # The goldens and the benchmark hash the repr of these lists, and numpy 2
    # prints a scalar as np.float64(...): every element must be a Python
    # int, float or str. (np.float64 subclasses float, so compare types.)
    for name, kind in [("tick_t_us", int), ("tick_flow", int), ("tick_zone", str),
                       ("tick_multiplier", float), ("tick_mean", float),
                       ("tick_delay_s", float), ("tick_threshold_s", float),
                       ("tick_cwnd", float), ("cwnd_t_us", int), ("cwnd_flow", int),
                       ("cwnd_val", float), ("min_rtt_s", float)]:
        trail = getattr(log, name)
        assert type(trail) is list and trail, name
        assert {type(v) for v in trail} == {kind}, name


@pytest.fixture
def no_line_reader(monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} was read line by line")

    monkeypatch.setattr(traces, "_read_lines", refuse)


def test_cell_mix_trace_never_reaches_the_line_reader(monkeypatch, tmp_path, no_line_reader):
    # The line reader gives the same values, but on cell-mix's 800 k-line
    # trace it took 0.97 s against 0.04 s for the numpy parse (one run on a 2-core
    # x86 box), so only this test tells a fallback from the numpy path.
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    path = tmp_path / "cell.trace"
    workloads.write_cell_trace(str(path), random.Random(91), 2, 100)
    expected = [int(line) for line in path.read_text().split()]
    assert timestamps_ms(traces.parse_trace(path)) == expected


@pytest.mark.parametrize("text", [
    "1\n2\n2\n5\n", "1\n2\n2\n5", "1\r\n2\r\n2\r\n5\r\n", "1\r\n2\r\n2\r\n5",
    "\n1\n\n2\n2\n\n5\n\n", "\r\n1\r\n\r\n2\r\n2\r\n5\r\n\r\n", "01\n002\n2\n0005\n",
])
def test_clean_trace_files_never_reach_the_line_reader(tmp_path, no_line_reader, text):
    path = tmp_path / "clean.trace"
    path.write_bytes(text.encode())
    assert timestamps_ms(traces.parse_trace(path)) == [1, 2, 2, 5]
