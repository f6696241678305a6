"""The benchmark in ``perfbench/`` rebinds and calls ccguard names by
attribute; renaming one breaks the benchmark only when it runs. These
checks fail fast instead."""

import importlib
import os

import numpy as np

from ccguard import cli, metrics
from ccguard.aimd import AimdWindow
from ccguard.netsim import FlowSpec, SimConfig, run_sim
from ccguard.traces import TraceSchedule, synth_constant

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
    assert type(log.tick_multiplier) is list and type(log.cwnd_val) is list
