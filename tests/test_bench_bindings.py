"""The benchmark in ``perfbench/`` rebinds and calls ccguard names by
attribute; renaming one breaks the benchmark only when it runs. These
checks fail fast instead."""

import importlib
import os

from ccguard import cli
from ccguard.aimd import AimdWindow
from ccguard.traces import TraceSchedule

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
