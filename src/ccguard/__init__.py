"""ccguard: delay-guarded congestion control on a trace-driven bottleneck.

The package couples a classic AIMD window with a periodic delay guardian
(exploration / slowdown / mitigation zones), simulates it deterministically
against mahimahi-format link traces, and ships the closed-form performance
predictions alongside the experiment harness that checks them.
"""

from .aimd import AimdWindow
from .guardian import Guardian, GuardianConfig, Zone
from .metrics import MetricsSummary, summarize, timeseries
from .netsim import INFINITE_BUFFER, FlowSpec, SimConfig, SimLog, run_sim
from .traces import TraceSchedule, capacity_delivered, parse_trace, synth_constant, synth_step

__version__ = "0.1.0"

__all__ = [
    "AimdWindow",
    "Guardian",
    "GuardianConfig",
    "Zone",
    "MetricsSummary",
    "summarize",
    "timeseries",
    "INFINITE_BUFFER",
    "FlowSpec",
    "SimConfig",
    "SimLog",
    "run_sim",
    "TraceSchedule",
    "capacity_delivered",
    "parse_trace",
    "synth_constant",
    "synth_step",
    "__version__",
]
