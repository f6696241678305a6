"""Pre-registered experiment scenarios.

Each builder returns a ready SimConfig. The acceptance gates build their
runs through these, and the benchmark in ``perfbench/`` builds ``steady``
and ``step-up`` through them. The CLI calls none of them: ``ccguard run``
and ``ccguard fairness`` build their scenarios through the INI path. It
takes ``DEEP_BUFFER`` from here, and ``ccguard fairness`` takes its flag
defaults from gate 8's ``FAIRNESS_*`` constants, so that by default it runs
``fairness``'s scenario. Defaults shared by the study:

* minimum RTT 20 ms (10 ms propagation each way)
* 1500-byte packets, so 300 Mbps <=> a 500-packet bandwidth-delay product
* deep drop-tail buffer of 3200 packets unless a scenario sweeps it
"""

from __future__ import annotations

from dataclasses import fields

from .guardian import EXPLORATION_MODES, GuardianConfig
from .netsim import INFINITE_BUFFER, FlowSpec, SimConfig
from .traces import PACKET_BYTES, synth_constant, synth_step

MIN_RTT_S = 0.020
OWD_S = MIN_RTT_S / 2.0
DEEP_BUFFER = 3200


def bdp_packets(rate_mbps: float) -> float:
    """Bandwidth-delay product in packets at the study's minimum RTT."""
    return rate_mbps * 1e6 * MIN_RTT_S / (8 * PACKET_BYTES)


_GUARDIAN_OPTIONS = frozenset(f.name for f in fields(GuardianConfig))


def guarded_flow(flow_id: str = "flow0", **kwargs) -> FlowSpec:
    """A guarded flow. Options that name a ``GuardianConfig`` field go to its
    guardian, the rest to ``FlowSpec``; every option not given keeps its
    dataclass default."""
    guardian = GuardianConfig(**{k: kwargs.pop(k) for k in _GUARDIAN_OPTIONS & kwargs.keys()})
    return FlowSpec(flow_id=flow_id, controller="guarded", guardian=guardian, **kwargs)


def aimd_flow(flow_id: str = "flow0", **kwargs) -> FlowSpec:
    return FlowSpec(flow_id=flow_id, controller="aimd", **kwargs)


def _guarded_or_aimd(controller: str, **kwargs) -> FlowSpec:
    """The one flow of a scenario that sets the guarded controller, with a
    fixed 40 ms threshold, against plain AIMD."""
    if controller == "guarded":
        return guarded_flow(threshold_fixed_s=0.040, **kwargs)
    if controller == "aimd":
        return aimd_flow(**kwargs)
    raise ValueError(f"unknown controller {controller!r}")


def steady_state(seed: int, duration_s: float = 120.0) -> SimConfig:
    """One guarded flow on a constant 300 Mbps link (BDP 500 packets),
    fixed 40 ms delay threshold, unbounded buffer."""
    return SimConfig(
        schedule=synth_constant(300.0, 1.0),
        duration_s=duration_s,
        one_way_delay_s=OWD_S,
        buffer_pkts=INFINITE_BUFFER,
        seed=seed,
        flows=[guarded_flow(threshold_fixed_s=0.040)],
    )


def rampup(controller: str, seed: int, duration_s: float) -> SimConfig:
    """Cold start from a one-packet window at its slow-start threshold, so
    straight into congestion avoidance, 300 Mbps, unbounded buffer. Gate 2
    reads the first instant cwnd reaches the BDP (500 packets) with
    ``metrics.first_cwnd_reaching``."""
    return SimConfig(
        schedule=synth_constant(300.0, 1.0),
        duration_s=duration_s,
        one_way_delay_s=OWD_S,
        buffer_pkts=INFINITE_BUFFER,
        seed=seed,
        flows=[_guarded_or_aimd(controller, cwnd_init=1.0, cwnd_floor=1.0,
                                ssthresh_init=1.0)],
    )


STEP_DOWN_HEAVY_AT_S = 20.0


def step_down_heavy(controller: str, seed: int) -> SimConfig:
    """600 -> 300 Mbps halving at t=20 s, fixed 40 ms threshold, deep buffer.
    Contrasts the guarded controller with plain AIMD on a loss-free capacity
    drop (the buffer is deep enough that AIMD just fills it)."""
    return SimConfig(
        schedule=synth_step([(600.0, 20.0), (300.0, 20.0)]),
        duration_s=30.0,
        one_way_delay_s=OWD_S,
        buffer_pkts=DEEP_BUFFER,
        seed=seed,
        flows=[_guarded_or_aimd(controller)],
    )


STEP_UP_AT_S = 20.0


def step_up(exploration: str, seed: int) -> SimConfig:
    """100 -> 720 Mbps step at t=20 s (capacity x7.2), default 1.5x
    threshold, deep buffer. Variants toggle the exploration mode, one of
    ``EXPLORATION_MODES``."""
    if exploration not in EXPLORATION_MODES:
        raise ValueError(f"exploration must be one of {EXPLORATION_MODES}")
    return SimConfig(
        schedule=synth_step([(100.0, 20.0), (720.0, 25.0)]),
        duration_s=45.0,
        one_way_delay_s=OWD_S,
        buffer_pkts=DEEP_BUFFER,
        seed=seed,
        flows=[guarded_flow(exploration=exploration)],
    )


STEP_DOWN_DRAIN_AT_S = 20.0

STEP_DOWN_DRAIN_VARIANTS = ("full", "no-slowdown", "no-slowdown-no-mitigation")


def step_down_drain(variant: str, seed: int) -> SimConfig:
    """720 -> 100 Mbps collapse at t=20 s (capacity /7.2), default 1.5x
    threshold, deep buffer. Ablations peel off the proactive trim and then
    the critical-zone cut."""
    if variant not in STEP_DOWN_DRAIN_VARIANTS:
        raise ValueError(f"variant must be one of {STEP_DOWN_DRAIN_VARIANTS}")
    return SimConfig(
        schedule=synth_step([(720.0, 20.0), (100.0, 15.0)]),
        duration_s=35.0,
        one_way_delay_s=OWD_S,
        buffer_pkts=DEEP_BUFFER,
        seed=seed,
        flows=[guarded_flow(slowdown=variant == "full",
                            mitigation=variant != "no-slowdown-no-mitigation")],
    )


BUFFER_SWEEP_PKTS = (800, 3200, 12800, 51200)


def buffer_sweep(buffer_pkts: int, seed: int) -> SimConfig:
    """Constant 300 Mbps for 40 s with a fixed 30 ms threshold across four
    buffer depths spanning 64x; the guarded controller should not care."""
    return SimConfig(
        schedule=synth_constant(300.0, 1.0),
        duration_s=40.0,
        one_way_delay_s=OWD_S,
        buffer_pkts=buffer_pkts,
        seed=seed,
        flows=[guarded_flow(threshold_fixed_s=0.030)],
    )


# Gate 8's scenario, which ``ccguard fairness`` runs by default. The gate
# reads the Jain index over the final window.
FAIRNESS_FLOWS = 3
FAIRNESS_GAP_S = 30.0
FAIRNESS_RATE_MBPS = 120.0
FAIRNESS_DURATION_S = 120.0
FAIRNESS_WINDOW_S = 30.0


def fairness(seed: int) -> SimConfig:
    """Three guarded flows started 30 s apart, sharing one deep queue on a
    constant 120 Mbps link for 120 s."""
    return SimConfig(
        schedule=synth_constant(FAIRNESS_RATE_MBPS, 1.0),
        duration_s=FAIRNESS_DURATION_S,
        one_way_delay_s=OWD_S,
        buffer_pkts=DEEP_BUFFER,
        seed=seed,
        flows=[guarded_flow(f"flow{i}", start_s=i * FAIRNESS_GAP_S)
               for i in range(FAIRNESS_FLOWS)],
    )
