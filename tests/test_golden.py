"""Frozen replay digests of the simulator.

Each scenario is a short run (0.01-4 simulated seconds) whose complete
``SimLog`` is hashed: the five packet ledgers plus flow and sequence ids,
the whole guardian tick trail, the cwnd trail and the end-of-run fields,
with two figures derived from the log: the first instant each flow's window
reached a scenario's target (-1 if it has none) and the raised-threshold
flag.
The expected digests were recorded once and are compared across commits,
so a change that alters any number the simulator produces fails here even
if it replays consistently within one process.

A digest mismatch means simulated behaviour changed. If that is intended,
say so in the change description and re-record the digests; never re-record
them to make a speed change pass.
"""

import functools
import hashlib

import numpy as np
import pytest

from ccguard.guardian import GuardianConfig
from ccguard.metrics import first_cwnd_reaching, threshold_raised
from ccguard.netsim import FlowSpec, SimConfig, ledger_capacity, run_sim
from ccguard.traces import TraceSchedule, synth_constant, synth_step

LEDGERS = ("p_flow", "p_seq", "p_sent_us", "p_delivered_us", "p_dropped_us")
TRAILS = (
    "tick_t_us", "tick_flow", "tick_zone", "tick_multiplier", "tick_mean",
    "tick_delay_s", "tick_threshold_s", "tick_cwnd",
    "cwnd_t_us", "cwnd_flow", "cwnd_val",
)
END_FIELDS = (
    "flow_ids", "n_sent", "n_delivered", "n_dropped", "n_in_queue",
    "n_in_flight", "min_rtt_s", "watermark_us", "threshold_raised",
)


def log_digest(log, watermark=None) -> str:
    """SHA-256 over every SimLog field except the config it echoes, plus the
    derived ``watermark_us`` (when each flow's window first reached
    ``watermark``) and ``threshold_raised``."""
    derived = {
        "watermark_us": [-1 if watermark is None else first_cwnd_reaching(log, fi, watermark)
                         for fi in range(len(log.flow_ids))],
        "threshold_raised": threshold_raised(log),
    }
    h = hashlib.sha256()
    for name in LEDGERS:
        h.update(name.encode())
        h.update(np.asarray(getattr(log, name), dtype="<i8").tobytes())
    for name in TRAILS + END_FIELDS:
        h.update(name.encode())
        h.update(repr(derived[name] if name in derived else getattr(log, name)).encode())
    return h.hexdigest()


def guarded(flow_id="flow0", **kw):
    return FlowSpec(flow_id=flow_id, controller="guarded", **kw)


def aimd(flow_id="flow0", **kw):
    return FlowSpec(flow_id=flow_id, controller="aimd", **kw)


def fixed_threshold(seconds):
    return GuardianConfig(threshold_multiplier=None, threshold_fixed_s=seconds)


def explore_under(seconds):
    return GuardianConfig(threshold_multiplier=None, threshold_fixed_s=seconds,
                          exploration="deterministic")


def _scenarios():
    # Opportunities in bursts, a silence and a 40 ms loop, so deliveries
    # cross many loop boundaries and skip empty stretches.
    bursty = TraceSchedule([3, 3, 3, 3, 4, 9, 9, 25, 25, 25, 26, 40])
    return {
        "steady": SimConfig(
            schedule=synth_constant(300.0, 1.0), duration_s=2.0, seed=1,
            flows=[guarded(guardian=fixed_threshold(0.040))],
        ),
        "step-up": SimConfig(
            schedule=synth_step([(50.0, 1.0), (200.0, 2.0)]), duration_s=3.0,
            buffer_pkts=3200, seed=2, flows=[guarded()],
        ),
        "step-down": SimConfig(
            schedule=synth_step([(200.0, 1.5), (30.0, 1.5)]), duration_s=3.0,
            buffer_pkts=3200, seed=3, flows=[guarded()],
        ),
        "small-buffer-drops": SimConfig(
            schedule=synth_constant(24.0, 1.0), duration_s=4.0, buffer_pkts=20,
            seed=4, flows=[aimd(ssthresh_init=10_000.0)],
        ),
        "staggered-mixed": SimConfig(
            schedule=synth_constant(48.0, 1.0), duration_s=4.0, buffer_pkts=200,
            seed=5,
            flows=[
                guarded("a"),
                aimd("b", start_s=0.5),
                guarded("c", start_s=1.25,
                        guardian=GuardianConfig(exploration="deterministic")),
            ],
        ),
        "bursty-loop": SimConfig(
            schedule=bursty, duration_s=3.0, one_way_delay_s=0.007,
            buffer_pkts=8, seed=8,
            flows=[guarded("a", guardian=fixed_threshold(0.001)),
                   aimd("b", start_s=0.2)],
        ),
        "aimd-rampup-watermark": SimConfig(
            schedule=synth_constant(60.0, 1.0), duration_s=3.0, seed=9,
            flows=[aimd(cwnd_init=1.0, cwnd_floor=1.0, ssthresh_init=1.0)],
        ),
        "zero-flows": SimConfig(
            schedule=synth_constant(12.0, 1.0), duration_s=1.0, flows=[],
        ),
        # The last delivery before the horizon drops a packet and leaves the
        # queue one short of full; six packets are still propagating, two of
        # which would find the queue full after the horizon.
        "horizon-full-queue": SimConfig(
            schedule=synth_constant(12.0, 1.0), duration_s=1.086,
            one_way_delay_s=0.004, buffer_pkts=6, seed=3,
            flows=[
                aimd("a", ssthresh_init=1e9, cwnd_floor=4.0),
                aimd("b", start_s=0.1, cwnd_init=20.0),
                guarded("c", start_s=0.05),
            ],
        ),
        # The smallest one-way delay, 1 us, and a 3-packet buffer. A burst
        # of 1001 opportunities in one millisecond gives RTTs of 2 us, so
        # guardian ticks and acks land on the same instants and the tie
        # rule (the tick first) decides which samples each tick sees.
        "owd-1us": SimConfig(
            schedule=TraceSchedule([1] + [2] * 1001 + [3, 4, 5]), duration_s=0.01,
            one_way_delay_s=1e-6, buffer_pkts=3, seed=25,
            flows=[
                guarded("a", cwnd_init=2.0),
                guarded("b", start_s=0.003, cwnd_init=8.0, guardian=explore_under(0.004)),
                aimd("c", cwnd_init=2.0),
            ],
        ),
        # A 4 ms loop, shorter than the 10 ms round trip, whose first
        # millisecond holds 1200 opportunities, so some microsecond offsets
        # repeat; the queue builds between bursts and the buffer drops.
        "dense-short-loop": SimConfig(
            schedule=TraceSchedule([1] * 1200 + [2, 3, 3, 4]), duration_s=0.2,
            one_way_delay_s=0.005, buffer_pkts=150, seed=6,
            flows=[guarded("a"), aimd("b", start_s=0.0123, cwnd_init=40.0)],
        ),
        # Three staggered flows into a 2-packet and a 1-packet buffer: runs
        # of drops begin and end at every phase of the round trip.
        "three-flows-buffer-2": SimConfig(
            schedule=synth_constant(12.0, 1.0), duration_s=2.0, one_way_delay_s=0.003,
            buffer_pkts=2, seed=7,
            flows=[
                aimd("a", cwnd_init=4.0),
                guarded("b", start_s=0.0031, cwnd_init=3.0),
                aimd("c", start_s=0.0077, cwnd_init=5.0, cwnd_floor=3.0),
            ],
        ),
        "three-flows-buffer-1": SimConfig(
            schedule=TraceSchedule([2, 2, 2, 5, 6, 6, 11, 12]), duration_s=2.0,
            one_way_delay_s=0.0045, buffer_pkts=1, seed=11,
            flows=[
                guarded("a", cwnd_init=6.0, guardian=fixed_threshold(0.012)),
                aimd("b", start_s=0.0042, cwnd_init=2.0),
                aimd("c", start_s=0.0093, cwnd_init=7.0),
            ],
        ),
        # Two guarded flows leave slow start in the same window, the last
        # listed first, with the AIMD flow's acks between them. Each first
        # tick is pushed at its flow's activating ack, after the ticks that
        # come before that ack; the push order breaks ties between ticks.
        "two-activations-one-window": SimConfig(
            schedule=synth_constant(24.0, 1.0), duration_s=0.3, one_way_delay_s=0.003,
            buffer_pkts=60, seed=3,
            flows=[
                guarded("a", start_s=0.004, cwnd_init=2.0, ssthresh_init=12.0),
                aimd("b", start_s=0.001, cwnd_init=3.0),
                guarded("c", cwnd_init=3.0, ssthresh_init=16.0),
            ],
        ),
        # A 3-packet buffer and a fixed threshold: the guarded flow's ticks
        # often fall between the duplicate acks of one loss episode.
        "tick-inside-dup-episode": SimConfig(
            schedule=synth_constant(12.0, 1.0), duration_s=0.5, one_way_delay_s=0.002,
            buffer_pkts=3, seed=2,
            flows=[guarded("a", cwnd_init=8.0, guardian=fixed_threshold(0.006)),
                   aimd("b", start_s=0.01, cwnd_init=4.0)],
        ),
        # A guarded flow crosses a fractional watermark in congestion
        # avoidance, at the fourth ack after one of its ticks and before the
        # next.
        "guarded-watermark-between-ticks": SimConfig(
            schedule=synth_constant(24.0, 1.0), duration_s=0.5, one_way_delay_s=0.002,
            seed=1,
            flows=[guarded("a", cwnd_init=4.0, cwnd_floor=1.0, ssthresh_init=4.0)],
        ),
    }


# The window targets of the two watermark scenarios; every other scenario's
# digest records -1 per flow.
WATERMARKS = {"aimd-rampup-watermark": 40.0, "guarded-watermark-between-ticks": 30.6}


GOLDEN = {
    "steady": "7d5783423750dd89a992cc388b3915cb9006d91ebc8c5aa19ec58ad1b68d2774",
    "step-up": "21ba7df99238dd5cc27b94bd861dcd67920c642ff066e978606dfc9d5bfb6daa",
    "step-down": "192744328e239c0225d5efeb216955e9818ff76d24b1ab6db87ba2ef4f71093e",
    "small-buffer-drops": "e8be3a3879bb7af03275b3a20dba1ca169807ea71572224e41f04bcb7726cd8c",
    "staggered-mixed": "55d19cb5b3aca6765bd291938e389ae938ef0dd6c0dcf102f134486c6552a82b",
    "bursty-loop": "cf3226f7c1be2d33bfc08ae6cb407159f6c438971ec96df352a10473e81cb520",
    "aimd-rampup-watermark": "83ff3b9eef633b168e818cc01bed79892238e9209500872c3be09f3e5dc3e315",
    "zero-flows": "cd92c43ded1791ead5faae7b13dd440e59de51c873f1d526ccdb965646df9d42",
    "horizon-full-queue": "89e1e03da8541fde4caf4b1098accd7996c1fb5a988ec83a43ffd68d7ede50cd",
    "owd-1us": "99527869d96e93921571f67e49fd98db2266dd6a4dd302592b50e8676b867d6f",
    "dense-short-loop": "c9151c42e887c49aaf791729ccbd26211397312de6d3ee84a8d0eb1db40dfc46",
    "three-flows-buffer-2": "865191b515e6cb3193e502e6a5f0a8d8245ce773e207df576932c7df8a1dd796",
    "three-flows-buffer-1": "f801527b9d2b5c3e4bc38511d87f54d716d1a1c325a4a34927a17b7aa6fb021b",
    "two-activations-one-window": "849931aa5334713a38f8d24724fd9e5e5d0ae074057197e44b7bfa91a14a58cb",
    "tick-inside-dup-episode": "fce383d5787c99f1b8d655b317966a76094e2a7356c6d8c90237cd69a3b7bda6",
    "guarded-watermark-between-ticks": "27633d254914dbb5ccaaeaafd7126229e03b35b621ebc723ca149b67befc986e",
}


@functools.cache
def _log(name):
    return run_sim(_scenarios()[name])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_replay_matches_frozen_digest(name):
    assert log_digest(_log(name), WATERMARKS.get(name)) == GOLDEN[name], \
        f"{name}: simulated behaviour changed"


def test_digests_cover_ledgers_that_grow_and_ledgers_that_do_not():
    # run_sim sizes its ledgers from the trace and doubles them when a
    # window's packets do not fit. Runs with many drops send more packets
    # than that first size, so the digests check both paths.
    scenarios = _scenarios()
    grew = {name for name in GOLDEN if _log(name).n_sent > ledger_capacity(scenarios[name])}
    assert grew and grew != set(GOLDEN), grew


def test_trail_times_are_python_ints():
    # run_sim reads ack times out of the window's int64 rows with .item. A
    # numpy scalar that leaked into a trail would change its hashed repr;
    # this names the cause where a digest would only mismatch. The run has
    # three flows, and two first ticks scheduled at ack times.
    log = _log("two-activations-one-window")
    assert log.tick_t_us and log.cwnd_t_us
    assert {type(t) for t in log.tick_t_us + log.cwnd_t_us} == {int}


def test_every_scenario_has_a_frozen_digest():
    assert set(GOLDEN) == set(_scenarios())
