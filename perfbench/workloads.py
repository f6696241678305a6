"""The benchmark's workloads, their seeded inputs and their output checks.

Each workload is one closed-loop batch job: ``iterate`` runs it once, start
to finish, through ccguard's public functions only, and checks every output
it produced. The unit of work is a simulated packet (``SimLog.n_sent``,
summed over the iteration's simulations).

* ``steady``   one guarded flow, constant 300 Mbps, unbounded buffer (gate 1
               and gate 3): the event loop does nearly all the work. A run
               cycles through several simulation seeds, because the cost
               per packet differs by up to 45% from one seed to another.
* ``step-up``  one guarded flow through a 100 -> 720 Mbps step (gate 5): the
               1.67 M-opportunity step trace is synthesized in every
               iteration and sets the peak memory.
* ``cell-mix`` ``ccguard run`` in-process on a generated mahimahi trace file
               and INI, three seeds per invocation: trace parsing, the
               loss/dup-ack path, the multi-flow queue, the CLI writers.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shutil

import numpy as np

from ccguard import cli, experiments, metrics, netsim, theory, traces


def log_digest(log: netsim.SimLog) -> str:
    """Replay digest of one run: the three packet ledgers plus the guardian
    multiplier trail and the cwnd trail (the fields the acceptance suite
    hashes in gate 9)."""
    h = hashlib.sha256()
    h.update(bytes(log.p_sent_us))
    h.update(bytes(log.p_delivered_us))
    h.update(bytes(log.p_dropped_us))
    h.update(repr(log.tick_multiplier).encode())
    h.update(repr(log.cwnd_val).encode())
    return h.hexdigest()


def check_log(log: netsim.SimLog) -> list[str]:
    """Simulator invariants that must hold for every run; returns problems."""
    problems = []
    try:
        log.check_conservation()
    except netsim.SimulationError as exc:
        problems.append(str(exc))
    cfg = log.config
    flow = np.frombuffer(log.p_flow, dtype=np.int16)
    sent = np.frombuffer(log.p_sent_us, dtype=np.int64)
    dlv = np.frombuffer(log.p_delivered_us, dtype=np.int64)
    ok = dlv >= 0
    if np.count_nonzero(ok) != log.n_delivered:
        problems.append("delivery ledger disagrees with the delivered counter")
    for fi, flow_id in enumerate(log.flow_ids):
        # Packet ids grow with each flow's sequence numbers, so a flow's
        # deliveries in id order must never go back in time.
        d = dlv[(flow == fi) & ok]
        if np.any(np.diff(d) < 0):
            problems.append(f"{flow_id}: deliveries out of sequence order")
    owd_us = round(cfg.one_way_delay_s * netsim.US_PER_S)
    if np.any(dlv[ok] - sent[ok] < owd_us):
        problems.append("an RTT sample is below twice the one-way delay")
    # Deliveries happen at instants in (0, duration]; capacity_delivered
    # counts the half-open [t0, t1), so close the window one microsecond late.
    capacity = traces.capacity_delivered(cfg.schedule, 0.0, cfg.duration_s + 1e-6)
    if log.n_delivered > capacity:
        problems.append(f"{log.n_delivered} deliveries exceed {capacity} opportunities")
    return problems


@dataclasses.dataclass
class Outcome:
    """What one iteration produced: work done, check results, the replay
    digest and the simulated outcome of its analysis windows."""

    sent: int = 0
    problems: list = dataclasses.field(default_factory=list)
    run_digests: list = dataclasses.field(default_factory=list)
    summaries: list = dataclasses.field(default_factory=list)
    logs: list = dataclasses.field(default_factory=list)
    keep_logs: bool = False
    bytes_written: int = 0

    def add_log(self, log: netsim.SimLog) -> None:
        self.sent += log.n_sent
        self.problems.extend(check_log(log))
        self.run_digests.append(log_digest(log))
        if self.keep_logs:
            self.logs.append(log)

    def add_summary(self, utilization, p95_queuing_delay_s, jain_index) -> None:
        self.summaries.append((utilization, p95_queuing_delay_s, jain_index))

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.run_digests).encode()).hexdigest()

    def sim_metrics(self) -> dict:
        """Analysis-window outcome, averaged over the iteration's runs."""
        cols = list(zip(*self.summaries))

        def mean(vals):
            vals = [v for v in vals if v is not None and math.isfinite(v)]
            return sum(vals) / len(vals) if vals else math.nan

        return {
            "sim_utilization": mean(cols[0]),
            "sim_p95_qdelay_ms": mean(cols[1]) * 1e3,
            "sim_jain_index": mean(cols[2]),
        }


def combine(outcomes: list[Outcome]) -> tuple[str, dict]:
    """A run's replay digest and simulated outcome from one iteration of each
    variant, in variant order: the digest hashes theirs, the sim metrics are
    their mean."""
    digest = hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest()
    sims = [o.sim_metrics() for o in outcomes]
    return digest, {k: sum(s[k] for s in sims) / len(sims) for k in sims[0]}


@dataclasses.dataclass
class Steady:
    """``experiments.steady_state`` plus the gate 1 and gate 3 checks and
    the per-second timeseries. Run seed ``s`` is ``n_seeds`` variants, the
    simulation seeds ``n_seeds * s`` to ``n_seeds * s + n_seeds - 1``; an
    iteration runs one of them."""

    horizon_s: float = 30.0
    warmup_s: float = 20.0
    n_seeds: int = 5
    name = "steady"
    modules = ("ccguard", "ccguard.experiments")

    @property
    def variants(self) -> int:
        return self.n_seeds

    def prepare(self, seed: int, workdir: str) -> None:
        self.seeds = [self.n_seeds * seed + k for k in range(self.n_seeds)]

    def build_schedule(self) -> traces.TraceSchedule:
        # The constant 300 Mbps schedule is the same for every seed.
        return experiments.steady_state(self.seeds[0], duration_s=self.horizon_s).schedule

    def iterate(self, out: Outcome, rec, variant: int) -> None:
        log = netsim.run_sim(
            experiments.steady_state(self.seeds[variant], duration_s=self.horizon_s))
        s = metrics.summarize(log, warmup_s=self.warmup_s)
        rows = metrics.timeseries(log)
        bound_s = theory.steady_state_delay_bound(
            experiments.bdp_packets(300.0), experiments.MIN_RTT_S
        )
        checks = theory.run_self_checks()
        with rec.span("bench.check"):
            out.add_log(log)
            out.add_summary(s.utilization, s.p95_queuing_delay_s, s.jain_index)
            # Gate 1's criterion: mean queuing delay within 5% of the bound.
            if not s.mean_queuing_delay_s <= 1.05 * bound_s:
                out.problems.append(
                    f"mean queuing delay {s.mean_queuing_delay_s:.4f} s exceeds the bound"
                )
            out.problems.extend(f"theory check failed: {r!r}" for r in checks if not r.ok)
            if len(rows) != math.ceil(self.horizon_s):
                out.problems.append(f"timeseries has {len(rows)} rows for {self.horizon_s} s")


@dataclasses.dataclass
class StepUp:
    """``experiments.step_up("stochastic", seed)`` cut to ``horizon_s``, then
    ``metrics.time_to_utilization`` from the step and ``summarize`` over the
    720 Mbps part."""

    horizon_s: float = 25.0
    name = "step-up"
    modules = ("ccguard", "ccguard.experiments")
    variants = 1
    step_at_s = 20.0  # where step_up's schedule jumps to 720 Mbps

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def build_schedule(self) -> traces.TraceSchedule:
        return experiments.step_up("stochastic", self.seed).schedule

    def iterate(self, out: Outcome, rec, variant: int) -> None:
        cfg = dataclasses.replace(
            experiments.step_up("stochastic", self.seed), duration_s=self.horizon_s)
        log = netsim.run_sim(cfg)
        t90 = metrics.time_to_utilization(log, 0.9, from_s=self.step_at_s, window_s=0.1)
        s = metrics.summarize(log, warmup_s=self.step_at_s)
        with rec.span("bench.check"):
            out.add_log(log)
            out.add_summary(s.utilization, s.p95_queuing_delay_s, s.jain_index)
            if t90 is None:
                out.problems.append("utilization never reached 90% after the step")


def write_cell_trace(path: str, rng: random.Random, loop_s: int, seg_ms: int) -> None:
    """Write a variable-rate mahimahi trace: the rate is redrawn uniformly in
    5-150 Mbps every ``seg_ms`` and each segment's opportunities are spread
    evenly across it."""
    per_ms = 1e6 / 1000 / (traces.PACKET_BYTES * 8)
    with open(path, "w") as fh:
        for k in range(loop_s * 1000 // seg_ms):
            n = round(rng.uniform(5.0, 150.0) * per_ms * seg_ms)
            base = k * seg_ms
            fh.write("".join(f"{base - (-i * seg_ms // n)}\n" for i in range(1, n + 1)))


@dataclasses.dataclass
class CellMix:
    """``ccguard run --config INI --seeds a,b,c`` on a generated cellular-like
    trace: two guarded flows and one plain AIMD flow, staggered starts, a
    400-packet buffer, 0.1 s timeseries bins."""

    loop_s: int = 120
    horizon_s: float = 20.0
    warmup_s: float = 10.0
    stagger_s: float = 2.0
    seg_ms = 100
    n_seeds = 3
    bin_s = 0.1
    buffer_pkts = 400
    name = "cell-mix"
    modules = ("ccguard", "ccguard.cli")
    variants = 1

    def prepare(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.trace_path = os.path.join(workdir, "cell.trace")
        write_cell_trace(self.trace_path, rng, self.loop_s, self.seg_ms)
        flows = [("guarded-a", "guarded"), ("guarded-b", "guarded"), ("aimd", "aimd")]
        sections = "".join(
            f"[flow:{fid}]\ncontroller = {ctl}\nstart_s = {i * self.stagger_s}\n\n"
            for i, (fid, ctl) in enumerate(flows)
        )
        ini = (
            f"[experiment]\nduration_s = {self.horizon_s}\nwarmup_s = {self.warmup_s}\n"
            f"bin_s = {self.bin_s}\n\n"
            f"[link]\ntrace = {self.trace_path}\none_way_delay_ms = 10\n"
            f"buffer_pkts = {self.buffer_pkts}\n\n" + sections
        )
        self.ini_path = os.path.join(workdir, "cell.ini")
        with open(self.ini_path, "w") as fh:
            fh.write(ini)
        self.n_flows = len(flows)
        self.seeds = [self.n_seeds * seed + k for k in range(self.n_seeds)]
        self.out_dir = os.path.join(workdir, "out")
        self.argv = [
            "run", "--config", self.ini_path,
            "--seeds", ",".join(map(str, self.seeds)), "--out", self.out_dir,
        ]

    def build_schedule(self) -> traces.TraceSchedule:
        return traces.from_spec(self.trace_path)

    def reset(self) -> None:
        """Remove the previous iteration's outputs (outside the timed part)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def iterate(self, out: Outcome, rec, variant: int) -> None:
        run_sim = cli.run_sim

        def capture(cfg):
            log = run_sim(cfg)
            with rec.span("bench.check"):
                out.add_log(log)
            return log

        cli.run_sim = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv)
        finally:
            cli.run_sim = run_sim
        with rec.span("bench.check"):
            if code != cli.EXIT_OK:
                out.problems.append(f"ccguard run exited with {code}")
                return
            self._check_outputs(out)

    def _check_outputs(self, out: Outcome) -> None:
        n_bins = math.ceil(self.horizon_s / self.bin_s - 1e-9)
        for seed in self.seeds:
            run_dir = os.path.join(self.out_dir, f"seed-{seed}")
            summary_path = os.path.join(run_dir, "summary.json")
            ts_path = os.path.join(run_dir, "timeseries.csv")
            try:
                with open(summary_path) as fh:
                    payload = json.load(fh, parse_constant=_reject_constant)
                with open(ts_path, newline="") as fh:
                    rows = list(csv.reader(fh))
            except (OSError, ValueError) as exc:
                out.problems.append(f"seed {seed}: unreadable output: {exc}")
                continue
            m = payload["metrics"]
            out.add_summary(m["utilization"], m["p95_queuing_delay_s"], m["jain_index"])
            if not rows or tuple(rows[0]) != metrics.TIMESERIES_COLUMNS:
                out.problems.append(f"seed {seed}: timeseries.csv header differs")
            if len(rows) - 1 != n_bins * self.n_flows:
                out.problems.append(
                    f"seed {seed}: timeseries.csv has {len(rows) - 1} rows, "
                    f"expected {n_bins * self.n_flows}"
                )
            out.bytes_written += os.path.getsize(summary_path) + os.path.getsize(ts_path)


def _reject_constant(name: str):
    raise ValueError(f"summary.json is not strict JSON: {name}")


WORKLOADS = {w.name: w for w in (Steady, StepUp, CellMix)}
