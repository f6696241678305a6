#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a ccguard checkout:

    python3 perfbench/selftest.py

* The host-speed sampler samples a busy loop and reports a speed factor.
* A tiny-horizon pass over every workload, untraced and traced, must emit
  every metric BENCHMARK.json names, with its unit, and pass its checks.
* In the traced pass, the layer self times plus ``trace.unattributed_s``
  must add up to ``trace.wall_s``.
* A run is compared with the digest and sim values recorded for it, and
  reference.json is not used for other workload parameters.
* A tampered packet ledger, and a replay that differs between iterations,
  must each be caught and counted as failed iterations.
* Without ccguard's sources next to it, the benchmark must exit non-zero
  and print no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

import calibrate
import run

run.import_program()

from ccguard import cli, netsim  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import CellMix, Steady, StepUp  # noqa: E402


def tiny_workloads():
    return [
        Steady(horizon_s=4.0, warmup_s=2.0, n_seeds=2),
        StepUp(horizon_s=22.0),
        CellMix(loop_s=4, horizon_s=2.0, warmup_s=1.0, stagger_s=0.2),
    ]


def quiet_measure(wl, seed=3, seconds=0.0, trace=False, ref=None):
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.measure(wl, seed, seconds, trace, warmup_s=0.0, ref=ref)
        line = run.report(result, trace)
    return result, line


def check_emitted(spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        for wl in tiny_workloads():
            result, line = quiet_measure(wl, trace=trace)
            assert line["correct"], (wl.name, result["iterations"])
            assert line["attempted"] == 1 + (2 if trace else wl.variants), line
            json.loads(json.dumps(line), parse_constant=_no_constant)
            for m in spec[key]:
                got = line["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (wl.name, m, got)
                assert isinstance(got["value"], (int, float)), (wl.name, m, got)
            assert set(line["metrics"]) == {m["name"] for m in spec[key]}, wl.name
            if trace:
                layer = result["per_layer"]
                parts = sum(layer[v] for v in tracing.LAYER_TIMES.values())
                total = parts + layer["trace.unattributed_s"]
                assert math.isclose(total, layer["trace.wall_s"], rel_tol=1e-9), (
                    wl.name, total, layer["trace.wall_s"])
                assert layer["netsim.run_s"] > 0 and layer["traces.build_s"] > 0, wl.name
                if isinstance(wl, StepUp):
                    assert layer["metrics.t90_s"] > 0, layer
            print(f"ok: {wl.name} trace={int(trace)} emits all {key} metrics")


def check_sampler() -> None:
    with calibrate.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.45:
            calibrate.event_loop(100)
        wall = time.perf_counter() - t0
    assert len(sampler.samples) >= 3, sampler.samples
    assert 0 < sampler.busy_s < 0.2 * wall, (sampler.busy_s, wall)
    assert 0 < sampler.speed_factor() < 100, sampler.speed_factor()
    print(f"ok: the sampler took {len(sampler.samples)} samples in {wall:.2f} s")


def _no_constant(name):
    raise ValueError(f"non-finite value {name} in the result line")


@contextlib.contextmanager
def patched_run_sim(tamper):
    """Rebind run_sim where the workloads look it up; ``tamper(log, n)``
    edits the n-th log a workload gets back."""
    original = netsim.run_sim
    calls = [0]

    def wrapper(cfg):
        log = original(cfg)
        tamper(log, calls[0])
        calls[0] += 1
        return log

    netsim.run_sim = cli.run_sim = wrapper
    try:
        yield
    finally:
        netsim.run_sim = cli.run_sim = original


def move_delivery_before_send(log, n):
    pid = max(i for i, d in enumerate(log.p_delivered_us) if d >= 0)
    assert log.p_sent_us[pid] > 0
    log.p_delivered_us[pid] = log.p_sent_us[pid] - 1


def check_tamper_caught() -> None:
    for wl in tiny_workloads():
        with patched_run_sim(move_delivery_before_send):
            result, line = quiet_measure(wl)
        assert not line["correct"] and line["failed"] == line["attempted"], line
        assert result["end_to_end"]["fail_ratio"] == 1.0
        assert line["metrics"]["pass_ratio"]["value"] == 0.0
        problems = result["iterations"][-1]["problems"]
        assert any("RTT" in p for p in problems), problems
        print(f"ok: {wl.name} tampered ledger counted in fail_ratio")


def check_replay_mismatch_caught() -> None:
    # Only the last simulation (the traced one) differs, and only in its cwnd
    # trail, so every invariant holds and just the replay digest can catch it.
    def tamper(log, n):
        if n == 2:
            log.cwnd_val[-1] += 1.0

    wl = Steady(horizon_s=4.0, warmup_s=2.0, n_seeds=2)
    with patched_run_sim(tamper):
        result, line = quiet_measure(wl, trace=True)
    assert line["attempted"] == 3 and line["failed"] == 1, line
    assert result["iterations"][2]["problems"] == ["replay digest differs from iteration 0"]
    print("ok: a replay that differs between iterations is counted as failed")


def check_reference() -> None:
    wl = Steady(horizon_s=4.0, warmup_s=2.0, n_seeds=2)
    assert reference.lookup(wl, 3) is None  # recorded for other parameters
    ref = reference.record(wl, 3)
    result, line = quiet_measure(wl, ref=ref)
    assert result["reference_digest_match"] is True, result
    for rel in reference.RELATIVE.values():
        assert line["metrics"][rel]["value"] == 1.0, (rel, line)
    changed = {**ref, "digest": "0" * 64, "sim_p95_qdelay_ms": ref["sim_p95_qdelay_ms"] / 2}
    result, line = quiet_measure(wl, ref=changed)
    assert result["reference_digest_match"] is False, result
    assert line["metrics"]["sim_p95_qdelay_rel"]["value"] == 2.0, line
    print("ok: the run is compared with its reference.json entry")


def check_refuses_without_program() -> None:
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok: without ccguard sources the benchmark exits {proc.returncode}, no result")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_sampler()
    check_emitted(spec)
    check_tamper_caught()
    check_replay_mismatch_caught()
    check_reference()
    check_refuses_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
