#!/usr/bin/env python3
"""ccguard benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 22 --trace 0

Run it from the root of a ccguard checkout; it imports ccguard from ``src/``
and fails (exit 2) without printing a result when that is missing.

The load is a closed loop on one thread: iterations of the workload's batch
job run back to back, first for a warm-up of WARMUP_S seconds that is
checked but not timed, then until ``--seconds`` more have passed and every
variant of the workload has been measured. Iterations cycle through the
workload's variants. Every iteration's outputs are checked and its replay
digest must match that of the first iteration of the same variant; an
iteration failing either counts as failed. During untraced iterations
calibrate.Sampler times a fixed pure-Python loop ten times a second, to
follow the host's speed.

``--trace 0`` reports the end-to-end metrics from the untraced iterations
after the warm-up. Walls and rates leave out the time the samples took.
Rates are taken per variant (the median over its iterations) and averaged
over the variants. ``norm_pkts_per_s`` scales each iteration's rate by the
host speed sampled during it, so it reads the same on a host that runs
slower or faster for a while; the raw ``pkts_per_s`` is printed too. The
``*_rel`` metrics divide the simulated outcome by the one reference.json
recorded for the same workload and seed. ``--trace 1`` alternates untraced
and traced iterations (the traced ones with each layer's entry points
rebound, see tracing.py) and reports per-layer metrics from the traced
iteration with the median wall time; ``trace.overhead_s`` is the median
over traced iterations of their wall time minus that of the untraced
iteration just before.

Human-readable lines go to stdout first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The full record
(environment stamp, every iteration, replay digest, spans) is written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Iterations before the measured window. On a 2-core cloud VM the first
# 10-20 s of a process ran 20-30% slower than the rest, run after run, which
# made the median depend on how many early iterations a run held. Warm-up
# iterations are still checked and counted in attempted/failed.
WARMUP_S = 10.0

# Interpreter starts timed per untraced run: two before the first iteration,
# one after each, topped up at the end. Spreading them over the run keeps one
# slow moment of a shared host from swaying their median.
SETUP_REPEATS = 10

# The result line's metric names and units.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Printed and recorded with the end-to-end metrics, but left out of the
# result line. pkts_per_s moves with the host's speed, which drifted by 30%
# within seconds on a shared 2-vCPU VM, and wall_s also with the seed's
# packet count; norm_pkts_per_s is their gated form. The sim_* values are
# exact for a seed, but they differ from seed to seed (the guardian's explore/cut cycle, the seeded cell trace) by
# more than a gated metric's spread over ten seeds may be. The result line
# carries them as *_rel instead, divided by reference.json's values for the
# same seed, so they read 1 on every seed while behaviour is unchanged.
# fail_ratio is 0 when all is well, so the result line carries 1 - fail_ratio.
ALSO_PRINTED = {
    "pkts_per_s": "pkt/s",
    "wall_s": "s",
    "fail_ratio": "ratio",
    "sim_utilization": "ratio",
    "sim_p95_qdelay_ms": "ms",
    "sim_jain_index": "ratio",
}


def import_program():
    """Import ccguard from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ccguard", "__init__.py")):
        print(f"perfbench: no ccguard sources in {SRC}; run from a ccguard checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ccguard

    if os.path.dirname(os.path.dirname(os.path.abspath(ccguard.__file__))) != SRC:
        print(f"perfbench: imported ccguard from {ccguard.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return ccguard


def time_setup(modules) -> float:
    """Fresh interpreter start plus the imports a workload's first call needs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(ccguard) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ccguard": ccguard.__version__,
        "git_commit": git_commit(),
    }


def tail_percentile(n: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def run_iteration(wl, rec, iteration_id: int, keep_logs: bool, sample: bool):
    """Run one iteration; return its wall time (without the sampler's), the
    host's speed factor during it (None unsampled) and its Outcome."""
    import calibrate
    from workloads import Outcome

    reset = getattr(wl, "reset", None)
    if reset is not None:
        reset()
    out = Outcome(keep_logs=keep_logs)
    with calibrate.Sampler() if sample else contextlib.nullcontext() as sampler:
        t0 = time.perf_counter()
        try:
            with rec.iteration(iteration_id):
                wl.iterate(out, rec, iteration_id % wl.variants)
        except Exception:
            out.problems.append(traceback.format_exc(limit=4))
        wall = time.perf_counter() - t0
    if sampler is None:
        return wall, None, out
    return wall - sampler.busy_s, sampler.speed_factor(), out


def mean_of_variant_medians(values_by_variant: dict) -> float:
    medians = [statistics.median(v) for v in values_by_variant.values()]
    return sum(medians) / len(medians)


def measure(wl, seed: int, seconds: float, trace: bool, warmup_s: float = WARMUP_S,
            ref: dict | None = None) -> dict:
    """Warm up for ``warmup_s``, run ``wl`` for ``seconds`` more and return
    the full result record. ``ref`` is the seed's entry in reference.json."""
    import reference
    import tracing
    from workloads import combine

    load_before = os.getloadavg()[0]
    setup = [] if trace else [time_setup(wl.modules) for _ in range(2)]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    iterations = []  # (phase, wall_s, speed factor, Outcome)
    rec = tracing.Recorder()

    def untraced(phase):
        iterations.append((phase, *run_iteration(
            wl, tracing.NullRecorder(), len(iterations), False, True)))
        if not trace:
            setup.append(time_setup(wl.modules))

    try:
        wl.prepare(seed, workdir)
        t0 = time.perf_counter()
        while not iterations or time.perf_counter() - t0 < warmup_s:
            untraced("warmup")
        t0 = time.perf_counter()
        measured = 0
        last_traced = None
        while (measured < (2 if trace else wl.variants) or len(iterations) < wl.variants
               or time.perf_counter() - t0 < seconds):
            if trace and measured % 2:
                if last_traced is not None:  # only the last traced run is replayed
                    last_traced.logs.clear()
                rec.install()
                try:
                    wall, _, last_traced = run_iteration(
                        wl, rec, len(iterations), True, False)
                finally:
                    rec.uninstall()
                iterations.append(("traced", wall, None, last_traced))
            else:
                untraced("measured")
            measured += 1
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            last_logs = last_traced.logs
            replayed = tracing.replay(last_logs[0], wl.build_schedule)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        setup += [time_setup(wl.modules) for _ in range(SETUP_REPEATS - len(setup))]

    # The first iteration of each variant is the one the others must replay.
    firsts = [out for *_, out in iterations[:wl.variants]]
    records = []
    for i, (phase, wall, factor, out) in enumerate(iterations):
        problems = list(out.problems)
        if out.digest != firsts[i % wl.variants].digest:
            problems.append(f"replay digest differs from iteration {i % wl.variants}")
        records.append({"iteration": i, "phase": phase, "wall_s": wall,
                        "sent": out.sent, "digest": out.digest,
                        "speed_factor": factor, "problems": problems})
    failed = sum(1 for r in records if r["problems"])
    untraced_runs = [r for r in records if r["phase"] == "measured"]
    walls = [r["wall_s"] for r in untraced_runs]
    raw, norm = {}, {}
    for r in untraced_runs:
        rate = r["sent"] / r["wall_s"]
        raw.setdefault(r["iteration"] % wl.variants, []).append(rate)
        norm.setdefault(r["iteration"] % wl.variants, []).append(
            rate * r["speed_factor"])
    try:
        run_digest, sim = combine(firsts)
    except (IndexError, ZeroDivisionError):  # an iteration raised before its summary
        run_digest, sim = None, dict.fromkeys(reference.RELATIVE, math.nan)

    end_to_end = {
        "wall_s": statistics.median(walls),
        "pkts_per_s": mean_of_variant_medians(raw),
        "norm_pkts_per_s": mean_of_variant_medians(norm),
        "setup_s": statistics.median(setup) if setup else math.nan,
        "peak_rss_mib": peak_rss_mib,
        "pass_ratio": (len(records) - failed) / len(records),
        "fail_ratio": failed / len(records),
        **sim,
    }
    end_to_end.update(reference.relative(end_to_end, ref))
    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(records),
        "failed": failed,
        "digest": run_digest,
        "reference_digest_match": None if ref is None else run_digest == ref["digest"],
        "wall_s_samples": len(walls),
        "wall_s_tail_percentile": tail_percentile(len(walls)),
        "setup_s_samples": setup,
        "end_to_end": end_to_end,
        "iterations": records,
    }
    p = result["wall_s_tail_percentile"]
    if p is not None:
        result["wall_s_tail"] = statistics.quantiles(walls, n=1000)[round(p * 10) - 1]
    if trace:
        traced_ids = sorted((r["wall_s"], r["iteration"]) for r in records
                            if r["phase"] == "traced")
        chosen = traced_ids[len(traced_ids) // 2][1]
        layer = rec.iteration_times(chosen)
        layer.update(tracing.log_counts(last_logs, layer["netsim.run_s"]))
        layer.update(replayed)
        layer["cli.bytes_written"] = iterations[chosen][-1].bytes_written
        # Each traced iteration against the untraced one just before it, so
        # that host drift over the run cancels out.
        layer["trace.overhead_s"] = statistics.median(
            r["wall_s"] - records[r["iteration"] - 1]["wall_s"]
            for r in records if r["phase"] == "traced")
        layer["sim_utilization"] = end_to_end["sim_utilization"]
        layer["sim_p95_qdelay_ms"] = end_to_end["sim_p95_qdelay_ms"]
        result["per_layer"] = layer
        result["traced_iteration"] = chosen
        result["spans"] = rec.spans
    result["load_1m_before"] = load_before
    result["load_1m_after"] = os.getloadavg()[0]
    return result


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the final JSON line's object."""
    units = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} iterations, {result['failed']} failed, "
          f"replay digest {str(result['digest'])[:16]}")
    match = result["reference_digest_match"]
    print("  replay digest " + (
        "has no entry in reference.json; the *_rel metrics read 1" if match is None
        else "matches reference.json" if match else "DIFFERS from reference.json"))
    for name, unit in (units if trace else {**END_TO_END, **ALSO_PRINTED}).items():
        print(f"  {name:28s} {values[name]:>14.6g} {unit}")
    if not trace:
        tail = result.get("wall_s_tail")
        tail_text = (f"p{result['wall_s_tail_percentile']:g} {tail:.4f} s" if tail is not None
                     else "too few for a tail percentile with 10 samples beyond it")
        print(f"  wall_s is the median of {result['wall_s_samples']} iterations; {tail_text}")
    for r in result["iterations"]:
        for problem in r["problems"]:
            print(f"  iteration {r['iteration']} FAILED: {problem}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def write_record(result: dict, env: dict) -> str:
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(
        OUT, "results",
        f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json",
    )
    with open(path, "w") as fh:
        json.dump({"environment": env, **result}, fh, indent=1)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    ccguard = import_program()
    import reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    result = measure(wl, args.seed, args.seconds, bool(args.trace),
                     ref=reference.lookup(wl, args.seed))
    line = report(result, bool(args.trace))
    record = write_record(result, environment(ccguard))
    print(f"  record: {os.path.relpath(record, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
