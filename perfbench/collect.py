#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it per workload.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one process at a time, with the
settings in BENCHMARK.json, then one traced run per workload. For every
(end-to-end metric, workload) pair, printed-only metrics included, it
records the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median. Per-seed replay digests are kept, with whether each matches
reference.json, so another commit's runs can be checked for identical
behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(
        run.OUT, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(record_path) as fh:
        record = json.load(fh)
    return line, record


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", required=True, help="summary JSON to write")
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        lines, records, digests, matches, loads = [], [], {}, {}, []
        for seed in seeds:
            line, record = run_once(name, seed, spec["run_seconds"], 0)
            lines.append(line)
            records.append(record)
            digests[seed] = record["digest"]
            matches[seed] = record["reference_digest_match"]
            loads.append((record["load_1m_before"], record["load_1m_after"]))
            summary["environment"] = record["environment"]
            values = "  ".join(f"{k} {v['value']:.6g}" for k, v in line["metrics"].items())
            print(f"{name} seed {seed}: correct={line['correct']}  {values}", flush=True)
        traced_line, _ = run_once(name, seeds[0], spec["run_seconds"], 1)
        summary["workloads"][name] = {
            "all_correct": all(ln["correct"] for ln in lines),
            "attempted": sum(ln["attempted"] for ln in lines),
            "failed": sum(ln["failed"] for ln in lines),
            "end_to_end": {
                metric: {"unit": unit, **summarize([r["end_to_end"][metric] for r in records])}
                for metric, unit in {**run.END_TO_END, **run.ALSO_PRINTED}.items()
            },
            "digests": digests,
            "reference_digest_match": matches,
            "load_1m_before_after": loads,
            f"per_layer_seed{seeds[0]}": {
                k: v["value"] for k, v in traced_line["metrics"].items()},
        }
        for m, s in summary["workloads"][name]["end_to_end"].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{name} {m}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {spread}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
