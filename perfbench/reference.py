#!/usr/bin/env python3
"""Record each seed's replay digest and simulated outcome, for later commits
to be compared against:

    python3 perfbench/reference.py --seeds 0-99 --out perfbench/reference.json

Runs one iteration of each variant of every workload per seed, one at a
time, and fails if any output check fails. ``run.py`` reads the file: for
a seed it holds, the ``*_rel`` metrics are the run's ``sim_*`` values
divided by the recorded ones, and the record says whether the replay
digest matches. An entry is
used only while the workload's parameters equal the recorded ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile

import run

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# (sim metric, gated metric): the gated one is the run's value over the
# recorded one, so it reads exactly 1 while behaviour is unchanged.
RELATIVE = {
    "sim_utilization": "sim_utilization_rel",
    "sim_p95_qdelay_ms": "sim_p95_qdelay_rel",
    "sim_jain_index": "sim_jain_index_rel",
}


def record(wl, seed: int) -> dict:
    """One untimed iteration of each variant of ``wl``: the run's digest and
    sim metrics."""
    import tracing
    from workloads import Outcome, combine

    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=run.OUT)
    outs = []
    try:
        wl.prepare(seed, workdir)
        for variant in range(wl.variants):
            outs.append(Outcome())
            wl.iterate(outs[-1], tracing.NullRecorder(), variant)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for out in outs for p in out.problems]
    if problems:
        raise RuntimeError(f"{wl.name} seed {seed}: {problems}")
    digest, sim = combine(outs)
    return {"digest": digest, **sim}


def lookup(wl, seed: int, path: str = PATH) -> dict | None:
    """The recorded entry for ``wl`` at ``seed``, or None."""
    try:
        with open(path) as fh:
            entry = json.load(fh)["workloads"].get(wl.name)
    except OSError:
        return None
    if entry is None or entry["params"] != dataclasses.asdict(wl):
        return None
    return entry["seeds"].get(str(seed))


def relative(sim: dict, ref: dict | None) -> dict:
    """The gated ``*_rel`` metrics; all 1.0 when there is no reference."""
    return {rel: sim[name] / ref[name] if ref else 1.0 for name, rel in RELATIVE.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-99", help="inclusive range, e.g. 0-99")
    ap.add_argument("--out", default=PATH)
    args = ap.parse_args()
    ccguard = run.import_program()
    from collect import parse_seeds
    from workloads import WORKLOADS

    result = {"environment": run.environment(ccguard), "workloads": {}}
    for name, cls in WORKLOADS.items():
        wl = cls()
        seeds = {}
        for seed in parse_seeds(args.seeds):
            seeds[str(seed)] = entry = record(wl, seed)
            assert all(entry[m] > 0 for m in RELATIVE), (name, seed, entry)
            print(f"{name} seed {seed}: {entry['digest'][:16]}", flush=True)
        result["workloads"][name] = {"params": dataclasses.asdict(wl), "seeds": seeds}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
