"""Command-line front end.

Subcommands:

* ``run``          one experiment (INI config and/or flags), writes
                   summary.json + timeseries.csv per seed
* ``sweep``        grid over one parameter x seeds, plus an aggregate CSV
* ``fairness``     staggered multi-flow run on one shared queue
* ``theory-check`` internal-consistency battery for the closed forms
* ``trace-gen``    write a mahimahi trace file from a compact spec

Exit codes: 0 success, 2 configuration error, 3 missing input file or failed
simulation check, 4 theory-check failure. Relative output directories resolve
against ``CCGUARD_OUTPUT_ROOT`` when it is set. Result files are written
atomically (temp file + rename), so a watcher never sees a half-written summary.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

from . import experiments, metrics, theory, traces
from .guardian import EXPLORATION_MODES, GuardianConfig
from .netsim import INFINITE_BUFFER, MAX_FLOWS, FlowSpec, SimConfig, SimulationError, run_sim

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_SIMULATION = 3
EXIT_THEORY = 4

# Most timeseries rows (flows x bins) a run may write.
MAX_TIMESERIES_ROWS = 2**20
# Timeseries rows formatted for the CSV at a time.
_CSV_CHUNK_ROWS = 2**16


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- utilities


@contextmanager
def _atomic_open(path: str):
    """A text file that appears at ``path`` only whole: written to a temp
    file, renamed on success and removed on failure. newline="" keeps the
    \r\n that csv ends each row in."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _write_csv(path: str, header, rows) -> None:
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _no_nan(obj):
    """JSON-friendly copy: NaN/inf become null (strict-JSON safe)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _no_nan(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_no_nan(v) for v in obj]
    return obj


def _out_root(path: str) -> str:
    root = os.environ.get("CCGUARD_OUTPUT_ROOT")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def parse_threshold(text: str) -> tuple[float | None, float | None]:
    """'1.5x' -> (1.5, None); '40ms' -> (None, 0.040); '0.04s' -> (None, 0.04)."""
    t = text.strip().lower()
    try:
        if t.endswith("x"):
            return _finite(t[:-1]), None
        if t.endswith("ms"):
            return None, _finite(t[:-2]) / 1000.0
        if t.endswith("s"):
            return None, _finite(t[:-1])
    except ValueError:
        pass
    raise ConfigError(f"threshold must look like '1.5x', '40ms' or '0.04s': {text!r}")


def _parse_buffer(text: str) -> int:
    t = text.strip().lower()
    if t in ("infinite", "inf"):
        return INFINITE_BUFFER
    try:
        return int(t)
    except ValueError:
        raise ConfigError(f"buffer_pkts must be an integer or 'infinite': {text!r}")


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.replace(" ", "").split(",") if s]
    except ValueError:
        raise ConfigError(f"seeds must be comma-separated integers: {text!r}")
    if not seeds:
        raise ConfigError("seeds must name at least one seed")
    return seeds


def _exploration(text: str) -> str:
    if text not in EXPLORATION_MODES:
        raise ValueError(f"must be one of {EXPLORATION_MODES}")
    return text


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


# ------------------------------------------------------------ configuration

# Every accepted INI option. [flow] holds the options every flow starts
# from; each [flow:NAME] section adds one flow and overrides them.
_SECTION_KEYS = {
    "experiment": {"duration_s", "warmup_s", "bin_s", "seeds"},
    "link": {"trace", "one_way_delay_ms", "buffer_pkts"},
}

# The parser of each [flow] option, by the dataclass field it sets. An unset
# option keeps the dataclass default; threshold sets two GuardianConfig fields.
_FLOW_SPEC_OPTIONS = {
    "controller": str, "start_s": _finite, "cwnd_init": _finite, "cwnd_floor": _finite,
    "ssthresh_init": _finite, "start_in_avoidance": _parse_bool,
}
_GUARDIAN_OPTIONS = {"exploration": _exploration, "slowdown": _parse_bool, "mitigation": _parse_bool}
_FLOW_KEYS = {"threshold", *_FLOW_SPEC_OPTIONS, *_GUARDIAN_OPTIONS}


def _parser() -> configparser.ConfigParser:
    # Values are taken literally: flags are written into the same parser,
    # and a '%' in a trace path must not start an interpolation.
    return configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)


def load_ini(path: str) -> configparser.ConfigParser:
    """Read an experiment INI, rejecting unknown sections and options."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    cp = _parser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    for section in cp.sections():
        if section == "flow" or section.startswith("flow:"):
            known = _FLOW_KEYS
        elif section in _SECTION_KEYS:
            known = _SECTION_KEYS[section]
        else:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = set(cp[section]) - known
        if unknown:
            raise ConfigError(f"{path}: unknown [{section}] option(s): {sorted(unknown)}")
    return cp


def _read_config(args: argparse.Namespace) -> configparser.ConfigParser:
    """The INI file, if any, with each given flag written over the key its
    dest names; of --seed and --seeds, the later one given wins."""
    cp = load_ini(args.config) if args.config else _parser()
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, option = dest.split(".")
            cp.read_dict({section: {option: value}})
    return cp


def _typed(where: str, opts, option: str, parse, default=None):
    """``parse`` applied to one option's text, or ``default`` when unset."""
    text = opts.get(option)
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"[{where}] {option} = {text!r}: {exc}") from None


def _options(where: str, opts, parsers: dict) -> dict:
    return {key: _typed(where, opts, key, parse) for key, parse in parsers.items() if key in opts}


def _flow(flow_id: str, where: str, opts) -> FlowSpec:
    guardian = _options(where, opts, _GUARDIAN_OPTIONS)
    if "threshold" in opts:
        mult, fixed = _typed(where, opts, "threshold", parse_threshold)
        guardian.update(threshold_multiplier=mult, threshold_fixed_s=fixed)
    return FlowSpec(flow_id=flow_id, guardian=GuardianConfig(**guardian),
                    **_options(where, opts, _FLOW_SPEC_OPTIONS))


def build_sim_config(cp: configparser.ConfigParser) -> tuple[SimConfig, dict, list[int]]:
    """Type and validate every value of a merged config. Returns the
    simulation, seeded with the first seed; the analysis options; and the
    seeds to run."""
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    link = cp["link"] if cp.has_section("link") else {}
    seeds = _typed("experiment", exp, "seeds", _parse_seeds, [1])
    trace_spec = link.get("trace", "constant:300@1")
    schedule = traces.from_spec(trace_spec)
    duration_s = _typed("experiment", exp, "duration_s", _finite, 30.0)
    warmup_s = _typed("experiment", exp, "warmup_s", _finite, metrics.DEFAULT_WARMUP_S)
    if not 0.0 <= warmup_s < duration_s:
        raise ConfigError("need 0 <= warmup_s < duration_s")
    bin_s = _typed("experiment", exp, "bin_s", _finite, 1.0)
    if round(bin_s * traces.US_PER_S) < 1:
        raise ConfigError("bin_s must be at least 1 us")
    owd_s = _typed("link", link, "one_way_delay_ms", _finite, 10.0) / 1000.0
    if round(owd_s * traces.US_PER_S) < 1:
        raise ConfigError("[link] one_way_delay_ms must be at least 0.001 (1 us)")

    base = dict(cp["flow"]) if cp.has_section("flow") else {}
    named = [s for s in cp.sections() if s.startswith("flow:")]
    if named:
        flows = [_flow(s.split(":", 1)[1], s, {**base, **cp[s]}) for s in named]
    else:
        flows = [_flow("flow0", "flow", base)]
    rows = len(flows) * metrics.bin_count(duration_s, bin_s)
    if rows > MAX_TIMESERIES_ROWS:
        raise ConfigError(f"[experiment] bin_s = {bin_s:g} gives {rows} timeseries rows for "
                          f"{len(flows)} flow(s) over {duration_s:g} s; at most {MAX_TIMESERIES_ROWS}")
    sim = SimConfig(
        schedule=schedule,
        duration_s=duration_s,
        one_way_delay_s=owd_s,
        buffer_pkts=_typed("link", link, "buffer_pkts", _parse_buffer, experiments.DEEP_BUFFER),
        seed=seeds[0],
        flows=flows,
    )
    sim.validate()
    return sim, {"warmup_s": warmup_s, "bin_s": bin_s, "trace": trace_spec}, seeds


# ------------------------------------------------------------------ writers


def write_run_outputs(out_dir: str, log, analysis: dict) -> dict:
    sim_config = log.config
    os.makedirs(out_dir, exist_ok=True)
    summary = metrics.summarize(log, warmup_s=analysis["warmup_s"])
    payload = {
        "seed": sim_config.seed,
        "metrics": summary.to_dict(),
        "config": {
            "trace": analysis.get("trace"),
            "duration_s": sim_config.duration_s,
            "one_way_delay_s": sim_config.one_way_delay_s,
            "buffer_pkts": sim_config.buffer_pkts,
            "warmup_s": analysis["warmup_s"],
            "flows": [asdict(f) for f in sim_config.flows],
        },
        "counters": {
            "sent": log.n_sent,
            "delivered": log.n_delivered,
            "dropped": log.n_dropped,
            "in_queue": log.n_in_queue,
            "in_flight": log.n_in_flight,
        },
        "min_rtt_s": log.min_rtt_s,
        "threshold_raised": metrics.threshold_raised(log),
    }
    with _atomic_open(os.path.join(out_dir, "summary.json")) as fh:
        fh.write(json.dumps(_no_nan(payload), indent=2, sort_keys=True) + "\n")
    rows = metrics.timeseries(log, bin_s=analysis["bin_s"])
    _write_csv(os.path.join(out_dir, "timeseries.csv"), metrics.TIMESERIES_COLUMNS,
               _csv_rows(rows))
    return payload


def _csv_rows(rows):
    """The text of a structured array's rows, formatted a column at a time
    in chunks of ``_CSV_CHUNK_ROWS``."""
    for lo in range(0, len(rows), _CSV_CHUNK_ROWS):
        chunk = rows[lo:lo + _CSV_CHUNK_ROWS]
        yield from zip(*(_column_text(chunk[name]) for name in chunk.dtype.names))


def _column_text(col) -> list:
    """One column's cells: floats to 10 significant digits, other values as
    they are, for the csv writer to str()."""
    values = col.tolist()
    if col.dtype.kind == "f":
        return [format(v, ".10g") for v in values]
    return values


# --------------------------------------------------------------- commands


def cmd_run(args: argparse.Namespace) -> int:
    sim, analysis, seeds = build_sim_config(_read_config(args))
    out_dir = _out_root(args.out)
    for seed in seeds:
        run = replace(sim, seed=seed)
        log = run_sim(run)
        run_dir = out_dir if len(seeds) == 1 else os.path.join(out_dir, f"seed-{seed}")
        payload = write_run_outputs(run_dir, log, analysis)
        m = payload["metrics"]
        print(
            f"seed {seed}: {m['throughput_mbps']:.1f} Mbps, "
            f"util {m['utilization']:.3f}, "
            f"p95 RTT {m['p95_rtt_s'] * 1e3:.1f} ms -> {run_dir}"
        )
    return EXIT_OK


SWEEP_PARAMS = ("buffer_pkts", "threshold", "intrinsic_rtt_ms", "rate_mbps")


def cmd_sweep(args: argparse.Namespace) -> int:
    cp = _read_config(args)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ConfigError("sweep needs at least one value")
    # Every value's config is built and checked before the first run, so a
    # bad value exits 2 with nothing written.
    runs = []
    for value in values:
        if args.param == "buffer_pkts":
            cp.read_dict({"link": {"buffer_pkts": value}})
        elif args.param == "threshold":
            cp.read_dict({"flow": {"threshold": value}})
        elif args.param == "intrinsic_rtt_ms":
            # Varying the propagation delay moves three knobs together:
            # the path itself, the delay threshold (kept at 1.5x the new
            # RTT), and the buffer (one bandwidth-delay product deep).
            try:
                rtt_ms = _finite(value)
            except ValueError:
                raise ConfigError(f"intrinsic_rtt_ms value {value!r} is not a finite number")
            cp.read_dict({"link": {"one_way_delay_ms": repr(rtt_ms / 2)},
                          "flow": {"threshold": "1.5x"}})
        else:
            cp.read_dict({"link": {"trace": f"constant:{value}@1"}})
        sim, analysis, seeds = build_sim_config(cp)
        if args.param == "intrinsic_rtt_ms":
            rate_pps = sim.schedule.mean_rate_mbps() * 1e6 / (8 * traces.PACKET_BYTES)
            sim = replace(sim, buffer_pkts=max(1, round(rate_pps * rtt_ms * 1e-3)))
        runs.append((value, sim, analysis, seeds))
    out_dir = _out_root(args.out)
    agg_rows = []
    for value, sim, analysis, seeds in runs:
        for seed in seeds:
            run = replace(sim, seed=seed)
            log = run_sim(run)
            run_dir = os.path.join(out_dir, f"{args.param}-{value}", f"seed-{seed}")
            payload = write_run_outputs(run_dir, log, analysis)
            m = payload["metrics"]
            cells = (m["throughput_mbps"], m["utilization"], m["mean_rtt_s"] * 1e3,
                     m["p95_rtt_s"] * 1e3, m["mean_queuing_delay_s"] * 1e3, m["jain_index"])
            agg_rows.append([value, seed, *(format(v, ".10g") for v in cells)])
            print(f"{args.param}={value} seed={seed}: util {m['utilization']:.3f}")
    _write_csv(
        os.path.join(out_dir, "aggregate.csv"),
        [args.param, "seed", "throughput_mbps", "utilization",
         "mean_rtt_ms", "p95_rtt_ms", "mean_queuing_delay_ms", "jain_index"],
        agg_rows,
    )
    print(f"aggregate -> {os.path.join(out_dir, 'aggregate.csv')}")
    return EXIT_OK


def fairness_ini(args: argparse.Namespace) -> configparser.ConfigParser:
    """The INI of a ``fairness`` run: flow i starts i x gap in, and the
    analysis covers the final window."""
    if not 1 <= args.flows <= MAX_FLOWS:
        raise ConfigError(f"need 1 <= --flows <= {MAX_FLOWS}")
    cp = _parser()
    cp.read_dict({
        "experiment": {"duration_s": repr(args.duration),
                       "warmup_s": repr(args.duration - args.window),
                       "seeds": str(args.seed)},
        "link": {"trace": f"constant:{args.rate}@1"},
        **{f"flow:flow{i}": {"start_s": repr(i * args.gap_s)} for i in range(args.flows)},
    })
    return cp


def cmd_fairness(args: argparse.Namespace) -> int:
    sim, analysis, _ = build_sim_config(fairness_ini(args))
    log = run_sim(sim)
    out_dir = _out_root(args.out)
    payload = write_run_outputs(out_dir, log, analysis)
    jain = payload["metrics"]["jain_index"]
    print(f"jain index over final {args.window:g} s: {jain:.4f} -> {out_dir}")
    return EXIT_OK


def cmd_theory_check(args: argparse.Namespace) -> int:
    results = theory.run_self_checks()
    failures = [r for r in results if not r.ok]
    for r in results:
        print(repr(r))
    if failures:
        print(f"{len(failures)} check(s) failed")
        return EXIT_THEORY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_trace_gen(args: argparse.Namespace) -> int:
    schedule = traces.from_spec(args.spec)
    out = _out_root(args.out)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    traces.write_trace(schedule, out)
    print(
        f"{schedule.opportunities_per_loop} opportunities, loop {schedule.loop_length_ms} ms, "
        f"mean rate {schedule.mean_rate_mbps():.3f} Mbps -> {out}"
    )
    return EXIT_OK


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccguard",
        description="Delay-guarded congestion control experiments on a trace-driven bottleneck.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI experiment file")

        def key_flag(flag: str, key: str, help: str, **kwargs) -> None:
            # The dest is the SECTION.OPTION the flag writes over the file.
            p.add_argument(flag, dest=key, metavar=key, help=help, **kwargs)

        key_flag("--trace", "link.trace", "trace spec (constant:RATE@DUR, step:..., or a file path)")
        key_flag("--duration", "experiment.duration_s", "simulated seconds")
        key_flag("--seed", "experiment.seeds", "single seed")
        key_flag("--seeds", "experiment.seeds", "comma-separated seeds (one run dir each)")
        key_flag("--owd-ms", "link.one_way_delay_ms", "one-way propagation delay, ms")
        key_flag("--buffer", "link.buffer_pkts", "bottleneck buffer in packets, or 'infinite'")
        key_flag("--controller", "flow.controller", "%(choices)s", choices=("guarded", "aimd"))
        key_flag("--threshold", "flow.threshold", "delay threshold: '1.5x', '40ms', ...")
        key_flag("--exploration", "flow.exploration", "%(choices)s", choices=EXPLORATION_MODES)
        key_flag("--slowdown", "flow.slowdown", "%(choices)s", choices=("on", "off"))
        key_flag("--mitigation", "flow.mitigation", "%(choices)s", choices=("on", "off"))
        key_flag("--warmup", "experiment.warmup_s", "analysis warmup seconds")
        key_flag("--bin-s", "experiment.bin_s", "timeseries bin seconds")

    run_p = sub.add_parser("run", help="run one experiment")
    add_common(run_p)
    run_p.add_argument("--out", default="runs/run", help="output directory")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="grid over one parameter")
    add_common(sweep_p)
    sweep_p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out", default="runs/sweep", help="output directory")
    sweep_p.set_defaults(func=cmd_sweep)

    fair_p = sub.add_parser("fairness", help="staggered flows on one queue")
    fair_p.add_argument("--flows", type=int, default=experiments.FAIRNESS_FLOWS)
    fair_p.add_argument("--gap-s", dest="gap_s", type=float, default=experiments.FAIRNESS_GAP_S)
    fair_p.add_argument("--rate", type=float, default=experiments.FAIRNESS_RATE_MBPS)
    fair_p.add_argument("--duration", type=float, default=experiments.FAIRNESS_DURATION_S)
    fair_p.add_argument("--window", type=float, default=experiments.FAIRNESS_WINDOW_S,
                        help="final window for the fairness index, seconds")
    fair_p.add_argument("--seed", type=int, default=1)
    fair_p.add_argument("--out", default="runs/fairness", help="output directory")
    fair_p.set_defaults(func=cmd_fairness)

    theory_p = sub.add_parser("theory-check", help="verify the closed forms")
    theory_p.set_defaults(func=cmd_theory_check)

    gen_p = sub.add_parser("trace-gen", help="write a mahimahi trace file")
    gen_p.add_argument("--spec", required=True, help="constant:RATE@DUR or step:R@D,R@D,...")
    gen_p.add_argument("--out", required=True, help="output trace path")
    gen_p.set_defaults(func=cmd_trace_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
