"""Command-line front end.

Subcommands:

* ``run``          one experiment (INI config and/or flags), writes
                   summary.json + timeseries.csv per seed
* ``sweep``        grid over one parameter x seeds, plus an aggregate CSV
* ``fairness``     staggered multi-flow run on one shared queue
* ``theory-check`` internal-consistency battery for the closed forms
* ``trace-gen``    write a mahimahi trace file from a compact spec

Exit codes: 0 success, 2 configuration error, 3 missing input file,
4 theory-check failure. Relative output directories resolve against
``CCGUARD_OUTPUT_ROOT`` when it is set. Result files are written atomically
(temp file + rename), so a watcher never sees a half-written summary.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

from . import experiments, metrics, theory, traces
from .guardian import EXPLORATION_MODES, GuardianConfig
from .netsim import INFINITE_BUFFER, FlowSpec, SimConfig, run_sim

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_THEORY = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- utilities


def _atomic_write(path: str, data: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


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
            return float(t[:-1]), None
        if t.endswith("ms"):
            return None, float(t[:-2]) / 1000.0
        if t.endswith("s"):
            return None, float(t[:-1])
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
        return [int(s) for s in text.replace(" ", "").split(",") if s]
    except ValueError:
        raise ConfigError(f"seeds must be comma-separated integers: {text!r}")


# ------------------------------------------------------------ configuration

_FLOW_KEYS = {
    "controller", "threshold", "exploration", "slowdown", "mitigation",
    "aimd", "cwnd_init", "cwnd_floor", "ssthresh_init",
    "start_in_avoidance", "start_s",
}
_SECTION_KEYS = {
    "experiment": {"duration_s", "warmup_s", "bin_s", "seeds", "seed", "name"},
    "link": {"trace", "one_way_delay_ms", "buffer_pkts", "per_flow_queues", "packet_bytes"},
}


def _flow_from_options(flow_id: str, opts: dict[str, str]) -> FlowSpec:
    unknown = set(opts) - _FLOW_KEYS
    if unknown:
        raise ConfigError(f"unknown flow option(s): {sorted(unknown)}")
    controller = opts.get("controller", "guarded")
    mult, fixed = parse_threshold(opts.get("threshold", "1.5x"))
    exploration = opts.get("exploration", "stochastic")
    if exploration not in EXPLORATION_MODES:
        raise ConfigError(f"exploration must be one of {EXPLORATION_MODES}")
    guardian = GuardianConfig(
        threshold_multiplier=mult,
        threshold_fixed_s=fixed,
        exploration=exploration,
        slowdown=_parse_bool(opts.get("slowdown", "on")),
        mitigation=_parse_bool(opts.get("mitigation", "on")),
    )
    try:
        return FlowSpec(
            flow_id=flow_id,
            controller=controller,
            start_s=float(opts.get("start_s", "0")),
            cwnd_init=float(opts.get("cwnd_init", "10")),
            cwnd_floor=float(opts.get("cwnd_floor", "2")),
            ssthresh_init=float(opts.get("ssthresh_init", "64")),
            start_in_avoidance=_parse_bool(opts.get("start_in_avoidance", "off")),
            aimd_enabled=_parse_bool(opts.get("aimd", "on")),
            guardian=guardian,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_ini(path: str) -> dict:
    """Read an experiment INI into a plain dict of settings."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    for section in cp.sections():
        if section in _SECTION_KEYS:
            unknown = set(cp[section]) - _SECTION_KEYS[section]
            if unknown:
                raise ConfigError(f"{path}: unknown [{section}] option(s): {sorted(unknown)}")
        elif section != "flow" and not section.startswith("flow:"):
            raise ConfigError(f"{path}: unknown section [{section}]")
    settings: dict = {"flow_base": {}, "extra_flows": []}
    if cp.has_section("experiment"):
        exp = cp["experiment"]
        if "duration_s" in exp:
            settings["duration_s"] = exp.getfloat("duration_s")
        if "warmup_s" in exp:
            settings["warmup_s"] = exp.getfloat("warmup_s")
        if "bin_s" in exp:
            settings["bin_s"] = exp.getfloat("bin_s")
        if "seeds" in exp:
            settings["seeds"] = _parse_seeds(exp["seeds"])
        elif "seed" in exp:
            settings["seeds"] = [exp.getint("seed")]
        if "name" in exp:
            settings["name"] = exp["name"]
    if cp.has_section("link"):
        link = cp["link"]
        if "trace" in link:
            settings["trace"] = link["trace"]
        if "one_way_delay_ms" in link:
            settings["one_way_delay_s"] = link.getfloat("one_way_delay_ms") / 1000.0
        if "buffer_pkts" in link:
            settings["buffer_pkts"] = _parse_buffer(link["buffer_pkts"])
        if "per_flow_queues" in link:
            settings["per_flow_queues"] = link.getboolean("per_flow_queues")
        if "packet_bytes" in link:
            settings["packet_bytes"] = link.getint("packet_bytes")
    if cp.has_section("flow"):
        settings["flow_base"] = dict(cp["flow"])
    for section in cp.sections():
        if section.startswith("flow:"):
            settings["extra_flows"].append((section.split(":", 1)[1], dict(cp[section])))
    return settings


def build_sim_config(settings: dict) -> tuple[SimConfig, dict]:
    """Resolve settings into a SimConfig plus analysis options."""
    trace_spec = settings.get("trace", "constant:300@1")
    schedule = traces.from_spec(trace_spec, settings.get("packet_bytes", 1500))
    base = dict(settings.get("flow_base") or {})
    extra = settings.get("extra_flows") or []
    if extra:
        flows = []
        for name, opts in extra:
            merged = {**base, **opts}
            flows.append(_flow_from_options(name, merged))
    else:
        flows = [_flow_from_options(base.get("flow_id", "flow0"), base)]
    sim = SimConfig(
        schedule=schedule,
        duration_s=settings.get("duration_s", 30.0),
        one_way_delay_s=settings.get("one_way_delay_s", 0.010),
        buffer_pkts=settings.get("buffer_pkts", experiments.DEEP_BUFFER),
        per_flow_queues=settings.get("per_flow_queues", False),
        packet_bytes=settings.get("packet_bytes", 1500),
        seed=settings.get("seeds", [1])[0],
        flows=flows,
    )
    try:
        sim.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    analysis = {
        "warmup_s": settings.get("warmup_s", metrics.DEFAULT_WARMUP_S),
        "bin_s": settings.get("bin_s", 1.0),
        "trace": trace_spec,
    }
    return sim, analysis


def _apply_flag_overrides(settings: dict, args: argparse.Namespace) -> None:
    if getattr(args, "trace", None):
        settings["trace"] = args.trace
    if getattr(args, "duration", None) is not None:
        settings["duration_s"] = args.duration
    if getattr(args, "owd_ms", None) is not None:
        settings["one_way_delay_s"] = args.owd_ms / 1000.0
    if getattr(args, "buffer", None):
        settings["buffer_pkts"] = _parse_buffer(args.buffer)
    if getattr(args, "warmup", None) is not None:
        settings["warmup_s"] = args.warmup
    if getattr(args, "bin_s", None) is not None:
        settings["bin_s"] = args.bin_s
    if getattr(args, "seeds", None):
        settings["seeds"] = _parse_seeds(args.seeds)
    elif getattr(args, "seed", None) is not None:
        settings["seeds"] = [args.seed]
    base = settings.setdefault("flow_base", {})
    for flag in ("controller", "threshold", "exploration"):
        val = getattr(args, flag, None)
        if val:
            base[flag] = val
    for flag in ("slowdown", "mitigation", "aimd"):
        val = getattr(args, flag, None)
        if val:
            base[flag] = val


# ------------------------------------------------------------------ writers


def write_run_outputs(out_dir: str, sim_config: SimConfig, log, analysis: dict) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    summary = metrics.summarize(log, warmup_s=analysis["warmup_s"])
    flow_specs = []
    for f in sim_config.flows:
        d = asdict(f)
        d["guardian"] = asdict(f.guardian)
        flow_specs.append(d)
    payload = {
        "seed": sim_config.seed,
        "metrics": summary.to_dict(),
        "config": {
            "trace": analysis.get("trace"),
            "duration_s": sim_config.duration_s,
            "one_way_delay_s": sim_config.one_way_delay_s,
            "buffer_pkts": sim_config.buffer_pkts,
            "per_flow_queues": sim_config.per_flow_queues,
            "packet_bytes": sim_config.packet_bytes,
            "warmup_s": analysis["warmup_s"],
            "flows": flow_specs,
        },
        "counters": {
            "sent": log.n_sent,
            "delivered": log.n_delivered,
            "dropped": log.n_dropped,
            "in_queue": log.n_in_queue,
            "in_flight": log.n_in_flight,
        },
        "min_rtt_s": log.min_rtt_s,
        "watermark_us": log.watermark_us,
        "threshold_raised": log.threshold_raised,
    }
    _atomic_write(
        os.path.join(out_dir, "summary.json"),
        json.dumps(_no_nan(payload), indent=2, sort_keys=True) + "\n",
    )
    rows = metrics.timeseries(log, bin_s=analysis["bin_s"])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(metrics.TIMESERIES_COLUMNS)
    for row in rows:
        writer.writerow(
            [_fmt(row[col]) if col not in ("flow_id", "zone") else row[col]
             for col in metrics.TIMESERIES_COLUMNS]
        )
    _atomic_write(os.path.join(out_dir, "timeseries.csv"), buf.getvalue())
    return payload


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


# --------------------------------------------------------------- commands


def cmd_run(args: argparse.Namespace) -> int:
    settings = load_ini(args.config) if args.config else {"flow_base": {}, "extra_flows": []}
    _apply_flag_overrides(settings, args)
    seeds = settings.get("seeds", [1])
    out_dir = _out_root(args.out)
    for seed in seeds:
        settings["seeds"] = [seed]
        sim, analysis = build_sim_config(settings)
        log = run_sim(sim)
        run_dir = out_dir if len(seeds) == 1 else os.path.join(out_dir, f"seed-{seed}")
        payload = write_run_outputs(run_dir, sim, log, analysis)
        m = payload["metrics"]
        print(
            f"seed {seed}: {m['throughput_mbps']:.1f} Mbps, "
            f"util {m['utilization']:.3f}, "
            f"p95 RTT {m['p95_rtt_s'] * 1e3:.1f} ms -> {run_dir}"
        )
    return EXIT_OK


SWEEP_PARAMS = ("buffer_pkts", "threshold", "intrinsic_rtt_ms", "rate_mbps")


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = load_ini(args.config) if args.config else {"flow_base": {}, "extra_flows": []}
    _apply_flag_overrides(settings, args)
    seeds = settings.get("seeds", [1])
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ConfigError("sweep needs at least one value")
    out_dir = _out_root(args.out)
    os.makedirs(out_dir, exist_ok=True)
    agg_rows = []
    for value in values:
        for seed in seeds:
            per_run = dict(settings)
            per_run["flow_base"] = dict(settings.get("flow_base") or {})
            per_run["seeds"] = [seed]
            if args.param == "buffer_pkts":
                per_run["buffer_pkts"] = _parse_buffer(value)
            elif args.param == "threshold":
                per_run["flow_base"]["threshold"] = value
            elif args.param == "intrinsic_rtt_ms":
                # Varying the propagation delay moves three knobs together:
                # the path itself, the delay threshold (kept at 1.5x the new
                # RTT), and the buffer (one bandwidth-delay product deep).
                try:
                    rtt_ms = float(value)
                except ValueError:
                    raise ConfigError(f"intrinsic_rtt_ms value {value!r} is not a number")
                if rtt_ms <= 0.0:
                    raise ConfigError("intrinsic_rtt_ms values must be positive")
                per_run["one_way_delay_s"] = rtt_ms / 2000.0
                per_run["flow_base"]["threshold"] = "1.5x"
                pkt_bytes = per_run.get("packet_bytes", 1500)
                sched = traces.from_spec(per_run.get("trace", "constant:300@1"), pkt_bytes)
                rate_pps = sched.mean_rate_mbps(pkt_bytes) * 1e6 / (8 * pkt_bytes)
                per_run["buffer_pkts"] = max(1, round(rate_pps * rtt_ms * 1e-3))
            else:
                per_run["trace"] = f"constant:{value}@1"
            sim, analysis = build_sim_config(per_run)
            log = run_sim(sim)
            run_dir = os.path.join(out_dir, f"{args.param}-{value}", f"seed-{seed}")
            payload = write_run_outputs(run_dir, sim, log, analysis)
            m = payload["metrics"]
            agg_rows.append(
                [value, seed, _fmt(m["throughput_mbps"]), _fmt(m["utilization"]),
                 _fmt(m["mean_rtt_s"] * 1e3), _fmt(m["p95_rtt_s"] * 1e3),
                 _fmt(m["mean_queuing_delay_s"] * 1e3), _fmt(m["jain_index"])]
            )
            print(f"{args.param}={value} seed={seed}: util {m['utilization']:.3f}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [args.param, "seed", "throughput_mbps", "utilization",
         "mean_rtt_ms", "p95_rtt_ms", "mean_queuing_delay_ms", "jain_index"]
    )
    writer.writerows(agg_rows)
    _atomic_write(os.path.join(out_dir, "aggregate.csv"), buf.getvalue())
    print(f"aggregate -> {os.path.join(out_dir, 'aggregate.csv')}")
    return EXIT_OK


def cmd_fairness(args: argparse.Namespace) -> int:
    sim = experiments.fairness(
        n_flows=args.flows, gap_s=args.gap_s, seed=args.seed,
        rate_mbps=args.rate, duration_s=args.duration,
    )
    log = run_sim(sim)
    analysis = {
        "warmup_s": args.duration - args.window,
        "bin_s": 1.0,
        "trace": f"constant:{args.rate}@1",
    }
    out_dir = _out_root(args.out)
    payload = write_run_outputs(out_dir, sim, log, analysis)
    jain = payload["metrics"]["jain_index"]
    print(f"jain index over final {args.window:.0f} s: {jain:.4f} -> {out_dir}")
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
        f"{len(schedule.timestamps_ms)} opportunities, loop {schedule.loop_length_ms} ms, "
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
        p.add_argument("--trace", help="trace spec (constant:RATE@DUR, step:..., or a file path)")
        p.add_argument("--duration", type=float, help="simulated seconds")
        p.add_argument("--seed", type=int, help="single seed")
        p.add_argument("--seeds", help="comma-separated seeds (one run dir each)")
        p.add_argument("--owd-ms", type=float, help="one-way propagation delay, ms")
        p.add_argument("--buffer", help="bottleneck buffer in packets, or 'infinite'")
        p.add_argument("--controller", choices=("guarded", "aimd"))
        p.add_argument("--threshold", help="delay threshold: '1.5x', '40ms', ...")
        p.add_argument("--exploration", choices=EXPLORATION_MODES)
        p.add_argument("--slowdown", choices=("on", "off"))
        p.add_argument("--mitigation", choices=("on", "off"))
        p.add_argument("--aimd", choices=("on", "off"))
        p.add_argument("--warmup", type=float, help="analysis warmup seconds")
        p.add_argument("--bin-s", dest="bin_s", type=float, help="timeseries bin seconds")

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
    fair_p.add_argument("--flows", type=int, default=3)
    fair_p.add_argument("--gap-s", dest="gap_s", type=float, default=30.0)
    fair_p.add_argument("--rate", type=float, default=120.0)
    fair_p.add_argument("--duration", type=float, default=120.0)
    fair_p.add_argument("--window", type=float, default=30.0,
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
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
