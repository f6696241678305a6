"""End-to-end tests for the ccguard command line: output files, exit codes,
config layering, and the sweep axes."""

import configparser
import csv
import hashlib
import json
import os
from dataclasses import asdict, fields

import numpy as np
import pytest

from ccguard import cli, experiments, metrics, traces
from ccguard.cli import (
    EXIT_CONFIG,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_SIMULATION,
    main,
    parse_threshold,
)
from ccguard.netsim import SimulationError


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    """Send every relative output path into the test's tmp dir."""
    monkeypatch.setenv("CCGUARD_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# trace-gen


def test_trace_gen_round_trips(out_root, capsys):
    rc = main(["trace-gen", "--spec", "constant:12@1", "--out", "t.trace"])
    assert rc == EXIT_OK
    path = out_root / "t.trace"
    assert path.exists()
    sched = traces.parse_trace(str(path))
    assert sched.opportunities_per_loop == 1000
    assert sched.mean_rate_mbps() == pytest.approx(12.0, rel=0.005)
    assert "1000 opportunities" in capsys.readouterr().out


def test_trace_gen_bad_spec_is_config_error(capsys):
    rc = main(["trace-gen", "--spec", "constant:0@1", "--out", "t.trace"])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    # Unrecognized spec strings fall back to file paths -> missing input.
    assert main(["trace-gen", "--spec", "warble:9", "--out", "t2.trace"]) \
        == EXIT_MISSING_INPUT


# ---------------------------------------------------------------------------
# run


RUN_FAST = [
    "run", "--trace", "constant:12@1", "--duration", "3",
    "--warmup", "1", "--seed", "3", "--out", "r1",
]


def test_run_writes_summary_and_timeseries(out_root, capsys):
    rc = main(RUN_FAST)
    assert rc == EXIT_OK
    d = read_json(out_root / "r1" / "summary.json")
    assert d["seed"] == 3
    assert d["config"]["duration_s"] == 3.0
    assert d["config"]["trace"] == "constant:12@1"
    assert d["counters"]["delivered"] > 0
    flows = d["config"]["flows"]
    assert len(flows) == 1 and flows[0]["controller"] == "guarded"
    assert "guardian" in flows[0]
    with open(out_root / "r1" / "timeseries.csv") as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == metrics.TIMESERIES_COLUMNS
    assert "seed 3:" in capsys.readouterr().out


def test_a_failed_write_leaves_no_file(out_root):
    def rows():
        yield ["1", "2"]
        raise RuntimeError("disk gone")

    path = out_root / "part.csv"
    with pytest.raises(RuntimeError):
        cli._write_csv(str(path), ["a", "b"], rows())
    assert list(out_root.iterdir()) == []


def test_run_multi_seed_layout(out_root):
    rc = main([
        "run", "--trace", "constant:12@1", "--duration", "2",
        "--warmup", "1", "--seeds", "5,6", "--out", "multi",
    ])
    assert rc == EXIT_OK
    a = read_json(out_root / "multi" / "seed-5" / "summary.json")
    b = read_json(out_root / "multi" / "seed-6" / "summary.json")
    assert a["seed"] == 5 and b["seed"] == 6


def test_run_flag_overrides_reach_the_flow(out_root):
    rc = main(RUN_FAST[:-2] + [
        "--out", "r2", "--controller", "aimd", "--buffer", "64",
    ])
    assert rc == EXIT_OK
    d = read_json(out_root / "r2" / "summary.json")
    assert d["config"]["buffer_pkts"] == 64
    assert d["config"]["flows"][0]["controller"] == "aimd"


def test_run_ini_config_with_extra_flows(out_root, tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nduration_s = 3\nwarmup_s = 1\nseeds = 9\n"
        "[link]\ntrace = constant:24@1\nbuffer_pkts = 400\n"
        "[flow]\nthreshold = 1.5x\n"
        "[flow:a]\n\n[flow:b]\nstart_s = 1\n"
    )
    rc = main(["run", "--config", str(ini), "--out", "ini-run"])
    assert rc == EXIT_OK
    d = read_json(out_root / "ini-run" / "summary.json")
    ids = [f["flow_id"] for f in d["config"]["flows"]]
    assert ids == ["a", "b"]
    assert d["config"]["flows"][1]["start_s"] == 1.0
    assert d["seed"] == 9


def test_run_ini_misspelled_key_exits_2(out_root, tmp_path, capsys):
    ini = tmp_path / "typo.ini"
    ini.write_text("[link]\ntrace = constant:12@1\nbufer_pkts = 5\n")
    rc = main(["run", "--config", str(ini), "--duration", "2", "--out", "typo"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bufer_pkts" in err and len(err.strip().splitlines()) == 1
    assert not (out_root / "typo").exists()


def test_run_ini_unknown_section_exits_2(tmp_path, capsys):
    ini = tmp_path / "section.ini"
    ini.write_text("[experiment]\nduration_s = 2\n[links]\ntrace = constant:12@1\n")
    rc = main(["run", "--config", str(ini), "--out", "section"])
    assert rc == EXIT_CONFIG
    assert "[links]" in capsys.readouterr().err


def test_run_missing_config_exits_3(capsys):
    rc = main(["run", "--config", "/nonexistent/exp.ini", "--out", "x"])
    assert rc == EXIT_MISSING_INPUT
    assert "missing input" in capsys.readouterr().err


def test_run_missing_trace_file_exits_3(capsys):
    rc = main(["run", "--trace", "/nonexistent/file.trace", "--duration", "2",
               "--out", "x"])
    assert rc == EXIT_MISSING_INPUT


BAD_INPUT_BASE = ["run", "--trace", "constant:12@1", "--duration", "2",
                  "--warmup", "1", "--out", "bad"]


@pytest.mark.parametrize("extra, ini", [
    (["--duration", "inf"], None),
    (["--owd-ms", "inf"], None),
    (["--trace", "constant:inf@1"], None),
    (["--trace", "step:12@1,nan@1"], None),
    (["--seeds", ","], None),
    ([], "[experiment]\nseeds =\n"),
    (["--warmup", "-1"], None),
    (["--bin-s", "0"], None),
    (["--bin-s", "1e-7"], None),
    (["--trace", "constant:100000@100"], None),
    (["--owd-ms", "0"], None),
    (["--owd-ms", "0.0004"], None),
    ([], "[link]\none_way_delay_ms = 0\n"),
    (["sweep", "--param", "intrinsic_rtt_ms", "--values", "0"], None),
    (["sweep", "--param", "intrinsic_rtt_ms", "--values", "0.0008"], None),
    ([], "[flow]\naimd = off\n"),
    ([], "[link]\npacket_bytes = 1000\n"),
    (["--bin-s", "1e-6"], None),
    (["sweep", "--param", "intrinsic_rtt_ms", "--values", "10,0"], None),
    ([], "[flow]\nssthresh_init = -5\n"),
    ([], "[flow]\nssthresh_init = 0\n"),
    ([], "[flow]\ncwnd_init = 1e300\n"),
    ([], "[flow]\ncwnd_init = 2e6\n"),
    ([], "[flow]\ncwnd_floor = 2e6\n"),
    ([], "[experiment]\nseed = 5\n"),
    (["--trace", "constant:1e-300@1e300"], None),
])
def test_bad_input_exits_2_with_one_line_and_no_output(out_root, tmp_path, capsys,
                                                       extra, ini):
    # A case that names the sweep runs it in place of `run`.
    argv = extra + BAD_INPUT_BASE[1:] if extra[:1] == ["sweep"] else BAD_INPUT_BASE + extra
    if ini is not None:
        path = tmp_path / "bad.ini"
        path.write_text(ini)
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
    assert key_set_by(extra, ini) in err
    assert not (out_root / "bad").exists()


def key_set_by(extra, ini):
    """The INI key a bad input sets: the one its INI text names, the one its
    flag writes, or, for the RTT sweep, half the RTT as the one-way delay."""
    if ini is not None:
        return ini.split("\n")[1].split("=")[0].strip()
    if extra[0] == "sweep":
        return "one_way_delay_ms"
    args = vars(cli.build_parser().parse_args(["run", *extra[:2]]))
    [dest] = [dest for dest, value in args.items() if "." in dest and value is not None]
    return dest.split(".")[1]


@pytest.mark.parametrize("argv, builds", [
    (["run", "--seeds", "1,2,3"], 1),
    (["sweep", "--param", "intrinsic_rtt_ms", "--values", "10,30", "--seeds", "1,2"], 2),
])
def test_trace_built_once_per_run_config(out_root, monkeypatch, argv, builds):
    calls = []
    from_spec = traces.from_spec

    def counting(*args, **kwargs):
        calls.append(args)
        return from_spec(*args, **kwargs)

    monkeypatch.setattr(traces, "from_spec", counting)
    rc = main(argv + ["--trace", "constant:12@1", "--duration", "2", "--warmup", "1",
                      "--out", "once"])
    assert rc == EXIT_OK
    assert len(calls) == builds


def test_run_bad_threshold_exits_2(capsys):
    rc = main(RUN_FAST[:-2] + ["--out", "r3", "--threshold", "fast"])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_unknown_exploration_exits_2_for_an_aimd_flow_too(tmp_path, capsys):
    ini = tmp_path / "explore.ini"
    ini.write_text("[flow]\ncontroller = aimd\nexploration = sometimes\n")
    assert main(RUN_FAST + ["--config", str(ini)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "exploration" in err and len(err.strip().splitlines()) == 1


def test_parse_threshold_forms():
    assert parse_threshold("1.5x") == (1.5, None)
    assert parse_threshold("40ms") == (None, 0.040)
    assert parse_threshold("0.04s") == (None, 0.04)
    with pytest.raises(ValueError):
        parse_threshold("40")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_buffer_axis(out_root):
    rc = main([
        "sweep", "--param", "buffer_pkts", "--values", "50,100",
        "--trace", "constant:12@1", "--duration", "2", "--warmup", "1",
        "--seed", "2", "--out", "sw",
    ])
    assert rc == EXIT_OK
    with open(out_root / "sw" / "aggregate.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "buffer_pkts"
    assert [r[0] for r in rows[1:]] == ["50", "100"]
    d = read_json(out_root / "sw" / "buffer_pkts-50" / "seed-2" / "summary.json")
    assert d["config"]["buffer_pkts"] == 50


def test_sweep_intrinsic_rtt_axis_moves_three_knobs(out_root):
    rc = main([
        "sweep", "--param", "intrinsic_rtt_ms", "--values", "20,40",
        "--trace", "constant:48@1", "--duration", "2", "--warmup", "1",
        "--out", "rtt-sw",
    ])
    assert rc == EXIT_OK
    d20 = read_json(out_root / "rtt-sw" / "intrinsic_rtt_ms-20" / "seed-1" / "summary.json")
    # 48 Mbps = 4000 pkts/s; a 20 ms pipe holds 80 packets.
    assert d20["config"]["one_way_delay_s"] == pytest.approx(0.010)
    assert d20["config"]["buffer_pkts"] == 80
    g = d20["config"]["flows"][0]["guardian"]
    assert g["threshold_multiplier"] == 1.5
    d40 = read_json(out_root / "rtt-sw" / "intrinsic_rtt_ms-40" / "seed-1" / "summary.json")
    assert d40["config"]["one_way_delay_s"] == pytest.approx(0.020)
    assert d40["config"]["buffer_pkts"] == 160


def test_sweep_rate_axis_rewrites_trace(out_root):
    rc = main([
        "sweep", "--param", "rate_mbps", "--values", "12,24",
        "--duration", "2", "--warmup", "1", "--out", "rate-sw",
    ])
    assert rc == EXIT_OK
    d = read_json(out_root / "rate-sw" / "rate_mbps-24" / "seed-1" / "summary.json")
    assert d["config"]["trace"] == "constant:24@1"


def test_sweep_bad_value_exits_2(capsys):
    rc = main([
        "sweep", "--param", "intrinsic_rtt_ms", "--values", "fast",
        "--duration", "2", "--out", "bad-sw",
    ])
    assert rc == EXIT_CONFIG


def test_sweep_unknown_param_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["sweep", "--param", "wizardry", "--values", "1", "--out", "x"])


# ---------------------------------------------------------------------------
# fairness


def test_fairness_subcommand(out_root, capsys):
    rc = main([
        "fairness", "--flows", "2", "--gap-s", "1", "--rate", "24",
        "--duration", "6", "--window", "3", "--seed", "1", "--out", "fair",
    ])
    assert rc == EXIT_OK
    d = read_json(out_root / "fair" / "summary.json")
    assert len(d["config"]["flows"]) == 2
    assert 0.0 < d["metrics"]["jain_index"] <= 1.0
    assert "jain index" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
def test_default_fairness_run_is_gate_8s_scenario(seed):
    args = cli.build_parser().parse_args(["fairness", "--seed", str(seed)])
    sim, analysis, seeds = cli.build_sim_config(cli.fairness_ini(args))
    gate = experiments.fairness(seed)
    assert seeds == [seed]
    assert analysis["warmup_s"] == experiments.FAIRNESS_DURATION_S - experiments.FAIRNESS_WINDOW_S
    for f in fields(gate):
        if f.name == "schedule":
            assert sim.schedule.loop_length_us == gate.schedule.loop_length_us
            assert np.array_equal(sim.schedule.offsets_us(), gate.schedule.offsets_us())
        else:
            assert getattr(sim, f.name) == getattr(gate, f.name), f.name


def test_fairness_prints_a_fractional_window(out_root, capsys):
    assert main(["fairness", "--flows", "2", "--gap-s", "1", "--rate", "24",
                 "--duration", "4", "--window", "0.5", "--out", "fair"]) == EXIT_OK
    assert "jain index over final 0.5 s:" in capsys.readouterr().out


@pytest.mark.parametrize("flows, window, duration, rate", [
    pytest.param("2", w, d, "12", id=f"{w}-{d}")
    for w, d in [("5", "2"), ("0", "2"), ("-1", "2"), ("nan", "2"), ("inf", "2"), ("1", "inf")]
] + [
    pytest.param("2", "1", "2", r, id=f"rate-{r}") for r in ("inf", "nan", "0", "-12")
] + [
    # No flow at all; and 3 x 400 000 one-second bins, over the row cap.
    pytest.param("0", "1", "2", "12", id="flows-0"),
    pytest.param("3", "1", "400000", "12", id="rows-1.2M"),
])
def test_fairness_bad_window_exits_2_before_simulating(out_root, monkeypatch, capsys,
                                                        flows, window, duration, rate):
    def no_run(config):
        raise AssertionError("simulated despite a bad window or rate")

    monkeypatch.setattr(cli, "run_sim", no_run)
    rc = main(["fairness", "--flows", flows, "--gap-s", "1", "--rate", rate,
               "--duration", duration, "--window", window, "--out", "fair-bad"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
    assert not (out_root / "fair-bad").exists()


@pytest.mark.parametrize("source", ["fairness", "ini"])
def test_more_flows_than_the_flow_ledger_holds_exit_2(out_root, tmp_path, monkeypatch,
                                                      capsys, source):
    # The flow ledger is int16: flow 32 767 is the last it can name.
    def no_run(config):
        raise AssertionError("simulated more flows than the flow ledger holds")

    monkeypatch.setattr(cli, "run_sim", no_run)
    if source == "fairness":
        argv = ["fairness", "--flows", "32770", "--gap-s", "0", "--rate", "12",
                "--duration", "0.005", "--window", "0.005"]
    else:
        ini = tmp_path / "many.ini"
        ini.write_text("[experiment]\nduration_s = 0.005\nwarmup_s = 0\n"
                       "[link]\ntrace = constant:12@1\n"
                       + "".join(f"[flow:f{i}]\n" for i in range(32768)))
        argv = ["run", "--config", str(ini)]
    assert main(argv + ["--out", "many"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
    assert str(cli.MAX_FLOWS) in err
    assert not (out_root / "many").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--trace", "constant:12@1", "--duration", "2", "--warmup", "1"],
    ["sweep", "--param", "buffer_pkts", "--values", "40", "--duration", "2", "--warmup", "1"],
    ["fairness", "--flows", "2", "--gap-s", "1", "--rate", "12", "--duration", "2",
     "--window", "1"],
])
def test_a_simulation_error_exits_3_with_one_line(out_root, monkeypatch, capsys, argv):
    def broken_run(config):
        raise SimulationError("packet conservation violated: sent=3 delivered=4")

    monkeypatch.setattr(cli, "run_sim", broken_run)
    assert main(argv + ["--out", "broken"]) == EXIT_SIMULATION == 3
    err = capsys.readouterr().err
    assert err.startswith("simulation error: packet conservation violated")
    assert len(err.strip().splitlines()) == 1
    assert not (out_root / "broken").exists()


# ---------------------------------------------------------------------------
# theory-check


def test_theory_check_passes(capsys):
    rc = main(["theory-check"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "[ok]" in out


# ---------------------------------------------------------------------------
# output-root plumbing


def test_absolute_out_ignores_root(tmp_path, monkeypatch):
    monkeypatch.setenv("CCGUARD_OUTPUT_ROOT", str(tmp_path / "rootdir"))
    abs_out = tmp_path / "abs-here"
    rc = main(["trace-gen", "--spec", "constant:3@1", "--out", str(abs_out)])
    assert rc == EXIT_OK
    assert abs_out.exists()
    assert not (tmp_path / "rootdir").exists()


# ---------------------------------------------------------------------------
# config precedence: flags over the INI file, [flow:NAME] over flow flags

PRECEDENCE_INI = (
    "[experiment]\nduration_s = 3\nwarmup_s = 1\nbin_s = 1\nseeds = 4\n"
    "[link]\ntrace = constant:12@1\none_way_delay_ms = 10\nbuffer_pkts = 100\n"
    "[flow]\ncontroller = guarded\n"
)


def timeseries_rows(run_dir):
    with open(run_dir / "timeseries.csv") as fh:
        return len(list(csv.reader(fh))) - 1


def test_bins_are_whole_microseconds_and_end_with_the_run(out_root):
    # A 0.6 us bin rounds to 1 us: ten bins over 10 us, none past the end.
    assert main(["run", "--trace", "constant:12@1", "--duration", "0.00001",
                 "--warmup", "0", "--bin-s", "6e-7", "--out", "fine"]) == EXIT_OK
    with open(out_root / "fine" / "timeseries.csv") as fh:
        t_s = [float(row["t_s"]) for row in csv.DictReader(fh)]
    assert t_s == [i / 1e6 for i in range(10)]


@pytest.mark.parametrize("flag, value, read, expected", [
    ("--seed", "7", lambda d, r: d["seed"], 7),
    ("--owd-ms", "5", lambda d, r: d["config"]["one_way_delay_s"], 0.005),
    ("--buffer", "64", lambda d, r: d["config"]["buffer_pkts"], 64),
    ("--warmup", "2", lambda d, r: d["config"]["warmup_s"], 2.0),
    ("--bin-s", "0.5", lambda d, r: timeseries_rows(r), 6),
    ("--trace", "constant:24@1", lambda d, r: d["config"]["trace"], "constant:24@1"),
    ("--duration", "2", lambda d, r: d["config"]["duration_s"], 2.0),
    ("--controller", "aimd", lambda d, r: d["config"]["flows"][0]["controller"], "aimd"),
])
def test_flag_beats_its_ini_key(out_root, tmp_path, flag, value, read, expected):
    ini = tmp_path / "prec.ini"
    ini.write_text(PRECEDENCE_INI)
    assert main(["run", "--config", str(ini), flag, value, "--out", "prec"]) == EXIT_OK
    run_dir = out_root / "prec"
    assert read(read_json(run_dir / "summary.json"), run_dir) == expected


def test_named_flow_options_beat_flow_flags(out_root, tmp_path):
    ini = tmp_path / "named.ini"
    ini.write_text(PRECEDENCE_INI + "[flow:x]\ncontroller = guarded\n[flow:y]\n")
    rc = main(["run", "--config", str(ini), "--controller", "aimd", "--out", "named"])
    assert rc == EXIT_OK
    flows = read_json(out_root / "named" / "summary.json")["config"]["flows"]
    assert [(f["flow_id"], f["controller"]) for f in flows] == [
        ("x", "guarded"), ("y", "aimd"),
    ]


# ---------------------------------------------------------------------------
# every accepted INI key reaches the run


def flow0(d):
    return d["config"]["flows"][0]


@pytest.mark.parametrize("section, option, text, read, expected", [
    ("experiment", "duration_s", "7", lambda d, r: d["config"]["duration_s"], 7.0),
    ("experiment", "warmup_s", "2", lambda d, r: d["config"]["warmup_s"], 2.0),
    # bin_s is not in summary.json; it sets the timeseries rows.
    ("experiment", "bin_s", "0.5", lambda d, r: timeseries_rows(r), 12),
    ("experiment", "seeds", "4", lambda d, r: d["seed"], 4),
    ("link", "trace", "constant:24@1", lambda d, r: d["config"]["trace"], "constant:24@1"),
    ("link", "one_way_delay_ms", "4", lambda d, r: d["config"]["one_way_delay_s"], 0.004),
    ("link", "buffer_pkts", "77", lambda d, r: d["config"]["buffer_pkts"], 77),
    ("flow", "controller", "aimd", lambda d, r: flow0(d)["controller"], "aimd"),
    ("flow", "exploration", "deterministic",
     lambda d, r: flow0(d)["guardian"]["exploration"], "deterministic"),
    ("flow", "threshold", "40ms",
     lambda d, r: (flow0(d)["guardian"]["threshold_multiplier"],
                   flow0(d)["guardian"]["threshold_fixed_s"]), (None, 0.04)),
    ("flow", "slowdown", "off", lambda d, r: flow0(d)["guardian"]["slowdown"], False),
    ("flow", "mitigation", "off", lambda d, r: flow0(d)["guardian"]["mitigation"], False),
    ("flow", "cwnd_init", "4", lambda d, r: flow0(d)["cwnd_init"], 4.0),
    ("flow", "cwnd_floor", "3", lambda d, r: flow0(d)["cwnd_floor"], 3.0),
    ("flow", "ssthresh_init", "32", lambda d, r: flow0(d)["ssthresh_init"], 32.0),
    ("flow", "start_in_avoidance", "on",
     lambda d, r: flow0(d)["start_in_avoidance"], True),
    ("flow", "start_s", "0.5", lambda d, r: flow0(d)["start_s"], 0.5),
])
def test_each_ini_key_reaches_the_run(out_root, tmp_path, section, option, text,
                                      read, expected):
    cp = configparser.ConfigParser()
    cp.read_dict({"experiment": {"duration_s": "6"}, "link": {"trace": "constant:12@1"}})
    cp.read_dict({section: {option: text}})
    ini = tmp_path / "key.ini"
    with open(ini, "w") as fh:
        cp.write(fh)
    assert main(["run", "--config", str(ini), "--out", "key"]) == EXIT_OK
    run_dir = out_root / "key"
    assert read(read_json(run_dir / "summary.json"), run_dir) == expected


# ---------------------------------------------------------------------------
# frozen outputs: timeseries.csv and aggregate.csv byte for byte, and the
# metrics and counters of each summary.json

THREE_FLOW_INI = (
    "[experiment]\nduration_s = 3\nwarmup_s = 1\nbin_s = 0.5\n"
    "[link]\ntrace = step:24@1,6@1\none_way_delay_ms = 8\nbuffer_pkts = 60\n"
    "[flow]\nthreshold = 1.5x\n"
    "[flow:a]\n\n[flow:b]\ncontroller = aimd\nstart_s = 0.5\n"
    "[flow:c]\nexploration = deterministic\nstart_s = 1\n"
)

SWEEP_FAST = ["--trace", "constant:24@1", "--duration", "2", "--warmup", "1",
              "--seeds", "1,2"]

FROZEN_RUNS = {
    "run-3-flows": ["run", "--config", "{ini}", "--seeds", "1,2,3"],
    "sweep-buffer": ["sweep", "--param", "buffer_pkts", "--values", "20,80", *SWEEP_FAST],
    "sweep-threshold": ["sweep", "--config", "{ini}", "--param", "threshold",
                        "--values", "1.2x,30ms", "--seeds", "1,2"],
    "sweep-rtt": ["sweep", "--param", "intrinsic_rtt_ms", "--values", "10,30", *SWEEP_FAST],
    "sweep-rate": ["sweep", "--param", "rate_mbps", "--values", "12,36", *SWEEP_FAST[2:]],
    "fairness": ["fairness", "--flows", "2", "--gap-s", "1", "--rate", "24",
                 "--duration", "4", "--window", "2", "--seed", "3"],
}

FROZEN_DIGESTS = {
    "run-3-flows": "13fd7d06254425b1f8b2be240e8e91572336ce790c2381d9c3f944b0236052fd",
    "sweep-buffer": "6a67355a1873a36331957fefdddb8f19e951308e95432fecd9e6e81ef7dc78e3",
    "sweep-threshold": "064219df2142c1c2ebf27a1c9da72741bf0840655e69f4f9680b40053ae9a245",
    "sweep-rtt": "f4e7829d751de7d69d64495f41a7252c26917c9c2dcd9944e96a75bf18f6e77a",
    "sweep-rate": "0d9146e3582c411d10b15ad17a51d8e1bbf0a55daee6b00a8e5e98df9e70a0dc",
    "fairness": "d73dbb10ac10803cc4e607ea9e563789fd03d6480837fae70384b82dae9c19c8",
}


def output_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        if path.name == "summary.json":
            d = read_json(path)
            body = json.dumps({k: d[k] for k in ("metrics", "counters")}, sort_keys=True)
            h.update(body.encode())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FROZEN_RUNS))
def test_cli_outputs_match_frozen_digest(out_root, tmp_path, name, capsys):
    ini = tmp_path / "three.ini"
    ini.write_text(THREE_FLOW_INI)
    argv = [a.format(ini=ini) for a in FROZEN_RUNS[name]] + ["--out", "frozen"]
    assert main(argv) == EXIT_OK
    assert output_digest(out_root / "frozen") == FROZEN_DIGESTS[name], name


# ---------------------------------------------------------------------------
# the documented options are the accepted ones

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_ini_block():
    with open(README) as fh:
        return fh.read().split("```ini\n", 1)[1].split("```", 1)[0]


def readme_ini_keys():
    """{section: keys} of the README's INI block, comments stripped."""
    keys = {}
    for line in readme_ini_block().splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            section = keys.setdefault(line.strip("[]"), set())
        elif line:
            section.add(line.split("=", 1)[0].strip())
    return keys


def test_readme_ini_block_lists_exactly_the_accepted_keys():
    assert readme_ini_keys() == {**cli._SECTION_KEYS, "flow": cli._FLOW_KEYS, "flow:NAME": set()}


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--param", "threshold", "--values", "2x"]],
                         ids=["run", "sweep"])
def test_every_flag_names_an_accepted_ini_key(argv):
    # load_ini checks only the file's keys, so a flag writing an unknown key
    # would be ignored without a word.
    dests = [d for d in vars(cli.build_parser().parse_args(argv)) if "." in d]
    assert len(dests) == 12  # 13 flags; --seed and --seeds share experiment.seeds
    for dest in dests:
        section, option = dest.split(".")
        assert option in (cli._FLOW_KEYS if section == "flow" else cli._SECTION_KEYS[section])


def test_readme_ini_block_shows_the_defaults():
    documented = cli._parser()
    documented.read_string("\n".join(
        line for line in readme_ini_block().splitlines() if not line.startswith("[flow:")))
    (sim, analysis, seeds), (d_sim, d_analysis, d_seeds) = (
        cli.build_sim_config(cp) for cp in (documented, cli._parser()))
    assert (sim.duration_s, sim.one_way_delay_s, sim.buffer_pkts, seeds, analysis) == (
        d_sim.duration_s, d_sim.one_way_delay_s, d_sim.buffer_pkts, d_seeds, d_analysis)
    assert [asdict(f) for f in sim.flows] == [asdict(f) for f in d_sim.flows]


def test_seed_and_seeds_given_together_take_the_later(out_root):
    for flags, seed in [(["--seed", "7", "--seeds", "8"], 8), (["--seeds", "8", "--seed", "7"], 7)]:
        assert main(RUN_FAST[:-2] + flags + ["--out", "both"]) == EXIT_OK
        assert read_json(out_root / "both" / "summary.json")["seed"] == seed
