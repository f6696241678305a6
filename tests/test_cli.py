"""End-to-end tests for the ccguard command line: output files, exit codes,
config layering, and the sweep axes."""

import csv
import json
import os

import pytest

from ccguard import metrics, traces
from ccguard.cli import (
    EXIT_CONFIG,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    main,
    parse_threshold,
)


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
        "[experiment]\nduration_s = 3\nwarmup_s = 1\nseed = 9\n"
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


def test_run_bad_threshold_exits_2(capsys):
    rc = main(RUN_FAST[:-2] + ["--out", "r3", "--threshold", "fast"])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


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
