"""Property-based tests: range and algebraic invariants of the guardian
multipliers, zone classification totality, mean-telescoping, AIMD floor
safety, and replay determinism — checked with hypothesis plus one exhaustive
bulk sweep."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ccguard.aimd import AimdWindow
from ccguard.guardian import (
    EXPLORATION_VARIANCE_FLOOR,
    Guardian,
    GuardianConfig,
    Zone,
    classify_zone,
    exploration_multiplier,
    exploration_variance,
    headroom,
    mitigation_multiplier,
    resolve_threshold,
    sigmoid,
    slowdown_multiplier,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
delays = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


# ---------------------------------------------------------------------------
# multiplier ranges


@given(finite)
def test_sigmoid_in_unit_interval(x):
    s = sigmoid(x)
    assert 0.0 <= s <= 1.0


@given(finite)
def test_exploration_strictly_between_one_and_two(x):
    m = exploration_multiplier(x)
    assert 1.0 < m < 2.0


@given(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
    st.floats(min_value=1.001, max_value=100.0, allow_nan=False),
)
def test_slowdown_in_unit_interval(predicted_delay_s, min_rtt_s, mult):
    threshold_s = min_rtt_s * mult
    m = slowdown_multiplier(predicted_delay_s, min_rtt_s, threshold_s)
    assert 0.0 < m <= 1.0
    if predicted_delay_s <= threshold_s:
        assert m == 1.0


@given(st.floats(min_value=-1e6, max_value=-1e-12, allow_nan=False))
def test_mitigation_strictly_between_zero_and_half(h):
    m = mitigation_multiplier(h)
    assert 0.0 < m < 0.5


@given(moderate)
def test_exploration_variance_floor(mean):
    v = exploration_variance(mean)
    assert v >= EXPLORATION_VARIANCE_FLOOR
    assert v == max(abs(mean) / 4.0, EXPLORATION_VARIANCE_FLOOR)


# ---------------------------------------------------------------------------
# headroom algebra


@given(
    st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
    st.floats(min_value=1.001, max_value=100.0, allow_nan=False),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_headroom_is_affine(min_rtt_s, mult, alpha):
    threshold_s = min_rtt_s * mult
    # Endpoints.
    assert headroom(min_rtt_s, min_rtt_s, threshold_s) == 1.0
    assert headroom(threshold_s, min_rtt_s, threshold_s) == 0.0
    # The affine blend maps back to its coefficient.
    d = alpha * min_rtt_s + (1.0 - alpha) * threshold_s
    got = headroom(d, min_rtt_s, threshold_s)
    assert math.isclose(got, alpha, rel_tol=1e-9, abs_tol=1e-6)


@given(
    st.integers(min_value=2, max_value=2**53),
    st.floats(min_value=math.nextafter(1.0, 2.0), max_value=5.0),
    st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
)
def test_resolved_threshold_stays_above_min_rtt(rtt_us, mult, fixed_s):
    # A one-way delay of at least 1 us makes the simulator's min RTT a
    # whole number of microseconds, at least 2. headroom divides by the gap
    # between the threshold and it, so that gap must stay positive under
    # both threshold kinds.
    min_rtt_s = rtt_us * 1e-6
    for config in (GuardianConfig(threshold_multiplier=mult),
                   GuardianConfig(threshold_multiplier=None, threshold_fixed_s=fixed_s)):
        threshold_s = resolve_threshold(config, min_rtt_s)
        assert threshold_s > min_rtt_s
        assert math.isfinite(headroom(threshold_s, min_rtt_s, threshold_s))


# ---------------------------------------------------------------------------
# zone classification


@given(delays, moderate, st.floats(min_value=1e-4, max_value=1.0))
def test_zone_totality_and_priority(delay_s, derivative, threshold_s):
    z = classify_zone(delay_s, derivative, threshold_s)
    assert z in (Zone.NEUTRAL, Zone.FALLING, Zone.RISING, Zone.CRITICAL)
    if delay_s > threshold_s:
        assert z is Zone.CRITICAL
    elif derivative > 0.0:
        assert z is Zone.RISING
    elif derivative < 0.0:
        assert z is Zone.FALLING
    else:
        assert z is Zone.NEUTRAL


def test_zone_zero_derivative_is_neutral_exactly():
    assert classify_zone(0.010, 0.0, 0.030) is Zone.NEUTRAL
    assert classify_zone(0.010, -0.0, 0.030) is Zone.NEUTRAL


# ---------------------------------------------------------------------------
# guardian mean telescopes


@given(
    st.lists(st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
             min_size=2, max_size=30),
    st.floats(min_value=1e-3, max_value=0.5, allow_nan=False),
)
@settings(deadline=None)
def test_mean_telescopes_over_any_delay_path(path, interval_s):
    g = Guardian(GuardianConfig(), rng=random.Random(1))
    now = 1.0
    for d in path:
        g.tick(d, now, min_rtt_s=0.020)
        now += interval_s
    # mu_n = mu_0 - (d_n - d_1) / interval: every internal step cancels.
    expected = 1.0 - (path[-1] - path[0]) / interval_s
    assert math.isclose(g.mean, expected, rel_tol=1e-9, abs_tol=1e-9)


@given(
    st.lists(st.one_of(delays, st.just(math.nan)), min_size=2, max_size=30),
    st.integers(min_value=0, max_value=2**31),
)
@settings(deadline=None)
def test_guardian_replay_is_deterministic(path, seed):
    def run():
        g = Guardian(GuardianConfig(), rng=random.Random(seed))
        out = []
        now = 1.0
        for d in path:
            a = g.tick(d, now, min_rtt_s=0.020)
            out.append((a.multiplier, a.zone, a.mean))
            now += 0.020
        return out

    assert run() == run()


# ---------------------------------------------------------------------------
# AIMD floor safety


@given(
    st.lists(
        st.one_of(
            st.just(("ack", None)),
            st.just(("loss", None)),
            st.tuples(st.just("mult"),
                      st.floats(min_value=0.01, max_value=1.99)),
        ),
        max_size=200,
    ),
    st.floats(min_value=1.0, max_value=8.0),
)
def test_cwnd_never_below_floor(ops, floor):
    w = AimdWindow(cwnd=max(10.0, floor), ssthresh=64.0, floor=floor)
    for op, arg in ops:
        if op == "ack":
            w.on_ack()
        elif op == "loss":
            w.on_loss()
        else:
            w.cwnd *= arg
            w.clamp()
        assert w.cwnd >= floor
        assert w.ssthresh >= floor


# ---------------------------------------------------------------------------
# exhaustive bulk sweep (non-hypothesis: one deterministic 100k-point pass)


def test_bulk_invariant_sweep():
    rng = random.Random(20260816)
    n = 100_000
    for _ in range(n):
        x = rng.uniform(-50.0, 50.0)
        m = exploration_multiplier(x)
        assert 1.0 < m < 2.0

        h = rng.uniform(-30.0, -1e-9)
        mm = mitigation_multiplier(h)
        assert 0.0 < mm < 0.5

        min_rtt = rng.uniform(1e-3, 0.5)
        thr = min_rtt * rng.uniform(1.01, 5.0)
        d = rng.uniform(0.0, 3.0 * thr)
        sm = slowdown_multiplier(d, min_rtt, thr)
        assert 0.0 < sm <= 1.0

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
