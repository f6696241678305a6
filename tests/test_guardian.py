"""Unit tests for the guardian: scoring functions, zone classification,
multipliers, threshold resolution, and the per-tick state machine."""

import math
import random

import pytest

from ccguard.guardian import (
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

MRTT = 0.020


def test_sigmoid_symmetry_and_reference_point():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-12)
    assert sigmoid(-1.0) == pytest.approx(1.0 - sigmoid(1.0), abs=1e-12)


def test_sigmoid_saturates():
    assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-15)
    assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-15)


def test_sigmoid_strictly_increasing_on_grid():
    xs = [-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0]
    ys = [sigmoid(x) for x in xs]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_headroom_endpoints():
    # 1 at the minimum RTT, 0 at the threshold, negative beyond it.
    assert headroom(0.020, MRTT, 0.030) == pytest.approx(1.0)
    assert headroom(0.030, MRTT, 0.030) == pytest.approx(0.0)
    assert headroom(0.040, MRTT, 0.030) == pytest.approx(-1.0)


def test_headroom_is_affine():
    mid = headroom(0.025, MRTT, 0.030)
    assert mid == pytest.approx(0.5, abs=1e-12)
    # Affine: equal delay steps give equal score steps.
    d1 = headroom(0.022, MRTT, 0.030) - headroom(0.021, MRTT, 0.030)
    d2 = headroom(0.029, MRTT, 0.030) - headroom(0.028, MRTT, 0.030)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_headroom_worked_value():
    assert headroom(0.036, 0.020, 0.030) == pytest.approx(-0.6, abs=1e-12)


def test_headroom_never_raises_even_on_degenerate_threshold():
    # Degenerate configurations are rejected upstream at config resolution;
    # the score itself stays a bare affine map.
    assert math.isfinite(headroom(0.025, 0.020, 0.010))


def test_classify_zone_examples():
    assert classify_zone(0.025, -0.1, 0.030) is Zone.FALLING
    assert classify_zone(0.025, +0.1, 0.030) is Zone.RISING
    assert classify_zone(0.035, -0.5, 0.030) is Zone.CRITICAL
    assert classify_zone(0.025, 0.0, 0.030) is Zone.NEUTRAL


def test_classify_zone_threshold_dominates_derivative():
    for deriv in (-1.0, 0.0, 1.0):
        assert classify_zone(0.031, deriv, 0.030) is Zone.CRITICAL


def test_classify_zone_is_strict_about_zero_derivative():
    # Exactly-zero derivative below the threshold takes no branch.
    assert classify_zone(0.0299, 0.0, 0.030) is Zone.NEUTRAL
    assert classify_zone(0.030, 0.0, 0.030) is Zone.NEUTRAL  # at, not above


def test_exploration_multiplier_range_and_monotonicity():
    values = [exploration_multiplier(x) for x in (-40.0, -2.0, 0.0, 2.0, 40.0)]
    assert all(1.0 < v < 2.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert exploration_multiplier(0.0) == pytest.approx(2.0 ** 0.5)


def test_exploration_multiplier_saturates_toward_two():
    assert exploration_multiplier(100.0) == pytest.approx(2.0, abs=1e-6)
    assert exploration_multiplier(100.0) < 2.0


def test_slowdown_multiplier_examples():
    # Predicted delay still under the threshold: exact no-op.
    assert slowdown_multiplier(0.024, 0.020, 0.030) == 1.0
    # Worked example: predicted 32 ms against a 30 ms threshold.
    assert slowdown_multiplier(0.032, 0.020, 0.030) == pytest.approx(
        0.8705505632961241, abs=1e-12
    )
    # Predicted 40 ms: a full halving.
    assert slowdown_multiplier(0.040, 0.020, 0.030) == pytest.approx(0.5, abs=1e-12)


def test_slowdown_multiplier_is_one_exactly_at_threshold():
    assert slowdown_multiplier(0.030, 0.020, 0.030) == 1.0


def test_mitigation_multiplier_examples():
    assert mitigation_multiplier(-1.0) == pytest.approx(0.25, abs=1e-12)
    assert mitigation_multiplier(-3.0) == pytest.approx(0.0625, abs=1e-12)
    assert mitigation_multiplier(-0.001) == pytest.approx(
        0.49965354649522625, abs=1e-12
    )
    assert mitigation_multiplier(-0.001) < 0.5


def test_mitigation_multiplier_rejects_nonnegative_headroom():
    with pytest.raises(ValueError):
        mitigation_multiplier(0.0)
    with pytest.raises(ValueError):
        mitigation_multiplier(0.4)


def test_mitigation_multiplier_never_hits_zero():
    assert mitigation_multiplier(-1e9) > 0.0


def test_exploration_variance_scaling_and_floor():
    assert exploration_variance(1.0) == 0.25
    assert exploration_variance(-2.0) == 0.5
    assert exploration_variance(0.0) == 1e-6
    assert exploration_variance(1e-9) == 1e-6


def test_resolve_threshold_multiplier_policy():
    cfg = GuardianConfig(threshold_multiplier=1.5)
    assert resolve_threshold(cfg, 0.020) == pytest.approx(0.030)


def test_resolve_threshold_fixed_policy():
    cfg = GuardianConfig(threshold_fixed_s=0.040)
    assert resolve_threshold(cfg, 0.020) == 0.040


def test_resolve_threshold_raises_low_fixed_value():
    cfg = GuardianConfig(threshold_fixed_s=0.010)
    assert resolve_threshold(cfg, 0.020) == pytest.approx(0.022)


def test_config_validate_rejects_unit_multiplier():
    with pytest.raises(ValueError):
        GuardianConfig(threshold_multiplier=1.0).validate()
    with pytest.raises(ValueError):
        GuardianConfig(threshold_multiplier=None, threshold_fixed_s=None).validate()
    with pytest.raises(ValueError):
        GuardianConfig(exploration="sometimes").validate()
    GuardianConfig().validate()  # defaults are valid


@pytest.mark.parametrize("field, value", [
    ("threshold_multiplier", math.nan),
    ("threshold_multiplier", math.inf),
    ("threshold_fixed_s", math.nan),
    ("threshold_fixed_s", math.inf),
])
def test_config_validate_rejects_non_finite_thresholds(field, value):
    with pytest.raises(ValueError, match=field):
        GuardianConfig(**{field: value}).validate()


def _tick(g, delay_s, now_s, mrtt=MRTT):
    return g.tick(delay_s, now_s, mrtt)


def test_tick_worked_example_mean_update():
    # Previous delay 24 ms, current mean 22 ms over a 20 ms interval:
    # slope -0.1, mean 0.9 -> 1.0, falling zone.
    g = Guardian(GuardianConfig(threshold_multiplier=1.5), rng=random.Random(1))
    _tick(g, 0.024, 1.000)
    g.mean = 0.9
    action = _tick(g, 0.022, 1.020)
    # The mean takes the negated derivative.
    assert 0.9 - action.mean == pytest.approx(-0.1, abs=1e-9)
    assert action.mean == pytest.approx(1.0, abs=1e-9)
    assert action.zone == Zone.FALLING.value
    assert 1.0 < action.multiplier < 2.0


def test_tick_critical_worked_example():
    # Mean 36 ms against a fixed 30 ms threshold: headroom -0.6.
    g = Guardian(
        GuardianConfig(threshold_multiplier=None, threshold_fixed_s=0.030),
        rng=random.Random(1),
    )
    _tick(g, 0.020, 1.000)
    action = _tick(g, 0.036, 1.020)
    assert action.zone == Zone.CRITICAL.value
    assert action.multiplier == pytest.approx(0.32987697769322355, abs=1e-12)


def test_tick_zero_derivative_is_neutral():
    g = Guardian(GuardianConfig(), rng=random.Random(2))
    _tick(g, 0.025, 1.000)
    action = _tick(g, 0.025, 1.020)
    assert action.zone == Zone.NEUTRAL.value
    assert action.multiplier == 1.0


def test_tick_empty_interval_reuses_previous_delay():
    g = Guardian(GuardianConfig(), rng=random.Random(3))
    # Before the first sample there is no delay: the tick is neutral.
    first = _tick(g, math.nan, 0.980)
    assert first.zone == Zone.NEUTRAL.value
    assert first.multiplier == 1.0 and math.isnan(first.delay_s)
    assert g.mean == 1.0
    _tick(g, 0.026, 1.000)
    mean_before = g.mean
    action = _tick(g, math.nan, 1.020)
    assert action.zone == Zone.NEUTRAL.value
    assert action.multiplier == 1.0
    assert action.delay_s == 0.026
    assert g.mean == mean_before  # a zero derivative
    # The reused delay keeps feeding later derivatives.
    nxt = _tick(g, 0.024, 1.040)
    assert mean_before - nxt.mean == pytest.approx((0.024 - 0.026) / 0.020, abs=1e-9)


def test_tick_mean_telescopes():
    g = Guardian(GuardianConfig(), rng=random.Random(4))
    delays = [0.020, 0.023, 0.027, 0.025, 0.021, 0.030]
    now = 1.0
    prev = None
    total = 0.0
    for d in delays:
        action = _tick(g, d, now)
        if prev is not None:
            total += (d - prev) / 0.020
        prev = d
        now += 0.020
    assert g.mean == pytest.approx(1.0 - total, abs=1e-9)


def test_tick_critical_still_updates_mean():
    g = Guardian(GuardianConfig(threshold_multiplier=None, threshold_fixed_s=0.030),
                 rng=random.Random(7))
    _tick(g, 0.020, 1.000)
    action = _tick(g, 0.040, 1.020)
    assert action.zone == Zone.CRITICAL.value
    assert action.mean == pytest.approx(1.0 - (0.040 - 0.020) / 0.020, abs=1e-9)


def test_tick_disabled_modules_leave_window_alone():
    cfg = GuardianConfig(
        threshold_multiplier=None,
        threshold_fixed_s=0.030,
        exploration="off",
        slowdown=False,
        mitigation=False,
    )
    g = Guardian(cfg, rng=random.Random(5))
    _tick(g, 0.020, 1.000)
    for delay, expected_zone in (
        (0.018, Zone.FALLING),
        (0.026, Zone.RISING),
        (0.041, Zone.CRITICAL),
    ):
        action = _tick(g, delay, g._prev_tick_s + 0.020)
        assert action.zone == expected_zone.value
        assert action.multiplier == 1.0


def test_tick_deterministic_exploration_uses_mean_directly():
    cfg = GuardianConfig(exploration="deterministic")
    g1 = Guardian(cfg, rng=random.Random(6))
    g2 = Guardian(cfg, rng=random.Random(99))
    for g in (g1, g2):
        _tick(g, 0.025, 1.000)
        _tick(g, 0.022, 1.020)
    a1 = _tick(g1, 0.020, 1.040)
    a2 = _tick(g2, 0.020, 1.040)
    assert a1.zone == Zone.FALLING.value
    assert a1.multiplier == a2.multiplier  # no randomness consumed
    assert a1.multiplier == pytest.approx(
        exploration_multiplier(a1.mean), abs=1e-12
    )


def test_tick_stochastic_replay_is_bit_identical():
    def run(seed):
        g = Guardian(GuardianConfig(), rng=random.Random(seed))
        out = []
        now = 1.0
        for d in (0.020, 0.019, 0.018, 0.022, 0.018, 0.017, 0.025, 0.019):
            out.append(_tick(g, d, now).multiplier)
            now += 0.020
        return out

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_tick_threshold_tracks_shrinking_min_rtt():
    g = Guardian(GuardianConfig(threshold_multiplier=1.5), rng=random.Random(8))
    a1 = g.tick(0.030, 1.000, 0.020)
    assert a1.threshold_s == pytest.approx(0.030)
    a2 = g.tick(0.029, 1.020, 0.018)  # min RTT estimate shrank
    assert a2.threshold_s == pytest.approx(0.027)
