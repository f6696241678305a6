"""Tests for the closed-form predictions, each checked two ways: against a
frozen high-precision constant and against an independent numerical route
(scipy quadrature or exhaustive recurrence)."""

import math

import pytest
from scipy import integrate

from ccguard.guardian import exploration_variance, sigmoid
from ccguard.theory import (
    equilibrium_exploration_mean,
    expected_sigmoid,
    exploration_gain_linearized,
    exploration_gain_mc,
    mc_expected_sigmoid,
    rampup_tick_bound,
    rampup_ticks_exact,
    run_self_checks,
    steady_state_delay_bound,
)


def gauss_expect(f, mean, variance):
    """E[f(x)] for x ~ N(mean, variance) by adaptive quadrature."""
    sd = math.sqrt(variance)

    def integrand(x):
        z = (x - mean) / sd
        return f(x) * math.exp(-0.5 * z * z) / (sd * math.sqrt(2 * math.pi))

    lo, hi = mean - 12 * sd, mean + 12 * sd
    val, err = integrate.quad(integrand, lo, hi, limit=200)
    assert err < 1e-6
    return val


# ---------------------------------------------------------------------------
# expected_sigmoid


def test_expected_sigmoid_identities():
    assert expected_sigmoid(0.0, 1.0) == pytest.approx(0.5)
    assert expected_sigmoid(0.0, 7.3) == pytest.approx(0.5)
    # Zero variance collapses to the plain sigmoid.
    assert expected_sigmoid(2.0, 0.0) == pytest.approx(sigmoid(2.0))
    assert expected_sigmoid(-1.0, 0.25) == pytest.approx(
        1.0 - expected_sigmoid(1.0, 0.25)
    )


def test_expected_sigmoid_frozen_value():
    assert expected_sigmoid(1.0, 0.25) == pytest.approx(
        0.7219700100054883, rel=1e-12
    )


def test_expected_sigmoid_against_quadrature():
    # The probit closed form tracks the true expectation to a few parts in
    # a thousand across the operating range (worst observed ~2.4e-3).
    for mean in (-2.0, -0.5, 0.3, 1.0, 2.0):
        for variance in (0.05, 0.25, 1.0):
            exact = gauss_expect(sigmoid, mean, variance)
            assert expected_sigmoid(mean, variance) == pytest.approx(
                exact, abs=5e-3
            )


def test_expected_sigmoid_rejects_negative_variance():
    with pytest.raises(ValueError):
        expected_sigmoid(0.0, -1e-9)


def test_mc_expected_sigmoid_matches_quadrature():
    exact = gauss_expect(sigmoid, 1.0, 0.25)
    mc = mc_expected_sigmoid(1.0, 0.25, n_samples=400_000, seed=5)
    assert mc == pytest.approx(exact, abs=2e-3)


# ---------------------------------------------------------------------------
# exploration gain


def test_linearized_gain_definition_and_operating_point():
    assert exploration_gain_linearized(1.0, 0.25) == pytest.approx(
        1.0 + math.log(2.0) * 0.7219700100054883, rel=1e-12
    )
    # The canonical operating point sits at ~1.50.
    assert exploration_gain_linearized(1.0, 0.25) == pytest.approx(1.50, abs=0.01)


def test_exploration_gain_mc_against_quadrature():
    exact = gauss_expect(lambda x: 2.0 ** sigmoid(x), 1.0, 0.25)
    assert exact == pytest.approx(1.651524598119612, rel=1e-9)  # frozen
    mc = exploration_gain_mc(1.0, 0.25, n_samples=1_000_000, seed=0)
    assert mc == pytest.approx(exact, abs=2e-3)

    exact01 = gauss_expect(lambda x: 2.0 ** sigmoid(x), 0.0, 1.0)
    assert exact01 == pytest.approx(1.4290056559014994, rel=1e-9)  # frozen
    mc01 = exploration_gain_mc(0.0, 1.0, n_samples=1_000_000, seed=1)
    assert mc01 == pytest.approx(exact01, abs=2e-3)


def test_exact_gain_exceeds_linearized():
    # Jensen: E[2**s] > 1 + ln2 E[s] since 2**s is convex.
    for mean, variance in ((1.0, 0.25), (0.0, 1.0), (-1.0, 0.5)):
        exact = gauss_expect(lambda x: 2.0 ** sigmoid(x), mean, variance)
        assert exact > exploration_gain_linearized(mean, variance)


# ---------------------------------------------------------------------------
# equilibrium and steady-state bound


def test_equilibrium_mean_formula():
    assert equilibrium_exploration_mean(500.0) == pytest.approx(
        (math.log(4.0) - 1.0) / 1000.0, rel=1e-12
    )
    # Bigger pipes push the equilibrium mean toward zero.
    assert equilibrium_exploration_mean(5000.0) < equilibrium_exploration_mean(50.0)
    with pytest.raises(ValueError):
        equilibrium_exploration_mean(0.0)


def test_steady_state_bound_frozen_value():
    assert steady_state_delay_bound(500.0, 0.020) == pytest.approx(
        0.02693281057443345, rel=1e-12
    )


def test_steady_state_bound_structure():
    # Reconstruct from parts: threshold * (1 + ln2 * E[sigmoid at mean*]).
    mean_star = equilibrium_exploration_mean(500.0)
    gain = expected_sigmoid(mean_star, exploration_variance(mean_star))
    assert steady_state_delay_bound(500.0, 0.020) == pytest.approx(
        0.020 * (1.0 + math.log(2.0) * gain), rel=1e-12
    )
    # Scales linearly in the threshold.
    assert steady_state_delay_bound(500.0, 0.040) == pytest.approx(
        2.0 * steady_state_delay_bound(500.0, 0.020), rel=1e-12
    )
    with pytest.raises(ValueError):
        steady_state_delay_bound(500.0, 0.0)


def test_steady_state_bound_stays_below_double_threshold():
    # E[sigmoid] < 1 always, so the bound sits below threshold * (1 + ln2).
    for bdp in (1.0, 50.0, 500.0, 1e5):
        b = steady_state_delay_bound(bdp, 0.020)
        assert 0.020 < b < 0.020 * (1.0 + math.log(2.0))


# ---------------------------------------------------------------------------
# ramp-up recurrence


def test_rampup_bound_frozen_values():
    assert rampup_tick_bound(500.0) == pytest.approx(29.252881548361206, rel=1e-12)
    assert rampup_tick_bound(1.0) == pytest.approx(4.394449154672439, rel=1e-12)
    assert rampup_tick_bound(1e6) == pytest.approx(59.65649138652954, rel=1e-12)
    with pytest.raises(ValueError):
        rampup_tick_bound(0.5)


def test_rampup_exact_recursion():
    # 1 -> 3 -> 6 -> 10.5: three ticks to reach a 10-packet pipe.
    assert rampup_ticks_exact(10.0) == 3
    assert rampup_ticks_exact(500.0) == 12
    assert rampup_ticks_exact(1.0) == 0  # already at the target


def test_rampup_exact_never_exceeds_bound():
    for bdp in (1.0, 2.0, 10.0, 500.0, 12345.0, 1e6):
        assert rampup_ticks_exact(bdp) <= rampup_tick_bound(bdp)


def test_rampup_exact_matches_bruteforce_replay():
    # Independent re-derivation of the recurrence, closed-loop.
    def brute(target):
        cwnd, n = 1.0, 0
        while cwnd < target:
            cwnd += 1.0          # one additive round
            cwnd *= 1.5          # one exploration tick at the ~1.5x gain
            n += 1
        return n

    for bdp in (1.0, 7.0, 64.0, 500.0, 9999.0):
        assert rampup_ticks_exact(bdp) == brute(bdp)


# ---------------------------------------------------------------------------
# self-check battery


def test_self_checks_all_pass():
    results = run_self_checks(mc_samples=100_000, seed=99)
    assert results
    failures = [r for r in results if not r.ok]
    assert failures == []
    # Representations carry the verdict for the CLI.
    assert all(repr(r).startswith("[ok]") for r in results)


@pytest.mark.parametrize("mc_samples, seed", [(1_000, 3), (30_000, 77)])
def test_self_checks_share_one_stream(mc_samples, seed):
    # Every cell reads the first mc_samples draws of one stream, and the gain
    # all of it: each equals its estimator on its own draws, bit for bit.
    results = run_self_checks(mc_samples, seed)
    cells = [(m, v) for m in (-2.0, -1.0, 0.0, 1.0, 2.0) for v in (0.05, 0.25, 1.0)]
    for r, (m, v) in zip(results, cells):
        assert r.value == abs(expected_sigmoid(m, v) - mc_expected_sigmoid(m, v, mc_samples, seed))
    gain = results[len(cells) + 1]
    assert gain.name == "exploration_gain_mc(1, 1/4)"
    assert gain.value == exploration_gain_mc(1.0, 0.25, max(mc_samples, 500_000), seed)
