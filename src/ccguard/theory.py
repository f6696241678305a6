"""Closed-form predictions for the guarded controller, plus the Monte-Carlo
and recurrence machinery that checks them.

The exploration multiplier applied in a falling-delay tick is 2**sigmoid(x)
with x drawn from N(mean, variance). Three quantities matter:

* ``expected_sigmoid`` — E[sigmoid(x)] via the probit approximation
  sigmoid(t) ~ Phi(t * sqrt(8/pi)), which gives
  E[sigmoid(x)] ~ sigmoid(mean / sqrt(1 + pi * variance / 8)).
* ``exploration_gain_linearized`` — first-order mean multiplier
  1 + ln2 * E[sigmoid(x)] (from 2**s = e**(s ln2) ~ 1 + s ln2). At
  (mean, variance) = (1, 1/4) this is ~1.50.
* ``exploration_gain_mc`` — the exact E[2**sigmoid(x)] by Monte Carlo.
  Note this exceeds the linearized value (Jensen; at (1, 1/4) it is ~1.65):
  the linearization is the quantity the steady-state bound is built from.

The steady-state bound: at equilibrium the exploration mean settles where the
expected multiplicative gain balances the additive-increase drift, giving
mean* = (ln4 - 1) / (2 * bdp). The long-run mean queuing delay then stays
below queue_threshold * (1 + ln2 * E[sigmoid] at mean*).

The ramp-up recurrence: from one packet, alternating additive increase and a
~1.5x exploration tick gives cwnd_{n+1} = 1.5 * (cwnd_n + 1), which reaches a
bandwidth-delay product W in at most 4 * ln(3 * W) ticks.

``run_self_checks`` draws one standard-normal stream and reuses it across
every Monte-Carlo check (common random numbers), shifting and scaling it to
each (mean, variance) cell. Each cell is still the mean of ``mc_samples``
independent draws, so its error bound is what it was with a stream per
cell; only the cells' errors are now correlated with each other.
"""

from __future__ import annotations

import math

import numpy as np

from .guardian import exploration_variance, sigmoid

LN2 = math.log(2.0)


def expected_sigmoid(mean: float, variance: float) -> float:
    """E[sigmoid(x)] for x ~ N(mean, variance), probit approximation."""
    if variance < 0.0:
        raise ValueError("variance must be >= 0")
    return sigmoid(mean / math.sqrt(1.0 + math.pi * variance / 8.0))


def _sigmoid_of_draws(
    z: np.ndarray, mean: float, variance: float, out: np.ndarray
) -> np.ndarray:
    """sigmoid(x) for x = mean + sqrt(variance) * z, written into ``out``.

    This is bit for bit sigmoid of ``Generator.normal(mean, sd)`` on the
    stream that gave ``z``: -x is formed as z * -sd - mean, which is exactly
    -(mean + sd * z).
    """
    np.multiply(z, -math.sqrt(variance), out=out)
    out -= mean
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _gain_of_draws(z: np.ndarray, mean: float, variance: float) -> float:
    """Mean of 2**sigmoid(x) for x = mean + sqrt(variance) * z, computed in
    place over ``z``."""
    return float(np.mean(np.exp2(_sigmoid_of_draws(z, mean, variance, z), out=z)))


def mc_expected_sigmoid(
    mean: float, variance: float, n_samples: int = 100_000, seed: int = 0
) -> float:
    """Monte-Carlo E[sigmoid(x)], the check for ``expected_sigmoid``."""
    z = np.random.default_rng(seed).standard_normal(n_samples)
    return float(np.mean(_sigmoid_of_draws(z, mean, variance, z)))


def exploration_gain_linearized(mean: float, variance: float) -> float:
    """First-order mean exploration multiplier 1 + ln2 * E[sigmoid(x)]."""
    return 1.0 + LN2 * expected_sigmoid(mean, variance)


def exploration_gain_mc(
    mean: float, variance: float, n_samples: int = 1_000_000, seed: int = 0
) -> float:
    """Exact mean exploration multiplier E[2**sigmoid(x)] by Monte Carlo."""
    z = np.random.default_rng(seed).standard_normal(n_samples)
    return _gain_of_draws(z, mean, variance)


def equilibrium_exploration_mean(bdp_packets: float) -> float:
    """Exploration mean where multiplicative gain balances additive drift."""
    if bdp_packets <= 0.0:
        raise ValueError("bdp_packets must be positive")
    return (math.log(4.0) - 1.0) / (2.0 * bdp_packets)


def steady_state_delay_bound(bdp_packets: float, queue_threshold_s: float) -> float:
    """Long-run mean queuing delay bound (seconds) for a guarded flow on a
    constant link with the given bandwidth-delay product (packets) and
    queuing headroom before the delay threshold (seconds)."""
    if queue_threshold_s <= 0.0:
        raise ValueError("queue_threshold_s must be positive")
    mean_star = equilibrium_exploration_mean(bdp_packets)
    gain = expected_sigmoid(mean_star, exploration_variance(mean_star))
    return queue_threshold_s * (1.0 + LN2 * gain)


def rampup_tick_bound(bdp_packets: float) -> float:
    """Upper bound on guardian ticks to grow from one packet to the BDP."""
    if bdp_packets < 1.0:
        raise ValueError("bdp_packets must be >= 1")
    return 4.0 * math.log(3.0 * bdp_packets)


def rampup_ticks_exact(bdp_packets: float) -> int:
    """Ticks of the idealized ramp recurrence cwnd <- 1.5 * (cwnd + 1), from
    one packet, until cwnd >= bdp_packets."""
    cwnd = 1.0
    ticks = 0
    while cwnd < bdp_packets:
        cwnd = 1.5 * (cwnd + 1.0)
        ticks += 1
    return ticks


class CheckResult:
    __slots__ = ("name", "value", "requirement", "ok")

    def __init__(self, name: str, value: float, requirement: str, ok: bool):
        self.name = name
        self.value = value
        self.requirement = requirement
        self.ok = ok

    def __repr__(self):
        status = "ok" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.value:.6g} ({self.requirement})"


def run_self_checks(mc_samples: int = 200_000, seed: int = 20_260_816) -> list[CheckResult]:
    """Battery of internal-consistency checks across the formulas above.

    Covers: the probit expectation against Monte Carlo on a (mean, variance)
    grid; the linearized gain at the canonical operating point; and the ramp
    recurrence against its logarithmic bound over six decades of BDP.

    Every Monte-Carlo check reads one standard-normal stream drawn from
    ``seed`` (common random numbers): a grid cell equals
    ``mc_expected_sigmoid(mean, variance, mc_samples, seed)`` and the gain
    equals ``exploration_gain_mc(1, 1/4, max(mc_samples, 500_000), seed)``,
    bit for bit.
    """
    results: list[CheckResult] = []
    z = np.random.default_rng(seed).standard_normal(max(mc_samples, 500_000))
    cell = np.empty(mc_samples)
    for mean in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for variance in (0.05, 0.25, 1.0):
            closed = expected_sigmoid(mean, variance)
            mc = float(np.mean(_sigmoid_of_draws(z[:mc_samples], mean, variance, cell)))
            gap = abs(closed - mc)
            results.append(
                CheckResult(
                    f"expected_sigmoid({mean:+.0f},{variance})",
                    gap,
                    "|closed - mc| <= 0.01",
                    gap <= 0.01,
                )
            )
    lin = exploration_gain_linearized(1.0, 0.25)
    results.append(
        CheckResult(
            "exploration_gain_linearized(1, 1/4)",
            lin,
            "within 1.5 +/- 0.01",
            abs(lin - 1.5) <= 0.01,
        )
    )
    exact = _gain_of_draws(z, 1.0, 0.25)
    results.append(
        CheckResult(
            "exploration_gain_mc(1, 1/4)",
            exact,
            "exceeds linearized value (Jensen), within [1.60, 1.70]",
            1.60 <= exact <= 1.70,
        )
    )
    for bdp in (1.0, 10.0, 500.0, 1e6):
        exact_ticks = rampup_ticks_exact(bdp)
        bound = rampup_tick_bound(bdp)
        results.append(
            CheckResult(
                f"rampup_ticks(bdp={bdp:g})",
                exact_ticks,
                f"<= bound {bound:.2f}",
                exact_ticks <= bound,
            )
        )
    return results
