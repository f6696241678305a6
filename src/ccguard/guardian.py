"""Periodic delay guardian that steers a congestion window.

Once per tick interval (the current minimum RTT), the guardian looks at the
mean RTT observed since the last tick, classifies the delay signal into a
zone, and returns a multiplicative window adjustment:

* delay above the threshold        -> mitigation, cut hard (multiplier < 0.5)
* delay rising but under threshold -> slowdown, trim proportionally ((0, 1])
* delay falling                    -> exploration, probe upward ((1, 2))
* delay flat                       -> neutral, leave the window alone

The guardian owns no clock and no window; the caller schedules ticks and
applies the returned multiplier. That keeps this module a pure function of
its inputs plus the small amount of state below, which is what the tests
exercise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

# Open-interval guards. Float sigmoid saturates to exactly 1.0 around x ~ 37,
# which would make the exploration multiplier exactly 2.0; the contracts here
# are strict, so results are clamped just inside their intervals.
_EXPLORE_LO = math.nextafter(1.0, 2.0)
_EXPLORE_HI = math.nextafter(2.0, 1.0)
_MITIGATE_HI = math.nextafter(0.5, 0.0)
# Floor for 2**exponent so slowdown/mitigation never underflow to 0.0.
_MIN_POW2_EXPONENT = -60.0

EXPLORATION_MODES = ("stochastic", "deterministic", "off")


class Zone(Enum):
    """Delay-signal state at a guardian tick."""

    FALLING = "falling"    # delay under threshold and decreasing
    RISING = "rising"      # delay under threshold and increasing
    CRITICAL = "critical"  # delay above threshold
    NEUTRAL = "neutral"    # flat signal, or nothing measured yet


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def headroom(delay_s: float, min_rtt_s: float, threshold_s: float) -> float:
    """Affine headroom score: 1.0 at the RTT floor, 0.0 at the threshold.

    Deliberately unclamped; negative values measure how far past the
    threshold the delay sits and drive the mitigation cut. Configuration
    resolution keeps the threshold above a positive min RTT.
    """
    return 1.0 - (delay_s - min_rtt_s) / (threshold_s - min_rtt_s)


def classify_zone(delay_s: float, derivative: float, threshold_s: float) -> Zone:
    """Zone of a delay sample given its trend. Branches are strict: an
    exactly-zero derivative under the threshold is NEUTRAL."""
    if delay_s > threshold_s:
        return Zone.CRITICAL
    if derivative > 0.0:
        return Zone.RISING
    if derivative < 0.0:
        return Zone.FALLING
    return Zone.NEUTRAL


def exploration_multiplier(x: float) -> float:
    """2**sigmoid(x), clamped into the open interval (1, 2)."""
    m = 2.0 ** sigmoid(x)
    if m <= 1.0:
        return _EXPLORE_LO
    if m >= 2.0:
        return _EXPLORE_HI
    return m


def slowdown_multiplier(
    predicted_delay_s: float, min_rtt_s: float, threshold_s: float
) -> float:
    """2**min(0, headroom(predicted delay)) in (0, 1].

    No-op (1.0) while the predicted delay still has headroom; shrinks the
    window in proportion to the predicted overshoot otherwise.
    """
    exponent = min(0.0, headroom(predicted_delay_s, min_rtt_s, threshold_s))
    return 2.0 ** max(exponent, _MIN_POW2_EXPONENT)


def mitigation_multiplier(headroom_score: float) -> float:
    """0.5 * 2**headroom for a negative headroom score; result in (0, 0.5)."""
    if headroom_score >= 0.0:
        raise ValueError("mitigation requires delay beyond the threshold (headroom < 0)")
    m = 0.5 * 2.0 ** max(headroom_score, _MIN_POW2_EXPONENT)
    return min(m, _MITIGATE_HI)


# Least variance of the exploration draw.
EXPLORATION_VARIANCE_FLOOR = 1e-6


def exploration_variance(mean: float) -> float:
    """Variance of the exploration draw: scales with |mean|, floored so the
    distribution never degenerates when the mean passes through zero."""
    return max(abs(mean) / 4.0, EXPLORATION_VARIANCE_FLOOR)


@dataclass
class GuardianConfig:
    """Tunables for one guardian instance.

    The delay threshold is either a multiple of the measured minimum RTT
    (``threshold_multiplier``, the default) or a fixed value
    (``threshold_fixed_s``, which takes precedence when set). A fixed value
    below 1.1x the minimum RTT is lifted to that, so the headroom
    denominator stays usefully positive.
    """

    threshold_multiplier: float | None = 1.5
    threshold_fixed_s: float | None = None
    exploration: str = "stochastic"
    slowdown: bool = True
    mitigation: bool = True

    def validate(self) -> None:
        if self.threshold_fixed_s is None:
            if self.threshold_multiplier is None:
                raise ValueError("one of threshold_multiplier/threshold_fixed_s is required")
            if not 1.0 < self.threshold_multiplier < math.inf:
                raise ValueError("threshold_multiplier must be finite and > 1")
        elif not 0.0 < self.threshold_fixed_s < math.inf:
            raise ValueError("threshold_fixed_s must be finite and positive")
        if self.exploration not in EXPLORATION_MODES:
            raise ValueError(f"exploration must be one of {EXPLORATION_MODES}")


def resolve_threshold(config: GuardianConfig, min_rtt_s: float) -> float:
    """Delay threshold for the current tick: the fixed value, lifted to at
    least 1.1x the minimum RTT, or else the multiple of it."""
    if config.threshold_fixed_s is not None:
        return max(config.threshold_fixed_s, 1.1 * min_rtt_s)
    return config.threshold_multiplier * min_rtt_s


class GuardianAction(NamedTuple):
    """Outcome of one tick, for the caller to apply and log: the tick
    trail's columns from zone to threshold."""

    zone: str           # a Zone's value
    multiplier: float
    mean: float         # exploration mean after this tick's update
    delay_s: float      # delay the tick acted on (nan before the first sample)
    threshold_s: float


class Guardian:
    """Tick-driven window steering. See module docstring for the policy."""

    __slots__ = ("config", "_rng", "mean", "_prev_delay_s", "_prev_tick_s")

    def __init__(self, config: GuardianConfig, rng: random.Random):
        config.validate()
        self.config = config
        self._rng = rng
        self.mean = 1.0          # exploration mean, decayed by measured derivatives
        self._prev_delay_s = math.nan
        self._prev_tick_s = math.nan

    def tick(self, mean_delay_s: float, now_s: float, min_rtt_s: float) -> GuardianAction:
        """Process one tick.

        ``mean_delay_s`` is the average RTT observed since the previous tick,
        or nan when nothing was delivered in the interval (the previous
        delay is then reused, so the derivative reads zero). The derivative
        is (delay change)/(time between ticks) — dimensionless, seconds per
        second. A nan delay, before the first sample, fails every zone test,
        so its tick is neutral.
        """
        cfg = self.config
        threshold_s = resolve_threshold(cfg, min_rtt_s)

        delay_s = self._prev_delay_s if math.isnan(mean_delay_s) else mean_delay_s

        if math.isnan(self._prev_delay_s):
            derivative = 0.0
        else:
            derivative = (delay_s - self._prev_delay_s) / (now_s - self._prev_tick_s)

        # The exploration mean integrates the negated derivative: sustained
        # queue growth pushes it down (timid probes), sustained drain pushes
        # it up (bold probes).
        self.mean -= derivative

        multiplier = 1.0
        zone = classify_zone(delay_s, derivative, threshold_s)
        if zone is Zone.CRITICAL:
            if cfg.mitigation:
                multiplier = mitigation_multiplier(headroom(delay_s, min_rtt_s, threshold_s))
        elif zone is Zone.RISING:
            if cfg.slowdown:
                # Predict one tick interval ahead at the current trend.
                predicted = delay_s + derivative * min_rtt_s
                multiplier = slowdown_multiplier(predicted, min_rtt_s, threshold_s)
        elif zone is Zone.FALLING:
            if cfg.exploration != "off":
                if cfg.exploration == "deterministic":
                    x = self.mean
                else:
                    sigma = math.sqrt(exploration_variance(self.mean))
                    x = self._rng.gauss(self.mean, sigma)
                multiplier = exploration_multiplier(x)

        self._prev_delay_s = delay_s
        self._prev_tick_s = now_s
        return GuardianAction(zone.value, multiplier, self.mean, delay_s, threshold_s)
