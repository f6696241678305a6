"""Unit tests for the ack-driven AIMD window."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccguard.aimd import AVOIDANCE, SLOW_START, AimdWindow


def test_slow_start_doubles_per_rtt():
    win = AimdWindow(cwnd=2.0, ssthresh=64.0)
    assert win.phase == SLOW_START
    # One RTT worth of acks at cwnd=2 doubles the window.
    for _ in range(2):
        win.on_ack()
    assert win.cwnd == 4.0


def test_slow_start_exits_at_threshold():
    win = AimdWindow(cwnd=10.0, ssthresh=64.0)
    while win.phase == SLOW_START:
        win.on_ack()
    assert win.cwnd == 64.0
    assert win.phase == AVOIDANCE


def test_avoidance_adds_about_one_packet_per_rtt():
    win = AimdWindow(cwnd=100.0, ssthresh=50.0)
    start = win.cwnd
    for _ in range(100):
        win.on_ack()
    # 1/cwnd per ack over ~cwnd acks: within one percent of +1.
    assert win.cwnd - start == pytest.approx(1.0, rel=0.01)


def test_loss_halves_window_and_forces_avoidance():
    win = AimdWindow(cwnd=10.0, ssthresh=64.0)
    win.on_loss()
    assert win.cwnd == 5.0
    assert win.ssthresh == 5.0
    assert win.phase == AVOIDANCE


def test_loss_respects_floor():
    win = AimdWindow(cwnd=3.0, ssthresh=64.0, floor=2.0)
    win.on_loss()
    win.on_loss()
    assert win.cwnd == 2.0
    assert win.ssthresh == 2.0


def test_a_window_at_or_above_its_threshold_starts_in_avoidance():
    for cwnd, ssthresh, phase, after_one_ack in [
        (1.0, 1.0, AVOIDANCE, 2.0),  # 1 + 1/1
        (4.0, 2.0, AVOIDANCE, 4.25),
        (1.0, 2.0, SLOW_START, 2.0),
    ]:
        win = AimdWindow(cwnd=cwnd, ssthresh=ssthresh, floor=1.0)
        assert win.phase == phase
        win.on_ack()
        assert (win.cwnd, win.ssthresh) == (after_one_ack, ssthresh)


def test_clamp_reapplies_floor_after_external_multiply():
    win = AimdWindow(cwnd=10.0, floor=2.0)
    win.cwnd *= 0.05
    win.clamp()
    assert win.cwnd == 2.0


def test_constructor_rejects_degenerate_values():
    with pytest.raises(ValueError):
        AimdWindow(cwnd=0.5)
    with pytest.raises(ValueError):
        AimdWindow(cwnd=2.0, floor=0.0)


def test_growth_rate_supports_long_additive_ramp():
    # From one packet in avoidance, reaching w packets takes at least w RTTs
    # (each RTT adds at most one packet).
    win = AimdWindow(cwnd=1.0, ssthresh=1.0, floor=1.0)
    rtts = 0
    while win.cwnd < 500.0:
        acks = int(win.cwnd)
        for _ in range(acks):
            win.on_ack()
        rtts += 1
    assert rtts >= 500
    assert rtts < 520  # and not wildly more


def one_ack(win):
    """The per-ack rule as it stood before ``on_acks``, one ack per call."""
    if win.phase == SLOW_START:
        win.cwnd += 1.0
        if win.cwnd >= win.ssthresh:
            win.phase = AVOIDANCE
    else:
        win.cwnd += 1.0 / win.cwnd


@st.composite
def ack_runs(draw):
    """A window, and runs of acks whose total lands anywhere from well
    before to well after the slow-start threshold."""
    cwnd = draw(st.one_of(st.integers(1, 300).map(float), st.floats(1.0, 300.0)))
    ssthresh = cwnd + draw(st.one_of(st.integers(-5, 60).map(float), st.floats(-5.0, 60.0)))
    if draw(st.booleans()):  # start in avoidance
        ssthresh = cwnd
    to_switch = max(0, math.ceil(ssthresh - cwnd))
    total = max(0, to_switch + draw(st.integers(-6, 40)))
    cuts = draw(st.lists(st.integers(0, total), max_size=3))
    return cwnd, ssthresh, sorted(cuts), total


def crossings(win, n, level):
    """The acks among the next ``n`` at which the window first reaches
    ``level``, ``level + 1``, ..., found one ack at a time by ``one_ack``."""
    found = []
    for k in range(n):
        one_ack(win)
        while win.cwnd >= level:
            found.append(k)
            level += 1.0
    return found


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ack_runs())
def test_on_acks_matches_one_ack_at_a_time(case):
    # Cut into calls as take_acks cuts a run, each call asking for the
    # levels above floor(cwnd): together they list every integer crossed.
    cwnd, ssthresh, cuts, total = case
    win = AimdWindow(cwnd=cwnd, ssthresh=ssthresh)
    ref = AimdWindow(cwnd=cwnd, ssthresh=ssthresh)
    expected = crossings(ref, total, math.floor(cwnd) + 1.0)
    got = []
    for lo, hi in zip([0] + cuts, cuts + [total]):
        got += [lo + k for k in win.on_acks(hi - lo, math.floor(win.cwnd) + 1.0)]
    assert got == expected
    assert (win.cwnd, win.ssthresh, win.phase) == (ref.cwnd, ref.ssthresh, ref.phase)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(cwnd=st.one_of(st.integers(1, 300).map(float), st.floats(1.0, 300.0)),
       ssthresh=st.one_of(st.integers(1, 400).map(float), st.floats(1.0, 400.0),
                          st.just(math.inf)),
       floor=st.floats(1.0, 300.0), avoidance=st.booleans(), n=st.integers(0, 300),
       above=st.one_of(st.integers(-3, 60).map(float), st.floats(-3.0, 60.0)))
def test_on_acks_lists_the_acks_that_first_reach_each_level(cwnd, ssthresh, floor,
                                                            avoidance, n, above):
    # Any level, integer or not, even one the window is already at.
    level = math.floor(cwnd) + above
    if avoidance:
        ssthresh = cwnd
    win = AimdWindow(cwnd=cwnd, ssthresh=ssthresh, floor=floor)
    ref = AimdWindow(cwnd=cwnd, ssthresh=ssthresh, floor=floor)
    assert win.on_acks(n, level) == crossings(ref, n, level)
    assert (win.cwnd, win.ssthresh, win.phase) == (ref.cwnd, ref.ssthresh, ref.phase)


def test_on_acks_switches_to_avoidance_mid_run():
    # 2 -> 3 -> 4 in slow start, which ends there, then 4.25.
    win = AimdWindow(cwnd=2.0, ssthresh=4.0)
    assert win.on_acks(3, 3.0) == [0, 1]
    assert (win.cwnd, win.phase) == (4.25, AVOIDANCE)


def test_on_acks_lists_an_ack_once_per_level_it_reaches():
    # nextafter(4, 0) + 1.0 rounds to 5.0: the first ack reaches 4 and 5.
    win = AimdWindow(cwnd=math.nextafter(4.0, 0.0), ssthresh=64.0)
    assert win.on_acks(2, 4.0) == [0, 0, 1]
    assert win.cwnd == 6.0
