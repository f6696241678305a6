"""Tests for trace parsing, synthesis, microsecond spreading, and capacity
counting."""

import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccguard.traces import (
    MAX_SYNTH_OPPORTUNITIES,
    MAX_TIMESTAMP_MS,
    TraceSchedule,
    capacity_delivered,
    from_spec,
    parse_trace,
    synth_constant,
    synth_step,
    write_trace,
)


def timestamps_ms(sched):
    """The schedule's millisecond timestamps: each offset rounded up to its
    millisecond."""
    return (-(-sched.offsets_us() // 1000)).tolist()


SCHEDULE_FAULTS = [
    ([], "trace has no delivery opportunities"),
    ([0, 1], "trace timestamp 0 is not a positive integer"),
    ([2, 1], "trace timestamps must be nondecreasing"),
    ([2, 1, 0], "trace timestamps must be nondecreasing"),  # first fault wins
    ([2, 0, 1], "trace timestamp 0 is not a positive integer"),
    ([1, 2**62], "trace timestamps must be at most"),  # offset overflows int64
    ([1, 2**70], "trace timestamps must be at most"),
]


def test_schedule_validates_timestamps():
    for timestamps, message in SCHEDULE_FAULTS:
        with pytest.raises(ValueError, match=re.escape(message)):
            TraceSchedule(timestamps)


def test_parse_trace_burst_lines(tmp_path):
    p = tmp_path / "burst.trace"
    p.write_text("5\n5\n5\n")
    sched = parse_trace(p)
    assert timestamps_ms(sched) == [5, 5, 5]
    assert sched.loop_length_ms == 5
    assert sched.opportunities_per_loop == 3


BAD_TRACE_FILES = [
    ("2\n1\n", "line 2: timestamp 1 decreases (previous 2)"),
    ("2\nx\n", "line 2: not an integer timestamp: 'x'"),
    ("0\n", "line 1: timestamp must be >= 1, got 0"),
    ("\n", "trace has no delivery opportunities"),
    ("1\n" * 200_000 + "x\n", "line 200001: not an integer timestamp: 'x'"),
    ("1 2\n", "line 1: not an integer timestamp: '1 2'"),
    ("+5\n", "line 1: not an integer timestamp: '+5'"),
    ("-3\n", "line 1: not an integer timestamp: '-3'"),
    ("1.0\n", "line 1: not an integer timestamp: '1.0'"),
    ("5\n5\n7\n6\n", "line 4: timestamp 6 decreases (previous 7)"),
    ("3\n\n  \n2\n", "line 4: timestamp 2 decreases (previous 3)"),  # blanks count as lines
    ("5\n\u0663\n", "line 2: timestamp 3 decreases (previous 5)"),  # Arabic-Indic 3 is a digit
]


def test_parse_trace_reports_offending_line(tmp_path):
    p = tmp_path / "bad.trace"
    for text, message in BAD_TRACE_FILES:
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            parse_trace(p)


@pytest.mark.parametrize("text", [
    "99999999999999999999\n",
    "1\n99999999999999999999\n",
    "99999999999999999999\n99999999999999999999\n",
    "1\n9223372036854775807\n",
])
def test_parse_trace_rejects_values_past_the_largest_timestamp(tmp_path, text):
    # A clean file's values past int64 saturate when parsed; every such
    # file still fails on the largest timestamp.
    p = tmp_path / "big.trace"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"trace timestamps must be at most {MAX_TIMESTAMP_MS}"):
        parse_trace(p)


@pytest.mark.parametrize("text, timestamps", [
    ("1\n2\n2\n", [1, 2, 2]),
    ("1\n2", [1, 2]),  # no final newline
    ("1\r\n2\r\n", [1, 2]),
    ("1\r2\r", [1, 2]),
    ("\n \t5 \n\n\t7\t\n", [5, 7]),
    ("0007\n", [7]),
    ("0" * 20 + "12\n", [12]),  # longer than any int64, still small
    ("\u0663\n4\n", [3, 4]),
    ("\f3\v\n", [3]),
])
def test_parse_trace_accepts(tmp_path, text, timestamps):
    p = tmp_path / "ok.trace"
    p.write_bytes(text.encode("utf-8"))
    assert timestamps_ms(parse_trace(p)) == timestamps


def test_write_then_parse_roundtrip(tmp_path):
    sched = TraceSchedule([1, 1, 3, 7, 7, 7, 10])
    p = tmp_path / "round.trace"
    write_trace(sched, p)
    back = parse_trace(p)
    assert timestamps_ms(back) == timestamps_ms(sched)
    assert back.loop_length_ms == sched.loop_length_ms


def test_offsets_single_opportunity_lands_at_millisecond_edge():
    # One opportunity in millisecond m sits exactly at m ms.
    sched = TraceSchedule([1, 2, 3])
    assert list(sched.offsets_us()) == [1000, 2000, 3000]


def test_offsets_same_millisecond_burst_spreads_within_it():
    sched = TraceSchedule([5, 5, 5])
    offs = list(sched.offsets_us())
    assert len(offs) == 3
    assert offs[-1] == 5000  # last lands on the edge
    assert all(4000 < o <= 5000 for o in offs)  # all inside (4 ms, 5 ms]
    assert offs == sorted(offs)
    # Even spacing across the millisecond.
    gaps = {b - a for a, b in zip(offs, offs[1:])}
    assert len(gaps) == 1


def test_cumulative_counts_match_trace_at_millisecond_boundaries():
    sched = TraceSchedule([1, 1, 2, 4, 4, 4, 5])
    for ms in range(1, 6):
        expected = sum(1 for t in timestamps_ms(sched) if t <= ms)
        assert sched.opportunities_until(ms * 1000) == expected


def test_opportunities_until_loops_cyclically():
    sched = TraceSchedule([1, 2, 3])
    per_loop = sched.opportunities_per_loop
    assert sched.opportunities_until(3000) == per_loop
    assert sched.opportunities_until(6000) == 2 * per_loop
    assert sched.opportunities_until(7000) == 2 * per_loop + 1
    assert sched.opportunities_until(0) == 0
    assert sched.opportunities_until(-5) == 0


def test_next_opportunity_is_inclusive_at_or_after():
    sched = TraceSchedule([1, 2, 3])
    assert sched.next_opportunity(0) == 1000
    assert sched.next_opportunity(1000) == 1000  # at-or-after contract
    assert sched.next_opportunity(1001) == 2000
    assert sched.next_opportunity(2500) == 3000
    assert sched.next_opportunity(3001) == 4000  # wraps into the next loop
    assert sched.next_opportunity(999_999_999) >= 999_999_999


def test_capacity_window_is_half_open():
    sched = TraceSchedule([1, 2, 3])
    # [0, 3 ms) excludes the opportunity sitting exactly at 3 ms.
    assert capacity_delivered(sched, 0.0, 0.003) == 2
    assert capacity_delivered(sched, 0.0, 0.0031) == 3
    assert capacity_delivered(sched, 0.001, 0.001) == 0  # empty window
    with pytest.raises(ValueError):
        capacity_delivered(sched, 0.002, 0.001)


def test_capacity_spans_loops():
    sched = TraceSchedule([1, 2, 3])
    # Two full loops starting inside the first: (0.5 ms .. 6.5 ms) holds all
    # six opportunities (1,2,3,4,5,6 ms).
    assert capacity_delivered(sched, 0.0005, 0.0065) == 6


def test_synth_constant_rate_and_duration():
    sched = synth_constant(12.0, 10.0)
    assert sched.loop_length_ms == 10_000
    assert sched.opportunities_per_loop == 10_000  # 1 packet per ms
    assert sched.mean_rate_mbps() == pytest.approx(12.0, rel=0.005)


def test_synth_constant_realized_rate_within_half_percent():
    for rate in (3.0, 48.0, 300.0, 720.0):
        sched = synth_constant(rate, 2.0)
        assert sched.mean_rate_mbps() == pytest.approx(rate, rel=0.005)


def test_synth_constant_rejects_empty_rate():
    with pytest.raises(ValueError):
        synth_constant(0.0001, 0.001)
    with pytest.raises(ValueError):
        synth_constant(1.0, 0.0001)


def test_synth_step_concatenates_segments():
    sched = synth_step([(12.0, 1.0), (24.0, 1.0)])
    assert sched.loop_length_ms == 2000
    first = sum(1 for t in timestamps_ms(sched) if t <= 1000)
    second = sum(1 for t in timestamps_ms(sched) if t > 1000)
    assert first == 1000  # 12 Mbps = one 1500-byte packet per millisecond
    assert second == 2000


def test_synth_step_zero_rate_segment_is_silent_but_closes_loop():
    sched = synth_step([(12.0, 1.0), (0.0, 1.0)])
    assert sched.loop_length_ms == 2000
    assert timestamps_ms(sched)[-1] == 2000
    # Exactly one closing opportunity in the silent segment.
    assert sum(1 for t in timestamps_ms(sched) if t > 1000) == 1


def test_synth_step_rejects_empty_inputs():
    with pytest.raises(ValueError):
        synth_step([])
    with pytest.raises(ValueError):
        synth_step([(0.0, 1.0)])


def test_synthesized_traces_are_capped_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built a trace over the cap")

    monkeypatch.setattr(np, "arange", no_build)
    with pytest.raises(ValueError, match="needs 833333333 delivery opportunities; "
                       f"a synthesized trace holds at most {MAX_SYNTH_OPPORTUNITIES}"):
        synth_constant(100_000.0, 100.0)
    with pytest.raises(ValueError, match="needs inf delivery opportunities"):
        synth_constant(float("inf"), 1.0)
    # Each segment fits; together they do not.
    with pytest.raises(ValueError, match="a step trace of 2 segments needs 10000000 "):
        synth_step([(600.0, 100.0), (600.0, 100.0)])


def traced_peak(build):
    """The result of build() and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_trace_builds_in_under_twice_its_offsets():
    # Filling the offsets a block of runs at a time keeps the temporaries
    # small; a timestamp per opportunity beside the offsets would pass 2x.
    sched, peak = traced_peak(lambda: synth_step([(100.0, 20.0), (720.0, 25.0)]))
    assert sched.opportunities_per_loop == 1_666_667
    assert peak < 2 * sched.offsets_us().nbytes


def test_sparse_traces_build_in_memory_sized_by_opportunities(tmp_path):
    # 8 333 opportunities over a 10^10 ms loop: a builder sized by the loop's
    # milliseconds would need tens of GiB.
    sched, peak = traced_peak(lambda: from_spec("constant:0.00001@1e7"))
    assert (sched.opportunities_per_loop, sched.loop_length_ms) == (8333, 10**10)
    assert peak < 2**20
    # Each opportunity alone in its millisecond: its offset is written
    # straight, where a run array per opportunity beside the offsets read 3x.
    sched, peak = traced_peak(lambda: from_spec("constant:0.001@1e7"))
    assert sched.opportunities_per_loop == 833_333
    assert peak < 1.5 * sched.offsets_us().nbytes
    p = tmp_path / "sparse.trace"
    p.write_text("1\n10000000000\n")
    sched, peak = traced_peak(lambda: parse_trace(p))
    assert list(sched.offsets_us()) == [1000, 10**13]
    assert peak < 2**20


def test_write_trace_streams_in_blocks(tmp_path):
    # 120 000 opportunities, more than one block: formatting every line at
    # once takes about ten times the offsets' bytes.
    sched = synth_constant(720.0, 2.0)
    p = tmp_path / "big.trace"
    _, peak = traced_peak(lambda: write_trace(sched, p))
    assert peak < 2 * 2**20
    assert p.read_text() == "".join(f"{t}\n" for t in timestamps_ms(sched))


@pytest.mark.parametrize("spec", ["constant:1e-9@1e13", "constant:1e-300@1e300",
                                  "step:0@1e300,1@1"])
def test_synthesized_trace_past_the_largest_timestamp_is_rejected(spec):
    with pytest.raises(ValueError, match=f"trace timestamps must be at most {MAX_TIMESTAMP_MS}"):
        from_spec(spec)


def test_from_spec_constant_and_step():
    c = from_spec("constant:12@2")
    assert c.loop_length_ms == 2000
    assert c.mean_rate_mbps() == pytest.approx(12.0, rel=0.005)
    s = from_spec("step:12@1,24@1")
    assert s.loop_length_ms == 2000


def test_from_spec_file_path(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("1\n2\n")
    sched = from_spec(str(p))
    assert timestamps_ms(sched) == [1, 2]


def test_from_spec_missing_file_raises_file_not_found():
    with pytest.raises(FileNotFoundError):
        from_spec("/nonexistent/path/foo.trace")


# ---------------------------------------------------------------------------
# Equivalence with pure-Python references: the per-group loop for the offsets
# and the list comprehensions for synthesized timestamps. The vectorized code
# must reproduce both exactly.


def reference_offsets(timestamps):
    offs = []
    i = 0
    n = len(timestamps)
    while i < n:
        j = i
        while j < n and timestamps[j] == timestamps[i]:
            j += 1
        k = j - i
        base = (timestamps[i] - 1) * 1000
        for m in range(1, k + 1):
            offs.append(base + -(-m * 1000 // k))
        i = j
    return offs


def reference_constant(rate_mbps, duration_s, packet_bytes=1500):
    duration_ms = round(duration_s * 1000)
    if duration_ms < 1:
        raise ValueError("duration")
    n = round(rate_mbps * 1e6 * duration_s / (packet_bytes * 8))
    if n < 1:
        raise ValueError("no opportunities")
    realized = n * packet_bytes * 8 / (duration_ms / 1000.0) / 1e6
    if abs(realized - rate_mbps) > 0.005 * rate_mbps:
        raise ValueError("realized rate")
    return [-(-i * duration_ms // n) for i in range(1, n + 1)]


def reference_step(segments):
    timestamps = []
    base_ms = 0
    for rate_mbps, duration_s in segments:
        duration_ms = round(duration_s * 1000)
        if duration_ms < 1:
            raise ValueError("duration")
        if rate_mbps > 0.0:
            timestamps.extend(ts + base_ms for ts in reference_constant(rate_mbps, duration_s))
        base_ms += duration_ms
    if not timestamps:
        raise ValueError("silent")
    if timestamps[-1] != base_ms:
        timestamps.append(base_ms)
    return timestamps


@st.composite
def timestamp_lists(draw):
    """Bursts (some over 1000 in one millisecond) after optional leading
    silence; all-zero gaps give a 1-ms loop."""
    ms = 1 + draw(st.sampled_from([0, 0, 1, 7, 250]))
    timestamps = []
    for gap, burst in draw(st.lists(
        st.tuples(st.integers(0, 40), st.sampled_from([1, 1, 2, 3, 7, 999, 1001, 2500])),
        min_size=1, max_size=8,
    )):
        ms += gap
        timestamps += [ms] * burst
    return timestamps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(timestamp_lists())
def test_schedule_matches_reference_grouping(timestamps):
    sched = TraceSchedule(timestamps)
    assert list(sched.offsets_us()) == reference_offsets(timestamps)
    assert timestamps_ms(sched) == timestamps
    assert sched.loop_length_us == timestamps[-1] * 1000


rates = st.one_of(st.just(0.0), st.floats(0.01, 400.0))
durations = st.floats(0.0001, 1.5)
# Fewer opportunities than milliseconds, seconds of silence between them.
sparse_segments = st.tuples(st.floats(0.0001, 0.2), st.floats(1.0, 300.0))
segment_draws = st.one_of(st.tuples(rates, durations), sparse_segments)


def outcome(build, *args):
    try:
        return build(*args)
    except ValueError:
        return ValueError


@settings(max_examples=80, deadline=None, derandomize=True)
@given(segment_draws)
def test_synth_constant_matches_reference_formula(segment):
    rate_mbps, duration_s = segment
    expected = outcome(reference_constant, rate_mbps, duration_s)
    got = outcome(synth_constant, rate_mbps, duration_s)
    if expected is ValueError:
        assert got is ValueError
    else:
        assert timestamps_ms(got) == expected
        assert list(got.offsets_us()) == reference_offsets(expected)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(segment_draws, min_size=1, max_size=4))
def test_synth_step_matches_reference_formula(segments):
    expected = outcome(reference_step, segments)
    got = outcome(synth_step, segments)
    if expected is ValueError:
        assert got is ValueError
    else:
        assert timestamps_ms(got) == expected
        assert got.loop_length_ms == expected[-1]
        assert list(got.offsets_us()) == reference_offsets(expected)


def test_synth_constant_is_exact_past_int64_products():
    # 2000 opportunities over 9e15 ms: i * duration_ms passes int64 from
    # i = 1025 on, yet every timestamp and offset fits.
    rate_mbps, duration_s = 2000 / 7.5e14, 9e12
    expected = reference_constant(rate_mbps, duration_s)
    got = synth_constant(rate_mbps, duration_s)
    assert timestamps_ms(got) == expected
    assert list(got.offsets_us()) == reference_offsets(expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(timestamp_lists())
def test_write_parse_roundtrip_is_exact(timestamps):
    sched = TraceSchedule(timestamps)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "round.trace")
        write_trace(sched, path)
        with open(path) as fh:
            assert fh.read() == "".join(f"{t}\n" for t in timestamps)
        back = parse_trace(path)
    assert timestamps_ms(back) == timestamps
    assert np.array_equal(back.offsets_us(), sched.offsets_us())
