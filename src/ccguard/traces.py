"""Bottleneck link schedules in the mahimahi packet-trace format.

A trace is a list of nondecreasing integer millisecond timestamps, one packet
delivery opportunity per line; k copies of the same timestamp mean k
opportunities in that millisecond. The schedule loops with period equal to the
last timestamp, so cycle c replays every opportunity shifted by c * loop
milliseconds. Leading silence (a first timestamp above 1) is part of the
pattern and survives a parse/write round trip.

A schedule stores one thing: an int64 ndarray of the loop's opportunity
times on a microsecond grid. The k opportunities of millisecond m are spread
uniformly across (m-1, m] ms, the last landing exactly on m ms (so a lone
opportunity fires at its nominal timestamp); rounding each offset up to the
millisecond gives the timestamps back. Synthesis and parsing build the
timestamps and offsets with numpy.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

# One delivery opportunity carries one MTU-sized packet, as in mahimahi.
PACKET_BYTES = 1500

US_PER_MS = 1000
US_PER_S = 1_000_000

# The largest timestamp whose microsecond offset fits an int64.
MAX_TIMESTAMP_MS = (2**63 - 1) // US_PER_MS

# Most delivery opportunities a synthesized trace may hold: 64 MiB of
# offsets, or 720 Mbps for 139 s at 1500-byte packets.
MAX_SYNTH_OPPORTUNITIES = 2**23


def _mean_rate_mbps(opportunities: int, loop_length_ms: int) -> float:
    bits = opportunities * PACKET_BYTES * 8
    return bits / (loop_length_ms / 1000.0) / 1e6


def _spread_us(ts: np.ndarray) -> np.ndarray:
    """Offsets of validated timestamps: opportunity j (1-based) of the k in
    millisecond m lands at (m-1) * 1000 + ceil(j * 1000 / k) microseconds."""
    n = len(ts)
    first = np.flatnonzero(np.concatenate(([True], ts[1:] != ts[:-1])))
    k = np.diff(first, append=n)
    # j: a running count that drops back to 1 where each millisecond starts.
    out = np.ones(n, dtype=np.int64)
    out[first[1:]] -= k[:-1]
    np.cumsum(out, out=out)
    per = np.repeat(k, k)
    out *= US_PER_MS
    out += per
    out -= 1
    out //= per
    np.subtract(ts, 1, out=per)
    per *= US_PER_MS
    out += per
    return out


class TraceSchedule:
    """One loop of a trace: the opportunities' microsecond offsets plus the
    loop period (== last timestamp). Built from millisecond timestamps, given
    as a list or an int64 array."""

    __slots__ = ("_offsets", "loop_length_ms")

    def __init__(self, timestamps_ms, loop_length_ms: int):
        try:
            ts = np.asarray(timestamps_ms, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"trace timestamps must be at most {MAX_TIMESTAMP_MS}") from None
        if ts.size == 0:
            raise ValueError("trace has no delivery opportunities")
        bad = ts < 1
        bad[1:] |= ts[1:] < ts[:-1]
        if bad.any():
            ts_bad = int(ts[bad.argmax()])
            if ts_bad < 1:
                raise ValueError(f"trace timestamp {ts_bad} is not a positive integer")
            raise ValueError("trace timestamps must be nondecreasing")
        last = int(ts[-1])
        if loop_length_ms != last:
            raise ValueError("loop length must equal the last trace timestamp")
        if last > MAX_TIMESTAMP_MS:
            raise ValueError(f"trace timestamps must be at most {MAX_TIMESTAMP_MS}")
        self.loop_length_ms = last
        self._offsets = _spread_us(ts)

    @property
    def timestamps_ms(self) -> list[int]:
        """The millisecond timestamps, one per opportunity: each offset
        rounded up to its millisecond."""
        return (-(-self._offsets // US_PER_MS)).tolist()

    @property
    def opportunities_per_loop(self) -> int:
        return len(self._offsets)

    @property
    def loop_length_us(self) -> int:
        return self.loop_length_ms * US_PER_MS

    def mean_rate_mbps(self) -> float:
        return _mean_rate_mbps(len(self._offsets), self.loop_length_ms)

    def offsets_us(self) -> np.ndarray:
        """Microsecond offsets of one loop, sorted, each in (0, loop_length_us]."""
        return self._offsets

    def opportunities_until(self, t_us: int) -> int:
        """Number of delivery opportunities at absolute times <= t_us."""
        if t_us <= 0:
            return 0
        offs = self._offsets
        loops, rem = divmod(t_us, self.loop_length_us)
        return loops * len(offs) + int(offs.searchsorted(rem, "right"))

    def next_opportunity(self, t_us: int) -> int:
        """Smallest opportunity time >= t_us (microseconds)."""
        if t_us < 1:
            t_us = 1
        offs = self._offsets
        loops, rem = divmod(t_us - 1, self.loop_length_us)
        idx = offs.searchsorted(rem + 1)
        if idx < len(offs):
            return loops * self.loop_length_us + int(offs[idx])
        return (loops + 1) * self.loop_length_us + int(offs[0])


def _load_digits(path: str | os.PathLike, raw: bytes) -> np.ndarray | None:
    """Timestamps of a valid trace file made only of ASCII digits and line
    breaks, read by ``np.loadtxt``; None for any other file, which the caller
    reads line by line instead."""
    if raw.translate(None, b"0123456789\r\n") or not raw.strip():
        return None
    try:
        values = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except ValueError:  # a number past int64
        return None
    if values[0] < 1 or (values[1:] < values[:-1]).any():
        return None
    return values


def _read_lines(path: str | os.PathLike) -> list[int]:
    """Read a trace one line at a time; raises at the first bad line, with
    its 1-based number."""
    timestamps: list[int] = []
    prev = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if not re.fullmatch(r"\d+", text):
                raise ValueError(f"{path}: line {lineno}: not an integer timestamp: {text!r}")
            ts = int(text)
            if ts < 1:
                raise ValueError(f"{path}: line {lineno}: timestamp must be >= 1, got {ts}")
            if ts < prev:
                raise ValueError(
                    f"{path}: line {lineno}: timestamp {ts} decreases (previous {prev})"
                )
            timestamps.append(ts)
            prev = ts
    if not timestamps:
        raise ValueError(f"{path}: trace has no delivery opportunities")
    return timestamps


def parse_trace(path: str | os.PathLike) -> TraceSchedule:
    """Read a mahimahi trace file. Errors carry 1-based line numbers.

    A file of ASCII digits and line breaks is read with ``np.loadtxt``; any
    other file, or one holding a bad value, is read again line by line, which
    accepts blank lines and surrounding whitespace and names the first bad
    line."""
    with open(path, "rb") as fh:
        timestamps = _load_digits(path, fh.read())
    if timestamps is None:
        timestamps = _read_lines(path)
    return TraceSchedule(timestamps, int(timestamps[-1]))


def write_trace(schedule: TraceSchedule, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(map(str, schedule.timestamps_ms)) + "\n")


def _check_size(n: float, what: str) -> None:
    if n > MAX_SYNTH_OPPORTUNITIES:
        raise ValueError(f"{what} needs {n:.0f} delivery opportunities; a synthesized "
                         f"trace holds at most {MAX_SYNTH_OPPORTUNITIES}")


def _segment_count(rate_mbps: float, duration_s: float) -> int:
    """Opportunity count n of a constant-rate segment, with the checks
    synth_constant names; synth_step has checked that it lasts at least
    1 ms. The size cap is checked before n is rounded or anything built."""
    duration_ms = round(duration_s * 1000)
    exact = rate_mbps * 1e6 * duration_s / (PACKET_BYTES * 8)
    _check_size(exact, f"rate {rate_mbps} Mbps over {duration_s} s")
    n = round(exact)
    if n < 1:
        raise ValueError(
            f"rate {rate_mbps} Mbps over {duration_s} s yields no delivery opportunities"
        )
    realized = _mean_rate_mbps(n, duration_ms)
    if abs(realized - rate_mbps) > 0.005 * rate_mbps:
        raise ValueError(
            f"realized rate {realized:.4f} Mbps is more than 0.5% from {rate_mbps} Mbps"
        )
    return n


def _constant_timestamps(n: int, duration_s: float) -> np.ndarray:
    """Timestamps ceil(i * duration_ms / n), i = 1..n, of a constant-rate
    segment of n opportunities."""
    duration_ms = round(duration_s * 1000)
    timestamps = np.arange(1, n + 1, dtype=np.int64)
    timestamps *= duration_ms
    timestamps += n - 1
    timestamps //= n
    return timestamps


def synth_constant(rate_mbps: float, duration_s: float) -> TraceSchedule:
    """Constant-rate schedule: n = round(rate * duration / packet bits)
    opportunities spread evenly over the duration.

    Raises if the rate rounds to zero opportunities, the realized mean rate
    lands more than 0.5% off the request (coarse millisecond quantization of
    very short/slow traces), or the trace would hold more than
    ``MAX_SYNTH_OPPORTUNITIES``.
    """
    return synth_step([(rate_mbps, duration_s)])


def synth_step(segments: list[tuple[float, float]]) -> TraceSchedule:
    """Concatenate constant-rate segments [(rate_mbps, duration_s), ...] into
    one schedule whose loop spans the total duration. A zero-rate segment
    contributes silence. The segments together may hold at most
    ``MAX_SYNTH_OPPORTUNITIES``, checked before any is built."""
    if not segments:
        raise ValueError("synth_step needs at least one segment")
    counts = []
    for rate_mbps, duration_s in segments:
        if round(duration_s * 1000) < 1:
            raise ValueError("every segment needs a duration of at least 1 ms")
        counts.append(_segment_count(rate_mbps, duration_s) if rate_mbps > 0.0 else 0)
    _check_size(sum(counts), f"a step trace of {len(segments)} segments")
    parts: list[np.ndarray] = []
    base_ms = 0
    for (_, duration_s), n in zip(segments, counts):
        if n:
            seg = _constant_timestamps(n, duration_s)
            seg += base_ms
            parts.append(seg)
        base_ms += round(duration_s * 1000)
    if not parts:
        raise ValueError("trace has no delivery opportunities")
    # Pad the loop to the full span: the loop length must equal the last
    # timestamp, so close the trace with one opportunity at the final
    # millisecond if the last segment was silence.
    if parts[-1][-1] != base_ms:
        parts.append(np.array([base_ms], dtype=np.int64))
    timestamps = np.concatenate(parts)
    del parts  # free the segments before the offsets are built
    return TraceSchedule(timestamps, base_ms)


def capacity_delivered(
    schedule: TraceSchedule, t0_s: float, t1_s: float
) -> int:
    """Delivery opportunities in the half-open window [t0, t1), looping the
    schedule cyclically past its last timestamp."""
    if t1_s < t0_s:
        raise ValueError("capacity window must have t1 >= t0")
    t0_us = round(t0_s * US_PER_S)
    t1_us = round(t1_s * US_PER_S)
    return schedule.opportunities_until(t1_us - 1) - schedule.opportunities_until(t0_us - 1)


_SPEC_RE = re.compile(r"^(constant|step):(.+)$")


def from_spec(spec: str) -> TraceSchedule:
    """Build a schedule from a compact string.

    ``constant:RATE@DUR`` or ``step:RATE@DUR,RATE@DUR,...`` with rates in
    Mbps and durations in seconds; anything else is treated as a path to a
    mahimahi trace file.
    """
    m = _SPEC_RE.match(spec.strip())
    if m is None:
        if os.path.exists(spec):
            return parse_trace(spec)
        raise FileNotFoundError(f"trace file not found: {spec}")
    kind, body = m.groups()
    try:
        segments = []
        for part in body.split(","):
            rate_text, _, dur_text = part.partition("@")
            segments.append((float(rate_text), float(dur_text)))
    except ValueError as exc:
        raise ValueError(f"bad trace spec {spec!r}: {exc}") from exc
    for rate_mbps, duration_s in segments:
        if not (math.isfinite(rate_mbps) and rate_mbps >= 0.0 and math.isfinite(duration_s)):
            raise ValueError(f"bad trace spec {spec!r}: rates and durations must be "
                             "finite and rates >= 0")
    if kind == "constant":
        if len(segments) != 1:
            raise ValueError("constant trace spec takes exactly one RATE@DUR")
        return synth_constant(segments[0][0], segments[0][1])
    return synth_step(segments)
