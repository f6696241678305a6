"""Bottleneck link schedules in the mahimahi packet-trace format.

A trace is a list of nondecreasing integer millisecond timestamps, one packet
delivery opportunity per line; k copies of the same timestamp mean k
opportunities in that millisecond. The schedule loops with period equal to the
last timestamp, so cycle c replays every opportunity shifted by c * loop
milliseconds. Leading silence (a first timestamp above 1) is part of the
pattern and survives a parse/write round trip.

Internally opportunities live on a microsecond grid: the k opportunities of
millisecond m are spread uniformly across (m-1, m] ms, the last landing
exactly on m ms (so a lone opportunity fires at its nominal timestamp).
"""

from __future__ import annotations

import bisect
import math
import os
import re
from array import array
from dataclasses import dataclass, field

PACKET_BYTES = 1500

US_PER_MS = 1000
US_PER_S = 1_000_000


@dataclass
class TraceSchedule:
    """Parsed trace: timestamps plus the loop period (== last timestamp)."""

    timestamps_ms: list[int]
    loop_length_ms: int
    _offsets_us: array = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.timestamps_ms:
            raise ValueError("trace has no delivery opportunities")
        prev = 0
        for ts in self.timestamps_ms:
            if ts < 1:
                raise ValueError(f"trace timestamp {ts} is not a positive integer")
            if ts < prev:
                raise ValueError("trace timestamps must be nondecreasing")
            prev = ts
        if self.loop_length_ms != self.timestamps_ms[-1]:
            raise ValueError("loop length must equal the last trace timestamp")

    @property
    def opportunities_per_loop(self) -> int:
        return len(self.timestamps_ms)

    @property
    def loop_length_us(self) -> int:
        return self.loop_length_ms * US_PER_MS

    def mean_rate_mbps(self, packet_bytes: int = PACKET_BYTES) -> float:
        bits = len(self.timestamps_ms) * packet_bytes * 8
        return bits / (self.loop_length_ms / 1000.0) / 1e6

    def offsets_us(self) -> array:
        """Microsecond offsets of one loop, sorted, each in (0, loop_length_us]."""
        if self._offsets_us is None:
            offs = array("q")
            i = 0
            ts = self.timestamps_ms
            n = len(ts)
            while i < n:
                j = i
                while j < n and ts[j] == ts[i]:
                    j += 1
                k = j - i
                base = (ts[i] - 1) * US_PER_MS
                for m in range(1, k + 1):
                    offs.append(base + -(-m * US_PER_MS // k))
                i = j
            self._offsets_us = offs
        return self._offsets_us

    def opportunities_until(self, t_us: int) -> int:
        """Number of delivery opportunities at absolute times <= t_us."""
        if t_us <= 0:
            return 0
        offs = self.offsets_us()
        loops, rem = divmod(t_us, self.loop_length_us)
        return loops * len(offs) + bisect.bisect_right(offs, rem)

    def next_opportunity(self, t_us: int) -> int:
        """Smallest opportunity time >= t_us (microseconds)."""
        if t_us < 1:
            t_us = 1
        offs = self.offsets_us()
        loops, rem = divmod(t_us - 1, self.loop_length_us)
        idx = bisect.bisect_left(offs, rem + 1)
        if idx < len(offs):
            return loops * self.loop_length_us + offs[idx]
        return (loops + 1) * self.loop_length_us + offs[0]


def parse_trace(path: str | os.PathLike) -> TraceSchedule:
    """Read a mahimahi trace file. Errors carry 1-based line numbers."""
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
    return TraceSchedule(timestamps, timestamps[-1])


def write_trace(schedule: TraceSchedule, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        for ts in schedule.timestamps_ms:
            fh.write(f"{ts}\n")


def synth_constant(
    rate_mbps: float, duration_s: float, packet_bytes: int = PACKET_BYTES
) -> TraceSchedule:
    """Constant-rate schedule: n = round(rate * duration / packet bits)
    opportunities spread evenly over the duration.

    Raises if the rate rounds to zero opportunities or the realized mean rate
    lands more than 0.5% off the request (coarse millisecond quantization of
    very short/slow traces).
    """
    duration_ms = round(duration_s * 1000)
    if duration_ms < 1:
        raise ValueError("trace duration must be at least 1 ms")
    n = round(rate_mbps * 1e6 * duration_s / (packet_bytes * 8))
    if n < 1:
        raise ValueError(
            f"rate {rate_mbps} Mbps over {duration_s} s yields no delivery opportunities"
        )
    timestamps = [-(-i * duration_ms // n) for i in range(1, n + 1)]
    schedule = TraceSchedule(timestamps, duration_ms)
    realized = schedule.mean_rate_mbps(packet_bytes)
    if abs(realized - rate_mbps) > 0.005 * rate_mbps:
        raise ValueError(
            f"realized rate {realized:.4f} Mbps is more than 0.5% from {rate_mbps} Mbps"
        )
    return schedule


def synth_step(
    segments: list[tuple[float, float]], packet_bytes: int = PACKET_BYTES
) -> TraceSchedule:
    """Concatenate constant-rate segments [(rate_mbps, duration_s), ...] into
    one schedule whose loop spans the total duration. A zero-rate segment
    contributes silence."""
    if not segments:
        raise ValueError("synth_step needs at least one segment")
    timestamps: list[int] = []
    base_ms = 0
    for rate_mbps, duration_s in segments:
        duration_ms = round(duration_s * 1000)
        if duration_ms < 1:
            raise ValueError("every segment needs a duration of at least 1 ms")
        if rate_mbps > 0.0:
            seg = synth_constant(rate_mbps, duration_s, packet_bytes)
            timestamps.extend(ts + base_ms for ts in seg.timestamps_ms)
        base_ms += duration_ms
    if not timestamps:
        raise ValueError("step trace has no delivery opportunities")
    # Pad the loop to the full span: the loop length must equal the last
    # timestamp, so close the trace with one opportunity at the final
    # millisecond if the last segment was silence.
    if timestamps[-1] != base_ms:
        timestamps.append(base_ms)
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


def from_spec(spec: str, packet_bytes: int = PACKET_BYTES) -> TraceSchedule:
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
        return synth_constant(segments[0][0], segments[0][1], packet_bytes)
    return synth_step(segments, packet_bytes)
