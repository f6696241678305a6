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
millisecond gives the timestamps back.

Parsing reduces the validated timestamps to millisecond runs: the distinct
milliseconds that hold opportunities, with the count in each. Synthesis
computes a dense constant-rate segment's runs (at least one opportunity
per millisecond) in closed form. One builder fills the offsets a block of
runs at a time (``_RUN_BLOCK``). A sparse segment's opportunities each sit
alone in their millisecond, so their offsets are written straight from the
closed form, a block at a time. Besides the offsets and the runs, never
more of them than opportunities, a build holds one block's temporaries:
memory follows the opportunities, never the loop's milliseconds.
``write_trace`` formats the timestamps a block at a time too.
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


# Runs per block of the offsets build: a block's temporaries hold its runs'
# opportunities, 2 MiB each on a 720 Mbps trace.
_RUN_BLOCK = 4096

# Opportunities per block that write_trace formats at once.
_WRITE_BLOCK = 8192


def _fill_offsets(out: np.ndarray, ms: np.ndarray, counts: np.ndarray) -> None:
    """Write the offsets of runs, given as distinct increasing milliseconds
    and the positive count of each, into ``out``: opportunity j (1-based) of
    the k in millisecond m lands at (m-1) * 1000 + ceil(j * 1000 / k)
    microseconds."""
    end = 0
    for a in range(0, len(ms), _RUN_BLOCK):
        k = counts[a:a + _RUN_BLOCK]
        per = np.repeat(k, k)
        start, end = end, end + len(per)
        seg = out[start:end]
        # j: a running count that drops back to 1 where each run starts.
        seg.fill(1)
        seg[np.cumsum(k[:-1])] -= k[:-1]
        np.cumsum(seg, out=seg)
        seg *= US_PER_MS
        seg += per
        seg -= 1
        seg //= per
        seg += np.repeat((ms[a:a + _RUN_BLOCK] - 1) * US_PER_MS, k)


def _runs(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of validated timestamps: each distinct millisecond and the
    number of opportunities in it."""
    first = np.flatnonzero(np.concatenate(([True], ts[1:] != ts[:-1])))
    return ts[first], np.diff(first, append=len(ts))


def _ceil_ms(offsets: np.ndarray) -> np.ndarray:
    """Each offset rounded up to its millisecond: its timestamp."""
    return -(-offsets // US_PER_MS)


class TraceSchedule:
    """One loop of a trace: the opportunities' microsecond offsets plus the
    loop period (== last timestamp). Built from millisecond timestamps, given
    as a list or an int64 array."""

    __slots__ = ("_offsets", "loop_length_ms")

    def __init__(self, timestamps_ms):
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
        if last > MAX_TIMESTAMP_MS:
            raise ValueError(f"trace timestamps must be at most {MAX_TIMESTAMP_MS}")
        self.loop_length_ms = last
        self._offsets = np.empty(len(ts), dtype=np.int64)
        _fill_offsets(self._offsets, *_runs(ts))

    @classmethod
    def _from_offsets(cls, offsets: np.ndarray, loop_length_ms: int) -> TraceSchedule:
        """A schedule around offsets that ``_fill_offsets`` built from valid
        runs, the last at ``loop_length_ms``."""
        self = cls.__new__(cls)
        self.loop_length_ms = loop_length_ms
        self._offsets = offsets
        return self

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


def _load_digits(raw: bytes) -> np.ndarray | None:
    """Timestamps of a valid trace file made only of ASCII digits and line
    breaks, parsed from its bytes by ``np.fromstring``; None for any other
    file, which the caller reads line by line instead. A file of line breaks
    alone parses as [0], and a value past int64 saturates, so neither passes
    the checks here."""
    if raw.translate(None, b"0123456789\r\n"):
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    if (not values.size or values[0] < 1 or values[-1] > MAX_TIMESTAMP_MS
            or (values[1:] < values[:-1]).any()):
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

    A file of ASCII digits and line breaks is parsed from the bytes read
    once; any other file, or one holding a bad value, is read again line by
    line, which accepts blank lines and surrounding whitespace and names the
    first bad line."""
    with open(path, "rb") as fh:
        timestamps = _load_digits(fh.read())
    if timestamps is None:
        timestamps = _read_lines(path)
    return TraceSchedule(timestamps)


def write_trace(schedule: TraceSchedule, path: str | os.PathLike) -> None:
    """Write the schedule's timestamps, one line per opportunity, formatting
    a block of offsets at a time."""
    offsets = schedule.offsets_us()
    with open(path, "w") as fh:
        for a in range(0, len(offsets), _WRITE_BLOCK):
            fh.write("\n".join(map(str, _ceil_ms(offsets[a:a + _WRITE_BLOCK]).tolist())))
            fh.write("\n")


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


def _segment_runs(n: int, duration_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs of a constant-rate segment with at least as many opportunities n
    as milliseconds, the opportunities at ceil(i * duration_ms / n),
    i = 1..n. A timestamp is at most m exactly when i <= floor(m * n /
    duration_ms), so every millisecond holds a run. Every product is at
    most n * duration_ms <= n * n."""
    ms = np.arange(1, duration_ms + 1, dtype=np.int64)
    upto = ms * n
    upto //= duration_ms
    return ms, np.diff(upto, prepend=0)


def _fill_sparse(out: np.ndarray, n: int, duration_ms: int, base_ms: int) -> None:
    """Write into ``out`` the offsets of a constant-rate segment starting at
    ``base_ms`` with fewer opportunities n than milliseconds D: opportunity
    i sits alone at ceil(i * D / n) ms, which is i * q + ceil(i * r / n) for
    D = q * n + r, so every product stays below n * n or D."""
    q, r = divmod(duration_ms, n)
    for a in range(0, n, _RUN_BLOCK):
        i = np.arange(a + 1, min(a + _RUN_BLOCK, n) + 1, dtype=np.int64)
        seg = out[a:a + len(i)]
        np.multiply(i, r, out=seg)
        seg += n - 1
        seg //= n
        i *= q
        seg += i
        seg += base_ms
        seg *= US_PER_MS


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
    durations_ms: list[int] = []
    counts: list[int] = []
    for rate_mbps, duration_s in segments:
        durations_ms.append(round(duration_s * 1000))
        if durations_ms[-1] < 1:
            raise ValueError("every segment needs a duration of at least 1 ms")
        counts.append(_segment_count(rate_mbps, duration_s) if rate_mbps > 0.0 else 0)
    _check_size(sum(counts), f"a step trace of {len(segments)} segments")
    if not any(counts):
        raise ValueError("trace has no delivery opportunities")
    if sum(durations_ms) > MAX_TIMESTAMP_MS:
        raise ValueError(f"trace timestamps must be at most {MAX_TIMESTAMP_MS}")
    # A segment with opportunities ends on its last millisecond, so only a
    # silent last segment leaves the loop open: one opportunity at the final
    # millisecond closes it, as the loop length must equal the last timestamp.
    offsets = np.empty(sum(counts) + (counts[-1] == 0), dtype=np.int64)
    start = base_ms = 0
    for duration_ms, n in zip(durations_ms, counts):
        if n >= duration_ms:
            ms, k = _segment_runs(n, duration_ms)
            ms += base_ms
            _fill_offsets(offsets[start:start + n], ms, k)
        elif n:
            _fill_sparse(offsets[start:start + n], n, duration_ms, base_ms)
        start += n
        base_ms += duration_ms
    if start < len(offsets):
        offsets[-1] = base_ms * US_PER_MS
    return TraceSchedule._from_offsets(offsets, base_ms)


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
