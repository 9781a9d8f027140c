"""Traffic shapers: packet-based leaky bucket and byte-based token bucket.

Both run one greedy FIFO server (_serve) under a policy each: a pure,
deterministic discrete-event function over a valid received trace's columns.
Departure times are written into recv_ts_us so a shaper's output can feed the
next pipeline stage directly (departures become arrivals).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import le
from typing import NamedTuple, Optional, Union

from .model import TS_MAX, US_PER_S, MediaPacket, StreamTrace, _Record, check_trace

DROP_BUCKET_FULL = "bucket full"
DROP_QUEUE_FULL = "queue full"
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # a keep mask's complement


class ShapingPreconditionError(ValueError):
    """Input trace does not meet a shaper precondition."""


class PipelineStageError(Exception):
    """A pipeline stage failed; carries the stage index."""

    def __init__(self, stage: int, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage}: {cause}")


@dataclass(frozen=True)
class LeakyBucketConfig:
    """Fixed-interval drain over a bounded packet queue."""

    capacity_packets: int = 15
    drain_interval_us: int = 20000

    def __post_init__(self) -> None:
        if self.capacity_packets < 1:
            raise ValueError("capacity_packets must be >= 1")
        if self.drain_interval_us < 1:
            raise ValueError("drain_interval_us must be >= 1")


@dataclass(frozen=True)
class TokenBucketConfig:
    """Byte-based token bucket: one token buys one byte of departure."""

    rate: Fraction  # tokens (bytes) per second
    capacity_tokens: int
    initial_tokens: Optional[int] = None
    queue_limit_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", Fraction(self.rate))
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.capacity_tokens < 1:
            raise ValueError("capacity_tokens must be >= 1")
        if not 0 <= self.start_tokens <= self.capacity_tokens:
            raise ValueError("initial_tokens must lie in [0, capacity_tokens]")
        if self.queue_limit_bytes is not None and self.queue_limit_bytes < 1:
            raise ValueError("queue_limit_bytes must be >= 1")

    @property
    def start_tokens(self) -> int:
        return self.capacity_tokens if self.initial_tokens is None else self.initial_tokens


ShaperConfig = Union[LeakyBucketConfig, TokenBucketConfig]


class OccupancySample(NamedTuple):
    ts_us: int
    queued_packets: int
    queued_bytes: int
    tokens: int


class Occupancy(NamedTuple):
    """The samples as columns. queued_bytes and tokens are each an array('q')
    when its bound (the sum of the sizes; the token capacity, 0 for the leaky
    bucket) fits in 64 bits, and a list otherwise: neither has an upper bound."""

    ts_us: array
    queued_packets: array
    queued_bytes: Union[array, list]
    tokens: Union[array, list]


class ShapeResult(_Record):
    """One stage's outcome, from its columns: the `shaped` trace, the dropped
    packets as a trace (`drops`, with their arrivals) with their `reasons`,
    and the Occupancy `samples`. The views `dropped` and `occupancy` build
    the rows on each access (O(n) every time)."""

    __slots__ = ("shaped", "drops", "reasons", "samples")

    @property
    def dropped(self) -> tuple[tuple[MediaPacket, str], ...]:
        return tuple(zip(self.drops.packets, self.reasons))

    @property
    def occupancy(self) -> tuple[OccupancySample, ...]:
        return tuple(map(OccupancySample, *self.samples))


class _LeakyPolicy:
    """Fixed drain: a departure comes at least one drain interval after the
    one before it, and a bucket holding `most_waiting` packets refuses more."""

    __slots__ = ("drain", "most_waiting", "next_free")
    queues_every_packet = False
    reason = DROP_BUCKET_FULL
    cap = 0  # it holds no tokens
    most_bytes = None  # no limit

    def __init__(self, cfg: LeakyBucketConfig):
        self.drain = cfg.drain_interval_us
        self.most_waiting = cfg.capacity_packets
        self.next_free = -2**63  # idle until the first departure: no arrival is earlier

    def ready(self, size: int) -> int:
        return self.next_free

    def depart(self, t: int, size: int) -> int:
        self.next_free = t + self.drain
        return 0

    def tokens_at(self, t: int) -> int:
        return 0


class _TokenPolicy:
    """Exact integer token accrual kept as one virtual time, `empty`.

    At time t the bucket holds (t * num - empty) // den_us tokens, where
    den_us = rate denominator * 10^6, and empty / num is the instant it last
    held none: tokens * den_us + sub-token remainder == t * num - empty. A
    full bucket accrues nothing (its remainder is discarded). Events come in
    time order, as in GCRA (ITU-T I.371). A queue holding `most_bytes` bytes
    refuses a packet that would pass it (None: no limit).
    """

    __slots__ = ("num", "den_us", "cap", "cap_den", "most_bytes", "empty")
    queues_every_packet = True
    reason = DROP_QUEUE_FULL
    most_waiting = None  # no limit

    def __init__(self, cfg: TokenBucketConfig):
        self.num = cfg.rate.numerator
        self.den_us = cfg.rate.denominator * US_PER_S
        self.cap = cfg.capacity_tokens
        self.cap_den = self.cap * self.den_us
        self.most_bytes = cfg.queue_limit_bytes
        self.empty = -cfg.start_tokens * self.den_us

    def tokens_at(self, t: int) -> int:
        accrued = t * self.num
        if self.empty < accrued - self.cap_den:
            self.empty = accrued - self.cap_den
        return (accrued - self.empty) // self.den_us

    def ready(self, size: int) -> int:
        """Earliest time at which `size` tokens are available. With arrivals in
        order, a head whose tokens were ready before the last event arrived
        after it, so max(arrival, ready) never comes before the last event."""
        if size > self.cap:
            raise ShapingPreconditionError(
                f"packet of {size} bytes exceeds token capacity {self.cap}; it can never depart")
        return -(-(size * self.den_us + self.empty) // self.num)  # ceiling division

    def depart(self, t: int, size: int) -> int:
        tokens = self.tokens_at(t) - size
        self.empty += size * self.den_us
        return tokens


def _check_arrived(trace: StreamTrace) -> StreamTrace:
    """The trace, if every packet has an arrival timestamp, as shaping needs;
    else ShapingPreconditionError naming the first that has none."""
    if trace.missing:
        raise ShapingPreconditionError(
            f"packet {trace.missing[0]} has no arrival timestamp (recv_ts_us)")
    return trace


def _column(bound: int) -> Union[array, list]:
    """An empty column for ints in [0, bound]: an array('q') if they fit, else a list."""
    return array("q") if bound <= TS_MAX else []


def _serve(trace: StreamTrace, policy: Union[_LeakyPolicy, _TokenPolicy]) -> ShapeResult:
    """Greedy FIFO server: the queue's head departs at max(arrival, ready),
    where the policy's ready(size) is the earliest time it may send `size`
    bytes. That departure, `due`, is worked out once, when the packet becomes
    the head: on entering an empty queue, or at the departure ahead of it,
    which it arrived before and which its ready never precedes (the drain
    comes an interval later; the tokens a microsecond earlier are spent to
    below 0). It holds until the packet departs, as only depart(t, size)
    moves either policy's clock, and tokens_at(t) never caps a bucket while
    a head waits (it then holds fewer tokens than the head's size, at most
    its capacity). At each arrival the heads due by then depart first, then
    the packet is dropped, for the policy's one reason, if `most_waiting`
    packets wait or it would take the queued bytes past `most_bytes`, or
    else admitted; a limit of None is a bound never reached, the trace's
    length or the sum of its sizes. An admitted packet that finds the queue
    empty and is due at once departs unqueued, unless the policy
    queues_every_packet. Samples take their tokens from depart(t, size) and
    tokens_at(t).

    Every packet must have arrived, sizes be at least 1 and arrivals never
    decrease from 0 on. A trace that fails the one screen for the last two
    breaks the trace contract, so check_trace raises its TraceValidationError.
    Each sample column's type is picked before the loop from its bound, the
    sum of the sizes or the policy's `cap` (see Occupancy).

    The queue holds input indices. Each packet departs but those dropped, and
    a FIFO server never reorders, so the departures, appended as they happen,
    are the shaped trace's arrivals in input order. A departure past TS_MAX,
    which no column holds, raises ShapingPreconditionError.
    """
    _check_arrived(trace)
    recv, sizes = trace.recv_ts_us, trace.size_bytes
    if min(sizes, default=1) < 1 or not all(map(le, chain((0,), recv), recv)):
        check_trace(trace)  # a size below 1, or an arrival below 0 or unsorted
    ready, depart, tokens_at = policy.ready, policy.depart, policy.tokens_at
    queues_every_packet = policy.queues_every_packet
    n, total = len(trace), sum(sizes)
    most_waiting, most_bytes = policy.most_waiting or n, policy.most_bytes or total

    queue: deque[int] = deque()
    queued_bytes = 0
    due = idle = TS_MAX + 1  # the head's departure; with no head, after every arrival
    departures = array("q")
    departs = departures.append
    dropped = bytearray(n)
    samples = Occupancy(array("q"), array("q"), _column(total), _column(policy.cap))
    sample_t, sample_queued, sample_bytes, sample_tokens = (c.append for c in samples)
    pop_head = queue.popleft
    enqueue = queue.append

    # a last arrival at TS_MAX drains every head that departs by then
    for i, t in enumerate(chain(recv, (TS_MAX,))):
        while due <= t:
            size = sizes[pop_head()]
            queued_bytes -= size
            departs(due)
            sample_t(due)
            sample_queued(len(queue))
            sample_bytes(queued_bytes)
            sample_tokens(depart(due, size))
            due = ready(sizes[queue[0]]) if queue else idle  # the next head's: its ready
        if i == n:
            break
        size = sizes[i]
        if len(queue) >= most_waiting or queued_bytes + size > most_bytes:
            dropped[i] = 1
            tokens = tokens_at(t)
        elif queue or (due := ready(size)) > t or queues_every_packet:
            if due < t:  # a new head whose tokens were ready before it arrived
                due = t
            enqueue(i)
            queued_bytes += size
            tokens = tokens_at(t)
        else:  # departs the instant it arrives, past an empty queue
            due = idle
            departs(t)
            tokens = depart(t, size)
        sample_t(t)
        sample_queued(len(queue))
        sample_bytes(queued_bytes)
        sample_tokens(tokens)
    if queue:  # the head's departure `due` is past the last arrival, TS_MAX
        raise ShapingPreconditionError(f"departure {due} > {TS_MAX}")
    drops = trace.select(dropped)
    return ShapeResult(trace.select(dropped.translate(_FLIP), departures),
                       drops, (policy.reason,) * len(drops), samples)


def leaky_bucket_shape(trace: StreamTrace, cfg: LeakyBucketConfig) -> ShapeResult:
    """Shape a trace through a fixed-drain leaky bucket.

    A packet arriving to an empty queue with an idle drain clock departs
    immediately and arms the clock; otherwise it queues (or drops when the
    bucket is full). The clock goes idle only when a drain tick fires on an
    empty queue, so consecutive departures are never closer than the drain
    interval.
    """
    return _serve(trace, _LeakyPolicy(cfg))


def token_bucket_shape(trace: StreamTrace, cfg: TokenBucketConfig) -> ShapeResult:
    """Shape a trace through a byte-based token bucket.

    Tokens accrue continuously at the configured rational rate (exact
    integer arithmetic, no lost fractions); the FIFO head departs at the
    earliest microsecond its size in bytes is covered by available tokens.
    """
    return _serve(trace, _TokenPolicy(cfg))


def run_pipeline(stages: list[ShaperConfig],
                 trace: StreamTrace) -> tuple[StreamTrace, list[ShapeResult]]:
    """Chain shaper stages; stage k+1 sees stage k's departures as arrivals."""
    results: list[ShapeResult] = []
    current = trace
    for k, cfg in enumerate(stages):
        try:
            if isinstance(cfg, LeakyBucketConfig):
                result = leaky_bucket_shape(current, cfg)
            elif isinstance(cfg, TokenBucketConfig):
                result = token_bucket_shape(current, cfg)
            else:
                raise TypeError(f"unknown shaper config: {cfg!r}")
        except Exception as exc:
            raise PipelineStageError(k, exc) from exc
        results.append(result)
        current = result.shaped
    return current, results
