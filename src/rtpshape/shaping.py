"""Traffic shapers: packet-based leaky bucket and byte-based token bucket.

Both run one greedy FIFO server (_serve) under a policy each: a pure,
deterministic discrete-event function over a received trace. Departure times
are written into recv_ts_us so a shaper's output can feed the next pipeline
stage directly (departures become arrivals).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import inf
from typing import NamedTuple, Optional, Union

from .model import MediaPacket, StreamTrace, _collector_paused

DROP_BUCKET_FULL = "bucket full"
DROP_QUEUE_FULL = "queue full"

US_PER_S = 10**6


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


@dataclass(frozen=True)
class ShapeResult:
    shaped: StreamTrace
    dropped: tuple[tuple[MediaPacket, str], ...]
    occupancy: tuple[OccupancySample, ...]


class _LeakyPolicy:
    """Fixed drain: a departure comes at least one drain interval after the
    one before it, and a bucket holding capacity packets refuses more."""

    __slots__ = ("drain", "cap", "next_free")
    queues_every_packet = False

    def __init__(self, cfg: LeakyBucketConfig):
        self.drain = cfg.drain_interval_us
        self.cap = cfg.capacity_packets
        self.next_free: Union[int, float] = -inf  # idle until the first departure

    def ready(self, size: int) -> Union[int, float]:
        return self.next_free

    def depart(self, t: int, size: int) -> int:
        self.next_free = t + self.drain
        return 0

    def tokens_at(self, t: int) -> int:
        return 0

    def refuse(self, waiting: int, waiting_bytes: int, size: int) -> Optional[str]:
        return DROP_BUCKET_FULL if waiting >= self.cap else None


class _TokenPolicy:
    """Exact integer token accrual with sub-token remainder carry.

    tokens available at t = min(cap, tokens + (rem + (t - t_last) * num) // den_us)
    where den_us = rate denominator * 10^6. When the bucket caps, the
    remainder is discarded (a full bucket accrues nothing).
    """

    __slots__ = ("num", "den_us", "cap", "limit", "tokens", "rem", "t")
    queues_every_packet = True

    def __init__(self, cfg: TokenBucketConfig):
        self.num = cfg.rate.numerator
        self.den_us = cfg.rate.denominator * US_PER_S
        self.cap = cfg.capacity_tokens
        self.limit = cfg.queue_limit_bytes
        self.tokens = cfg.start_tokens
        self.rem = 0
        self.t = 0

    def tokens_at(self, t: int) -> int:
        acc = self.rem + (t - self.t) * self.num
        tokens = self.tokens + acc // self.den_us
        if tokens >= self.cap:
            self.tokens, self.rem = self.cap, 0
        else:
            self.tokens, self.rem = tokens, acc % self.den_us
        self.t = t
        return self.tokens

    def ready(self, size: int) -> int:
        """Earliest time >= the last event at which `size` tokens are available."""
        if size > self.cap:
            raise ShapingPreconditionError(
                f"packet of {size} bytes exceeds token capacity {self.cap}; it can never depart")
        if self.tokens >= size:
            return self.t
        deficit = (size - self.tokens) * self.den_us - self.rem
        return self.t + -(-deficit // self.num)  # ceiling division

    def depart(self, t: int, size: int) -> int:
        self.tokens = self.tokens_at(t) - size
        return self.tokens

    def refuse(self, waiting: int, waiting_bytes: int, size: int) -> Optional[str]:
        if self.limit is not None and waiting_bytes + size > self.limit:
            return DROP_QUEUE_FULL
        return None


@_collector_paused()
def _serve(trace: StreamTrace, policy: Union[_LeakyPolicy, _TokenPolicy]) -> ShapeResult:
    """Greedy FIFO server: the queue's head departs at max(arrival, ready),
    where the policy's ready(size) is the earliest time it may send `size`
    bytes. At each arrival the heads due by then depart first, then the
    policy's refuse(waiting, waiting_bytes, size) drops the packet or it is
    admitted. An admitted packet that finds the queue empty and the policy
    ready departs unqueued, unless the policy queues_every_packet. Samples
    take their tokens from depart(t, size) and tokens_at(t).
    """
    arrivals = [p[5] for p in trace.packets]
    if None in arrivals:
        raise ShapingPreconditionError(
            f"packet {arrivals.index(None)} has no arrival timestamp (recv_ts_us)")
    ready, depart, tokens_at, refuse = \
        policy.ready, policy.depart, policy.tokens_at, policy.refuse
    queues_every_packet = policy.queues_every_packet

    queue: deque[MediaPacket] = deque()
    queued_bytes = 0
    shaped: list[MediaPacket] = []
    dropped: list[tuple[MediaPacket, str]] = []
    occupancy: list[OccupancySample] = []

    # hot loop: bind lookups to locals and build tuples without going
    # through the NamedTuple constructors
    new = tuple.__new__
    sample = OccupancySample
    packet = MediaPacket
    shaped_append = shaped.append
    occ_append = occupancy.append
    pop_head = queue.popleft
    enqueue = queue.append

    # a last arrival at infinity drains the queue
    for pkt, t in zip(chain(trace.packets, (None,)), chain(arrivals, (inf,))):
        while queue:
            head = queue[0]
            size = head[6]
            dep = ready(size)
            if dep < head[5]:
                dep = head[5]
            if dep > t:
                break
            pop_head()
            queued_bytes -= size
            shaped_append(new(packet, head[:5] + (dep, size)))
            occ_append(new(sample, (dep, len(queue), queued_bytes, depart(dep, size))))
        if pkt is None:
            break
        size = pkt[6]
        reason = refuse(len(queue), queued_bytes, size)
        if reason is not None:
            dropped.append((pkt, reason))
        elif queue or queues_every_packet or ready(size) > t:
            enqueue(pkt)
            queued_bytes += size
        else:
            # departs the instant it arrives, so the packet is unchanged
            shaped_append(pkt)
            occ_append(new(sample, (t, 0, 0, depart(t, size))))
            continue
        occ_append(new(sample, (t, len(queue), queued_bytes, tokens_at(t))))

    return ShapeResult(
        shaped=StreamTrace(tuple(shaped)),
        dropped=tuple(dropped),
        occupancy=tuple(occupancy),
    )


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


def shape(trace: StreamTrace, cfg: ShaperConfig) -> ShapeResult:
    if isinstance(cfg, LeakyBucketConfig):
        return leaky_bucket_shape(trace, cfg)
    if isinstance(cfg, TokenBucketConfig):
        return token_bucket_shape(trace, cfg)
    raise TypeError(f"unknown shaper config: {cfg!r}")


def run_pipeline(stages: list[ShaperConfig],
                 trace: StreamTrace) -> tuple[StreamTrace, list[ShapeResult]]:
    """Chain shaper stages; stage k+1 sees stage k's departures as arrivals."""
    results: list[ShapeResult] = []
    current = trace
    for k, cfg in enumerate(stages):
        try:
            result = shape(current, cfg)
        except Exception as exc:
            raise PipelineStageError(k, exc) from exc
        results.append(result)
        current = result.shaped
    return current, results
