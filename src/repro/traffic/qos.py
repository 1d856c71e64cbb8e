"""Per-tenant QoS enforcement: token buckets, admission, backpressure.

Sits between workload generation and the DBA grant loop — the policing
point where M17/M18's "a tenant is entitled to what it leased, no more"
becomes mechanical. Each tenant gets a :class:`TokenBucket` sized from
its subscribed rate plus a bounded admission queue:

* requests within rate are **admitted** immediately;
* requests over rate are **queued** while the queue has room (and
  **released** in later cycles as tokens refill);
* once the queue is full, requests are **dropped**.

One enforcer polices one direction (``direction="upstream"`` by
default); a bidirectional plant runs two instances over the same
machinery, and every counter and bus event carries the direction label.

Crossing the queue's high watermark publishes a ``qos.backpressure``
event on the bus (cleared on falling below the low watermark), and each
cycle with drops publishes one aggregated ``qos.drop`` event per tenant —
the signals the monitoring stack correlates with abuse findings.

Telemetry invariant: ``traffic_requests_total`` counts *terminal*
outcomes only (``admitted``/``released``/``dropped``), so its sum over
outcomes equals the number of offered requests once queues drain —
entering the queue is transient and counted separately in
``traffic_queued_requests_total``. (The original scheme counted a
queued request again on release, over-crediting bursty tenants in any
share math built on the counters.)
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common import telemetry
from repro.common.events import EventBus
from repro.traffic.batch import ChunkQueue, Request, RequestBatch

__all__ = ["TokenBucket", "TenantPolicy", "QosEnforcer"]


class TokenBucket:
    """A classic token bucket: ``rate_bps`` sustained, ``burst_bytes`` deep.

    The bucket starts full. Over any interval it therefore admits at most
    ``burst_bytes + rate_bps/8 * elapsed`` bytes — the invariant the
    property tests pin down.
    """

    def __init__(self, rate_bps: float, burst_bytes: int) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst_bytes must be positive")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = int(burst_bytes)
        self._tokens = float(burst_bytes)
        self._last_refill = 0.0

    @property
    def tokens(self) -> float:
        return self._tokens

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self._tokens = min(
                float(self.burst_bytes),
                self._tokens + (now - self._last_refill) * self.rate_bps / 8.0)
            self._last_refill = now

    def allow(self, size_bytes: int, now: float) -> bool:
        """Spend ``size_bytes`` tokens if available; refills from ``now``."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        self._refill(now)
        if size_bytes <= self._tokens:
            self._tokens -= size_bytes
            return True
        return False


@dataclass
class TenantPolicy:
    """One tenant's enforcement state.

    ``dropped_bytes`` is the lifetime total; ``_cycle_drops`` and
    ``_cycle_drop_bytes`` accumulate within one cycle and are reset by
    :meth:`QosEnforcer.cycle_end` after the aggregated ``qos.drop`` event
    is flushed.
    """

    tenant: str
    bucket: TokenBucket
    queue_limit_bytes: int
    queue: ChunkQueue
    backpressured: bool = False
    admitted_bytes: int = 0
    dropped_bytes: int = 0
    dropped_requests: int = 0
    _cycle_drops: int = 0
    _cycle_drop_bytes: int = 0

    @property
    def queued_bytes(self) -> int:
        return self.queue.queued_bytes


class QosEnforcer:
    """Admission control for every tenant sharing one upstream plant."""

    HIGH_WATERMARK = 0.8
    LOW_WATERMARK = 0.5

    def __init__(self, bus: Optional[EventBus] = None, name: str = "qos",
                 registry: Optional[telemetry.MetricsRegistry] = None,
                 direction: str = "upstream") -> None:
        if direction not in ("upstream", "downstream"):
            raise ValueError("direction must be 'upstream' or 'downstream'")
        self.name = name
        self.direction = direction
        self._bus = bus
        self._policies: Dict[str, TenantPolicy] = {}
        metrics = registry if registry is not None else telemetry.active_registry()
        self._metrics = metrics
        self._children: Dict[Tuple[str, str], Tuple[object, object]] = {}
        if metrics is not None:
            self._requests_counter = metrics.counter(
                "traffic_requests_total",
                "Tenant requests, by direction and terminal admission "
                "outcome (admitted/released/dropped).",
                ("tenant", "direction", "outcome"))
            self._bytes_counter = metrics.counter(
                "traffic_bytes_total",
                "Tenant bytes, by direction and terminal admission outcome.",
                ("tenant", "direction", "outcome"))
            self._queued_counter = metrics.counter(
                "traffic_queued_requests_total",
                "Requests that entered the admission queue (transient; "
                "they terminate later as released or never, not both).",
                ("tenant", "direction"))
            self._queued_bytes_counter = metrics.counter(
                "traffic_queued_bytes_total",
                "Bytes that entered the admission queue (transient).",
                ("tenant", "direction"))

    def add_tenant(self, tenant: str, rate_bps: float,
                   burst_bytes: Optional[int] = None,
                   queue_limit_bytes: Optional[int] = None) -> TenantPolicy:
        """Register a tenant's subscribed rate; returns its policy."""
        if tenant in self._policies:
            raise ValueError(f"tenant {tenant} already registered")
        burst = burst_bytes if burst_bytes is not None else max(
            1, int(rate_bps / 8 * 0.1))          # 100 ms of line rate
        queue_limit = queue_limit_bytes if queue_limit_bytes is not None \
            else burst * 4
        policy = TenantPolicy(tenant=tenant,
                              bucket=TokenBucket(rate_bps, burst),
                              queue_limit_bytes=queue_limit,
                              queue=ChunkQueue())
        self._policies[tenant] = policy
        return policy

    def policy(self, tenant: str) -> TenantPolicy:
        policy = self._policies.get(tenant)
        if policy is None:
            raise KeyError(f"tenant {tenant} is not registered with QoS")
        return policy

    # -- admission --------------------------------------------------------------

    def submit(self, request: Request, now: float) -> str:
        """Police one request; returns 'admitted', 'queued' or 'dropped'."""
        policy = self.policy(request.tenant)
        size = request.size_bytes
        if not policy.queue and policy.bucket.allow(size, now):
            policy.admitted_bytes += size
            self._count(policy, "admitted", 1, size)
            return "admitted"
        if policy.queue.queued_bytes + size <= policy.queue_limit_bytes:
            policy.queue.push(RequestBatch(request.tenant, request.issued_at,
                                           (size,)))
            self._count(policy, "queued", 1, size)
            self._check_backpressure(policy, now)
            return "queued"
        self._drop(policy, 1, size)
        self._count(policy, "dropped", 1, size)
        return "dropped"

    def admit(self, batches: Sequence[RequestBatch],
              now: float) -> List[RequestBatch]:
        """Police one cycle: release queued backlog first, then arrivals.

        Returns everything admitted this cycle as batches: every tenant's
        released queue chunks (FIFO), then the admitted part of each
        arrival batch, in the order given. Per tenant that is exactly
        the order :meth:`submit` would admit the same requests in.

        Each batch is decided on local variables: one bucket refill up
        front, one token writeback and one counter ``inc`` per
        ``(tenant, outcome)`` at the end. Token spends stay sequential,
        one request at a time, because float spends do not commute. A
        property test pins this path against the per-request oracle in
        ``tests/oracles.py``.
        """
        admitted: List[RequestBatch] = []
        policies = self._policies
        for policy in policies.values():
            if policy.queue.queued_bytes:
                admitted.extend(self._release(policy, now))
        for batch in batches:
            if batch.sizes:
                policy = policies.get(batch.tenant) \
                    or self.policy(batch.tenant)
                part = self._admit_batch(policy, batch, now)
                if part is not None:
                    admitted.append(part)
        self.cycle_end(now)
        return admitted

    def _admit_batch(self, policy: TenantPolicy, batch: RequestBatch,
                     now: float) -> Optional[RequestBatch]:
        """Decide one tenant's arrivals; returns the admitted part.

        Requests are admitted while the queue is empty and tokens last.
        The rest go request by request, with the outcome :meth:`submit`
        would give each: live queue room decides between queue and drop,
        and the queued requests enter the queue as one chunk.
        """
        sizes = batch.sizes
        bucket = policy.bucket
        bucket._refill(now)
        tokens = bucket._tokens
        queue = policy.queue
        taken = 0
        if not queue.queued_bytes:
            for size in sizes:
                if size > tokens:
                    break
                tokens -= size
                taken += 1
        if taken == len(sizes):
            bucket._tokens = tokens
            policy.admitted_bytes += batch.nbytes
            self._count(policy, "admitted", taken, batch.nbytes)
            return batch
        admitted = sizes[:taken]
        rest = sizes[taken:] if taken else sizes
        smallest = min(rest)
        limit = policy.queue_limit_bytes
        room = limit - queue.queued_bytes
        queue_empty = not queue.queued_bytes
        queued = array("q")
        queued_n = queued_bytes = dropped_n = dropped_bytes = 0
        for index, size in enumerate(rest):
            if queue_empty and size <= tokens:
                tokens -= size
                admitted.append(size)
            elif size <= room:
                queued.append(size)
                queued_n += 1
                queued_bytes += size
                room -= size
                queue_empty = False
                # Queueing only raises the fill, so asserting is the one
                # transition it can cause: enqueue up to this request and
                # let the watermark check see the queue as it is now.
                if not policy.backpressured \
                        and (limit - room) / limit >= self.HIGH_WATERMARK:
                    queue.push(RequestBatch(policy.tenant, batch.issued_at,
                                            queued))
                    queued = array("q")
                    self._check_backpressure(policy, now)
            else:
                dropped_n += 1
                dropped_bytes += size
                if not queue_empty and room < smallest:
                    # Nothing later fits the queue, and nothing is
                    # admitted past a non-empty queue: drop the rest.
                    tail = rest[index + 1:]
                    dropped_n += len(tail)
                    dropped_bytes += sum(tail)
                    break
        if queued:
            queue.push(RequestBatch(policy.tenant, batch.issued_at, queued))
        bucket._tokens = tokens
        admitted_bytes = sum(admitted)
        policy.admitted_bytes += admitted_bytes
        if admitted:
            self._count(policy, "admitted", len(admitted), admitted_bytes)
        if dropped_n:
            self._drop(policy, dropped_n, dropped_bytes)
            self._count(policy, "dropped", dropped_n, dropped_bytes)
        if queued_n:
            self._count(policy, "queued", queued_n, queued_bytes)
        if not admitted:
            return None
        return RequestBatch(policy.tenant, batch.issued_at, admitted)

    def _release(self, policy: TenantPolicy, now: float) -> List[RequestBatch]:
        """Release queued requests, FIFO, while the bucket's tokens last."""
        bucket = policy.bucket
        bucket._refill(now)
        released, bucket._tokens = policy.queue.release(bucket._tokens)
        # The watermark can only have moved if something left the queue;
        # skip the no-op check (and its fill arithmetic) otherwise.
        # Releases are a distinct terminal outcome (the request was
        # already counted "queued" once).
        if released:
            count = released_bytes = 0
            for part in released:
                count += len(part.sizes)
                released_bytes += part.nbytes
            policy.admitted_bytes += released_bytes
            self._count(policy, "released", count, released_bytes)
            self._check_backpressure(policy, now)
        return released

    def cycle_end(self, now: float) -> None:
        """Flush aggregated per-cycle drop events.

        Each tenant with drops this cycle gets one ``qos.drop`` event
        whose ``dropped``/``dropped_bytes`` are *this cycle's* counts
        (reset afterwards); the lifetime total rides along as
        ``dropped_bytes_total``.
        """
        if self._bus is None:
            for policy in self._policies.values():
                policy._cycle_drops = 0
                policy._cycle_drop_bytes = 0
            return
        for policy in self._policies.values():
            if policy._cycle_drops:
                self._bus.emit(
                    "qos.drop", self.name, now, tenant=policy.tenant,
                    direction=self.direction,
                    dropped=policy._cycle_drops,
                    dropped_bytes=policy._cycle_drop_bytes,
                    dropped_bytes_total=policy.dropped_bytes)
                policy._cycle_drops = 0
                policy._cycle_drop_bytes = 0

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _drop(policy: TenantPolicy, count: int, nbytes: int) -> None:
        policy.dropped_requests += count
        policy.dropped_bytes += nbytes
        policy._cycle_drops += count
        policy._cycle_drop_bytes += nbytes

    def _count(self, policy: TenantPolicy, outcome: str, count: int,
               nbytes: int) -> None:
        """Count ``count`` requests of ``nbytes`` under one outcome.

        admitted/released/dropped are terminal and land in
        ``traffic_{requests,bytes}_total``. ``queued`` is transient — a
        queued request terminates later as released, or sits in the
        queue — so it lands in ``traffic_queued_*`` instead, or the
        terminal sum would exceed the offered count. The counter
        children of each ``(tenant, outcome)`` are looked up once.
        """
        if not count or self._metrics is None:
            return
        key = (policy.tenant, outcome)
        children = self._children.get(key)
        if children is None:
            if outcome == "queued":
                families = (self._queued_counter, self._queued_bytes_counter)
                labels = {}
            else:
                families = (self._requests_counter, self._bytes_counter)
                labels = {"outcome": outcome}
            children = self._children[key] = tuple(
                family.labels(tenant=policy.tenant,
                              direction=self.direction, **labels)
                for family in families)
        children[0].inc(count)
        children[1].inc(nbytes)

    def _check_backpressure(self, policy: TenantPolicy, now: float) -> None:
        fill = (policy.queued_bytes / policy.queue_limit_bytes
                if policy.queue_limit_bytes else 0.0)
        if not policy.backpressured and fill >= self.HIGH_WATERMARK:
            policy.backpressured = True
            if self._bus is not None:
                self._bus.emit("qos.backpressure", self.name, now,
                               tenant=policy.tenant, state="asserted",
                               direction=self.direction,
                               queue_fill=round(fill, 3))
        elif policy.backpressured and fill <= self.LOW_WATERMARK:
            policy.backpressured = False
            if self._bus is not None:
                self._bus.emit("qos.backpressure", self.name, now,
                               tenant=policy.tenant, state="cleared",
                               direction=self.direction,
                               queue_fill=round(fill, 3))
