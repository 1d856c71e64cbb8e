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

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.common import telemetry
from repro.common.events import EventBus
from repro.traffic.profiles import Request

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
    queue: Deque[Request]
    queued_bytes: int = 0
    backpressured: bool = False
    admitted_bytes: int = 0
    dropped_bytes: int = 0
    dropped_requests: int = 0
    _cycle_drops: int = 0
    _cycle_drop_bytes: int = 0


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
                              queue=deque())
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
        if not policy.queue and policy.bucket.allow(request.size_bytes, now):
            self._account(policy, request, "admitted")
            return "admitted"
        if policy.queued_bytes + request.size_bytes <= policy.queue_limit_bytes:
            policy.queue.append(request)
            policy.queued_bytes += request.size_bytes
            self._account(policy, request, "queued")
            self._check_backpressure(policy, now)
            return "queued"
        policy.dropped_requests += 1
        policy.dropped_bytes += request.size_bytes
        policy._cycle_drops += 1
        policy._cycle_drop_bytes += request.size_bytes
        self._account(policy, request, "dropped")
        return "dropped"

    def admit(self, requests: List[Request], now: float) -> List[Request]:
        """Police a batch: drain queued backlog first, then new arrivals.

        Returns every request admitted this cycle, queue-first (FIFO
        within a tenant is preserved; across tenants the arrival order of
        the input is preserved).

        This is the vectorized admission path: arrivals are grouped per
        tenant, each tenant's bucket is refilled once and charged one
        aggregate token spend for the cycle, and telemetry is batched
        into one counter ``inc`` per ``(tenant, outcome)`` instead of one
        per request. Per-request decisions replicate :meth:`submit`'s
        arithmetic exactly — a property test pins this path against the
        per-request oracle (:meth:`submit` per request) in
        ``tests/oracles.py``.
        """
        admitted: List[Request] = []
        for policy in self._policies.values():
            admitted.extend(self._drain_queue(policy, now))
        if requests:
            groups: Dict[str, List[Request]] = {}
            for request in requests:
                group = groups.get(request.tenant)
                if group is None:
                    groups[request.tenant] = [request]
                else:
                    group.append(request)
            outcomes = {
                tenant: self._admit_tenant_batch(self.policy(tenant),
                                                 group, now)
                for tenant, group in groups.items()}
            cursors = dict.fromkeys(groups, 0)
            for request in requests:
                index = cursors[request.tenant]
                cursors[request.tenant] = index + 1
                if outcomes[request.tenant][index]:
                    admitted.append(request)
        self.cycle_end(now)
        return admitted

    def _admit_tenant_batch(self, policy: TenantPolicy,
                            group: List[Request], now: float) -> List[bool]:
        """Decide one tenant's cycle batch; returns admitted flags in order.

        One bucket refill up front, one aggregate token writeback at the
        end; the decision loop runs on local variables. The queue/drop
        boundary stays per-request (live queue state decides), so
        outcomes — including the per-request backpressure checks on the
        queued path — are unchanged from :meth:`submit`.
        """
        bucket = policy.bucket
        bucket._refill(now)
        tokens = bucket._tokens
        queue = policy.queue
        queue_limit = policy.queue_limit_bytes
        flags: List[bool] = []
        admitted_n = admitted_bytes = 0
        queued_n = queued_bytes = 0
        dropped_n = dropped_bytes = 0
        for request in group:
            size = request.size_bytes
            if not queue and size <= tokens:
                # Sequential subtraction on a local mirrors submit()'s
                # float arithmetic exactly (token spends do not commute
                # in float, so no sum-then-subtract shortcut).
                tokens -= size
                admitted_n += 1
                admitted_bytes += size
                flags.append(True)
                continue
            flags.append(False)
            if policy.queued_bytes + size <= queue_limit:
                queue.append(request)
                policy.queued_bytes += size
                queued_n += 1
                queued_bytes += size
                self._check_backpressure(policy, now)
            else:
                policy.dropped_requests += 1
                policy.dropped_bytes += size
                policy._cycle_drops += 1
                policy._cycle_drop_bytes += size
                dropped_n += 1
                dropped_bytes += size
        bucket._tokens = tokens
        policy.admitted_bytes += admitted_bytes
        if self._metrics is not None:
            for outcome, count, nbytes in (
                    ("admitted", admitted_n, admitted_bytes),
                    ("dropped", dropped_n, dropped_bytes)):
                if count:
                    self._requests_counter.inc(
                        count, tenant=policy.tenant,
                        direction=self.direction, outcome=outcome)
                    self._bytes_counter.inc(
                        nbytes, tenant=policy.tenant,
                        direction=self.direction, outcome=outcome)
            if queued_n:
                self._queued_counter.inc(queued_n, tenant=policy.tenant,
                                         direction=self.direction)
                self._queued_bytes_counter.inc(
                    queued_bytes, tenant=policy.tenant,
                    direction=self.direction)
        return flags

    def _drain_queue(self, policy: TenantPolicy, now: float) -> List[Request]:
        released: List[Request] = []
        released_bytes = 0
        while policy.queue:
            head = policy.queue[0]
            if not policy.bucket.allow(head.size_bytes, now):
                break
            policy.queue.popleft()
            policy.queued_bytes -= head.size_bytes
            released_bytes += head.size_bytes
            released.append(head)
        # The watermark can only have moved if something left the queue;
        # skip the no-op check (and its fill arithmetic) otherwise.
        # Releases are a distinct terminal outcome (the request was
        # already counted "queued" once) and their telemetry is batched:
        # one inc per tenant per drain, like _admit_tenant_batch.
        if released:
            policy.admitted_bytes += released_bytes
            if self._metrics is not None:
                self._requests_counter.inc(
                    len(released), tenant=policy.tenant,
                    direction=self.direction, outcome="released")
                self._bytes_counter.inc(
                    released_bytes, tenant=policy.tenant,
                    direction=self.direction, outcome="released")
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

    def _account(self, policy: TenantPolicy, request: Request,
                 outcome: str) -> None:
        if outcome == "admitted":
            policy.admitted_bytes += request.size_bytes
        if self._metrics is None:
            return
        if outcome == "queued":
            # Transient, not terminal — a queued request terminates later
            # as released (or sits in the queue), so it must not land in
            # traffic_requests_total or the outcome sum would exceed the
            # offered count.
            self._queued_counter.inc(tenant=policy.tenant,
                                     direction=self.direction)
            self._queued_bytes_counter.inc(request.size_bytes,
                                           tenant=policy.tenant,
                                           direction=self.direction)
            return
        self._requests_counter.inc(tenant=policy.tenant,
                                   direction=self.direction, outcome=outcome)
        self._bytes_counter.inc(request.size_bytes, tenant=policy.tenant,
                                direction=self.direction, outcome=outcome)

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
