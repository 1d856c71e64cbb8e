"""Reference implementations the optimised paths in ``src/`` must match.

Each oracle is the straightforward algorithm a fast path replaced. The
hypothesis equality properties (tests/test_traffic.py,
tests/test_properties.py, tests/test_downstream.py) pin the fast paths
to them, and the E19-E21 benchmarks time the fast paths against them.

* :class:`PerRequestQos` — admission one :class:`Request` object at a
  time, the oracle for the batch path of
  :meth:`repro.traffic.qos.QosEnforcer.admit` (and for ``submit``);
* :class:`PerRequestTCont` — a T-CONT that queues and completes request
  objects, the oracle for :class:`repro.traffic.batch.ChunkQueue` under
  :meth:`repro.traffic.dba.TCont.offer`/``drain``;
* :func:`latency_stats` — mean and p95 over per-request latencies, the
  oracle for the run-length latency store of
  :meth:`repro.traffic.loadgen.LoadGenerator.report`;
* :func:`dba_grant_fair` — per-T-CONT fair grant, the oracle for the
  ``fair`` policy of :meth:`repro.traffic.dba.DbaScheduler.grant`;
* :func:`downstream_run_cycle` — a naive downstream cycle on that grant,
  the oracle for
  :meth:`repro.traffic.downstream.DownstreamScheduler.run_cycle`.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.events import EventBus
from repro.common.telemetry import MetricsRegistry
from repro.traffic.dba import DbaScheduler, TCont
from repro.traffic.downstream import DownstreamScheduler, DrainResult
from repro.traffic.profiles import Request
from repro.traffic.qos import QosEnforcer, TokenBucket


@dataclass
class _Policy:
    tenant: str
    bucket: TokenBucket
    queue_limit_bytes: int
    queue: Deque[Request] = field(default_factory=deque)
    queued_bytes: int = 0
    backpressured: bool = False
    admitted_bytes: int = 0
    dropped_bytes: int = 0
    dropped_requests: int = 0
    cycle_drops: int = 0
    cycle_drop_bytes: int = 0


class PerRequestQos:
    """Token-bucket admission, queue, drop and backpressure, decided and
    counted one request object at a time. Same counters (in ``registry``)
    and bus events as :class:`~repro.traffic.qos.QosEnforcer`."""

    def __init__(self, bus: Optional[EventBus] = None, name: str = "qos",
                 registry: Optional[MetricsRegistry] = None,
                 direction: str = "upstream") -> None:
        self.name = name
        self.direction = direction
        self._bus = bus
        self.policies: Dict[str, _Policy] = {}
        self._metrics = registry
        if registry is not None:
            labels = ("tenant", "direction", "outcome")
            self._requests = registry.counter("traffic_requests_total",
                                              labelnames=labels)
            self._bytes = registry.counter("traffic_bytes_total",
                                           labelnames=labels)
            self._queued = registry.counter("traffic_queued_requests_total",
                                            labelnames=labels[:2])
            self._queued_bytes = registry.counter(
                "traffic_queued_bytes_total", labelnames=labels[:2])

    def add_tenant(self, tenant: str, rate_bps: float, burst_bytes: int,
                   queue_limit_bytes: int) -> None:
        self.policies[tenant] = _Policy(tenant, TokenBucket(rate_bps,
                                                            burst_bytes),
                                        queue_limit_bytes)

    def admit(self, requests: Sequence[Request],
              now: float) -> List[Request]:
        """Release every tenant's queue, police each arrival with
        :meth:`submit`, then flush the cycle's drop events."""
        admitted: List[Request] = []
        for policy in self.policies.values():
            admitted.extend(self._release(policy, now))
        for request in requests:
            if self.submit(request, now) == "admitted":
                admitted.append(request)
        self.cycle_end(now)
        return admitted

    def submit(self, request: Request, now: float) -> str:
        policy = self.policies[request.tenant]
        size = request.size_bytes
        if not policy.queue and policy.bucket.allow(size, now):
            policy.admitted_bytes += size
            self._count(policy, "admitted", 1, size)
            return "admitted"
        if policy.queued_bytes + size <= policy.queue_limit_bytes:
            policy.queue.append(request)
            policy.queued_bytes += size
            if self._metrics is not None:
                self._queued.inc(tenant=policy.tenant,
                                 direction=self.direction)
                self._queued_bytes.inc(size, tenant=policy.tenant,
                                       direction=self.direction)
            self._check_backpressure(policy, now)
            return "queued"
        policy.dropped_requests += 1
        policy.dropped_bytes += size
        policy.cycle_drops += 1
        policy.cycle_drop_bytes += size
        self._count(policy, "dropped", 1, size)
        return "dropped"

    def _release(self, policy: _Policy, now: float) -> List[Request]:
        released: List[Request] = []
        while policy.queue:
            head = policy.queue[0]
            if not policy.bucket.allow(head.size_bytes, now):
                break
            policy.queue.popleft()
            policy.queued_bytes -= head.size_bytes
            released.append(head)
        if released:
            nbytes = sum(r.size_bytes for r in released)
            policy.admitted_bytes += nbytes
            self._count(policy, "released", len(released), nbytes)
            self._check_backpressure(policy, now)
        return released

    def cycle_end(self, now: float) -> None:
        for policy in self.policies.values():
            if policy.cycle_drops and self._bus is not None:
                self._bus.emit(
                    "qos.drop", self.name, now, tenant=policy.tenant,
                    direction=self.direction, dropped=policy.cycle_drops,
                    dropped_bytes=policy.cycle_drop_bytes,
                    dropped_bytes_total=policy.dropped_bytes)
            policy.cycle_drops = policy.cycle_drop_bytes = 0

    def _count(self, policy: _Policy, outcome: str, count: int,
               nbytes: int) -> None:
        if self._metrics is not None:
            self._requests.inc(count, tenant=policy.tenant,
                               direction=self.direction, outcome=outcome)
            self._bytes.inc(nbytes, tenant=policy.tenant,
                            direction=self.direction, outcome=outcome)

    def _check_backpressure(self, policy: _Policy, now: float) -> None:
        fill = (policy.queued_bytes / policy.queue_limit_bytes
                if policy.queue_limit_bytes else 0.0)
        if not policy.backpressured and fill >= QosEnforcer.HIGH_WATERMARK:
            policy.backpressured = True
            state = "asserted"
        elif policy.backpressured and fill <= QosEnforcer.LOW_WATERMARK:
            policy.backpressured = False
            state = "cleared"
        else:
            return
        if self._bus is not None:
            self._bus.emit("qos.backpressure", self.name, now,
                           tenant=policy.tenant, state=state,
                           direction=self.direction,
                           queue_fill=round(fill, 3))


class PerRequestTCont:
    """A T-CONT backlog of request objects: a grant completes a request
    only with its last byte, and the remainder of a fragmented head
    request waits for the next grant. With ``limit_bytes`` it is a
    downstream queue that tail-drops what would overflow it."""

    def __init__(self, limit_bytes: Optional[int] = None) -> None:
        self.queue: Deque[Request] = deque()
        self.queued_bytes = 0
        self.limit_bytes = limit_bytes
        self.dropped_requests = 0
        self.dropped_bytes = 0
        self._head_sent = 0

    def offer(self, request: Request) -> bool:
        if self.limit_bytes is not None \
                and self.queued_bytes + request.size_bytes > self.limit_bytes:
            self.dropped_requests += 1
            self.dropped_bytes += request.size_bytes
            return False
        self.queue.append(request)
        self.queued_bytes += request.size_bytes
        return True

    def drain(self, granted: int, now: float) -> Tuple[int, List[float]]:
        """Returns (sent, latency of every request completed)."""
        sent = 0
        latencies: List[float] = []
        while granted > 0 and self.queue:
            head = self.queue[0]
            take = min(head.size_bytes - self._head_sent, granted)
            sent += take
            granted -= take
            self.queued_bytes -= take
            if take == head.size_bytes - self._head_sent:
                self.queue.popleft()
                self._head_sent = 0
                latencies.append(now - head.issued_at)
            else:
                self._head_sent += take
        return sent, latencies


def per_tenant(requests: Iterable[Request]
               ) -> Dict[str, List[Tuple[int, float]]]:
    """``tenant -> [(size, issued_at), ...]`` in order: what admission is
    compared on, since each tenant has its own T-CONT and the order
    across tenants is not observable."""
    sequences: Dict[str, List[Tuple[int, float]]] = {}
    for request in requests:
        sequences.setdefault(request.tenant, []).append(
            (request.size_bytes, request.issued_at))
    return sequences


def latency_stats(latencies: Sequence[float]) -> Tuple[int, float, float]:
    """``(count, mean, p95)`` over per-request latencies: the mean summed
    over the sorted list, p95 by the ceil-index rule."""
    ordered = sorted(latencies)
    if not ordered:
        return 0, 0.0, 0.0
    index = min(len(ordered) - 1,
                max(0, math.ceil(0.95 * len(ordered)) - 1))
    return len(ordered), sum(ordered) / len(ordered), ordered[index]


def _grant_guaranteed(dba: DbaScheduler, backlogged: Sequence[TCont],
                      grants: Dict[int, int], capacity: int,
                      remaining: int) -> int:
    """The anti-starvation round: a small quantum for every queue."""
    if dba.guaranteed_share <= 0:
        return remaining
    quantum = max(1, int(capacity * dba.guaranteed_share) // len(backlogged))
    for tcont in backlogged:
        if remaining <= 0:
            break
        give = min(quantum, tcont.queued_bytes, remaining)
        grants[tcont.alloc_id] += give
        remaining -= give
    return remaining


def _grant_priority_tiers(backlogged: Sequence[TCont],
                          grants: Dict[int, int], remaining: int) -> int:
    """Strict priority across tiers, weighted fair filling within one."""
    for priority in sorted({t.priority for t in backlogged}):
        if remaining <= 0:
            break
        tier = [t for t in backlogged if t.priority == priority]
        remaining = DbaScheduler._fill(tier, grants, remaining,
                                       lambda t: t.weight)
    return remaining


def dba_grant_fair(dba: DbaScheduler, capacity_bytes: int) -> Dict[int, int]:
    """One cycle's fair-policy grant computed T-CONT by T-CONT, with the
    tier structure rebuilt from scratch; returns alloc_id -> bytes."""
    backlogged = [t for t in dba.tconts() if t.queued_bytes > 0]
    grants = {t.alloc_id: 0 for t in backlogged}
    remaining = capacity_bytes
    if backlogged and remaining > 0:
        remaining = _grant_guaranteed(dba, backlogged, grants,
                                      capacity_bytes, remaining)
        _grant_priority_tiers(backlogged, grants, remaining)
    return grants


def downstream_run_cycle(scheduler: DownstreamScheduler,
                         capacity_bytes: int,
                         now: float = 0.0) -> Dict[str, DrainResult]:
    """:meth:`DownstreamScheduler.run_cycle` with the allocation done by
    :func:`dba_grant_fair`: drain every granted queue in alloc-id order,
    then emit the cycle's ``pon.downstream.grant`` event."""
    grants = dba_grant_fair(scheduler._allocator, capacity_bytes)
    scheduler.cycles_run += 1
    results: Dict[str, DrainResult] = {}
    sent_total = 0
    for queue in scheduler.queues():
        granted = grants.get(queue.alloc_id, 0)
        if granted <= 0:
            continue
        sent, completed = queue.drain(granted, now)
        sent_total += sent
        results[queue.tenant] = (sent, completed)
    if scheduler._bus is not None:
        scheduler._bus.emit(
            "pon.downstream.grant", scheduler.name, now,
            cycle=scheduler.cycles_run, capacity_bytes=capacity_bytes,
            granted_bytes=sent_total,
            backlog_bytes=scheduler.total_backlog(),
            queues={queue.alloc_id: grants[queue.alloc_id]
                    for queue in scheduler.queues()
                    if grants.get(queue.alloc_id, 0) > 0})
    return results
