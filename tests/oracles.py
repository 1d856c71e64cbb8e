"""Reference implementations the optimised paths in ``src/`` must match.

Each oracle is the straightforward algorithm a fast path replaced, kept
here as a plain function over the object's existing state. The
hypothesis equality properties (tests/test_traffic.py,
tests/test_properties.py, tests/test_downstream.py) pin the fast paths
to them, and the E19-E21 benchmarks time the fast paths against them.

* :func:`qos_admit` — per-request admission, the oracle for
  :meth:`repro.traffic.qos.QosEnforcer.admit`;
* :func:`dba_grant_fair` — per-T-CONT fair grant, the oracle for the
  ``fair`` policy of :meth:`repro.traffic.dba.DbaScheduler.grant`;
* :func:`downstream_run_cycle` — a naive downstream cycle on that grant,
  the oracle for
  :meth:`repro.traffic.downstream.DownstreamScheduler.run_cycle`.
"""

from typing import Dict, List, Sequence

from repro.traffic.dba import DbaScheduler, TCont
from repro.traffic.downstream import DownstreamScheduler, DrainResult
from repro.traffic.profiles import Request
from repro.traffic.qos import QosEnforcer


def qos_admit(qos: QosEnforcer, requests: List[Request],
              now: float) -> List[Request]:
    """Drain every tenant's queue, police each request with ``submit``,
    then flush the cycle's drop events."""
    admitted: List[Request] = []
    for policy in qos._policies.values():
        admitted.extend(qos._drain_queue(policy, now))
    for request in requests:
        if qos.submit(request, now) == "admitted":
            admitted.append(request)
    qos.cycle_end(now)
    return admitted


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
