"""Tenant-labelled traffic telemetry.

Publishes the per-tenant shares the metrics-driven abuse detector
(:class:`repro.security.monitor.abuse.ResourceAbuseDetector`) consumes,
closing the ROADMAP loop: noisy-neighbour detection reads the registry
instead of ad-hoc runtime sampling.

Metric families (all labelled by ``tenant``):

* ``traffic_tenant_offered_share`` (gauge) — fraction of total *offered*
  load this cycle. A flooding tenant shows up here even when QoS clamps
  what it actually gets — offered load is the attack signal.
* ``traffic_tenant_bandwidth_share`` (gauge) — fraction of *delivered*
  upstream bytes this cycle (what the tenant actually got).
* ``traffic_tenant_bandwidth_share_hist`` (histogram) — the distribution
  of delivered shares across cycles.
* ``runtime_tenant_cpu_share`` (gauge) + ``runtime_tenant_cpu_share_hist``
  (histogram) — per-tenant CPU share of a container runtime's capacity,
  sampled via :meth:`TrafficTelemetry.observe_runtime`.
* ``traffic_tenant_downstream_throughput_bps`` (gauge) — delivered
  downstream rate over the last scheduling cycle.
* ``traffic_tenant_downstream_queue_bytes`` (gauge) — the tenant's
  downstream queue depth at the OLT after the cycle's drain (sustained
  depth means the broadcast direction is the bottleneck).

The family names are module constants so consumers (the abuse detector,
dashboards, tests) never hand-spell them.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.common import telemetry

__all__ = [
    "OFFERED_SHARE_GAUGE",
    "BANDWIDTH_SHARE_GAUGE",
    "BANDWIDTH_SHARE_HIST",
    "CPU_SHARE_GAUGE",
    "CPU_SHARE_HIST",
    "DOWNSTREAM_THROUGHPUT_GAUGE",
    "DOWNSTREAM_QUEUE_GAUGE",
    "SHARE_BUCKETS",
    "TrafficTelemetry",
]

OFFERED_SHARE_GAUGE = "traffic_tenant_offered_share"
BANDWIDTH_SHARE_GAUGE = "traffic_tenant_bandwidth_share"
BANDWIDTH_SHARE_HIST = "traffic_tenant_bandwidth_share_hist"
CPU_SHARE_GAUGE = "runtime_tenant_cpu_share"
CPU_SHARE_HIST = "runtime_tenant_cpu_share_hist"
DOWNSTREAM_THROUGHPUT_GAUGE = "traffic_tenant_downstream_throughput_bps"
DOWNSTREAM_QUEUE_GAUGE = "traffic_tenant_downstream_queue_bytes"

# Share-of-node buckets: fine below fair-share levels, coarse above.
SHARE_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)


class TrafficTelemetry:
    """Registers and feeds the tenant-share metric families.

    Constructed with an explicit registry, or the process-wide one when
    telemetry is enabled; with telemetry globally disabled every method
    is a no-op (same contract as the other instrumented substrates).
    """

    def __init__(self,
                 registry: Optional[telemetry.MetricsRegistry] = None) -> None:
        metrics = registry if registry is not None else telemetry.active_registry()
        self._metrics = metrics
        if metrics is not None:
            self._offered_gauge = metrics.gauge(
                OFFERED_SHARE_GAUGE,
                "Fraction of offered upstream load, per tenant.", ("tenant",))
            self._share_gauge = metrics.gauge(
                BANDWIDTH_SHARE_GAUGE,
                "Fraction of delivered upstream bytes, per tenant.",
                ("tenant",))
            self._share_hist = metrics.histogram(
                BANDWIDTH_SHARE_HIST,
                "Delivered bandwidth share per tenant per DBA cycle.",
                ("tenant",), buckets=SHARE_BUCKETS)
            self._cpu_gauge = metrics.gauge(
                CPU_SHARE_GAUGE,
                "Fraction of node CPU capacity consumed, per tenant.",
                ("tenant",))
            self._cpu_hist = metrics.histogram(
                CPU_SHARE_HIST,
                "CPU share per tenant per sampling pass.",
                ("tenant",), buckets=SHARE_BUCKETS)
            self._downstream_throughput_gauge = metrics.gauge(
                DOWNSTREAM_THROUGHPUT_GAUGE,
                "Delivered downstream bits/s over the last cycle, "
                "per tenant.", ("tenant",))
            self._downstream_queue_gauge = metrics.gauge(
                DOWNSTREAM_QUEUE_GAUGE,
                "Downstream queue depth at the OLT after the cycle's "
                "drain, per tenant.", ("tenant",))

    @property
    def enabled(self) -> bool:
        return self._metrics is not None

    def record_cycle(self, offered: Mapping[str, int],
                     delivered: Mapping[str, int]) -> None:
        """Update per-tenant share gauges/histograms for one DBA cycle."""
        if self._metrics is None:
            return
        total_offered = sum(offered.values())
        total_delivered = sum(delivered.values())
        for tenant, nbytes in offered.items():
            share = nbytes / total_offered if total_offered else 0.0
            self._offered_gauge.set(round(share, 6), tenant=tenant)
        for tenant, nbytes in delivered.items():
            share = nbytes / total_delivered if total_delivered else 0.0
            self._share_gauge.set(round(share, 6), tenant=tenant)
            self._share_hist.observe(share, tenant=tenant)

    def record_downstream_cycle(self, delivered: Mapping[str, int],
                                queue_depths: Mapping[str, int],
                                cycle_s: float) -> None:
        """Update the downstream throughput/queue-depth gauges."""
        if self._metrics is None:
            return
        for tenant, nbytes in delivered.items():
            self._downstream_throughput_gauge.set(
                round(nbytes * 8 / cycle_s, 3), tenant=tenant)
        for tenant, depth in queue_depths.items():
            self._downstream_queue_gauge.set(depth, tenant=tenant)

    def observe_runtime(self, runtime) -> Dict[str, float]:
        """Sample a container runtime's per-tenant CPU shares into gauges.

        ``runtime`` is a :class:`repro.virt.runtime.ContainerRuntime`
        (duck-typed to avoid a layering dependency). Returns the shares.
        """
        shares: Dict[str, float] = {}
        capacity = getattr(runtime, "cpu_capacity", 0.0)
        if capacity:
            for container in runtime.running_containers():
                tenant = container.tenant or "untenanted"
                shares[tenant] = shares.get(tenant, 0.0) \
                    + container.cpu_used / capacity
        if self._metrics is not None:
            for tenant, share in shares.items():
                self._cpu_gauge.set(round(share, 6), tenant=tenant)
                self._cpu_hist.observe(share, tenant=tenant)
        return shares
