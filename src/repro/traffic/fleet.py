"""Multi-OLT fleet driver: N PON plants advanced in lockstep by a shard pool.

Each OLT shard (a :class:`~repro.pon.network.PonNetwork` with its own
tenants, DBA scheduler and QoS enforcer) is fully self-contained: a
:class:`ShardRunner` owns its clock, discrete-event
:class:`~repro.common.sim.Scheduler` and bus, so a shard's event stream
is a function of its :class:`ShardConfig` alone. A :class:`ShardPool`
advances every shard to the next monitor boundary on ``workers=N``
hosts, the parent plus N-1 spawned worker processes, and the
:class:`ParallelFleetDriver` re-publishes the returned
:class:`CycleResult` events onto its fleet bus in deterministic
``(timestamp, shard_index, seq)`` order via
:meth:`~repro.common.events.EventBus.publish_batch`. Shards capture only
the topics the fleet bus has live subscribers for
(:meth:`~repro.common.events.EventBus.topics`, sent with every advance),
so no shard event crosses the process boundary unless something in the
parent consumes it; a topic subscribed mid-run ships from the next
boundary on. Because every shard is seeded identically no matter which
host runs it, the rendered fleet report is **byte-identical** for any
worker count.

Fleet telemetry is deliberately fleet-normalized: shards are built with
telemetry disabled wherever they run (an OLT-local share gauge would make
a benign tenant on a quiet OLT look like a noisy neighbour fleet-wide),
and the monitor pass at each boundary publishes each tenant's share of
the *fleet's* offered load into a fleet-local registry, which the
metrics-driven :class:`~repro.security.monitor.abuse.ResourceAbuseDetector`
samples.
Abuse alerts land on the fleet bus; the fleet report records per-tenant
alert latency (first ``monitor.alert`` timestamp), aggregate throughput
and Jain fairness *across OLTs* — the numbers the DSN paper's monitoring
lessons (T6-T8, M15/M18) only make quantifiable at fleet scale.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from dataclasses import dataclass, field
from operator import methodcaller
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import SimClock
from repro.common.events import Event, EventBus, minimal_topics
from repro.common.sim import Scheduler
from repro.common import telemetry
from repro.pon.network import PonNetwork
from repro.security.monitor.abuse import ResourceAbuseDetector
from repro.security.monitor.falco import FalcoEngine
from repro.traffic.loadgen import (
    LoadGenerator, TenantSpec, TrafficReport, jain_index,
)
from repro.traffic.telemetry import OFFERED_SHARE_GAUGE

__all__ = ["FleetReport", "fleet_tenant_specs", "ShardConfig",
           "fleet_shard_configs", "CycleResult", "ShardRunner", "ShardFailure",
           "ShardPool", "ParallelFleetDriver", "run_fleet_parallel"]

_BENIGN_PROFILES = ("steady", "bursty", "diurnal")


def fleet_tenant_specs(olt_index: int, count: int, hostile: bool,
                       rate_bps: float = 100e6) -> List[TenantSpec]:
    """Tenant specs for one shard, named uniquely across the fleet.

    With ``hostile`` the shard's last tenant floods (priority 3, the
    best-effort tier a flooder actually occupies); the rest rotate
    through the well-behaved profiles.
    """
    if count < 1:
        raise ValueError("each OLT needs at least one tenant")
    specs: List[TenantSpec] = []
    for slot in range(1, count + 1):
        if hostile and slot == count:
            specs.append(TenantSpec(
                tenant=f"olt{olt_index}-tenant-hostile",
                serial=f"FLT{olt_index:02d}9999",
                profile="hostile", rate_bps=rate_bps, priority=3))
        else:
            specs.append(TenantSpec(
                tenant=f"olt{olt_index}-tenant-{slot:02d}",
                serial=f"FLT{olt_index:02d}{slot:04d}",
                profile=_BENIGN_PROFILES[(slot - 1) % len(_BENIGN_PROFILES)],
                rate_bps=rate_bps))
    return specs


@dataclass(frozen=True)
class ShardConfig:
    """Everything needed to (re)build one shard, in any process.

    Pure data — picklable, so the same config builds an identical shard
    in the parent or in a spawned worker. The seed is the fleet seed:
    shard determinism comes from string-seeded profile RNGs plus the
    shard-local scheduler seed, both derived from the config alone,
    never from which process hosts the shard.
    """

    index: int
    name: str
    specs: Tuple[TenantSpec, ...]
    cycle_s: float
    seed: int
    downstream: bool = False


def fleet_shard_configs(n_olts: int, n_tenants: int, seed: int = 0,
                        cycle_s: float = 0.02, rate_bps: float = 100e6,
                        hostile: bool = True,
                        downstream: bool = False) -> List[ShardConfig]:
    """Split ``n_tenants`` across ``n_olts`` shards.

    Tenants are dealt as evenly as possible (earlier shards get the
    remainder); with ``hostile`` the first shard's last tenant floods.
    """
    if n_olts < 1:
        raise ValueError("need at least one OLT")
    if n_tenants < n_olts:
        raise ValueError("need at least one tenant per OLT")
    configs: List[ShardConfig] = []
    base, extra = divmod(n_tenants, n_olts)
    for olt_index in range(1, n_olts + 1):
        count = base + (1 if olt_index <= extra else 0)
        # One flooder per fleet, on the first shard: the detector
        # must pick it out of fleet-normalized shares.
        specs = fleet_tenant_specs(olt_index, count,
                                   hostile=hostile and olt_index == 1,
                                   rate_bps=rate_bps)
        configs.append(ShardConfig(index=olt_index, name=f"olt-{olt_index}",
                                   specs=tuple(specs), cycle_s=cycle_s,
                                   seed=seed, downstream=downstream))
    return configs


@dataclass
class FleetReport:
    """Per-OLT rows plus the fleet-level aggregates."""

    duration_s: float
    seed: int
    olts: Dict[str, TrafficReport] = field(default_factory=dict)
    hostile_tenants: List[str] = field(default_factory=list)
    alert_first_at: Dict[str, float] = field(default_factory=dict)
    scheduler_events: int = 0
    monitor_passes: int = 0

    def olt_throughput_bps(self, olt: str) -> float:
        report = self.olts[olt]
        return sum(row.throughput_bps for row in report.tenants.values())

    @property
    def fleet_throughput_bps(self) -> float:
        return sum(self.olt_throughput_bps(olt) for olt in self.olts)

    @property
    def downstream(self) -> bool:
        """True when any shard scheduled the downstream direction."""
        return any(report.downstream for report in self.olts.values())

    def olt_downstream_bps(self, olt: str) -> float:
        report = self.olts[olt]
        return sum(row.downstream_throughput_bps
                   for row in report.tenants.values())

    @property
    def fleet_downstream_bps(self) -> float:
        return sum(self.olt_downstream_bps(olt) for olt in self.olts)

    def jain_across_olts(self) -> float:
        """Fairness of the fleet's delivered throughput between OLTs."""
        return jain_index([self.olt_throughput_bps(olt)
                           for olt in sorted(self.olts)])

    def alert_latency_s(self, tenant: str) -> Optional[float]:
        """Time from fleet start (t=0) to the tenant's first abuse alert."""
        return self.alert_first_at.get(tenant)

    def render(self) -> str:
        n_tenants = sum(len(r.tenants) for r in self.olts.values())
        downstream = self.downstream
        lines = [
            f"fleet run: {len(self.olts)} OLTs x {n_tenants} tenants, "
            f"{self.duration_s:g}s simulated, seed {self.seed}",
            f"scheduler: {self.scheduler_events} events fired, "
            f"{self.monitor_passes} monitor passes",
            "",
            f"{'olt':<12} {'tenants':>7} {'Mbps':>10} {'jain':>7} "
            f"{'drops':>7}"
            + (f" {'dn Mbps':>10} {'dn drops':>9}" if downstream else ""),
        ]
        for olt in sorted(self.olts):
            report = self.olts[olt]
            drops = sum(row.dropped_requests
                        for row in report.tenants.values())
            line = (
                f"{olt:<12} {len(report.tenants):>7} "
                f"{self.olt_throughput_bps(olt) / 1e6:>10.1f} "
                f"{report.jain():>7.3f} {drops:>7}")
            if downstream:
                down_drops = sum(row.dropped_down_requests
                                 for row in report.tenants.values())
                line += (f" {self.olt_downstream_bps(olt) / 1e6:>10.1f} "
                         f"{down_drops:>9}")
            lines.append(line)
        lines.append("")
        lines.append(
            f"fleet throughput: {self.fleet_throughput_bps / 1e6:.1f} Mbps"
            f" | Jain across OLTs: {self.jain_across_olts():.3f}")
        if downstream:
            lines.append(
                f"fleet downstream throughput: "
                f"{self.fleet_downstream_bps / 1e6:.1f} Mbps")
        if self.hostile_tenants:
            for tenant in self.hostile_tenants:
                latency = self.alert_latency_s(tenant)
                lines.append(
                    f"abuse alert for {tenant}: "
                    + (f"first flagged at t={self.alert_first_at[tenant]:g}s"
                       f" (latency {latency:g}s)"
                       if latency is not None else "NOT flagged"))
        benign_flagged = sorted(t for t in self.alert_first_at
                                if t not in self.hostile_tenants)
        if benign_flagged:
            lines.append("false positives: " + ", ".join(benign_flagged))
        return "\n".join(lines)


# One captured bus event, ready to pickle across a process boundary:
# (timestamp, shard-local publish seq, topic, source, payload).
EventRow = Tuple[float, int, str, str, Dict[str, Any]]


@dataclass
class CycleResult:
    """Compact outcome of advancing one shard to a time boundary.

    Everything a merge needs and nothing a worker cannot pickle: the
    bus events captured since the previous boundary (as plain tuples),
    cumulative per-tenant offered/delivered tallies, and counters.
    """

    shard_index: int
    name: str
    until: float
    events: List[EventRow]
    offered: Dict[str, int]
    delivered: Dict[str, int]
    admitted_bytes: int
    dropped_requests: int
    events_fired: int


class ShardRunner:
    """One self-contained OLT shard: own clock, scheduler and bus.

    Identical code runs in the parent and in spawned workers, which is
    what makes the fleet output worker-count-invariant: a shard's entire
    event stream is a function of its :class:`ShardConfig` alone. The
    bus events on the topics named by each :meth:`advance` are captured
    (with a shard-local sequence number) for the driver to merge
    deterministically; the rest never leave the shard.
    """

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.index = config.index
        self.name = config.name
        self.clock = SimClock()
        # Shards meter nothing, wherever they run. Components consult
        # the switch only at construction; the caller's setting returns.
        enabled = telemetry.telemetry_enabled()
        telemetry.set_telemetry_enabled(False)
        try:
            self.bus = EventBus()
            self.scheduler = Scheduler(clock=self.clock, seed=config.seed)
            self.network = PonNetwork.build(config.name,
                                            clock=self.clock, bus=self.bus)
            self.generator = LoadGenerator(
                self.network, list(config.specs), cycle_s=config.cycle_s,
                seed=config.seed, sim=self.scheduler,
                downstream=config.downstream)
        finally:
            telemetry.set_telemetry_enabled(enabled)
        self._pending: List[EventRow] = []
        self._seq = 0
        self._topics: Tuple[str, ...] = ()
        self._uncaptures: List[Callable[[], None]] = []

    def _capture(self, event: Event) -> None:
        self._pending.append((event.timestamp, self._seq, event.topic,
                              event.source, event.payload))
        self._seq += 1

    def start(self, seconds: float) -> int:
        """Register the shard's cycle task; returns its cycle count."""
        self.generator.start(seconds)
        return self.generator.n_cycles

    def advance(self, until: float, topics: Sequence[str]) -> CycleResult:
        """Run the shard to ``until`` and hand back what happened on
        ``topics``, patterns as for
        :meth:`~repro.common.events.EventBus.subscribe` (``("",)`` for
        every event, ``()`` for none)."""
        topics = minimal_topics(topics)
        if topics != self._topics:
            for uncapture in self._uncaptures:
                uncapture()
            self._uncaptures = [self.bus.subscribe(topic, self._capture)
                                for topic in topics]
            self._topics = topics
        self.scheduler.run_until(until)
        events, self._pending = self._pending, []
        qos = self.generator.qos
        admitted = dropped = 0
        if qos is not None:
            for spec in self.generator.specs:
                policy = qos.policy(spec.tenant)
                admitted += policy.admitted_bytes
                dropped += policy.dropped_requests
        return CycleResult(
            shard_index=self.index, name=self.name, until=until,
            events=events,
            offered=self.generator.offered_totals(),
            delivered=self.generator.delivered_totals(),
            admitted_bytes=admitted, dropped_requests=dropped,
            events_fired=self.scheduler.events_fired)

    def report(self) -> TrafficReport:
        return self.generator.report()


class ShardFailure(RuntimeError):
    """A shard host raised or died.

    ``shards`` names every shard of the failed host's bucket; ``detail``
    is the formatted traceback from wherever the bucket ran, or what the
    parent saw of a host that died. Picklable, so a worker sends it back
    as its reply.
    """

    def __init__(self, shards: Sequence[str], detail: str) -> None:
        super().__init__(tuple(shards), detail)
        self.shards = tuple(shards)
        self.detail = detail

    def __str__(self) -> str:
        return f"shards {', '.join(self.shards)} failed:\n{self.detail}"


def _each(names: Sequence[str], fn: Callable[[Any], Any],
          items: Sequence[Any]) -> List[Any]:
    """``fn`` over one bucket; whatever it raises becomes a
    :class:`ShardFailure` naming the bucket's shards."""
    try:
        return [fn(item) for item in items]
    except Exception as exc:
        raise ShardFailure(names, traceback.format_exc()) from exc


def _shard_worker_main(conn, configs: Sequence[ShardConfig]) -> None:
    """Spawn entry point: host one bucket of shards, driven over a pipe.

    A command is a :class:`ShardRunner` method name plus its arguments,
    answered with one result per hosted shard in bucket order. If
    building or running the bucket raises, the :class:`ShardFailure` is
    the answer and the next message ends the worker; otherwise it runs
    until the parent terminates it or goes away.
    """
    names = [config.name for config in configs]
    with conn:
        try:
            runners = _each(names, ShardRunner, configs)
            while True:
                method, args = conn.recv()
                conn.send(_each(names, methodcaller(method, *args), runners))
        except ShardFailure as failure:
            conn.send(failure)
            conn.poll(None)
        except EOFError:
            pass


class ShardPool:
    """Advances a set of shards in lockstep on ``workers`` hosts.

    Shards are dealt round-robin into ``workers`` buckets: the parent
    hosts bucket 0 and spawns a worker (``spawn`` context) per other
    bucket, so ``workers=1`` spawns nothing. The parent runs its bucket
    while the workers run theirs; results come back sorted by shard
    index, so callers never see the bucket assignment. A host that
    raises or dies surfaces as :class:`ShardFailure`.

    A pool is single-use: shards cannot be rewound, so a second
    :meth:`start` or any call after :meth:`close` raises
    :class:`RuntimeError`.
    """

    def __init__(self, configs: Sequence[ShardConfig],
                 workers: int = 1) -> None:
        if not configs:
            raise ValueError("need at least one shard")
        if workers < 1:
            raise ValueError("need at least one worker")
        self.configs = list(configs)
        self.workers = min(workers, len(self.configs))
        self._local: List[ShardRunner] = []
        self._procs: List[mp.process.BaseProcess] = []
        self._conns: List[Any] = []
        self._started = False
        self._closed = False
        ctx = mp.get_context("spawn")
        try:
            # Workers start up while the parent builds its own bucket.
            for bucket in range(1, self.workers):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_shard_worker_main, daemon=True,
                    args=(child_conn, self.configs[bucket::self.workers]))
                process.start()
                child_conn.close()
                self._procs.append(process)
                self._conns.append(parent_conn)
            local = self.configs[::self.workers]
            self._local = _each([config.name for config in local],
                                ShardRunner, local)
        except BaseException:
            self.close()
            raise

    @property
    def n_shards(self) -> int:
        return len(self.configs)

    def _command(self, method: str, *args: Any) -> List[Any]:
        """Call ``method`` on every shard; results in config order."""
        self._require_open()
        try:
            for bucket, conn in enumerate(self._conns, 1):
                conn.send((method, args))
            replies = [_each([runner.name for runner in self._local],
                             methodcaller(method, *args), self._local)]
            for bucket, conn in enumerate(self._conns, 1):
                replies.append(conn.recv())
                if isinstance(replies[-1], ShardFailure):
                    raise replies[-1]
        except (EOFError, OSError) as exc:
            # Free a failed send's pickle buffer now, not in a gc cycle.
            traceback.clear_frames(exc.__traceback__)
            raise ShardFailure(
                [config.name for config in self.configs[bucket::self.workers]],
                f"shard host died ({exc!r})") from exc
        return [replies[position % self.workers][position // self.workers]
                for position in range(len(self.configs))]

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("shard pool is closed; build a new pool "
                               "(or fleet driver) to run again")

    def start(self, seconds: float) -> int:
        """Register every shard's cycle task; returns the cycle count
        (identical across shards — they share ``cycle_s``)."""
        self._require_open()
        if self._started:
            raise RuntimeError("shard pool already run; shards cannot be "
                               "rewound, so build a new pool (or fleet "
                               "driver) for another run")
        self._started = True
        return self._command("start", seconds)[0]

    def advance(self, until: float,
                topics: Sequence[str]) -> List[CycleResult]:
        """Advance every shard to ``until``, capturing the events on
        ``topics``; results in shard-index order."""
        results = self._command("advance", until, tuple(topics))
        results.sort(key=lambda result: result.shard_index)
        return results

    def reports(self) -> Dict[str, TrafficReport]:
        """Per-shard traffic reports, keyed and ordered by shard name."""
        names = [config.name for config in self.configs]
        return dict(sorted(zip(names, self._command("report"))))

    def close(self) -> None:
        """Stop the workers (idempotent). A pool is single-use, so they
        hold nothing worth a graceful exit: terminating them is prompt
        even for one still busy with a command after a failure."""
        for process in self._procs:
            process.terminate()
        for process in self._procs:
            process.join()
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        self._local = []
        self._closed = True

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ParallelFleetDriver:
    """Fleet driver over a :class:`ShardPool`.

    Advances the pool monitor-interval by monitor-interval, asking the
    shards for the topics the fleet bus has live subscribers for at that
    moment; after each boundary it merges every shard's captured events
    onto the shared bus in ``(timestamp, shard_index, seq)`` order — a
    total order that does not depend on worker count or scheduling —
    then runs the fleet-normalized monitor pass and the Falco stats
    heartbeat. The fleet's Falco watches only its rules' topics, so by
    default (no rule matches a PON or QoS topic) no shard event ships.
    The rendered :class:`FleetReport` is byte-identical between
    ``workers=1`` and ``workers=N`` for the same seed.
    """

    def __init__(self, n_olts: int = 4, n_tenants: int = 32, seed: int = 0,
                 cycle_s: float = 0.02, rate_bps: float = 100e6,
                 hostile: bool = True,
                 monitor_interval_s: float = 0.1,
                 alert_persistence: int = 2,
                 workers: int = 1,
                 downstream: bool = False) -> None:
        if monitor_interval_s <= 0:
            raise ValueError("monitor interval must be positive")
        self.seed = seed
        self.monitor_interval_s = monitor_interval_s
        self.configs = fleet_shard_configs(
            n_olts, n_tenants, seed=seed, cycle_s=cycle_s,
            rate_bps=rate_bps, hostile=hostile, downstream=downstream)
        self.pool = ShardPool(self.configs, workers=workers)
        # Fleet-local registry for the bus and the *fleet* shares the
        # detector samples, never the process-wide one of our embedder.
        self.registry = telemetry.MetricsRegistry()
        self.bus = EventBus(metrics=self.registry)
        self._offered_gauge = self.registry.gauge(
            OFFERED_SHARE_GAUGE,
            "Fraction of fleet-wide offered upstream load, per tenant.",
            ("tenant",))
        # Persistence > 1 is the alert-fatigue knob: a bursty tenant's
        # spike breaches one monitor pass, a flooder breaches them all.
        self.detector = ResourceAbuseDetector(
            registry=self.registry, bus=self.bus,
            persistence=alert_persistence)
        self.falco = FalcoEngine()
        self.falco.attach(self.bus, all_events=False)
        self.alert_first_at: Dict[str, float] = {}
        self.bus.subscribe("monitor.alert", self._on_alert)
        self.monitor_passes = 0

    def _on_alert(self, event: Event) -> None:
        tenant = event.payload.get("tenant")
        if tenant is not None:
            self.alert_first_at.setdefault(tenant, event.timestamp)

    def _merge(self, results: Sequence[CycleResult]) -> int:
        """Publish the boundary's shard events in deterministic order.

        Returns the fleet's cumulative shard scheduler event count.
        """
        rows: List[Tuple[float, int, int, str, str, Dict[str, Any]]] = []
        for result in results:
            shard = result.shard_index
            for timestamp, seq, topic, source, payload in result.events:
                rows.append((timestamp, shard, seq, topic, source, payload))
        rows.sort(key=lambda row: (row[0], row[1], row[2]))
        self.bus.publish_batch([
            Event(topic=topic, source=source, timestamp=timestamp,
                  payload=payload)
            for timestamp, _shard, _seq, topic, source, payload in rows])
        return sum(result.events_fired for result in results)

    def _monitor_pass(self, results: Sequence[CycleResult],
                      boundary: float) -> None:
        """Fleet-normalized offered shares from the shard tallies."""
        self.monitor_passes += 1
        offered: Dict[str, int] = {}
        for result in results:
            offered.update(result.offered)
        total = sum(offered.values())
        for tenant in sorted(offered):
            share = offered[tenant] / total if total else 0.0
            self._offered_gauge.set(round(share, 6), tenant=tenant)
        self.detector.sample_metrics(now=boundary)

    def run(self, seconds: float) -> FleetReport:
        """Drive every shard for ``seconds`` of simulated time."""
        if seconds <= 0:
            raise ValueError("duration must be positive")
        n_cycles = self.pool.start(seconds)
        duration = n_cycles * self.configs[0].cycle_s
        events_fired = 0
        boundary = 0.0
        step = 0
        while boundary < duration:
            step += 1
            # Multiples of the interval, never float accumulation — the
            # boundary sequence is identical in every mode.
            boundary = min(step * self.monitor_interval_s, duration)
            results = self.pool.advance(boundary, self.bus.topics())
            events_fired = self._merge(results)
            self._monitor_pass(results, boundary)
            self.bus.emit("monitor.stats", "falco", boundary,
                          events_processed=self.falco.events_processed,
                          rule_evaluations=self.falco.rule_evaluations,
                          alerts=len(self.falco.alerts))
        report = FleetReport(
            duration_s=duration, seed=self.seed,
            scheduler_events=events_fired + self.monitor_passes,
            monitor_passes=self.monitor_passes,
            alert_first_at=dict(self.alert_first_at),
            hostile_tenants=[spec.tenant for config in self.configs
                             for spec in config.specs
                             if spec.profile == "hostile"])
        # Sorted insertion: fleet-level float sums then reduce in the
        # same order regardless of which worker produced which report.
        report.olts.update(self.pool.reports())
        return report


def run_fleet_parallel(n_olts: int = 4, n_tenants: int = 32,
                       seconds: float = 2.0, seed: int = 0,
                       hostile: bool = True, cycle_s: float = 0.02,
                       workers: int = 1,
                       downstream: bool = False) -> FleetReport:
    """Stand up a sharded fleet and run it — the CLI/E19/E20 entry point."""
    driver = ParallelFleetDriver(n_olts=n_olts, n_tenants=n_tenants,
                                 seed=seed, hostile=hostile,
                                 cycle_s=cycle_s, workers=workers,
                                 downstream=downstream)
    try:
        return driver.run(seconds)
    finally:
        driver.pool.close()
