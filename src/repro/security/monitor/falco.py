"""Falco-style runtime monitoring engine (M18).

Consumes the event streams the substrates publish (container syscalls,
host file mutations, logins, control-plane audit) and evaluates them
against a customizable rule set — observing *without blocking*, exactly
as the paper contrasts Falco with signature scanners and sandboxes.

Lesson 8's two tensions are first-class:

* **tuning**: every rule carries exception predicates; the experiments
  show the default rules alert on benign operational behaviour (e.g. an
  operator exec'ing a debug shell) until exceptions are added, and that
  over-broad exceptions then miss real attacks;
* **overhead**: the engine counts events and rule evaluations, and
  :meth:`FalcoEngine.overhead_estimate` converts them into a relative
  cost; the E12 bench also measures real wall-clock overhead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import telemetry
from repro.common.events import Event, EventBus, minimal_topics

Condition = Callable[[Event], bool]


class Priority(enum.IntEnum):
    NOTICE = 1
    WARNING = 2
    ERROR = 3
    CRITICAL = 4


@dataclass
class FalcoRule:
    """One detection rule."""

    name: str
    description: str
    topics: Tuple[str, ...]
    condition: Condition
    priority: Priority = Priority.WARNING
    exceptions: List[Condition] = field(default_factory=list)

    def applies_to(self, topic: str) -> bool:
        return any(topic == t or topic.startswith(t + ".")
                   for t in self.topics)

    def evaluate(self, event: Event) -> bool:
        if not self.condition(event):
            return False
        return not any(exception(event) for exception in self.exceptions)

    def add_exception(self, exception: Condition) -> None:
        """Tuning: suppress matches the operator has vetted as benign."""
        self.exceptions.append(exception)


@dataclass
class Alert:
    """One fired detection."""

    rule: str
    priority: Priority
    timestamp: float
    source: str
    summary: str


def _not_monitor(event: Event) -> bool:
    return not event.topic.startswith("monitor.")


class _RuleList(list):
    """A rule list that calls ``on_change`` after every mutation."""

    __slots__ = ("_on_change",)

    def __init__(self, rules: Sequence[FalcoRule],
                 on_change: Callable[[], None]) -> None:
        super().__init__(rules)
        self._on_change = on_change


def _invalidating(name: str) -> Callable[..., object]:
    method = getattr(list, name)

    def mutate(self: _RuleList, *args: object, **kwargs: object) -> object:
        try:
            return method(self, *args, **kwargs)
        finally:
            self._on_change()

    mutate.__name__ = name
    return mutate


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__",
              "append", "extend", "insert", "pop", "remove", "clear",
              "sort", "reverse"):
    setattr(_RuleList, _name, _invalidating(_name))


class FalcoEngine:
    """The monitoring engine attached to an event bus.

    With ``publish_alerts=True`` every fired alert is also re-published on
    the bus under the ``monitor.alert`` topic, so downstream consumers
    (the live correlator, dashboards) can subscribe instead of polling
    ``engine.alerts``. The engine never evaluates its own alert events
    (no feedback loop): ``monitor.*`` topics are excluded from handling.

    :meth:`attach` watches every topic by default, like Falco's ``-A``;
    with ``all_events=False`` the engine subscribes only to its rules'
    topics, as Falco does by default since 0.35, so events no rule can
    match are never delivered, counted or (on a fleet) shipped.
    """

    def __init__(self, rules: Optional[Sequence[FalcoRule]] = None,
                 publish_alerts: bool = False) -> None:
        # topic -> the rules that apply to it, in rule order; dropped
        # whenever ``rules`` changes (see _RuleList).
        self._by_topic: Dict[str, Tuple[FalcoRule, ...]] = {}
        self._bus: Optional[EventBus] = None
        self._all_events = True
        self._watched: Tuple[str, ...] = ()
        self._unsubscribes: List[Callable[[], None]] = []
        self.rules = rules if rules is not None else default_rules()
        self.alerts: List[Alert] = []
        self.events_processed = 0
        self.rule_evaluations = 0
        self.rule_errors: Dict[str, int] = {}
        self.publish_alerts = publish_alerts
        metrics = telemetry.active_registry()
        self._metrics = metrics
        if metrics is not None:
            self._events_counter = metrics.counter(
                "falco_events_total", "Events seen by the runtime monitor.")
            self._evaluations_counter = metrics.counter(
                "falco_rule_evaluations_total", "Rule condition evaluations.")
            self._alerts_counter = metrics.counter(
                "falco_alerts_total", "Alerts fired, by rule.", ("rule",))
            self._errors_counter = metrics.counter(
                "falco_rule_errors_total", "Broken-rule exceptions, by rule.",
                ("rule",))

    @property
    def rules(self) -> List[FalcoRule]:
        """The rule set, in evaluation order. Any change to the list, or
        assigning a new one, re-indexes the rules by topic (and, when
        attached with ``all_events=False``, re-subscribes); a rule's
        ``topics`` are read then."""
        return self._rules

    @rules.setter
    def rules(self, rules: Sequence[FalcoRule]) -> None:
        self._rules = _RuleList(rules, self._rules_changed)
        self._rules_changed()

    def _rules_changed(self) -> None:
        self._by_topic.clear()
        if self._bus is not None:
            self._subscribe()

    def _rules_for(self, topic: str) -> Tuple[FalcoRule, ...]:
        rules = self._by_topic.get(topic)
        if rules is None:
            rules = self._by_topic[topic] = tuple(
                rule for rule in self._rules if rule.applies_to(topic))
        return rules

    # -- lifecycle -------------------------------------------------------------

    def attach(self, bus: EventBus, *, all_events: bool = True) -> None:
        """Watch ``bus``: every topic, or with ``all_events=False`` only
        the topics the rules name (once per minimal topic prefix, so no
        event is handled twice), following later rule changes."""
        if self._bus is not None:
            raise ValueError("engine already attached")
        self._bus = bus
        self._all_events = all_events
        self._subscribe()

    def _subscribe(self) -> None:
        """(Re)subscribe to the watched topics if they changed."""
        watched = ("",) if self._all_events else minimal_topics(
            topic for rule in self._rules for topic in rule.topics)
        if watched == self._watched:
            return
        self._unsubscribe_all()
        self._watched = watched
        self._unsubscribes = [
            self._bus.subscribe(topic, self._handle, predicate=_not_monitor)
            for topic in watched]

    def _unsubscribe_all(self) -> None:
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes = []

    def detach(self) -> None:
        self._unsubscribe_all()
        self._watched = ()
        self._bus = None

    def rule(self, name: str) -> FalcoRule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(f"no rule named {name!r}")

    # -- the hot path ------------------------------------------------------------

    def _handle(self, event: Event) -> None:
        self.events_processed += 1
        metrics = self._metrics
        if metrics is not None:
            self._events_counter.inc()
        for rule in self._rules_for(event.topic):
            self.rule_evaluations += 1
            if metrics is not None:
                self._evaluations_counter.inc()
            try:
                fired = rule.evaluate(event)
            except Exception:
                # A broken (operator-tuned) rule must never take down the
                # mediation path it observes — count it and keep going.
                self.rule_errors[rule.name] = \
                    self.rule_errors.get(rule.name, 0) + 1
                if metrics is not None:
                    self._errors_counter.inc(rule=rule.name)
                continue
            if fired:
                alert = Alert(
                    rule=rule.name, priority=rule.priority,
                    timestamp=event.timestamp, source=event.source,
                    summary=self._summarize(event))
                self.alerts.append(alert)
                if metrics is not None:
                    self._alerts_counter.inc(rule=rule.name)
                if self.publish_alerts and self._bus is not None:
                    self._bus.emit(
                        "monitor.alert", "falco", alert.timestamp,
                        rule=alert.rule, priority=int(alert.priority),
                        alert_source=alert.source, summary=alert.summary)

    @staticmethod
    def _summarize(event: Event) -> str:
        interesting = {k: v for k, v in event.payload.items()
                       if k in ("syscall", "path", "process", "dst", "user",
                                "container", "tenant", "op", "actor",
                                "principal", "verb", "resource")}
        details = " ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
        return f"{event.topic}: {details}"

    def schedule_stats(self, scheduler, interval_s: float,
                       until: Optional[float] = None):
        """Publish periodic ``monitor.stats`` heartbeats on the bus.

        The engine itself stays event-driven; this registers the *stats
        cadence* as a sim-scheduler task (duck-typed: anything with
        ``every``/``now``), so dashboards see a regular snapshot of
        events/evaluations/alerts without anyone polling the engine.
        """
        def publish() -> None:
            if self._bus is None:
                return
            self._bus.emit(
                "monitor.stats", "falco", scheduler.now,
                events_processed=self.events_processed,
                rule_evaluations=self.rule_evaluations,
                alerts=len(self.alerts))

        return scheduler.every(interval_s, publish,
                               name="falco/stats", until=until)

    # -- analysis -----------------------------------------------------------------

    def alerts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.rule] = counts.get(alert.rule, 0) + 1
        return counts

    def alerts_at_least(self, priority: Priority) -> List[Alert]:
        return [a for a in self.alerts if a.priority >= priority]

    def overhead_estimate(self, cost_per_evaluation_us: float = 2.0) -> float:
        """Estimated CPU microseconds spent evaluating rules so far."""
        return self.rule_evaluations * cost_per_evaluation_us

    def reset_counters(self) -> None:
        self.alerts.clear()
        self.events_processed = 0
        self.rule_evaluations = 0


# ---------------------------------------------------------------------------
# The default GENIO rule set
# ---------------------------------------------------------------------------

_SHELLS = ("/bin/sh", "/bin/bash", "/bin/dash", "/usr/bin/zsh")
_MINERS = ("xmrig", "minerd", "cpuminer")
_SENSITIVE_READS = ("/etc/shadow", "/root/.ssh/id_rsa", "/etc/kubernetes/pki")
_EXPECTED_NETWORKS = ("10.", "registry.genio.example")


def default_rules() -> List[FalcoRule]:
    """Detection rules for the behaviours Section VI-B names."""
    return [
        FalcoRule(
            name="shell_in_container",
            description="a shell was spawned inside a container",
            topics=("runtime.syscall",),
            condition=lambda e: (e.get("syscall") in ("execve", "execveat")
                                 and str(e.get("path", "")) in _SHELLS),
            priority=Priority.WARNING),
        FalcoRule(
            name="write_below_etc",
            description="write below /etc from a workload",
            topics=("host.file",),
            condition=lambda e: (e.get("op") == "write"
                                 and str(e.get("path", "")).startswith("/etc/")
                                 and e.get("actor") != "root"),
            priority=Priority.ERROR),
        FalcoRule(
            name="sensitive_file_read",
            description="read of credential material",
            topics=("runtime.syscall", "host.syscall"),
            condition=lambda e: (e.get("syscall") in ("open", "openat", "read")
                                 and any(str(e.get("path", "")).startswith(p)
                                         for p in _SENSITIVE_READS)),
            priority=Priority.CRITICAL),
        FalcoRule(
            name="unexpected_outbound",
            description="outbound connection to an unexpected destination",
            topics=("runtime.syscall",),
            condition=lambda e: (e.get("syscall") in ("connect", "sendto")
                                 and bool(e.get("dst"))
                                 and not any(str(e.get("dst", "")).startswith(p)
                                             for p in _EXPECTED_NETWORKS)),
            priority=Priority.ERROR),
        FalcoRule(
            name="privileged_syscall_attempt",
            description="container attempted a kernel-surface syscall",
            topics=("runtime.syscall",),
            condition=lambda e: e.get("syscall") in (
                "init_module", "finit_module", "kexec_load", "mount",
                "ptrace", "setns", "pivot_root"),
            priority=Priority.CRITICAL),
        FalcoRule(
            name="cryptominer_exec",
            description="known miner binary executed",
            topics=("runtime.syscall", "host.syscall"),
            condition=lambda e: (e.get("syscall") in ("execve", "execveat")
                                 and any(m in str(e.get("path", ""))
                                         for m in _MINERS)),
            priority=Priority.CRITICAL),
        FalcoRule(
            name="failed_login",
            description="failed interactive login",
            topics=("host.login",),
            condition=lambda e: e.get("success") is False,
            priority=Priority.NOTICE),
        FalcoRule(
            name="anonymous_control_plane_write",
            description="anonymous principal attempted a control-plane write",
            topics=("kube.audit",),
            condition=lambda e: ("anonymous" in str(e.get("principal", ""))
                                 and e.get("verb") in ("create", "update",
                                                       "patch", "delete")),
            priority=Priority.CRITICAL),
    ]
