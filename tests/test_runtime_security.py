"""Unit tests for M16 malware scanning, M17 sandboxing, M18 monitoring."""

import pytest

from repro.common.errors import QuarantineError
from repro.platform.workloads import (
    malicious_miner_image, ml_inference_image, vulnerable_webapp_image,
)
from repro.security.malware import (
    YaraRule, YaraScanner, default_ruleset, make_admission_hook,
)
from repro.common.events import EventBus
from repro.security.monitor import (
    FalcoEngine, FalcoRule, Priority, ResourceAbuseDetector, default_rules,
)
from repro.security.sandbox import (
    KubeArmorPolicy, PolicyAction, TenancyConfig, default_tenant_policy,
    install_policy, peach_score,
)
from repro.security.sandbox.peach import genio_hard_isolation, genio_soft_isolation
from repro.virt.container import ContainerSpec, ResourceLimits
from repro.virt.runtime import ContainerRuntime


class TestYara:
    def test_rule_conditions(self):
        any_rule = YaraRule("r", strings=(b"a", b"b"), condition="any")
        all_rule = YaraRule("r", strings=(b"a", b"b"), condition="all")
        threshold = YaraRule("r", strings=(b"a", b"b", b"c"), condition=2)
        assert any_rule.matches(b"xxaxx")
        assert not all_rule.matches(b"xxaxx")
        assert all_rule.matches(b"ab")
        assert threshold.matches(b"a..b")
        assert not threshold.matches(b"a only")

    def test_miner_image_detected(self):
        report = YaraScanner().scan_image(malicious_miner_image())
        assert not report.clean
        fired = report.rules_fired()
        assert "cryptominer" in fired
        assert "reverse_shell" in fired
        assert "obfuscated_loader" in fired

    def test_clean_image_passes(self):
        assert YaraScanner().scan_image(ml_inference_image()).clean

    def test_vulnerable_but_not_malicious_passes(self):
        # T7 apps are buggy, not malware: signatures must not fire.
        assert YaraScanner().scan_image(vulnerable_webapp_image()).clean

    def test_admission_hook_quarantines(self):
        runtime = ContainerRuntime("node")
        runtime.add_admission_hook(make_admission_hook())
        runtime.run(ContainerSpec(image=ml_inference_image()))
        with pytest.raises(QuarantineError) as excinfo:
            runtime.run(ContainerSpec(image=malicious_miner_image()))
        assert "cryptominer" in str(excinfo.value)


class TestKubeArmorPolicies:
    @pytest.fixture
    def runtime(self):
        runtime = ContainerRuntime("node")
        install_policy(runtime, default_tenant_policy("tenant-*"))
        return runtime

    def test_policy_blocks_shell_exec(self, runtime):
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        record = runtime.syscall(container.id, "execve", path="/bin/sh")
        assert not record.allowed
        assert "process /bin/sh blocked" in record.blocked_by

    def test_policy_blocks_docker_socket(self, runtime):
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        record = runtime.syscall(container.id, "open",
                                 path="/var/run/docker.sock", mode="r")
        assert not record.allowed

    def test_readonly_paths_allow_reads_block_writes(self, runtime):
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        read = runtime.syscall(container.id, "open", path="/etc/hosts", mode="r")
        write = runtime.syscall(container.id, "open", path="/etc/hosts", mode="w")
        assert read.allowed and not write.allowed

    def test_network_allowlist(self, runtime):
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        internal = runtime.syscall(container.id, "connect", dst="10.1.2.3")
        external = runtime.syscall(container.id, "connect",
                                   dst="pool.evil.example:3333")
        assert internal.allowed and not external.allowed

    def test_selector_scopes_policy(self, runtime):
        platform_ctr = runtime.run(ContainerSpec(image=ml_inference_image(),
                                                 tenant="platform"))
        record = runtime.syscall(platform_ctr.id, "execve", path="/bin/sh")
        assert record.allowed   # policy selects tenant-*, not platform

    def test_audit_mode_observes_without_blocking(self):
        runtime = ContainerRuntime("node")
        policy = default_tenant_policy("tenant-*")
        policy.action = PolicyAction.AUDIT
        install_policy(runtime, policy)
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        assert runtime.syscall(container.id, "execve", path="/bin/sh").allowed


class TestPeach:
    def test_hard_isolation_beats_soft(self):
        hard = peach_score(genio_hard_isolation())
        soft = peach_score(genio_soft_isolation(hardened=True))
        stock = peach_score(genio_soft_isolation(hardened=False))
        assert hard.overall > soft.overall > stock.overall
        assert hard.verdict == "adequate isolation"
        assert stock.verdict == "insufficient isolation for multi-tenancy"

    def test_dimensions_present(self):
        assessment = peach_score(genio_hard_isolation())
        assert set(assessment.dimension_scores) == {
            "privilege", "encryption", "authentication", "connectivity",
            "hygiene"}

    def test_findings_explain_score(self):
        stock = peach_score(genio_soft_isolation(hardened=False))
        assert any("seccomp" in f for f in stock.findings)
        assert any("flat network" in f for f in stock.findings)

    def test_privileged_workloads_tank_privilege_score(self):
        config = genio_hard_isolation()
        config.runs_privileged_workloads = True
        assessment = peach_score(config)
        assert assessment.dimension_scores["privilege"] <= 0.5


class TestFalco:
    @pytest.fixture
    def monitored_runtime(self):
        runtime = ContainerRuntime("node")
        engine = FalcoEngine()
        engine.attach(runtime.bus)
        return runtime, engine

    def test_shell_detection(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        runtime.syscall(container.id, "execve", path="/bin/sh")
        assert engine.alerts_by_rule().get("shell_in_container") == 1

    def test_miner_and_outbound_detection(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.syscall(container.id, "execve", path="/opt/.hidden/xmrig")
        runtime.syscall(container.id, "connect", dst="pool.evil.example:3333")
        fired = engine.alerts_by_rule()
        assert fired.get("cryptominer_exec") == 1
        assert fired.get("unexpected_outbound") == 1

    def test_monitoring_observes_blocked_and_allowed(self, monitored_runtime):
        """Falco sees attempts even when the LSM layer blocks them."""
        runtime, engine = monitored_runtime
        install_policy(runtime, default_tenant_policy())
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        record = runtime.syscall(container.id, "mount",
                                 path="/sys/fs/cgroup", mode="rw")
        assert not record.allowed                       # M17 blocked it
        assert engine.alerts_by_rule().get("privileged_syscall_attempt") == 1

    def test_tuning_exceptions_reduce_false_positives(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="ops-debug"))
        runtime.syscall(container.id, "execve", path="/bin/sh")
        assert engine.alerts_by_rule().get("shell_in_container") == 1
        engine.rule("shell_in_container").add_exception(
            lambda e: e.get("tenant") == "ops-debug")
        runtime.syscall(container.id, "execve", path="/bin/sh")
        assert engine.alerts_by_rule().get("shell_in_container") == 1  # no new

    def test_priority_filtering(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.syscall(container.id, "execve", path="/bin/sh")     # WARNING
        runtime.syscall(container.id, "open", path="/etc/shadow")   # CRITICAL
        critical = engine.alerts_at_least(Priority.CRITICAL)
        assert len(critical) == 1
        assert critical[0].rule == "sensitive_file_read"

    def test_overhead_counters(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        for _ in range(100):
            runtime.syscall(container.id, "read", path="/data/file")
        assert engine.events_processed >= 100
        assert engine.overhead_estimate() > 0

    def test_detach_stops_processing(self, monitored_runtime):
        runtime, engine = monitored_runtime
        engine.detach()
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.syscall(container.id, "execve", path="/bin/sh")
        assert engine.alerts == []

    def test_double_attach_rejected(self, monitored_runtime):
        runtime, engine = monitored_runtime
        with pytest.raises(ValueError):
            engine.attach(runtime.bus)


def _always(name, topic):
    return FalcoRule(name=name, description="test rule", topics=(topic,),
                     condition=lambda event: True)


class TestFalcoTopicIndex:
    """Rules are indexed by topic; any change to ``engine.rules`` must
    re-index, and the counts must equal a scan of every rule."""

    MIXED = [
        ("runtime.syscall", {"syscall": "execve", "path": "/bin/sh",
                             "container": "c1"}),
        ("pon.dba.grant", {"cycle": 1}),
        ("host.file", {"path": "/usr/bin/ls", "op": "write"}),
        ("qos.drop", {"tenant": "t", "dropped": 3}),
        ("runtime.syscall", {"syscall": "connect",
                             "dst": "pool.evil.example:3333"}),
        ("host.syscall", {"syscall": "mount", "path": "/sys"}),
        ("host.login", {"user": "root", "method": "password"}),
        ("kube.audit", {"verb": "create", "resource": "pods/exec",
                        "principal": "system:anonymous"}),
        ("monitor.stats", {"events_processed": 0}),
        ("pon.downstream.grant", {"cycle": 1}),
    ]

    def test_rule_appended_after_traffic_on_its_topic_fires(self):
        bus = EventBus()
        engine = FalcoEngine()
        engine.attach(bus)
        bus.emit("custom.probe", "test", 0.0)
        assert engine.rule_evaluations == 0
        engine.rules.append(_always("probe_seen", "custom.probe"))
        bus.emit("custom.probe", "test", 1.0)
        assert engine.alerts_by_rule() == {"probe_seen": 1}
        assert engine.rule_evaluations == 1

    def test_removing_or_replacing_rules_reindexes(self):
        bus = EventBus()
        engine = FalcoEngine(rules=[_always("a", "custom.probe")])
        engine.attach(bus)
        bus.emit("custom.probe", "test", 0.0)
        engine.rules.remove(engine.rule("a"))
        bus.emit("custom.probe", "test", 1.0)
        engine.rules = [_always("b", "custom")]
        bus.emit("custom.probe", "test", 2.0)
        engine.rules[0] = _always("c", "custom.probe")
        bus.emit("custom.probe", "test", 3.0)
        assert [alert.rule for alert in engine.alerts] == ["a", "b", "c"]

    def test_counts_equal_an_unindexed_scan(self):
        bus = EventBus()
        engine = FalcoEngine()
        engine.attach(bus)
        for step in range(3):
            for index, (topic, payload) in enumerate(self.MIXED):
                bus.emit(topic, "test", step * 10.0 + index, **payload)

        # The same stream, every rule asked whether it applies.
        processed = evaluations = 0
        fired = []
        for step in range(3):
            for topic, payload in self.MIXED:
                if topic.startswith("monitor."):
                    continue
                processed += 1
                event = next(e for e in bus.history(topic)
                             if e.payload == payload)
                for rule in default_rules():
                    if not rule.applies_to(topic):
                        continue
                    evaluations += 1
                    try:
                        if rule.evaluate(event):
                            fired.append(rule.name)
                    except Exception:
                        pass
        assert engine.events_processed == processed
        assert engine.rule_evaluations == evaluations > 0
        assert [alert.rule for alert in engine.alerts] == fired
        assert fired


class TestRuleScopedFalco:
    """``attach(bus, all_events=False)`` subscribes to the rules' topics
    only, and follows every change to the rule list."""

    def test_overlapping_rule_topics_deliver_once(self):
        bus = EventBus()
        engine = FalcoEngine(rules=[_always("broad", "host"),
                                    _always("narrow", "host.syscall")])
        engine.attach(bus, all_events=False)
        assert bus.topics() == ("host",)
        bus.emit("host.syscall", "test", 0.0)
        bus.emit("host.file", "test", 1.0)
        bus.emit("pon.dba.grant", "test", 2.0)
        assert engine.events_processed == 2
        assert engine.rule_evaluations == 3
        assert [alert.rule for alert in engine.alerts] \
            == ["broad", "narrow", "broad"]

    def test_unwatched_topics_are_not_delivered(self):
        bus = EventBus()
        engine = FalcoEngine()
        engine.attach(bus, all_events=False)
        assert bus.topics() == ("host.file", "host.login", "host.syscall",
                                "kube.audit", "runtime.syscall")
        for topic, payload in TestFalcoTopicIndex.MIXED:
            bus.emit(topic, "test", 0.0, **payload)
        assert engine.events_processed == 6
        assert engine.rule_evaluations > 0

    def test_append_remove_and_assignment_resubscribe(self):
        bus = EventBus()
        engine = FalcoEngine(rules=[])
        engine.attach(bus, all_events=False)
        assert bus.topics() == ()
        engine.rules.append(_always("probe", "custom.probe"))
        assert bus.topics() == ("custom.probe",)
        bus.emit("custom.probe", "test", 0.0)
        engine.rules.remove(engine.rule("probe"))
        assert bus.topics() == ()
        bus.emit("custom.probe", "test", 1.0)
        engine.rules = [_always("other", "custom.other")]
        assert bus.topics() == ("custom.other",)
        bus.emit("custom.probe", "test", 2.0)
        bus.emit("custom.other", "test", 3.0)
        assert [(alert.rule, alert.timestamp) for alert in engine.alerts] \
            == [("probe", 0.0), ("other", 3.0)]
        assert engine.events_processed == 2

    def test_monitor_rule_topic_is_never_handled(self):
        bus = EventBus()
        engine = FalcoEngine(rules=[_always("loop", "monitor.alert")],
                             publish_alerts=True)
        engine.attach(bus, all_events=False)
        bus.emit("monitor.alert", "test", 0.0, rule="x")
        assert engine.events_processed == 0
        assert engine.alerts == []

    def test_detach_and_reattach(self):
        bus = EventBus()
        engine = FalcoEngine(rules=[_always("probe", "custom.probe")])
        engine.attach(bus, all_events=False)
        engine.detach()
        assert bus.topics() == ()
        engine.rules.append(_always("late", "custom.late"))
        assert bus.topics() == ()
        engine.attach(bus)
        assert bus.topics() == ("",)


class TestResourceAbuseDetection:
    def test_greedy_container_flagged_and_evicted(self):
        runtime = ContainerRuntime("node", cpu_capacity=8.0,
                                   memory_capacity_mb=16384)
        greedy = runtime.run(ContainerSpec(image=ml_inference_image(),
                                           tenant="tenant-greedy"))
        victim = runtime.run(ContainerSpec(image=ml_inference_image(),
                                           tenant="tenant-victim",
                                           limits=ResourceLimits(
                                               cpu_shares=1024, memory_mb=512)))
        runtime.consume(greedy.id, cpu=7.0, memory_mb=14000)
        runtime.consume(victim.id, cpu=0.5, memory_mb=256)

        detector = ResourceAbuseDetector(runtime, tolerance=1.5)
        findings = detector.sample()
        assert [f.tenant for f in findings] == ["tenant-greedy"]
        evicted = detector.evict_offenders()
        assert greedy.id in evicted
        assert not greedy.running and victim.running

    def test_fair_usage_not_flagged(self):
        runtime = ContainerRuntime("node", cpu_capacity=8.0)
        a = runtime.run(ContainerSpec(image=ml_inference_image()))
        b = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.consume(a.id, cpu=2.0)
        runtime.consume(b.id, cpu=2.0)
        assert ResourceAbuseDetector(runtime, tolerance=1.5).sample() == []

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            ResourceAbuseDetector(ContainerRuntime("n"), tolerance=0.5)
        with pytest.raises(ValueError):
            ResourceAbuseDetector(ContainerRuntime("n"), absolute_cap=0.0)

    def test_single_container_saturation_flagged(self):
        # Regression: with one running container there are no peers to
        # define fair share, so the relative rule can never fire — the
        # absolute cap must catch a lone tenant saturating the node.
        runtime = ContainerRuntime("node", cpu_capacity=8.0)
        lone = runtime.run(ContainerSpec(image=ml_inference_image(),
                                         tenant="tenant-lone"))
        runtime.consume(lone.id, cpu=7.6)   # 95% of the node
        findings = ResourceAbuseDetector(runtime).sample()
        assert [f.tenant for f in findings] == ["tenant-lone"]
        assert "absolute cap" in findings[0].detail

    def test_single_container_below_cap_not_flagged(self):
        runtime = ContainerRuntime("node", cpu_capacity=8.0)
        lone = runtime.run(ContainerSpec(image=ml_inference_image(),
                                         tenant="tenant-lone"))
        runtime.consume(lone.id, cpu=6.0)   # 75%: heavy but unchallenged
        assert ResourceAbuseDetector(runtime).sample() == []
