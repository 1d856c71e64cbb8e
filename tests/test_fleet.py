"""The multi-OLT fleet driver: shards advanced in lockstep by the
in-process shard pool (``workers=1``), fleet-normalized abuse detection,
and the fleet CLI subcommand."""

import pytest

from repro.common import telemetry
from repro.security.comms.keyrotation import KeyRotationService
from repro.traffic.fleet import (
    ParallelFleetDriver, fleet_tenant_specs, run_fleet_parallel,
)


def small_fleet(**overrides):
    defaults = dict(n_olts=2, n_tenants=6, seed=3)
    defaults.update(overrides)
    return ParallelFleetDriver(**defaults)


class TestFleetTenantSpecs:
    def test_names_are_fleet_unique_and_profiles_rotate(self):
        one = fleet_tenant_specs(1, 4, hostile=False)
        two = fleet_tenant_specs(2, 4, hostile=False)
        names = [s.tenant for s in one + two]
        assert len(set(names)) == len(names)
        serials = [s.serial for s in one + two]
        assert len(set(serials)) == len(serials)
        assert [s.profile for s in one] == ["steady", "bursty", "diurnal",
                                           "steady"]

    def test_hostile_replaces_last_slot(self):
        specs = fleet_tenant_specs(1, 3, hostile=True)
        assert specs[-1].profile == "hostile"
        assert specs[-1].tenant == "olt1-tenant-hostile"
        assert specs[-1].priority == 3

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            fleet_tenant_specs(1, 0, hostile=False)


class TestFleetDriver:
    def test_tenants_split_across_shards_with_remainder_first(self):
        driver = ParallelFleetDriver(n_olts=4, n_tenants=10, seed=0)
        counts = [len(runner.generator.specs) for runner in driver.pool._local]
        assert counts == [3, 3, 2, 2]
        assert sum(counts) == 10

    def test_run_reports_every_shard_concurrently(self):
        driver = small_fleet()
        traces = [runner.scheduler.enable_trace()
                  for runner in driver.pool._local]
        report = driver.run(0.2)
        assert sorted(report.olts) == ["olt-1", "olt-2"]
        for olt_report in report.olts.values():
            assert all(row.throughput_bps > 0
                       for row in olt_report.tenants.values())
        # Both shards' cycle tasks fire at the same instants — truly
        # concurrent in simulated time, not sequential runs.
        at_zero = {name for trace in traces
                   for when, name in trace if when == 0.0}
        assert at_zero == {"olt-1/traffic-cycle", "olt-2/traffic-cycle"}
        assert report.fleet_throughput_bps > 0
        assert 0.0 < report.jain_across_olts() <= 1.0

    def test_hostile_flagged_fleet_wide_without_false_positives(self):
        report = small_fleet().run(0.5)
        assert report.hostile_tenants == ["olt1-tenant-hostile"]
        latency = report.alert_latency_s("olt1-tenant-hostile")
        assert latency is not None and 0 < latency <= 0.5
        benign = {spec for olt in report.olts.values()
                  for spec in olt.tenants} - {"olt1-tenant-hostile"}
        assert not benign & set(report.alert_first_at)

    def test_no_hostile_means_no_alerts(self):
        report = small_fleet(hostile=False).run(0.3)
        assert report.hostile_tenants == []
        assert report.alert_first_at == {}
        assert "NOT flagged" not in report.render()

    def test_same_seed_identical_render(self):
        first = small_fleet(seed=11).run(0.3).render()
        second = small_fleet(seed=11).run(0.3).render()
        assert first == second

    def test_fleet_registry_is_local(self):
        driver = small_fleet()
        driver.run(0.2)
        # Shares live in the fleet's own registry; the generators were
        # built with telemetry disabled.
        assert "traffic_tenant_offered_share" in driver.registry
        for runner in driver.pool._local:
            assert not runner.generator.telemetry.enabled

    def test_shards_meter_nothing_into_the_default_registry(self):
        telemetry.reset_default_registry()
        try:
            for _ in range(2):
                small_fleet().run(0.2)
            names = [family.name
                     for family in telemetry.default_registry().families()]
            assert not [name for name in names
                        if name.startswith(("pon_", "qos_", "traffic_",
                                            "bus_"))]
            assert telemetry.telemetry_enabled()
        finally:
            telemetry.reset_default_registry()

    def test_security_cadence_rides_a_shard_scheduler(self):
        driver = small_fleet()
        runner = driver.pool._local[0]
        rotation = KeyRotationService(runner.network, period_s=0.1)
        rotation.schedule(runner.scheduler, horizon_s=0.5)
        driver.run(0.5)
        assert len(rotation.history) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelFleetDriver(n_olts=0)
        with pytest.raises(ValueError):
            ParallelFleetDriver(n_olts=4, n_tenants=3)
        with pytest.raises(ValueError):
            small_fleet().run(0.0)


class TestFleetCli:
    def test_fleet_command_prints_fleet_report(self, capsys):
        from repro.__main__ import main
        assert main(["fleet", "--olts", "2", "--tenants", "6",
                     "--seconds", "0.3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "fleet run: 2 OLTs x 6 tenants" in out
        assert "olt-1" in out and "olt-2" in out
        assert "Jain across OLTs" in out
        assert "abuse alert for olt1-tenant-hostile" in out

    def test_fleet_command_is_deterministic(self, capsys):
        from repro.__main__ import main
        argv = ["fleet", "--olts", "2", "--tenants", "6",
                "--seconds", "0.3", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_usage_errors_exit_2(self, capsys):
        from repro.__main__ import main
        assert main(["fleet", "--olts", "0"]) == 2
        assert main(["fleet", "--olts", "4", "--tenants", "2"]) == 2
        assert main(["fleet", "--seconds", "-1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRunFleetParallel:
    def test_convenience_wrapper(self):
        report = run_fleet_parallel(n_olts=2, n_tenants=4, seconds=0.2,
                                    seed=1)
        assert len(report.olts) == 2
        assert report.duration_s == pytest.approx(0.2)
