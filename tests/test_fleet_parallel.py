"""Tests for the parallel fleet path: shard configs, pool, merge, CLI.

The load-bearing property is worker-count invariance: a shard's entire
event stream is a function of its :class:`ShardConfig` alone, so the
rendered fleet report must be byte-identical no matter how many worker
processes host the shards.
"""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.__main__ import main
from repro.common import telemetry
from repro.security.monitor.falco import FalcoRule
from repro.traffic.fleet import (
    CycleResult, ParallelFleetDriver, ShardConfig, ShardFailure, ShardPool,
    ShardRunner, fleet_shard_configs, run_fleet_parallel,
)


def with_bad_profile(config):
    """``config`` with its first tenant on a profile kind that does not
    exist, so building the shard raises."""
    bad = dataclasses.replace(config.specs[0], profile="no-such-kind")
    return dataclasses.replace(config, specs=(bad,) + config.specs[1:])


def all_topics_merge(configs, seconds, topic, interval_s=0.1):
    """What the fleet bus gets on ``topic`` when every shard event ships.

    Each shard is advanced boundary by boundary like the driver does,
    capturing ``topics=("",)``; each boundary's events are merged in
    ``(timestamp, shard index, seq)`` order. Returns
    ``(boundary number, timestamp, source, payload)`` tuples, the first
    boundary being 0.
    """
    runners = [ShardRunner(config) for config in configs]
    n_cycles = [runner.start(seconds) for runner in runners][0]
    duration = n_cycles * configs[0].cycle_s
    merged = []
    boundary, step = 0.0, 0
    while boundary < duration:
        step += 1
        boundary = min(step * interval_s, duration)
        rows = [(timestamp, runner.index, seq, source, payload)
                for runner in runners
                for timestamp, seq, name, source, payload
                in runner.advance(boundary, ("",)).events
                if name == topic]
        rows.sort(key=lambda row: row[:3])
        merged.extend((step - 1, timestamp, source, payload)
                      for timestamp, _index, _seq, source, payload in rows)
    return merged


def count_shipped(driver):
    """Wrap the driver's ``pool.advance``; the returned list collects the
    number of shard events each boundary ships."""
    shipped = []
    advance = driver.pool.advance

    def counting(until, topics):
        results = advance(until, topics)
        shipped.append(sum(len(result.events) for result in results))
        return results

    driver.pool.advance = counting
    return shipped


class TestShardConfigs:
    def test_split_matches_the_driver_shards(self):
        configs = fleet_shard_configs(4, 10)
        assert [len(c.specs) for c in configs] == [3, 3, 2, 2]
        driver = ParallelFleetDriver(n_olts=4, n_tenants=10)
        assert ([[s.tenant for s in c.specs] for c in configs]
                == [[s.tenant for s in runner.generator.specs]
                    for runner in driver.pool._local])

    def test_hostile_only_on_the_first_shard(self):
        profiles = [[s.profile for s in c.specs]
                    for c in fleet_shard_configs(3, 9, hostile=True)]
        assert profiles[0][-1] == "hostile"
        assert all("hostile" not in shard for shard in profiles[1:])

    def test_no_hostile_anywhere_when_disabled(self):
        for config in fleet_shard_configs(3, 9, hostile=False):
            assert all(s.profile != "hostile" for s in config.specs)

    def test_validation(self):
        with pytest.raises(ValueError):
            fleet_shard_configs(0, 5)
        with pytest.raises(ValueError):
            fleet_shard_configs(4, 2)

    def test_configs_are_picklable(self):
        configs = fleet_shard_configs(2, 4, seed=3)
        assert pickle.loads(pickle.dumps(configs)) == configs


class TestShardRunner:
    def test_advance_returns_captured_events_in_order(self):
        runner = ShardRunner(fleet_shard_configs(1, 3, seed=1)[0])
        runner.start(0.1)
        result = runner.advance(0.1, ("",))
        assert isinstance(result, CycleResult)
        assert result.events
        assert [row[1] for row in result.events] \
            == sorted(row[1] for row in result.events)
        assert [row[0] for row in result.events] \
            == sorted(row[0] for row in result.events)
        assert sum(result.offered.values()) > 0
        assert result.events_fired > 0

    def test_successive_advances_do_not_replay_events(self):
        runner = ShardRunner(fleet_shard_configs(1, 3, seed=1)[0])
        runner.start(0.2)
        first = runner.advance(0.1, ("",))
        second = runner.advance(0.2, ("",))
        assert first.events and second.events
        assert second.events[0][1] > first.events[-1][1]   # seq advances

    def test_same_config_same_stream(self):
        config = fleet_shard_configs(2, 6, seed=9)[1]
        streams = []
        for _ in range(2):
            runner = ShardRunner(config)
            runner.start(0.1)
            streams.append(runner.advance(0.1, ("",)).events)
        assert streams[0] == streams[1]


    @pytest.mark.parametrize("enabled", [True, False])
    def test_construction_restores_the_telemetry_switch(self, enabled):
        config = fleet_shard_configs(1, 2)[0]
        telemetry.set_telemetry_enabled(enabled)
        try:
            ShardRunner(config)
            assert telemetry.telemetry_enabled() is enabled
            with pytest.raises(ValueError, match="unknown profile kind"):
                ShardRunner(with_bad_profile(config))
            assert telemetry.telemetry_enabled() is enabled
        finally:
            telemetry.set_telemetry_enabled(True)


class TestShardPool:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPool([], workers=1)
        with pytest.raises(ValueError):
            ShardPool(fleet_shard_configs(1, 2), workers=0)

    def test_workers_clamped_to_shard_count(self):
        pool = ShardPool(fleet_shard_configs(1, 2), workers=8)
        assert pool.workers == 1         # one shard -> nothing spawned
        assert pool._local
        pool.close()

    def test_in_process_pool_runs_without_multiprocessing(self):
        pool = ShardPool(fleet_shard_configs(2, 4, seed=2), workers=1)
        assert not pool._procs
        n_cycles = pool.start(0.1)
        assert n_cycles == 5
        results = pool.advance(0.1, ("",))
        assert [r.shard_index for r in results] == [1, 2]
        reports = pool.reports()
        assert list(reports) == ["olt-1", "olt-2"]
        pool.close()

    @pytest.mark.parametrize("workers, spawned, parent_hosts", [
        (1, 0, ["olt-1", "olt-2", "olt-3"]),
        (2, 1, ["olt-1", "olt-3"]),
    ])
    def test_the_parent_hosts_bucket_zero(self, workers, spawned,
                                          parent_hosts):
        before = set(multiprocessing.active_children())
        pool = ShardPool(fleet_shard_configs(3, 6), workers=workers)
        try:
            children = set(multiprocessing.active_children()) - before
            assert len(children) == len(pool._procs) == spawned
            assert [runner.name for runner in pool._local] == parent_hosts
        finally:
            pool.close()
        assert not set(multiprocessing.active_children()) - before


class TestShardFailures:
    def test_spawned_bucket_whose_config_raises(self):
        configs = fleet_shard_configs(2, 4)
        configs[1] = with_bad_profile(configs[1])
        pool = ShardPool(configs, workers=2)
        try:
            with pytest.raises(ShardFailure) as info:
                pool.start(0.2)
        finally:
            pool.close()
        assert info.value.shards == ("olt-2",)
        assert "Traceback" in info.value.detail
        assert "unknown profile kind 'no-such-kind'" in info.value.detail
        assert "olt-2" in str(info.value)

    def test_parent_bucket_whose_config_raises(self):
        configs = fleet_shard_configs(2, 4)
        configs[0] = with_bad_profile(configs[0])
        before = set(multiprocessing.active_children())
        with pytest.raises(ShardFailure) as info:
            ShardPool(configs, workers=2)
        assert info.value.shards == ("olt-1",)
        assert "unknown profile kind" in info.value.detail
        # The worker spawned before the parent's bucket failed is gone.
        assert not set(multiprocessing.active_children()) - before

    def test_failure_survives_pickling(self):
        failure = ShardFailure(["olt-2", "olt-4"], "Traceback ...")
        copy = pickle.loads(pickle.dumps(failure))
        assert (copy.shards, copy.detail) == (failure.shards, failure.detail)
        assert str(copy) == str(failure)

    def test_killed_worker_is_a_shard_failure(self):
        pool = ShardPool(fleet_shard_configs(4, 8), workers=2)
        try:
            pool.start(0.2)
            pool.advance(0.1, ("",))
            worker = pool._procs[0]
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=10)
            assert not worker.is_alive()
            with pytest.raises(ShardFailure) as info:
                pool.advance(0.2, ("",))
            assert info.value.shards == ("olt-2", "olt-4")
            assert "died" in info.value.detail
        finally:
            pool.close()

    def test_close_is_prompt_after_the_parent_bucket_raises(self):
        # The worker's bucket is big enough that its reply is still being
        # computed (and is larger than a pipe buffer) when the parent's
        # own bucket fails.
        pool = ShardPool(fleet_shard_configs(2, 128), workers=2)
        worker = pool._procs[0]

        def boom(until, topics):
            raise RuntimeError("parent bucket failed")

        try:
            pool.start(2.0)
            pool._local[0].advance = boom
            with pytest.raises(ShardFailure) as info:
                pool.advance(2.0, ("",))
            assert info.value.shards == ("olt-1",)
            assert "parent bucket failed" in info.value.detail
        finally:
            began = time.monotonic()
            pool.close()
            elapsed = time.monotonic() - began
        assert elapsed < 3.0
        assert not worker.is_alive()
        pool.close()                      # idempotent
        with pytest.raises(RuntimeError, match="pool is closed"):
            pool.advance(2.0, ("",))


class TestParallelDriver:
    def test_reports_identical_for_any_worker_count(self):
        # 3 workers split 4 shards unevenly; 6 is more than the shards.
        renders = []
        for workers in (1, 2, 3, 6):
            report = run_fleet_parallel(n_olts=4, n_tenants=12, seconds=0.3,
                                        seed=5, workers=workers)
            renders.append([report.render()]
                           + [report.olts[olt].render()
                              for olt in sorted(report.olts)])
        assert all(render == renders[0] for render in renders[1:])

    def test_workers_do_not_change_the_rendered_report(self):
        kwargs = dict(n_olts=2, n_tenants=6, seconds=0.3, seed=5)
        single = run_fleet_parallel(workers=1, **kwargs).render()
        multi = run_fleet_parallel(workers=2, **kwargs).render()
        assert single == multi

    def test_downstream_run_is_worker_invariant_too(self):
        # The downstream cycle runs inside each shard; its per-tenant
        # profiles are string-seeded, so the full bidirectional report
        # must stay byte-identical across worker counts.
        kwargs = dict(n_olts=2, n_tenants=6, seconds=0.3, seed=5,
                      downstream=True)
        single = run_fleet_parallel(workers=1, **kwargs).render()
        multi = run_fleet_parallel(workers=2, **kwargs).render()
        assert single == multi
        assert "dn Mbps" in single
        assert "fleet downstream throughput:" in single

    def test_merged_events_land_on_the_parent_bus_in_time_order(self):
        driver = ParallelFleetDriver(n_olts=2, n_tenants=4, seed=0)
        driver.bus.subscribe("pon.dba.grant", lambda event: None)
        try:
            report = driver.run(0.2)
        finally:
            driver.pool.close()
        timestamps = [e.timestamp for e in driver.bus.history()]
        assert timestamps == sorted(timestamps)
        assert any(e.topic == "pon.dba.grant"
                   for e in driver.bus.history())
        assert report.scheduler_events > 0
        assert report.monitor_passes == 2

    def test_hostile_flagged_through_the_merged_bus(self):
        report = run_fleet_parallel(n_olts=2, n_tenants=6, seconds=0.5,
                                    seed=0, workers=1)
        assert report.hostile_tenants == ["olt1-tenant-hostile"]
        latency = report.alert_latency_s("olt1-tenant-hostile")
        assert latency is not None and 0 < latency <= 0.5
        benign = {tenant for olt in report.olts.values()
                  for tenant in olt.tenants} - set(report.hostile_tenants)
        assert not benign & set(report.alert_first_at)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelFleetDriver(n_olts=0)
        with pytest.raises(ValueError):
            ParallelFleetDriver(n_olts=4, n_tenants=2)
        with pytest.raises(ValueError):
            ParallelFleetDriver(monitor_interval_s=0)
        driver = ParallelFleetDriver(n_olts=1, n_tenants=2)
        try:
            with pytest.raises(ValueError):
                driver.run(0)
        finally:
            driver.pool.close()

    def test_second_run_says_already_run(self):
        driver = ParallelFleetDriver(n_olts=2, n_tenants=4)
        try:
            driver.run(0.1)
            with pytest.raises(RuntimeError, match="already run"):
                driver.run(0.1)
        finally:
            driver.pool.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_after_close_says_pool_is_closed(self, workers):
        driver = ParallelFleetDriver(n_olts=2, n_tenants=4, workers=workers)
        driver.pool.close()
        with pytest.raises(RuntimeError, match="pool is closed"):
            driver.run(0.1)
        with pytest.raises(RuntimeError, match="pool is closed"):
            driver.pool.advance(0.1, ("",))
        with pytest.raises(RuntimeError, match="pool is closed"):
            driver.pool.reports()


class TestShipping:
    """Only the topics the fleet bus has live subscribers for cross the
    process boundary, and the parent's consumers see exactly what they
    would if every shard event shipped."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parent_subscriber_sees_the_all_topics_stream(self, workers):
        driver = ParallelFleetDriver(n_olts=4, n_tenants=10, seed=3,
                                     workers=workers)
        seen = []
        driver.bus.subscribe("pon.dba.grant", lambda event: seen.append(
            (event.timestamp, event.source, event.payload)))
        try:
            driver.run(0.3)
        finally:
            driver.pool.close()
        expected = [(timestamp, source, payload)
                    for _boundary, timestamp, source, payload
                    in all_topics_merge(driver.configs, 0.3,
                                        "pon.dba.grant")]
        assert seen == expected
        assert expected

    def test_default_driver_ships_nothing(self):
        kwargs = dict(n_olts=2, n_tenants=6, seed=0, workers=2)
        default = ParallelFleetDriver(**kwargs)
        everything = ParallelFleetDriver(**kwargs)
        everything.bus.subscribe("", lambda event: None)
        reports, shipped = [], []
        for driver in (default, everything):
            shipped.append(count_shipped(driver))
            try:
                reports.append(driver.run(0.5))
            finally:
                driver.pool.close()
        assert sum(shipped[0]) == 0 < sum(shipped[1])
        assert default.falco.events_processed == 0
        assert reports[0].render() == reports[1].render()
        assert reports[0].alert_first_at == reports[1].alert_first_at
        assert "olt1-tenant-hostile" in reports[0].alert_first_at

    def test_falco_rule_appended_mid_run_counts_from_next_boundary(self):
        driver = ParallelFleetDriver(n_olts=2, n_tenants=4, seed=0,
                                     workers=2)
        evaluated = []
        rule = FalcoRule(
            name="upstream_seen", description="every upstream frame",
            topics=("pon.upstream",),
            condition=lambda event: evaluated.append(event.timestamp))

        def add_rule_once(_event):
            if rule not in driver.falco.rules:
                driver.falco.rules.append(rule)

        driver.bus.subscribe("monitor.stats", add_rule_once)
        try:
            driver.run(0.3)
        finally:
            driver.pool.close()
        expected = [timestamp for boundary, timestamp, _source, _payload
                    in all_topics_merge(driver.configs, 0.3, "pon.upstream")
                    if boundary >= 1]
        assert evaluated == expected
        assert driver.falco.rule_evaluations == len(expected) > 0


class TestFleetWorkersCli:
    def test_workers_flag_accepted(self, capsys):
        assert main(["fleet", "--olts", "2", "--tenants", "4",
                     "--seconds", "0.2", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet run: 2 OLTs x 4 tenants" in out
        assert "Jain across OLTs" in out

    def test_invalid_workers_exit_2(self, capsys):
        assert main(["fleet", "--workers", "0"]) == 2
        assert "error: --workers" in capsys.readouterr().err
