"""E21 — array-driven downstream drain vs the naive per-queue loop.

The downstream scheduler reuses the DBA allocator's registration-time
cached flat weight/priority arrays; the naive oracle
(``tests/oracles.py``: ``downstream_run_cycle``) recomputes the priority
tiers and per-round weight sums with per-T-CONT bookkeeping. Same
fleet-scale shape as E19: ~1k per-ONU queues, mixed priorities and
weights, heterogeneous backlogs refreshed every cycle so many queues are
fully satisfied mid-round and the weighted progressive filling actually
redistributes (the case the flat arrays accelerate). Drain results are asserted
byte-identical per cycle (and property-tested in
tests/test_downstream.py), so the speedup is a scheduling-overhead
measurement; GC is paused around the timed sections so a collection
triggered by earlier suite state cannot land inside one path's timing.
"""

import gc
import time

import pytest

from repro.common import telemetry
from repro.traffic.downstream import DownstreamScheduler
from repro.traffic.batch import RequestBatch
from tests.oracles import downstream_run_cycle

N_QUEUES = 1000
N_CYCLES = 40
CYCLE_S = 0.002
CAPACITY = 400_000          # ~1/6 of each cycle's offered bytes


@pytest.fixture(autouse=True)
def _fresh_registry():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)


def _scheduler() -> DownstreamScheduler:
    scheduler = DownstreamScheduler()
    for i in range(N_QUEUES):
        scheduler.register_queue(f"ONU{i:04d}", f"t{i:04d}",
                                 priority=i % 4,
                                 weight=1.0 + (i % 5) * 0.5)
    return scheduler


def _cycle_requests(cycle: int, now: float):
    # Heterogeneous sizes: many queues' demand sits below their weighted
    # fair share, so each tier's progressive fill runs several
    # redistribution rounds instead of one saturating pass.
    return [RequestBatch(f"t{i:04d}", now,
                         [200 + ((cycle * 7 + i * 13) % 4800)])
            for i in range(N_QUEUES)]


def test_array_driven_drain_speedup(benchmark, report, bench_record):
    def run_both():
        fast, reference = _scheduler(), _scheduler()
        fast_s = reference_s = 0.0
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for cycle in range(N_CYCLES):
                now = cycle * CYCLE_S
                for batch in _cycle_requests(cycle, now):
                    fast.enqueue(batch)
                    reference.enqueue(batch)
                start = time.perf_counter()
                fast_results = fast.run_cycle(CAPACITY, now=now)
                fast_s += time.perf_counter() - start
                start = time.perf_counter()
                reference_results = downstream_run_cycle(reference,
                                                         CAPACITY, now=now)
                reference_s += time.perf_counter() - start
                # Identical drains, or the speedup is moot.
                assert fast_results == reference_results
        finally:
            if gc_was_enabled:
                gc.enable()
        assert fast.total_backlog() == reference.total_backlog() > 0
        return reference_s, fast_s

    reference_s, fast_s = benchmark.pedantic(run_both, rounds=1,
                                             iterations=1)
    speedup = reference_s / fast_s if fast_s else float("inf")

    per_cycle_fast = fast_s / N_CYCLES * 1e3
    per_cycle_reference = reference_s / N_CYCLES * 1e3
    lines = [
        f"E21 — downstream drain: {N_QUEUES} per-ONU queues x "
        f"{N_CYCLES} cycles, {CAPACITY} B/cycle (oversubscribed), "
        "drain-cycle time only",
        "",
        f"{'path':<28} {'total':>10} {'per cycle':>12}",
        f"{'naive per-queue loop':<28} {reference_s:>9.3f}s "
        f"{per_cycle_reference:>10.2f}ms",
        f"{'array-driven (run_cycle)':<28} {fast_s:>9.3f}s "
        f"{per_cycle_fast:>10.2f}ms",
        "",
        f"speedup: {speedup:.2f}x (floor 1.15x); drain results asserted "
        "identical per cycle here and property-tested in "
        "tests/test_downstream.py.",
    ]
    report("E21_downstream_drain", "\n".join(lines))
    bench_record("E21", "downstream_drain_speedup", round(speedup, 3), "x")
    bench_record("E21", "naive_drain_wall_clock", round(reference_s, 3), "s")
    bench_record("E21", "batched_drain_wall_clock", round(fast_s, 3), "s")

    assert speedup >= 1.15
