"""One fleet run in a fresh interpreter, reported as one JSON line.

``run.py`` starts this script once per fleet run, so no run inherits the
process-global metrics registry or the heap of an earlier one. The
script builds a :class:`~repro.traffic.fleet.ParallelFleetDriver`, runs
it and prints what the parent needs to time and check the run:

* ``setup_s`` -- from ``--t0`` (the parent's ``time.monotonic()`` just
  before it started this process) to ``ShardPool.start`` returning, so
  interpreter start-up, imports, shard construction and worker spawn
  all land here;
* ``run_s`` -- from ``ShardPool.start`` returning to the report;
* ``boundaries`` -- host time of every ``monitor.stats`` event on the
  driver's bus, relative to ``ShardPool.start`` returning;
* ``peak_rss_kb`` -- the high-water resident set of this process plus
  that of each live pool worker, read just before the pool closes;
* the rendered report and the facts the parent's output checks need.

With ``--trace 1`` the layer wrappers of :mod:`layers` are installed for
the run and removed afterwards, and their table rides along.

Top-level imports are standard library only: spawned pool workers
re-import this script as their main module.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from typing import Any, Dict, List


def _peak_rss_kb(pid: str) -> int:
    """``VmHWM`` of one process; 0 if it has already gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _accounting_violations(report: Any) -> List[str]:
    """Tenants whose byte tallies break delivered <= admitted <= offered
    (upstream) or delivered <= offered (downstream)."""
    bad: List[str] = []
    for olt_report in report.olts.values():
        for row in olt_report.tenants.values():
            if not (row.delivered_bytes <= row.admitted_bytes
                    <= row.offered_bytes) \
                    or row.delivered_down_bytes > row.offered_down_bytes:
                bad.append(row.tenant)
    return bad


def run_fleet(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.traffic.fleet import ParallelFleetDriver

    trace = None
    if args.trace:
        from layers import LayerTrace
        trace = LayerTrace()
    marks: Dict[str, float] = {}
    boundaries: List[float] = []

    driver = ParallelFleetDriver(
        n_olts=args.olts, n_tenants=args.tenants, seed=args.seed,
        workers=args.workers, downstream=args.downstream)
    try:
        pool = driver.pool
        pool_start = pool.start

        def start(seconds: float) -> int:
            cycles = pool_start(seconds)
            marks["started"] = time.monotonic()
            if trace is not None:
                trace.begin()
            return cycles

        def on_boundary(_event: Any) -> None:
            boundaries.append(time.monotonic())
            if trace is not None:
                trace.boundary()

        pool.start = start
        unsubscribe = driver.bus.subscribe("monitor.stats", on_boundary)
        if trace is not None:
            trace.install(driver)
        try:
            report = driver.run(args.sim_seconds)
            finished = time.monotonic()
            if trace is not None:
                trace.end()
        finally:
            if trace is not None:
                trace.uninstall()
            del pool.start
            unsubscribe()
        workers_kb = sum(_peak_rss_kb(str(process.pid))
                         for process in multiprocessing.active_children())
    finally:
        driver.pool.close()

    started = marks["started"]
    offered = sum(row.offered_bytes + row.offered_down_bytes
                  for olt_report in report.olts.values()
                  for row in olt_report.tenants.values())
    result: Dict[str, Any] = {
        "rendering": report.render(),
        "setup_s": started - args.t0,
        "run_s": finished - started,
        "boundaries": [at - started for at in boundaries],
        "offered_bytes": offered,
        "hostile": list(report.hostile_tenants),
        "flagged": sorted(report.alert_first_at),
        "accounting_violations": _accounting_violations(report),
        "peak_rss_kb": _peak_rss_kb("self") + workers_kb,
    }
    if trace is not None:
        result["layers"] = trace.snapshot()
        result["layers"]["falco"] = {
            "events_processed": driver.falco.events_processed,
            "rule_evaluations": driver.falco.rule_evaluations}
        result["leftover_wrappers"] = trace.leftovers(driver)
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--olts", type=int, required=True)
    parser.add_argument("--tenants", type=int, required=True)
    parser.add_argument("--sim-seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--downstream", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() at process start")
    args = parser.parse_args(argv)
    print(json.dumps(run_fleet(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
