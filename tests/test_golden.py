"""Golden renderings: the traffic plane's output must not drift.

The files under ``tests/golden/`` were captured from the per-request
traffic plane before request batches replaced it, and every later
change to the hot path must reproduce them byte for byte:

* ``fleet-{up,down}-seed{0..3}.txt`` — ``python -m repro fleet --olts 4
  --tenants 32 --seconds 0.5 --seed N`` (``--downstream`` for ``down``);
* ``traffic-reports.json`` — every field of every
  :class:`~repro.traffic.loadgen.TenantReport` of a 4-tenant, 0.5 s
  traffic run per seed and direction, floats as ``repr`` strings, so the
  mean and p95 latencies are compared bit for bit;
* ``traffic-metrics-{up,down}-seed0.prom`` — the Prometheus exposition
  of that run's registry (every QoS, PON and DBA counter).

Regenerate them (only when the output is meant to change) with
``PYTHONPATH=src python -m tests.test_golden``.
"""

import dataclasses
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.common import telemetry
from repro.traffic import run_fleet_parallel, run_traffic_experiment

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 1, 2, 3)
DIRECTIONS = {"up": False, "down": True}


def fleet_rendering(seed: int, downstream: bool) -> str:
    """What ``python -m repro fleet`` prints for the golden shape."""
    report = run_fleet_parallel(n_olts=4, n_tenants=32, seconds=0.5,
                                seed=seed, downstream=downstream)
    return report.render() + "\n"


def traffic_run(seed: int, downstream: bool):
    """One golden traffic run on a fresh default registry."""
    telemetry.reset_default_registry()
    report = run_traffic_experiment(n_tenants=4, seconds=0.5, seed=seed,
                                    downstream=downstream)
    return report, telemetry.default_registry().render() + "\n"


def report_fields(report) -> Dict[str, Dict[str, str]]:
    return {tenant: {name: repr(value) for name, value
                     in dataclasses.asdict(row).items()}
            for tenant, row in sorted(report.tenants.items())}


@pytest.fixture(autouse=True)
def _fresh_registry():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
@pytest.mark.parametrize("seed", SEEDS)
def test_fleet_rendering_matches_golden(seed, direction):
    expected = (GOLDEN / f"fleet-{direction}-seed{seed}.txt").read_text(
        encoding="utf-8")
    assert fleet_rendering(seed, DIRECTIONS[direction]) == expected


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
@pytest.mark.parametrize("seed", SEEDS)
def test_traffic_report_matches_golden(seed, direction):
    golden = json.loads((GOLDEN / "traffic-reports.json").read_text(
        encoding="utf-8"))
    report, _ = traffic_run(seed, DIRECTIONS[direction])
    assert report_fields(report) == golden[f"{direction}-seed{seed}"]


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
def test_traffic_metrics_match_golden(direction):
    expected = (GOLDEN / f"traffic-metrics-{direction}-seed0.prom"
                ).read_text(encoding="utf-8")
    _, exposition = traffic_run(0, DIRECTIONS[direction])
    assert exposition == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    reports = {}
    for direction, downstream in sorted(DIRECTIONS.items()):
        for seed in SEEDS:
            (GOLDEN / f"fleet-{direction}-seed{seed}.txt").write_text(
                fleet_rendering(seed, downstream), encoding="utf-8")
            report, exposition = traffic_run(seed, downstream)
            reports[f"{direction}-seed{seed}"] = report_fields(report)
            if seed == 0:
                (GOLDEN / f"traffic-metrics-{direction}-seed0.prom"
                 ).write_text(exposition, encoding="utf-8")
    (GOLDEN / "traffic-reports.json").write_text(
        json.dumps(reports, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    regenerate()
