"""Tests of the fleet benchmark itself, on a tiny fleet.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import make_references  # noqa: E402
import run  # noqa: E402

TINY = {"olts": 2, "tenants": 4, "seeds": 2,
        "sim_seconds": {"up": 0.2, "down": 0.2}}


@pytest.fixture(scope="module")
def tiny_references(tmp_path_factory: pytest.TempPathFactory) -> Path:
    references, _texts = make_references.build_references(
        TINY["olts"], TINY["tenants"], TINY["seeds"], TINY["sim_seconds"])
    path = tmp_path_factory.mktemp("references") / "references.json"
    path.write_text(json.dumps(references), encoding="utf-8")
    return path


def bench(workload: str, references: Path, trace: int = 0,
          seed: int = 1, cwd: Path = ROOT) -> Tuple[int, List[str]]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--references", str(references)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.splitlines()


def benchmark_json() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_match_the_driver() -> None:
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_passes_its_checks(
        tiny_references: Path, workload: str, trace: int) -> None:
    code, lines = bench(workload, tiny_references, trace=trace)
    result = json.loads(lines[-1])
    assert code == 0, "\n".join(lines)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= (2 * run.MIN_PAIRS if trace
                                   else run.MIN_RUNS)
    spec = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in spec}
    assert not any(line.startswith("FAILED") for line in lines)


def test_altered_reference_counts_as_failed_run(
        tiny_references: Path, tmp_path: Path) -> None:
    references = json.loads(tiny_references.read_text(encoding="utf-8"))
    references["up"]["sha256"][1] = "0" * 64
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(references), encoding="utf-8")
    code, lines = bench("fleet-up", altered)
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any("differs from the stored reference" in line for line in lines)


def child(workers: int, trace: int = 0) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "fleet_child.py"), "--olts", "2",
         "--tenants", "4", "--sim-seconds", "0.2", "--seed", "1",
         "--workers", str(workers), "--trace", str(trace), "--t0", "0"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
        check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_pool_rendering_equals_single_process_rendering() -> None:
    assert child(workers=2)["rendering"] == child(workers=1)["rendering"]


def test_wrappers_are_gone_after_a_traced_run() -> None:
    from layers import LayerTrace
    from repro.traffic.dba import TCont
    from repro.traffic.fleet import ParallelFleetDriver

    original = TCont.__dict__["offer"]
    driver = ParallelFleetDriver(n_olts=2, n_tenants=4, seed=1)
    trace = LayerTrace()
    try:
        trace.install(driver)
        assert TCont.__dict__["offer"] is not original
        assert "TCont.offer" in trace.leftovers(driver)
        driver.run(0.2)
    finally:
        trace.uninstall()
        driver.pool.close()
    assert trace.leftovers(driver) == []
    assert TCont.__dict__["offer"] is original
    assert "publish_batch" not in vars(driver.bus)
    assert trace.calls["traffic.dba"] > 0
    assert trace.counts["traffic.profiles.requests"] > 0


def test_traced_child_reports_layers_and_no_leftovers() -> None:
    result = child(workers=1, trace=1)
    assert result["leftover_wrappers"] == []
    layers = result["layers"]
    assert layers["calls"]["traffic.profiles"] > 0
    assert len(layers["boundaries"]) == 2
    # Self times partition the traced window.
    assert 0 < sum(layers["self_s"].values()) <= result["run_s"] + 1e-3


def test_stored_renderings_match_stored_digests() -> None:
    references = run.load_references(run.REFERENCES)
    texts = sorted((BENCH_DIR / "references").glob("*.txt"))
    assert texts
    for path in texts:
        table, seed = path.stem.split("-seed")
        text = path.read_text(encoding="utf-8")[:-1]
        assert run.digest(text) == references[table]["sha256"][int(seed)]


def test_refuses_to_run_without_the_sources(tmp_path: Path,
                                            tiny_references: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, lines = bench("fleet-up", tiny_references, cwd=tmp_path)
    assert code != 0
    assert lines == []
