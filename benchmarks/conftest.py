"""Shared infrastructure for the experiment benchmarks.

Every experiment regenerates its paper artifact (figure or lesson
quantification) as a text table. The ``report`` fixture prints it and
persists it under ``benchmarks/results/`` so EXPERIMENTS.md can cite the
exact output of the last run.

The ``bench_record`` fixture is the machine-readable counterpart: perf
benchmarks merge their headline numbers into ``BENCH_<EXP>.json`` at the
repo root (metric name, value, units, seed, git rev) so future PRs can
diff performance against this one.
"""

import json
import pathlib
import subprocess
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent

# E19-E21 time the fast paths against the reference oracles in
# tests/oracles.py; make ``tests`` importable however pytest is invoked.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


@pytest.fixture
def report():
    """Callable: report(experiment_id, text) -> writes + prints the table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(experiment_id: str, text: str) -> None:
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n")
        print(f"\n{'=' * 72}\n{experiment_id}\n{'=' * 72}\n{text}")

    return _report


def _git_rev() -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=REPO_ROOT, capture_output=True,
                                text=True, timeout=10)
        return result.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


@pytest.fixture
def bench_record():
    """Callable: bench_record(exp, metric, value, units, seed=None).

    Merges one metric into ``BENCH_<exp>.json`` at the repo root. Metrics
    accumulate across tests within a run (the file is read-modify-write),
    and the git rev is restamped on every write.
    """
    def _record(experiment_id: str, metric: str, value, units: str,
                seed=None) -> None:
        path = REPO_ROOT / f"BENCH_{experiment_id}.json"
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
        data["experiment"] = experiment_id
        data["git_rev"] = _git_rev()
        entry = {"value": value, "units": units}
        if seed is not None:
            entry["seed"] = seed
        data.setdefault("metrics", {})[metric] = entry
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    return _record
