"""Fleet benchmark: host time of ``repro.traffic.fleet``, end to end and
per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-up --seed 7 --seconds 36 --trace 0

For ``--seconds`` of host time the benchmark runs
:class:`~repro.traffic.fleet.ParallelFleetDriver` as a closed batch job:
one fleet run at a time, each in a fresh interpreter
(``fleet_child.py``), back to back. Every run's output is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
RESULTS_DIR = BENCH_DIR / "results"

# A single fleet run never needs more than a few seconds at the stored
# shape; this only stops a wedged child from eating the whole budget.
CHILD_TIMEOUT_S = 120.0
# Fewest measured units per benchmark run, even when --seconds is short:
# fleet runs with --trace 0, untraced/traced pairs with --trace 1.
MIN_RUNS = 3
MIN_PAIRS = 2
# Host-speed calibration: a fixed pure-Python loop that touches no repro
# code, timed before every fleet run. On a shared host, other tenants can
# slow this machine down by up to 2x for minutes at a time. The loop slows
# down with the fleet, so every reported host time is multiplied by
# REFERENCE_CALIBRATION_S / (median loop time of the benchmark run).
CALIBRATION_LOOPS = 500_000
CALIBRATION_SAMPLES = 4
REFERENCE_CALIBRATION_S = 0.025


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    reference: str       # which reference table: "up" or "down"
    workers: int


WORKLOADS = {w.name: w for w in (
    Workload("fleet-up", "up", 1),
    Workload("fleet-down", "down", 1),
    Workload("fleet-pool", "up", 2),
)}

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("boundary_ms_p50", "ms"),
    ("boundary_ms_p90", "ms"),
    ("offered_mb_per_s", "MB/s"),
    ("peak_rss_mb", "MB"),
)

# Layer names follow the modules that own the wrapped methods (see
# layers.py); the order is the order of the per-layer table.
LAYERS = ("traffic.profiles", "traffic.qos", "traffic.dba", "pon.olt",
          "traffic.downstream", "pon.network", "common.sim",
          "traffic.fleet", "common.events", "security.monitor")

PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    metric for layer in LAYERS
    for metric in ((f"{layer}.self_s", "s"), (f"{layer}.calls", "count"))
) + (
    ("unattributed.self_s", "s"),
    ("traffic.profiles.requests", "count"),
    ("traffic.qos.admitted_share", "ratio"),
    ("traffic.dba.completed_requests", "count"),
    ("traffic.downstream.accepted_share", "ratio"),
    ("traffic.fleet.events_shipped", "count"),
    ("traffic.fleet.ipc_bytes", "bytes"),
    ("common.events.delivered", "count"),
    ("security.monitor.falco.events_processed", "count"),
    ("security.monitor.falco.rule_evaluations", "count"),
    ("security.monitor.falco.evaluations_per_event", "ratio"),
    ("tracing.untraced_run_s", "s"),
    ("tracing.traced_run_s", "s"),
    ("tracing.overhead_s", "s"),
)


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- references and environment ---------------------------------------------

def load_references(path: Path) -> Dict[str, Any]:
    """The stored reference renderings: fleet shape plus one sha256 per
    fleet seed and direction."""
    try:
        references = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read references {path}: {exc}") from exc
    for table in ("up", "down"):
        if len(references[table]["sha256"]) != references["seeds"]:
            raise SetupError(f"references: {table} table is incomplete")
    return references


def fleet_seed(seed: int, references: Dict[str, Any]) -> int:
    """The fleet seed a benchmark seed maps to: only seeds with a stored
    reference rendering can be checked, so seeds wrap around the table."""
    return seed % references["seeds"]


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def check_environment(workload: Workload) -> None:
    if not (SRC / "repro" / "traffic" / "fleet.py").is_file():
        raise SetupError(f"no repro sources under {SRC}")
    if usable_cores() < workload.workers:
        raise SetupError(f"{workload.name} needs {workload.workers} usable "
                         f"cores, this process has {usable_cores()}")


# -- one fleet run ----------------------------------------------------------

def run_child(workload: Workload, shape: Dict[str, Any], seed: int,
              trace: bool, env: Dict[str, str]
              ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """One fleet run in a fresh interpreter: (result, None) or
    (None, reason it failed)."""
    args = [sys.executable, str(BENCH_DIR / "fleet_child.py"),
            "--olts", str(shape["olts"]), "--tenants", str(shape["tenants"]),
            "--sim-seconds", repr(shape["sim_seconds"]),
            "--seed", str(seed), "--workers", str(workload.workers),
            "--trace", "1" if trace else "0"]
    if shape["downstream"]:
        args.append("--downstream")
    t0 = time.monotonic()
    try:
        done = subprocess.run(args + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"fleet run exceeded {CHILD_TIMEOUT_S:g}s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"fleet run exited {done.returncode}: {tail[0]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "fleet run printed no JSON result"


def calibrate() -> float:
    """Host seconds for one pass of the calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_run(result: Dict[str, Any], reference_sha256: str) -> List[str]:
    """Every output check one fleet run must pass; returns the failures."""
    problems: List[str] = []
    if digest(result["rendering"]) != reference_sha256:
        problems.append("rendering differs from the stored reference")
    hostile, flagged = set(result["hostile"]), set(result["flagged"])
    if not hostile:
        problems.append("fleet has no hostile tenant")
    if hostile - flagged:
        problems.append("hostile tenant not flagged: "
                        + ", ".join(sorted(hostile - flagged)))
    if flagged - hostile:
        problems.append("benign tenant flagged: "
                        + ", ".join(sorted(flagged - hostile)))
    if result["accounting_violations"]:
        problems.append("delivered <= admitted <= offered broken for "
                        + ", ".join(result["accounting_violations"][:5]))
    if result.get("leftover_wrappers"):
        problems.append("layer wrappers left installed: "
                        + ", ".join(result["leftover_wrappers"]))
    return problems


# -- metrics ----------------------------------------------------------------

def boundary_intervals_ms(results: Sequence[Dict[str, Any]]) -> List[float]:
    """Host time between consecutive monitor boundaries, pooled over
    runs; each run's first interval starts when ShardPool.start returns."""
    intervals: List[float] = []
    for result in results:
        previous = 0.0
        for at in result["boundaries"]:
            intervals.append((at - previous) * 1e3)
            previous = at
    return intervals


def end_to_end_metrics(results: Sequence[Dict[str, Any]],
                       speed: float = 1.0) -> Dict[str, float]:
    """Medians over runs; host times are multiplied by ``speed``, the
    host-speed factor of :func:`host_speed`."""
    intervals = boundary_intervals_ms(results)
    return {
        "setup_s": speed * statistics.median(r["setup_s"] for r in results),
        "run_s": speed * statistics.median(r["run_s"] for r in results),
        "boundary_ms_p50": speed * statistics.median(intervals),
        "boundary_ms_p90": speed * statistics.quantiles(intervals, n=10)[8],
        "offered_mb_per_s": statistics.median(
            r["offered_bytes"] / 1e6 / r["run_s"] for r in results) / speed,
        "peak_rss_mb": statistics.median(
            r["peak_rss_kb"] / 1024.0 for r in results),
    }


def host_speed(calibration: Sequence[float]) -> float:
    """Scale factor from this run's host speed to the reference speed:
    below 1 when the host ran the calibration loop slower."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibration)


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traced: Sequence[Dict[str, Any]],
                      untraced: Sequence[Dict[str, Any]],
                      speed: float = 1.0) -> Dict[str, float]:
    """Self times are medians over the traced runs, multiplied by
    ``speed``; counts are the last traced run's (the simulation is
    deterministic, so any run's would do)."""
    layers = traced[-1]["layers"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS + ("unattributed",):
        metrics[f"{layer}.self_s"] = speed * statistics.median(
            r["layers"]["self_s"][layer] for r in traced)
        if layer in layers["calls"]:
            metrics[f"{layer}.calls"] = layers["calls"][layer]
    counts, falco = layers["counts"], layers["falco"]
    metrics.update({
        "traffic.profiles.requests": counts["traffic.profiles.requests"],
        "traffic.qos.admitted_share": _share(
            counts["traffic.qos.requests_out"],
            counts["traffic.qos.requests_in"]),
        "traffic.dba.completed_requests":
            counts["traffic.dba.completed_requests"],
        "traffic.downstream.accepted_share": _share(
            counts["traffic.downstream.accepted"],
            layers["calls"]["traffic.downstream"]),
        "traffic.fleet.events_shipped": counts["traffic.fleet.events_shipped"],
        "traffic.fleet.ipc_bytes": counts["traffic.fleet.ipc_bytes"],
        "common.events.delivered": counts["common.events.delivered"],
        "security.monitor.falco.events_processed": falco["events_processed"],
        "security.monitor.falco.rule_evaluations": falco["rule_evaluations"],
        "security.monitor.falco.evaluations_per_event": _share(
            falco["rule_evaluations"], falco["events_processed"]),
    })
    untraced_s = speed * statistics.median(r["run_s"] for r in untraced)
    traced_s = speed * statistics.median(r["run_s"] for r in traced)
    metrics["tracing.untraced_run_s"] = untraced_s
    metrics["tracing.traced_run_s"] = traced_s
    metrics["tracing.overhead_s"] = traced_s - untraced_s
    return metrics


def layer_table(traced: Sequence[Dict[str, Any]],
                metrics: Dict[str, float]) -> str:
    """The per-layer table: self time, its share of the traced run, calls."""
    run_s = metrics["tracing.traced_run_s"]
    lines = [f"{'layer':<20} {'self s':>9} {'share':>7} {'calls':>10}"]
    for layer in LAYERS + ("unattributed",):
        self_s = metrics[f"{layer}.self_s"]
        calls = metrics.get(f"{layer}.calls")
        lines.append(f"{layer:<20} {self_s:>9.4f} {_share(self_s, run_s):>7.1%}"
                     f" {'' if calls is None else calls:>10}")
    spans = traced[-1]["layers"]["boundaries"]
    lines.append(f"(median of {len(traced)} traced runs; last run had "
                 f"{len(spans)} monitor-boundary spans)")
    return "\n".join(lines)


# -- the benchmark run ------------------------------------------------------

def measure(workload: Workload, references: Dict[str, Any], seed: int,
            seconds: float, trace: bool) -> Dict[str, Any]:
    """Run fleet runs back to back for ``seconds``; check every one."""
    table = references[workload.reference]
    shape = {"olts": references["olts"], "tenants": references["tenants"],
             "sim_seconds": table["sim_seconds"],
             "downstream": workload.reference == "down"}
    expected = table["sha256"][seed]
    env = child_env()
    # Untimed warm-up: compile bytecode so the first run's set-up does
    # not pay for it.
    subprocess.run([sys.executable, "-c", "import repro.traffic.fleet"],
                   cwd=ROOT, env=env, check=False, timeout=CHILD_TIMEOUT_S)

    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    failures: List[Tuple[int, str]] = []
    attempted = 0
    unit_times: List[float] = []
    calibration: List[float] = []
    begin = time.monotonic()
    deadline = begin + seconds
    while True:
        unit_start = time.monotonic()
        # With --trace 1 a unit is an untraced/traced pair, alternating
        # which side runs first.
        order = [False]
        if trace:
            order = [False, True] if len(unit_times) % 2 == 0 \
                else [True, False]
        unit: Dict[bool, Tuple[int, Dict[str, Any]]] = {}
        for traced_run in order:
            attempted += 1
            calibration.extend(calibrate()
                               for _ in range(CALIBRATION_SAMPLES))
            result, error = run_child(workload, shape, seed, traced_run, env)
            problems = [error] if result is None \
                else check_run(result, expected)
            failures.extend((attempted, problem) for problem in problems)
            if result is not None:
                print(f"run {attempted}{' traced' if traced_run else ''}: "
                      f"setup {result['setup_s']:.3f} s, run "
                      f"{result['run_s']:.3f} s, peak rss "
                      f"{result['peak_rss_kb'] / 1024:.1f} MB, "
                      f"{'FAILED' if problems else 'ok'}", flush=True)
            if result is not None and not problems:
                unit[traced_run] = (attempted, result)
        if len(unit) == 2 and \
                unit[True][1]["rendering"] != unit[False][1]["rendering"]:
            failures.append((unit[True][0],
                             "traced rendering differs from untraced"))
            del unit[True]
        for traced_run, (_run, result) in unit.items():
            (traced if traced_run else untraced).append(result)
        now = time.monotonic()
        unit_times.append(now - unit_start)
        needed = MIN_PAIRS if trace else MIN_RUNS
        if len(unit_times) >= needed \
                and now + statistics.median(unit_times) > deadline:
            break
    return {"attempted": attempted, "failures": failures,
            "untraced": untraced, "traced": traced,
            "calibration": calibration,
            "measured_s": time.monotonic() - begin}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fleet benchmark (host time, end to end and per layer).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds to keep starting fleet runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="reference renderings (default: the stored "
                             "32 OLT x 256 tenant table)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        check_environment(workload)
        references = load_references(args.references)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = fleet_seed(args.seed, references)
    context = (f"workload {workload.name}: {references['olts']} OLTs x "
               f"{references['tenants']} tenants, "
               f"{references[workload.reference]['sim_seconds']:g}s "
               f"simulated, workers {workload.workers}, fleet seed {seed} "
               f"(--seed {args.seed}); usable cores {usable_cores()}, "
               f"Python {platform.python_version()}, git {git_rev()}")
    print(context)
    outcome = measure(workload, references, seed, args.seconds,
                      bool(args.trace))
    attempted = outcome["attempted"]
    failed = len({run for run, _problem in outcome["failures"]})
    for run, problem in outcome["failures"]:
        print(f"FAILED run {run}: {problem}")
    untraced, traced = outcome["untraced"], outcome["traced"]
    print(f"{attempted} fleet runs in {outcome['measured_s']:.1f}s, "
          f"{failed} failed; failed_run_share {failed / attempted:.4f} "
          f"(ratio)")

    speed = host_speed(outcome["calibration"])
    speed_line = (f"host speed factor {speed:.4f} (host times below are "
                  f"scaled by it): calibration loop median "
                  f"{statistics.median(outcome['calibration']) * 1e3:.2f} ms"
                  f" over {len(outcome['calibration'])} samples, reference "
                  f"{REFERENCE_CALIBRATION_S * 1e3:g} ms")
    print(speed_line)
    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    if args.trace:
        units = dict(PER_LAYER)
        if traced and untraced:
            metrics = per_layer_metrics(traced, untraced, speed)
            table = layer_table(traced, metrics)
            print(table)
            RESULTS_DIR.mkdir(exist_ok=True)
            out = RESULTS_DIR / f"{workload.name}-seed{args.seed}.trace.txt"
            out.write_text(f"{context}\n{speed_line}\n{table}\n",
                           encoding="utf-8")
            print(f"per-layer table written to "
                  f"{out.relative_to(ROOT)}")
    else:
        units = dict(END_TO_END)
        if untraced:
            metrics = end_to_end_metrics(untraced, speed)
            raw = end_to_end_metrics(untraced)
            samples = len(boundary_intervals_ms(untraced))
            print(f"boundary samples {samples} over {len(untraced)} runs; "
                  f"p90 has {samples - int(0.9 * samples)} beyond it")
            print(f"  {'metric':<46} {'scaled':>16} {'as timed':>14}")
            for name, unit in units.items():
                print(f"  {name:<46} {metrics[name]:>16.6f} "
                      f"{raw[name]:>14.6f} {unit}")
    if args.trace:
        for name, unit in units.items():
            if name in metrics:
                value = metrics[name]
                shown = f"{value:,}" if isinstance(value, int) \
                    else f"{value:.6f}"
                print(f"  {name:<46} {shown:>16} {unit}")
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
