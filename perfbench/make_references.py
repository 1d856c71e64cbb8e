"""Rebuild ``references.json`` from the CLI's own fleet renderings.

For every fleet seed in ``range(SEEDS)`` this runs::

    python -m repro fleet --olts 32 --tenants 256 --seconds 2 --seed N
    python -m repro fleet --olts 32 --tenants 256 --seconds 1 --seed N --downstream

and stores the sha256 of each rendering. The full renderings of the
default and held-out seeds are kept as text under ``references/`` so a
reader can diff them. Run it from the repository root, only when the
fleet report is *meant* to change (it takes several minutes)::

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

OLTS, TENANTS, SEEDS = 32, 256, 64
SIM_SECONDS = {"up": 2.0, "down": 1.0}
DEFAULT_SEED, HELD_OUT_SEED = 7, 41


def render(olts: int, tenants: int, sim_seconds: float, seed: int,
           downstream: bool) -> str:
    """One ``python -m repro fleet`` rendering, without the CLI's final
    newline."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "fleet", "--olts", str(olts),
         "--tenants", str(tenants), "--seconds", f"{sim_seconds:g}",
         "--seed", str(seed)] + (["--downstream"] if downstream else []),
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True)
    return out.stdout[:-1]


def build_references(olts: int, tenants: int, seeds: int,
                     sim_seconds: Dict[str, float]
                     ) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """The reference table, plus the full renderings keyed
    ``<table>-seed<N>`` for the default and held-out seeds."""
    references: Dict[str, Any] = {"olts": olts, "tenants": tenants,
                                  "seeds": seeds}
    texts: Dict[str, str] = {}
    for table, seconds in sim_seconds.items():
        digests = []
        for seed in range(seeds):
            text = render(olts, tenants, seconds, seed, table == "down")
            digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
            if seed in (DEFAULT_SEED, HELD_OUT_SEED):
                texts[f"{table}-seed{seed}"] = text
        references[table] = {"sim_seconds": seconds, "sha256": digests}
    return references, texts


def main() -> int:
    references, texts = build_references(OLTS, TENANTS, SEEDS, SIM_SECONDS)
    (BENCH_DIR / "references").mkdir(exist_ok=True)
    for name, text in texts.items():
        (BENCH_DIR / "references" / f"{name}.txt").write_text(
            text + "\n", encoding="utf-8")
    (BENCH_DIR / "references.json").write_text(
        json.dumps(references, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
