"""Per-layer host-time tracing of one fleet run, from outside ``src/``.

:class:`LayerTrace` wraps public methods of the fleet's layers for the
length of one traced run and restores the originals afterwards. Each
wrapper charges the host time since the previous layer transition to
whichever layer was running, so every layer's *self* time excludes the
wrapped calls nested inside it, and time inside the run that no wrapper
covers lands in ``unattributed``. The cost per wrapped call is two clock
reads, two float adds and a list push/pop; no span object is built per
call. Counts are taken from the wrapped calls' arguments and results by
hooks whose own host time is charged to no layer.

Wrappers in the parent process cannot see inside spawned shard workers:
with ``workers=2`` only the parent-side layers (``traffic.fleet``,
``common.events``, ``security.monitor``) record anything.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.sim import Scheduler
from repro.pon.network import PonNetwork
from repro.pon.olt import Olt
from repro.security.monitor.abuse import ResourceAbuseDetector
from repro.traffic.dba import TCont
from repro.traffic.downstream import DownstreamScheduler
from repro.traffic.fleet import ParallelFleetDriver, ShardPool
from repro.traffic.profiles import WorkloadProfile
from repro.traffic.qos import QosEnforcer

from run import LAYERS

UNATTRIBUTED = "unattributed"

Hook = Callable[[Tuple[Any, ...], Any], None]


class LayerTrace:
    """Self time, call counts and work counts per layer for one run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(
            LAYERS + (UNATTRIBUTED,), 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Dict[str, int] = {
            "traffic.profiles.requests": 0,
            "traffic.qos.requests_in": 0,
            "traffic.qos.requests_out": 0,
            "traffic.dba.completed_requests": 0,
            "traffic.downstream.accepted": 0,
            "traffic.fleet.events_shipped": 0,
            "traffic.fleet.ipc_bytes": 0,
            "common.events.delivered": 0,
        }
        # One span per fleet monitor boundary: (index, start, end) in
        # host seconds since begin().
        self.boundaries: List[Tuple[int, float, float]] = []
        self._stack: List[str] = [UNATTRIBUTED]
        self._last = [time.perf_counter()]
        self._began = self._last[0]
        self._patched: List[Tuple[Any, str, Optional[Any]]] = []

    # -- installation ----------------------------------------------------

    def install(self, driver: ParallelFleetDriver) -> None:
        """Wrap every layer: shard layers at class level, the merge on
        the driver's own fleet bus (shard buses never batch-publish)."""
        for owner, attr, layer, hook in self._targets(driver):
            original = getattr(owner, attr)
            saved = owner.__dict__[attr] if isinstance(owner, type) else None
            self._patched.append((owner, attr, saved))
            setattr(owner, attr, self._wrap(layer, original, hook))

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._patched:
            owner, attr, saved = self._patched.pop()
            if saved is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def leftovers(self, driver: ParallelFleetDriver) -> List[str]:
        """Wrapped methods still in place, as ``Owner.attr`` names."""
        return [f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
                for owner, attr, _layer, _hook in self._targets(driver)
                if hasattr(getattr(owner, attr), "perfbench_layer")]

    def _targets(self, driver: ParallelFleetDriver
                 ) -> List[Tuple[Any, str, str, Optional[Hook]]]:
        counts = self.counts

        def add(name: str, amount: int) -> None:
            counts[name] += amount

        def qos_hook(args: Tuple[Any, ...], result: Any) -> None:
            add("traffic.qos.requests_in", len(args[1]))
            add("traffic.qos.requests_out", len(result))

        def fleet_hook(args: Tuple[Any, ...], result: Any) -> None:
            add("traffic.fleet.events_shipped",
                sum(len(cycle.events) for cycle in result))
            add("traffic.fleet.ipc_bytes",
                len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)))

        return [
            (WorkloadProfile, "batch", "traffic.profiles",
             lambda args, result: add("traffic.profiles.requests",
                                      len(result))),
            (QosEnforcer, "admit", "traffic.qos", qos_hook),
            (TCont, "offer", "traffic.dba", None),
            (TCont, "drain", "traffic.dba",
             lambda args, result: add("traffic.dba.completed_requests",
                                      len(result[1]))),
            (Olt, "run_dba_cycle", "pon.olt", None),
            (Olt, "run_downstream_cycle", "pon.olt", None),
            (DownstreamScheduler, "enqueue", "traffic.downstream",
             lambda args, result: add("traffic.downstream.accepted",
                                      1 if result else 0)),
            (PonNetwork, "send_upstream", "pon.network", None),
            (PonNetwork, "send_downstream", "pon.network", None),
            (Scheduler, "run_until", "common.sim", None),
            (ShardPool, "advance", "traffic.fleet", fleet_hook),
            (ShardPool, "reports", "traffic.fleet", None),
            (driver.bus, "publish_batch", "common.events",
             lambda args, result: add("common.events.delivered", result)),
            (ResourceAbuseDetector, "sample_metrics", "security.monitor",
             None),
        ]

    def _wrap(self, layer: str, fn: Callable[..., Any],
              hook: Optional[Hook]) -> Callable[..., Any]:
        self_s = self.self_s
        calls = self.calls
        stack = self._stack
        last = self._last
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            now = clock()
            self_s[stack[-1]] += now - last[0]
            stack.append(layer)
            last[0] = now
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[layer] += now - last[0]
                stack.pop()
                last[0] = now
                calls[layer] += 1
            if hook is not None:
                hook(args, result)
                last[0] = clock()
            return result

        wrapper.perfbench_layer = layer  # type: ignore[attr-defined]
        return wrapper

    # -- the traced window -----------------------------------------------

    def begin(self) -> None:
        """Start the run's window: drop anything charged before it."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        self._last[0] = self._began = time.perf_counter()

    def boundary(self) -> None:
        """Close the current monitor-boundary span and open the next."""
        now = time.perf_counter() - self._began
        start = self.boundaries[-1][2] if self.boundaries else 0.0
        self.boundaries.append((len(self.boundaries), start, now))

    def end(self) -> None:
        """Charge the tail of the window to the layer still running."""
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last[0]
        self._last[0] = now

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data result for the parent process."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts),
                "boundaries": list(self.boundaries)}
