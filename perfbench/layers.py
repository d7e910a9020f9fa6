"""Per-layer attribution for the traced run, from outside the program.

The benchmark wraps the public calls into each layer (``_targets``) and
accumulates each wrapper's *self* time: its wall time minus the time
spent in wrapped calls it made.  Nothing inside ``src/`` changes, so the
traced and untraced runs execute the same program code and must produce
the same simulated statistics.

``_targets`` is the one list of wrapped calls and their metrics;
``layer_map`` derives from it, for each layer, the calls wrapped, the
metrics reported and the end-to-end figure each should move.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# layer -> the end-to-end figure its metrics should move, and where
LAYER_MOVES = {
    "sensor": "throughput (bits/s) on tm2-recovery; nothing elsewhere",
    "physics": "throughput on tm2-recovery (victim burn); "
               "slightly on fleet-scan",
    "fabric": "throughput (boards/s) on fleet-scan via route delays; "
              "throughput on tm2-recovery via design loads and wipes",
    "designs": "throughput on tm2-recovery",
    "core": "throughput on tm2-recovery",
    "cloud": "throughput (drops/s) on churn-saturated, where "
             "cloud.churn_s per drop is the lever; slightly on fleet-scan",
}

# Per-layer counts summed from each operation's simulated statistics:
# metric -> statistics key.  ``cloud.drop_ratio`` is drops / arrivals.
STAT_METRICS = {
    "sensor.capture_words": "capture_words",
    "fabric.segments_materialised": "segments_materialised",
    "cloud.events": "events",
    "cloud.dropped_arrivals": "dropped_arrivals",
}
DROP_RATIO = "cloud.drop_ratio"

# Whole-run figures: run wall outside the wrappers, the wrappers' share
# of run wall, and traced over untraced time minus one.
RUN_METRICS = ("other_s", "coverage", "trace_overhead")


def _targets() -> list:
    """(owner, attribute, metric, call counter) for every wrapped call."""
    from repro.cloud.campaigns import FleetSimulator, VirtualRegion
    from repro.cloud.events import EventLoop
    from repro.cloud.provider import CloudProvider
    from repro.core import classify
    from repro.core.threat_model2 import ThreatModel2Attack
    from repro.designs.measure import MeasureSession
    from repro.fabric.device import FpgaDevice

    targets = [
        (MeasureSession, "measure_bank", "sensor.measure_s",
         "sensor.measure_calls"),
        (MeasureSession, "calibrate", "sensor.calibrate_s", None),
        (FpgaDevice, "advance_hours", "physics.advance_s",
         "physics.advance_calls"),
        (FpgaDevice, "sync", "physics.advance_s", "physics.advance_calls"),
        (FpgaDevice, "route_delta_ps", "fabric.route_delay_s",
         "fabric.route_delay_calls"),
        (FpgaDevice, "transition_delays", "fabric.route_delay_s",
         "fabric.route_delay_calls"),
        (FpgaDevice, "load", "fabric.load_s", "fabric.load_calls"),
        (FpgaDevice, "wipe", "fabric.load_s", "fabric.load_calls"),
        (ThreatModel2Attack, "run", "core.attack_s", None),
        (CloudProvider, "advance", "cloud.provider_s", None),
        (CloudProvider, "rent", "cloud.provider_s", None),
        (CloudProvider, "release", "cloud.provider_s", None),
        (VirtualRegion, "advance_to", "cloud.churn_s", None),
        (EventLoop, "run", "cloud.loop_s", None),
        (FleetSimulator, "probe", "cloud.probe_s", None),
    ]
    targets += [
        (cls, "classify_many", "core.classify_s", None)
        for cls in vars(classify).values()
        if isinstance(cls, type) and "classify_many" in vars(cls)
    ]
    # Module-level builders are bound by name in every importing module,
    # so each binding is wrapped.
    from repro.designs.measure import build_measure_design
    from repro.designs.routes import build_route_bank
    from repro.designs.target import build_target_design

    builders = (build_route_bank, build_target_design, build_measure_design)
    for module in list(sys.modules.values()):
        if not (getattr(module, "__name__", "") or "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if any(value is builder for builder in builders):
                targets.append((module, name, "designs.build_s", None))
    return targets


def layer_map(targets=None) -> dict:
    """layer -> calls wrapped, metrics reported, end-to-end figure moved."""
    layers = {layer: {"calls": [], "metrics": [], "moves": moves}
              for layer, moves in LAYER_MOVES.items()}

    def add(metric: str, key: str, item: str) -> None:
        entries = layers[metric.split(".")[0]][key]
        if item not in entries:
            entries.append(item)

    for owner, attr, metric, counter in targets or _targets():
        add(metric, "calls", vars(owner)[attr].__qualname__)
        for name in (metric, counter):
            if name is not None:
                add(name, "metrics", name)
    for name in (*STAT_METRICS, DROP_RATIO):
        add(name, "metrics", name)
    return layers


class LayerTracer:
    """Self time and call counts per layer, while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Wall time inside any outermost wrapped call.
        self.covered_s = 0.0
        self._stack: list[float] = []
        self._patches = []
        targets = _targets()
        self.layers = layer_map(targets)
        self._counters = {counter for *_, counter in targets}
        for owner, attr, metric, counter in targets:
            original = vars(owner)[attr]
            self._patches.append(
                (owner, attr, original,
                 self._wrap(original, metric, counter))
            )

    def metrics(self, traced: list, overhead: float) -> dict:
        """Every layer's metrics per operation, then the whole-run ones.

        ``traced`` holds the traced operations' (wall, statistics).
        """
        n = len(traced)
        wall = sum(w for w, _ in traced)

        def total(key: str) -> float:
            return sum(stats.get(key, 0) for _, stats in traced)

        values = {}
        for layer in self.layers.values():
            for name in layer["metrics"]:
                if name == DROP_RATIO:
                    arrivals = total("arrivals")
                    values[name] = (total("dropped_arrivals") / arrivals
                                    if arrivals else 0.0)
                elif name in STAT_METRICS:
                    values[name] = total(STAT_METRICS[name]) / n
                elif name in self._counters:
                    values[name] = self.calls[name] / n
                else:
                    values[name] = self.self_s[name] / n
        values.update(zip(RUN_METRICS, (
            (wall - self.covered_s) / n, self.covered_s / wall, overhead,
        )))
        return values
    def _wrap(self, fn, metric: str, counter):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[metric] += elapsed - stack.pop()
                if counter is not None:
                    calls[counter] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
