"""Provider-side design rule checks.

Cloud FPGA providers vet submitted designs.  Two checks matter for the
paper's story:

* **Self-oscillator scan** -- combinational loops (ring oscillators) are
  rejected, which is why RO-based aging sensors (the prior-work baseline,
  Section 7) cannot be deployed on AWS F1, while the TDC sensor "uses
  computational structures that are common in many FPGA designs" and
  passes.
* **Power cap** -- AWS F1 imposes an 85 W limit; the Target design's
  63 W sits under it.

The scan also rejects designs that place logic in the provider's shell
region.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import DesignRuleViolation
from repro.fabric.bitstream import Bitstream
from repro.fabric.geometry import FabricGrid
from repro.observability.metrics import registry

#: DRC results are pure functions of (bitstream, grid shape, power cap),
#: and experiments reload the same few compiled images hundreds of times
#: (every Condition<->Measurement alternation re-vets its design), so a
#: small keyed cache removes the cycle-enumeration cost from every load
#: after the first.
_DRC_CACHE_MAX = 128

_drc_cache: "OrderedDict[tuple, DrcReport]" = OrderedDict()


@dataclass(frozen=True)
class DrcReport:
    """Outcome of a design rule check run."""

    design_name: str
    #: Every combinational loop, in :func:`combinational_loops`' order.
    combinational_loops: tuple[tuple[str, ...], ...]
    power_watts: float
    power_cap_watts: float
    shell_violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        """Whether every check passed."""
        return (
            not self.combinational_loops
            and self.power_watts <= self.power_cap_watts
            and not self.shell_violations
        )

    def raise_on_failure(self) -> None:
        """Raise :class:`DesignRuleViolation` describing every failure."""
        if self.passed:
            return
        problems = []
        if self.combinational_loops:
            loops = "; ".join(
                " -> ".join(loop) for loop in self.combinational_loops[:3]
            )
            problems.append(
                f"{len(self.combinational_loops)} combinational loop(s) "
                f"(self-oscillators are prohibited): {loops}"
            )
        if self.power_watts > self.power_cap_watts:
            problems.append(
                f"power {self.power_watts:.1f} W exceeds the "
                f"{self.power_cap_watts:.1f} W platform cap"
            )
        if self.shell_violations:
            problems.append(
                f"cells placed in the provider shell region: "
                f"{', '.join(self.shell_violations[:5])}"
            )
        raise DesignRuleViolation(
            f"design {self.design_name!r} failed DRC: " + " | ".join(problems)
        )


def clear_drc_cache() -> None:
    """Drop every cached report (tests and benchmarks)."""
    _drc_cache.clear()


def combinational_loops(
    successors: Mapping[str, Sequence[str]],
) -> tuple[tuple[str, ...], ...]:
    """Every elementary cycle of a graph, in a canonical order.

    ``successors`` maps each node to its successors; its key order is
    the cell order.  Each loop starts at its earliest node in that
    order, and the loops are sorted by their nodes' positions, so the
    report never depends on set iteration (and the string-hash salt).
    Tarjan's pass finds the strongly connected components; Johnson's
    search then enumerates the cycles inside each nontrivial one.
    """
    position = {node: i for i, node in enumerate(successors)}
    loops = []
    for component in _strong_components(successors):
        if len(component) == 1:
            node = component[0]
            if node in successors[node]:
                loops.append((node,))
            continue
        allowed = set(component)
        for start in sorted(component, key=position.__getitem__):
            allowed.discard(start)
            loops.extend(_cycles_through(start, successors, allowed))
    loops.sort(key=lambda loop: [position[node] for node in loop])
    return tuple(loops)


def _strong_components(
    successors: Mapping[str, Sequence[str]],
) -> list[list[str]]:
    """Tarjan's strongly connected components, iteratively."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components = []
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def _cycles_through(
    start: str,
    successors: Mapping[str, Sequence[str]],
    allowed: set[str],
) -> list[tuple[str, ...]]:
    """Johnson's circuit search: every cycle from ``start`` back to it
    whose other nodes lie in ``allowed``, each starting at ``start``."""
    cycles = []
    path = [start]
    blocked = {start}
    blocking: dict[str, set[str]] = {}
    work = [(start, iter(successors[start]))]
    closed = [False]  # per frame: a cycle was found through this node
    while work:
        node, pending = work[-1]
        for nxt in pending:
            if nxt == start:
                cycles.append(tuple(path))
                closed[-1] = True
            elif nxt in allowed and nxt not in blocked:
                path.append(nxt)
                blocked.add(nxt)
                work.append((nxt, iter(successors[nxt])))
                closed.append(False)
                break
        else:
            work.pop()
            path.pop()
            found = closed.pop()
            if found:
                unblock = [node]
                while unblock:
                    member = unblock.pop()
                    if member in blocked:
                        blocked.discard(member)
                        unblock.extend(blocking.pop(member, ()))
            else:
                for nxt in successors[node]:
                    if nxt in allowed:
                        blocking.setdefault(nxt, set()).add(node)
            if closed:
                closed[-1] = closed[-1] or found
    return cycles


def check_design(
    bitstream: Bitstream, grid: FabricGrid, power_cap_watts: float
) -> DrcReport:
    """Run all provider checks on a compiled bitstream.

    Reports are memoised per ``(bitstream_id, grid shape, power cap)``:
    bitstream ids are unique per compile and both :class:`Bitstream` and
    :class:`DrcReport` are frozen, so a cached report is exactly the
    report a fresh check would produce.  The cache is bounded LRU.
    """
    key = (
        bitstream.bitstream_id,
        grid.columns,
        grid.rows,
        grid.shell_rows,
        power_cap_watts,
    )
    cached = _drc_cache.get(key)
    if cached is not None:
        _drc_cache.move_to_end(key)
        registry.counter(
            "drc_cache_hits_total", "DRC reports served from the cache"
        ).inc()
        return cached
    loops = combinational_loops(bitstream.netlist.combinational_graph())
    shell = tuple(
        name
        for name, site in bitstream.placement.sites.items()
        if not grid.is_user_visible(site.coord)
    )
    report = DrcReport(
        design_name=bitstream.name,
        combinational_loops=loops,
        power_watts=bitstream.power.total_watts,
        power_cap_watts=power_cap_watts,
        shell_violations=shell,
    )
    _drc_cache[key] = report
    if len(_drc_cache) > _DRC_CACHE_MAX:
        _drc_cache.popitem(last=False)
    return report
