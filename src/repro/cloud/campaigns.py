"""Attacker campaigns over a fleet-scale churn simulation.

The paper's threat is a *fleet* property: which boards an attacker can
re-acquire, how often they are wiped, how much background tenant churn
shuffles the free pool.  This module simulates a provider-sized fleet
(100k boards, millions of rent/release events per simulated year) by
splitting the simulation into two coupled layers:

* **Churn** -- the background tenant population.  Arrivals and rental
  durations are drawn *up front* into a :class:`ChurnTrace` (so the
  randomness is independent of how the simulation is batched), and a
  churn engine (:class:`_BulkChurn`) replays them against a LIFO free
  stack, resolving an entire batch of events with a handful of numpy
  passes -- what sustains the >1M lifecycle-events/sec bench floor.
  The obviously correct per-event replay it is pinned identical to is
  the test oracle ``tests/oracles/churn.py`` (``reference_churn()``).

* **Tracked boards** -- the handful of boards an attacker or victim
  actually touches.  Those materialise as real
  :class:`~repro.fabric.device.FpgaDevice` instances on first contact
  (:class:`LazyFleet`), and integrate ambient/thermal history over
  deterministic tick boundaries, so the full BTI physics runs only
  where it matters.

Campaigns (:func:`run_flash_campaign`, :func:`run_scan_campaign`)
schedule victims and attacker actions on the
:class:`~repro.cloud.events.EventLoop` and report fleet-level
**recovery yield**: the fraction of victims whose secret an attacker
recovered from remanent delay shifts.

Bulk-engine mechanics (for the maintainer)
------------------------------------------

Within one window the free stack only ever changes at its top.  Each
event therefore touches exactly one stack *boundary*: an arrival at
fill level ``f`` pops position ``f - 1``; a release at fill ``f``
pushes position ``f``.  Grouping the window's events by boundary (a
stable argsort), events within a group strictly alternate pop/push, so
each arrival's board is either the board pushed by the group's
immediately preceding release, or -- when there is none -- the board
sitting at that position in the pre-window stack.  That turns board
assignment into parent pointers between arrivals, resolved in
O(log chain) pointer-doubling passes, and the post-window stack is
read off each boundary group's last event.  Capacity misses (an
arrival finding an empty stack) are found by that same ordering pass;
when there are any, one count-only walk from the first miss fixes the
drop set exactly as the per-event reference drops arrivals, and the
ordering pass runs once more without them -- at most two sorts per
window, whatever its drop count.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from repro.errors import CapacityError, CloudError, ConfigurationError
from repro.cloud.events import EventKind, EventLoop
from repro.designs import build_route_bank, build_target_design
from repro.fabric.device import FpgaDevice, RouteRequest
from repro.fabric.parts import PartDescriptor, VIRTEX_ULTRASCALE_PLUS
from repro.fabric.thermal import DataCenterAmbient
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.observability.timeseries import (
    SERIES_AGING_DEBT,
    SERIES_BOARDS_PROBED,
    SERIES_FAILED_WIPES,
    SERIES_FAULTS,
    SERIES_RECOVERY_YIELD,
    FlightRecorder,
)
from repro.physics.aging import CLOUD_PART, WearProfile
from repro.physics.pool_array import SegmentBtiArray
from repro.reliability.faults import FaultPlan, derive_plan_seed, note_fault
from repro.reliability.retry import get_retry_policy, note_retry
from repro.rng import RngFactory, SeedLike, make_rng

__all__ = [
    "ChurnModel",
    "ChurnTrace",
    "VirtualRegion",
    "LazyFleet",
    "FleetScenario",
    "FleetSimulator",
    "FlashAttackPlan",
    "ScanPlan",
    "CampaignResult",
    "FleetSweepResult",
    "run_flash_campaign",
    "run_scan_campaign",
    "run_fleet_sweep",
    "fleet_journal_context",
    "run_churn_benchmark",
]

_log = get_logger("cloud.campaigns")

#: Rental durations are clamped above zero so a release can never sort
#: before its own arrival (churn orders same-time events release-first).
_MIN_RENTAL_HOURS = 1e-9


def _inc_churn_counters(events: int, rents: int,
                        releases: int, drops: int) -> None:
    """Fold one churn advance into the registry's fleet counters.

    The bulk engine and the per-event reference oracle both call this
    with per-advance deltas, so the counter *values* agree exactly
    between them (the counter equality test pins this).
    """
    if events:
        registry.counter(
            "fleet_events_total",
            "discrete events dispatched by event loops",
        ).inc(events)
    if rents:
        registry.counter(
            "fleet_events_rent_total",
            "RENT events across loop dispatch and churn",
        ).inc(rents)
    if releases:
        registry.counter(
            "fleet_events_release_total",
            "RELEASE events across loop dispatch and churn",
        ).inc(releases)
    if drops:
        registry.counter(
            "fleet_events_dropped_total",
            "arrivals dropped by capacity misses",
        ).inc(drops)


# ---------------------------------------------------------------------------
# Churn model: all randomness drawn up front
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnTrace:
    """A pre-drawn background-tenant schedule.

    ``arrivals`` is sorted ascending; ``durations`` aligns with it.
    Drawing the whole trace before the simulation starts is what makes
    runs reproducible *regardless of event-batch size*: windowing the
    simulation only slices this trace, it never draws.
    """

    arrivals: np.ndarray
    durations: np.ndarray

    def __post_init__(self) -> None:
        if len(self.arrivals) != len(self.durations):
            raise ConfigurationError("arrivals and durations must align")

    def __len__(self) -> int:
        return len(self.arrivals)


@dataclass(frozen=True)
class ChurnModel:
    """Poisson tenant arrivals with exponential rental durations."""

    arrival_rate_per_hour: float = 50.0
    mean_rental_hours: float = 12.0

    def __post_init__(self) -> None:
        if self.arrival_rate_per_hour <= 0.0:
            raise ConfigurationError("arrival rate must be positive")
        if self.mean_rental_hours <= 0.0:
            raise ConfigurationError("mean rental must be positive")

    def draw(self, horizon_hours: float, seed: SeedLike = None) -> ChurnTrace:
        """Draw every arrival in ``[0, horizon)`` in one vectorised pass.

        The draw count is a deterministic function of the horizon (mean
        plus a four-sigma margin), so the trace for a given seed never
        depends on anything downstream.
        """
        if horizon_hours <= 0.0:
            raise ConfigurationError("horizon must be positive")
        rng = make_rng(seed)
        mean = self.arrival_rate_per_hour * horizon_hours
        count = int(math.ceil(mean + 4.0 * math.sqrt(mean + 1.0) + 16.0))
        gaps = rng.exponential(1.0 / self.arrival_rate_per_hour, size=count)
        arrivals = np.cumsum(gaps)
        durations = np.maximum(
            rng.exponential(self.mean_rental_hours, size=count),
            _MIN_RENTAL_HOURS,
        )
        inside = int(np.searchsorted(arrivals, horizon_hours, side="right"))
        if inside == count:
            raise CloudError(
                "churn trace under-draw: the four-sigma margin was "
                "exhausted (astronomically unlikely; check the model)"
            )
        return ChurnTrace(
            arrivals=arrivals[:inside], durations=durations[:inside]
        )

    def draw_count(self, arrivals: int, seed: SeedLike = None) -> ChurnTrace:
        """Draw exactly ``arrivals`` arrivals (benchmark sizing)."""
        if arrivals <= 0:
            raise ConfigurationError("need at least one arrival")
        rng = make_rng(seed)
        gaps = rng.exponential(
            1.0 / self.arrival_rate_per_hour, size=arrivals
        )
        durations = np.maximum(
            rng.exponential(self.mean_rental_hours, size=arrivals),
            _MIN_RENTAL_HOURS,
        )
        return ChurnTrace(arrivals=np.cumsum(gaps), durations=durations)


# ---------------------------------------------------------------------------
# The churn engine
# ---------------------------------------------------------------------------


def _order_window(
    c_times: np.ndarray,
    a_times: np.ndarray,
    r_times: np.ndarray,
    keep: np.ndarray,
    until_hours: float,
    f0: int,
) -> tuple[np.ndarray, ...]:
    """Sort one window's events and track the free-stack fill level.

    Events are the carried-in releases ``c_times``, the kept arrivals
    and those of their releases that fall inside the window.  Returns
    the sorted times, kinds (0 release, 1 arrival), refs, fill deltas,
    fill after and fill before each event.
    """
    ka = np.nonzero(keep)[0]
    internal = ka[r_times[ka] <= until_hours]
    nc = len(c_times)
    ev_time = np.concatenate([c_times, r_times[internal], a_times[ka]])
    ev_kind = np.concatenate([
        np.zeros(nc + len(internal), dtype=np.int8),
        np.ones(len(ka), dtype=np.int8),
    ])
    # Carried-in pending releases keep ascending refs (position minus
    # nc, all negative) so same-time ties resolve in rental-start order
    # -- exactly the per-event reference's heap tie-break.  Mass ties are
    # real under a fault plan: a preemption storm truncates every
    # spanning rental to the same instant.
    ev_ref = np.concatenate([
        np.arange(nc, dtype=np.int64) - nc,
        internal.astype(np.int64),
        ka.astype(np.int64),
    ])
    order = np.lexsort((ev_ref, ev_kind, ev_time))
    ts = ev_time[order]
    ks = ev_kind[order]
    rs = ev_ref[order]
    pm = np.where(ks == 0, 1, -1)
    fill = f0 + np.cumsum(pm)
    return ts, ks, rs, pm, fill, fill - pm


def _resolve_drops(
    c_times: np.ndarray,
    a_times: np.ndarray,
    r_times: np.ndarray,
    first_miss: int,
) -> np.ndarray:
    """The window's ``keep`` mask, given its first capacity miss.

    Every event before arrival ``first_miss`` is settled by the
    all-kept ordering pass, and the free count there is zero.  From
    that arrival on, walk the arrivals in order counting free boards
    only: releases at or before each arrival come back first (the
    release-first tie rule), an arrival that finds no free board is
    dropped and never releases.  ``a_times`` is ascending, so this is
    the per-event reference's order without its board ids.
    """
    a_m = a_times[first_miss]
    head = r_times[:first_miss]
    pending = head[head > a_m].tolist()
    heapq.heapify(pending)
    carried = c_times[np.searchsorted(c_times, a_m, side="right"):].tolist()
    n_carried = len(carried)
    ci = 0
    free = 0
    keep = np.ones(len(a_times), dtype=bool)
    for i, (a, r) in enumerate(zip(a_times[first_miss:].tolist(),
                                   r_times[first_miss:].tolist()),
                               first_miss):
        while ci < n_carried and carried[ci] <= a:
            ci += 1
            free += 1
        while pending and pending[0] <= a:
            heapq.heappop(pending)
            free += 1
        if free:
            free -= 1
            heapq.heappush(pending, r)
        else:
            keep[i] = False
    return keep


class _BulkChurn:
    """Vectorised window churn engine (see the module docstring).

    State between windows: the free stack (bottom-to-top list of board
    ids) and the pending releases of rentals still running, as sorted
    arrays.  :meth:`advance_to` resolves every churn event in
    ``(now, until]`` with numpy passes instead of a per-event loop.
    """

    def __init__(self, boards: int, trace: ChurnTrace,
                 recorder: Optional[FlightRecorder] = None) -> None:
        self.n_boards = boards
        self.trace = trace
        self.stack: list[int] = list(range(boards))
        self._pend_times = np.empty(0, dtype=np.float64)
        self._pend_boards = np.empty(0, dtype=np.intp)
        self._pos = 0
        self.now_hours = 0.0
        self.events_processed = 0
        self.dropped_arrivals = 0
        self._recorder = recorder
        self._cadence = (recorder.cadence_hours
                         if recorder is not None else math.inf)
        self._gk = 1

    def _emit_grids(
        self,
        until_hours: float,
        ts: np.ndarray,
        fill: np.ndarray,
        f0: int,
        e0: int,
        d0: int,
        drop_times: np.ndarray,
    ) -> None:
        """Vectorised flight-recorder sampling for one window.

        Buckets every grid time in ``(now, until]`` against the
        window's sorted event stream with ``searchsorted``; grid times
        are ``k * cadence`` products (never accumulated sums) and the
        high index is comparison-corrected, so the emitted samples are
        bit-identical to the per-event reference's scalar walk.
        """
        cadence = self._cadence
        k_lo = self._gk
        k_hi = int(math.floor(until_hours / cadence))
        while k_hi * cadence > until_hours:
            k_hi -= 1
        while (k_hi + 1) * cadence <= until_hours:
            k_hi += 1
        if k_hi < k_lo:
            return
        self._gk = k_hi + 1
        gs = np.arange(k_lo, k_hi + 1, dtype=np.float64) * cadence
        if len(ts):
            idx = np.searchsorted(ts, gs, side="right")
            # fill[idx-1] is the level after the last event <= g; the
            # where() keeps pre-first-event grids at the window's f0
            # without concatenating a window-sized temporary.
            fill_g = np.where(idx > 0, fill[idx - 1], f0)
        else:
            idx = np.zeros(len(gs), dtype=np.intp)
            fill_g = np.full(len(gs), f0, dtype=np.int64)
        dcount = np.searchsorted(drop_times, gs, side="right")
        self._recorder.churn_window(
            gs, fill_g, self.n_boards - fill_g,
            e0 + idx + dcount, d0 + dcount,
        )

    def advance_to(self, until_hours: float) -> None:
        if until_hours < self.now_hours:
            raise CloudError("cannot advance the churn engine backwards")
        trace_ = self.trace
        lo = self._pos
        hi = int(np.searchsorted(trace_.arrivals, until_hours, side="right"))
        self._pos = hi
        a_times = trace_.arrivals[lo:hi]
        r_times = a_times + trace_.durations[lo:hi]
        c_hi = int(np.searchsorted(self._pend_times, until_hours,
                                   side="right"))
        c_times = self._pend_times[:c_hi]
        c_boards = self._pend_boards[:c_hi]
        self._pend_times = self._pend_times[c_hi:]
        self._pend_boards = self._pend_boards[c_hi:]
        e0 = self.events_processed
        d0 = self.dropped_arrivals
        _empty = np.empty(0, dtype=np.float64)
        n_arr = len(a_times)
        if n_arr == 0 and len(c_times) == 0:
            if self._recorder is not None:
                self._emit_grids(until_hours, _empty, _empty,
                                 len(self.stack), e0, d0, _empty)
            self.now_hours = until_hours
            return

        stack_boards = np.asarray(self.stack, dtype=np.intp)
        f0 = len(stack_boards)
        nc = len(c_times)
        keep = np.ones(n_arr, dtype=bool)
        ts, ks, rs, pm, fill, f_before = _order_window(
            c_times, a_times, r_times, keep, until_hours, f0)
        bad = np.nonzero((ks == 1) & (f_before == 0))[0]
        if len(bad):
            # Capacity misses: fix the drop set with one count-only walk,
            # then order the surviving events once more.
            keep = _resolve_drops(c_times, a_times, r_times,
                                  int(rs[bad[0]]))
            ts, ks, rs, pm, fill, f_before = _order_window(
                c_times, a_times, r_times, keep, until_hours, f0)
            if ((ks == 1) & (f_before == 0)).any():
                raise CloudError("bulk churn invariant violated: "
                                 "capacity miss after drop resolution")
        drops = n_arr - int(np.count_nonzero(keep))
        self.dropped_arrivals += drops
        drop_times = a_times[~keep]

        n_ev = len(ts)
        self.events_processed += n_ev + drops
        n_rel = int(np.count_nonzero(ks == 0)) if n_ev else 0
        _inc_churn_counters(
            n_ev + drops, n_ev - n_rel, n_rel, drops
        )
        if n_ev == 0:
            if self._recorder is not None:
                self._emit_grids(until_hours, _empty, _empty,
                                 f0, e0, d0, drop_times)
            self.now_hours = until_hours
            return

        # Boundary touched by each event, and time-stable boundary groups.
        b = np.where(ks == 0, f_before, f_before - 1)
        g_order = np.argsort(b, kind="stable")
        gb = b[g_order]
        same = np.empty(n_ev, dtype=bool)
        same[0] = False
        same[1:] = gb[1:] == gb[:-1]
        idx = np.nonzero(same)[0]
        if (ks[g_order[idx]] == ks[g_order[idx - 1]]).any():
            raise CloudError("bulk churn invariant violated: "
                             "non-alternating boundary group")
        prev_stream = np.full(n_ev, -1, dtype=np.int64)
        prev_stream[g_order[idx]] = g_order[idx - 1]

        # Each arrival's board: the preceding release in its group, or
        # the pre-window stack at its boundary.
        arr_pos = np.nonzero(ks == 1)[0]
        arr_idx = rs[arr_pos]
        n_live = len(arr_pos)
        dense = np.full(n_arr, -1, dtype=np.int64)
        dense[arr_idx] = np.arange(n_live)
        parent = np.full(n_live, -1, dtype=np.int64)
        board = np.full(n_live, -1, dtype=np.intp)
        p_stream = prev_stream[arr_pos]
        no_prev = p_stream < 0
        board[no_prev] = stack_boards[b[arr_pos[no_prev]]]
        wi = np.nonzero(~no_prev)[0]
        rel_ref = rs[p_stream[wi]]
        carry = rel_ref < 0
        board[wi[carry]] = c_boards[rel_ref[carry] + nc]
        parent[wi[~carry]] = dense[rel_ref[~carry]]

        # Pointer-doubling resolution of arrival -> parent-arrival chains.
        resolved = board >= 0
        ptr = parent
        while not resolved.all():
            u = np.nonzero(~resolved)[0]
            tgt = ptr[u]
            if (tgt < 0).any():
                raise CloudError("bulk churn invariant violated: "
                                 "unresolvable arrival chain")
            take = resolved[tgt]
            hit = u[take]
            board[hit] = board[tgt[take]]
            resolved[hit] = True
            miss = u[~take]
            ptr[miss] = ptr[tgt[~take]]

        # Post-window stack: each surviving boundary's last event must
        # be a release; untouched positions keep their old board.
        f_final = f0 + int(pm.sum())
        last_mask = np.empty(n_ev, dtype=bool)
        last_mask[:-1] = gb[:-1] != gb[1:]
        last_mask[-1] = True
        last_stream = g_order[last_mask]
        last_b = gb[last_mask]
        surv = last_b < f_final
        if f_final <= f0:
            new_stack = stack_boards[:f_final].copy()
        else:
            new_stack = np.concatenate([
                stack_boards,
                np.full(f_final - f0, -1, dtype=np.intp),
            ])
        surv_stream = last_stream[surv]
        if (ks[surv_stream] != 0).any():
            raise CloudError("bulk churn invariant violated: "
                             "surviving boundary ends in an arrival")
        srefs = rs[surv_stream]
        sboards = np.empty(len(srefs), dtype=np.intp)
        sc = srefs < 0
        sboards[sc] = c_boards[srefs[sc] + nc]
        sboards[~sc] = board[dense[srefs[~sc]]]
        new_stack[last_b[surv]] = sboards
        if len(new_stack) and (new_stack < 0).any():
            raise CloudError("bulk churn invariant violated: "
                             "unfilled stack slot")

        # Rentals that outlive the window carry their (now resolved)
        # boards forward as pending releases.
        future = np.nonzero(keep & (r_times > until_hours))[0]
        if len(future):
            f_boards = board[dense[future]]
            times = np.concatenate([self._pend_times, r_times[future]])
            boards_ = np.concatenate([self._pend_boards, f_boards])
            o = np.argsort(times, kind="stable")
            self._pend_times = times[o]
            self._pend_boards = boards_[o]

        if self._recorder is not None:
            self._emit_grids(until_hours, ts, fill, f0, e0, d0, drop_times)
        self.stack = new_stack.tolist()
        self.now_hours = until_hours

    def rent(self) -> Optional[int]:
        return self.stack.pop() if self.stack else None

    def release(self, board: int) -> None:
        self.stack.append(board)

    def available(self) -> int:
        return len(self.stack)

    def free_boards(self) -> list[int]:
        return list(self.stack)


class VirtualRegion:
    """A fleet-sized region: board ids against a pre-drawn churn trace.

    Tracked tenancies (victims, attackers) rent and release through
    this object directly; background churn replays through the bulk
    engine whenever the clock advances.  ``batch_hours`` caps the
    window size -- results are identical for any batching, which the
    campaign reproducibility test pins.
    """

    def __init__(
        self,
        boards: int,
        trace_: ChurnTrace,
        batch_hours: float = math.inf,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        if boards <= 0:
            raise ConfigurationError("a region needs at least one board")
        if batch_hours <= 0.0:
            raise ConfigurationError("batch_hours must be positive")
        self._engine = _BulkChurn(boards, trace_, recorder=recorder)
        self.boards = boards
        self.batch_hours = float(batch_hours)
        self.recorder = recorder

    @property
    def now_hours(self) -> float:
        return self._engine.now_hours

    @property
    def events_processed(self) -> int:
        return self._engine.events_processed

    @property
    def dropped_arrivals(self) -> int:
        return self._engine.dropped_arrivals

    def advance_to(self, until_hours: float) -> None:
        """Replay churn up to ``until_hours`` in batch-sized windows."""
        now = self._engine.now_hours
        if until_hours < now:
            raise CloudError("cannot advance a region backwards")
        while now < until_hours:
            now = min(now + self.batch_hours, until_hours)
            self._engine.advance_to(now)

    def rent(self) -> Optional[int]:
        """Pop the most recently freed board (LIFO), or ``None``."""
        return self._engine.rent()

    def release(self, board: int) -> None:
        """Return a board to the top of the free stack."""
        self._engine.release(board)

    def available(self) -> int:
        return self._engine.available()

    def free_boards(self) -> list[int]:
        """The free stack, bottom to top (equivalence tests)."""
        return self._engine.free_boards()

    def retire_free(self, positions: Sequence[int]) -> list[int]:
        """Permanently remove free-stack entries by position.

        ``positions`` index :meth:`free_boards` bottom-to-top and must
        arrive descending so each pop leaves lower positions valid
        (:meth:`FaultPlan.retire_positions` returns them that
        way).  Retirement is a hard failure, not a rental: the region's
        board count shrinks, so the in-flight series
        (``n_boards - fill``) stays truthful.  Returns the retired
        board ids.
        """
        stack = self._engine.stack
        removed = []
        for pos in positions:
            if not 0 <= int(pos) < len(stack):
                raise CloudError(
                    f"cannot retire free-stack position {pos}: only "
                    f"{len(stack)} boards are free"
                )
            removed.append(stack.pop(int(pos)))
        self._engine.n_boards -= len(removed)
        self.boards -= len(removed)
        return removed


# ---------------------------------------------------------------------------
# Lazy board materialisation
# ---------------------------------------------------------------------------


class LazyFleet:
    """Board ids that become real ``FpgaDevice`` objects on first touch.

    Per-board seeds are pre-drawn in one vectorised pass, so board ``k``
    gets the same silicon no matter how many (or in what order) boards
    materialise -- a campaign's physics is independent of how churn is
    batched.  Every board shares one
    :class:`~repro.physics.pool_array.SegmentBtiArray` so cross-device
    bulk catch-up stays available.
    """

    def __init__(
        self,
        part: PartDescriptor = VIRTEX_ULTRASCALE_PLUS,
        size: int = 1024,
        wear: WearProfile = CLOUD_PART,
        seed: SeedLike = None,
    ) -> None:
        if size <= 0:
            raise ConfigurationError("fleet size must be positive")
        self.part = part
        self.size = size
        self.wear = wear
        self._seeds = make_rng(seed).integers(0, 2**63, size=size)
        self._store = SegmentBtiArray()
        self._devices: dict[int, FpgaDevice] = {}

    def __len__(self) -> int:
        return self.size

    @property
    def materialised(self) -> int:
        """How many boards have been instantiated so far."""
        return len(self._devices)

    def device(self, board: int) -> FpgaDevice:
        """The real device behind a board id (materialising it)."""
        if not 0 <= board < self.size:
            raise CloudError(f"board {board} outside fleet of {self.size}")
        dev = self._devices.get(board)
        if dev is None:
            dev = FpgaDevice(
                self.part, wear=self.wear,
                seed=int(self._seeds[board]),
                bti_store=self._store,
            )
            self._devices[board] = dev
        return dev


# ---------------------------------------------------------------------------
# The simulator: fleet + churn + event loop + probe kit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetScenario:
    """Everything a campaign needs to be reproducible from one seed."""

    devices: int = 1024
    horizon_hours: float = 24.0 * 14
    churn: ChurnModel = field(default_factory=ChurnModel)
    part: PartDescriptor = VIRTEX_ULTRASCALE_PLUS
    wear: WearProfile = CLOUD_PART
    routes: int = 8
    route_length_ps: float = 10000.0
    thermal_tick_hours: float = 6.0
    probe_resolution_ps: float = 0.25
    accuracy_threshold: float = 0.75
    seed: int = 1
    batch_hours: float = math.inf


class _RegionClock:
    """Adapts a :class:`VirtualRegion` to the event-loop clock protocol."""

    def __init__(self, region: VirtualRegion) -> None:
        self._region = region

    @property
    def clock_hours(self) -> float:
        return self._region.now_hours

    def advance(self, hours: float) -> None:
        self._region.advance_to(self._region.now_hours + hours)


class FleetSimulator:
    """Shared campaign harness.

    Owns the churn region, the lazy fleet, the route bank the victims
    burn their secrets onto, and the per-board thermal clocks.  All
    randomness comes from named :class:`~repro.rng.RngFactory` streams
    of the scenario seed, so swapping the churn engine (the bulk one or
    the per-event oracle) or the batch size never perturbs a draw.
    """

    def __init__(self, scenario: FleetScenario,
                 recorder: Optional[FlightRecorder] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.scenario = scenario
        self.recorder = recorder
        # A fresh copy keeps the caller's plan unconsumed: every run
        # starts from pristine RNG streams and an empty ledger, so the
        # same plan object can drive reference and bulk runs to the
        # same bytes.
        self.faults = (
            fault_plan.reseeded(fault_plan.seed)
            if fault_plan is not None else None
        )
        factory = RngFactory(scenario.seed)
        self.rng = factory.stream("campaign")
        self.churn_trace = scenario.churn.draw(
            scenario.horizon_hours, factory.stream("churn")
        )
        if self.faults is not None:
            # Churn-level faults are one pure array transform on the
            # pre-drawn trace -- applied before any engine exists,
            # which is what makes them engine- and batch-invariant.
            arrivals, durations, dropped, truncated = (
                self.faults.transform_churn(
                    self.churn_trace.arrivals,
                    self.churn_trace.durations,
                    min_rental_hours=_MIN_RENTAL_HOURS,
                )
            )
            if dropped or truncated:
                self.churn_trace = ChurnTrace(
                    arrivals=arrivals, durations=durations
                )
                _log.event("fleet.churn_faulted", dropped=dropped,
                           truncated=truncated)
        self.region = VirtualRegion(
            scenario.devices, self.churn_trace,
            batch_hours=scenario.batch_hours,
            recorder=recorder,
        )
        self.fleet = LazyFleet(
            scenario.part, scenario.devices, wear=scenario.wear,
            seed=factory.stream("fleet"),
        )
        base_ambient = DataCenterAmbient(seed=factory.stream("ambient"))
        self.ambient = (
            self.faults.wrap_ambient(base_ambient)
            if self.faults is not None else base_ambient
        )
        self.routes = build_route_bank(
            scenario.part.make_grid(),
            [scenario.route_length_ps] * scenario.routes,
        )
        # Flattened and de-duplicated once: every probe reads this bank.
        self._bank = RouteRequest(self.routes)
        self.loop = EventLoop(_RegionClock(self.region),
                              recorder=recorder)
        self._synced: dict[int, float] = {}
        self.failed_wipes = 0
        self.partial_wipes = 0
        self.preempted = 0
        self.retired_boards = 0
        self.rent_retries = 0
        if recorder is not None:
            recorder.add_probe(
                SERIES_AGING_DEBT, self._aging_debt_at,
                help="hours of deferred aging replay outstanding "
                     "across tracked boards",
            )
            recorder.record_origin(scenario.devices)

    # -- fault telemetry ---------------------------------------------------

    def note_fault(self, site: str, now_hours: float, **attrs) -> None:
        """One fleet fault landed: counters, instant span, series."""
        note_fault(site, hours=round(now_hours, 6), **attrs)
        if self.recorder is not None:
            self.recorder.sample_rate(
                SERIES_FAULTS, now_hours, self.faults.total_fires,
                help="cumulative fleet faults injected by the plan",
            )

    def sample_wipe_faults(self, now_hours: float) -> None:
        """Update the failed/partial-wipe series after a wipe fault."""
        if self.recorder is not None:
            self.recorder.sample_rate(
                SERIES_FAILED_WIPES, now_hours,
                self.failed_wipes + self.partial_wipes,
                help="cumulative releases whose wipe failed or was "
                     "partial",
            )

    # -- aging debt --------------------------------------------------------

    def _aging_debt_at(self, now_hours: float) -> float:
        """Deferred-replay debt at ``now_hours``: the hours of history
        the lazy-aging layer still owes the tracked boards (untracked
        boards carry no analog state, so they owe nothing)."""
        synced = self._synced
        return max(0.0, len(synced) * now_hours - sum(synced.values()))

    def aging_debt_hours(self) -> float:
        """Outstanding aging debt at the current sim clock."""
        return self._aging_debt_at(self.loop.now_hours)

    # -- board thermal clocks ---------------------------------------------

    def _tick_intervals(
        self, t0: float, t1: float
    ) -> list[tuple[float, float, float]]:
        """(start, duration, ambient) intervals over deterministic tick
        boundaries -- identical for any churn batching, since every
        window sees the same tracked event times."""
        if t1 <= t0:
            return []
        tick = self.scenario.thermal_tick_hours
        out = []
        t = t0
        boundary = math.floor(t0 / tick) * tick + tick
        while boundary < t1:
            out.append((t, boundary - t, self.ambient.at(t)))
            t = boundary
            boundary += tick
        out.append((t, t1 - t, self.ambient.at(t)))
        return out

    def sync_boards(
        self, boards: Sequence[int], now_hours: float
    ) -> list[FpgaDevice]:
        """Materialise boards and integrate their histories up to now.

        A board touched for the first time has no analog state, so its
        idle past is one interval from hour 0; thereafter it replays
        over thermal-tick intervals.  Boards holding a design (a failed
        wipe leaves one loaded) replay theirs one by one; the idle ones
        catch up together (:meth:`FpgaDevice.catch_up_idle`), one store
        update per distinct interval across the batch.
        """
        devices = []
        idle = []
        first_touch = []
        for board in boards:
            dev = self.fleet.device(board)
            last = self._synced.get(board)
            if last is None:
                intervals = (
                    [(0.0, now_hours, self.ambient.at(0.0))]
                    if now_hours > 0.0 else []
                )
                first_touch.append(dev)
            else:
                intervals = self._tick_intervals(last, now_hours)
            if dev.loaded_design is None:
                idle.append((dev, intervals))
            else:
                for _, duration, ambient_k in intervals:
                    dev.advance_hours(duration, ambient_k)
            self._synced[board] = now_hours
            devices.append(dev)
        FpgaDevice.catch_up_idle(idle)
        if first_touch:
            ambient_k = self.ambient.at(now_hours)
            for dev in first_touch:
                dev.set_ambient(ambient_k)
        return devices

    def sync_board(self, board: int, now_hours: float) -> FpgaDevice:
        """:meth:`sync_boards` for one board."""
        return self.sync_boards((board,), now_hours)[0]

    # -- probing -----------------------------------------------------------

    def probe(self, boards: Sequence[int], now_hours: float) -> list[dict]:
        """Read every route's remanent delta on each of a rented batch.

        The batch is one pass: one catch-up (:meth:`sync_boards`), then
        one cross-device read of the route bank
        (:meth:`FpgaDevice.read_route_deltas`), so every board's new
        segments materialise in one request.  A route is *readable*
        when the delta clears the probe resolution; the inferred bit is
        the delta's sign (a burned-in ``1`` slows the route, see the
        integration suite).
        """
        devices = self.sync_boards(boards, now_hours)
        resolution = self.scenario.probe_resolution_ps
        return [
            {
                "board": board,
                "deltas_ps": deltas,
                "bits": [1 if d > 0.0 else 0 for d in deltas],
                "readable": [abs(d) >= resolution for d in deltas],
            }
            for board, deltas in zip(
                boards, FpgaDevice.read_route_deltas(devices, self._bank)
            )
        ]

    def accuracy(self, probe: dict, secret: tuple) -> float:
        """Fraction of secret bits recovered (readable and correct)."""
        hits = sum(
            1
            for bit, ok, want in zip(
                probe["bits"], probe["readable"], secret
            )
            if ok and bit == want
        )
        return hits / len(secret)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlashAttackPlan:
    """A re-acquisition race: grab boards the instant a victim leaves."""

    victims: int = 4
    burn_hours: float = 48.0
    reaction_hours: float = 0.5
    flash_limit: int = 8
    spacing_hours: float = 24.0
    warmup_hours: float = 12.0


@dataclass(frozen=True)
class ScanPlan:
    """Marketplace scanning: periodically sample the pool for pentimenti."""

    victims: int = 3
    burn_hours: float = 48.0
    spacing_hours: float = 36.0
    warmup_hours: float = 12.0
    scan_every_hours: float = 8.0
    scan_width: int = 6


@dataclass
class CampaignResult:
    """Fleet-level outcome of one attacker campaign.

    The fault fields are always present (all zero / ``ok`` without a
    plan) so downstream consumers see one stable schema;
    ``region_status`` is the graceful-degradation surface -- a
    campaign whose region went dark reports partial yield here instead
    of dying.
    """

    kind: str
    victims_attempted: int
    victims_skipped: int
    recovered: int
    recovery_yield: float
    mean_accuracy: float
    boards_probed: int
    lifecycle_events: int
    tracked_events: int
    dropped_arrivals: int
    details: list = field(default_factory=list)
    failed_wipes: int = 0
    partial_wipes: int = 0
    preempted: int = 0
    retired_boards: int = 0
    rent_retries: int = 0
    faults: dict = field(default_factory=dict)
    region_status: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "victims_attempted": self.victims_attempted,
            "victims_skipped": self.victims_skipped,
            "recovered": self.recovered,
            "recovery_yield": self.recovery_yield,
            "mean_accuracy": self.mean_accuracy,
            "boards_probed": self.boards_probed,
            "lifecycle_events": self.lifecycle_events,
            "tracked_events": self.tracked_events,
            "dropped_arrivals": self.dropped_arrivals,
            "details": self.details,
            "failed_wipes": self.failed_wipes,
            "partial_wipes": self.partial_wipes,
            "preempted": self.preempted,
            "retired_boards": self.retired_boards,
            "rent_retries": self.rent_retries,
            "faults": self.faults,
            "region_status": self.region_status,
        }


class _Victim:
    """One victim tenancy's mutable campaign state."""

    def __init__(self, index: int, secret: tuple) -> None:
        self.index = index
        self.secret = secret
        self.board: Optional[int] = None
        self.released_at: Optional[float] = None
        self.skipped = False
        self.skip_reason: Optional[str] = None
        self.recovered = False
        self.accuracy = 0.0
        self.preempted = False
        self.wipe_mode = "ok"


class _Campaign:
    """The one campaign driver behind the flash race and the scan.

    Both campaigns stage the same victims: secrets drawn from the
    campaign stream, victim ``i`` renting at ``warmup_hours + i *
    (burn_hours + spacing_hours)`` and releasing ``burn_hours`` later.
    Both queue the fault plan's storms and retirements, sample the
    attacker's series after every attacker action and tally the same
    :class:`CampaignResult`.  They differ only in the attacker's
    scheduled action (:meth:`_flash`, :meth:`_scan`); ``released`` maps
    each board a victim left to that victim, which is how a scan
    recognises the boards it lands on.
    """

    def __init__(self, kind: str, scenario: FleetScenario, plan,
                 recorder: Optional[FlightRecorder],
                 fault_plan: Optional[FaultPlan]) -> None:
        self.kind = kind
        self.plan = plan
        self.sim = sim = FleetSimulator(scenario, recorder=recorder,
                                        fault_plan=fault_plan)
        self.victims = [
            _Victim(i, tuple(int(b) for b in sim.rng.integers(
                0, 2, size=scenario.routes
            )))
            for i in range(plan.victims)
        ]
        self.released: dict[int, _Victim] = {}
        self.details: list = []
        self.probed = 0

    def run(self) -> CampaignResult:
        """Schedule every tenancy, attacker action and fault event, run
        the loop to the horizon and tally the result."""
        sim, plan = self.sim, self.plan
        horizon = sim.scenario.horizon_hours
        with trace.phase("fleet.campaign", kind=self.kind,
                         total=plan.victims, devices=sim.scenario.devices,
                         sim_total_hours=horizon):
            for victim in self.victims:
                start = plan.warmup_hours + victim.index * (
                    plan.burn_hours + plan.spacing_hours
                )
                end = start + plan.burn_hours
                sim.loop.schedule(start, EventKind.RENT,
                                  self._rent(victim, deadline_hours=end))
                sim.loop.schedule(end, EventKind.RELEASE,
                                  self._release(victim))
                if self.kind == "flash":
                    sim.loop.schedule(end + plan.reaction_hours,
                                      EventKind.SCAN, self._flash(victim))
            if self.kind == "scan":
                t = plan.warmup_hours
                while t < horizon:
                    sim.loop.schedule(t, EventKind.SCAN, self._scan)
                    t += plan.scan_every_hours
            self._schedule_faults()
            sim.loop.run(until_hours=horizon)
        return self._finish()

    # -- victims -----------------------------------------------------------

    def _rent(self, victim: _Victim, deadline_hours: float):
        """RENT handler: take a board and burn the secret onto it.

        Under a fault plan a refused rent -- the region is inside an
        outage window, or the pool is empty -- requeues itself with the
        active :class:`~repro.reliability.retry.RetryPolicy` backoff
        (denominated in simulated hours) until the attempt budget or the
        victim's release ``deadline_hours`` runs out; without a plan a
        miss skips the victim immediately.
        """
        sim = self.sim

        def handler(loop: EventLoop, event) -> None:
            now = loop.now_hours
            plan = sim.faults
            attempt = int(event.data.get("attempt", 1))
            blocked = plan is not None and plan.in_outage(now)
            board = None if blocked else sim.region.rent()
            if board is None:
                if blocked:
                    plan.note_fire("fleet.outage")
                    sim.note_fault("fleet.outage", now, victim=victim.index,
                                   attempt=attempt)
                else:
                    _log.event("fleet.capacity_miss", victim=victim.index)
                if plan is not None:
                    policy = get_retry_policy()
                    label = f"fleet.rent#victim{victim.index}"
                    delay_hours = policy.delay_s(attempt, label)
                    retry_at = now + delay_hours
                    if (attempt < policy.max_attempts
                            and retry_at < deadline_hours):
                        sim.rent_retries += 1
                        note_retry(
                            label, attempt, delay_hours,
                            CapacityError(
                                "region dark" if blocked else "pool empty"
                            ),
                            unit="h",
                        )
                        loop.schedule(retry_at, EventKind.RENT, handler,
                                      attempt=attempt + 1)
                        return
                victim.skipped = True
                victim.skip_reason = "outage" if blocked else "capacity"
                return
            victim.board = board
            dev = sim.sync_board(board, now)
            if dev.loaded_design is not None:
                # A failed wipe left the previous tenant's design
                # resident; loading the new tenant's bitstream overwrites
                # it (the configuration write is what finally clears the
                # fabric).
                dev.wipe()
            target = build_target_design(
                sim.scenario.part, sim.routes, list(victim.secret),
                heater_dsps=0, name=f"victim{victim.index}",
            )
            dev.load(target.bitstream)

        return handler

    def _release_board(self, victim: _Victim, now_hours: float) -> None:
        """Integrate the burn, wipe (maybe imperfectly), return the board.

        The wipe outcome comes from the plan's ``fleet.wipe#victim<i>``
        stream -- keyed to the victim, not the engine's iteration order
        -- so every engine/batch combination resolves the same release
        the same way: a *failed* wipe leaves the victim design resident,
        a *partial* wipe clears the fabric but re-imprints the unscrubbed
        routes as a residue design.
        """
        sim = self.sim
        dev = sim.sync_board(victim.board, now_hours)
        plan = sim.faults
        mode, scrubbed = "ok", None
        if plan is not None and plan.wipe is not None:
            mode, scrubbed = plan.decide_wipe(
                f"victim{victim.index}", sim.scenario.routes
            )
        if mode == "failed":
            victim.wipe_mode = "failed"
            sim.failed_wipes += 1
            sim.note_fault("fleet.wipe_fail", now_hours, victim=victim.index)
            sim.sample_wipe_faults(now_hours)
        elif mode == "partial":
            dev.wipe()
            residue_routes = [
                route for route, clean in zip(sim.routes, scrubbed)
                if not clean
            ]
            residue_bits = [
                bit for bit, clean in zip(victim.secret, scrubbed)
                if not clean
            ]
            if residue_routes:
                residue = build_target_design(
                    sim.scenario.part, residue_routes, residue_bits,
                    heater_dsps=0, name=f"victim{victim.index}-residue",
                )
                dev.load(residue.bitstream)
            victim.wipe_mode = "partial"
            sim.partial_wipes += 1
            sim.note_fault("fleet.wipe_partial", now_hours,
                           victim=victim.index,
                           residue_routes=len(residue_routes))
            sim.sample_wipe_faults(now_hours)
        else:
            dev.wipe()
        sim.region.release(victim.board)
        victim.released_at = now_hours
        self.released[victim.board] = victim

    def _release(self, victim: _Victim):
        """RELEASE handler: integrate the burn, wipe, return the board."""

        def handler(loop: EventLoop, event) -> None:
            if victim.skipped:
                return
            if victim.board is None:
                # The rent retried past the tenancy window without ever
                # landing; the victim never ran.
                victim.skipped = True
                victim.skip_reason = victim.skip_reason or "outage"
                return
            if victim.released_at is not None:
                return  # already reclaimed by a preemption storm
            self._release_board(victim, loop.now_hours)
            _log.event("fleet.victim_released", victim=victim.index,
                       board=victim.board)

        return handler

    # -- the attacker ------------------------------------------------------

    def _rent_boards(self, limit: int) -> list[int]:
        """Rent up to ``limit`` boards off the free pool."""
        region = self.sim.region
        return [region.rent() for _ in range(min(limit, region.available()))]

    def _return_boards(self, boards: list[int], now: float) -> None:
        """Zero-hour rentals: probed boards go straight back, then the
        attacker's series are sampled."""
        for board in boards:
            self.sim.region.release(board)
        self.probed += len(boards)
        recorder = self.sim.recorder
        if recorder is not None:
            recorder.sample_rate(
                SERIES_BOARDS_PROBED, now, self.probed,
                help="cumulative boards the attacker has probed",
            )
            recorder.sample(
                SERIES_RECOVERY_YIELD, now,
                sum(1 for v in self.victims if v.recovered)
                / len(self.victims),
                help="fraction of victims recovered so far",
            )

    def _flash(self, victim: _Victim):
        """SCAN handler of the flash race: grab up to ``flash_limit``
        boards ``reaction_hours`` after ``victim`` left and probe them
        all."""
        sim = self.sim

        def handler(loop: EventLoop, event) -> None:
            if victim.skipped or victim.board is None:
                return
            now = loop.now_hours
            boards = self._rent_boards(self.plan.flash_limit)
            probes = sim.probe(boards, now)
            # The attacker harvests a candidate secret from every
            # flashed board (stale pentimenti from earlier tenants are
            # among them); the race is won when the victim's own board
            # was re-acquired and its imprint decodes.
            hit = next(
                (p for p in probes if p["board"] == victim.board), None
            )
            if hit is not None:
                victim.accuracy = sim.accuracy(hit, victim.secret)
                victim.recovered = (
                    victim.accuracy >= sim.scenario.accuracy_threshold
                )
            self.details.append({
                "victim": victim.index,
                "victim_board": victim.board,
                "reacquired": hit is not None,
                "accuracy": victim.accuracy,
                "recovered": victim.recovered,
                "boards_flashed": len(boards),
                "preempted": victim.preempted,
                "wipe_mode": victim.wipe_mode,
            })
            self._return_boards(boards, now)

        return handler

    def _scan(self, loop: EventLoop, event) -> None:
        """SCAN handler of the marketplace scan: probe ``scan_width``
        pool boards, checking each against the victim that left it."""
        sim = self.sim
        now = loop.now_hours
        boards = self._rent_boards(self.plan.scan_width)
        for board, probe in zip(boards, sim.probe(boards, now)):
            victim = self.released.get(board)
            if victim is not None and not victim.recovered:
                accuracy = sim.accuracy(probe, victim.secret)
                victim.accuracy = max(victim.accuracy, accuracy)
                if accuracy >= sim.scenario.accuracy_threshold:
                    victim.recovered = True
                    self.details.append({
                        "victim": victim.index,
                        "board": board,
                        "scan_hours": now,
                        "accuracy": accuracy,
                    })
                    _log.event("fleet.scan_hit", victim=victim.index,
                               board=board)
        self._return_boards(boards, now)

    # -- faults and the tally ----------------------------------------------

    def _schedule_faults(self) -> None:
        """Queue the plan's storm and retirement events on the loop."""
        sim = self.sim
        plan = sim.faults
        if plan is None:
            return
        horizon = sim.scenario.horizon_hours

        def storm_handler(storm_index: int):
            def handler(loop: EventLoop, event) -> None:
                now = loop.now_hours
                for victim in self.victims:
                    if (victim.skipped or victim.board is None
                            or victim.released_at is not None):
                        continue
                    if not plan.storm_preempts(
                        storm_index, f"victim{victim.index}"
                    ):
                        continue
                    self._release_board(victim, now)
                    victim.preempted = True
                    sim.preempted += 1
                    plan.note_fire("fleet.preempt")
                    sim.note_fault("fleet.preempt", now,
                                   victim=victim.index, storm=storm_index)

            return handler

        def retire_handler(wave_index: int, boards: int):
            def handler(loop: EventLoop, event) -> None:
                now = loop.now_hours
                available = sim.region.available()
                positions = plan.retire_positions(
                    wave_index, available, boards
                )
                if not positions:
                    return
                retired = sim.region.retire_free(positions)
                for board in retired:
                    # Retired silicon ages no further; forgetting it
                    # keeps the aging-debt series truthful.
                    sim._synced.pop(board, None)
                sim.retired_boards += len(retired)
                plan.note_fire("fleet.retire", len(retired))
                sim.note_fault("fleet.retire", now, wave=wave_index,
                               boards=len(retired))

            return handler

        for index, storm in enumerate(plan.storms):
            if storm.start_hours <= horizon:
                sim.loop.schedule(storm.start_hours, EventKind.PREEMPT,
                                  storm_handler(index), storm=index)
        for index, wave in enumerate(plan.retirements):
            if wave.time_hours <= horizon:
                sim.loop.schedule(wave.time_hours, EventKind.RETIRE,
                                  retire_handler(index, wave.boards),
                                  wave=index)

    def _region_status(self) -> dict:
        """Per-region health map: the graceful-degradation surface.

        ``ok`` when nothing went wrong, ``degraded`` after any outage,
        retirement or preemption, ``dark`` when an outage window is
        still open at the campaign horizon -- the region never came
        back, and the campaign reports whatever partial yield it
        achieved instead of dying.
        """
        sim = self.sim
        plan = sim.faults
        horizon = sim.scenario.horizon_hours
        outage_hours = (
            plan.outage_hours_within(horizon) if plan is not None else 0.0
        )
        status = "ok"
        if plan is not None and plan.in_outage(horizon):
            status = "dark"
        elif outage_hours > 0.0 or sim.retired_boards or sim.preempted:
            status = "degraded"
        return {
            "r0": {
                "boards": sim.scenario.devices - sim.retired_boards,
                "retired": sim.retired_boards,
                "outage_hours": outage_hours,
                "status": status,
                "victims_skipped": sum(1 for v in self.victims if v.skipped),
            }
        }

    def _finish(self) -> CampaignResult:
        sim = self.sim
        attempted = [v for v in self.victims if not v.skipped]
        recovered = sum(1 for v in attempted if v.recovered)
        mean_acc = (
            sum(v.accuracy for v in attempted) / len(attempted)
            if attempted else 0.0
        )
        result = CampaignResult(
            kind=self.kind,
            victims_attempted=len(attempted),
            victims_skipped=len(self.victims) - len(attempted),
            recovered=recovered,
            recovery_yield=recovered / len(attempted) if attempted else 0.0,
            mean_accuracy=mean_acc,
            boards_probed=self.probed,
            lifecycle_events=sim.region.events_processed,
            tracked_events=sim.loop.events_processed,
            dropped_arrivals=sim.region.dropped_arrivals,
            details=self.details,
            failed_wipes=sim.failed_wipes,
            partial_wipes=sim.partial_wipes,
            preempted=sim.preempted,
            retired_boards=sim.retired_boards,
            rent_retries=sim.rent_retries,
            faults=sim.faults.ledger() if sim.faults is not None else {},
            region_status=self._region_status(),
        )
        _log.event("fleet.campaign_done", campaign=self.kind,
                   recovery_yield=result.recovery_yield)
        return result


def run_flash_campaign(
    scenario: FleetScenario,
    plan: Optional[FlashAttackPlan] = None,
    recorder: Optional[FlightRecorder] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> CampaignResult:
    """A flash re-acquisition race over a churning fleet.

    Each victim burns its secret for ``burn_hours``; the attacker
    reacts ``reaction_hours`` after the release, renting up to
    ``flash_limit`` boards, probing all of them, and keeping the one
    with the most readable routes.  A victim counts as recovered when
    the attacker's best board *is* the victim's board and the read
    accuracy clears the scenario threshold.

    ``fault_plan`` injects deterministic provider chaos (failed wipes,
    outages, storms, retirement, thermal excursions); results stay
    bit-identical across churn engines and batch sizes under any plan.
    """
    return _Campaign("flash", scenario, plan or FlashAttackPlan(),
                     recorder, fault_plan).run()


def run_scan_campaign(
    scenario: FleetScenario,
    plan: Optional[ScanPlan] = None,
    recorder: Optional[FlightRecorder] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> CampaignResult:
    """Marketplace scanning: periodic pool sampling for pentimenti.

    The attacker rents ``scan_width`` boards every
    ``scan_every_hours``, probes them, and releases them immediately.
    A victim is recovered when any post-release scan lands on their
    board and reads the secret above the accuracy threshold.

    ``fault_plan`` injects deterministic provider chaos exactly as in
    :func:`run_flash_campaign`.
    """
    return _Campaign("scan", scenario, plan or ScanPlan(),
                     recorder, fault_plan).run()


# ---------------------------------------------------------------------------
# Multi-seed campaign sweeps with checkpoint/resume
# ---------------------------------------------------------------------------


#: Campaign dispatch for sweeps (module-level so tests can substitute a
#: crashing runner to exercise kill-and-resume).
_CAMPAIGN_RUNNERS = {
    "flash": run_flash_campaign,
    "scan": run_scan_campaign,
}


@dataclass
class FleetSweepResult:
    """Aggregate outcome of a multi-seed fleet campaign sweep."""

    campaign: str
    seeds: list
    results: list
    mean_yield: float
    resumed_seeds: int = 0

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "seeds": self.seeds,
            "mean_recovery_yield": self.mean_yield,
            "results": self.results,
        }


def fleet_journal_context(
    scenario: FleetScenario,
    campaign: str,
    attack_plan=None,
    fault_plan: Optional[FaultPlan] = None,
) -> dict:
    """The sweep identity a campaign journal is verified against.

    Batch size is deliberately *excluded*: campaign results are pinned
    batch-invariant, so a journal written under one window size may
    legitimately resume under another (and must produce the same
    bytes).  The seed list is excluded too, so a partial run resumes
    under a superset of seeds.
    """
    plan_payload = None
    if attack_plan is not None:
        plan_payload = {
            name: getattr(attack_plan, name)
            for name in sorted(attack_plan.__dataclass_fields__)
        }
    return {
        "kind": "fleet_sweep",
        "campaign": str(campaign),
        "devices": scenario.devices,
        "horizon_hours": scenario.horizon_hours,
        "arrival_rate_per_hour": scenario.churn.arrival_rate_per_hour,
        "mean_rental_hours": scenario.churn.mean_rental_hours,
        "part": scenario.part.name,
        "wear": scenario.wear.name,
        "routes": scenario.routes,
        "route_length_ps": scenario.route_length_ps,
        "thermal_tick_hours": scenario.thermal_tick_hours,
        "probe_resolution_ps": scenario.probe_resolution_ps,
        "accuracy_threshold": scenario.accuracy_threshold,
        "attack_plan": plan_payload,
        "fault_plan": (
            fault_plan.to_dict() if fault_plan is not None else None
        ),
    }


def run_fleet_sweep(
    scenario: FleetScenario,
    seeds: Sequence[int],
    campaign: str = "flash",
    attack_plan=None,
    fault_plan: Optional[FaultPlan] = None,
    journal=None,
    recorder: Optional[FlightRecorder] = None,
) -> FleetSweepResult:
    """Run one campaign per seed, optionally journaled for resume.

    Each seed is one evaluation of the shared seed loop,
    :func:`repro.montecarlo.run_monte_carlo`: its value is the
    campaign's recovery yield and its payload ``{"result": ...,
    "series_state": ...}`` the full campaign result plus (when
    recording) the seed's FlightRecorder dump.  With a
    :class:`~repro.reliability.checkpoint.SweepJournal` that payload is
    journaled with the seed's metrics delta, and a killed run relaunched
    with the same journal replays completed seeds from disk.  The series
    merge into ``recorder`` in seed order after the loop; because
    per-seed dumps carry their original ``dump_id``s, the resumed run's
    result, counters and series match an uninterrupted run bit-for-bit.

    Per-seed fault plans derive from ``fault_plan.seed`` and the
    campaign seed (:func:`~repro.reliability.faults.derive_plan_seed`),
    so fault streams decorrelate across seeds yet the whole sweep stays
    reproducible from the pair.
    """
    from repro.montecarlo import run_monte_carlo

    try:
        runner = _CAMPAIGN_RUNNERS[campaign]
    except KeyError:
        raise ConfigurationError(
            f"unknown fleet campaign {campaign!r} (expected one of: "
            f"{', '.join(sorted(_CAMPAIGN_RUNNERS))})"
        ) from None
    seeds = [int(seed) for seed in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(
            f"sweep seeds must be unique, got {seeds}"
        )

    def campaign_yield(seed: int) -> tuple[float, dict]:
        seed_plan = None
        if fault_plan is not None:
            seed_plan = fault_plan.reseeded(
                derive_plan_seed(fault_plan.seed, seed)
            )
        seed_recorder = None
        if recorder is not None:
            seed_recorder = FlightRecorder(
                cadence_hours=recorder.cadence_hours,
                max_points=recorder.max_points,
            )
        result = runner(replace(scenario, seed=seed), attack_plan,
                        recorder=seed_recorder, fault_plan=seed_plan)
        payload = {"result": result.to_dict()}
        if seed_recorder is not None:
            payload["series_state"] = seed_recorder.dump_state()
        return result.recovery_yield, payload

    resumed = 0
    if journal is not None:
        resumed = sum(seed in journal for seed in seeds)
    sweep = run_monte_carlo(
        campaign_yield, seeds, metric_name=f"{campaign} recovery yield",
        journal=journal,
    )
    if recorder is not None:
        # A journal written without a recorder holds no series.
        for payload in sweep.payloads:
            if "series_state" in payload:
                recorder.merge_state(payload["series_state"])
    return FleetSweepResult(
        campaign=campaign,
        seeds=seeds,
        results=[payload["result"] for payload in sweep.payloads],
        mean_yield=sum(sweep.values) / len(seeds),
        resumed_seeds=resumed,
    )


# ---------------------------------------------------------------------------
# Throughput benchmark entry point
# ---------------------------------------------------------------------------


def run_churn_benchmark(
    devices: int = 100_000,
    arrivals: int = 500_000,
    seed: int = 0,
    batch_hours: float = math.inf,
    arrival_rate_per_hour: float = 60.0,
    mean_rental_hours: Optional[float] = None,
    recorder: Optional[FlightRecorder] = None,
) -> dict:
    """Time a pure-churn fleet scenario; the BENCH_fleet workload.

    Mean concurrency is sized to half the fleet so the run is
    drop-free, making the lifecycle event count exactly
    ``2 * arrivals``.
    """
    if mean_rental_hours is None:
        mean_rental_hours = devices / (2.0 * arrival_rate_per_hour)
    model = ChurnModel(
        arrival_rate_per_hour=arrival_rate_per_hour,
        mean_rental_hours=mean_rental_hours,
    )
    trace_ = model.draw_count(arrivals, seed)
    region = VirtualRegion(
        devices, trace_, batch_hours=batch_hours,
        recorder=recorder,
    )
    if recorder is not None:
        recorder.record_origin(devices)
    horizon = float(trace_.arrivals[-1] + trace_.durations.max() + 1.0)
    start = perf_counter()
    region.advance_to(horizon)
    elapsed = perf_counter() - start
    events = region.events_processed
    return {
        "devices": devices,
        "arrivals": arrivals,
        "events": events,
        "dropped_arrivals": region.dropped_arrivals,
        "seconds": elapsed,
        "events_per_second": events / elapsed if elapsed > 0 else 0.0,
        "final_free": region.available(),
    }
