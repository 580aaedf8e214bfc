"""Single-pass span/recovery fold over a run's trace rows.

The observe layer's snapshot (``repro.observe.instrument.observe_run``)
derives histograms and gauges from *intervals*: reconfiguration spans,
batch-item spans, preemption waits, fault recoveries. :class:`TraceFold`
reconstructs them in one pass over the stored rows, in record (= time)
order, so the float sums are accumulated in a fixed order and repeated
snapshots of the same run are bit-identical.

The pairing rules mirror :func:`repro.observe.spans.build_spans` and
:func:`repro.metrics.reliability.recovery_times_ms`:

* ``dpr``: TASK_CONFIG_START closed by TASK_CONFIG_DONE or CONFIG_FAILED;
* ``item``: ITEM_START closed by ITEM_DONE, or killed at SLOT_FAULT on
  the same slot;
* ``wait``: TASK_PREEMPTED (or an eviction edge of SLOT_FAULT) closed by
  TASK_RESUMED;
* ``recovery``: SLOT_FAULT to the slot's next SLOT_REPAIRED, and
  CONFIG_FAILED to the task's next successful TASK_CONFIG_DONE.

Intervals still open when the run ends are closed at the horizon by
:meth:`TraceFold.aggregates` (recoveries contribute nothing, matching
``recovery_times_ms``). ``aggregates`` never mutates the fold, so it is
safe to snapshot a run more than once.

This module is dependency-free within the sim layer; the observe layer
imports *from* it (``MS_BUCKETS`` is defined here and re-exported by
``repro.observe.metrics``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.trace import TraceKind

#: Histogram buckets for simulated-millisecond durations. Canonical
#: definition — ``repro.observe.metrics`` re-exports it.
MS_BUCKETS: Tuple[float, ...] = (
    1.0, 5.0, 10.0, 50.0, 80.0, 100.0, 200.0, 500.0,
    1_000.0, 5_000.0, 10_000.0, 60_000.0,
)


class _HistStream:
    """Fixed-bucket duration accumulator (Prometheus observe semantics).

    Observations land in *raw* per-bucket bins via ``bisect`` (one C-level
    search instead of a Python loop over every bucket); the cumulative
    ≤-upper-bound counts Prometheus semantics call for are materialized
    on demand by :attr:`bucket_counts`, which only snapshots read.
    """

    __slots__ = ("buckets", "_bins", "count", "sum")

    def __init__(self, buckets: Tuple[float, ...] = MS_BUCKETS) -> None:
        self.buckets = buckets
        self._bins = [0] * len(buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        index = bisect_left(self.buckets, value)
        if index < len(self._bins):
            self._bins[index] += 1

    @property
    def bucket_counts(self) -> List[int]:
        """Cumulative counts (observations ≤ each bucket's upper bound)."""
        counts = []
        total = 0
        for bin_count in self._bins:
            total += bin_count
            counts.append(total)
        return counts

    def copy(self) -> "_HistStream":
        clone = _HistStream(self.buckets)
        clone._bins = list(self._bins)
        clone.count = self.count
        clone.sum = self.sum
        return clone


@dataclass
class FoldAggregates:
    """Everything ``observe_run`` reads off a finished fold."""

    dpr: _HistStream
    item: _HistStream
    wait: _HistStream
    recovery: _HistStream
    dpr_busy_ms: float
    compute_busy_ms: float
    peak_compute: int


class TraceFold:
    """Streaming interval pairing over one run's trace events."""

    __slots__ = ("_dpr", "_item", "_wait", "_recovery",
                 "_dpr_busy", "_compute_busy", "_depth", "_peak",
                 "_open_configs", "_open_items", "_open_waits",
                 "_open_slot_faults", "_open_config_faults")

    def __init__(self) -> None:
        self._dpr = _HistStream()
        self._item = _HistStream()
        self._wait = _HistStream()
        self._recovery = _HistStream()
        self._dpr_busy = 0.0
        self._compute_busy = 0.0
        #: Concurrently open compute spans (streaming peak-concurrency).
        self._depth = 0
        self._peak = 0
        self._open_configs: Dict[tuple, float] = {}
        self._open_items: Dict[tuple, float] = {}
        self._open_waits: Dict[tuple, float] = {}
        self._open_slot_faults: Dict[int, float] = {}
        self._open_config_faults: Dict[tuple, float] = {}

    def feed(
        self,
        time: float,
        kind: TraceKind,
        app_id: Optional[int] = None,
        task_id: Optional[str] = None,
        slot: Optional[int] = None,
        detail: Optional[float] = None,
    ) -> None:
        """Fold one trace event (must arrive in record order).

        The dispatch chain is ordered by event frequency — item starts
        and completions dominate every workload (one pair per batch
        item), reconfigurations come second — since each event walks the
        chain until its kind matches. Kinds are mutually exclusive, so
        ordering cannot change what is folded.
        """
        if kind is TraceKind.ITEM_DONE:
            started = self._open_items.pop((app_id, task_id, slot), None)
            if started is not None:
                duration = time - started
                self._item.observe(duration)
                self._compute_busy += duration
                self._depth -= 1
        elif kind is TraceKind.ITEM_START:
            self._open_items[(app_id, task_id, slot)] = time
            self._depth += 1
            if self._depth > self._peak:
                self._peak = self._depth
        elif kind is TraceKind.TASK_CONFIG_START:
            self._open_configs[(app_id, task_id, slot)] = time
        elif kind is TraceKind.TASK_CONFIG_DONE:
            started = self._open_configs.pop((app_id, task_id, slot), None)
            if started is not None:
                duration = time - started
                self._dpr.observe(duration)
                self._dpr_busy += duration
            recovered = self._open_config_faults.pop((app_id, task_id), None)
            if recovered is not None:
                self._recovery.observe(time - recovered)
        elif kind is TraceKind.CONFIG_FAILED:
            started = self._open_configs.pop((app_id, task_id, slot), None)
            if started is not None:
                duration = time - started
                self._dpr.observe(duration)
                self._dpr_busy += duration
            self._open_config_faults.setdefault((app_id, task_id), time)
        elif kind is TraceKind.TASK_PREEMPTED:
            self._open_waits[(app_id, task_id)] = time
        elif kind is TraceKind.TASK_RESUMED:
            started = self._open_waits.pop((app_id, task_id), None)
            if started is not None:
                self._wait.observe(time - started)
        elif kind is TraceKind.SLOT_FAULT:
            if slot is not None:
                # The fault kills whatever item was in flight on the slot.
                for key in [k for k in self._open_items if k[2] == slot]:
                    started = self._open_items.pop(key)
                    duration = time - started
                    self._item.observe(duration)
                    self._compute_busy += duration
                    self._depth -= 1
                self._open_slot_faults.setdefault(slot, time)
            if app_id is not None:
                self._open_waits[(app_id, task_id)] = time
        elif kind is TraceKind.SLOT_REPAIRED:
            if slot is not None:
                started = self._open_slot_faults.pop(slot, None)
                if started is not None:
                    self._recovery.observe(time - started)

    def aggregates(self, horizon: float) -> FoldAggregates:
        """Close still-open intervals at ``horizon`` (without mutating).

        Open recoveries contribute nothing, exactly like
        :func:`~repro.metrics.reliability.recovery_times_ms`.
        """
        dpr = self._dpr.copy()
        item = self._item.copy()
        wait = self._wait.copy()
        dpr_busy = self._dpr_busy
        compute_busy = self._compute_busy
        for started in self._open_configs.values():
            duration = max(horizon, started) - started
            dpr.observe(duration)
            dpr_busy += duration
        for started in self._open_items.values():
            duration = max(horizon, started) - started
            item.observe(duration)
            compute_busy += duration
        for started in self._open_waits.values():
            wait.observe(max(horizon, started) - started)
        return FoldAggregates(
            dpr=dpr, item=item, wait=wait, recovery=self._recovery.copy(),
            dpr_busy_ms=dpr_busy, compute_busy_ms=compute_busy,
            peak_compute=self._peak,
        )


def fold_rows(rows) -> TraceFold:
    """Feed stored trace rows, in record order, through a fresh fold."""
    fold = TraceFold()
    feed = fold.feed
    for row in rows:
        feed(*row)
    return fold
