"""Span builder: fold the flat trace stream into timed intervals.

The hypervisor emits point events; everything the evaluation *reads* off a
run, however, is an interval — how long a partial reconfiguration held the
configuration port, how long a batch item occupied a slot, how long a
preempted task waited before it was resumed, how long a slot was out of
service after a fault. :func:`build_spans` reconstructs those intervals by
pairing the matching :class:`~repro.sim.trace.TraceKind` edges:

===================  ==========================================  ===========
span ``name``        opened by / closed by                        category
===================  ==========================================  ===========
``dpr``              TASK_CONFIG_START → TASK_CONFIG_DONE         ``dpr``
``dpr`` (failed)     TASK_CONFIG_START → CONFIG_FAILED            ``dpr``
``item``             ITEM_START → ITEM_DONE (or SLOT_FAULT)       ``compute``
``preempted``        TASK_PREEMPTED → TASK_RESUMED                ``wait``
``evicted``          SLOT_FAULT (occupied) → TASK_RESUMED         ``wait``
``slot-fault``       first SLOT_FAULT → SLOT_REPAIRED             ``fault``
===================  ==========================================  ===========

A slot outage runs from the slot's first ``SLOT_FAULT`` to its
``SLOT_REPAIRED``; a re-fault of a slot that is already out of service
opens no new outage.

Because every reconfiguration serializes through the single configuration
access port (CAP), the ``dpr`` spans never overlap — rendering them on one
timeline row (see :mod:`repro.observe.exporters`) makes the port contention
the paper discusses directly visible.

Spans still open when the trace ends (a dead slot, a task never resumed)
are closed at the trace horizon with ``ok=False`` so nothing is silently
dropped; :func:`expected_span_count` states the exact span count implied
by a trace's event kinds, which the exporters and tests check against.

One private walk over the stored trace rows pairs every edge. It feeds
:func:`build_spans`, the snapshot histograms of
:func:`repro.observe.instrument.observe_run` and the recovery intervals
behind MTTR (:func:`repro.metrics.reliability.recovery_times_ms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.trace import Trace, TraceKind

#: Category labels used by the span builder (stable exporter vocabulary).
CATEGORY_DPR = "dpr"
CATEGORY_COMPUTE = "compute"
CATEGORY_WAIT = "wait"
CATEGORY_FAULT = "fault"


@dataclass(frozen=True)
class Span:
    """One reconstructed interval of board or application activity."""

    name: str
    category: str
    start_ms: float
    end_ms: float
    slot: Optional[int] = None
    app_id: Optional[int] = None
    task_id: Optional[str] = None
    #: False when the interval ended abnormally (failed reconfiguration,
    #: item killed by a slot fault, never-repaired slot, never-resumed
    #: task) or was still open at the trace horizon.
    ok: bool = True
    #: Carried payload of the opening event (batch-item index for items,
    #: items completed at preemption for waits, work lost for faults).
    detail: Optional[float] = None

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms:
            raise ValueError(
                f"span {self.name!r} ends at {self.end_ms} before it "
                f"starts at {self.start_ms}"
            )

    @property
    def duration_ms(self) -> float:
        """Length of the interval in simulated milliseconds."""
        return self.end_ms - self.start_ms


def _sort_key(span: Span) -> Tuple:
    return (
        span.start_ms,
        span.end_ms,
        span.category,
        span.name,
        -1 if span.slot is None else span.slot,
        -1 if span.app_id is None else span.app_id,
        span.task_id or "",
    )


def _walk(
    trace: Trace, horizon: float
) -> Tuple[List[tuple], List[float], int]:
    """Pair the trace's edges into intervals in one pass over its rows.

    Returns ``(spans, recoveries, peak_compute)``:

    * every span as a tuple of :class:`Span`'s fields, in close order:
      the spans closed by a pairing event in record order, then the open
      configs, items, waits and outages closed at ``horizon``, in that
      order;
    * the recovery intervals in record order: ``SLOT_FAULT`` to the slot's
      next ``SLOT_REPAIRED``, and ``CONFIG_FAILED`` to the task's next
      successful ``TASK_CONFIG_DONE``; unrecovered faults contribute
      nothing;
    * the peak number of concurrently open compute spans.

    An outage runs from a slot's *first* ``SLOT_FAULT`` to its repair; a
    fault on a slot that is already out opens nothing new.

    The dispatch chain is ordered by event frequency (item edges dominate
    every workload, reconfigurations come second). Kinds are mutually
    exclusive, so the order cannot change what is paired.
    """
    spans: List[tuple] = []
    recoveries: List[float] = []
    close = spans.append
    open_configs: Dict[Tuple, float] = {}
    open_items: Dict[Tuple, Tuple[float, Optional[float]]] = {}
    open_waits: Dict[Tuple, Tuple[float, str, Optional[int], Optional[float]]] = {}
    open_faults: Dict[int, Tuple[float, Optional[float]]] = {}
    open_config_faults: Dict[Tuple, float] = {}
    depth = peak = 0

    for time, kind, app_id, task_id, slot, detail in trace._rows:
        if kind is TraceKind.ITEM_DONE:
            opened = open_items.pop((app_id, task_id, slot), None)
            if opened is not None:
                depth -= 1
                close(("item", CATEGORY_COMPUTE, opened[0], time, slot,
                       app_id, task_id, True, opened[1]))
        elif kind is TraceKind.ITEM_START:
            open_items[(app_id, task_id, slot)] = (time, detail)
            depth += 1
            if depth > peak:
                peak = depth
        elif kind is TraceKind.TASK_CONFIG_START:
            open_configs[(app_id, task_id, slot)] = time
        elif kind is TraceKind.TASK_CONFIG_DONE or kind is TraceKind.CONFIG_FAILED:
            done = kind is TraceKind.TASK_CONFIG_DONE
            started = open_configs.pop((app_id, task_id, slot), None)
            if started is not None:
                close(("dpr", CATEGORY_DPR, started, time, slot, app_id,
                       task_id, done, detail))
            if not done:
                open_config_faults.setdefault((app_id, task_id), time)
            else:
                failed = open_config_faults.pop((app_id, task_id), None)
                if failed is not None:
                    recoveries.append(time - failed)
        elif kind is TraceKind.TASK_PREEMPTED:
            open_waits[(app_id, task_id)] = (time, "preempted", slot, detail)
        elif kind is TraceKind.TASK_RESUMED:
            opened = open_waits.pop((app_id, task_id), None)
            if opened is not None:
                started, name, wait_slot, carried = opened
                close((name, CATEGORY_WAIT, started, time, wait_slot,
                       app_id, task_id, True, carried))
        elif kind is TraceKind.SLOT_FAULT:
            if slot is not None:
                # A fault mid-item kills the in-flight item: close its
                # compute span abnormally at the fault instant.
                for key in [k for k in open_items if k[2] == slot]:
                    started, item = open_items.pop(key)
                    depth -= 1
                    close(("item", CATEGORY_COMPUTE, started, time, slot,
                           key[0], key[1], False, item))
                if slot not in open_faults:
                    open_faults[slot] = (time, detail)
            if app_id is not None:
                open_waits[(app_id, task_id)] = (time, "evicted", slot, detail)
        elif kind is TraceKind.SLOT_REPAIRED:
            opened = open_faults.pop(slot, None)
            if opened is not None:
                close(("slot-fault", CATEGORY_FAULT, opened[0], time, slot,
                       None, None, True, opened[1]))
                recoveries.append(time - opened[0])

    # Close whatever never paired up at the horizon, abnormally.
    for (app_id, task_id, slot), started in open_configs.items():
        close(("dpr", CATEGORY_DPR, started, max(horizon, started), slot,
               app_id, task_id, False, None))
    for (app_id, task_id, slot), (started, item) in open_items.items():
        close(("item", CATEGORY_COMPUTE, started, max(horizon, started),
               slot, app_id, task_id, False, item))
    for (app_id, task_id), (started, name, slot, detail) in open_waits.items():
        close((name, CATEGORY_WAIT, started, max(horizon, started), slot,
               app_id, task_id, False, detail))
    for slot, (started, detail) in open_faults.items():
        close(("slot-fault", CATEGORY_FAULT, started, max(horizon, started),
               slot, None, None, False, detail))
    return spans, recoveries, peak


def _horizon(trace: Trace) -> float:
    """The default horizon: the last event's timestamp (0 when empty)."""
    return trace.end_ms if len(trace) else 0.0


def build_spans(trace: Trace, end_ms: Optional[float] = None) -> List[Span]:
    """Fold a trace into its interval view.

    ``end_ms`` sets the horizon used to close still-open spans; it
    defaults to the last event's timestamp. The result is sorted by
    ``(start, end, category, ...)`` and is a pure function of the trace,
    so identical runs yield identical span lists.
    """
    horizon = _horizon(trace) if end_ms is None else end_ms
    spans = [Span(*row) for row in _walk(trace, horizon)[0]]
    spans.sort(key=_sort_key)
    return spans


def expected_span_count(trace: Trace) -> int:
    """Span count implied by the trace's event kinds.

    Every interval is opened by exactly one event: a reconfiguration by
    ``TASK_CONFIG_START``, an item by ``ITEM_START``, a wait by
    ``TASK_PREEMPTED`` or by a ``SLOT_FAULT`` that evicted a resident
    task, and a slot outage by a ``SLOT_FAULT`` on a slot that is in
    service (a re-fault before ``SLOT_REPAIRED`` opens nothing). The
    builder closes every opened interval (at its pairing event or the
    horizon), so this count equals ``len(build_spans(trace))`` — the
    Chrome exporter and the CI trace-validation job check that identity.
    """
    count = 0
    out_of_service = set()
    for _, kind, app_id, _, slot, _ in trace._rows:
        if kind in (TraceKind.TASK_CONFIG_START, TraceKind.ITEM_START,
                    TraceKind.TASK_PREEMPTED):
            count += 1
        elif kind is TraceKind.SLOT_FAULT:
            if slot is not None and slot not in out_of_service:
                out_of_service.add(slot)
                count += 1
            if app_id is not None:
                count += 1
        elif kind is TraceKind.SLOT_REPAIRED:
            out_of_service.discard(slot)
    return count


def spans_by_category(spans: List[Span]) -> Dict[str, List[Span]]:
    """Group spans by category, preserving order."""
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.category, []).append(span)
    return grouped


def config_port_busy_ms(spans: List[Span]) -> float:
    """Total time the configuration port was held by DPR spans."""
    return sum(s.duration_ms for s in spans if s.category == CATEGORY_DPR)
