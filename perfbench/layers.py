"""Per-layer tracing for the traced benchmark run.

The tracer wraps public methods and module functions of the simulator
from the outside, times every call into them, and keeps the totals in
memory until the run ends. Nothing under ``src/`` knows about it, and no
``Instrumentation`` or other observer is attached: any observer disarms
the replay cache, so the traced run would measure a different program.

A span's *self* time is its duration minus the durations of the wrapped
calls made inside it. A span is counted once even when the wrapped
function calls another wrapped function of the same span name (``super()``
chains, ``schedule_at`` calling ``schedule``).

Calls made inside ``ReplayCache.try_replay`` are not timed separately: the
mirror-world recording belongs to the replay layer, so ``sim.replay.self_s``
includes it and no other layer counts its decisions or trace rows.

Fleet boards are simulated in worker processes. ``install`` swaps
``repro.cluster.shard.simulate_board`` for :func:`traced_simulate_board`,
which the forked workers inherit; it times one board, resets the worker's
copy of the tracer first, and ships that board's totals back inside the
payload under :data:`PAYLOAD_KEY`. The ``board_cells`` wrapper in the
parent pops the key before the cluster merges the payloads, so the
merged report is the same as in an untraced run.
"""

from __future__ import annotations

import os
import pickle
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Payload key carrying one worker board's span totals back to the parent.
PAYLOAD_KEY = "_perfbench_layers"

#: The installed tracer (one per process; workers inherit it by fork).
_ACTIVE: Optional["Tracer"] = None
#: The unwrapped ``simulate_board`` while a tracer is installed.
_SIMULATE_BOARD: Optional[Callable] = None


class Tracer:
    """Span and counter totals for one traced measured phase."""

    def __init__(self) -> None:
        self._patches: List[tuple] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        #: >0 while inside an opaque span (the replay cache).
        self._opaque = 0
        self._hv_by_engine = weakref.WeakKeyDictionary()
        #: ids of traces whose hypervisor's engine is running live.
        self._live_traces: set = set()
        self._open: Dict[tuple, float] = {}
        self._kinds: Optional[tuple] = None
        self.pid = os.getpid()
        self.reset()

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every total (the stack too: a forked worker starts
        outside the parent's open spans)."""
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Board simulation times in worker processes / in this process.
        self.board_s: List[float] = []
        self.local_board_s: List[float] = []
        self._open.clear()
        self._stack.clear()
        self._depth.clear()
        self._opaque = 0

    def export(self) -> dict:
        """This process's totals, picklable."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def absorb(self, other: "Tracer") -> None:
        """Add another tracer's totals (one more traced repetition)."""
        self._add(other.export())
        self.board_s.extend(other.board_s)
        self.local_board_s.extend(other.local_board_s)

    def merge_worker(self, exported: dict, board_s: float) -> None:
        """Add one worker board's totals."""
        self._add(exported)
        self.board_s.append(board_s)

    def _add(self, exported: dict) -> None:
        for mine, theirs in (
            (self.calls, exported["calls"]), (self.total, exported["total"]),
            (self.self_s, exported["self_s"]),
            (self.counts, exported["counts"]),
        ):
            for name, value in theirs.items():
                mine[name] += value

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        opaque: bool = False,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``on_result(result, args)`` runs
        after each counted call."""
        tracer = self
        depth = self._depth
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if depth[name] or tracer._opaque:
                return fn(*args, **kwargs)
            depth[name] += 1
            if opaque:
                tracer._opaque += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                depth[name] -= 1
                if opaque:
                    tracer._opaque -= 1
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_s[name] += elapsed - frame[1]
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attrs, name: str, **kwargs) -> None:
        """Wrap ``owner.<attr>`` for each attr ``owner`` itself defines."""
        for attr in attrs:
            if attr in owner.__dict__:
                self._patch(
                    owner, attr, self.span(name, owner.__dict__[attr], **kwargs)
                )

    # ------------------------------------------------------------------
    # Counter hooks
    # ------------------------------------------------------------------
    def _note_row(self, trace, time_ms, kind, slot) -> None:
        """Count one live trace row; pair slot busy intervals."""
        preempted, item_start, item_done, config_start, config_done = (
            self._kinds
        )
        counts = self.counts
        counts["trace.records"] += 1
        if kind is preempted:
            counts["preemptions"] += 1
        elif kind is item_start:
            self._open[(id(trace), slot, 0)] = time_ms
        elif kind is item_done:
            start = self._open.pop((id(trace), slot, 0), None)
            if start is not None:
                counts["slot_busy_ms"] += time_ms - start
        elif kind is config_start:
            self._open[(id(trace), slot, 1)] = time_ms
        elif kind is config_done:
            counts["reconfigs"] += 1
            start = self._open.pop((id(trace), slot, 1), None)
            if start is not None:
                counts["port_busy_ms"] += time_ms - start

    def _record_hook(self, fn: Callable) -> Callable:
        tracer = self
        timed = self.span("sim.trace", fn)
        depth = self._depth

        def record(trace, time_ms, kind, app_id=None, task_id=None,
                   slot=None, detail=None):
            outer = not depth["trace.rows"]
            depth["trace.rows"] += 1
            try:
                timed(trace, time_ms, kind, app_id, task_id, slot, detail)
            finally:
                depth["trace.rows"] -= 1
            if outer and id(trace) in tracer._live_traces:
                tracer._note_row(trace, time_ms, kind, slot)

        return record

    def _record_many_hook(self, fn: Callable) -> Callable:
        tracer = self
        timed = self.span("sim.trace", fn)
        depth = self._depth

        def record_many(trace, rows):
            rows = list(rows)
            outer = not depth["trace.rows"]
            depth["trace.rows"] += 1
            try:
                timed(trace, rows)
            finally:
                depth["trace.rows"] -= 1
            if outer and id(trace) in tracer._live_traces:
                for row in rows:
                    tracer._note_row(trace, row[0], row[1], row[4])

        return record_many

    def _hypervisor_init_hook(self, fn: Callable) -> Callable:
        tracer = self

        def __init__(hv, *args, **kwargs):
            fn(hv, *args, **kwargs)
            if not tracer._opaque:
                tracer._hv_by_engine[hv.engine] = weakref.ref(hv)

        return __init__

    def _engine_run_hook(self, fn: Callable) -> Callable:
        """Span ``hypervisor.run`` around each live engine run, plus its
        engine events, scheduler passes and simulated span.

        Its self time is the engine's dispatch loop and the hypervisor's
        pass, launch and completion code that has no public boundary.
        """
        tracer = self
        timed = self.span("hypervisor.run", fn)

        def run(engine, *args, **kwargs):
            ref = None if tracer._opaque else tracer._hv_by_engine.get(engine)
            hv = ref() if ref is not None else None
            if hv is None:
                return fn(engine, *args, **kwargs)
            trace_id = id(hv.trace)
            tracer._live_traces.add(trace_id)
            events, passes, start = (
                engine.processed, hv.scheduler_passes, engine.now
            )
            try:
                return timed(engine, *args, **kwargs)
            finally:
                tracer._live_traces.discard(trace_id)
                counts = tracer.counts
                span_ms = engine.now - start
                counts["engine.events"] += engine.processed - events
                counts["passes"] += hv.scheduler_passes - passes
                counts["span_ms"] += span_ms
                counts["slot_span_ms"] += span_ms * hv.device.num_slots

        return run

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        global _ACTIVE, _SIMULATE_BOARD

        import repro.core.variants  # noqa: F401  (registers ablations)
        from repro.admission.controller import AdmissionController
        from repro.admission.watchdog import Watchdog
        from repro.cluster import cluster as cluster_mod
        from repro.cluster import shard
        from repro.core.saturation import SaturationAnalyzer
        from repro.experiments import parallel, report, runner
        from repro.hypervisor.hypervisor import Hypervisor, SchedulerContext
        from repro.ilp.solver import BranchAndBoundSolver
        from repro.schedulers.base import SchedulerPolicy
        from repro.service.windows import WindowedMetrics
        from repro.sim.engine import SimulationEngine
        from repro.sim.replay import ReplayCache
        from repro.sim.trace import BoundedTrace, Trace, TraceKind

        self._kinds = (
            TraceKind.TASK_PREEMPTED, TraceKind.ITEM_START,
            TraceKind.ITEM_DONE, TraceKind.TASK_CONFIG_START,
            TraceKind.TASK_CONFIG_DONE,
        )

        self.wrap(SimulationEngine, (
            "schedule", "schedule_delay", "schedule_at", "schedule_after",
        ), "sim.engine.schedule")
        self._patch(SimulationEngine, "run",
                    self._engine_run_hook(SimulationEngine.__dict__["run"]))
        for cls in (Trace, BoundedTrace):
            self._patch(cls, "record",
                        self._record_hook(cls.__dict__["record"]))
        self._patch(Trace, "record_many",
                    self._record_many_hook(Trace.__dict__["record_many"]))

        def replayed(result, args):
            if result:
                self.counts["replay.hits"] += 1

        self.wrap(ReplayCache, ("try_replay",), "sim.replay",
                  on_result=replayed, opaque=True)

        self._patch(Hypervisor, "__init__",
                    self._hypervisor_init_hook(Hypervisor.__dict__["__init__"]))
        self.wrap(Hypervisor, ("submit",), "hypervisor.submit")

        def acted(result, args):
            if result is not None:
                self.counts["decide.actions"] += 1

        for cls in _subclasses(SchedulerPolicy):
            self.wrap(cls, ("decide",), "schedulers.decide", on_result=acted)
            self.wrap(cls, (
                "notify_arrival", "notify_completion", "notify_tick",
            ), "schedulers.notify")
        self.wrap(SaturationAnalyzer, ("goal_number", "sweep"),
                  "core.saturation")
        self.wrap(SchedulerContext, (
            "pending_apps", "pending_version", "token_boosts", "app",
            "free_slot_index", "free_slot_count", "slot_occupant",
            "slot_waiting", "healthy_slot_count", "admission_slot_cap",
        ), "overlay.slot_query")

        def admitted(result, args):
            if result:
                self.counts["admit.accepted"] += 1

        self.wrap(AdmissionController, ("admit",), "admission.admit",
                  on_result=admitted)
        self.wrap(AdmissionController, ("on_pass",), "admission.on_pass")
        self.wrap(Watchdog, ("on_pass",), "admission.watchdog")
        self.wrap(WindowedMetrics, (
            "observe_arrival", "observe_completion", "observe_shed",
            "observe_dropped", "observe_rejections", "note_engine_events",
            "note_pending_depth",
        ), "service.windows")

        from repro.cluster.cluster import Cluster

        self.wrap(Cluster, ("submit_sequence",), "cluster.place")
        self.wrap(Cluster, ("run",), "cluster.run")
        self._patch(cluster_mod, "board_cells",
                    self._board_cells_hook(cluster_mod.board_cells))
        _SIMULATE_BOARD = shard.simulate_board
        self._patch(shard, "simulate_board", traced_simulate_board)

        for module in (runner, parallel):
            self._patch(module, "run_sequence", self.span(
                "experiments.simulate", module.__dict__["run_sequence"]
            ))
        self._patch(report, "generate_findings", self.span(
            "experiments.report", report.generate_findings
        ))
        self.wrap(BranchAndBoundSolver, ("solve",), "ilp.solve")
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        global _ACTIVE, _SIMULATE_BOARD

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None
        _SIMULATE_BOARD = None

    def _board_cells_hook(self, fn: Callable) -> Callable:
        timed = self.span("cluster.board_cells", fn)
        tracer = self

        def board_cells(tasks, jobs=None):
            tasks = list(tasks)
            payloads = timed(tasks, jobs=jobs)
            for payload in payloads:
                shipped = payload.pop(PAYLOAD_KEY, None)
                if shipped is not None:
                    tracer.merge_worker(shipped["layers"], shipped["board_s"])
            tracer.counts["parallel.payload_bytes"] += len(
                pickle.dumps(tasks)
            ) + len(pickle.dumps(payloads))
            tracer.counts["parallel.jobs"] = max(
                tracer.counts["parallel.jobs"], min(jobs or 1, len(tasks))
            )
            return payloads

        return board_cells

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self, extras: dict) -> Dict[str, float]:
        """The per-layer metrics of one or more traced measured phases.

        ``extras`` carries the counters the workloads read off
        their own result objects (admission/watchdog/window/cache
        counters, verdicts).
        """
        calls, total, self_s, counts = (
            self.calls, self.total, self.self_s, self.counts
        )

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        board_sim_s = sum(self.board_s) + sum(self.local_board_s)
        jobs = counts["parallel.jobs"] or 1
        lookups = calls["sim.replay"]
        return {
            "sim.engine.events": counts["engine.events"],
            "sim.engine.schedule.calls": calls["sim.engine.schedule"],
            "sim.engine.schedule.self_s": self_s["sim.engine.schedule"],
            "sim.trace.records": counts["trace.records"],
            "sim.trace.self_s": self_s["sim.trace"],
            "sim.replay.lookups": lookups,
            "sim.replay.hit_frac": frac(counts["replay.hits"], lookups),
            "sim.replay.self_s": self_s["sim.replay"],
            "hypervisor.passes": counts["passes"],
            "hypervisor.submit.calls": calls["hypervisor.submit"],
            "hypervisor.submit.self_s": self_s["hypervisor.submit"],
            "hypervisor.residual_s": self_s["hypervisor.run"],
            "schedulers.decide.calls": calls["schedulers.decide"],
            "schedulers.decide.self_s": self_s["schedulers.decide"],
            "schedulers.decide.action_frac": frac(
                counts["decide.actions"], calls["schedulers.decide"]
            ),
            "schedulers.notify.calls": calls["schedulers.notify"],
            "schedulers.notify.self_s": self_s["schedulers.notify"],
            "core.saturation.calls": calls["core.saturation"],
            "core.saturation.self_s": self_s["core.saturation"],
            "core.preemptions": counts["preemptions"],
            "overlay.slot_query.calls": calls["overlay.slot_query"],
            "overlay.slot_query.self_s": self_s["overlay.slot_query"],
            "overlay.port.busy_frac": frac(
                counts["port_busy_ms"], counts["span_ms"]
            ),
            "overlay.slot.busy_frac": frac(
                counts["slot_busy_ms"], counts["slot_span_ms"]
            ),
            "overlay.reconfigs": counts["reconfigs"],
            "admission.admit.calls": calls["admission.admit"],
            "admission.admit.accept_frac": frac(
                counts["admit.accepted"], calls["admission.admit"]
            ),
            "admission.admit.self_s": self_s["admission.admit"],
            "admission.on_pass.self_s": self_s["admission.on_pass"],
            "admission.shed": extras.get("shed", 0),
            "admission.watchdog.calls": calls["admission.watchdog"],
            "admission.watchdog.self_s": self_s["admission.watchdog"],
            "admission.watchdog.detect_frac": frac(
                extras.get("watchdog_detections", 0),
                calls["admission.watchdog"],
            ),
            "service.windows.calls": calls["service.windows"],
            "service.windows.self_s": self_s["service.windows"],
            "service.windows.closed": extras.get("windows_closed", 0),
            "workload.arrivals.self_s": self_s["workload.arrivals"],
            "cluster.place_s": total["cluster.place"],
            "cluster.board_sim_s": board_sim_s,
            "cluster.board_sim_max_s": max(
                self.board_s + self.local_board_s, default=0.0
            ),
            "cluster.merge_s": self_s["cluster.run"],
            "experiments.parallel.overhead_s": (
                total["cluster.board_cells"] - board_sim_s / jobs
                if calls["cluster.board_cells"] else 0.0
            ),
            "experiments.parallel.payload_bytes": counts[
                "parallel.payload_bytes"
            ],
            "experiments.runcache.simulations": extras.get("simulations", 0),
            "experiments.simulate_s": total["experiments.simulate"],
            "experiments.report.self_s": self_s["experiments.report"],
            "experiments.report.verdicts_held": extras.get("verdicts_held", 0),
            "ilp.solve.calls": calls["ilp.solve"],
            "ilp.solve.self_s": self_s["ilp.solve"],
        }


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))


def traced_simulate_board(task):
    """``simulate_board`` timed per board, with worker-side totals.

    In a worker process the inherited tracer copy is reset, the board is
    simulated, and the board's totals ride back in the payload. In the
    parent (``jobs=1``) the board is an ordinary nested call.
    """
    tracer = _ACTIVE
    simulate = _SIMULATE_BOARD
    if tracer is None or simulate is None:
        # A worker started without the parent's memory (not forked):
        # nothing is wrapped here, so simulate the board plainly.
        from repro.cluster import shard

        return shard.simulate_board(task)
    if os.getpid() == tracer.pid:
        started = time.perf_counter()
        payload = simulate(task)
        tracer.local_board_s.append(time.perf_counter() - started)
        return payload
    tracer.reset()
    started = time.perf_counter()
    payload = simulate(task)
    board_s = time.perf_counter() - started
    payload[PAYLOAD_KEY] = {"layers": tracer.export(), "board_s": board_s}
    return payload
