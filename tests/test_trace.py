"""Tests for the trace recorder (repro.sim.trace)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster.shard import trace_digest
from repro.sim.trace import BoundedTrace, Trace, TraceKind
from repro.sim.trace_export import TRACE_FORMAT_VERSION, trace_to_dict


def _sample_trace() -> Trace:
    trace = Trace()
    trace.record(0.0, TraceKind.APP_ARRIVED, app_id=1)
    trace.record(0.0, TraceKind.TASK_CONFIG_START, app_id=1, task_id="t0", slot=0)
    trace.record(80.0, TraceKind.TASK_CONFIG_DONE, app_id=1, task_id="t0", slot=0)
    trace.record(80.0, TraceKind.ITEM_START, app_id=1, task_id="t0", slot=0,
                 detail=0.0)
    trace.record(180.0, TraceKind.ITEM_DONE, app_id=1, task_id="t0", slot=0,
                 detail=0.0)
    trace.record(180.0, TraceKind.APP_RETIRED, app_id=1)
    trace.record(200.0, TraceKind.APP_ARRIVED, app_id=2)
    return trace


class TestBasics:
    def test_len_and_iteration(self):
        trace = _sample_trace()
        assert len(trace) == 7
        assert len(list(trace)) == 7

    def test_of_kind_filters(self):
        trace = _sample_trace()
        arrivals = trace.of_kind(TraceKind.APP_ARRIVED)
        assert [e.app_id for e in arrivals] == [1, 2]

    def test_for_app_filters(self):
        trace = _sample_trace()
        assert all(e.app_id == 2 for e in trace.for_app(2))
        assert len(trace.for_app(1)) == 6

    def test_first_finds_earliest(self):
        trace = _sample_trace()
        first = trace.first(TraceKind.APP_ARRIVED)
        assert first is not None and first.app_id == 1
        second = trace.first(TraceKind.APP_ARRIVED, app_id=2)
        assert second is not None and second.time == 200.0

    def test_first_returns_none_when_absent(self):
        assert _sample_trace().first(TraceKind.TASK_PREEMPTED) is None

    def test_str_contains_fields(self):
        event = _sample_trace().events[1]
        text = str(event)
        assert "task_config_start" in text
        assert "app=1" in text
        assert "slot=0" in text


class TestAggregates:
    def test_reconfig_busy_sums_intervals(self):
        assert _sample_trace().reconfig_busy_ms() == 80.0

    def test_reconfig_busy_per_app(self):
        assert _sample_trace().reconfig_busy_ms(app_id=1) == 80.0
        assert _sample_trace().reconfig_busy_ms(app_id=2) == 0.0

    def test_run_busy_sums_item_durations(self):
        assert _sample_trace().run_busy_ms() == 100.0

    def test_unmatched_starts_ignored(self):
        trace = Trace()
        trace.record(0.0, TraceKind.ITEM_START, app_id=1, task_id="t",
                     slot=0, detail=0.0)
        assert trace.run_busy_ms() == 0.0


def _reference_trace_to_dict(trace: Trace, label: str = "") -> dict:
    """The export as it was built from materialized TraceEvents."""
    return {
        "format": TRACE_FORMAT_VERSION,
        "label": label,
        "events": [
            {
                "time": event.time,
                "kind": event.kind.value,
                "app_id": event.app_id,
                "task_id": event.task_id,
                "slot": event.slot,
                "detail": event.detail,
            }
            for event in trace
        ],
    }


def _hypervisor_trace(faults=None, replay: bool = False, specs=None) -> Trace:
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.schedulers.registry import make_scheduler
    from repro.sim.replay import ReplayCache
    from repro.workload.scenarios import STANDARD, scenario_sequence

    hv = Hypervisor(make_scheduler("nimblock"), faults=faults)
    if replay:
        hv._replay = ReplayCache(
            hv, scheduler_factory=lambda: make_scheduler("nimblock")
        )
    if specs is None:
        specs = scenario_sequence(STANDARD, seed=3, num_events=8)
    for spec in specs:
        hv.submit(spec.to_request())
    hv.run()
    if replay:
        assert hv._replay.hits > 0
    return hv.trace


def _chaos_trace() -> Trace:
    from repro.faults.injector import FaultInjector
    from repro.workload.scenarios import chaos_scenario

    trace = _hypervisor_trace(faults=FaultInjector(
        chaos_scenario("mixed").fault_config(0.2, seed=11)
    ))
    assert trace.count(TraceKind.SLOT_FAULT) > 0
    assert any(row[2] is None for row in trace._rows)
    return trace


def _replayed_trace() -> Trace:
    from repro.workload.events import EventSpec

    return _hypervisor_trace(replay=True, specs=[
        EventSpec(
            benchmark=("lenet", "imgc")[index % 2],
            batch_size=4,
            priority=1,
            arrival_ms=index * 500_000.0,
        )
        for index in range(8)
    ])


def _trimmed_trace() -> Trace:
    trace = BoundedTrace(capacity=16)
    trace.record_many(_hypervisor_trace()._rows)
    assert trace.dropped > 0
    return trace


class TestRowExport:
    """``trace_to_dict`` reads stored rows; its output (and every digest
    over it) equals the TraceEvent-based export it replaced."""

    @pytest.mark.parametrize("build", [
        _hypervisor_trace, _chaos_trace, _replayed_trace, _trimmed_trace,
    ], ids=["closed", "chaos", "replayed", "trimmed"])
    def test_matches_event_based_export(self, build):
        trace = build()
        exported = trace_to_dict(trace, label="t")
        digest = trace_digest(trace, "t")
        assert trace._cache is None
        reference = _reference_trace_to_dict(trace, label="t")
        # Same keys in the same order: saved (unsorted) files match too.
        assert json.dumps(exported) == json.dumps(reference)
        assert digest == hashlib.sha256(
            json.dumps(reference, sort_keys=True).encode("utf-8")
        ).hexdigest()
