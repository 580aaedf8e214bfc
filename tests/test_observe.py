"""Tests for the observability layer (repro.observe)."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from repro.errors import ExperimentError
from repro.metrics.reliability import recovery_times_ms
from repro.observe.aggregate import collect_metrics, observed_run
from repro.observe.exporters import (
    save_chrome_trace,
    snapshot_to_prometheus,
    trace_to_chrome,
    trace_to_jsonl,
    validate_chrome_trace,
)
from repro.observe.instrument import Instrumentation, snapshot_run
from repro.observe.metrics import (
    Counter,
    Histogram,
    MetricError,
    MetricsRegistry,
    merge_snapshots,
    quantile_from_histogram,
    to_prometheus,
)
from repro.observe.spans import (
    CATEGORY_COMPUTE,
    CATEGORY_DPR,
    CATEGORY_FAULT,
    CATEGORY_WAIT,
    build_spans,
    config_port_busy_ms,
    expected_span_count,
    spans_by_category,
)
from repro.sim.trace import Trace, TraceKind
from repro.sim.trace_export import load_trace, save_trace, trace_from_dict, trace_to_dict
from repro.workload.scenarios import STRESS, chaos_scenario, scenario_sequence


def _chaos_run(rate=0.05, seed=1, num_events=12, scheduler="nimblock",
               scenario="mixed"):
    """One deterministic chaos run exercising every span pairing rule."""
    sequence = scenario_sequence(STRESS, seed, num_events)
    faults = chaos_scenario(scenario).fault_config(rate, seed=seed)
    return observed_run(scheduler, sequence, faults)


@pytest.fixture(scope="module")
def chaos():
    """(hypervisor, observer) of the canonical chaos run."""
    return _chaos_run()


@pytest.fixture(scope="module")
def refaults():
    """(hypervisor, observer) of a transient run whose slots re-fault
    while already out of service."""
    return _chaos_run(rate=2.0, num_events=8, scenario="transient")


class TestSpanBuilder:
    def test_span_count_matches_expected(self, chaos):
        hypervisor, _ = chaos
        spans = build_spans(hypervisor.trace)
        assert len(spans) == expected_span_count(hypervisor.trace)

    def test_chaos_trace_exercises_every_category(self, chaos):
        hypervisor, _ = chaos
        trace = hypervisor.trace
        # The fixture must genuinely contain preemptions and relocations.
        assert len(trace.of_kind(TraceKind.TASK_PREEMPTED)) > 0
        assert len(trace.of_kind(TraceKind.TASK_RELOCATED)) > 0
        grouped = spans_by_category(build_spans(trace))
        for category in (CATEGORY_DPR, CATEGORY_COMPUTE,
                         CATEGORY_WAIT, CATEGORY_FAULT):
            assert grouped[category], f"no {category} spans"

    def test_dpr_spans_never_overlap(self, chaos):
        """Single config port: DPR spans must serialize."""
        hypervisor, _ = chaos
        dpr = [s for s in build_spans(hypervisor.trace)
               if s.category == CATEGORY_DPR]
        dpr.sort(key=lambda s: s.start_ms)
        for earlier, later in zip(dpr, dpr[1:]):
            assert later.start_ms >= earlier.end_ms - 1e-9
        assert config_port_busy_ms(dpr) == pytest.approx(
            sum(s.duration_ms for s in dpr)
        )

    def test_preemption_waits_are_closed_by_resumes(self, chaos):
        hypervisor, _ = chaos
        waits = [s for s in build_spans(hypervisor.trace)
                 if s.category == CATEGORY_WAIT]
        preempted = [s for s in waits if s.name == "preempted"]
        evicted = [s for s in waits if s.name == "evicted"]
        assert preempted and evicted
        for span in waits:
            assert span.duration_ms >= 0.0

    def test_failed_config_spans_marked_not_ok(self, chaos):
        hypervisor, _ = chaos
        trace = hypervisor.trace
        failed = [s for s in build_spans(trace)
                  if s.category == CATEGORY_DPR and not s.ok]
        # Abnormal DPR spans cover at least the CONFIG_FAILED events.
        assert len(failed) >= len(trace.of_kind(TraceKind.CONFIG_FAILED))

    def test_unpaired_open_span_closes_at_horizon(self):
        trace = Trace()
        trace.record(1.0, TraceKind.TASK_CONFIG_START,
                     app_id=0, task_id="t", slot=2)
        trace.record(5.0, TraceKind.APP_ARRIVED, app_id=1)
        spans = build_spans(trace)
        assert len(spans) == 1 == expected_span_count(trace)
        assert spans[0].end_ms == 5.0
        assert not spans[0].ok

    def test_refault_keeps_one_outage_from_first_fault(self):
        trace = Trace()
        trace.record(0.0, TraceKind.SLOT_FAULT, slot=0, detail=1.0)
        trace.record(50.0, TraceKind.SLOT_FAULT, slot=0, detail=2.0)
        trace.record(160.0, TraceKind.SLOT_REPAIRED, slot=0)
        spans = build_spans(trace)
        assert [(s.category, s.start_ms, s.end_ms, s.ok, s.detail)
                for s in spans] == [(CATEGORY_FAULT, 0.0, 160.0, True, 1.0)]
        assert expected_span_count(trace) == 1
        assert recovery_times_ms(trace) == [160.0]

    def test_span_count_matches_expected_with_refaults(self, refaults):
        hypervisor, _ = refaults
        trace = hypervisor.trace
        out, refaulted = set(), 0
        for event in trace:
            if event.kind == TraceKind.SLOT_FAULT:
                refaulted += event.slot in out
                out.add(event.slot)
            elif event.kind == TraceKind.SLOT_REPAIRED:
                out.discard(event.slot)
        assert refaulted > 0
        assert len(build_spans(trace)) == expected_span_count(trace)

    def test_build_spans_deterministic(self, chaos):
        hypervisor, _ = chaos
        rerun, _ = _chaos_run()
        assert build_spans(hypervisor.trace) == build_spans(rerun.trace)


class TestMetricsPrimitives:
    def test_counter_rejects_negative(self):
        counter = Counter()
        counter.inc(2.0)
        with pytest.raises(MetricError):
            counter.inc(-1.0)
        assert counter.value == 2.0

    def test_histogram_buckets_cumulative_in_text(self):
        histogram = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        registry = MetricsRegistry()
        registry._metrics["h"] = ("histogram", "", histogram)
        text = to_prometheus(registry.snapshot())
        assert 'h_bucket{le="+Inf"} 4' in text
        assert "h_count 4" in text

    def test_registry_type_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(MetricError):
            registry.gauge("x_total")

    def test_invalid_metric_name_raises(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("bad name")

    def test_merge_is_associative_and_order_independent(self):
        def snap(counter_value, gauge_value):
            registry = MetricsRegistry()
            registry.counter("c_total").inc(counter_value)
            registry.gauge("g").set(gauge_value)
            registry.histogram("h", buckets=(1.0, 10.0)).observe(gauge_value)
            return registry.snapshot()

        parts = [snap(1, 0.5), snap(2, 5.0), snap(4, 2.0)]
        forward = merge_snapshots(parts)
        backward = merge_snapshots(reversed(parts))
        assert forward == backward
        assert forward["counters"]["c_total"]["value"] == 7
        assert forward["gauges"]["g"]["value"] == 5.0
        assert forward["histograms"]["h"]["count"] == 3

    def test_quantile_from_histogram(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            histogram.observe(value)
        record = {
            "buckets": list(histogram.buckets),
            "bucket_counts": list(histogram.bucket_counts),
            "count": histogram.count,
            "sum": histogram.sum,
        }
        assert 0.0 < quantile_from_histogram(record, 0.5) <= 4.0
        assert quantile_from_histogram({"buckets": [], "bucket_counts": [],
                                        "count": 0, "sum": 0.0}, 0.5) != \
            quantile_from_histogram(record, 0.5)


class TestInstrumentation:
    def test_observer_does_not_change_the_trace(self):
        from repro.hypervisor.hypervisor import Hypervisor
        from repro.schedulers.registry import make_scheduler

        sequence = scenario_sequence(STRESS, 4, 8)
        plain = Hypervisor(make_scheduler("nimblock"))
        for request in sequence.to_requests():
            plain.submit(request)
        plain.run()
        observed, _ = observed_run("nimblock", sequence)
        assert plain.trace.events == observed.trace.events

    def test_counters_match_trace_kind_counts(self, chaos):
        hypervisor, observer = chaos
        snapshot = observer.snapshot()
        counters = snapshot["counters"]
        trace = hypervisor.trace
        assert counters["nimblock_preemptions_total"]["value"] == len(
            trace.of_kind(TraceKind.TASK_PREEMPTED)
        )
        assert counters["nimblock_slot_faults_total"]["value"] == len(
            trace.of_kind(TraceKind.SLOT_FAULT)
        )
        assert counters["nimblock_resumes_total"]["value"] == len(
            trace.of_kind(TraceKind.TASK_RESUMED)
        )
        assert counters["nimblock_scheduler_passes_total"]["value"] == \
            hypervisor.scheduler_passes

    def test_snapshot_excludes_profile_by_default(self, chaos):
        _, observer = chaos
        assert "profile" not in observer.snapshot()
        assert "profile" in observer.snapshot(include_profile=True)

    def test_profile_mode_records_pass_latency(self):
        sequence = scenario_sequence(STRESS, 5, 6)
        _, observer = observed_run("nimblock", sequence, profile=True)
        profile = observer.snapshot(include_profile=True)["profile"]
        latency = profile["histograms"]["nimblock_pass_decision_seconds"]
        assert latency["count"] > 0

    def test_snapshot_run_on_plain_hypervisor(self):
        from repro.hypervisor.hypervisor import Hypervisor
        from repro.schedulers.registry import make_scheduler

        hypervisor = Hypervisor(make_scheduler("nimblock"))
        for request in scenario_sequence(STRESS, 6, 5).to_requests():
            hypervisor.submit(request)
        hypervisor.run()
        snapshot = snapshot_run(hypervisor)
        assert snapshot["counters"]["nimblock_apps_retired_total"]["value"] > 0

    #: sha256 of ``json.dumps(snapshot_run(hv), sort_keys=True)``. These
    #: pin every histogram bucket and float sum the span walk feeds.
    SNAPSHOT_PINS = {
        "chaos": "de7f28f678c2a5f30c06e6268163ffd041a4e9934bb8811c05b4be019480354c",
        "refaults": "f1fbf99f16153117a499902996bea38bfe5a30a0945e88af0fcbc06dee1f908c",
    }

    @pytest.mark.parametrize("run", sorted(SNAPSHOT_PINS))
    def test_snapshot_golden_pin(self, run, request):
        hypervisor, _ = request.getfixturevalue(run)
        text = json.dumps(snapshot_run(hypervisor), sort_keys=True)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.SNAPSHOT_PINS[run]

    @staticmethod
    def _observed_service(trace_capacity):
        from repro.service.loop import ServiceLoop
        from repro.workload.arrivals import service_rate_process

        observer = Instrumentation()
        loop = ServiceLoop(
            service_rate_process(2.0, seed=1), max_submissions=300,
            admission="shed", seed=1, observer=observer, replay=False,
            trace_capacity=trace_capacity,
        )
        loop.run()
        return loop.hv, observer

    def test_observed_service_run_refuses_dropped_rows(self):
        """Histograms folded from a trimmed ring would undercount, so an
        observed service run whose bounded trace dropped rows is refused."""
        hypervisor, observer = self._observed_service(256)
        assert hypervisor.trace.dropped > 0
        with pytest.raises(ExperimentError, match="trace_capacity"):
            observer.finalize(hypervisor)

    def test_observed_service_run_histograms_exact(self):
        hypervisor, observer = self._observed_service(16_384)
        assert hypervisor.trace.dropped == 0
        snapshot = observer.finalize(hypervisor)
        items = snapshot["histograms"]["nimblock_item_duration_ms"]
        assert items["count"] == hypervisor.trace.count(TraceKind.ITEM_DONE)

    def test_hypervisor_never_imports_observe_when_unobserved(self):
        """Structural zero-overhead: a plain run loads no observe module."""
        code = (
            "import sys\n"
            "from repro.hypervisor.hypervisor import Hypervisor\n"
            "from repro.schedulers.registry import make_scheduler\n"
            "from repro.workload.scenarios import STRESS, scenario_sequence\n"
            "hv = Hypervisor(make_scheduler('nimblock'))\n"
            "for r in scenario_sequence(STRESS, 1, 5).to_requests():\n"
            "    hv.submit(r)\n"
            "hv.run()\n"
            "bad = [m for m in sys.modules if 'observe' in m]\n"
            "assert not bad, bad\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True
        )


class TestChromeExporter:
    def test_payload_is_valid_and_span_count_matches(self, chaos):
        hypervisor, _ = chaos
        payload = trace_to_chrome(
            hypervisor.trace, num_slots=hypervisor.config.num_slots
        )
        assert validate_chrome_trace(payload) == expected_span_count(
            hypervisor.trace
        )

    def test_payload_round_trips_through_json(self, chaos):
        hypervisor, _ = chaos
        payload = trace_to_chrome(hypervisor.trace)
        rebuilt = json.loads(json.dumps(payload))
        assert validate_chrome_trace(rebuilt) == payload["otherData"]["spans"]

    def test_save_chrome_trace(self, chaos, tmp_path):
        hypervisor, _ = chaos
        path = save_chrome_trace(hypervisor.trace, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) > 0

    def test_span_count_mismatch_raises(self, chaos, monkeypatch, tmp_path):
        from repro.observe import exporters

        hypervisor, _ = chaos
        real = expected_span_count(hypervisor.trace)
        monkeypatch.setattr(
            exporters, "expected_span_count", lambda trace: real + 1
        )
        with pytest.raises(ExperimentError, match=f"{real} spans.*{real + 1}"):
            save_chrome_trace(hypervisor.trace, tmp_path / "trace.json")

    def test_validate_rejects_malformed(self):
        with pytest.raises(ExperimentError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ExperimentError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ExperimentError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 0,
                 "ts": -5.0, "dur": 1.0},
            ]})

    def test_jsonl_has_one_line_per_event(self, chaos):
        hypervisor, _ = chaos
        text = trace_to_jsonl(hypervisor.trace)
        lines = text.strip().splitlines()
        assert len(lines) == len(hypervisor.trace)
        kinds = {json.loads(line)["kind"] for line in lines}
        assert TraceKind.SLOT_FAULT.value in kinds


class TestPrometheusExporter:
    def test_exposition_format_shape(self, chaos):
        _, observer = chaos
        text = snapshot_to_prometheus(observer.snapshot())
        assert "# TYPE nimblock_apps_retired_total counter" in text
        assert "# TYPE nimblock_sim_time_ms gauge" in text
        assert 'nimblock_dpr_duration_ms_bucket{le="+Inf"}' in text
        assert text.endswith("\n")

    def test_profile_section_appended_after_marker(self, chaos):
        _, observer = chaos
        text = snapshot_to_prometheus(observer.snapshot(include_profile=True))
        deterministic, _, profiled = text.partition(
            "# profile (wall-clock, non-deterministic)\n"
        )
        assert deterministic == snapshot_to_prometheus(observer.snapshot())
        assert "nimblock_pass_decision_seconds" in profiled


class TestParallelAggregation:
    def test_collect_metrics_identical_serial_vs_parallel(self):
        sequences = [scenario_sequence(STRESS, seed, 6) for seed in (1, 2, 3)]
        faults = chaos_scenario("mixed").fault_config(0.05, seed=9)
        serial = collect_metrics(
            ["nimblock", "fcfs"], sequences, fault_config=faults, jobs=1
        )
        fanned = collect_metrics(
            ["nimblock", "fcfs"], sequences, fault_config=faults, jobs=3
        )
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(fanned, sort_keys=True)

    def test_merged_equals_sum_of_cells(self):
        sequences = [scenario_sequence(STRESS, seed, 5) for seed in (1, 2)]
        merged = collect_metrics(["nimblock"], sequences)
        total = 0.0
        for sequence in sequences:
            _, observer = observed_run("nimblock", sequence)
            cell = observer.snapshot()
            total += cell["counters"]["nimblock_items_completed_total"]["value"]
        assert merged["counters"]["nimblock_items_completed_total"]["value"] \
            == total


class TestTraceExportRoundTrip:
    def test_round_trip_covers_all_fault_kinds(self, chaos, tmp_path):
        hypervisor, _ = chaos
        trace = hypervisor.trace
        present = {event.kind for event in trace}
        for kind in (TraceKind.SLOT_FAULT, TraceKind.SLOT_REPAIRED,
                     TraceKind.CONFIG_FAILED, TraceKind.TASK_RELOCATED):
            assert kind in present, f"fixture trace lacks {kind}"
        path = save_trace(trace, tmp_path / "chaos.json", label="chaos")
        rebuilt = load_trace(path)
        assert rebuilt.events == trace.events

    def test_every_fault_kind_survives_dict_round_trip(self):
        trace = Trace()
        trace.record(1.0, TraceKind.SLOT_FAULT, app_id=1, task_id="t",
                     slot=3, detail=12.5)
        trace.record(2.0, TraceKind.CONFIG_FAILED, app_id=1, task_id="t",
                     slot=3, detail=40.0)
        trace.record(3.0, TraceKind.TASK_RELOCATED, app_id=1, task_id="t",
                     slot=5, detail=3.0)
        trace.record(4.0, TraceKind.SLOT_REPAIRED, slot=3)
        trace.record(5.0, TraceKind.TASK_RESUMED, app_id=1, task_id="t",
                     slot=5)
        rebuilt = trace_from_dict(trace_to_dict(trace, label="faults"))
        assert rebuilt.events == trace.events

    def test_span_builder_agrees_after_round_trip(self, chaos, tmp_path):
        hypervisor, _ = chaos
        path = save_trace(hypervisor.trace, tmp_path / "again.json")
        assert build_spans(load_trace(path)) == build_spans(hypervisor.trace)
