"""Equivalence tests for the steady-state macro-event replay cache.

The replay cache (:mod:`repro.sim.replay`) is a pure execution
strategy: a run with replay enabled must be **byte-identical** — trace
rows, report payloads, per-app results, window aggregates, lifetime
counters — to the same run with replay disabled. These tests pin that
contract everywhere the cache attaches:

* the service loop, across every scheduler of the capacity study (the
  paper's five plus the ablations and extension policies), with replay
  actually *engaging* (hits > 0) at low arrival rates;
* the saturated and fault-injected regimes, where the gate must force
  100% fallback to live simulation without perturbing a single byte;
* the bare hypervisor and the cluster tier, where
  :meth:`~repro.hypervisor.hypervisor.Hypervisor.results` reads the
  backfilled per-app/per-task final state;
* the quiescent-gap window-close coalescing the service loop performs,
  which replay must keep exact (same windows closed, same totals).
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.experiments.ext_service import CAPACITY_SCHEDULERS
from repro.hypervisor.hypervisor import Hypervisor
from repro.schedulers.registry import make_scheduler
from repro.service.loop import ServiceLoop
from repro.sim.replay import ReplayCache
from repro.workload.arrivals import service_rate_process
from repro.workload.events import EventSpec

#: Benchmarks cycled by the bare-hypervisor sparse stream.
_BENCHMARKS = ("lenet", "imgc", "3dr", "of")


def _run_loop(
    scheduler: str,
    *,
    replay: bool,
    rate: float = 0.05,
    submissions: int = 250,
    seed: int = 3,
    window_ms: float = 60_000.0,
) -> ServiceLoop:
    loop = ServiceLoop(
        service_rate_process(rate, seed=seed),
        scheduler,
        admission="shed",
        seed=seed,
        max_submissions=submissions,
        window_ms=window_ms,
        replay=replay,
    )
    loop.report = loop.run()
    return loop


def _payload(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _row_digest(trace) -> str:
    digest = hashlib.sha256()
    for row in trace._rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


def _sparse_specs(count: int = 24, gap_ms: float = 500_000.0):
    return [
        EventSpec(
            benchmark=_BENCHMARKS[index % len(_BENCHMARKS)],
            batch_size=4 + index % 3,
            priority=1 + index % 3,
            arrival_ms=index * gap_ms,
        )
        for index in range(count)
    ]


def _bare_run(replay: bool, specs=None) -> Hypervisor:
    hv = Hypervisor(make_scheduler("nimblock"))
    if replay:
        hv._replay = ReplayCache(
            hv, scheduler_factory=lambda: make_scheduler("nimblock")
        )
    for spec in specs or _sparse_specs():
        hv.submit(spec.to_request())
    hv.run()
    return hv


class TestServiceLoopEquivalence:
    @pytest.mark.parametrize("scheduler", CAPACITY_SCHEDULERS)
    def test_low_rate_byte_identical_and_engaged(self, scheduler):
        """Replay on == replay off for every capacity-study scheduler,
        with the cache actually serving hits at low rate."""
        on = _run_loop(scheduler, replay=True)
        off = _run_loop(scheduler, replay=False)
        assert on.replay_hits > 0, "cache never engaged at low rate"
        assert off.replay_hits == 0 and off.replay_misses == 0
        assert _payload(on.report) == _payload(off.report)
        assert _row_digest(on.hv.trace) == _row_digest(off.hv.trace)
        assert on.hv.trace._total == off.hv.trace._total
        assert on.hv.trace._total_by_kind == off.hv.trace._total_by_kind

    def test_saturated_run_falls_back_byte_identical(self):
        """At full rate the board never drains, so nearly every arrival
        misses — and the bytes still match exactly."""
        on = _run_loop("nimblock", replay=True, rate=4.0,
                       submissions=1_200, seed=1)
        off = _run_loop("nimblock", replay=False, rate=4.0,
                        submissions=1_200, seed=1)
        assert on.replay_misses > on.replay_hits
        assert _payload(on.report) == _payload(off.report)
        assert _row_digest(on.hv.trace) == _row_digest(off.hv.trace)

    def test_report_payload_is_replay_blind(self):
        """The deterministic payload must not leak replay counters."""
        loop = _run_loop("nimblock", replay=True)
        payload = loop.report.to_dict()
        assert "replay_hits" not in payload
        assert "replay_misses" not in payload
        # ...but the report object carries them for benchmarks/observe.
        assert loop.report.replay_hits == loop.replay_hits > 0

    def test_window_close_coalescing_preserved(self):
        """Quiescent gaps batch-advance the close chain identically with
        replay on: same windows closed, far fewer than the boundary
        count the span covers, and identical engine event totals."""
        on = _run_loop("nimblock", replay=True, rate=0.002,
                       submissions=40, seed=7)
        off = _run_loop("nimblock", replay=False, rate=0.002,
                        submissions=40, seed=7)
        assert on.report.windows_closed == off.report.windows_closed
        assert on.report.engine_events == off.report.engine_events
        boundaries = int(on.report.span_ms // on.report.window_ms)
        assert boundaries > 4 * on.report.windows_closed, (
            "quiescent gaps were not coalesced: "
            f"{on.report.windows_closed} closes over "
            f"{boundaries} boundaries"
        )
        assert _payload(on.report) == _payload(off.report)


class TestBareHypervisorEquivalence:
    def test_results_and_trace_identical(self):
        """Per-app results (timing, per-task counters, busy sums) match
        the live run exactly on replay-applied apps."""
        on = _bare_run(True)
        off = _bare_run(False)
        assert on._replay.hits > 0
        assert on.engine.now == off.engine.now
        assert on.engine.processed == off.engine.processed
        assert on.scheduler_passes == off.scheduler_passes
        assert on._port.busy_ms == off._port.busy_ms
        assert on._port.total_reconfigs == off._port.total_reconfigs
        assert _row_digest(on.trace) == _row_digest(off.trace)
        for mine, live in zip(on.results(), off.results()):
            assert mine == live
        for app_on, app_off in zip(on.retired, off.retired):
            assert app_on.first_item_start_ms == app_off.first_item_start_ms
            assert app_on.last_item_done_ms == app_off.last_item_done_ms
            assert app_on.reconfig_busy_ms == app_off.reconfig_busy_ms
            for task_id in app_on.tasks:
                assert (
                    app_on.tasks[task_id].__dict__
                    == app_off.tasks[task_id].__dict__
                )

    def test_fault_injection_forces_total_fallback(self):
        """A fault injector makes the context non-reproducible: the gate
        must refuse every arrival (no hits, no recordings) and the run
        stays digest-identical."""
        from repro.faults.injector import FaultInjector
        from repro.workload.scenarios import chaos_scenario

        fault_config = chaos_scenario("mixed").fault_config(0.2, seed=11)

        def run(replay: bool) -> Hypervisor:
            hv = Hypervisor(
                make_scheduler("nimblock"),
                faults=FaultInjector(fault_config),
            )
            if replay:
                hv._replay = ReplayCache(
                    hv,
                    scheduler_factory=lambda: make_scheduler("nimblock"),
                )
            for spec in _sparse_specs():
                hv.submit(spec.to_request())
            hv.run()
            return hv

        on = run(True)
        off = run(False)
        assert on._replay.hits == 0
        assert on._replay.recordings == 0
        assert on._replay.misses > 0
        assert _row_digest(on.trace) == _row_digest(off.trace)

    def test_observe_counters_exported(self):
        """observe_run exposes the replay hit/miss counters."""
        from repro.observe.instrument import observe_run

        hv = _bare_run(True)
        snapshot = observe_run(hv).snapshot()
        counters = {
            name: sample["value"]
            for name, sample in snapshot["counters"].items()
        }
        assert counters["nimblock_replay_hits_total"] > 0
        assert (
            counters["nimblock_replay_hits_total"]
            + counters["nimblock_replay_misses_total"]
            == len(hv.apps)
        )


@functools.lru_cache(maxsize=None)
def _live_fleet_payload(admission) -> str:
    """The replay-off, serial reference for the shared-store matrix."""
    from repro.facade import fleet

    return _payload(fleet(
        5, num_events=40, jobs=1, seed=5, admission=admission,
        rate_multiplier=1.0, replay=False,
    ))


class TestClusterEquivalence:
    # Ids: the jobs value, suffixed "d" under degrade admission.
    @pytest.mark.parametrize("jobs, admission", [
        pytest.param(jobs, admission, id=f"{jobs}{'d' if admission else ''}")
        for admission in (None, "degrade")
        for jobs in (1, 2, 3)
    ])
    def test_cluster_report_identical_with_and_without_replay(
        self, jobs, admission
    ):
        """Five boards on the zcu106/edge/hpc mix: every shard (5, 3/2
        or 2/2/1 boards) holds boards of different profiles sharing one
        segment store, and the report must not notice. At the 1x rate
        most arrivals find their board idle, so most are replayed — a
        segment recorded on one profile and applied on another would
        change the payload."""
        from repro.facade import fleet

        on = fleet(
            5, num_events=40, jobs=jobs, seed=5, admission=admission,
            rate_multiplier=1.0, replay=True,
        )
        assert _payload(on) == _live_fleet_payload(admission)

    def test_chaos_cluster_identical(self):
        from repro.facade import fleet

        on = fleet(2, num_events=16, jobs=1, seed=5, fault_rate=0.1,
                   replay=True)
        off = fleet(2, num_events=16, jobs=1, seed=5, fault_rate=0.1,
                    replay=False)
        assert json.dumps(on.to_dict(), sort_keys=True) == json.dumps(
            off.to_dict(), sort_keys=True
        )


class TestShardSegmentStore:
    """Boards of one shard share recordings, only within one world, and
    no store outlives the shard that built it."""

    @staticmethod
    def _sparse_fleet():
        from repro.cluster import Cluster, fleet_profiles
        from repro.workload.events import EventSequence

        # Round-robin over zcu106/edge/hpc/zcu106/edge/hpc; arrivals far
        # apart, so every board is idle at every arrival and records each
        # shape it has not seen in its world.
        cluster = Cluster(fleet_profiles(6), placement="round_robin", seed=1)
        cluster.submit_sequence(EventSequence([
            EventSpec(
                benchmark=("lenet", "imgc")[(index // 6) % 2],
                batch_size=4,
                priority=1,
                arrival_ms=index * 500_000.0,
            )
            for index in range(24)
        ]))
        return cluster

    def test_recordings_shared_per_world_and_scoped_to_one_run(
        self, monkeypatch
    ):
        calls = []
        original = ReplayCache._record

        def counting_record(self, request):
            calls.append(request)
            return original(self, request)

        monkeypatch.setattr(ReplayCache, "_record", counting_record)
        cluster = self._sparse_fleet()
        # (profile, request shape) per board; task[1] is the profile and
        # task[4] the placed specs.
        placed = [
            {
                (task[1].name, spec.benchmark, spec.batch_size, spec.priority)
                for spec in task[4]
            }
            for task in cluster.board_tasks()
        ]
        per_world = set().union(*placed)
        per_board = sum(len(pairs) for pairs in placed)

        first = _payload(cluster.run(jobs=1))
        assert len(calls) == len(per_world) == 6
        assert len(calls) < per_board == 12
        # A second run builds a fresh store, so it records again.
        second = _payload(cluster.run(jobs=1))
        assert len(calls) == 2 * len(per_world)
        assert first == second == _payload(cluster.run(jobs=1, replay=False))
