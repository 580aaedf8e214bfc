"""The benchmark's four workloads.

Each workload turns a seed into inputs (:meth:`setup`), runs the measured
phase on them (:meth:`measure`) and checks the simulated outcome. A
workload is open-loop in simulated time: its seeded arrivals come on a
schedule whatever the board's state. Every run uses the program's
defaults: GC on, ``mode="full"``, replay on, watchdog on.

Why these four:

* ``service-saturated`` — the ROADMAP drill regime (Poisson 4/s, shed
  admission): scheduler passes, ``decide``, shedding, the watchdog and the
  trace ring do the work, and the replay cache almost never hits.
* ``service-lowrate`` — the same loop at 0.2/s: the board drains between
  arrivals, nothing is shed and the replay cache does most of the work. It
  is the counterpart of ``service-saturated`` for any replay or watchdog
  change.
* ``fleet-64`` — 64 short-lived boards behind least-loaded placement,
  simulated over two worker processes: placement, process fan-out,
  pickling and payload merge.
* ``report-cold`` — the paper-vs-measured report on a fresh in-memory
  run cache: the only workload that runs the four other schedulers,
  closed ``simulate`` runs, the ILP solver and the experiments harness.
  It runs the report's own fixed stimuli (see :meth:`ReportWorkload.setup`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: Number of host-time samples ("steps") per repetition.
STEPS = 100


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep`` of a run with ``seed``."""
    return seed * 1000 + rep


def digest(payload) -> str:
    """sha256 of a canonical JSON dump."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """One measured repetition."""

    #: Applications resolved (completed + shed + dropped).
    apps: int
    #: Host seconds of the measured phase.
    wall_s: float
    #: ``wall_s`` scaled to the nominal host speed (see ``speed.py``).
    scaled_s: float
    #: Scaled host milliseconds per step (1% of the repetition's
    #: applications).
    steps_ms: List[float]
    #: sha256 of the simulated outcome the pins compare.
    digest: str
    #: Simulated response sketch (a ``QuantileSketch``).
    sketch: object
    arrived: int
    served: int
    #: Output-check failures (empty when the repetition is correct).
    errors: List[str] = field(default_factory=list)
    #: Counters read off the result objects for the per-layer metrics.
    extras: Dict[str, float] = field(default_factory=dict)


class Feeder:
    """The benchmark's arrival feeder around an ``ArrivalProcess``.

    It passes arrivals through unchanged and stamps the host clock every
    1% of them. With ``span`` set (traced runs) the time spent inside the
    arrival iterator is recorded as that span.
    """

    def __init__(self, process, total: int, span=None) -> None:
        self.process = process
        self.total = total
        self.span = span
        self.stamps: List[float] = []

    def describe(self) -> str:
        return self.process.describe()

    def events(self, skip: int = 0) -> Iterator:
        inner = self.process.events(skip=skip)
        pull = next if self.span is None else self.span
        every = max(1, self.total // STEPS)
        stamps = self.stamps
        clock = time.perf_counter
        index = 0
        while True:
            if index % every == 0:
                stamps.append(clock())
            spec = pull(inner, None)
            if spec is None:
                return
            index += 1
            yield spec


class ServiceWorkload:
    """A ``ServiceLoop`` fed by seeded Poisson arrivals, shed admission."""

    def __init__(self, name: str, rate: float, submissions: int,
                 min_reps: int, trace_reps: int) -> None:
        self.name = name
        self.rate = rate
        self.submissions = submissions
        self.min_reps = min_reps
        self.trace_reps = trace_reps

    def setup(self, seed: int, span=None):
        from repro.service.loop import ServiceLoop
        from repro.workload.arrivals import service_rate_process

        feeder = Feeder(
            service_rate_process(self.rate, seed=seed),
            self.submissions, span,
        )
        # The same construction as ``repro.serve`` with its defaults.
        loop = ServiceLoop(
            feeder,
            scheduler="nimblock",
            admission="shed",
            seed=seed,
            max_submissions=self.submissions,
            window_ms=30_000.0,
        )
        return loop, feeder

    def measure(self, prepared, clock=None) -> Outcome:
        from repro.metrics.slo import SloTarget

        loop, feeder = prepared
        started = time.perf_counter()
        report = loop.run()
        ended = time.perf_counter()
        factor = 1.0 if clock is None else clock.factor()
        stamps = feeder.stamps[:STEPS] + [ended]
        steps_ms = [
            (b - a) * 1000.0 * factor for a, b in zip(stamps, stamps[1:])
        ]
        payload = report.to_dict()
        # Counters of the simulator's own work are left out, so a change
        # that removes events is not a change of outcome.
        for key in ("engine_events", "windows_closed"):
            payload.pop(key)
        for window in payload["windows"]["windows"]:
            window.pop("engine_events")
        payload["slo"] = {
            "loss_frac": report.loss_frac,
            "p99_ms": report.p(99.0),
            "attainment": report.slo_attainment(SloTarget()),
        }
        totals = report.totals()
        errors = []
        resolved = report.completed + report.shed + report.dropped
        if report.submitted != self.submissions:
            errors.append(
                f"submitted {report.submitted} != {self.submissions}"
            )
        if report.arrived != report.submitted:
            errors.append(
                f"arrived {report.arrived} != submitted {report.submitted}"
            )
        if resolved != report.arrived:
            errors.append(
                f"ledger: completed+shed+dropped {resolved} "
                f"!= arrived {report.arrived}"
            )
        if (totals.arrived, totals.completed, totals.shed) != (
            report.arrived, report.completed, report.shed
        ):
            errors.append("window totals disagree with the lifetime ledger")
        if len(steps_ms) != STEPS:
            errors.append(f"{len(steps_ms)} steps stamped, not {STEPS}")
        watchdog = loop.hv.watchdog
        return Outcome(
            apps=resolved,
            wall_s=ended - started,
            scaled_s=(ended - started) * factor,
            steps_ms=steps_ms,
            digest=digest(payload),
            sketch=totals.sketch,
            arrived=report.arrived,
            served=report.completed,
            errors=errors,
            extras={
                "shed": report.shed,
                "watchdog_detections": (
                    watchdog.stalls_detected + watchdog.starvations_detected
                ),
                "windows_closed": report.windows_closed,
                "replay_hits": report.replay_hits,
                "replay_misses": report.replay_misses,
            },
        )


class FleetWorkload:
    """``repro.fleet``: least-loaded placement of the 4x burst stream."""

    def __init__(self, name: str, boards: int, jobs: int, min_reps: int,
                 trace_reps: int) -> None:
        self.name = name
        self.boards = boards
        self.jobs = jobs
        self.min_reps = min_reps
        self.trace_reps = trace_reps

    def setup(self, seed: int, span=None):
        from repro.cluster import Cluster, fleet_profiles
        from repro.cluster.profiles import DEFAULT_FLEET_MIX
        from repro.experiments.ext_overload import (
            OVERLOAD_WORKLOAD,
            study_sequence,
        )
        from repro.experiments.runner import DEFAULT_EVENTS

        # The same inputs and construction as ``repro.fleet`` with its
        # defaults: 20 events per board at a 4x rate multiplier.
        sequence = study_sequence(
            OVERLOAD_WORKLOAD, seed, DEFAULT_EVENTS * self.boards, 4.0
        )
        cluster = Cluster(
            fleet_profiles(self.boards, DEFAULT_FLEET_MIX),
            placement="least_loaded",
            scheduler="nimblock",
            seed=seed,
        )
        return cluster, sequence

    def measure(self, prepared, clock=None) -> Outcome:
        cluster, sequence = prepared
        started = time.perf_counter()
        cluster.submit_sequence(sequence)
        report = cluster.run(jobs=self.jobs)
        wall_s = time.perf_counter() - started
        # Not scaled: the boards run in two worker processes across both
        # CPUs, whose speed a reference timed in this process does not
        # follow (scaling widened the run-to-run spread from 8% to 12%).
        scaled_s = wall_s
        errors = []
        if report.submitted != len(sequence):
            errors.append(
                f"submitted {report.submitted} != {len(sequence)} events"
            )
        if report.retired + report.shed != report.submitted:
            errors.append(
                f"retired {report.retired} + shed {report.shed} "
                f"!= submitted {report.submitted}"
            )
        if report.sketch.count != report.retired:
            errors.append(
                f"sketch holds {report.sketch.count} responses, "
                f"{report.retired} retired"
            )
        payload = {
            "submitted": report.submitted,
            "retired": report.retired,
            "shed": report.shed,
            "responses": report.sketch.to_dict(),
        }
        resolved = report.retired + report.shed
        return Outcome(
            apps=resolved,
            wall_s=wall_s,
            scaled_s=scaled_s,
            steps_ms=[scaled_s * 1000.0 / STEPS] * STEPS,
            digest=digest(payload),
            sketch=report.sketch,
            arrived=report.submitted,
            served=report.retired,
            errors=errors,
        )


class _ScaledSimulations:
    """Times each closed simulation the report runs and scales it by the
    references around it: a report repetition lasts ~9 s, longer than many
    of the host's speed swings, so one scale factor per repetition would
    not follow them."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._patched: list = []

    def __enter__(self) -> "_ScaledSimulations":
        from repro.experiments import parallel, runner

        for module in (runner, parallel):
            original = module.run_sequence
            self._patched.append((module, original))
            module.run_sequence = self._timed(original)
        self.clock.factor()
        return self

    def __exit__(self, *exc) -> None:
        for module, original in self._patched:
            module.run_sequence = original

    def _timed(self, run_sequence):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            results = run_sequence(*args, **kwargs)
            elapsed = time.perf_counter() - started
            self.raw_s += elapsed
            self.scaled_s += elapsed * self.clock.factor()
            return results

        return timed


class ReportWorkload:
    """``report.run`` on a fresh in-memory ``RunCache`` at ``jobs=1``."""

    #: The row whose Measured cell is a live host-time microbenchmark.
    HOST_TIMED_ROW = "§1/§6"

    def __init__(self, name: str, sequences: int, events: int,
                 min_reps: int, trace_reps: int) -> None:
        self.name = name
        self.sequences = sequences
        self.events = events
        self.min_reps = min_reps
        self.trace_reps = trace_reps

    def setup(self, seed: int, span=None):
        """The report's own stimuli, whatever ``seed`` is.

        ``nimblock-repro report`` always runs from the fixed base seed
        ``BASE_SEED``; so does this workload, at a reduced scale. At this
        scale another base seed changes the report's host time by up to
        2x and its simulated p99 by up to 10x (the stress backlog depends
        on how many AlexNet events a sequence draws), which would swamp
        any host-time change the workload is there to show.
        """
        from repro.experiments.runner import (
            BASE_SEED,
            ExperimentSettings,
            RunCache,
        )

        settings = ExperimentSettings(
            num_sequences=self.sequences,
            num_events=self.events,
            base_seed=BASE_SEED,
        )
        return RunCache(jobs=1), settings

    def measure(self, prepared, clock=None) -> Outcome:
        from repro.experiments import report as report_mod
        from repro.service.sketch import QuantileSketch
        from repro.workload.scenarios import SCENARIOS, scenario_sequence

        cache, settings = prepared
        if clock is None:
            started = time.perf_counter()
            findings = report_mod.run(settings, cache, jobs=1)
            wall_s = scaled_s = time.perf_counter() - started
        else:
            with _ScaledSimulations(clock) as sims:
                spent = clock.spent_s
                started = time.perf_counter()
                findings = report_mod.run(settings, cache, jobs=1)
                wall_s = time.perf_counter() - started
                # The references taken between simulations are not part
                # of the report.
                wall_s -= clock.spent_s - spent
            scaled_s = sims.scaled_s + (
                (wall_s - sims.raw_s) * clock.factor()
            )
        # Every cold simulation runs one sequence of ``num_events``
        # applications to completion (run_sequence raises otherwise).
        apps = cache.simulations * settings.num_events
        # Simulated responses: Nimblock on the report's scenario stimuli
        # (the Figs 5-8 runs), read back from the cache without simulating.
        sketch = QuantileSketch()
        for scenario in SCENARIOS:
            for seed in settings.seeds():
                sequence = scenario_sequence(
                    scenario, seed, settings.num_events
                )
                for result in cache.results("nimblock", sequence):
                    sketch.add(result.response_ms)
        rows = [
            [f.experiment, f.claim,
             None if f.experiment == self.HOST_TIMED_ROW else f.measured,
             f.verdict]
            for f in findings
        ]
        errors = []
        bad = [f.verdict for f in findings
               if f.verdict not in ("HELD", "PARTIAL", "DIVERGED")]
        if bad:
            errors.append(f"unknown verdicts {bad}")
        if not any(f.experiment == self.HOST_TIMED_ROW for f in findings):
            errors.append("the §1/§6 overhead row is missing")
        if cache.simulations == 0:
            errors.append("the cold cache ran no simulations")
        held = sum(1 for f in findings if f.verdict == "HELD")
        return Outcome(
            apps=apps,
            wall_s=wall_s,
            scaled_s=scaled_s,
            steps_ms=[scaled_s * 1000.0 / STEPS] * STEPS,
            digest=digest(rows),
            sketch=sketch,
            arrived=sketch.count,
            served=sketch.count,
            errors=errors,
            extras={
                "simulations": cache.simulations,
                "verdicts_held": held,
            },
        )


WORKLOADS = {
    wl.name: wl
    for wl in (
        ServiceWorkload("service-saturated", rate=4.0, submissions=500,
                        min_reps=10, trace_reps=6),
        ServiceWorkload("service-lowrate", rate=0.2, submissions=500,
                        min_reps=10, trace_reps=6),
        FleetWorkload("fleet-64", boards=64, jobs=2, min_reps=5,
                      trace_reps=2),
        ReportWorkload("report-cold", sequences=2, events=10, min_reps=2,
                       trace_reps=1),
    )
}


def check_pin(name: str, seed: int, outcome: Outcome,
              pins: Dict[str, Dict[str, str]]) -> Optional[str]:
    """An error when a pinned seed's outcome digest changed."""
    expected = pins.get(name, {}).get(str(seed))
    if expected is not None and expected != outcome.digest:
        return f"outcome digest {outcome.digest[:12]} != pin {expected[:12]}"
    return None
