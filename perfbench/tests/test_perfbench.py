"""Tests of the benchmark itself, on shrunken workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import Tracer  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import (  # noqa: E402
    FleetWorkload,
    ReportWorkload,
    ServiceWorkload,
    rep_seed,
)

SATURATED = ServiceWorkload("service-saturated", rate=4.0, submissions=300,
                            min_reps=1, trace_reps=1)
LOWRATE = ServiceWorkload("service-lowrate", rate=0.2, submissions=300,
                          min_reps=1, trace_reps=2)
FLEET = FleetWorkload("fleet-64", boards=8, jobs=2, min_reps=1,
                      trace_reps=1)
REPORT = ReportWorkload("report-cold", sequences=2, events=10, min_reps=1,
                        trace_reps=1)
SMALL = [SATURATED, LOWRATE, FLEET, REPORT]

#: The default seed and the one held out while the benchmark was written.
SEEDS = (1, 7)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_shrunken_run_passes_its_check(workload, seed):
    outcome = workload.measure(workload.setup(rep_seed(seed, 0)))
    assert outcome.errors == []
    assert outcome.apps > 0 and outcome.wall_s > 0
    assert len(outcome.steps_ms) == 100


def test_same_seed_same_outcome_and_pins_hold():
    pins = run.load_pins()
    for name in ("service-saturated", "service-lowrate"):
        workload = run.WORKLOADS[name]
        seed = rep_seed(1, 0)
        first, errors = run.run_rep(workload, seed, pins)
        assert errors == []
        assert pins[name][str(seed)] == first.digest


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_self_times_fit_in_wall_time(workload):
    attempted, failed, metrics = run.per_layer(workload, 3, pins={})
    assert failed == 0 and attempted == 2 * workload.trace_reps
    values = {name: value for name, (value, _) in metrics.items()}
    spent = sum(
        value for name, value in values.items() if name.endswith(".self_s")
    ) + values["hypervisor.residual_s"]
    # Worker processes add their board time to the parent's wall time.
    budget = values["bench.traced_wall_s"] + values["cluster.board_sim_s"]
    assert 0 < spent <= budget
    assert all(value >= 0 for value in values.values())


def test_traced_lowrate_replays_like_untraced():
    seed = rep_seed(2, 0)
    plain = LOWRATE.measure(LOWRATE.setup(seed))
    tracer = Tracer()
    tracer.install()
    try:
        prepared = LOWRATE.setup(seed, tracer.span("workload.arrivals", next))
        tracer.reset()
        traced = LOWRATE.measure(prepared)
    finally:
        tracer.uninstall()
    assert plain.extras["replay_hits"] > 0
    for key in ("replay_hits", "replay_misses"):
        assert traced.extras[key] == plain.extras[key]
    assert traced.digest == plain.digest
    layer = tracer.metrics(traced.extras)
    lookups = plain.extras["replay_hits"] + plain.extras["replay_misses"]
    assert layer["sim.replay.lookups"] == lookups
    assert layer["sim.replay.hit_frac"] == pytest.approx(
        plain.extras["replay_hits"] / lookups
    )


def _slow_decide(extra: float):
    """Wrap every scheduler's ``decide`` so each call takes ``1 + extra``
    times as long; returns an undo function."""
    import repro.core.variants  # noqa: F401
    from repro.schedulers.base import SchedulerPolicy

    from layers import _subclasses

    patched = []
    for cls in _subclasses(SchedulerPolicy):
        if "decide" not in cls.__dict__:
            continue
        original = cls.__dict__["decide"]

        def decide(self, ctx, _original=original):
            started = time.perf_counter()
            result = _original(self, ctx)
            until = time.perf_counter() + extra * (
                time.perf_counter() - started
            )
            while time.perf_counter() < until:
                pass
            return result

        patched.append((cls, original))
        cls.decide = decide

    def undo():
        for cls, original in patched:
            cls.decide = original

    return undo


def test_injected_decide_slowdown_shows_end_to_end_and_per_layer():
    workload = ServiceWorkload("service-saturated", rate=4.0,
                               submissions=500, min_reps=1, trace_reps=2)
    seed = rep_seed(4, 0)
    clock = SpeedClock()
    workload.measure(workload.setup(seed), clock)  # warm caches, imports
    ratios = []
    for index in range(16):
        rates = {}
        for slow in ((False, True) if index % 2 else (True, False)):
            undo = _slow_decide(0.3) if slow else (lambda: None)
            try:
                outcome = workload.measure(workload.setup(seed), clock)
            finally:
                undo()
            rates[slow] = outcome.apps / outcome.scaled_s
        ratios.append(rates[True] / rates[False])
    # decide is ~15% of the loop's time, so +30% in decide costs ~4%.
    assert statistics.median(ratios) < 0.99

    per_call = []
    for slow in (False, True):
        undo = _slow_decide(0.3) if slow else (lambda: None)
        try:
            _, failed, metrics = run.per_layer(workload, 4, pins={})
        finally:
            undo()
        assert failed == 0
        per_call.append(
            metrics["schedulers.decide.self_s"][0]
            / metrics["schedulers.decide.calls"][0]
        )
    assert per_call[1] > 1.15 * per_call[0]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "service-saturated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
