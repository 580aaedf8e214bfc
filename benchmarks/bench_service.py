"""Service bench: open-loop throughput and memory of the service tier.

Drives :class:`repro.service.loop.ServiceLoop` with seeded Poisson
arrivals at sustained load and measures what the closed-run benches
cannot: engine events per second *while feeding incrementally*, arrivals
retired per second, and the peak resident set of a run whose submission
count dwarfs anything a materialized sequence could hold.

Standalone usage::

    # print throughput at the default scale (50k submissions)
    python benchmarks/bench_service.py

    # the acceptance drill: one million open-loop submissions, recorded
    # as a trajectory entry under "service_history" in BENCH_core.json
    python benchmarks/bench_service.py --bench

    # CI smoke: run two scales under tracemalloc and fail unless peak
    # traced memory stays flat (O(1) in the submission count)
    python benchmarks/bench_service.py --fast

The ``--fast`` memory check holds the *window* count constant across the
two scales (window width grows with the span) so it isolates per-
submission state: the windowed aggregates are the run's output and grow
with simulated time by design, while apps, trace rows and the engine
heap must not grow with submissions at all.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict

from repro.service.loop import ServiceLoop
from repro.workload.arrivals import service_rate_process

#: Trajectory file shared with bench_core (separate top-level key).
DEFAULT_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: The acceptance drill: one million open-loop submissions.
DRILL_SUBMISSIONS = 1_000_000

#: Arrival rate of the drill (events/s). High enough that the board runs
#: saturated (shedding active), low enough that every window completes
#: work — the regime the service tier exists for.
DRILL_RATE_PER_S = 4.0

#: Maximum tolerated peak-memory growth between the --fast scales (4x
#: more submissions; flat is ~1.0, linear retention would be ~4).
FAST_MEMORY_RATIO = 2.0


def run_service(
    submissions: int,
    rate_per_s: float = DRILL_RATE_PER_S,
    window_ms: float = 60_000.0,
    scheduler: str = "nimblock",
    admission: str = "shed",
    seed: int = 1,
    disable_gc: bool = False,
    replay: bool = True,
):
    """One measured service run; returns the finished report.

    ``disable_gc`` suspends the cyclic collector for the measured run
    (restoring its previous state afterwards): the service tier's
    steady-state object population is refcount-managed — app runs and
    engine entries drop to zero references at retirement — so collector
    sweeps only add jitter to throughput measurements. Memory smokes
    must keep it off so leaks stay observable.
    """
    arrivals = service_rate_process(rate_per_s, seed=seed)
    loop = ServiceLoop(
        arrivals,
        scheduler,
        admission=admission,
        seed=seed,
        max_submissions=submissions,
        window_ms=window_ms,
        replay=replay,
    )
    if not disable_gc:
        return loop.run()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return loop.run()
    finally:
        if was_enabled:
            gc.enable()


def _check_shapes(report, submissions: int) -> None:
    """The invariants any service run must satisfy."""
    assert report.arrived == submissions
    assert report.completed + report.shed + report.dropped \
        == report.arrived, "arrival ledger must balance"
    assert report.completed > 0, "a drill that completes nothing is noise"
    assert report.windows_closed > 0


def measure(
    submissions: int,
    rate_per_s: float = DRILL_RATE_PER_S,
    replay: bool = True,
) -> Dict:
    """One full measurement: throughput rates plus peak RSS."""
    report = run_service(
        submissions, rate_per_s=rate_per_s, disable_gc=True, replay=replay,
    )
    _check_shapes(report, submissions)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempts = report.replay_hits + report.replay_misses
    return {
        "schema": 3,
        "replay": replay,
        "replay_hits": report.replay_hits,
        "replay_misses": report.replay_misses,
        "replay_hit_rate": round(
            report.replay_hits / attempts if attempts else 0.0, 4
        ),
        "scale": {
            "submissions": submissions,
            "rate_per_s": rate_per_s,
            "scheduler": report.scheduler,
            "admission": report.admission,
            "window_ms": report.window_ms,
        },
        "engine_events": report.engine_events,
        "engine_events_per_sec": round(report.engine_events / report.wall_s),
        "arrivals_per_sec": round(report.arrived / report.wall_s),
        "completed": report.completed,
        "shed": report.shed,
        "windows_closed": report.windows_closed,
        "span_ms": round(report.span_ms),
        "wall_s": round(report.wall_s, 3),
        "peak_rss_kb": peak_rss_kb,
    }


def print_measurement(entry: Dict) -> None:
    scale = entry["scale"]
    print(
        f"service bench: {scale['submissions']:,} submissions at "
        f"{scale['rate_per_s']:g}/s ({scale['scheduler']}, "
        f"{scale['admission']})"
    )
    if entry.get("schema", 2) >= 3:
        print(
            f"replay:     {entry['replay_hits']:>12,} hits / "
            f"{entry['replay_misses']:,} misses "
            f"(hit rate {entry['replay_hit_rate']:.2%})"
        )
    print(
        f"engine:     {entry['engine_events_per_sec']:>12,} events/sec "
        f"({entry['engine_events']:,} events in {entry['wall_s']}s)"
    )
    print(
        f"arrivals:   {entry['arrivals_per_sec']:>12,} retired/sec "
        f"({entry['completed']:,} completed, {entry['shed']:,} shed)"
    )
    print(
        f"memory:     {entry['peak_rss_kb']:>12,} kB peak RSS over "
        f"{entry['windows_closed']:,} windows "
        f"({entry['span_ms'] / 1000.0:,.0f}s simulated)"
    )


def test_service_throughput(benchmark):
    """pytest-benchmark entry: a mid-scale sustained run."""
    report = benchmark.pedantic(
        lambda: run_service(10_000), rounds=1, iterations=1,
    )
    _check_shapes(report, 10_000)

    from conftest import emit

    emit(report.format())


# -- standalone modes -------------------------------------------------------
def _bench(submissions: int, out: Path) -> int:
    entry = measure(submissions)
    print_measurement(entry)
    entry = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        **entry,
    }
    if out.exists():
        trajectory = json.loads(out.read_text(encoding="utf-8"))
    else:
        trajectory = {"bench": "core", "unit": "events/sec", "history": []}
    trajectory.setdefault("service_history", []).append(entry)
    out.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    print(f"\nrecorded service trajectory entry -> {out}")
    return 0


def _traced_peak(submissions: int, window_ms: float) -> int:
    """Peak traced allocation (bytes) of one service run."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    report = run_service(submissions, window_ms=window_ms)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    _check_shapes(report, submissions)
    return peak


def _fast_smoke() -> int:
    """CI smoke: O(1) memory in the submission count.

    4x the submissions with 4x the window width (same window count, so
    the output aggregates are held constant) must not come close to 4x
    the peak traced memory.
    """
    small, large = 2_000, 8_000
    small_peak = _traced_peak(small, window_ms=60_000.0)
    large_peak = _traced_peak(large, window_ms=240_000.0)
    ratio = large_peak / small_peak
    print(
        f"peak traced memory: {small:,} subs -> {small_peak / 1e6:.1f} MB, "
        f"{large:,} subs -> {large_peak / 1e6:.1f} MB "
        f"(ratio {ratio:.2f}, limit {FAST_MEMORY_RATIO})"
    )
    if ratio >= FAST_MEMORY_RATIO:
        print("service smoke: FAILED — memory grows with submissions")
        return 1
    print("service smoke: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Service bench: open-loop events/sec + peak RSS."
    )
    parser.add_argument(
        "--submissions", type=int, default=50_000,
        help="arrivals to feed (default 50k; --bench uses 1M)",
    )
    parser.add_argument(
        "--bench", action="store_true",
        help=f"run the {DRILL_SUBMISSIONS:,}-submission drill and append "
             "a trajectory entry to BENCH_core.json",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="CI smoke: two tracemalloc'd scales, fail on memory growth",
    )
    parser.add_argument(
        "--bench-out", default=str(DEFAULT_BENCH_PATH),
        help="trajectory file (default: repo-root BENCH_core.json)",
    )
    args = parser.parse_args(argv)

    if args.fast:
        return _fast_smoke()
    if args.bench:
        return _bench(DRILL_SUBMISSIONS, Path(args.bench_out))
    entry = measure(args.submissions)
    print_measurement(entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
