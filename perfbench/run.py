"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload service-saturated --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: repetitions with seeds
derived from ``--seed`` run until ``--seconds`` of measured host time
have passed (and at least the workload's minimum count), host metrics
are medians over repetitions, simulated metrics come from the first
``min_reps`` repetitions, and ``setup_s`` is the median of several fresh
processes timed from spawn to the end of set-up. ``--trace 1`` runs a
fixed number of (untraced, traced) repetition pairs on the same seeds
and prints the per-layer metrics.

Every repetition's simulated outcome is checked: ledger invariants at
any seed, and the sha256 pins in ``pins.json`` at the pinned seeds. The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run manifest.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

# The program under test must be there before any repetition starts: a
# missing program is not a failed repetition.
import repro  # noqa: E402,F401
from speed import SpeedClock  # noqa: E402
from workloads import WORKLOADS, check_pin, rep_seed  # noqa: E402

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def manifest() -> dict:
    """What ran, and where: commit, interpreter, CPU, source size."""
    sha = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    loc = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as source:
            loc += sum(1 for _ in source)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "src_loc": loc,
    }


def load_pins() -> dict:
    with open(HERE / "pins.json", encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def setup_seconds(name: str, seed: int) -> float:
    """Median host time from process spawn to the end of set-up, each
    probe scaled to the nominal host speed."""
    samples = []
    clock = SpeedClock()
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - started
            probe.stdout.read()
        finally:
            probe.stdout.close()
            code = probe.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(elapsed * clock.factor())
    return statistics.median(samples)


def run_rep(workload, seed: int, pins: dict, clock=None):
    """Set up and measure one repetition; (outcome, errors)."""
    prepared = workload.setup(seed)
    outcome = workload.measure(prepared, clock)
    errors = list(outcome.errors)
    pin_error = check_pin(workload.name, seed, outcome, pins)
    if pin_error:
        errors.append(pin_error)
    return outcome, errors


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, seed: int, seconds: float, pins: dict):
    outcomes, failed, attempted = [], 0, 0
    measured = 0.0
    clock = SpeedClock()
    started = time.perf_counter()
    while attempted < workload.min_reps or (
        measured < seconds and time.perf_counter() - started < 3 * seconds
    ):
        rep = rep_seed(seed, attempted)
        attempted += 1
        try:
            outcome, errors = run_rep(workload, rep, pins, clock)
        except Exception as error:  # a failed repetition is counted
            print(f"rep {rep}: raised {error!r}", file=sys.stderr)
            failed += 1
            continue
        measured += outcome.wall_s
        if errors:
            print(f"rep {rep}: {errors}", file=sys.stderr)
            failed += 1
        outcomes.append(outcome)
        print(json.dumps({
            "rep_seed": rep, "apps": outcome.apps,
            "wall_s": outcome.wall_s, "scaled_s": outcome.scaled_s,
            "digest": outcome.digest,
            "errors": errors,
        }))
    rss = peak_rss_mb()
    if not outcomes:
        return attempted, failed, {}
    sim = outcomes[:workload.min_reps]
    metrics = {
        "apps_per_s": (statistics.median(
            o.apps / o.scaled_s for o in outcomes), "apps/s"),
        "setup_s": (setup_seconds(workload.name, rep_seed(seed, 0)), "s"),
        "peak_rss_mb": (rss, "MB"),
        "step_ms_p50": (statistics.median(
            percentile(o.steps_ms, 50) for o in outcomes), "ms"),
        "step_ms_p90": (statistics.median(
            percentile(o.steps_ms, 90) for o in outcomes), "ms"),
        "sim_served_frac": (
            sum(o.served for o in sim) / sum(o.arrived for o in sim),
            "fraction",
        ),
    }
    return attempted, failed, metrics


def per_layer(workload, seed: int, pins: dict):
    from layers import Tracer

    total = Tracer()
    attempted = failed = 0
    plain_rates, traced_rates, sketches = [], [], []
    traced_wall = 0.0
    extras: dict = {}
    for index in range(workload.trace_reps):
        rep = rep_seed(seed, index)
        attempted += 2
        tracer = Tracer()
        try:
            plain, plain_errors = run_rep(workload, rep, pins)
            tracer.install()
            try:
                prepared = workload.setup(
                    rep, tracer.span("workload.arrivals", next)
                )
                # Set-up is not part of the measured phase.
                tracer.reset()
                traced = workload.measure(prepared)
            finally:
                tracer.uninstall()
        except Exception as error:  # a failed repetition is counted
            print(f"rep {rep}: raised {error!r}", file=sys.stderr)
            failed += 2
            continue
        total.absorb(tracer)
        traced_errors = list(traced.errors)
        if traced.digest != plain.digest:
            traced_errors.append("tracing changed the simulated outcome")
        for key in ("replay_hits", "replay_misses"):
            if traced.extras.get(key) != plain.extras.get(key):
                traced_errors.append(
                    f"{key}: traced {traced.extras.get(key)} "
                    f"!= untraced {plain.extras.get(key)}"
                )
        for errors in (plain_errors, traced_errors):
            if errors:
                print(f"rep {rep}: {errors}", file=sys.stderr)
                failed += 1
        sketches.append(plain.sketch)
        plain_rates.append(plain.apps / plain.wall_s)
        traced_rates.append(traced.apps / traced.wall_s)
        traced_wall += traced.wall_s
        for key, value in traced.extras.items():
            extras[key] = extras.get(key, 0) + value
    if not traced_rates:
        return attempted, failed, {}
    metrics = {
        name: (value, unit_of(name))
        for name, value in total.metrics(extras).items()
    }
    plain_rate = statistics.median(plain_rates)
    traced_rate = statistics.median(traced_rates)
    metrics["bench.untraced_apps_per_s"] = (plain_rate, "apps/s")
    metrics["bench.traced_apps_per_s"] = (traced_rate, "apps/s")
    metrics["bench.tracing_overhead_frac"] = (
        1.0 - traced_rate / plain_rate, "fraction"
    )
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    sketch = sketches[0]
    for other in sketches[1:]:
        sketch = sketch.merge(other)
    metrics["sim.p99_response_ms"] = (sketch.quantile(0.99), "ms")
    return attempted, failed, metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    pins = load_pins()
    if args.trace:
        attempted, failed, metrics = per_layer(workload, args.seed, pins)
    else:
        attempted, failed, metrics = end_to_end(
            workload, args.seed, args.seconds, pins
        )
    print(json.dumps({"manifest": dict(
        manifest(), workload=workload.name, seed=args.seed,
        seconds=args.seconds, trace=args.trace,
        process_s=time.perf_counter() - _PROCESS_START,
    )}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
