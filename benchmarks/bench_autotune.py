#!/usr/bin/env python3
"""Autotune bench: remediation is free when off, deterministic when on.

Three claims are pinned here:

* **Disabled is free.** A service run without an :class:`AutotuneConfig`
  executes zero remediation code: the only hot-path addition is an
  ``if self._tuner is not None`` guard, and no ``repro.autotune`` module
  is even imported (checked in a subprocess). A timing ratio between the
  un-armed path before/after arming exists backs the structural check.
* **Armed-but-quiet is invisible.** Arming the tuner over a calm
  workload (no symptoms fire) must yield a report payload identical to
  the un-armed run once the empty ``decisions``/``applies`` keys are
  stripped — the closed loop only perturbs a run it actually patches.
* **Decisions are reproducible.** The overload drill
  (:func:`repro.facade.tune`) at guard scale produces byte-identical
  JSON at ``--jobs 1`` and ``--jobs 2``, and its payload digest matches
  the golden pin below — any change to detector thresholds, proposer
  rules, verifier ranking, or the apply boundary shows up as a pin
  break, which is the point: re-pin deliberately, never accidentally.

Standalone usage::

    python benchmarks/bench_autotune.py --guard [--fast]  # CI gate
    python benchmarks/bench_autotune.py --bench [--fast]  # record timings

``--bench`` appends one entry to ``BENCH_autotune.json`` (repo root).
``--guard`` exits non-zero if any structural, equality, determinism or
golden-pin check fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

#: Default output of ``--bench`` mode.
DEFAULT_BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_autotune.json"
)

#: The un-armed path may cost at most this fraction of the armed-quiet
#: path (1.05 = within 5%; in practice it is strictly cheaper).
GUARD_THRESHOLD = 1.05

#: Calm workload for the armed-but-quiet equality check: 0.2/s Poisson
#: never backs the queue up, so no symptom can fire.
QUIET_TASK = ("nimblock", "unbounded", 0.2, 0.0, 1, 40, 10_000.0, True)

#: Subprocess probe: a plain service run must not import repro.autotune.
_STRUCTURAL_PROBE = """
import sys
from repro.facade import serve
report = serve('nimblock', rate=1.0, submissions=40)
assert report.completed + report.shed + report.dropped == report.arrived
bad = sorted(m for m in sys.modules if 'autotune' in m)
if bad:
    raise SystemExit('autotune modules loaded on a plain run: %s' % bad)
"""


def structural_check() -> None:
    """A plain service run must not load repro.autotune (raises)."""
    subprocess.run([sys.executable, "-c", _STRUCTURAL_PROBE], check=True)


def armed_quiet_check() -> None:
    """Armed over a calm run == un-armed run, byte for byte."""
    from repro.autotune import AutotuneConfig
    from repro.experiments.parallel import service_cells

    plain, armed = service_cells(
        [QUIET_TASK, QUIET_TASK + (AutotuneConfig(),)], jobs=1
    )
    if armed.get("decisions") or armed.get("applies"):
        raise SystemExit(
            f"armed-quiet run made decisions: {armed['decisions']}"
        )
    stripped = {
        k: v for k, v in armed.items() if k not in ("decisions", "applies")
    }
    if stripped != plain:
        raise SystemExit(
            "armed-but-quiet payload differs from the un-armed run"
        )


def drill_payload(jobs: int, fast: bool) -> dict:
    """The overload drill at guard or full scale."""
    from repro.facade import tune

    if fast:
        return tune(rate=2.0, submissions=240, seed=1,
                    window_ms=10_000.0, jobs=jobs)
    return tune(rate=1.0, submissions=600, seed=1,
                window_ms=10_000.0, jobs=jobs)


def determinism_check(fast: bool) -> dict:
    """Drill payload must be byte-identical at jobs 1 and jobs 2."""
    serial = drill_payload(1, fast)
    sharded = drill_payload(2, fast)
    a = json.dumps(serial, sort_keys=True)
    b = json.dumps(sharded, sort_keys=True)
    if a != b:
        raise SystemExit("tune() payload differs between --jobs 1 and 2")
    return serial


def golden_pin_check(payload: dict, pins: Dict[bool, str], fast: bool):
    pinned = pins.get(fast)
    if pinned is None:
        return
    if payload["digest"] != pinned:
        raise SystemExit(
            f"tune() digest {payload['digest']} != golden pin {pinned}; "
            "re-pin only for a deliberate pipeline change"
        )


def _load_pins() -> Dict[bool, str]:
    """Golden digests live next to this file, keyed by scale."""
    path = Path(__file__).with_suffix(".golden.json")
    if not path.exists():
        return {}
    raw = json.loads(path.read_text())
    return {entry["fast"]: entry["digest"] for entry in raw}


def _write_pin(payload: dict, fast: bool) -> Path:
    path = Path(__file__).with_suffix(".golden.json")
    raw = json.loads(path.read_text()) if path.exists() else []
    raw = [entry for entry in raw if entry["fast"] != fast]
    raw.append({"fast": fast, "digest": payload["digest"]})
    raw.sort(key=lambda entry: entry["fast"])
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return path


def measure(fast: bool) -> Dict[str, float]:
    """Interleaved un-armed/armed-quiet medians (absorbs drift)."""
    from repro.autotune import AutotuneConfig
    from repro.experiments.parallel import service_cells

    # replay=False on both sides: arming disables the replay cache, so
    # a replaying un-armed run would pay cache recording the armed run
    # skips — the timing must compare live path against live path.
    submissions = 120 if fast else 400
    task = QUIET_TASK[:5] + (submissions,) + QUIET_TASK[6:7] + (False,)
    repetitions = 3 if fast else 5
    service_cells([task], jobs=1)  # warm caches
    plain: List[float] = []
    armed: List[float] = []
    for _ in range(repetitions):
        for bucket, cell in ((plain, task),
                             (armed, task + (AutotuneConfig(),))):
            started = time.perf_counter()
            service_cells([cell], jobs=1)
            bucket.append(time.perf_counter() - started)
    plain_s = statistics.median(plain)
    armed_s = statistics.median(armed)
    return {
        "plain_s": plain_s,
        "armed_quiet_s": armed_s,
        "armed_overhead_pct": 100.0 * (armed_s / plain_s - 1.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", action="store_true",
                        help="record a timing entry to BENCH_autotune.json")
    parser.add_argument("--guard", action="store_true",
                        help="CI mode: fail on structural, equality, "
                             "determinism or golden-pin drift")
    parser.add_argument("--pin", action="store_true",
                        help="(re)write the golden digest for this scale")
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale for CI")
    parser.add_argument("--out", type=Path, default=DEFAULT_BENCH_PATH)
    args = parser.parse_args(argv)

    structural_check()
    print("structural check: plain runs import no autotune module")
    armed_quiet_check()
    print("armed-but-quiet check: payload identical to the un-armed run")

    payload = determinism_check(args.fast)
    print(
        f"determinism check: --jobs 1 == --jobs 2 "
        f"(digest {payload['digest'][:16]}..., "
        f"{payload['tuned'].get('applies', 0)} applies)"
    )
    if args.pin:
        path = _write_pin(payload, args.fast)
        print(f"pinned digest -> {path}")
    else:
        golden_pin_check(payload, _load_pins(), args.fast)
        print("golden pin check: digest matches")

    timings = measure(args.fast)
    print(
        f"plain {timings['plain_s'] * 1e3:8.1f} ms   "
        f"armed-quiet {timings['armed_quiet_s'] * 1e3:8.1f} ms   "
        f"armed overhead {timings['armed_overhead_pct']:+.1f}%"
    )

    if args.guard:
        ratio = timings["plain_s"] / timings["armed_quiet_s"]
        if ratio > GUARD_THRESHOLD:
            print(
                f"GUARD FAILED: un-armed path at {ratio:.3f}x of the "
                f"armed path (limit {GUARD_THRESHOLD}) — the no-tuner "
                "path is doing remediation work",
                file=sys.stderr,
            )
            return 1
        print(f"overhead guard OK (plain/armed = {ratio:.3f})")

    if args.bench:
        entry = {
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            "fast": args.fast,
            "digest": payload["digest"],
            **{k: round(v, 6) for k, v in timings.items()},
        }
        history = []
        if args.out.exists():
            history = json.loads(args.out.read_text())
        history.append(entry)
        args.out.write_text(json.dumps(history, indent=2) + "\n")
        print(f"recorded -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
