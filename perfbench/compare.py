"""Same-host A/B of two checkouts with the same benchmark code.

Usage::

    python3 perfbench/compare.py BASE_DIR HEAD_DIR --workload service-saturated

``BASE_DIR`` and ``HEAD_DIR`` are checkouts (each with ``src/`` and this
``perfbench/`` directory). Run ``i`` uses seed ``seed0 + i`` on both
sides and alternates which side runs first. For every end-to-end metric
it prints each side's median and quartiles, how many pairs the head won,
and a verdict by the rules of ``README.md``: a *gain* needs wins in at
least nine tenths of the pairs and a median difference larger than the
base's own quartile spread; a *regression* is a head median worse than
the base median by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} failed its output check")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [
        values[0]] * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"base": [], "head": []}
    for index in range(args.runs):
        seed = args.seed0 + index
        order = ("base", "head") if index % 2 == 0 else ("head", "base")
        for side in order:
            sides[side].append(run_once(
                getattr(args, side), args.workload, seed, seconds
            ))
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [run[name] for run in sides["base"]]
        head = [run[name] for run in sides["head"]]
        wins = sum(
            (h < b) if lower else (h > b) for b, h in zip(base, head)
        )
        qb, qh = quartiles(base), quartiles(head)
        change = (qh[1] - qb[1]) / qb[1] if qb[1] else 0.0
        worse = change if lower else -change
        if worse > metric["bound"]:
            verdict = "REGRESSION"
        elif wins >= 0.9 * len(base) and abs(qh[1] - qb[1]) > qb[2] - qb[0]:
            verdict = "gain"
        else:
            verdict = "no change shown"
        print(
            f"{args.workload:18s} {name:20s} base {qb[1]:.5g} "
            f"[{qb[0]:.5g}, {qb[2]:.5g}]  head {qh[1]:.5g} "
            f"[{qh[0]:.5g}, {qh[2]:.5g}]  {change:+.1%}  "
            f"head won {wins}/{len(base)}  {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
