"""Regenerate ``pins.json``: simulated-outcome digests at the pinned seeds.

``python3 perfbench/pins.py`` runs every workload's first ``min_reps``
repetitions at each pinned seed and writes their digests. Re-pin only for
a change that is meant to alter simulated behaviour; a speed-only change
must leave every pin as it is.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, rep_seed  # noqa: E402

#: The default seed and one held out while the benchmark was written.
PINNED_SEEDS = (1, 7)


def main() -> int:
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for seed in PINNED_SEEDS:
            for rep in range(workload.min_reps):
                seed_r = rep_seed(seed, rep)
                outcome = workload.measure(workload.setup(seed_r))
                if outcome.errors:
                    raise SystemExit(f"{name} seed {seed_r}: {outcome.errors}")
                pins[name][str(seed_r)] = outcome.digest
                print(name, seed_r, outcome.digest, flush=True)
    with open(HERE / "pins.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
