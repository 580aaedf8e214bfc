#!/usr/bin/env python3
"""Scale-out: one arrival stream across a growing FPGA fleet.

The paper names scale-out as a core virtualization feature (§1). This
example replays the same stress-test arrival stream against fleets of one
to four zcu106 boards (each running its own Nimblock scheduler) and
compares two placement policies of the cluster tier.

Run:
    python examples/scaleout_cluster.py
"""

from __future__ import annotations

from repro import STRESS, Cluster, fleet_profiles, scenario_sequence

POLICIES = ("round_robin", "least_loaded")


def run_fleet(num_boards: int, placement: str, sequence):
    fleet = Cluster(
        fleet_profiles(num_boards, mix=("zcu106",)), placement=placement
    )
    fleet.submit_sequence(sequence)
    return fleet.run(jobs=1)


def main() -> None:
    sequence = scenario_sequence(STRESS, seed=7, num_events=20)
    print(
        f"stress stream: {len(sequence)} applications over "
        f"{sequence.span_ms / 1000:.1f} s "
        f"({', '.join(sequence.benchmarks_used())})\n"
    )

    print(f"{'boards':>8s}" + "".join(
        f"{p + ' (s)':>20s}{'placement':>14s}" for p in POLICIES
    ))
    print("-" * (8 + 34 * len(POLICIES)))
    for num_boards in (1, 2, 3, 4):
        row = f"{num_boards:8d}"
        for placement in POLICIES:
            report = run_fleet(num_boards, placement, sequence)
            mean_s = report.sketch.mean / 1000.0
            counts = "/".join(
                str(payload["submitted"]) for payload in report.boards
            )
            row += f"{mean_s:20.1f}{counts:>14s}"
        print(row)

    print(
        "\nleast-loaded placement uses the hypervisor's HLS-based work "
        "estimates, so kilosecond applications (digit recognition) land "
        "alone while short applications pack together."
    )


if __name__ == "__main__":
    main()
