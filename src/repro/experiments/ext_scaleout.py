"""Extension study: scale-out across a fleet of virtualized FPGAs (§1).

The cluster tier (:mod:`repro.cluster`) dispatches whole applications to
one of ``N`` Nimblock-scheduled boards. We sweep fleet sizes under a
heavy arrival stream and compare placement policies on mean response.

Historically this study ran on the toy ``FPGACluster`` front-end and
capped out at four homogeneous devices; it now drives the real cluster
tier — homogeneous zcu106 fleets for continuity with the old numbers —
and sweeps to 64 boards, sharding board simulation over ``jobs`` worker
processes.

Expected shapes: mean response improves steeply from one to two boards
and sub-linearly after (a fixed arrival stream can only be spread so
thin — past the knee every extra board mostly idles). The dispatch
policies trade blows: least-loaded (driven by the hypervisor's HLS work
estimates) isolates kilosecond outliers onto their own boards, while
round-robin's even spread can win on balanced streams — neither
dominates across workloads, which is itself the finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster import Cluster, fleet_profiles
from repro.experiments.runner import (
    ExperimentSettings,
    format_table,
)
from repro.workload.scenarios import STRESS, scenario_sequence

#: Fleet sizes swept: 1 -> 64, doubling (the old front-end stopped at 4).
FLEET_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: Placement policies compared (the old study's two dispatch policies,
#: now backed by the cluster tier's placement registry).
DISPATCH_POLICIES: Tuple[str, ...] = ("round_robin", "least_loaded")


@dataclass(frozen=True)
class ScaleOutResult:
    """Mean response per (fleet size, placement policy)."""

    scheduler: str
    mean_response_ms: Dict[Tuple[int, str], float]
    placements: Dict[Tuple[int, str], List[int]]

    def response(self, devices: int, dispatch: str) -> float:
        """Mean response (ms) for one fleet configuration."""
        return self.mean_response_ms[(devices, dispatch)]

    def speedup(self, devices: int, dispatch: str) -> float:
        """Improvement over the single-device fleet (same placement)."""
        return self.response(1, dispatch) / self.response(devices, dispatch)


def run(
    settings: Optional[ExperimentSettings] = None,
    cache=None,  # accepted for harness uniformity
    *,
    jobs=None,
    scheduler: str = "nimblock",
    fleet_sizes: Tuple[int, ...] = FLEET_SIZES,
) -> ScaleOutResult:
    """Sweep fleet sizes and placement policies on one arrival stream."""
    from repro.experiments import parallel

    settings = settings or ExperimentSettings.from_env()
    resolved_jobs = parallel.resolve_jobs(jobs, cache)
    sequences = [
        scenario_sequence(STRESS, seed, settings.num_events)
        for seed in settings.seeds()
    ]
    means: Dict[Tuple[int, str], float] = {}
    placements: Dict[Tuple[int, str], List[int]] = {}
    for devices in fleet_sizes:
        for dispatch in DISPATCH_POLICIES:
            responses: List[float] = []
            balance = [0] * devices
            for sequence in sequences:
                fleet = Cluster(
                    fleet_profiles(devices, mix=("zcu106",)),
                    placement=dispatch,
                    scheduler=scheduler,
                    seed=settings.base_seed,
                )
                fleet.submit_sequence(sequence)
                report = fleet.run(jobs=resolved_jobs)
                for payload in report.boards:
                    balance[payload["board"]] += payload["submitted"]
                responses.append(report.sketch.mean)
            means[(devices, dispatch)] = sum(responses) / len(responses)
            placements[(devices, dispatch)] = balance
    return ScaleOutResult(
        scheduler=scheduler, mean_response_ms=means, placements=placements
    )


def format_result(result: ScaleOutResult) -> str:
    """Extension table: fleet size vs mean response per placement."""
    headers = ["devices"] + [
        f"{d} resp (s)" for d in DISPATCH_POLICIES
    ] + [f"{d} speedup" for d in DISPATCH_POLICIES]
    rows: List[List[object]] = []
    sizes = sorted({devices for devices, _ in result.mean_response_ms})
    for devices in sizes:
        row: List[object] = [devices]
        row.extend(
            result.response(devices, dispatch) / 1000.0
            for dispatch in DISPATCH_POLICIES
        )
        row.extend(
            f"{result.speedup(devices, dispatch):.2f}x"
            for dispatch in DISPATCH_POLICIES
        )
        rows.append(row)
    title = (
        f"Extension: scale-out across virtualized FPGAs "
        f"({result.scheduler} per device)"
    )
    return f"{title}\n{format_table(headers, rows)}"
