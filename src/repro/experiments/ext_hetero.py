"""Extension study: heterogeneous fleets (Hetero-ViTAL's setting, §6.1).

Hetero-ViTAL extends slot virtualization across *heterogeneous classes of
devices*. This study puts the cluster tier in that setting: the same
arrival stream runs on (a) one big board, (b) a homogeneous pair of big
boards, and (c) a heterogeneous pair — one big datacenter-class board plus
one small edge-class board with fewer slots and slower reconfiguration
(the ``zcu106`` and ``edge`` board profiles).

Expected shapes: the heterogeneous pair lands between the single board and
the homogeneous pair (the small board adds real capacity), and
capability-normalized least-loaded placement puts more estimated work on
the big board than on the small one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster import EDGE_BOARD, ZCU106_BOARD, BoardProfile, Cluster
from repro.experiments.runner import ExperimentSettings, format_table
from repro.workload.scenarios import STRESS, scenario_sequence

#: Fleet definitions: name -> board profiles.
FLEETS: Dict[str, Tuple[BoardProfile, ...]] = {
    "1x big": (ZCU106_BOARD,),
    "2x big": (ZCU106_BOARD, ZCU106_BOARD),
    "big + edge": (ZCU106_BOARD, EDGE_BOARD),
}


@dataclass(frozen=True)
class HeteroResult:
    """Mean response, placement balance and estimated work per fleet."""

    fleets: Tuple[str, ...]
    mean_response_ms: Dict[str, float]
    placements: Dict[str, Tuple[int, ...]]
    #: Estimated work (ms) placed on each board, summed over sequences.
    work_ms: Dict[str, Tuple[float, ...]]

    def response(self, fleet: str) -> float:
        """Mean over sequences of the fleet's mean response (ms)."""
        return self.mean_response_ms[fleet]


def run(
    settings: Optional[ExperimentSettings] = None,
    cache=None,
    *,
    jobs=None,
    scheduler: str = "nimblock",
) -> HeteroResult:
    """Run the arrival stream on each fleet under least-loaded placement."""
    from repro.experiments import parallel

    settings = settings or ExperimentSettings.from_env()
    resolved_jobs = parallel.resolve_jobs(jobs, cache)
    sequences = [
        scenario_sequence(STRESS, seed, settings.num_events)
        for seed in settings.seeds()
    ]
    means: Dict[str, float] = {}
    placements: Dict[str, Tuple[int, ...]] = {}
    work: Dict[str, Tuple[float, ...]] = {}
    for fleet_name, profiles in FLEETS.items():
        responses: List[float] = []
        balance = [0] * len(profiles)
        load = [0.0] * len(profiles)
        for sequence in sequences:
            fleet = Cluster(
                profiles, placement="least_loaded", scheduler=scheduler,
                seed=settings.base_seed,
            )
            fleet.submit_sequence(sequence)
            report = fleet.run(jobs=resolved_jobs)
            responses.append(report.sketch.mean)
            for payload in report.boards:
                balance[payload["board"]] += payload["submitted"]
            for index in range(len(profiles)):
                load[index] += fleet.board_load_ms(index)
        means[fleet_name] = sum(responses) / len(responses)
        placements[fleet_name] = tuple(balance)
        work[fleet_name] = tuple(load)
    return HeteroResult(
        fleets=tuple(FLEETS),
        mean_response_ms=means,
        placements=placements,
        work_ms=work,
    )


def format_result(result: HeteroResult) -> str:
    """Heterogeneous-fleet table."""
    headers = ["fleet", "mean response (s)", "placement", "est. work (s)"]
    rows: List[List[object]] = []
    for fleet in result.fleets:
        rows.append(
            [
                fleet,
                result.response(fleet) / 1000.0,
                "/".join(str(c) for c in result.placements[fleet]),
                "/".join(f"{w / 1000.0:.0f}" for w in result.work_ms[fleet]),
            ]
        )
    big, edge = ZCU106_BOARD, EDGE_BOARD
    title = (
        f"Extension: heterogeneous fleets (big = {big.num_slots} slots/"
        f"{big.reconfig_ms:g} ms, edge = {edge.num_slots} slots/"
        f"{edge.reconfig_ms:g} ms; capability-normalized placement)"
    )
    return f"{title}\n{format_table(headers, rows)}"
