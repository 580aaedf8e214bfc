"""Extension study: heterogeneous fleets (Hetero-ViTAL's setting, §6.1).

Hetero-ViTAL extends slot virtualization across *heterogeneous classes of
devices*. This study puts the cluster front-end in that setting: the same
arrival stream runs on (a) one big board, (b) a homogeneous pair of big
boards, and (c) a heterogeneous pair — one big datacenter-class board plus
one small edge-class board with fewer slots and slower reconfiguration.

Expected shapes: the heterogeneous pair lands between the single board and
the homogeneous pair (the small board adds real capacity), and
capability-normalized least-loaded dispatch places more applications on
the big board than on the small one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.experiments.runner import ExperimentSettings, format_table
from repro.hypervisor.cluster import FPGACluster
from repro.workload.scenarios import STRESS, scenario_sequence

#: The edge-class board: fewer slots, slower configuration port.
EDGE_CONFIG = SystemConfig(num_slots=4, reconfig_ms=120.0)

#: Fleet definitions: name -> list of device configs.
def fleet_definitions() -> Dict[str, List[SystemConfig]]:
    big = SystemConfig()
    return {
        "1x big": [big],
        "2x big": [big, big],
        "big + edge": [big, EDGE_CONFIG],
    }


@dataclass(frozen=True)
class HeteroResult:
    """Mean response and placement balance per fleet."""

    fleets: Tuple[str, ...]
    mean_response_ms: Dict[str, float]
    placements: Dict[str, Tuple[int, ...]]

    def response(self, fleet: str) -> float:
        """Fleet-wide mean response (ms)."""
        return self.mean_response_ms[fleet]


def run(
    settings: Optional[ExperimentSettings] = None,
    cache=None,  # harness uniformity
    *,
    jobs=None,
    scheduler: str = "nimblock",
) -> HeteroResult:
    """Run the arrival stream on each fleet definition."""
    settings = settings or ExperimentSettings.from_env()
    sequences = [
        scenario_sequence(STRESS, seed, settings.num_events)
        for seed in settings.seeds()
    ]
    means: Dict[str, float] = {}
    placements: Dict[str, Tuple[int, ...]] = {}
    for fleet_name, configs in fleet_definitions().items():
        responses: List[float] = []
        balance = [0] * len(configs)
        for sequence in sequences:
            cluster = FPGACluster(
                1, scheduler_name=scheduler, device_configs=configs,
                dispatch="least_loaded",
            )
            for request in sequence.to_requests():
                cluster.submit(request)
            cluster.run()
            responses.extend(
                r.result.response_ms for r in cluster.results()
            )
            for index, count in enumerate(cluster.device_utilization()):
                balance[index] += count
        means[fleet_name] = sum(responses) / len(responses)
        placements[fleet_name] = tuple(balance)
    return HeteroResult(
        fleets=tuple(fleet_definitions()),
        mean_response_ms=means,
        placements=placements,
    )


def format_result(result: HeteroResult) -> str:
    """Heterogeneous-fleet table."""
    headers = ["fleet", "mean response (s)", "placement"]
    rows: List[List[object]] = []
    for fleet in result.fleets:
        rows.append(
            [
                fleet,
                result.response(fleet) / 1000.0,
                "/".join(str(c) for c in result.placements[fleet]),
            ]
        )
    title = (
        "Extension: heterogeneous fleets (big = 10 slots/80 ms, "
        "edge = 4 slots/120 ms; capability-normalized dispatch)"
    )
    return f"{title}\n{format_table(headers, rows)}"
