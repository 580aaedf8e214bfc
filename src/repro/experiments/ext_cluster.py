"""Extension study: scale-out across a fleet of virtualized FPGAs (§1).

The paper lists *scale-out* — "allowing applications to spread across
multiple FPGAs" — as a core virtualization feature. This study sweeps
the cluster tier from 1 to 64 boards in two ways.

**Burst scaling.** If the ext-overload burst workload grows with the
fleet (offered load and arrival rate both scale linearly with the board
count), does fleet throughput scale and does the p99 response stay flat?

Every fleet size runs the same per-board offered load — ``num_events``
and the arrival-rate multiplier both scale with ``num_boards`` — so
ideal scaling is a straight throughput line and a horizontal p99. What
bends the lines is the tier itself: placement skew, heterogeneous board
capability (the default fleet mix rotates zcu106/edge/hpc profiles) and
per-board power envelopes under ``power_aware`` placement.

**Fixed stream.** The STRESS stream of every ``settings.seeds()``
sequence runs unchanged on homogeneous zcu106 fleets, and the table
reports mean response and its speedup over the smallest fleet. Mean
response improves steeply from one to two boards and sub-linearly after:
a fixed stream can only be spread so thin, and past the knee every extra
board mostly idles. Least-loaded placement (driven by the HLS work
estimates) isolates kilosecond outliers onto their own boards, while
round-robin's even spread can win on balanced streams.

Board simulation is sharded over ``jobs`` worker processes by the
cluster tier; any ``jobs`` value produces byte-identical merged
snapshots, so the study's numbers are jobs-invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import (
    PLACEMENT_POLICIES,
    BoardProfile,
    Cluster,
    ClusterReport,
    DEFAULT_FLEET_MIX,
    fleet_profiles,
)
from repro.errors import ExperimentError
from repro.experiments.ext_overload import (
    OVERLOAD_BURST_FACTOR,
    OVERLOAD_WORKLOAD,
    study_sequence,
)
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.workload.events import EventSequence
from repro.workload.scenarios import STRESS, scenario_sequence

#: Fleet sizes swept: 1 -> 64 boards, doubling.
FLEET_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: Arrival-rate multiplier of the burst, per board. 4x is the
#: ext-overload acceptance stress point.
DEFAULT_RATE: float = 4.0


@dataclass(frozen=True)
class ClusterStudyResult:
    """Burst throughput and tail latency, and fixed-stream mean response,
    per (fleet size, placement)."""

    scheduler: str
    rate: float
    mix: Tuple[str, ...]
    fleet_sizes: Tuple[int, ...]
    placements: Tuple[str, ...]
    #: Fleet throughput, batch items per second, per (size, placement).
    throughput: Dict[Tuple[int, str], float]
    #: Merged p99 response, ms, per (size, placement).
    p99_ms: Dict[Tuple[int, str], float]
    #: Merged p50 response, ms, per (size, placement).
    p50_ms: Dict[Tuple[int, str], float]
    #: Retired applications per (size, placement).
    retired: Dict[Tuple[int, str], int]
    #: Estimated fleet energy, joules, per (size, placement).
    energy_j: Dict[Tuple[int, str], float]
    #: Merged snapshot digests per (size, placement) — the determinism
    #: witness the CI job diffs across ``--jobs`` values.
    digests: Dict[Tuple[int, str], str]
    #: Fixed-stream mean response, ms, per (size, placement): the mean
    #: over sequences of each fleet's merged mean response.
    mean_response_ms: Dict[Tuple[int, str], float]

    def scaling(self, placement: str) -> List[float]:
        """Throughput normalized to the smallest fleet."""
        base = self.throughput[(self.fleet_sizes[0], placement)]
        return [
            self.throughput[(size, placement)] / base if base > 0 else 0.0
            for size in self.fleet_sizes
        ]

    def speedup(self, placement: str) -> List[float]:
        """Fixed-stream mean response of the smallest fleet over each
        fleet's (same placement)."""
        base = self.mean_response_ms[(self.fleet_sizes[0], placement)]
        return [
            base / self.mean_response_ms[(size, placement)]
            for size in self.fleet_sizes
        ]


def _run_fleet(
    profiles: Sequence[BoardProfile],
    placement: str,
    sequence: EventSequence,
    scheduler: str,
    seed: int,
    jobs: int,
) -> ClusterReport:
    """Place one arrival stream on a fresh fleet and simulate it."""
    fleet = Cluster(
        profiles, placement=placement, scheduler=scheduler, seed=seed
    )
    fleet.submit_sequence(sequence)
    return fleet.run(jobs=jobs)


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    jobs: Optional[int] = None,
    scheduler: str = "nimblock",
    placements: Sequence[str] = PLACEMENT_POLICIES,
    fleet_sizes: Sequence[int] = FLEET_SIZES,
    rate: float = DEFAULT_RATE,
    mix: Sequence[str] = DEFAULT_FLEET_MIX,
    events_per_board: Optional[int] = None,
) -> ClusterStudyResult:
    """Sweep fleet sizes and placement policies under the burst workload.

    ``events_per_board`` defaults to ``settings.num_events`` (so a fleet
    of N boards faces ``N * num_events`` arrivals at ``N * rate`` times
    the nominal arrival rate — constant offered load per board).
    The fixed-stream sweep runs the same ``fleet_sizes`` and
    ``placements`` on homogeneous zcu106 fleets. ``cache`` contributes
    only its fan-out width: cluster cells carry placement state that the
    run cache's keys do not encode.
    """
    from repro.experiments import parallel

    settings = settings or ExperimentSettings.from_env()
    if not placements:
        raise ExperimentError("placements must be non-empty")
    if not fleet_sizes:
        raise ExperimentError("fleet_sizes must be non-empty")
    if events_per_board is None:
        events_per_board = settings.num_events
    resolved_jobs = parallel.resolve_jobs(jobs, cache)

    throughput: Dict[Tuple[int, str], float] = {}
    p99: Dict[Tuple[int, str], float] = {}
    p50: Dict[Tuple[int, str], float] = {}
    retired: Dict[Tuple[int, str], int] = {}
    energy: Dict[Tuple[int, str], float] = {}
    digests: Dict[Tuple[int, str], str] = {}
    means: Dict[Tuple[int, str], float] = {}
    stress = [
        scenario_sequence(STRESS, seed, settings.num_events)
        for seed in settings.seeds()
    ]
    for num_boards in fleet_sizes:
        sequence = study_sequence(
            OVERLOAD_WORKLOAD,
            settings.base_seed,
            events_per_board * num_boards,
            rate * num_boards,
        )
        homogeneous = fleet_profiles(num_boards, mix=("zcu106",))
        for placement in placements:
            report = _run_fleet(
                fleet_profiles(num_boards, mix), placement, sequence,
                scheduler, settings.base_seed, resolved_jobs,
            )
            key = (num_boards, placement)
            throughput[key] = report.throughput_items_per_s
            p99[key] = report.quantile_ms(0.99)
            p50[key] = report.quantile_ms(0.50)
            retired[key] = report.retired
            energy[key] = report.energy_j
            digests[key] = report.snapshot_digest()
            fixed = [
                _run_fleet(
                    homogeneous, placement, stream,
                    scheduler, settings.base_seed, resolved_jobs,
                ).sketch.mean
                for stream in stress
            ]
            means[key] = sum(fixed) / len(fixed)
    return ClusterStudyResult(
        scheduler=scheduler,
        rate=rate,
        mix=tuple(mix),
        fleet_sizes=tuple(fleet_sizes),
        placements=tuple(placements),
        throughput=throughput,
        p99_ms=p99,
        p50_ms=p50,
        retired=retired,
        energy_j=energy,
        digests=digests,
        mean_response_ms=means,
    )


def _scaling_table(
    result: ClusterStudyResult,
    value_label: str,
    value: Callable[[int, str], float],
    ratio_label: str,
    ratios: Callable[[str], List[float]],
) -> str:
    """One row per fleet size: a value and a ratio column per placement."""
    headers = ["boards"] + [
        f"{p} {value_label}" for p in result.placements
    ] + [f"{p} {ratio_label}" for p in result.placements]
    by_placement = {p: ratios(p) for p in result.placements}
    rows: List[List[object]] = []
    for row_index, size in enumerate(result.fleet_sizes):
        row: List[object] = [size]
        row.extend(value(size, p) for p in result.placements)
        row.extend(
            f"{by_placement[p][row_index]:.2f}x" for p in result.placements
        )
        rows.append(row)
    return format_table(headers, rows)


def format_result(result: ClusterStudyResult) -> str:
    """Burst throughput (and scaling) and p99 per placement, then
    fixed-stream mean response (and speedup)."""
    blocks = [
        f"Extension: cluster throughput scaling ({result.scheduler} per "
        f"board, {'/'.join(result.mix)} mix, {result.rate:g}x burst per "
        "board)\n" + _scaling_table(
            result, "(items/s)", lambda s, p: result.throughput[(s, p)],
            "scaling", result.scaling,
        )
    ]

    headers = ["boards"] + [
        f"{p} p99 (s)" for p in result.placements
    ]
    rows = []
    for size in result.fleet_sizes:
        rows.append([size] + [
            result.p99_ms[(size, p)] / 1000.0 for p in result.placements
        ])
    blocks.append(
        "Extension: cluster p99 response under per-board-constant burst "
        "load\n" + format_table(headers, rows)
    )

    blocks.append(
        "Extension: cluster mean response on a fixed STRESS stream "
        f"({result.scheduler} per board, homogeneous zcu106 fleets)\n"
        + _scaling_table(
            result, "resp (s)",
            lambda s, p: result.mean_response_ms[(s, p)] / 1000.0,
            "speedup", result.speedup,
        )
    )
    return "\n\n".join(blocks)
