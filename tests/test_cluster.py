"""Whole-fleet scale-out behaviours of the cluster tier (repro.cluster).

Dispatch across boards, every application retiring somewhere in the
fleet, and heterogeneous fleets of differently sized boards. The
placement and report edge cases live in ``test_cluster_tier.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, EDGE_BOARD, ZCU106_BOARD, fleet_profiles
from repro.errors import ClusterError
from repro.workload.events import EventSpec


def light_event(index, benchmark="lenet", batch=2):
    return EventSpec(benchmark, batch, 1, float(index * 10))


def homogeneous(num_boards, placement="least_loaded"):
    return Cluster(
        fleet_profiles(num_boards, mix=("zcu106",)), placement=placement
    )


class TestDispatch:
    def test_round_robin_rotates(self):
        fleet = homogeneous(3, placement="round_robin")
        boards = [fleet.submit(light_event(i)).board for i in range(6)]
        assert boards == [0, 1, 2, 0, 1, 2]

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ClusterError, match="placement"):
            homogeneous(2, placement="random")

    def test_zero_devices_rejected(self):
        with pytest.raises(ClusterError, match="num_boards"):
            fleet_profiles(0)


class TestExecution:
    def test_all_applications_retire_across_fleet(self):
        fleet = homogeneous(2)
        for i in range(5):
            fleet.submit(light_event(i))
        report = fleet.run(jobs=1)
        assert report.retired == 5
        assert sum(payload["retired"] for payload in report.boards) == 5

    def test_more_devices_never_hurt_much(self):
        def fleet_mean(num_boards):
            fleet = homogeneous(num_boards)
            for i in range(8):
                fleet.submit(light_event(i, benchmark="3dr", batch=4))
            return fleet.run(jobs=1).sketch.mean

        one, four = fleet_mean(1), fleet_mean(4)
        assert four < one

    def test_results_annotated_with_device(self):
        fleet = homogeneous(2, placement="round_robin")
        for i in range(4):
            fleet.submit(light_event(i))
        report = fleet.run(jobs=1)
        assert [payload["retired"] for payload in report.boards] == [2, 2]
        assert {d.board for d in fleet.decisions} == {0, 1}


class TestHeterogeneousFleet:
    def test_empty_device_configs_rejected(self):
        with pytest.raises(ClusterError, match="at least one board"):
            Cluster(())

    def test_heterogeneous_fleet_completes(self):
        fleet = Cluster((ZCU106_BOARD, EDGE_BOARD), placement="round_robin")
        for i in range(6):
            fleet.submit(light_event(i, benchmark="imgc", batch=3))
        report = fleet.run(jobs=1)
        assert report.retired == 6
        assert [payload["retired"] for payload in report.boards] == [3, 3]
