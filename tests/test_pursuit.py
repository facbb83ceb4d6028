"""Grid-world tests: sensing, election, planning, cost, movement and capture."""

import itertools
from fractions import Fraction

import pytest

from hwrom import pursuit
from hwrom.pursuit import (
    EvaderState,
    EvaderUnknownError,
    RobotPose,
    UnknownRobotError,
    WorldState,
    ZeroSpeedError,
    chebyshev,
    elect_organizer,
    plan_pursuit,
    predicted_position,
    robot_cost,
    sense,
    tick_world,
)


def world(w=10, h=10) -> WorldState:
    return WorldState(w, h)


class TestSense:
    def test_same_cell_detected(self):
        wd = world()
        wd.robots["R1"] = RobotPose((5, 5), 1, 1)
        wd.evaders["e1"] = EvaderState((5, 5), 1)
        assert sense(wd, "R1") == [("e1", (5, 5), 0)]

    def test_just_outside_radius_not_detected(self):
        wd = world()
        wd.robots["R1"] = RobotPose((0, 0), 1, 3)
        wd.evaders["e1"] = EvaderState((4, 0), 1)  # distance radius+1
        assert sense(wd, "R1") == []
        wd.evaders["e1"].pos = (3, 0)
        assert sense(wd, "R1") != []

    def test_multiple_evaders_ordered_by_id(self):
        wd = world()
        wd.robots["R1"] = RobotPose((5, 5), 1, 4)
        wd.evaders["e2"] = EvaderState((6, 5), 1)
        wd.evaders["e1"] = EvaderState((4, 5), 1)
        assert [e for e, _, _ in sense(wd, "R1")] == ["e1", "e2"]

    def test_captured_evaders_not_reported(self):
        wd = world()
        wd.robots["R1"] = RobotPose((5, 5), 1, 4)
        wd.evaders["e1"] = EvaderState((5, 5), 1)
        wd.captured.add("e1")
        assert sense(wd, "R1") == []

    def test_unknown_robot(self):
        with pytest.raises(UnknownRobotError):
            sense(world(), "R9")


class TestElectOrganizer:
    def test_earliest_detection_wins(self):
        assert elect_organizer([("R2", "e1", 5), ("R7", "e1", 3)]) == "R7"

    def test_simultaneous_tie_breaks_to_lowest_id(self):
        assert elect_organizer([("R2", "e1", 3), ("R1", "e1", 3)]) == "R1"

    def test_empty_detections(self):
        assert elect_organizer([]) is None

    def test_permutation_invariant(self):
        dets = [("R2", "e1", 5), ("R7", "e1", 3), ("R1", "e2", 4)]
        winners = {elect_organizer(list(p)) for p in itertools.permutations(dets)}
        assert winners == {"R7"}


class TestPlanPursuit:
    def base_world(self) -> WorldState:
        wd = world()
        wd.robots["R1"] = RobotPose((0, 0), 1, 10)
        return wd

    def test_stationary_center_rings_four_cells(self):
        wd = self.base_world()
        wd.evaders["e1"] = EvaderState((5, 5), 1)
        subgoals = plan_pursuit(wd, "R1", "e1")
        assert {sg.cell for sg in subgoals} == {(4, 5), (6, 5), (5, 4), (5, 6)}

    def test_corner_clips_to_two(self):
        wd = self.base_world()
        wd.evaders["e1"] = EvaderState((0, 0), 1)
        subgoals = plan_pursuit(wd, "R1", "e1")
        assert {sg.cell for sg in subgoals} == {(1, 0), (0, 1)}

    def test_moving_evader_ringed_at_prediction(self):
        wd = self.base_world()
        wd.evaders["e1"] = EvaderState((5, 5), 1, intention=(1, 0))
        assert predicted_position(wd, "e1") == (6, 5)
        subgoals = plan_pursuit(wd, "R1", "e1")
        assert {sg.cell for sg in subgoals} == {(5, 5), (7, 5), (6, 4), (6, 6)}

    def test_rewards_and_required_speed(self):
        wd = self.base_world()
        wd.evaders["e1"] = EvaderState((5, 5), 2)
        subgoals = plan_pursuit(wd, "R1", "e1", base_reward=Fraction(7))
        assert all(sg.reward == Fraction(7) for sg in subgoals)
        assert all(sg.required_speed == Fraction(2) for sg in subgoals)

    def test_unknown_or_captured_evader(self):
        wd = self.base_world()
        with pytest.raises(EvaderUnknownError):
            plan_pursuit(wd, "R1", "zz")
        wd.evaders["e1"] = EvaderState((5, 5), 1)
        wd.captured.add("e1")
        with pytest.raises(EvaderUnknownError):
            plan_pursuit(wd, "R1", "e1")


class TestRobotCost:
    def test_zero_on_the_cell(self):
        wd = world()
        wd.robots["R1"] = RobotPose((4, 4), 2, 3)
        assert robot_cost(wd, "R1", (4, 4)) == 0

    def test_distance_over_speed(self):
        wd = world()
        wd.robots["R1"] = RobotPose((0, 0), 2, 3)
        assert robot_cost(wd, "R1", (4, 0)) == Fraction(2)

    def test_zero_speed_cannot_pursue(self):
        wd = world()
        wd.robots["R1"] = RobotPose((0, 0), 0, 3)
        with pytest.raises(ZeroSpeedError):
            robot_cost(wd, "R1", (4, 0))


class TestTickWorld:
    def test_lone_evader_moves_deterministically(self):
        wd = world()
        wd.evaders["e1"] = EvaderState((5, 5), 1)
        tick_world(wd, {})
        # all flee scores equal without hunters: lowest-coordinate neighbor
        assert wd.evaders["e1"].pos == (4, 4)
        again = world()
        again.evaders["e1"] = EvaderState((5, 5), 1)
        tick_world(again, {})
        assert again.evaders["e1"].pos == wd.evaders["e1"].pos

    def test_robot_moves_greedily_toward_target(self):
        wd = world()
        wd.robots["R1"] = RobotPose((0, 0), 2, 3)
        tick_world(wd, {"R1": (5, 3)})
        assert wd.robots["R1"].pos == (2, 2)

    def test_capture_needs_quorum(self):
        wd = world()
        wd.robots["R1"] = RobotPose((4, 5), 1, 3)
        wd.robots["R2"] = RobotPose((6, 5), 1, 3)
        wd.evaders["e1"] = EvaderState((5, 5), 0)  # cannot flee
        tick_world(wd, {"R1": (5, 5), "R2": (5, 5)}, capture_quorum=2)
        assert wd.captured == {"e1"}

    def test_single_adjacent_robot_is_not_capture(self):
        wd = world()
        wd.robots["R1"] = RobotPose((4, 5), 1, 3)
        wd.evaders["e1"] = EvaderState((5, 5), 0)
        tick_world(wd, {"R1": (5, 5)}, capture_quorum=2)
        assert wd.captured == set()

    def test_positions_stay_in_bounds(self):
        wd = world(6, 6)
        wd.robots["R1"] = RobotPose((5, 5), 3, 3)
        wd.evaders["e1"] = EvaderState((0, 0), 2)
        for _ in range(12):
            tick_world(wd, {"R1": (9, 9)})
            assert wd.in_bounds(wd.robots["R1"].pos)
            assert wd.in_bounds(wd.evaders["e1"].pos)

    def test_captured_set_is_monotone(self):
        wd = world()
        wd.robots["R1"] = RobotPose((4, 5), 1, 5)
        wd.robots["R2"] = RobotPose((6, 5), 1, 5)
        wd.evaders["e1"] = EvaderState((5, 5), 0)
        seen: set[str] = set()
        for _ in range(6):
            tick_world(wd, {"R1": (5, 5), "R2": (5, 5)})
            assert seen <= wd.captured
            seen = set(wd.captured)

    def test_captured_evader_stops_moving(self):
        wd = world()
        wd.robots["R1"] = RobotPose((4, 5), 1, 5)
        wd.robots["R2"] = RobotPose((6, 5), 1, 5)
        wd.evaders["e1"] = EvaderState((5, 5), 0)
        tick_world(wd, {"R1": (5, 5), "R2": (5, 5)})
        assert "e1" in wd.captured
        frozen = wd.evaders["e1"].pos
        tick_world(wd, {})
        assert wd.evaders["e1"].pos == frozen

    def test_flee_maximizes_minimum_distance(self):
        wd = world()
        wd.robots["R1"] = RobotPose((4, 5), 1, 5)
        wd.evaders["e1"] = EvaderState((5, 5), 1)
        tick_world(wd, {})
        assert chebyshev(wd.evaders["e1"].pos, wd.robots["R1"].pos) >= 2

    def test_fast_evader_stops_stepping_once_it_stays(self, monkeypatch):
        flee_step, calls = pursuit._flee_step, [0]

        def capped(*args):
            calls[0] += 1
            assert calls[0] <= 100, "the evader kept stepping after it stayed"
            return flee_step(*args)

        monkeypatch.setattr(pursuit, "_flee_step", capped)
        wd = world()
        wd.robots["R1"] = RobotPose((0, 0), 1, 5)
        wd.evaders["e1"] = EvaderState((5, 5), 10**6)
        tick_world(wd, {})
        # four steps away to the far edge, one along it to the first cell of
        # best score in (x, y) order, then one stay
        assert wd.evaders["e1"].pos == (0, 9)
        assert wd.evaders["e1"].intention == (0, 0)
        assert calls[0] == 6
