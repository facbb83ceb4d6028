"""Auction protocol tests: bidding, least-reward selection, adjustment tactics."""

import itertools
from fractions import Fraction

import pytest

from hwrom.market import (
    AdjustPolicy,
    Announcement,
    Bid,
    Decline,
    Escalate,
    GiveUp,
    MixedTaskBidsError,
    Redecompose,
    adjust_tactics,
    compute_bid,
    select_winner,
)
from hwrom import formation as fm
from hwrom import pursuit

from conftest import cap, req, robot
from corpus import probe


def ann(task="t1", reward=5, reqs=(), round=0, deadline=10) -> Announcement:
    return Announcement(task, Fraction(reward), frozenset(reqs), round, deadline)


def ctx(cost, margin=Fraction(1, 10)):
    """A fixed cost model and its markup, as `compute_bid` takes them."""
    return (lambda r, a: Fraction(cost)), 1 + margin


class TestComputeBid:
    def test_missing_capability_declines(self):
        r = robot("R1", cap("Moving", "speed", 2))
        out = compute_bid(r, ann(reqs=[req("Sensing", "vision", 1)]), *ctx(1))
        assert isinstance(out, Decline) and out.reason == "missing_capability"

    def test_pursuit_cost_formula(self):
        # robot at (0,0) with speed 2, sub-goal at (4,0): cost 4/2 = 2,
        # margin 10% -> price 2.2 against a reward of 5
        world = pursuit.WorldState(10, 10)
        world.robots["R1"] = pursuit.RobotPose((0, 0), 2, 3)
        r = robot("R1", cap("Moving", "speed", 2))
        out = compute_bid(
            r, ann(reward=5), lambda rb, a: pursuit.robot_cost(world, rb.id_cr, (4, 0)), Fraction(11, 10)
        )
        assert isinstance(out, Bid)
        assert out.computed_cost == Fraction(2)
        assert out.price == Fraction(11, 5)

    def test_cost_above_reward_declines(self):
        r = robot("R1", cap("Moving", "speed", 2))
        out = compute_bid(r, ann(reward=1), *ctx(2))
        assert isinstance(out, Decline) and out.reason == "cost_exceeds_reward"

    def test_price_capped_at_reward(self):
        r = robot("R1")
        out = compute_bid(r, ann(reward=5), *ctx(5))
        assert isinstance(out, Bid) and out.price == Fraction(5)

    def test_price_never_below_cost(self):
        r = robot("R1")
        for cost in (0, 1, 3, 5):
            out = compute_bid(r, ann(reward=5), *ctx(cost))
            assert isinstance(out, Bid) and out.price >= out.computed_cost

    def test_zero_speed_declines(self):
        world = pursuit.WorldState(5, 5)
        world.robots["R1"] = pursuit.RobotPose((0, 0), 0, 3)
        out = compute_bid(
            robot("R1"), ann(), lambda rb, a: pursuit.robot_cost(world, rb.id_cr, (2, 2)), Fraction(11, 10)
        )
        assert isinstance(out, Decline) and out.reason == "cost_unavailable"


def bid(bidder, price, task="t1", round=0) -> Bid:
    return Bid(bidder, task, Fraction(price), Fraction(0), round)


class TestSelectWinner:
    def test_minimum_price_wins(self):
        assert select_winner([bid("R1", 5), bid("R2", 3), bid("R3", 7)]) == "R2"

    def test_tie_breaks_to_lowest_id(self):
        assert select_winner([bid("R2", 4), bid("R1", 4)]) == "R1"

    def test_empty_is_no_winner(self):
        assert select_winner([]) is None

    def test_mixed_tasks_rejected(self):
        with pytest.raises(MixedTaskBidsError):
            select_winner([bid("R1", 1, "t1"), bid("R2", 2, "t2")])

    def test_mixed_rounds_rejected(self):
        with pytest.raises(MixedTaskBidsError):
            select_winner([bid("R1", 1, round=0), bid("R2", 2, round=1)])

    def test_exhaustive_against_argmin_oracle(self):
        # all bid lists up to length 4 over a 5-value price domain here;
        # the acceptance suite pushes this to length 6
        prices = [1, 2, 3, 4, 5]
        for n in range(1, 5):
            ids = [f"R{i}" for i in range(1, n + 1)]
            for combo in itertools.product(prices, repeat=n):
                bids = [bid(r, p) for r, p in zip(ids, combo)]
                expect = min(bids, key=lambda b: (b.price, b.bidder)).bidder
                assert select_winner(bids) == expect

    def test_winner_price_is_minimal(self):
        bids = [bid("R3", 4), bid("R1", 6), bid("R2", 4)]
        winner = select_winner(bids)
        winning = min(b.price for b in bids if b.bidder == winner)
        assert all(winning <= b.price for b in bids)


class TestAdjustTactics:
    def test_reward_escalates(self):
        out = adjust_tactics(ann(reward=4, round=0), AdjustPolicy(), can_resplit=True)
        assert isinstance(out, Escalate)
        assert out.round == 1 and out.reward == Fraction(5)

    def test_redecompose_at_reward_round_cap(self):
        out = adjust_tactics(ann(round=3), AdjustPolicy(), can_resplit=True)
        assert isinstance(out, Redecompose) and out.round == 4

    def test_give_up_at_total_round_cap(self):
        out = adjust_tactics(ann(round=5), AdjustPolicy(), can_resplit=True)
        assert isinstance(out, GiveUp)

    def test_reward_sequence_strictly_increasing(self):
        policy = AdjustPolicy()
        a = ann(reward=4, round=0)
        rewards = [a.reward]
        while True:
            out = adjust_tactics(a, policy, can_resplit=True)
            if not isinstance(out, Escalate):
                break
            rewards.append(out.reward)
            a = ann(reward=out.reward, round=out.round)
        assert rewards == sorted(set(rewards))
        assert len(rewards) == policy.max_reward_rounds + 1

    def test_no_alternative_left_escalates_in_the_resplit_range(self):
        policy = AdjustPolicy()
        for round in range(policy.max_reward_rounds, policy.max_total_rounds):
            out = adjust_tactics(ann(reward=4, round=round), policy, can_resplit=False)
            assert out == Escalate(Fraction(5), round + 1)

    def test_the_ladder_gives_up_past_max_total_rounds(self):
        policy = AdjustPolicy(max_reward_rounds=2, max_total_rounds=4)
        for round in (4, 5, 9):
            for can_resplit in (True, False):
                assert adjust_tactics(ann(round=round), policy, can_resplit=can_resplit) == GiveUp()
        assert isinstance(adjust_tactics(ann(round=3), policy, can_resplit=False), Escalate)

    def test_policy_requires_positive_delta(self):
        with pytest.raises(ValueError):
            AdjustPolicy(delta=Fraction(0))

    def test_bid_below_cost_rejected(self):
        with pytest.raises(ValueError):
            Bid("R1", "t1", Fraction(1), Fraction(2))


@probe()
def escalation(mp, run):
    """After each close that opens the next round of the same task, compare
    that round's requirements and leadership, which `_open_auction` builds
    from `_requirements`, with the closed round's."""
    close = fm._close_auction

    def checked(state, event, result):
        closed = state.active_auctions.get(event.id_task)
        close(state, event, result)
        opened = state.active_auctions.get(event.id_task)
        if closed is None or opened is None or opened is closed:
            return
        run.seen["escalated"] += 1
        was, now = closed.announcement, opened.announcement
        if (now.required_capabilities, now.leadership) != (was.required_capabilities, was.leadership):
            run.find("escalation", state.now, f"{now.id_task} round {now.round}: {now} after {was}")

    mp.setattr(fm, "_close_auction", checked)


def test_an_escalated_round_keeps_the_requirements_of_the_round_before(walk):
    assert walk.assert_clean("escalation", walk)["escalated"]
