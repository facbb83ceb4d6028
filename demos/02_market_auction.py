"""The auction protocol in isolation: pricing, selection, adjustment tactics.

Three robots price the same announcement from different cost positions; the
cheapest ask wins. Then a task nobody wants shows the escalation ladder:
reward rises, then the task re-splits, then the auction gives up.
`adjust_tactics` only decides the next tactic; as in the formation engine,
whose `_open_auction` builds each round's announcement, the caller builds
the next round from that decision.
"""

from fractions import Fraction

from hwrom.market import (
    AdjustPolicy,
    Announcement,
    Bid,
    Decline,
    Escalate,
    GiveUp,
    Redecompose,
    adjust_tactics,
    compute_bid,
    select_winner,
)
from hwrom.org_core import Capability, CapabilityKind, CapabilityRequirement, CooperativeRobot


def robot(rid: str, *caps) -> CooperativeRobot:
    return CooperativeRobot(rid, frozenset(caps))


def main() -> None:
    need_welding = frozenset({CapabilityRequirement(CapabilityKind.ACTION, "weld", Fraction(1))})
    announcement = Announcement("fix-hull", Fraction(8), need_welding, deadline=5)

    costs = {"R1": Fraction(4), "R2": Fraction(3), "R3": Fraction(9)}
    markup = 1 + Fraction(1, 10)  # a 10% margin over cost

    welder = Capability(CapabilityKind.ACTION, "weld", Fraction(2))
    bids: list[Bid] = []
    print(f"announcement: {announcement.id_task} at reward {announcement.reward}")
    for rid in ("R1", "R2", "R3", "R4"):
        caps = (welder,) if rid != "R4" else ()
        decision = compute_bid(robot(rid, *caps), announcement, lambda r, a: costs[r.id_cr], markup)
        if isinstance(decision, Decline):
            print(f"  {rid} declines: {decision.reason}")
        else:
            print(f"  {rid} bids {decision.price} (cost {decision.computed_cost})")
            bids.append(decision)

    winner = select_winner(bids)
    print(f"least-reward winner: {winner}\n")

    print("tactic ladder for a task nobody bids on (reward 4, delta 1/4):")
    policy = AdjustPolicy()
    current = Announcement("impossible", Fraction(4), frozenset(), deadline=5)
    while True:
        tactic = adjust_tactics(current, policy, can_resplit=True)
        if isinstance(tactic, GiveUp):
            print("  give up: hand the problem to the leader's allocation right")
            break
        reward = current.reward
        if isinstance(tactic, Escalate):
            print(f"  round {tactic.round}: reward escalates to {tactic.reward}")
            reward = tactic.reward
        elif isinstance(tactic, Redecompose):
            print(f"  round {tactic.round}: re-split the task and try the pieces")
        current = Announcement("impossible", reward, frozenset(), round=tactic.round, deadline=5)


if __name__ == "__main__":
    main()
