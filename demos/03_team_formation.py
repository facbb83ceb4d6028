"""A full formation run, narrated from the event trace.

One organizer-capable robot and three specialists; the goal decomposes into
three sub-tasks. Watch the championship, the sub-auctions, the awards, and
the final settled organization.
"""

from fractions import Fraction

from hwrom import formation as fm
from hwrom import simnet
from hwrom.org_core import (
    Capability,
    CapabilityKind,
    CapabilityRequirement,
    CooperativeRobot,
    TaskNode,
    validate,
)


def cap(kind, sub, mag=1):
    return Capability(CapabilityKind(kind), sub, Fraction(mag))


def req(kind, sub, m=1):
    return CapabilityRequirement(CapabilityKind(kind), sub, Fraction(m))


def main() -> None:
    robots = [
        CooperativeRobot("R1", frozenset({cap("Organization", "plan"), cap("Communication", "radio")})),
        CooperativeRobot("R2", frozenset({cap("Action", "weld", 2), cap("Communication", "radio")})),
        CooperativeRobot("R3", frozenset({cap("Sensing", "vision", 3), cap("Communication", "radio")})),
        CooperativeRobot("R4", frozenset({cap("Moving", "speed", 2), cap("Communication", "radio")})),
    ]
    mission = TaskNode("T", Fraction(30), subtasks=[
        TaskNode("t-weld", Fraction(10), frozenset({req("Action", "weld")})),
        TaskNode("t-scan", Fraction(10), frozenset({req("Sensing", "vision")})),
        TaskNode("t-haul", Fraction(10), frozenset({req("Moving", "speed")})),
    ])

    state = fm.new_state(robots, fm.EngineParams())
    fm.register_task_tree(state, mission)
    scheduler = simnet.Scheduler(state, simnet.NetConfig())
    scheduler.push_event(fm.TaskArrived(tick=0, id_task="T"))
    scheduler.run(until=60, stop_when=lambda s: s.phase is fm.Phase.DONE)

    for rec in scheduler.trace:
        if rec["type"] != "event":
            continue
        data = rec["data"]
        for note in rec["detail"]["notes"]:
            kind = note["kind"]
            if kind == "announce":
                who = "the environment" if note["auctioneer"].startswith("__") else note["auctioneer"]
                print(f"t={rec['tick']:>2}  {who} announces {note['task']} at reward {note['reward']}")
            elif kind == "bid":
                bid = data["bid"]
                print(f"t={rec['tick']:>2}    {bid['bidder']} asks {bid['price']} for {bid['id_task']}")
            elif kind == "award":
                role = "leads" if note["leadership"] else "takes"
                print(f"t={rec['tick']:>2}  {note['robot']} {role} {data['id_task']} at {note['price']}")
            elif kind == "formed":
                print(f"t={rec['tick']:>2}  organization formed (depth {note['level']})")
            elif kind == "completed":
                print(f"t={rec['tick']:>2}    {data['robot']} finished {data['id_task']}")
            elif kind == "mission_done":
                print(f"t={rec['tick']:>2}  mission complete; settled utilities:")
                for rid, delta in note["utilities"].items():
                    print(f"        {rid}: +{delta}")

    org = state.org

    def show(node, indent=0):
        tag = "team" if node.children else "robot"
        print(f"{' ' * indent}{tag} {node.id_ros} (level {node.level_i}, "
              f"leader {node.id_robot}, goals {node.goals})")
        for child in node.children:
            show(child, indent + 2)

    print("\nfinal structure:")
    show(org.root)
    print(f"structurally valid: {validate(org).ok}")


if __name__ == "__main__":
    main()
