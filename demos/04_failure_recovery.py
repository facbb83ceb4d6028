"""Dynamic membership: a worker dies mid-mission and a leader dies later.

The dead worker's task returns to the market and the spare picks it up; the
dead leader triggers a least-reward re-election among the remaining members.
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
)

ORGANIZER = [
    Capability(CapabilityKind.ORGANIZATION, "plan", Fraction(1)),
    Capability(CapabilityKind.COMMUNICATION, "radio", Fraction(1)),
]


def worker(rid: str, skill_mag=1, organizer=False) -> CooperativeRobot:
    caps = [
        Capability(CapabilityKind.ACTION, "weld", Fraction(skill_mag)),
        Capability(CapabilityKind.COMMUNICATION, "radio", Fraction(1)),
    ]
    if organizer:
        caps += ORGANIZER
    return CooperativeRobot(rid, frozenset(caps))


def narrate(trace, since=0):
    for rec in trace:
        if rec["type"] != "event" or rec["tick"] < since:
            continue
        for note in rec["detail"]["notes"]:
            k = note["kind"]
            if k == "withdrew":
                print(f"t={rec['tick']:>2}  {rec['data']['robot']} left the organization ({note['reason']})")
            elif k == "revoked":
                print(f"t={rec['tick']:>2}    {note['task']} taken back from {note['robot']}")
            elif k == "announce":
                print(f"t={rec['tick']:>2}  {note['task']} re-announced at reward {note['reward']}")
            elif k == "award":
                print(f"t={rec['tick']:>2}  {note['robot']} takes over {rec['data']['id_task']} at {note['price']}")
            elif k == "reelected":
                print(f"t={rec['tick']:>2}  new leader {note['robot']} elected "
                      f"(offers {note['offers']})")
            elif k == "mission_done":
                print(f"t={rec['tick']:>2}  mission complete despite the losses")


def main() -> None:
    robots = [
        worker("R1", organizer=True),
        worker("R2", skill_mag=2, organizer=True),
        worker("R3", skill_mag=2, organizer=True),
        worker("R5", skill_mag=1),
    ]
    mission = TaskNode("T", Fraction(40), subtasks=[
        TaskNode("t-a", Fraction(10),
                 frozenset({CapabilityRequirement(CapabilityKind.ACTION, "weld", Fraction(1))}),
                 duration=25),
        TaskNode("t-b", Fraction(10),
                 frozenset({CapabilityRequirement(CapabilityKind.ACTION, "weld", Fraction(1))}),
                 duration=25),
    ])

    state = fm.new_state(robots, fm.EngineParams())
    fm.register_task_tree(state, mission)
    scheduler = simnet.Scheduler(state, simnet.NetConfig())
    scheduler.push_event(fm.TaskArrived(tick=0, id_task="T"))
    scheduler.run(until=12, stop_when=lambda s: s.phase is fm.Phase.EXECUTING)

    print("formed; assignments:")
    for t, a in sorted(state.org.assignments.items()):
        print(f"  {t} -> {a.assignee} ({a.mode.value})")
    leader = state.org.root.id_robot
    workers = [a.assignee for t, a in state.org.assignments.items() if a.assignee != leader]

    victim = sorted(workers)[0]
    print(f"\ninjecting failure of worker {victim} at tick 14 and of leader {leader} at 16:")
    scheduler.inject_failure(victim, 14)
    scheduler.inject_failure(leader, 16)
    scheduler.run(until=120, stop_when=lambda s: s.phase in (fm.Phase.DONE, fm.Phase.FAILED))
    narrate(scheduler.trace, since=14)
    print(f"\nfinal phase: {state.phase.value}; surviving leader: {state.org.root.id_robot}")


if __name__ == "__main__":
    main()
