"""Walk through the recursive organization model by hand.

Builds a two-level society (a society leader, one sub-team, one direct
member), then queries levels, leaders, membership, validates the structure,
and settles utilities after a mission.
"""

from fractions import Fraction

from hwrom.org_core import (
    AssignmentMode,
    Capability,
    CapabilityKind,
    CooperativeRobot,
    Organization,
    OrgNode,
    Relation,
    RelationKind,
    TaskAssignment,
    leader_of,
    level_of,
    members,
    settle_utilities,
    snapshot_hash,
    validate,
)


def robot(rid: str) -> CooperativeRobot:
    return CooperativeRobot(
        rid, frozenset({Capability(CapabilityKind.COMMUNICATION, "radio", Fraction(1))})
    )


def leaf(rid: str, level: int, pos: int, goals=()) -> OrgNode:
    return OrgNode(id_ros=f"unit:{rid}", id_robot=rid, level_i=level, pos_j=pos,
                   goals=list(goals))


def main() -> None:
    # society: R1 leads; sub-team led by R2 with member R3; R4 works directly
    sub_team = OrgNode(id_ros="team:survey", id_robot="R2", level_i=1, pos_j=1,
                       goals=["survey"])
    sub_team.children = [leaf("R2", 2, 0), leaf("R3", 2, 1, goals=["scan-east"])]

    root = OrgNode(id_ros="team:mission", id_robot="R1", level_i=0, pos_j=0,
                   goals=["mission"])
    root.children = [leaf("R1", 1, 0), sub_team, leaf("R4", 1, 2, goals=["haul"])]

    org = Organization(
        robots=[robot(r) for r in ("R1", "R2", "R3", "R4")],
        root=root,
        relations={
            Relation("R1", "R2", RelationKind.CONTROL),
            Relation("R1", "R4", RelationKind.CONTROL),
            Relation("R2", "R3", RelationKind.CONTROL),
            Relation("R1", "R4", RelationKind.COOPERATION),
            Relation("R2", "R3", RelationKind.COOPERATION),
        },
    )

    print("levels:")
    for node_id in ("team:mission", "team:survey", "unit:R3", "unit:R4"):
        print(f"  {node_id:14s} level {level_of(org, node_id)}  leader {leader_of(org, node_id)}")

    print(f"society members: {sorted(members(org, 'team:mission'))}")
    print(f"survey team:     {sorted(members(org, 'team:survey'))}")

    report = validate(org)
    print(f"validation: {'clean' if report.ok else [str(v) for v in report]}")

    # break an invariant on purpose: cooperation across levels
    org.relations.add(Relation("R3", "R4", RelationKind.COOPERATION))
    print(f"after adding a cross-level edge: {[str(v) for v in validate(org)]}")
    org.relations.discard(Relation("R3", "R4", RelationKind.COOPERATION))

    # settle a finished mission: the mission paid 20, sub-contracts cost 5+6+4
    org.subtasks = {"mission": ["survey", "haul"], "survey": ["scan-east"],
                    "scan-east": [], "haul": []}
    org.assignments = {
        "mission": TaskAssignment("R1", Fraction(20), AssignmentMode.LED),
        "survey": TaskAssignment("R2", Fraction(5), AssignmentMode.LED),
        "scan-east": TaskAssignment("R3", Fraction(6), AssignmentMode.WON),
        "haul": TaskAssignment("R4", Fraction(4), AssignmentMode.WON),
    }
    deltas = settle_utilities(
        org,
        {"mission": Fraction(20), "survey": Fraction(5), "scan-east": Fraction(6),
         "haul": Fraction(4)},
    )
    print("settlement (note R2 overpaid its scanner, margin -1):")
    for rid, delta in sorted(deltas.items()):
        sign = "+" if delta >= 0 else ""
        print(f"  {rid}: {sign}{delta}")
    print(f"conservation: sum = {sum(deltas.values())} (the external payout)")
    print(f"snapshot hash: {snapshot_hash(org)[:16]}…")


if __name__ == "__main__":
    main()
