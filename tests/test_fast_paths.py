"""Each per-run fast path against the code it replaced: the robot's magnitude
table against the capability scan, the integer drop decision against the
rational draw, the one norm predicate against the auction's own chain test
and `check_assignment`, the one-walk `_renumber` against the recursive rule
fold and a per-team subtree scan, and the integer pursuit tick and its
skipped sensing against the per-pair tick and sensing every live robot
every tick."""

from __future__ import annotations

import copy
import hashlib
import random
from fractions import Fraction

import pytest

from hwrom import config as cfg
from hwrom import eventlog
from hwrom import formation as fm
from hwrom import org_core, pursuit
from hwrom.org_core import (
    Capability,
    CapabilityKind,
    CapabilityRequirement,
    CooperativeRobot,
    Organization,
    OrgNode,
    Relation,
    RelationKind,
)
from hwrom.pursuit import EvaderState, RobotPose, WorldState, chebyshev
from hwrom.rules_engine import (
    STANDARD_RULES,
    ConstraintKind,
    ConstraintRelation,
    Rule,
    RuleCategory,
    RuleSet,
    check_assignment,
    winner_locked,
)
from hwrom.simnet import Drop, NetConfig, _drop_draw, route
from hwrom.wire import ENV, Message

from test_formation import chain_config, one_unit_config
from test_state_hash import random_scenario

# --- the magnitude table ---------------------------------------------------------


def scan_capability(robot: CooperativeRobot, kind: CapabilityKind, subkind: str = "") -> Fraction:
    """The capability scan the table replaced."""
    best = Fraction(0)
    for cap in robot.capabilities:
        if cap.kind is kind and (not subkind or cap.subkind == subkind):
            best = max(best, cap.magnitude)
    return best


def scan_satisfies(robot: CooperativeRobot, req: CapabilityRequirement) -> bool:
    mag = scan_capability(robot, req.kind, req.subkind)
    if req.minimum > 0:
        return mag >= req.minimum
    return mag > 0


def test_magnitude_table_matches_the_capability_scan():
    rng = random.Random(7)
    kinds = [CapabilityKind.MOVING, CapabilityKind.ACTION, CapabilityKind.SENSING]
    subkinds = ["", "a", "b"]
    minimums = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    seen = {"empty_subkind": 0, "zero": 0, "duplicate_kind": 0, "same_key": 0}
    for _ in range(1500):
        caps = frozenset(
            Capability(rng.choice(kinds), rng.choice(subkinds), Fraction(rng.randint(0, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 6))
        )
        seen["empty_subkind"] += any(c.subkind == "" for c in caps)
        seen["zero"] += any(c.magnitude == 0 for c in caps)
        seen["duplicate_kind"] += len({c.kind for c in caps}) < len(caps)
        seen["same_key"] += len({(c.kind, c.subkind) for c in caps}) < len(caps)
        robot = CooperativeRobot("R", caps)
        reqs = []
        # LEARNING is held by no robot here
        for kind in [*kinds, CapabilityKind.LEARNING]:
            for sub in [*subkinds, "c"]:
                assert robot.capability(kind, sub) == scan_capability(robot, kind, sub)
                for minimum in minimums:
                    req = CapabilityRequirement(kind, sub, minimum)
                    assert robot.satisfies(req) == scan_satisfies(robot, req), (caps, req)
                    reqs.append(req)
        for _ in range(5):
            sample = frozenset(rng.sample(reqs, rng.randint(0, 3)))
            assert robot.dominates(sample) == all(scan_satisfies(robot, r) for r in sample)
        # the table is derived: a used robot equals and hashes like a fresh one
        fresh = CooperativeRobot("R", caps)
        assert robot == fresh and hash(robot) == hash(fresh) and repr(robot) == repr(fresh)
    assert all(seen.values()), seen


# --- the integer drop decision -------------------------------------------------------


def _drop_roll(seed: int, msg_seq: int) -> Fraction:
    """The rational draw `route` compared with the drop rate before."""
    digest = hashlib.sha256(f"{seed}:{msg_seq}".encode()).digest()
    return Fraction(int.from_bytes(digest[:8], "big"), 2**64)


@pytest.mark.parametrize(
    "rate", [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1)], ids=str
)
def test_integer_drop_decision_matches_the_rational_draw(rate):
    msg = Message("R1", "R2", "announce", None, 3)
    org = Organization()  # no teams: everyone may talk
    drops = 0
    for seed in range(25):
        net = NetConfig(drop_rate=rate, seed=seed)
        for msg_seq in range(400):
            dropped = isinstance(route(net, msg, org, msg_seq=msg_seq), Drop)
            assert dropped == (_drop_roll(seed, msg_seq) < rate), (seed, msg_seq)
            drops += dropped
    assert drops == 0 if rate == 0 else 0 < drops <= 10_000


def test_integer_drop_decision_is_exact_at_the_draw():
    """A rate equal to a message's draw keeps it (the test is strict); one
    2**-64 above drops it. A float could not tell the two apart."""
    msg = Message("R1", "R2", "announce", None, 3)
    for seed, msg_seq in [(0, 0), (3, 17), (11, 402)]:
        draw = _drop_draw(seed, msg_seq)
        for rate, dropped in [(Fraction(draw, 2**64), False), (Fraction(draw + 1, 2**64), True)]:
            out = route(NetConfig(drop_rate=rate, seed=seed), msg, Organization(), msg_seq=msg_seq)
            assert isinstance(out, Drop) is dropped
            assert (_drop_roll(seed, msg_seq) < rate) is dropped


# --- the one norm predicate -------------------------------------------------------------


def reference_norm_violation(state: fm.FormationState, robot_id: str, ann) -> str | None:
    """`_norm_violation` before the one norm predicate: the auction's own
    leadership-chain test, which exempted auctions the environment runs and
    counted only assigned or completed composites, and `check_assignment` on
    every call."""
    if winner_locked(state.locks, robot_id, state.now):
        return "winner_locked"
    tasks_by_robot = org_core.index(state.org).tasks_by_robot
    if ann.leadership and ann.auctioneer != ENV:
        mine = {
            x
            for x in tasks_by_robot.get(robot_id, ())
            if state.is_composite(x)
            and state.status[x] in (org_core.TaskStatus.ASSIGNED, org_core.TaskStatus.COMPLETED)
        }
        mine.add(ann.id_task)
        xs = sorted(mine, key=lambda x: (fm._task_depth(state, x), x))
        if any(state.task_parent.get(b) != a for a, b in zip(xs, xs[1:])):
            return "leadership_chain"
    held = tasks_by_robot.get(robot_id, set()) | {ann.id_task}
    check = check_assignment(
        RuleSet(state.params.rules_pool), state.params.constraints, {robot_id: held}
    )
    return None if check.ok else "parallel_conflict"


CUSTOM_NO_PARALLEL = Rule("custom.apart", RuleCategory.CUSTOM, "no_parallel_coassignment")
POOLS = [
    STANDARD_RULES,
    STANDARD_RULES - {r for r in STANDARD_RULES if r.predicate == "no_parallel_coassignment"},
    frozenset({CUSTOM_NO_PARALLEL}),
    frozenset(),
]


def rule_entries(pool: frozenset[Rule]) -> list[dict]:
    return [
        {"id": r.id_rule, "category": r.category.value, "predicate": r.predicate}
        for r in sorted(pool, key=lambda r: r.id_rule)
    ]


def test_parallel_gate_is_closed_only_where_no_assignment_can_break_the_norm():
    """`parallel_pairs` holds exactly the pairs `check_assignment` refuses:
    empty where no assignment can break the norm."""
    rng = random.Random(3)
    tasks = ["a", "b", "c", "d"]
    empty = 0
    for _ in range(400):
        constraints = tuple(
            ConstraintRelation(rng.choice(tasks), rng.choice(tasks), rng.choice(list(ConstraintKind)))
            for _ in range(rng.randint(0, 4))
        )
        pool = rng.choice(POOLS)
        pairs = fm.EngineParams(constraints=constraints, rules_pool=pool).parallel_pairs
        empty += not pairs
        for _ in range(10):
            held = set(rng.sample(tasks, rng.randint(0, 4)))
            ok = check_assignment(RuleSet(pool), constraints, {"R1": held}).ok
            assert ok == (not any(p <= held for p in pairs)), (constraints, pool, held)
    assert 0 < empty < 400


def gate_scenario(seed: int) -> dict:
    """`random_scenario(seed)` with up to three constraints of random kinds
    among its leaves and one of `POOLS` as its rules pool."""
    rng = random.Random(seed)
    config = random_scenario(seed)
    leaves = [
        t["id"]
        for top in config["task"]["subtasks"]
        for t in (top.get("subtasks") or [top])
    ]
    kinds = ["Parallel", "Parallel", "Priority", "Sequence"]
    config["constraints"] = [
        {"a": a, "b": b, "kind": rng.choice(kinds)}
        for a, b in (rng.sample(leaves, 2) for _ in range(rng.randint(0, 3)) if len(leaves) >= 2)
    ]
    pool = POOLS[seed % len(POOLS)]
    if pool != STANDARD_RULES:
        # an empty rules list means the standard pool, so `frozenset()` keeps
        # one rule the gate ignores
        config["rules"] = rule_entries(pool) or [
            {"id": "bidding.winner-lock", "category": "Bidding", "predicate": "winner_lock"}
        ]
    return config


def test_parallel_gate_matches_check_assignment_on_random_runs(monkeypatch):
    gated = fm._norm_violation
    reasons: dict[tuple[bool, str | None], int] = {}

    def both(state, robot_id, ann):
        want = reference_norm_violation(state, robot_id, ann)
        got = gated(state, robot_id, ann)
        assert got == want, (state.params.constraints, state.params.rules_pool, robot_id, ann)
        key = (bool(state.params.parallel_pairs), got)
        reasons[key] = reasons.get(key, 0) + 1
        return got

    monkeypatch.setattr(fm, "_norm_violation", both)
    for seed in range(160):
        eventlog.simulate(cfg.from_dict(gate_scenario(seed)), None)
    # the random runs never refuse a leader its chain; the reproducers do
    for data in (chain_config(), one_unit_config()):
        eventlog.simulate(cfg.from_dict(data), None)
    # both sides of the gate are reached, and each norm refuses some bids
    assert (True, "parallel_conflict") in reasons
    assert (False, None) in reasons and (True, None) in reasons
    assert any(not open_ and reason == "winner_locked" for open_, reason in reasons)
    assert (False, "leadership_chain") in reasons


# --- `_renumber` in one walk ---------------------------------------------------------------


def whole_rules(node: OrgNode) -> RuleSet:
    """The recursive rule fold `_renumber` replaced: a leaf abides its own
    rules, a team only what every child abides."""
    if not node.children:
        return RuleSet(node.rules.rules)
    acc: frozenset[Rule] | None = None
    for child in node.children:
        child_rules = whole_rules(child).rules
        acc = child_rules if acc is None else acc & child_rules
    return RuleSet(acc)


def reference_renumber(state: fm.FormationState) -> None:
    """`_renumber` before the one-walk rewrite: per team, `whole_rules` and a
    scan of the team's subtree."""
    org = state.org
    org.index_cache = None
    if org.root is None:
        org.relations = set()
        org.robots = []
        return

    def visit(node: OrgNode, depth: int, pos: int) -> None:
        node.level_i = depth
        node.pos_j = pos
        for i, c in enumerate(node.children):
            visit(c, depth + 1, i)

    visit(org.root, 0, 0)
    relations: set[Relation] = set()
    bound: set[str] = set()
    for node in org.root.walk():
        if node.id_robot is not None:
            bound.add(node.id_robot)
        if not node.children:
            continue
        node.rules = whole_rules(node)
        subtree_tasks = {g for n in node.walk() for g in n.goals}
        node.constraints = [
            c for c in state.params.constraints if c.a in subtree_tasks and c.b in subtree_tasks
        ]
        if node.id_robot is None:
            continue
        element_robots = [c.id_robot for c in node.children if c.id_robot is not None]
        for r in element_robots:
            if r != node.id_robot:
                relations.add(Relation(node.id_robot, r, RelationKind.CONTROL))
        for i, a in enumerate(element_robots):
            for b in element_robots[i + 1 :]:
                if a != b:
                    lo, hi = sorted((a, b))
                    relations.add(Relation(lo, hi, RelationKind.COOPERATION))
    org.relations = relations
    org.robots = [state.robots[r] for r in sorted(bound)]


def random_tree_state(rng: random.Random) -> fm.FormationState:
    """A state with a random tree: up to 4 levels, leaves with random rule
    sets and goals, teams (sometimes unbound, as mid re-election) with goals
    of their own, stale levels and positions, and random constraints."""
    robots = [CooperativeRobot(f"R{i}", frozenset()) for i in range(1, 7)]
    tasks = [f"t{i}" for i in range(8)]
    constraints = tuple(
        ConstraintRelation(rng.choice(tasks), rng.choice(tasks), rng.choice(list(ConstraintKind)))
        for _ in range(rng.randint(0, 6))
    )
    state = fm.new_state(robots, fm.EngineParams(constraints=constraints))
    rules = sorted(STANDARD_RULES, key=lambda r: r.id_rule) + [CUSTOM_NO_PARALLEL]
    serial = iter(range(1000))

    def node(depth: int) -> OrgNode:
        robot = rng.choice(robots).id_cr
        goals = rng.sample(tasks, rng.randint(0, 2))
        if depth >= 3 or rng.random() < 0.4:
            leaf_rules = RuleSet(frozenset(rng.sample(rules, rng.randint(0, len(rules)))))
            return OrgNode(f"unit:{next(serial)}", robot, 9, 9, goals=goals, rules=leaf_rules)
        children = [node(depth + 1) for _ in range(rng.randint(1, 3))]
        leader = None if rng.random() < 0.15 else children[0].id_robot
        return OrgNode(f"team:{next(serial)}", leader, 9, 9, children=children, goals=goals)

    state.org.root = node(0)
    return state


def test_one_walk_renumber_matches_whole_rules_and_the_per_team_scan():
    rng = random.Random(5)
    for _ in range(300):
        state = random_tree_state(rng)
        want = copy.deepcopy(state)
        reference_renumber(want)
        fm._renumber(state)
        assert org_core.node_dict(state.org.root) == org_core.node_dict(want.org.root)
        assert state.org.relations == want.org.relations
        assert state.org.robots == want.org.robots
        assert fm._level(state) == max(depth for _, _, depth, _ in org_core.iter_nodes(want.org))
        for team in state.org.root.walk():
            if team.children:
                assert team.rules == whole_rules(team)
                goals = {g for n in team.walk() for g in n.goals}
                assert team.constraints == [
                    c for c in state.params.constraints if c.a in goals and c.b in goals
                ]


# --- the pursuit tick ----------------------------------------------------------------------


def reference_step_toward(pos: pursuit.Cell, target: pursuit.Cell) -> pursuit.Cell:
    dx = (target[0] > pos[0]) - (target[0] < pos[0])
    dy = (target[1] > pos[1]) - (target[1] < pos[1])
    return (pos[0] + dx, pos[1] + dy)


def reference_flee_step(world: WorldState, pos: pursuit.Cell) -> pursuit.Cell:
    """`_flee_step` before the integer rewrite: a `chebyshev` call per
    (cell, hunter) pair and a keyed `min` over the candidates."""
    hunters = [p.pos for p in world.robots.values() if p.alive]
    candidates = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            cell = (pos[0] + dx, pos[1] + dy)
            if world.in_bounds(cell):
                candidates.append(cell)
    if not hunters:
        return min(candidates)

    def score(cell: pursuit.Cell) -> int:
        return min(chebyshev(cell, h) for h in hunters)

    return min(candidates, key=lambda c: (-score(c), c))


def reference_tick_world(
    world: WorldState, assignments: dict[str, pursuit.Cell], *, capture_quorum: int = 2
) -> WorldState:
    """`tick_world` before the integer rewrite: a clamp per move step, every
    flee step taken, and a `chebyshev` call per capture pair."""
    for rid in sorted(assignments):
        pose = world.robots.get(rid)
        if pose is None or not pose.alive:
            continue
        target = world.clamp(assignments[rid])
        for _ in range(pose.speed):
            if pose.pos == target:
                break
            pose.pos = world.clamp(reference_step_toward(pose.pos, target))

    for ev_id in sorted(world.evaders):
        if ev_id in world.captured:
            continue
        ev = world.evaders[ev_id]
        for _ in range(ev.speed):
            nxt = reference_flee_step(world, ev.pos)
            ev.intention = (nxt[0] - ev.pos[0], nxt[1] - ev.pos[1])
            ev.pos = nxt

    for ev_id in sorted(world.evaders):
        if ev_id in world.captured:
            continue
        ev = world.evaders[ev_id]
        near = sum(
            1 for p in world.robots.values() if p.alive and chebyshev(p.pos, ev.pos) <= 1
        )
        if near >= capture_quorum:
            world.captured.add(ev_id)
            ev.intention = (0, 0)

    world.tick += 1
    return world


def random_world(rng: random.Random) -> WorldState:
    """Sides 2-12, 0-8 robots (some dead) and 1-3 evaders, speeds 0-3."""
    world = WorldState(rng.randint(2, 12), rng.randint(2, 12))

    def cell() -> pursuit.Cell:
        return (rng.randrange(world.width), rng.randrange(world.height))

    for i in range(rng.randint(0, 8)):
        world.robots[f"R{i}"] = RobotPose(cell(), rng.randint(0, 3), 1, alive=rng.random() > 0.2)
    for i in range(rng.randint(1, 3)):
        world.evaders[f"e{i}"] = EvaderState(cell(), rng.randint(0, 3))
    return world


def random_assignments(rng: random.Random, world: WorldState) -> dict[str, pursuit.Cell]:
    """Targets for a random subset of the robots and sometimes an unknown one,
    a few of them off the grid."""
    ids = [rid for rid in world.robots if rng.random() < 0.7] + (["X"] if rng.random() < 0.1 else [])
    return {
        rid: (rng.randint(-3, world.width + 2), rng.randint(-3, world.height + 2)) for rid in ids
    }


def flee_scores(world: WorldState, pos: pursuit.Cell, hunters: list[pursuit.Cell]) -> list[int]:
    return [
        min(chebyshev((pos[0] + dx, pos[1] + dy), h) for h in hunters)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        if world.in_bounds((pos[0] + dx, pos[1] + dy))
    ]


def test_integer_pursuit_tick_matches_the_per_pair_tick(monkeypatch):
    flee_step = pursuit._flee_step
    steps = [0]

    def counted_flee_step(world, pos, hunters):
        steps[0] += 1
        return flee_step(world, pos, hunters)

    monkeypatch.setattr(pursuit, "_flee_step", counted_flee_step)
    rng = random.Random(11)
    seen = {"no_hunters": 0, "dead_hunter": 0, "tie": 0, "early_stay": 0, "off_grid": 0, "capture": 0}
    for _ in range(400):
        fast = random_world(rng)
        slow = copy.deepcopy(fast)
        quorum = rng.randint(1, 3)
        seen["dead_hunter"] += any(not p.alive for p in fast.robots.values())
        for _ in range(rng.randint(1, 6)):
            hunters = [p.pos for p in fast.robots.values() if p.alive]
            seen["no_hunters"] += not hunters
            for pos in [ev.pos for ev in fast.evaders.values()] + [(0, 0), (fast.width - 1, 1)]:
                assert pursuit._flee_step(fast, pos, hunters) == reference_flee_step(slow, pos)
                if hunters:
                    scores = flee_scores(fast, pos, hunters)
                    seen["tie"] += scores.count(max(scores)) > 1
            assignments = random_assignments(rng, fast)
            seen["off_grid"] += any(not fast.in_bounds(c) for c in assignments.values())
            speeds = sum(ev.speed for e, ev in fast.evaders.items() if e not in fast.captured)
            steps[0] = 0
            pursuit.tick_world(fast, assignments, capture_quorum=quorum)
            reference_tick_world(slow, assignments, capture_quorum=quorum)
            assert pursuit.world_snapshot(fast) == pursuit.world_snapshot(slow)
            seen["capture"] += bool(fast.captured)
            # some evader stayed before its last step, and its later steps
            # were skipped
            seen["early_stay"] += steps[0] < speeds
    assert all(seen.values()), seen


def random_pursuit_config(seed: int) -> dict:
    """A small pursuit with short sensing radii, so robots detect evaders at
    different ticks, and up to two robots failing mid-run."""
    rng = random.Random(seed)
    w, h = rng.randint(5, 12), rng.randint(5, 12)
    n = rng.randint(3, 6)
    cells = rng.sample([[x, y] for x in range(w) for y in range(h)], n + 3)
    robots = [
        {"id": f"R{i}", "capabilities": [
            ["Organization", "plan", 1], ["Communication", "radio", 1],
            ["Moving", "speed", rng.randint(1, 2)], ["Sensing", "vision", rng.randint(1, 6)]]}
        for i in range(1, n + 1)
    ]
    return {
        "seed": seed,
        "max_ticks": 80,
        "robots": robots,
        "pursuit": {
            "grid": [w, h],
            "robots": [{"id": r["id"], "pos": cells[i]} for i, r in enumerate(robots)],
            "evaders": [
                {"id": f"e{i}", "pos": cells[n + i], "speed": rng.randint(0, 2)}
                for i in range(rng.randint(1, 3))
            ],
            "k": rng.randint(2, 4),
            "capture_quorum": rng.randint(1, 2),
        },
        "events": [
            {"at": rng.randint(2, 30), "type": "fail", "robot": r["id"]}
            for r in rng.sample(robots, rng.randint(0, 2))
        ],
    }


def test_skipped_sensing_matches_sensing_every_live_robot_every_tick(monkeypatch):
    fast_tick, real_sense = fm._pursuit_tick, pursuit.sense
    want: dict[tuple[str, str], int] = {}
    calls = {"fast": 0, "every": 0}
    counter = ["fast"]

    def counted_sense(world, robot):
        calls[counter[0]] += 1
        return real_sense(world, robot)

    def both(state, result):
        counter[0] = "fast"
        fast_tick(state, result)
        counter[0] = "every"
        for rid in sorted(state.world.robots):
            if state.alive(rid):
                for ev_id, _, tick in pursuit.sense(state.world, rid):
                    want.setdefault((rid, ev_id), tick)

    monkeypatch.setattr(pursuit, "sense", counted_sense)
    monkeypatch.setattr(fm, "_pursuit_tick", both)
    late = captured = 0
    for seed in range(150):
        want.clear()
        state, _ = eventlog.simulate(cfg.from_dict(random_pursuit_config(seed)), None)
        assert list(state.first_detection.items()) == list(want.items()), seed
        late += any(tick > 1 for tick in want.values())
        captured += bool(state.world.captured)
    # detections come at different ticks, evaders get caught, and some
    # sensing is skipped
    assert late and captured
    assert calls["fast"] < calls["every"], calls
