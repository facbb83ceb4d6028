"""Seeded scenario generators for the four benchmark workloads.

Every generator is a pure function of the workload seed and returns plain
config dicts, the same JSON a user would hand to `hwrom run`. The engine
never sees the seed's random stream, only the dicts it produced.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# BENCHMARK.json lists churn and pursuit only: the run budget fits two
# workloads at runs long enough to be steady. society (routing at 120 robots)
# and audit (state hashing at 45 robots, logged and replayed) run by name.
WORKLOADS = ("society", "audit", "churn", "pursuit")

SKILLS = (("Action", "weld"), ("Sensing", "vision"), ("Moving", "speed"))
MAX_ROBOTS = 8  # churn scenarios, joiners included
# churn: random scenarios per pass, plus forced give-ups of a fixed size. The
# give-ups hold the exhaustive re-plan's share of the pass steady from seed
# to seed; in random scenarios alone a few seeds draw one large re-plan that
# outweighs the rest of the batch.
CHURN_SCENARIOS = 120
GIVE_UP_SCENARIOS = 8
GIVE_UP_SIZE = 5  # robots and leaves; 6 takes about 14x longer
ORGANIZER = [["Organization", "plan", 1], ["Communication", "radio", 1]]


@dataclass
class Scenario:
    """One config plus what the harness does with it."""

    name: str
    config: dict
    logged: bool
    # feasible by construction, so ending Failed is wrong
    expect_done: bool
    # capture tick frozen in tests/fixtures/expected.json, pursuit only
    expected_capture: int | None = None


@dataclass
class Workload:
    name: str
    scenarios: list[Scenario]


def generic_society(rng: random.Random, n_robots: int, teams: int, leaves: int, seed: int) -> dict:
    """The ROADMAP generator: every third robot can lead, all can weld.

    Root `T` (reward 1000) splits into `teams` composites (reward 50), each
    with `leaves` weld tasks (reward 10, duration 2)."""
    robots = []
    for i in range(n_robots):
        caps = [["Action", "weld", rng.randint(1, 3)], ["Moving", "speed", 1]]
        if i % 3 == 0:
            caps = ORGANIZER + caps
        robots.append({"id": f"R{i + 1}", "capabilities": caps})
    composites = [
        {
            "id": f"c{j}",
            "reward": 50,
            "subtasks": [
                {"id": f"c{j}.{k}", "reward": 10, "requires": [["Action", "weld", 1]], "duration": 2}
                for k in range(1, leaves + 1)
            ],
        }
        for j in range(1, teams + 1)
    ]
    return {
        "seed": seed,
        "max_ticks": 2000,
        "robots": robots,
        "task": {"id": "T", "reward": 1000, "subtasks": composites},
        "net": {"latency": 1, "drop_rate": 0},
    }


def _random_robot(rng: random.Random, rid: str) -> dict:
    """Half can lead; each holds one skill, or two with probability 1/2."""
    caps = list(ORGANIZER) if rng.random() < 0.5 else []
    for kind, sub in rng.sample(SKILLS, rng.randint(1, 2)):
        caps.append([kind, sub, rng.randint(1, 3)])
    return {"id": rid, "capabilities": caps}


def _random_leaf(rng: random.Random, tid: str) -> dict:
    kind, sub = rng.choice(SKILLS)
    return {
        "id": tid,
        "reward": rng.randint(3, 10),
        "requires": [[kind, sub, rng.randint(1, 2)]],
        "duration": rng.randint(1, 3),
    }


def churn_scenario(rng: random.Random, seed: int) -> dict:
    """The ROADMAP fuzz family: a small society under drops and membership churn.

    2-8 robots, joiners included; root `T` holds 1-2 atomic leaves and one
    composite `c1` with 1-2 leaves; latency 0-2; drop rate 0, 1/10 or 3/10;
    up to 3 scripted fail/withdraw/join events, each naming a different robot."""
    n_robots = rng.randint(2, MAX_ROBOTS)
    robots = [_random_robot(rng, f"R{i}") for i in range(1, n_robots + 1)]
    n_top = rng.randint(1, 2)
    n_inner = rng.randint(1, 2)
    inner = {
        "id": "c1",
        "reward": rng.randint(8, 16),
        "subtasks": [_random_leaf(rng, f"c1.{k}") for k in range(1, n_inner + 1)],
    }
    subtasks = [_random_leaf(rng, f"t{k}") for k in range(1, n_top + 1)] + [inner]
    rng.shuffle(subtasks)
    events = []
    targets = [r["id"] for r in robots]
    rng.shuffle(targets)
    for j in range(rng.randint(0, 3)):
        kind = rng.choice(("fail", "withdraw", "join"))
        at = rng.randint(1, 30)
        if kind == "join":
            if n_robots == MAX_ROBOTS:
                continue
            n_robots += 1
            # `pos` as in the README's join example: a generic join without it
            # crashes ScenarioConfig.schedule (see perfbench/known_unrunnable.json)
            robot = _random_robot(rng, f"J{j + 1}")
            events.append({"at": at, "type": "join", "robot": robot, "pos": [0, 0]})
        elif targets:
            events.append({"at": at, "type": kind, "robot": targets.pop()})
    return {
        "seed": seed,
        "max_ticks": 500,
        "robots": robots,
        "task": {"id": "T", "reward": rng.randint(20, 40), "subtasks": subtasks},
        "net": {"latency": rng.randint(0, 2), "drop_rate": rng.choice(("0", "1/10", "3/10"))},
        "events": events,
    }


def give_up_scenario(rng: random.Random, seed: int, size: int) -> dict:
    """`size` robots that can all lead and weld, and a root with `size` weld
    leaves that every robot prices above their reward. With one auction round
    allowed, the first leaf auction gives up and the leader allocates all
    leaves by `_replan`'s exhaustive search, whose size depends on `size` only."""
    robots = [
        {"id": f"R{i}", "capabilities": ORGANIZER + [["Action", "weld", rng.randint(1, 3)]]}
        for i in range(1, size + 1)
    ]
    leaves = [
        {"id": f"g{k}", "reward": 10, "requires": [["Action", "weld", 1]], "duration": rng.randint(1, 3)}
        for k in range(1, size + 1)
    ]
    return {
        "seed": seed,
        "max_ticks": 200,
        "robots": robots,
        "task": {"id": "T", "reward": 100, "subtasks": leaves},
        "costs": {r["id"]: {leaf["id"]: 1000 for leaf in leaves} for r in robots},
        "auction": {"max_reward_rounds": 1, "max_total_rounds": 1},
        "net": {"latency": 1, "drop_rate": 0},
    }


def pursuit_scenarios(fixtures: Path, seed: int) -> list[Scenario]:
    """The shipped pursuit fixtures, each run as baseline, member failure and
    leader failure (from its `meta` block), plus the canonical fixture.

    The fixtures fix the inputs; the seed only shuffles the run order."""
    expected = json.loads((fixtures / "expected.json").read_text())
    out = []
    for path in sorted(fixtures.glob("pursuit_*.json")):
        raw = json.loads(path.read_text())
        meta = raw.pop("meta")
        want = expected[path.stem]
        variants = (
            ("baseline", [], want["baseline_capture"]),
            ("failure", [(meta["victim"], meta["fail_tick"])], want["failure_capture"]),
            ("leader_failure", [(meta["leader"], meta["leader_fail_tick"])], want["leader_failure_capture"]),
        )
        for variant, fails, capture in variants:
            config = dict(raw, events=[{"at": at, "type": "fail", "robot": r} for r, at in fails])
            out.append(Scenario(f"{path.stem}/{variant}", config, False, True, capture))
    canonical = json.loads((fixtures / "canonical_pursuit.json").read_text())
    canonical.pop("meta", None)
    out.append(
        Scenario(
            "canonical_pursuit",
            canonical,
            logged=False,
            expect_done=True,
            expected_capture=expected["canonical_pursuit"]["capture_tick"],
        )
    )
    random.Random(seed).shuffle(out)
    return out


def build(name: str, seed: int, fixtures: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "society":
        config = generic_society(rng, n_robots=120, teams=12, leaves=8, seed=seed)
        return Workload(name, [Scenario("society-120", config, logged=False, expect_done=True)])
    if name == "audit":
        config = generic_society(rng, n_robots=45, teams=6, leaves=6, seed=seed)
        return Workload(name, [Scenario("audit-45", config, logged=True, expect_done=True)])
    if name == "churn":
        fuzz = [
            Scenario(f"churn-{i}", churn_scenario(rng, seed * 1000 + i), logged=True, expect_done=False)
            for i in range(CHURN_SCENARIOS)
        ]
        give_ups = [
            Scenario(
                f"give-up-{i}",
                give_up_scenario(rng, seed * 1000 + CHURN_SCENARIOS + i, GIVE_UP_SIZE),
                logged=True,
                expect_done=True,
            )
            for i in range(GIVE_UP_SCENARIOS)
        ]
        return Workload(name, fuzz + give_ups)
    if name == "pursuit":
        return Workload(name, pursuit_scenarios(fixtures, seed))
    raise ValueError(f"unknown workload {name!r}")
