"""The cached state hash against the from-scratch one.

`formation.state_hash` assembles the canonical JSON of `state_snapshot` from
fragments cached on the state. After every `step` of every run here, it must
equal sha256 of `state_snapshot` serialized from scratch, the definition
logs carry. The runs cover the golden-trace scenarios, every pursuit fixture
with and without a leader failure, and seeded random generic scenarios with
drops, latency, membership churn, Parallel pairs and forced give-ups.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from hwrom import config as cfg
from hwrom import formation as fm
from hwrom import simnet

from test_golden_traces import GOLDEN, scenario_config

FIXTURES = Path(__file__).parent / "fixtures"
PURSUIT_FIXTURES = sorted(FIXTURES.glob("pursuit_*.json")) + [FIXTURES / "canonical_pursuit.json"]
ORGANIZER = [["Organization", "plan", 1], ["Communication", "radio", 1]]
SKILLS = (("Action", "weld"), ("Sensing", "vision"), ("Moving", "speed"))


def reference_hash(state: fm.FormationState) -> str:
    payload = json.dumps(fm.state_snapshot(state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture
def checked_steps(monkeypatch) -> list[int]:
    """Check the cached hash after every step the scheduler takes; the list
    counts the checks."""
    step = fm.step
    checks: list[int] = []

    def checking_step(state, event):
        result = step(state, event)
        assert fm.state_hash(state) == reference_hash(state), (type(event).__name__, event.tick)
        checks.append(1)
        return result

    monkeypatch.setattr(fm, "step", checking_step)
    return checks


def run_logged(config: dict, fail: tuple[str, int] | None = None) -> fm.FormationState:
    scenario = cfg.from_dict(config)
    state = scenario.build_state()
    scheduler = simnet.Scheduler(state, scenario.net, hash_states=True)
    scenario.schedule(scheduler)
    if fail is not None:
        scheduler.inject_failure(*fail)
    scheduler.run(
        until=scenario.max_ticks, stop_when=lambda s: s.phase in (fm.Phase.DONE, fm.Phase.FAILED)
    )
    return state


def random_scenario(seed: int) -> dict:
    """A small generic scenario: 2-6 robots, 1-3 top leaves and maybe a
    composite, drop rate 0, 1/10 or 3/10, latency 0-2, up to three scripted
    fail/withdraw/join events, sometimes a Parallel pair, and every fourth
    seed a forced give-up (costs above every reward, one auction round)."""
    rng = random.Random(seed)
    robots = []
    for i in range(1, rng.randint(2, 6) + 1):
        caps = list(ORGANIZER) if i == 1 or rng.random() < 0.5 else []
        caps += [[k, s, rng.randint(1, 3)] for k, s in SKILLS if rng.random() < 0.6]
        robots.append({"id": f"R{i}", "capabilities": caps})

    def leaf(tid: str) -> dict:
        kind, sub = rng.choice(SKILLS)
        return {"id": tid, "reward": rng.randint(5, 15), "requires": [[kind, sub, 1]],
                "duration": rng.randint(1, 3)}

    leaves = [f"t{k}" for k in range(1, rng.randint(1, 3) + 1)]
    subtasks = [leaf(t) for t in leaves]
    tasks = ["T"] + leaves
    if rng.random() < 0.5:
        subtasks.append({"id": "c1", "reward": 20, "subtasks": [leaf("c1.1"), leaf("c1.2")]})
        leaves += ["c1.1", "c1.2"]
        tasks += ["c1", "c1.1", "c1.2"]
    config = {
        "seed": seed,
        "max_ticks": 150,
        "robots": robots,
        "task": {"id": "T", "reward": 60, "subtasks": subtasks},
        "net": {"latency": rng.randint(0, 2), "drop_rate": rng.choice(["0", "1/10", "3/10"])},
        "events": [],
    }
    if len(leaves) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(leaves, 2)
        config["constraints"] = [{"a": a, "b": b, "kind": "Parallel"}]
    for j in range(rng.randint(0, 3)):
        kind = rng.choice(("fail", "withdraw", "join"))
        at = rng.randint(1, 20)
        if kind == "join":
            caps = list(ORGANIZER) + [[k, s, 2] for k, s in rng.sample(SKILLS, 2)]
            robot = {"id": f"J{j}", "capabilities": caps}
            config["events"].append({"at": at, "type": "join", "robot": robot})
        else:
            config["events"].append({"at": at, "type": kind, "robot": rng.choice(robots)["id"]})
    if seed % 4 == 0:
        config["costs"] = {r["id"]: {t: 1000 for t in tasks} for r in robots}
        config["auction"] = {"max_reward_rounds": 1, "max_total_rounds": 1}
    return config


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cached_hash_matches_on_golden_scenarios(name, checked_steps):
    run_logged(scenario_config(GOLDEN[name]))
    assert checked_steps


@pytest.mark.parametrize("path", PURSUIT_FIXTURES, ids=lambda p: p.stem)
def test_cached_hash_matches_on_pursuit_fixtures(path, checked_steps):
    raw = json.loads(path.read_text())
    meta = raw.pop("meta", None)
    state = run_logged(raw)
    assert state.world is not None and checked_steps
    if meta is not None:
        run_logged(raw, fail=(meta["leader"], meta["leader_fail_tick"]))


def test_cached_hash_matches_on_random_churn(checked_steps):
    notes: set[str] = set()
    original_step = fm.step

    def noting_step(state, event):
        result = original_step(state, event)
        notes.update(note["kind"] for note in result.notes)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fm, "step", noting_step)
        for seed in range(200):
            run_logged(random_scenario(seed))
    # the corpus reaches every path that edits the tree or settles utilities
    assert {"award", "give_up", "allocated", "withdrew", "joined", "reelected",
            "dissolved", "mission_done"} <= notes
    assert len(checked_steps) > 5000
