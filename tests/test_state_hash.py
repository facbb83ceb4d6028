"""Replay and key order over a corpus of logged runs.

Replay re-runs a log's header config, and the header holds that config with
its keys sorted. So each run here is logged twice, from its config and from
the config's sorted-key dump, and the two logs must be equal byte for byte.
The log must then replay clean, and its end record's `final_hash` must equal
sha256 of the canonical JSON of `state_snapshot`, computed here from that
definition. The runs cover the golden-trace scenarios, every pursuit fixture
with and without a leader failure, and seeded random generic scenarios with
drops, latency, membership churn, Parallel pairs and forced give-ups. The
test names keep `cached_hash` from the log v1 fragment cache these runs
used to check, so that the test ids stay stable. Last, one parsed config
runs twice: the second run must emit the first run's records.

The sha256 of each pursuit fixture's logs and of each random scenario's log
is pinned in `fixtures/corpus_digests.json`, as the golden traces pin
theirs. A change that alters behaviour on purpose regenerates it with

    PYTHONPATH=src python tests/test_state_hash.py --write

which prints each entry it moved, and says why. Each of these logs, mapped
back to log version 2, must also hash to its entry in the frozen
`fixtures/v2_digests.json`, as the golden traces' logs must.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import random
import sys
import weakref
from pathlib import Path

import pytest

from hwrom import config as cfg
from hwrom import eventlog
from hwrom import formation as fm
from hwrom.org_core import canonical_json

from conftest import V2_DIGESTS, report_moves, v2_moved
from test_golden_traces import GOLDEN, scenario_config

FIXTURES = Path(__file__).parent / "fixtures"
PURSUIT_FIXTURES = sorted(FIXTURES.glob("pursuit_*.json")) + [FIXTURES / "canonical_pursuit.json"]
CORPUS_PATH = FIXTURES / "corpus_digests.json"
ORGANIZER = [["Organization", "plan", 1], ["Communication", "radio", 1]]
SKILLS = (("Action", "weld"), ("Sensing", "vision"), ("Moving", "speed"))
RANDOM_SEEDS = range(200)


def reference_hash(state: fm.FormationState) -> str:
    payload = json.dumps(fm.state_snapshot(state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def with_fail(config: dict, fail: tuple[str, int] | None) -> dict:
    """`config` with a scripted failure of robot `fail[0]` at tick `fail[1]`
    added, as `hwrom run --fail ROBOT@TICK` adds it."""
    if fail is None:
        return config
    robot, at = fail
    return {**config, "events": [*config.get("events", []), {"at": at, "type": "fail", "robot": robot}]}


def run_logged(
    config: dict, fail: tuple[str, int] | None = None, log: list[str] | None = None
) -> fm.FormationState:
    """Run `config` as `hwrom run --log` does, with `fail` added as `--fail`
    adds it; append each log line to `log` when one is given."""
    lines = log if log is not None else []
    state, _ = eventlog.simulate(
        cfg.from_dict(with_fail(config, fail)), lambda rec: lines.append(canonical_json(rec))
    )
    return state


def check_log(config: dict, tmp_path: Path) -> list[str]:
    """Log `config` and its sorted-key dump, check that the logs are equal and
    that the log replays clean; return the log's lines."""
    log: list[str] = []
    resorted: list[str] = []
    state = run_logged(config, log=log)
    run_logged(json.loads(json.dumps(config, sort_keys=True)), log=resorted)
    assert log == resorted
    assert json.loads(log[-1])["final_hash"] == reference_hash(state)
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in log))
    outcome = eventlog.replay(path)
    assert outcome.ok, outcome.message
    return log


def log_digest(log: list[str]) -> str:
    """sha256 of a log's lines as `hwrom run --log` writes them."""
    return hashlib.sha256("".join(line + "\n" for line in log).encode()).hexdigest()


def pursuit_runs(path: Path) -> list[tuple[str, dict]]:
    """A pursuit fixture's corpus entries: the fixture as it is, and with
    the leader failure of its `meta` block."""
    raw = json.loads(path.read_text())
    meta = raw.pop("meta", None)
    runs = [(path.stem, raw)]
    if meta is not None:
        runs.append((f"{path.stem}/leader_failure", with_fail(raw, (meta["leader"], meta["leader_fail_tick"]))))
    return runs


def corpus_runs() -> list[tuple[str, dict]]:
    """Every run whose log digest `fixtures/corpus_digests.json` pins, by name."""
    runs = [run for path in PURSUIT_FIXTURES for run in pursuit_runs(path)]
    return runs + [(f"random_scenario/{seed}", random_scenario(seed)) for seed in RANDOM_SEEDS]


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
def test_cached_hash_matches_on_golden_scenarios(name, tmp_path):
    check_log(scenario_config(GOLDEN[name]), tmp_path)


@pytest.mark.parametrize("path", PURSUIT_FIXTURES, ids=lambda p: p.stem)
def test_cached_hash_matches_on_pursuit_fixtures(path, tmp_path):
    pinned = json.loads(CORPUS_PATH.read_text())
    moved, lost = [], []
    for name, config in pursuit_runs(path):
        log = check_log(config, tmp_path)
        if log_digest(log) != pinned[name]:
            moved.append(name)
        if v2_moved("corpus_digests", name, log):
            lost.append(name)
    assert not moved, f"log digests moved: {moved}"
    assert not lost, f"logs no longer map back to their v2 digests: {lost}"


def test_cached_hash_matches_on_random_churn(tmp_path):
    pinned = json.loads(CORPUS_PATH.read_text())
    notes: set[str] = set()
    moved, lost = [], []
    for seed in RANDOM_SEEDS:
        name = f"random_scenario/{seed}"
        log = check_log(random_scenario(seed), tmp_path)
        if log_digest(log) != pinned[name]:
            moved.append(seed)
        if v2_moved("corpus_digests", name, log):
            lost.append(seed)
        for line in log:
            rec = json.loads(line)
            if rec["type"] == "event":
                notes.update(note["kind"] for note in rec["detail"]["notes"])
    # the corpus reaches every path that edits the tree or settles utilities
    assert {"award", "give_up", "allocated", "withdrew", "joined", "reelected",
            "dissolved", "mission_done"} <= notes
    assert not moved, f"log digests moved for random_scenario seeds {moved}"
    assert not lost, f"logs no longer map back to their v2 digests for random_scenario seeds {lost}"


def test_each_frozen_v2_digest_is_checked():
    """A corpus run leaves the v2 oracle only when its frozen digest is
    deleted on purpose, never when it is renamed."""
    assert set(V2_DIGESTS["corpus_digests"]) <= {name for name, _ in corpus_runs()}


def test_a_finished_run_is_freed_by_reference_count():
    """Nothing a run leaves behind is a reference cycle: with the collector
    off, each finished state is freed as its last reference goes, and the
    collector then finds nothing."""
    configs = [json.loads((FIXTURES / "canonical_pursuit.json").read_text())]
    configs += [random_scenario(seed) for seed in range(8)]
    gc.collect()
    gc.disable()
    try:
        for config in configs:
            log: list[dict] = []
            state, _ = eventlog.simulate(cfg.from_dict(config), log.append)
            freed = weakref.ref(state)
            del state
            assert freed() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_same_tick_joins_run_in_robot_id_order(tmp_path):
    """J1 and J2 join at tick 2. With sorted keys, the text of J2's entry
    sorts first; the joins still run in id order, from either key order."""
    config = {
        "seed": 1,
        "max_ticks": 60,
        "robots": [{"id": "R1", "capabilities": ORGANIZER}],
        "task": {"id": "T", "reward": 30, "subtasks": [
            {"id": "t1", "reward": 10, "requires": [["Action", "weld", 1]]}]},
        "events": [
            {"at": 2, "type": "join", "robot": {"id": "J1", "capabilities": [["Action", "weld", 3]]}},
            {"at": 2, "type": "join", "robot": {"id": "J2", "capabilities": [["Action", "weld", 1]]}},
        ],
    }
    joined = [
        rec["data"]["robot"]["id"]
        for rec in map(json.loads, check_log(config, tmp_path))
        if rec.get("event") == "RobotJoined"
    ]
    assert joined == ["J1", "J2"]


def resplit_with_failure() -> dict:
    """The `redecompose` golden with a spare welder R4 and a longer small1:
    `big` is re-split, R2 wins small1 and fails while working on it, and R4
    takes it over."""
    config = copy.deepcopy(scenario_config(GOLDEN["redecompose"]))
    config["robots"].append({"id": "R4", "capabilities": [["Action", "weld", 1]]})
    config["task"]["subtasks"][0]["alternatives"][0][0]["duration"] = 5
    config["events"] = [{"at": 22, "type": "fail", "robot": "R2"}]
    return config


@pytest.mark.parametrize(
    "config, kinds",
    [(resplit_with_failure(), {"redecompose", "revoked", "mission_done"}),
     (json.loads((FIXTURES / "canonical_pursuit.json").read_text()), {"captured", "mission_done"})],
    ids=["resplit_with_failure", "canonical_pursuit"],
)
def test_one_parsed_config_serves_two_runs(config, kinds):
    """A parsed config is input only: two runs of one `ScenarioConfig` emit
    the same records, and its task tree stays as parsed."""
    scenario = cfg.from_dict(config)
    parsed_task = copy.deepcopy(scenario.task)
    runs = []
    for _ in range(2):
        records: list[dict] = []
        eventlog.simulate(scenario, records.append)
        runs.append(records)
    notes = {n["kind"] for rec in runs[0] if rec["type"] == "event" for n in rec["detail"]["notes"]}
    assert kinds <= notes
    assert runs[0] == runs[1]
    assert scenario.task == parsed_task


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_state_hash.py --write")
    digests = {}
    for name, config in corpus_runs():
        log: list[str] = []
        run_logged(config, log=log)
        digests[name] = log_digest(log)
    report_moves(json.loads(CORPUS_PATH.read_text()), digests)
    CORPUS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
