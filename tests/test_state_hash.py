"""Replay and key order over the shared walk's runs (`corpus.py`).

Replay re-runs a log's header config, and the header holds that config with
its keys sorted. So each run here is logged again from its config's
sorted-key dump, and that log must equal the walk's byte for byte. The log
must then replay clean, and its end record's `final_hash` must equal sha256
of the canonical JSON of `state_snapshot`, computed here from that
definition. The runs are the goldens, every pursuit fixture with no failure,
its member failure and its leader failure, and `random_scenario(0..199)`.
The test names keep `cached_hash` from the log v1 fragment cache these runs
used to check, so that the test ids stay stable. Last, one parsed config
runs twice: the second run must emit the first run's records.

`fixtures/corpus_digests.json` must be exactly the table of log digests that
`PYTHONPATH=src python tests/corpus.py --write` would write from the walk.
Each pinned log, mapped back to log version 2, must also hash to its entry
in the frozen `fixtures/v2_digests.json`, as the golden traces' logs must.
"""

from __future__ import annotations

import copy
import functools
import gc
import hashlib
import json
import weakref

import pytest

from hwrom import config as cfg
from hwrom import eventlog
from hwrom import formation as fm
from hwrom.org_core import canonical_json

import corpus
from conftest import V2_DIGESTS, v2_moved
from corpus import CORPUS_PATH, FIXTURES, GOLDEN, ORGANIZER, PURSUIT_FIXTURES, RANDOM_SEEDS

PINNED = json.loads(CORPUS_PATH.read_text())


def reference_hash(state: fm.FormationState) -> str:
    payload = json.dumps(fm.state_snapshot(state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@functools.cache
def check_log(run: corpus.Run) -> None:
    """Log the run's config again from its sorted-key dump and check that the
    log equals the walk's, that the end record's `final_hash` is the
    reference hash of the final state, and that the log replays clean. Each
    run is checked once, under whichever of its names asks first."""
    resorted: list[str] = []
    config = cfg.from_dict(json.loads(json.dumps(run.config, sort_keys=True)))
    eventlog.simulate(config, lambda rec: resorted.append(canonical_json(rec)))
    differs = next((i for i, (a, b) in enumerate(zip(run.lines, resorted), 1) if a != b), len(resorted) + 1)
    assert run.lines == resorted, f"{run.name}: the sorted-key log differs from line {differs}"
    final, reference = json.loads(run.lines[-1])["final_hash"], reference_hash(run.state)
    assert final == reference, f"{run.name}: final_hash {final}, the reference hash {reference}"
    assert run.replayed.ok, f"{run.name}: {run.replayed.message}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cached_hash_matches_on_golden_scenarios(name, walk):
    check_log(walk.run(f"golden/{name}"))


@pytest.mark.parametrize("path", PURSUIT_FIXTURES, ids=lambda p: p.stem)
def test_cached_hash_matches_on_pursuit_fixtures(path, walk):
    lost = []
    for name, _ in corpus.pursuit_runs(path):
        check_log(walk.run(name))
        if v2_moved("corpus_digests", name, walk.run(name).lines):
            lost.append(name)
    assert not lost, f"logs no longer map back to their v2 digests: {lost}"


def test_cached_hash_matches_on_random_churn(walk):
    notes: set[str] = set()
    lost = []
    for seed in RANDOM_SEEDS:
        run = walk.run(f"random_scenario/{seed}")
        check_log(run)
        if v2_moved("corpus_digests", f"random_scenario/{seed}", run.lines):
            lost.append(seed)
        notes |= run.notes
    # the corpus reaches every path that edits the tree or settles utilities
    assert {"award", "give_up", "allocated", "withdrew", "joined", "reelected",
            "dissolved", "mission_done"} <= notes
    assert not lost, f"logs no longer map back to their v2 digests for random_scenario seeds {lost}"


def test_the_pinned_digests_are_the_corpus_key_for_key(walk):
    """`fixtures/corpus_digests.json` is exactly the table that
    `corpus.py --write` would write from the walk: a pinned run that left the
    corpus, or a corpus run that was never pinned, fails here."""
    table = corpus.digest_table(walk)
    assert table == PINNED, {
        "unpinned": sorted(table.keys() - PINNED.keys()),
        "not in the corpus": sorted(PINNED.keys() - table.keys()),
        "moved": sorted(name for name in table.keys() & PINNED.keys() if table[name] != PINNED[name]),
    }


def test_each_frozen_v2_digest_is_checked():
    """A corpus run leaves the v2 oracle only when its frozen digest is
    deleted on purpose, never when it is renamed."""
    assert set(V2_DIGESTS["corpus_digests"]) <= corpus.corpus_runs().keys()


def test_a_finished_run_is_freed_by_reference_count():
    """Nothing a run leaves behind is a reference cycle: with the collector
    off, each finished state is freed as its last reference goes, and the
    collector then finds nothing. The random seeds are ones the shared walk
    does not run."""
    configs = [json.loads((FIXTURES / "canonical_pursuit.json").read_text())]
    configs += [corpus.random_scenario(seed) for seed in range(400, 408)]
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


def test_same_tick_joins_run_in_robot_id_order():
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
    run = corpus.walk({"joins": config}).run("joins")
    check_log(run)
    joined = [
        rec["data"]["robot"]["id"]
        for rec in map(json.loads, run.lines)
        if rec.get("event") == "RobotJoined"
    ]
    assert joined == ["J1", "J2"]


def resplit_with_failure() -> dict:
    """The `redecompose` golden with a spare welder R4 and a longer small1:
    `big` is re-split, R2 wins small1 and fails while working on it, and R4
    takes it over."""
    config = copy.deepcopy(corpus.scenario_config(GOLDEN["redecompose"]))
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
