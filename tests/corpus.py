"""The shared test corpora, their generators, and the walk that runs them.

`walk` runs each distinct config once through `eventlog.simulate` and keeps
its names, log lines and final state; the session fixture `conftest.walk`
walks `walk_runs()` with every probe the collected modules registered. A
probe (`@probe(covers)`) wraps engine functions for each run it covers and
notes a failed comparison with `run.find` instead of raising, so a finding,
or a run that raises, fails only the tests that read that run.

A change that alters behaviour on purpose regenerates the pinned log digests
(`fixtures/golden_traces.json`, `fixtures/corpus_digests.json`) with
`PYTHONPATH=src python tests/corpus.py --write`, and says why.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import pytest

from hwrom import config as cfg
from hwrom import eventlog
from hwrom import formation as fm
from hwrom.org_core import canonical_json

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_PATH = FIXTURES / "golden_traces.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
CORPUS_PATH = FIXTURES / "corpus_digests.json"
PURSUIT_FIXTURES = sorted(FIXTURES.glob("pursuit_*.json")) + [FIXTURES / "canonical_pursuit.json"]
ORGANIZER = [["Organization", "plan", 1], ["Communication", "radio", 1]]
WELD = [["Action", "weld", 1]]
SKILLS = (("Action", "weld"), ("Sensing", "vision"), ("Moving", "speed"))
RANDOM_SEEDS = range(200)


# --- the generators ----------------------------------------------------------------


def scenario_config(entry: dict) -> dict:
    """A golden's config: its fixture file, if it names one, with its inline
    fields laid over it."""
    config: dict = {}
    if "fixture" in entry:
        config = json.loads((FIXTURES / entry["fixture"]).read_text())
        config.pop("meta", None)
    config.update(entry.get("config", {}))
    return config


def with_fail(config: dict, fail: tuple[str, int]) -> dict:
    """`config` with a scripted failure of robot `fail[0]` at tick `fail[1]`
    added, as `hwrom run --fail ROBOT@TICK` adds it."""
    robot, at = fail
    return {**config, "events": [*config.get("events", []), {"at": at, "type": "fail", "robot": robot}]}


def organizer_failure(config: dict, at: int) -> dict:
    """`config` with its scripted events replaced by R1 failing at tick `at`."""
    return dict(config, events=[{"at": at, "type": "fail", "robot": "R1"}])


def pursuit_runs(path: Path) -> list[tuple[str, dict]]:
    """A pursuit fixture's runs: the fixture as it is, and with the member
    failure and the leader failure of its `meta` block."""
    raw = json.loads(path.read_text())
    meta = raw.pop("meta", None)
    runs = [(path.stem, raw)]
    if meta is not None:
        runs.append((f"{path.stem}/member_failure", with_fail(raw, (meta["victim"], meta["fail_tick"]))))
        runs.append((f"{path.stem}/leader_failure", with_fail(raw, (meta["leader"], meta["leader_fail_tick"]))))
    return runs


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


def two_team_config(robots: dict[str, list], costs: dict, fail: str) -> dict:
    """T leads X (over leaf a, duration 1) and Y (over leaf b, duration 30);
    `fail` fails at tick 25, while b is still running."""
    leaf = {"reward": 10, "requires": WELD}
    return {
        "seed": 1,
        "max_ticks": 200,
        "robots": [{"id": r, "capabilities": caps} for r, caps in robots.items()],
        "task": {"id": "T", "reward": 100, "subtasks": [
            {"id": "X", "reward": 10, "subtasks": [dict(leaf, id="a", duration=1)]},
            {"id": "Y", "reward": 10, "subtasks": [dict(leaf, id="b", duration=30)]},
        ]},
        "costs": costs,
        "events": [{"at": 25, "type": "fail", "robot": fail}],
    }


def chain_config() -> dict:
    """R1 leads X and completes it; once R2 fails, only R1 can lead Y."""
    return two_team_config(
        {"R1": ORGANIZER + WELD, "R2": ORGANIZER + WELD, "R3": WELD},
        {"R1": {"X": 1, "Y": 25, "a": 5, "b": 9}, "R2": {"X": 25, "Y": 1, "a": 9, "b": 1},
         "R3": {"a": 1, "b": 9}},
        fail="R2",
    )


def one_unit_config() -> dict:
    """R2 completes a in team:X, then wins Y once R4 fails."""
    return two_team_config(
        {"R1": ORGANIZER + WELD, "R2": ORGANIZER + WELD, "R3": WELD, "R4": ORGANIZER},
        {"R1": {"T": 1, "X": 1, "Y": 25, "a": 9, "b": 9},
         "R2": {"T": 9, "X": 25, "Y": 20, "a": 1, "b": 9},
         "R3": {"a": 9, "b": 1}, "R4": {"T": 9, "X": 25, "Y": 1}},
        fail="R4",
    )


# --- the corpora -------------------------------------------------------------------


def walk_runs() -> dict[str, dict]:
    """Every run of the shared walk, by name: the goldens as `golden/NAME`,
    each pursuit fixture with no failure, its member failure and its leader
    failure, `random_scenario(0..399)` and `random_pursuit_config(0..199)`."""
    runs = {f"golden/{name}": scenario_config(entry) for name, entry in GOLDEN.items()}
    runs.update(run for path in PURSUIT_FIXTURES for run in pursuit_runs(path))
    runs.update((f"random_scenario/{seed}", random_scenario(seed)) for seed in range(400))
    runs.update((f"random_pursuit_config/{seed}", random_pursuit_config(seed)) for seed in range(200))
    return runs


def golden_or_pinned(name: str) -> bool:
    """Whether the run `name` is a golden or one of `corpus_runs`."""
    group, _, rest = name.partition("/")
    if group == "random_scenario":
        return int(rest) in RANDOM_SEEDS
    return group == "golden" or rest in ("", "leader_failure")


def corpus_runs() -> dict[str, dict]:
    """The runs whose log digests `fixtures/corpus_digests.json` pins, by
    name: each pursuit fixture as it is and with its leader failure, and
    `random_scenario(0..199)`."""
    runs = walk_runs().items()
    return {name: config for name, config in runs if golden_or_pinned(name) and not name.startswith("golden/")}


# --- the walk ----------------------------------------------------------------------


@dataclass(eq=False)
class Run:
    """One walked config: the names it runs under, its log lines, its final
    state or the exception it raised, the note kinds it logged, and what its
    probes found and counted."""

    config: dict
    names: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    state: fm.FormationState | None = None
    error: str | None = None
    notes: set[str] = field(default_factory=set)
    found: dict[str, list[str]] = field(default_factory=dict)
    seen: Counter = field(default_factory=Counter)

    @property
    def name(self) -> str:
        return self.names[0]

    def find(self, key: str, tick: int, what: object) -> None:
        """Note a failed comparison of probe `key` at `tick`."""
        self.found.setdefault(key, []).append(f"{self.name} at tick {tick}: {what}")

    def record(self, rec: dict) -> None:
        self.lines.append(canonical_json(rec))
        if rec["type"] == "event":
            self.notes.update(note["kind"] for note in rec["detail"]["notes"])

    @functools.cached_property
    def replayed(self) -> eventlog.ReplayOutcome:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            path.write_text("".join(line + "\n" for line in self.lines))
            return eventlog.replay(path)


Probe = tuple[Callable[[str], bool], Callable[[pytest.MonkeyPatch, Run], None]]
PROBES: list[Probe] = []


def probe(covers: Callable[[str], bool] = lambda name: True):
    """Register `install(mp, run)` as a probe of the shared walk, for each
    run one of whose names `covers` accepts."""

    def register(install):
        PROBES.append((covers, install))
        return install

    return register


class Walk(dict):
    """The walked runs, by name."""

    def run(self, name: str) -> Run:
        """The run `name`; fails the calling test if it raised."""
        run = self[name]
        assert run.error is None, f"{name} raised {run.error}"
        return run

    def assert_clean(self, key: str, names: Iterable[str]) -> Counter:
        """Fail the calling test on a finding of probe `key` over the named
        runs, showing the first, or on a run that raised; return what the
        probes counted over the runs."""
        runs = dict.fromkeys(self[name] for name in names)
        found = [finding for run in runs for finding in run.found.get(key, [])]
        assert not found, f"{len(found)} findings, the first: {found[0]}"
        return sum((self.run(run.name).seen for run in runs), Counter())


def walk(runs: dict[str, dict], probes: Iterable[Probe] = ()) -> Walk:
    """Simulate each distinct config of `runs` once, with each probe that
    covers one of its names installed."""
    named = Walk()
    by_config: dict[str, Run] = {}
    for name, config in runs.items():
        named[name] = by_config.setdefault(canonical_json(config), Run(config))
        named[name].names.append(name)
    for run in by_config.values():
        with pytest.MonkeyPatch.context() as mp:
            for covers, install in probes:
                if any(map(covers, run.names)):
                    install(mp, run)
            try:
                run.state, _ = eventlog.simulate(cfg.from_dict(run.config), run.record)
            except Exception as exc:
                where = traceback.extract_tb(exc.__traceback__)[-1]
                run.error = f"{exc!r} at {Path(where.filename).name}:{where.lineno}"
    return named


# --- the pinned digests ------------------------------------------------------------


def log_digest(lines: list[str]) -> str:
    """sha256 of a log's lines as `hwrom run --log` writes them."""
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def digest_table(runs: Walk) -> dict[str, str]:
    """The table `fixtures/corpus_digests.json` holds: each corpus run's log
    digest, by name."""
    return {name: log_digest(runs.run(name).lines) for name in corpus_runs()}


def report_moves(old: dict[str, str], new: dict[str, str]) -> None:
    """Print each pinned digest that a regeneration moved, then the count of
    those it left alone."""
    for name in new:
        if old.get(name) != new[name]:
            print(f"{name}: {old.get(name)} -> {new[name]}")
    print(f"{sum(old.get(name) == digest for name, digest in new.items())} unchanged")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/corpus.py --write")
    runs = walk(walk_runs())
    old = {name: entry["sha256"] for name, entry in GOLDEN.items()}
    for name, entry in GOLDEN.items():
        entry["sha256"] = log_digest(runs.run(f"golden/{name}").lines)
    report_moves(old, {name: entry["sha256"] for name, entry in GOLDEN.items()})
    lines = [
        f"  {json.dumps(name)}: {{\n"
        + ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in entry.items())
        + "\n  }"
        for name, entry in GOLDEN.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    digests = digest_table(runs)
    report_moves(json.loads(CORPUS_PATH.read_text()), digests)
    CORPUS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
