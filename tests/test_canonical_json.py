"""The canonical JSON encoder against `json.dumps`.

`org_core.canonical_json` calls a C encoder it builds once, and falls back to
`JSONEncoder.encode` on a Python without the C accelerator. Both must give
exactly `json.dumps(x, sort_keys=True, separators=(",", ":"))` for every log
record and every final org and state snapshot of the shared walk's goldens
and corpus runs (`corpus.py`): the pursuit fixtures and
`random_scenario(0..199)`. Each record is read back from its log line, and
the line the run logged must be that same text. The hand-made values are
non-ASCII robot ids, ids holding a quote or a backslash, float and bool
config values, and a top-level string.
"""

from __future__ import annotations

import json
from typing import Iterable

import pytest

from hwrom import formation as fm
from hwrom import org_core

import corpus
from corpus import GOLDEN, ORGANIZER

ODD_IDS = ("Rø", 'R"2', "R\\3", "J☃")


def odd_config() -> dict:
    """A generic run whose robot ids need escapes, whose `max_ticks` is a
    float, and whose joiner's logged `pos` holds a float and a bool."""
    lead, quote, backslash, joiner = ODD_IDS
    return {
        "seed": 3,
        "max_ticks": 60.0,
        "robots": [
            {"id": lead, "capabilities": ORGANIZER},
            {"id": quote, "capabilities": [["Action", "weld", 2]]},
            {"id": backslash, "capabilities": [["Sensing", "vision", 1]]},
        ],
        "task": {"id": "T", "reward": 40, "subtasks": [
            {"id": "t1", "reward": 10, "requires": [["Action", "weld", 1]]},
            {"id": "t2", "reward": 10, "requires": [["Sensing", "vision", 1]]},
        ]},
        "events": [{"at": 2, "type": "join", "pos": [1.5, True],
                    "robot": {"id": joiner, "capabilities": [["Action", "weld", 3]]}}],
    }


def reference(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def data(walk) -> tuple[list[str], list[object], list[str], list[str]]:
    """Where each value comes from, the values, `reference` of each, and the
    log lines of the records among them, which come first: every record, read
    back from its log line, of the goldens, the corpus runs and the hand-made
    run; then their final org and state snapshots; then hand-made values."""
    runs = [walk.run(f"golden/{name}") for name in GOLDEN] + [walk.run(name) for name in corpus.corpus_runs()]
    runs = list(dict.fromkeys(runs)) + [corpus.walk({"odd": odd_config()}).run("odd")]
    logged = [line for run in runs for line in run.lines]
    where = [f"{run.name} line {number}" for run in runs for number in range(1, len(run.lines) + 1)]
    values: list[object] = list(map(json.loads, logged))
    for run in runs:
        where += [f"{run.name} final org", f"{run.name} final state"]
        values += [org_core.snapshot_dict(run.state.org), fm.state_snapshot(run.state)]
    where += ["hand-made"] * (len(ODD_IDS) + 1)
    values += [*ODD_IDS, {"x": 0.1, "y": -2.5e-7, "z": 1e300, "t": True, "f": False, "n": None}]
    return where, values, [reference(value) for value in values], logged


def first_difference(where: list[str], got: Iterable[str], expected: list[str]) -> str | None:
    return next((f"{at}: {a} != {b}" for at, a, b in zip(where, got, expected) if a != b), None)


def test_the_odd_run_logs_its_odd_values(data):
    """The hand-made run reaches the log: every id, the float and the bool."""
    where, _, expected, _ = data
    log = "\n".join(line for at, line in zip(where, expected) if at.startswith("odd line"))
    assert log.isascii()
    for rid in ODD_IDS:
        assert reference(rid)[1:-1] in log
    assert '"max_ticks":60.0' in log and '"pose":[1.5,true]' in log


def test_canonical_json_is_sorted_compact_json_dumps(data):
    where, values, expected, logged = data
    assert first_difference(where, map(org_core.canonical_json, values), expected) is None
    # each run logged the text its records read back to
    assert first_difference(where, logged, expected) is None


def test_the_fallback_without_the_c_encoder_gives_the_same_bytes(data, monkeypatch):
    where, values, expected, _ = data
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    fallback = org_core.canonical_encoder()
    assert isinstance(getattr(fallback, "__self__", None), json.JSONEncoder)
    assert first_difference(where, map(fallback, values), expected) is None
