"""The canonical JSON encoder against `json.dumps`.

`org_core.canonical_json` calls a C encoder it builds once, and falls back to
`JSONEncoder.encode` on a Python without the C accelerator. Both must give
exactly `json.dumps(x, sort_keys=True, separators=(",", ":"))` for every log
record and every org and state snapshot over the goldens, the pursuit
fixtures and `random_scenario(0..199)`, and for hand-made values: non-ASCII
robot ids, ids holding a quote or a backslash, float and bool config values,
and a top-level string.
"""

from __future__ import annotations

import json

import pytest

from hwrom import config as cfg
from hwrom import eventlog
from hwrom import formation as fm
from hwrom import org_core

from test_golden_traces import GOLDEN, scenario_config
from test_state_hash import ORGANIZER, corpus_runs

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
def corpus() -> tuple[list[object], list[str]]:
    """Every record and final org and state snapshot of the corpus runs, and
    the hand-made values; with `reference` of each, made by the C encoder."""
    configs = [scenario_config(entry) for entry in GOLDEN.values()]
    configs += [config for _, config in corpus_runs()] + [odd_config()]
    data: list[object] = []
    for config in configs:
        state, _ = eventlog.simulate(cfg.from_dict(config), data.append)
        data += [org_core.snapshot_dict(state.org), fm.state_snapshot(state)]
    data += [*ODD_IDS, {"x": 0.1, "y": -2.5e-7, "z": 1e300, "t": True, "f": False, "n": None}]
    return data, [reference(item) for item in data]


def test_the_odd_run_logs_its_odd_values(corpus):
    """The hand-made run reaches the log: every id, the float and the bool."""
    _, expected = corpus
    log = "\n".join(expected)
    assert log.isascii()
    for rid in ODD_IDS:
        assert reference(rid)[1:-1] in log
    assert '"max_ticks":60.0' in log and '"pose":[1.5,true]' in log


def test_canonical_json_is_sorted_compact_json_dumps(corpus):
    data, expected = corpus
    got = [org_core.canonical_json(item) for item in data]
    assert [i for i, (a, b) in enumerate(zip(got, expected)) if a != b] == []


def test_the_fallback_without_the_c_encoder_gives_the_same_bytes(corpus, monkeypatch):
    data, expected = corpus
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    fallback = org_core.canonical_encoder()
    assert isinstance(getattr(fallback, "__self__", None), json.JSONEncoder)
    got = [fallback(item) for item in data]
    assert [i for i, (a, b) in enumerate(zip(got, expected)) if a != b] == []
