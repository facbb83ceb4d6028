"""Golden traces: the sha256 of the full JSONL log, header to end record, of
`hwrom run --log` on a fixed set of scenarios.

A change that should not alter behaviour must leave every digest in
`fixtures/golden_traces.json` unchanged. A change that alters behaviour on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden_traces.py --write

which prints each digest it moved, and says why. Each entry is a config
(inline, or a fixture file with inline fields laid over it), the note kinds
its run must show, and the digest.

Each log, mapped back to log version 2 by `conftest.v4_to_v2`, must also hash
to its entry in the frozen `fixtures/v2_digests.json`: the log states the
same facts as the v2 log it replaced, each once. That file is never
regenerated; a change that moves a golden on purpose deletes its entry there.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from hwrom import eventlog

from conftest import V2_DIGESTS, V3_DROPPED, report_moves, run_cli_logged, v2_moved

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_PATH = FIXTURES / "golden_traces.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def scenario_config(entry: dict) -> dict:
    config: dict = {}
    if "fixture" in entry:
        config = json.loads((FIXTURES / entry["fixture"]).read_text())
        config.pop("meta", None)
    config.update(entry.get("config", {}))
    return config


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_digest(name, tmp_path):
    entry = GOLDEN[name]
    _, log_path = run_cli_logged(scenario_config(entry), tmp_path)
    lines = log_path.read_text().splitlines()
    events = [rec for rec in map(json.loads, lines) if rec["type"] == "event"]
    missing = set(entry["notes"]) - {note["kind"] for rec in events for note in rec["detail"]["notes"]}
    assert not missing, f"{name} no longer exercises {sorted(missing)}"
    # an event record states each fact once, and no note restates its event
    for rec in events:
        assert set(rec) == {"type", "event", "seq", "tick", "data", "detail"}
        assert rec["event"] != "Tick" or rec["data"] == {}
        for note in rec["detail"]["notes"]:
            assert not set(V3_DROPPED.get(note["kind"], ())) & set(note), (rec["event"], note)
    assert hashlib.sha256(log_path.read_bytes()).hexdigest() == entry["sha256"]
    assert not v2_moved("golden_traces", name, lines)
    assert eventlog.replay(log_path).ok


def test_each_frozen_v2_digest_is_checked():
    """A golden leaves the v2 oracle only when its frozen digest is deleted
    on purpose, never when it is renamed."""
    assert set(V2_DIGESTS["golden_traces"]) <= set(GOLDEN)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_traces.py --write")
    old = {name: entry["sha256"] for name, entry in GOLDEN.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for entry in GOLDEN.values():
            _, log_path = run_cli_logged(scenario_config(entry), Path(tmp))
            entry["sha256"] = hashlib.sha256(log_path.read_bytes()).hexdigest()
    report_moves(old, {name: entry["sha256"] for name, entry in GOLDEN.items()})
    lines = [
        f"  {json.dumps(name)}: {{\n"
        + ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in entry.items())
        + "\n  }"
        for name, entry in GOLDEN.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
