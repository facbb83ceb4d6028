"""Golden traces: the sha256 of the full JSONL log, header to end record, of
`hwrom run --log` on a fixed set of scenarios.

A change that should not alter behaviour must leave every digest in
`fixtures/golden_traces.json` unchanged. A change that alters behaviour on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden_traces.py --write

and says why. Each entry is a config (inline, or a fixture file with inline
fields laid over it), the note kinds its run must show, and the digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from hwrom import eventlog

from conftest import log_notes, run_cli_logged

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
    missing = set(entry["notes"]) - {note["kind"] for note in log_notes(log_path)}
    assert not missing, f"{name} no longer exercises {sorted(missing)}"
    assert hashlib.sha256(log_path.read_bytes()).hexdigest() == entry["sha256"]
    assert eventlog.replay(log_path).ok


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_traces.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        for entry in GOLDEN.values():
            _, log_path = run_cli_logged(scenario_config(entry), Path(tmp))
            entry["sha256"] = hashlib.sha256(log_path.read_bytes()).hexdigest()
    lines = [
        f"  {json.dumps(name)}: {{\n"
        + ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in entry.items())
        + "\n  }"
        for name, entry in GOLDEN.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
