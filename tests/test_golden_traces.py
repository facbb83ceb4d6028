"""Golden traces: the sha256 of the full JSONL log, header to end record, of
`hwrom run --log` on a fixed set of scenarios, read from the shared walk
(`corpus.py`), where golden NAME runs as `golden/NAME`.

A change that should not alter behaviour must leave every digest in
`fixtures/golden_traces.json` unchanged. A change that alters behaviour on
purpose regenerates them with

    PYTHONPATH=src python tests/corpus.py --write

which prints each digest it moved, and says why. Each entry is a config
(inline, or a fixture file with inline fields laid over it), the note kinds
its run must show, and the digest. `test_state_hash` replays each golden's
log and logs it again from its sorted-key config.

Each log, mapped back to log version 2 by `conftest.v4_to_v2`, must also hash
to its entry in the frozen `fixtures/v2_digests.json`: the log states the
same facts as the v2 log it replaced, each once. That file is never
regenerated; a change that moves a golden on purpose deletes its entry there.
"""

from __future__ import annotations

import json

import pytest

from conftest import V2_DIGESTS, V3_DROPPED, v2_moved
from corpus import GOLDEN, log_digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_digest(name, walk):
    entry = GOLDEN[name]
    run = walk.run(f"golden/{name}")
    missing = set(entry["notes"]) - run.notes
    assert not missing, f"{name} no longer exercises {sorted(missing)}"
    # an event record states each fact once, and no note restates its event
    for rec in map(json.loads, run.lines):
        if rec["type"] != "event":
            continue
        assert set(rec) == {"type", "event", "seq", "tick", "data", "detail"}
        assert rec["event"] != "Tick" or rec["data"] == {}
        for note in rec["detail"]["notes"]:
            assert not set(V3_DROPPED.get(note["kind"], ())) & set(note), (rec["event"], note)
    assert log_digest(run.lines) == entry["sha256"]
    assert not v2_moved("golden_traces", name, run.lines)


def test_each_frozen_v2_digest_is_checked():
    """A golden leaves the v2 oracle only when its frozen digest is deleted
    on purpose, never when it is renamed."""
    assert set(V2_DIGESTS["golden_traces"]) <= set(GOLDEN)
