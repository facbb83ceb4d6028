"""The structural index against the tree scans it replaced.

`org_core.index` returns the org's cached `OrgIndex`. Every call made during
the shared walk's runs (`corpus.py`), mid-step ones included, must return an
index equal to the one the old scanning helpers compute from the current
tree and assignments: a probe compares the two on every call. The runs cover
the golden-trace scenarios, every pursuit fixture with its leader failure,
and 200 seeded random generic scenarios with drops, latency, membership
churn, Parallel pairs and forced give-ups.
"""

from __future__ import annotations

import gc

import pytest

from hwrom import formation as fm
from hwrom import org_core

import corpus
from corpus import GOLDEN, PURSUIT_FIXTURES, RANDOM_SEEDS


def reference_index(org: org_core.Organization) -> dict:
    """Each lookup as the scans before the index computed it, with nodes by
    identity: the first match in preorder wins."""
    walk = list(org_core.iter_nodes(org))

    def first(pred):
        return next((entry for entry in walk if pred(entry[0])), None)

    ids = {node.id_ros for node, _, _, _ in walk}
    robots = {node.id_robot for node, _, _, _ in walk if node.id_robot is not None}
    found = {i: first(lambda n, i=i: n.id_ros == i) for i in ids}
    leaves = {r: first(lambda n, r=r: n.is_leaf and n.id_robot == r) for r in robots}
    leaves = {r: entry for r, entry in leaves.items() if entry is not None}
    led = {r: [n for n, _, _, _ in walk if n.children and n.id_robot == r] for r in robots}
    assignees = {a.assignee for a in org.assignments.values()}
    return {
        "node": {i: id(node) for i, (node, _, _, _) in found.items()},
        "parent": {i: id(parent) for i, (_, parent, _, _) in found.items()},
        "depth": {i: depth for i, (_, _, depth, _) in found.items()},
        "leaf_of_robot": {r: id(node) for r, (node, _, _, _) in leaves.items()},
        "team_of_robot": {
            r: (parent if parent is not None else node).id_ros
            for r, (node, parent, _, _) in leaves.items()
        },
        "led_by": {r: [id(n) for n in nodes] for r, nodes in led.items() if nodes},
        "tasks_by_robot": {
            r: {t for t, a in org.assignments.items() if a.assignee == r} for r in assignees
        },
    }


def as_reference(ix: org_core.OrgIndex) -> dict:
    return {
        "node": {i: id(node) for i, node in ix.node.items()},
        "parent": {i: id(parent) for i, parent in ix.parent.items()},
        "depth": dict(ix.depth),
        "leaf_of_robot": {r: id(node) for r, node in ix.leaf_of_robot.items()},
        "team_of_robot": dict(ix.team_of_robot),
        "led_by": {r: [id(n) for n in nodes] for r, nodes in ix.led_by.items()},
        "tasks_by_robot": {r: set(ts) for r, ts in ix.tasks_by_robot.items()},
    }


@corpus.probe(covers=corpus.golden_or_pinned)
def index_matches_scans(mp, run):
    """Compare every `org_core.index` call of the run with the reference."""
    index, step = org_core.index, fm.step
    tick = [0]

    def ticking_step(state, event):
        tick[0] = event.tick
        return step(state, event)

    def checking_index(org):
        ix = index(org)
        got, want = as_reference(ix), reference_index(org)
        if got != want:
            run.find("index", tick[0], {key: (got[key], want[key]) for key in want if got[key] != want[key]})
        run.seen["index"] += 1
        return ix

    mp.setattr(fm, "step", ticking_step)
    mp.setattr(org_core, "index", checking_index)


def test_index_matches_scans_on_a_hand_built_org(monkeypatch):
    run = corpus.Run({}, ["hand-built"])
    index_matches_scans(monkeypatch, run)
    root = org_core.OrgNode("team:T", "R1", 0, 0)
    sub = org_core.OrgNode("team:c1", "R2", 1, 1)
    sub.children = [org_core.OrgNode("unit:R2", "R2", 2, 0), org_core.OrgNode("unit:R3", "R3", 2, 1)]
    root.children = [org_core.OrgNode("unit:R1", "R1", 1, 0), sub]
    org = org_core.Organization(root=root)
    assert org_core.level_of(org, "unit:R3") == 2
    assert org_core.leader_of(org, "team:c1") == "R2"
    assert not org_core.communication_allowed(org, "R3", "R1")
    assert run.seen["index"] == 3 and not run.found


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_index_matches_scans_on_golden_scenarios(name, walk):
    assert walk.assert_clean("index", [f"golden/{name}"])["index"]


@pytest.mark.parametrize("path", PURSUIT_FIXTURES, ids=lambda p: p.stem)
def test_index_matches_scans_on_pursuit_fixtures(path, walk):
    runs = [name for name, _ in corpus.pursuit_runs(path) if corpus.golden_or_pinned(name)]
    assert walk.run(path.stem).state.world is not None
    assert walk.assert_clean("index", runs)["index"]


def test_index_matches_scans_on_random_churn(walk):
    runs = [f"random_scenario/{seed}" for seed in RANDOM_SEEDS]
    checks = walk.assert_clean("index", runs)["index"]
    notes = set().union(*(walk.run(name).notes for name in runs))
    # the corpus reaches every path that edits the tree or the assignments
    assert {"award", "revoked", "give_up", "allocated", "withdrew", "joined", "reelected",
            "dissolved"} <= notes
    assert checks > 5000


def test_index_rebuilds_leave_no_reference_cycle():
    root = org_core.OrgNode("team:T", "R1", 0, 0)
    root.children = [org_core.OrgNode("unit:R1", "R1", 1, 0), org_core.OrgNode("unit:R2", "R2", 1, 1)]
    org = org_core.Organization(root=root)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            org.index_cache = None
            org_core.index(org)
        assert gc.collect() == 0
    finally:
        gc.enable()
