import json
from pathlib import Path

import pytest

from blocklace.harness import canned
from blocklace.harness.scenario import ScenarioError, load_scenario, parse_scenario


def minimal(**overrides):
    raw = {
        "version": 1,
        "protocol": "tl",
        "agents": [{"name": "a"}, {"name": "b"}],
        "events": [
            {"tick": 0, "agent": "a", "cmd": "follow", "target": "b"},
            {"tick": 1, "agent": "a", "cmd": "say", "text": "hi"},
        ],
        "oracles": [{"name": "attribution"}],
    }
    raw.update(overrides)
    return raw


def test_minimal_parses():
    scenario = parse_scenario(minimal())
    assert scenario.protocol == "tl"
    assert scenario.agent_names() == ["a", "b"]
    assert len(scenario.events) == 2


@pytest.mark.parametrize(
    "mutation, location",
    [
        (dict(version=2), "version"),
        (dict(protocol="irc"), "protocol"),
        (dict(agents=[]), "agents"),
        (dict(agents=[{"name": "a"}, {"name": "a"}]), "agents[1].name"),
        (dict(agents=[{"name": "a", "role": "demon"}]), "agents[0].role"),
        (
            dict(events=[{"tick": 0, "agent": "zz", "cmd": "say", "text": "x"}]),
            "events[0].agent",
        ),
        (
            dict(events=[{"tick": 0, "agent": "a", "cmd": "create_group", "name": "g", "label": "G"}]),
            "events[0].cmd",
        ),
        (
            dict(events=[{"tick": 5, "agent": "a", "cmd": "say", "text": "x"},
                         {"tick": 4, "agent": "a", "cmd": "say", "text": "y"}]),
            "events[1].tick",
        ),
        (
            dict(events=[{"tick": 0, "agent": "a", "cmd": "follow", "target": "nobody"}]),
            "events[0].target",
        ),
        (
            dict(events=[{"tick": 0, "agent": "a", "cmd": "forge", "victim": "b",
                          "mode": "weird", "count": 1}]),
            "events[0].mode",
        ),
        (dict(oracles=[{"name": "nonsense"}]), "oracles[0].name"),
        (
            dict(oracles=[{"name": "tl_liveness", "author": "zz", "follower": "b"}]),
            "oracles[0].author",
        ),
        (dict(bootstrap=[{"agent": "a", "knows": "zz"}]), "bootstrap[0].knows"),
        (dict(ticks=0), "ticks"),
        (dict(net={"delay": [3]}), "net.delay"),
        (dict(agents=[{"name": "a b"}]), "agents[0].name"),
        (dict(agents=[{"name": "a", "address": "has\ttab"}]), "agents[0].address"),
        (
            dict(events=[{"tick": 0, "agent": "a", "cmd": "rebind", "address": "x y"}]),
            "events[0].address",
        ),
        (dict(net={"delay": [0, 3]}), "net.delay"),
        (dict(net={"delay": [4, 2]}), "net.delay"),
        (dict(net={"delay": [1, 2.5]}), "net.delay"),
        (dict(net={"loss": 1.5}), "net.loss"),
        (dict(net={"loss": -0.1}), "net.loss"),
        (dict(net={"loss": "high"}), "net.loss"),
        (dict(net={"dup": 2}), "net.dup"),
        (dict(net={"dup": True}), "net.dup"),
        (dict(net={"tick_interval": 0}), "net.tick_interval"),
        (dict(net={"tick_interval": 1.5}), "net.tick_interval"),
        # bool is a subclass of int, so each integer field must refuse it.
        (dict(seed=True), "seed"),
        (dict(ticks=True), "ticks"),
        (dict(events=[{"tick": True, "agent": "a", "cmd": "say", "text": "x"}]), "events[0].tick"),
        (
            dict(events=[{"tick": 0, "agent": "a", "cmd": "forge", "victim": "b",
                          "mode": "garbage", "count": True}]),
            "events[0].count",
        ),
        # A string such as "no" is truthy and would leave encryption on.
        (dict(wl_encrypt="no"), "wl_encrypt"),
    ],
)
def test_validation_reports_location(mutation, location):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(**mutation))
    assert location in str(err.value)


def test_net_edges_accepted():
    scenario = parse_scenario(
        minimal(net={"loss": 1, "dup": 0.0, "delay": [2, 2], "tick_interval": 3})
    )
    assert (scenario.loss_prob, scenario.dup_prob) == (1, 0.0)
    assert (scenario.delay_min, scenario.delay_max, scenario.tick_interval) == (2, 2, 3)


SCENARIO_FILES = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
def test_committed_scenario_matches_its_builder(path):
    scenario = load_scenario(str(path))
    assert scenario.to_dict() == canned.CANNED[path.stem](seed=scenario.seed).to_dict()


def test_round_trip_canned(tmp_path):
    for name, builder in canned.CANNED.items():
        scenario = builder(seed=5)
        raw = scenario.to_dict()
        again = parse_scenario(json.loads(json.dumps(raw)))
        assert again.to_dict() == raw
        assert again.digest() == scenario.digest()


def test_digest_sensitive_to_content():
    one = parse_scenario(minimal())
    two = parse_scenario(minimal(seed=99))
    assert one.digest() != two.digest()


def test_with_seed_changes_only_seed():
    scenario = parse_scenario(minimal())
    reseeded = scenario.with_seed(123)
    assert reseeded.seed == 123
    assert reseeded.events == scenario.events
    assert scenario.seed == 0


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal()))
    scenario = load_scenario(str(path))
    assert scenario.agent_names() == ["a", "b"]
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))
