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
    assert [a.name for a in scenario.agents] == ["a", "b"]
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
        (dict(events=[{"tick": 0, "agent": "a", "cmd": "mute", "target": "b"}]), "events[0].target"),
        # A label binds the block its command utters; these utter none of
        # their own, so a label there would bind the agent's last block.
        (
            dict(events=[{"tick": 0, "agent": "a", "cmd": "equivocate", "text_a": "x",
                          "text_b": "y", "recipients_a": ["b"], "recipients_b": ["b"],
                          "label": "L"}]),
            "events[0].label",
        ),
        (
            dict(events=[{"tick": 0, "agent": "a", "cmd": "forge", "victim": "b",
                          "mode": "tamper", "count": 1, "label": "L"}]),
            "events[0].label",
        ),
        (
            dict(events=[{"tick": 0, "agent": "a", "cmd": "rebind", "address": "a/1",
                          "label": "L"}]),
            "events[0].label",
        ),
        (dict(events=[{"tick": 0, "agent": "a", "cmd": "mute", "label": "L"}]), "events[0].label"),
        # Every command that utters one block checks its label.
        (
            dict(events=[{"tick": 0, "agent": "a", "cmd": "follow", "target": "b", "label": ""}]),
            "events[0].label",
        ),
        (
            dict(protocol="wl", events=[{"tick": 0, "agent": "a", "cmd": "invite",
                                         "group": "G", "target": "b", "label": 7}]),
            "events[0].label",
        ),
        (
            dict(protocol="wl", events=[{"tick": 0, "agent": "a", "cmd": "accept",
                                         "group": "G", "label": ["L"]}]),
            "events[0].label",
        ),
    ],
)
def test_validation_reports_location(mutation, location):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(**mutation))
    assert location in str(err.value)


def test_mute_takes_no_arguments():
    scenario = parse_scenario(minimal(events=[{"tick": 3, "agent": "b", "cmd": "mute"}]))
    assert scenario.events[0].command == {"cmd": "mute"}


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


# The builder calls with arguments that the CLI demos, the tl_feed workload
# and the acceptance gate make; the golden traces and scenarios/*.json pin
# only the defaults.
PINNED_DIGESTS = [
    (canned.tl_line, dict(seed=1, utterances=6),
     "a26d531134cbc464ea6a06c30da9654333244d341b9dfb9283d652875dfa2b5d"),
    (canned.wl_group, dict(seed=1, utterances=8),
     "a4e5de57326b94ad2bc9dbcdb802c50909507d12643bd7adc0b92f85cb3162e0"),
    (canned.tl_line, dict(seed=1, utterances=300, loss=0.3, dup=0.1),
     "cb5c214e60ee51e3acc0203580911f4fefa954110ff417b81277e19fc1c4b481"),
    (canned.wl_privacy, dict(seed=0, encrypt=False),
     "b69bfb6b33ec2994555499c1f44f5b293036657872a083a19fb545f748b1a38f"),
    (canned.tl_forgery, dict(seed=1, garbage=20, tampered=20),
     "f66ed37753f05a0fcc3571128135647d16c57ea801f3c82ba77d98abdd6fdf7f"),
    (canned.tl_star, dict(seed=0, utterances=3),
     "18d99a85bd9c597ad02d6a02c2d70e2a6765e68cdf635ae8af5bb1e7d3b768ba"),
    (canned.tl_ring, dict(seed=0, utterances=3),
     "182dccd65e0d7f51e6864f1d398d42e0f0211a81cc8758692feadd9305e51f2d"),
    (canned.wl_group, dict(seed=2, utterances=8, loss=0.2),
     "06523e7075a5650f99759a0d50e82342ec2c7d07ee7ab38bf716681bc2476cd2"),
]


@pytest.mark.parametrize(
    "builder, kwargs, digest",
    PINNED_DIGESTS,
    ids=[f"{b.__name__}-{'-'.join(map(str, k.values()))}" for b, k, _ in PINNED_DIGESTS],
)
def test_parameterised_canned_digest(builder, kwargs, digest):
    assert builder(**kwargs).digest() == digest


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


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal()))
    scenario = load_scenario(str(path))
    assert [a.name for a in scenario.agents] == ["a", "b"]
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))
