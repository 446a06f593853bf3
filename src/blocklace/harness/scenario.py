"""Scenario files: the human-writable description of one simulation run.

A scenario is versioned JSON: a protocol, an agent roster with roles, an
unreliable-network configuration, a list of scripted events, and a list of
oracles to evaluate at the end.  Validation reports the JSON path of the
first fault it finds.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any

VERSION = 1

# Names and addresses end up as key=value fields in tab-separated trace
# lines; keep them free of separators.
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
_ADDRESS_RE = re.compile(r"^[^\s=]+$")

ROLES = ("correct", "silent", "equivocator", "forger", "eavesdropper")
PROTOCOLS = ("tl", "wl")

TL_COMMANDS = {"follow", "say", "respond", "rebind", "mute", "equivocate", "forge"}
WL_COMMANDS = {
    "create_group",
    "invite",
    "accept",
    "say_group",
    "respond_group",
    "rebind",
    "mute",
    "equivocate",
    "forge",
}
# The commands that utter one block of their agent's own: only these take
# a `label`, which binds that block's id (`AgentWrapper.run_command`).
_UTTERING = (TL_COMMANDS | WL_COMMANDS) - {"rebind", "mute", "equivocate", "forge"}

ORACLE_NAMES = (
    "tl_liveness",
    "wl_liveness",
    "attribution",
    "equivocation_visibility",
    "privacy",
    "partition_integrity",
)


class ScenarioError(Exception):
    """Invalid scenario; the message names the offending location."""


@dataclass(frozen=True)
class AgentSpec:
    name: str
    role: str = "correct"
    address: str = ""

    def initial_address(self) -> str:
        return self.address or f"{self.name}/0"


@dataclass(frozen=True)
class Event:
    tick: int
    agent: str
    command: dict[str, Any]


@dataclass(frozen=True)
class OracleSpec:
    name: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class Scenario:
    protocol: str
    agents: list[AgentSpec]
    events: list[Event]
    oracles: list[OracleSpec]
    bootstrap: list[tuple[str, str]] = field(default_factory=list)  # (agent, knows)
    seed: int = 0
    ticks: int = 1000
    loss_prob: float = 0.3
    dup_prob: float = 0.0
    delay_min: int = 1
    delay_max: int = 5
    tick_interval: int = 1
    wl_encrypt: bool = True

    def roles(self) -> dict[str, str]:
        return {a.name: a.role for a in self.agents}

    def correct_agents(self) -> list[str]:
        return [a.name for a in self.agents if a.role == "correct"]

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": VERSION,
            "protocol": self.protocol,
            "seed": self.seed,
            "ticks": self.ticks,
            "net": {
                "loss": self.loss_prob,
                "dup": self.dup_prob,
                "delay": [self.delay_min, self.delay_max],
                "tick_interval": self.tick_interval,
            },
            "wl_encrypt": self.wl_encrypt,
            "agents": [
                {"name": a.name, "role": a.role, "address": a.initial_address()}
                for a in self.agents
            ],
            "bootstrap": [{"agent": a, "knows": k} for a, k in self.bootstrap],
            "events": [
                {"tick": e.tick, "agent": e.agent, **e.command} for e in self.events
            ],
            "oracles": [{"name": o.name, **o.params} for o in self.oracles],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def _expect(condition: bool, where: str, message: str):
    if not condition:
        raise ScenarioError(f"{where}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_key(obj: dict, key: str, where: str):
    _expect(key in obj, where, f"missing required field '{key}'")
    return obj[key]


def parse_scenario(raw: dict[str, Any]) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    _expect(isinstance(raw, dict), "$", "scenario must be a JSON object")
    version = raw.get("version", VERSION)
    _expect(version == VERSION, "version", f"unsupported version {version!r}")
    protocol = _require_key(raw, "protocol", "$")
    _expect(protocol in PROTOCOLS, "protocol", f"must be one of {PROTOCOLS}")

    net = raw.get("net", {})
    _expect(isinstance(net, dict), "net", "must be an object")
    for key in ("loss", "dup"):
        probability = net.get(key, 0.0)
        _expect(
            _is_number(probability) and 0.0 <= probability <= 1.0,
            f"net.{key}",
            "must be a number from 0 to 1",
        )
    delay = net.get("delay", [1, 5])
    _expect(
        isinstance(delay, list) and len(delay) == 2 and all(map(_is_int, delay)),
        "net.delay",
        "must be [min, max], two integers",
    )
    # Same-tick delivery is not modeled.
    _expect(1 <= delay[0] <= delay[1], "net.delay", "must have 1 <= min <= max")
    tick_interval = net.get("tick_interval", 1)
    _expect(
        _is_int(tick_interval) and tick_interval >= 1,
        "net.tick_interval",
        "must be a positive integer",
    )

    agents_raw = _require_key(raw, "agents", "$")
    _expect(isinstance(agents_raw, list) and agents_raw, "agents", "need at least one agent")
    agents = []
    seen_names: set[str] = set()
    seen_addresses: set[str] = set()
    for i, spec in enumerate(agents_raw):
        where = f"agents[{i}]"
        _expect(isinstance(spec, dict), where, "must be an object")
        name = _require_key(spec, "name", where)
        _expect(isinstance(name, str) and name, f"{where}.name", "must be a non-empty string")
        _expect(bool(_NAME_RE.match(name)), f"{where}.name", "allowed characters: A-Za-z0-9_.-")
        _expect(name not in seen_names, f"{where}.name", f"duplicate agent {name!r}")
        seen_names.add(name)
        role = spec.get("role", "correct")
        _expect(role in ROLES, f"{where}.role", f"must be one of {ROLES}")
        address = spec.get("address", "") or f"{name}/0"
        _expect(bool(_ADDRESS_RE.match(address)), f"{where}.address", "no whitespace or '=' allowed")
        _expect(address not in seen_addresses, f"{where}.address", f"duplicate address {address!r}")
        seen_addresses.add(address)
        agents.append(AgentSpec(name=name, role=role, address=address))

    bootstrap = []
    for i, entry in enumerate(raw.get("bootstrap", [])):
        where = f"bootstrap[{i}]"
        _expect(isinstance(entry, dict), where, "must be an object")
        agent = _require_key(entry, "agent", where)
        knows = _require_key(entry, "knows", where)
        _expect(agent in seen_names, f"{where}.agent", f"unknown agent {agent!r}")
        _expect(knows in seen_names, f"{where}.knows", f"unknown agent {knows!r}")
        bootstrap.append((agent, knows))

    allowed = TL_COMMANDS if protocol == "tl" else WL_COMMANDS
    events = []
    last_tick = 0
    for i, entry in enumerate(raw.get("events", [])):
        where = f"events[{i}]"
        _expect(isinstance(entry, dict), where, "must be an object")
        tick = _require_key(entry, "tick", where)
        _expect(_is_int(tick) and tick >= 0, f"{where}.tick", "must be a non-negative integer")
        _expect(tick >= last_tick, f"{where}.tick", "event ticks must be nondecreasing")
        last_tick = tick
        agent = _require_key(entry, "agent", where)
        _expect(agent in seen_names, f"{where}.agent", f"unknown agent {agent!r}")
        cmd = _require_key(entry, "cmd", where)
        _expect(cmd in allowed, f"{where}.cmd", f"unknown command {cmd!r} for protocol {protocol}")
        command = {k: v for k, v in entry.items() if k not in ("tick", "agent")}
        _validate_command(command, seen_names, where, protocol)
        events.append(Event(tick=tick, agent=agent, command=command))

    oracles = []
    for i, entry in enumerate(raw.get("oracles", [])):
        where = f"oracles[{i}]"
        _expect(isinstance(entry, dict), where, "must be an object")
        name = _require_key(entry, "name", where)
        _expect(name in ORACLE_NAMES, f"{where}.name", f"unknown oracle {name!r}")
        params = {k: v for k, v in entry.items() if k != "name"}
        for key in ("author", "follower", "founder", "culprit"):
            if key in params:
                _expect(
                    params[key] in seen_names, f"{where}.{key}", f"unknown agent {params[key]!r}"
                )
        oracles.append(OracleSpec(name=name, params=params))

    scenario = Scenario(
        protocol=protocol,
        agents=agents,
        events=events,
        oracles=oracles,
        bootstrap=bootstrap,
        seed=raw.get("seed", 0),
        ticks=raw.get("ticks", 1000),
        loss_prob=net.get("loss", 0.3),
        dup_prob=net.get("dup", 0.0),
        delay_min=delay[0],
        delay_max=delay[1],
        tick_interval=tick_interval,
        wl_encrypt=raw.get("wl_encrypt", True),
    )
    _expect(_is_int(scenario.seed), "seed", "must be an integer")
    _expect(
        _is_int(scenario.ticks) and scenario.ticks > 0,
        "ticks",
        "must be a positive integer",
    )
    _expect(isinstance(scenario.wl_encrypt, bool), "wl_encrypt", "must be true or false")
    return scenario


def _validate_command(command: dict[str, Any], names: set[str], where: str, protocol: str):
    cmd = command["cmd"]
    def need(key, typ=str):
        value = _require_key(command, key, where)
        _expect(isinstance(value, typ), f"{where}.{key}", f"must be {typ.__name__}")
        return value

    if cmd == "follow":
        _expect(need("target") in names, f"{where}.target", "unknown agent")
    elif cmd in ("say", "say_group"):
        need("text")
    elif cmd in ("respond", "respond_group"):
        need("text")
        need("re")
    elif cmd == "rebind":
        _expect(
            bool(_ADDRESS_RE.match(need("address"))),
            f"{where}.address",
            "no whitespace or '=' allowed",
        )
    elif cmd == "mute":
        for key in command:
            _expect(key == "cmd", f"{where}.{key}", "mute takes no arguments")
    elif cmd == "create_group":
        need("name")
        need("label")
    elif cmd == "invite":
        need("group")
        _expect(need("target") in names, f"{where}.target", "unknown agent")
    elif cmd == "accept":
        need("group")
    elif cmd == "equivocate":
        need("text_a")
        need("text_b")
        keys = ["recipients_a", "recipients_b"]
        if "text_c" in command:
            need("text_c")
            keys.append("recipients_c")
        for key in keys:
            recipients = need(key, list)
            for r in recipients:
                _expect(r in names, f"{where}.{key}", f"unknown agent {r!r}")
    elif cmd == "forge":
        _expect(need("victim") in names, f"{where}.victim", "unknown agent")
        mode = need("mode")
        _expect(mode in ("garbage", "tamper"), f"{where}.mode", "must be garbage|tamper")
        count = _require_key(command, "count", where)
        _expect(_is_int(count) and count > 0, f"{where}.count", "must be a positive integer")
    label = command.get("label")
    if label is not None:
        _expect(cmd in _UTTERING, f"{where}.label", f"{cmd} utters no block to label")
        _expect(isinstance(label, str) and label, f"{where}.label", "must be a non-empty string")
    if cmd == "say_group" or (cmd == "equivocate" and protocol == "wl"):
        _require_key(command, "group", where)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        # No such file, a directory, no permission.
        raise ScenarioError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario(raw)
