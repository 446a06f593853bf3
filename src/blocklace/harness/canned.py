"""Ready-made scenarios: the acceptance suite's workloads and the CLI demos.

Builders return Scenario objects; pass a seed to vary the network's fault
schedule while keeping the script identical.
"""

from __future__ import annotations

from .scenario import AgentSpec, Event, OracleSpec, Scenario


def _mutual_follow(events: list, tick: int, a: str, b: str):
    events.append(Event(tick, a, {"cmd": "follow", "target": b}))
    events.append(Event(tick, b, {"cmd": "follow", "target": a}))


def tl_line(seed: int = 0, utterances: int = 20, loss: float = 0.3, dup: float = 0.1) -> Scenario:
    """Five agents in a line, consecutive pairs friends, everyone following
    the end author; the author speaks `utterances` times."""
    names = ["a", "b", "c", "d", "e"]
    agents = [AgentSpec(name) for name in names]
    bootstrap = []
    for x, y in zip(names, names[1:]):
        bootstrap.append((x, y))
        bootstrap.append((y, x))
    events: list[Event] = []
    for i, (x, y) in enumerate(zip(names, names[1:])):
        _mutual_follow(events, i, x, y)
    for i, name in enumerate(["c", "d", "e"]):
        events.append(Event(4 + i, name, {"cmd": "follow", "target": "a"}))
    for i in range(utterances):
        events.append(
            Event(10 + 5 * i, "a", {"cmd": "say", "text": f"line-msg-{i:03d}"})
        )
    return Scenario(
        protocol="tl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("tl_liveness", {"author": "a", "follower": "e"}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        ticks=2000,
        loss_prob=loss,
        dup_prob=dup,
    )


def tl_star(seed: int = 0, utterances: int = 8) -> Scenario:
    """Author and two leaves hang off a hub; the far leaf only hears the
    author through the hub."""
    agents = [AgentSpec(n) for n in ("author", "hub", "l1", "l2")]
    bootstrap = []
    for leaf in ("author", "l1", "l2"):
        bootstrap.append(("hub", leaf))
        bootstrap.append((leaf, "hub"))
    events: list[Event] = []
    _mutual_follow(events, 0, "author", "hub")
    _mutual_follow(events, 1, "hub", "l1")
    _mutual_follow(events, 2, "hub", "l2")
    events.append(Event(4, "l1", {"cmd": "follow", "target": "author"}))
    events.append(Event(4, "l2", {"cmd": "follow", "target": "author"}))
    for i in range(utterances):
        events.append(Event(10 + 5 * i, "author", {"cmd": "say", "text": f"star-{i:02d}"}))
    return Scenario(
        protocol="tl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("tl_liveness", {"author": "author", "follower": "l2"}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        ticks=2000,
        loss_prob=0.3,
    )


def tl_ring(seed: int = 0, utterances: int = 8) -> Scenario:
    """Five agents in a cycle, everyone following the author: content can
    reach the far side along either arc."""
    names = ["a", "b", "c", "d", "e"]
    agents = [AgentSpec(n) for n in names]
    pairs = list(zip(names, names[1:] + names[:1]))
    bootstrap = []
    for x, y in pairs:
        bootstrap.append((x, y))
        bootstrap.append((y, x))
    events: list[Event] = []
    for i, (x, y) in enumerate(pairs):
        _mutual_follow(events, i, x, y)
    for i, name in enumerate(["b", "c", "d", "e"]):
        events.append(Event(5, name, {"cmd": "follow", "target": "a"}))
    for i in range(utterances):
        events.append(Event(10 + 5 * i, "a", {"cmd": "say", "text": f"ring-{i:02d}"}))
    return Scenario(
        protocol="tl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("tl_liveness", {"author": "a", "follower": "c"}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        ticks=2000,
        loss_prob=0.3,
    )


def tl_line_broken(seed: int = 0) -> Scenario:
    """Line with a silent agent in the middle: the liveness precondition
    does not hold, and the oracle must say so rather than fail."""
    scenario = tl_line(seed, utterances=3)
    scenario.agents = [
        AgentSpec(a.name, "silent" if a.name == "c" else a.role) for a in scenario.agents
    ]
    scenario.ticks = 300
    return scenario


def tl_churn(seed: int = 0) -> Scenario:
    """Line scenario with the far follower rebinding mid-stream: the says
    uttered after the rebind can only arrive once the new-address
    announcement has propagated back along the line."""
    scenario = tl_line(seed, utterances=12)
    events = list(scenario.events)
    events.append(Event(35, "e", {"cmd": "rebind", "address": "e/1"}))
    events.sort(key=lambda e: e.tick)
    scenario.events = events
    return scenario


def tl_forgery(seed: int = 0, garbage: int = 100, tampered: int = 100) -> Scenario:
    """A forger who is the victim's friend (so it holds authentic material)
    floods the others with invalid-signature and tampered blocks."""
    agents = [
        AgentSpec("victim"),
        AgentSpec("w1"),
        AgentSpec("w2"),
        AgentSpec("mallory", role="forger"),
    ]
    bootstrap = []
    for name in ("w1", "w2", "mallory"):
        bootstrap.append(("victim", name))
        bootstrap.append((name, "victim"))
    events: list[Event] = []
    _mutual_follow(events, 0, "victim", "w1")
    _mutual_follow(events, 0, "victim", "w2")
    _mutual_follow(events, 0, "victim", "mallory")
    for i in range(10):
        events.append(
            Event(5 + 4 * i, "victim", {"cmd": "say", "text": f"authentic-{i:02d}"})
        )
    per_burst = 10
    for i in range(garbage // per_burst):
        events.append(
            Event(
                30 + 3 * i,
                "mallory",
                {"cmd": "forge", "victim": "victim", "mode": "garbage", "count": per_burst},
            )
        )
    for i in range(tampered // per_burst):
        events.append(
            Event(
                60 + 3 * i,
                "mallory",
                {"cmd": "forge", "victim": "victim", "mode": "tamper", "count": per_burst},
            )
        )
    events.sort(key=lambda e: e.tick)
    return Scenario(
        protocol="tl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("attribution"),
            OracleSpec("tl_liveness", {"author": "victim", "follower": "w2"}),
        ],
        seed=seed,
        ticks=600,
        loss_prob=0.2,
    )


def _wl_group_formation(
    founder: str, members: list[str], label: str, name: str, events: list[Event]
):
    events.append(Event(0, founder, {"cmd": "create_group", "name": name, "label": label}))
    for i, member in enumerate(members):
        events.append(
            Event(2 + 2 * i, founder, {"cmd": "invite", "group": label, "target": member})
        )
        events.append(Event(3 + 2 * i, member, {"cmd": "accept", "group": label}))


def wl_group(seed: int = 0, utterances: int = 50, loss: float = 0.3) -> Scenario:
    """Founder plus five invited members; everyone chats."""
    names = ["f", "m1", "m2", "m3", "m4", "m5"]
    agents = [AgentSpec(name) for name in names]
    bootstrap = [("f", m) for m in names[1:]] + [(m, "f") for m in names[1:]]
    events: list[Event] = []
    _wl_group_formation("f", names[1:], "G", "team", events)
    for i in range(utterances):
        speaker = names[i % len(names)]
        events.append(
            Event(
                40 + 4 * i,
                speaker,
                {"cmd": "say_group", "group": "G", "text": f"group-msg-{i:03d}"},
            )
        )
    return Scenario(
        protocol="wl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("wl_liveness", {"founder": "f", "group_name": "team"}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        ticks=2000,
        loss_prob=loss,
    )


def wl_founder_moves(seed: int = 0) -> Scenario:
    """`wl_group` with the founder rebinding in the middle of formation: the
    invites after the move, and the relays of the Accepts, carry its new
    address.  A member whose Accept is still in flight at the move knows
    the founder only at its old address, so the run does not quiesce (a
    known fault)."""
    scenario = wl_group(seed)
    events = list(scenario.events)
    events.append(Event(7, "f", {"cmd": "rebind", "address": "f/1"}))
    events.sort(key=lambda e: e.tick)
    scenario.events = events
    return scenario


def wl_founder_quits(seed: int = 0) -> Scenario:
    """Founder plus five members; the founder goes silent after formation,
    so the members' blocks reach each other only through their own copies
    and relays.  A founder that goes silent before it has relayed every
    Accept splits the group."""
    names = ["f", "m1", "m2", "m3", "m4", "m5"]
    members = names[1:]
    agents = [AgentSpec(name) for name in names]
    bootstrap = [("f", m) for m in members] + [(m, "f") for m in members]
    events: list[Event] = []
    _wl_group_formation("f", members, "G", "orphans", events)
    events.append(Event(40, "f", {"cmd": "mute"}))
    for i in range(25):
        events.append(
            Event(
                44 + 4 * i,
                members[i % len(members)],
                {"cmd": "say_group", "group": "G", "text": f"orphan-msg-{i:03d}"},
            )
        )
    events.sort(key=lambda e: e.tick)
    return Scenario(
        protocol="wl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("wl_liveness", {"founder": "f", "group_name": "orphans"}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        # The muted founder never acks, so the members resend to it until
        # the budget runs out; quiescence is unreachable by design.
        ticks=600,
        loss_prob=0.3,
    )


def wl_dropper(seed: int = 0) -> Scenario:
    """Four-member group where one member silently swallows everything:
    liveness must still hold among the correct three."""
    names = ["f", "m1", "m2"]
    agents = [AgentSpec(n) for n in names] + [AgentSpec("hole", role="silent")]
    roster = names + ["hole"]
    bootstrap = [("f", m) for m in roster[1:]] + [(m, "f") for m in roster[1:]]
    events: list[Event] = []
    _wl_group_formation("f", ["m1", "m2", "hole"], "G", "leaky", events)
    for i in range(9):
        events.append(
            Event(40 + 5 * i, names[i % 3], {"cmd": "say_group", "group": "G", "text": f"note-{i}"})
        )
    return Scenario(
        protocol="wl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[OracleSpec("wl_liveness", {"founder": "f", "group_name": "leaky"})],
        seed=seed,
        # the silent member never acks, so the budget is the stop condition
        ticks=500,
        loss_prob=0.3,
    )


def wl_solo(seed: int = 0) -> Scenario:
    """Single-member group: liveness is trivially satisfied."""
    agents = [AgentSpec("f")]
    events = [
        Event(0, "f", {"cmd": "create_group", "name": "diary", "label": "G"}),
        Event(2, "f", {"cmd": "say_group", "group": "G", "text": "dear diary"}),
    ]
    return Scenario(
        protocol="wl",
        agents=agents,
        events=events,
        oracles=[OracleSpec("wl_liveness", {"founder": "f", "group_name": "diary"})],
        seed=seed,
        ticks=50,
        loss_prob=0.3,
    )


def wl_churn(seed: int = 0) -> Scenario:
    """Three-member group; one member rebinds mid-conversation."""
    names = ["f", "m1", "m2"]
    agents = [AgentSpec(name) for name in names]
    bootstrap = [("f", m) for m in names[1:]] + [(m, "f") for m in names[1:]]
    events: list[Event] = []
    _wl_group_formation("f", names[1:], "G", "rooms", events)
    for i in range(8):
        events.append(
            Event(30 + 6 * i, names[i % 3], {"cmd": "say_group", "group": "G", "text": f"before-{i}"})
        )
    events.append(Event(90, "m2", {"cmd": "rebind", "address": "m2/1"}))
    for i in range(8):
        events.append(
            Event(100 + 6 * i, names[i % 3], {"cmd": "say_group", "group": "G", "text": f"after-{i}"})
        )
    events.sort(key=lambda e: e.tick)
    return Scenario(
        protocol="wl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[OracleSpec("wl_liveness", {"founder": "f", "group_name": "rooms"})],
        seed=seed,
        ticks=2000,
        loss_prob=0.3,
    )


def wl_equivocation(seed: int = 0) -> Scenario:
    """Six-member group with one equivocator that forks its chain to two
    disjoint pairs of members; the fifth correct member hears about the
    fork only through dissemination."""
    names = ["f", "m1", "m2", "m3", "m4"]
    agents = [AgentSpec(n) for n in names] + [AgentSpec("x", role="equivocator")]
    roster = names + ["x"]
    bootstrap = [("f", m) for m in roster[1:]] + [(m, "f") for m in roster[1:]]
    events: list[Event] = []
    _wl_group_formation("f", roster[1:], "G", "forked", events)
    for i in range(6):
        events.append(
            Event(30 + 5 * i, names[i % 5], {"cmd": "say_group", "group": "G", "text": f"chatter-{i}"})
        )
    events.append(
        Event(
            90,
            "x",
            {
                "cmd": "equivocate",
                "group": "G",
                "text_a": "fork-alpha",
                "text_b": "fork-beta",
                "recipients_a": ["f", "m1"],
                "recipients_b": ["m2", "m3"],
            },
        )
    )
    for i in range(6):
        events.append(
            Event(110 + 5 * i, names[i % 5], {"cmd": "say_group", "group": "G", "text": f"later-{i}"})
        )
    events.sort(key=lambda e: e.tick)
    return Scenario(
        protocol="wl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec(
                "equivocation_visibility",
                {"culprit": "x", "founder": "f", "group_name": "forked"},
            ),
            OracleSpec("wl_liveness", {"founder": "f", "group_name": "forked"}),
        ],
        seed=seed,
        # The muted equivocator never acks, so correct agents resend to it
        # until the budget runs out; quiescence is unreachable by design.
        ticks=600,
        loss_prob=0.3,
    )


def wl_privacy(seed: int = 0, encrypt: bool = True) -> Scenario:
    """Three-member group with an eavesdropper that receives a copy of
    every delivered datagram; group text must never appear in the clear."""
    names = ["f", "m1", "m2"]
    agents = [AgentSpec(n) for n in names] + [AgentSpec("eve", role="eavesdropper")]
    bootstrap = [("f", m) for m in names[1:]] + [(m, "f") for m in names[1:]]
    events: list[Event] = []
    _wl_group_formation("f", names[1:], "G", "sanctum", events)
    secrets = [
        "the-vault-combination-is-7743",
        "we-meet-at-the-old-lighthouse",
        "operation-silent-sunrise-begins",
    ]
    for i, secret in enumerate(secrets):
        events.append(
            Event(
                30 + 8 * i,
                names[i % 3],
                {"cmd": "say_group", "group": "G", "text": secret, "label": f"s{i}"},
            )
        )
    events.append(
        Event(60, "m1", {"cmd": "respond_group", "re": "s0", "text": "confirmed-the-combination-works"})
    )
    return Scenario(
        protocol="wl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("privacy", {"founder": "f", "group_name": "sanctum"}),
            OracleSpec("wl_liveness", {"founder": "f", "group_name": "sanctum"}),
        ],
        seed=seed,
        ticks=1500,
        loss_prob=0.25,
        wl_encrypt=encrypt,
    )


def wl_partitions(seed: int = 0) -> Scenario:
    """Three overlapping groups; partitions must stay disjoint and closed
    and no group block may reach a non-member."""
    names = ["f1", "f2", "m1", "m2", "m3"]
    agents = [AgentSpec(n) for n in names]
    bootstrap = []
    for founder, invitees in (("f1", ["m1", "m2", "m3"]), ("f2", ["m2", "m3"])):
        for m in invitees:
            bootstrap.append((founder, m))
            bootstrap.append((m, founder))
    events: list[Event] = []
    _wl_group_formation("f1", ["m1", "m2"], "G1", "alpha", events)
    _wl_group_formation("f2", ["m2", "m3"], "G2", "beta", events)
    _wl_group_formation("f1", ["m1", "m3"], "G3", "gamma", events)
    groups = ["G1", "G2", "G3"]
    speakers = {
        "G1": ["f1", "m1", "m2"],
        "G2": ["f2", "m2", "m3"],
        "G3": ["f1", "m1", "m3"],
    }
    for i in range(18):
        label = groups[i % 3]
        speaker = speakers[label][(i // 3) % 3]
        events.append(
            Event(
                40 + 4 * i,
                speaker,
                {"cmd": "say_group", "group": label, "text": f"{label}-note-{i:02d}"},
            )
        )
    events.sort(key=lambda e: e.tick)
    return Scenario(
        protocol="wl",
        agents=agents,
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("partition_integrity"),
            OracleSpec("wl_liveness", {"founder": "f1", "group_name": "alpha"}),
            OracleSpec("wl_liveness", {"founder": "f2", "group_name": "beta"}),
            OracleSpec("wl_liveness", {"founder": "f1", "group_name": "gamma"}),
        ],
        seed=seed,
        ticks=2500,
        loss_prob=0.25,
    )


CANNED = {
    "tl_line": tl_line,
    "tl_star": tl_star,
    "tl_ring": tl_ring,
    "tl_line_broken": tl_line_broken,
    "tl_churn": tl_churn,
    "tl_forgery": tl_forgery,
    "wl_group": wl_group,
    "wl_founder_moves": wl_founder_moves,
    "wl_founder_quits": wl_founder_quits,
    "wl_dropper": wl_dropper,
    "wl_solo": wl_solo,
    "wl_churn": wl_churn,
    "wl_equivocation": wl_equivocation,
    "wl_privacy": wl_privacy,
    "wl_partitions": wl_partitions,
}
