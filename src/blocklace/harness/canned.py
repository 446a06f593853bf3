"""Ready-made scenarios: the acceptance suite's workloads and the CLI demos.

Builders return Scenario objects; pass a seed to vary the network's fault
schedule while keeping the script identical.

`_friends` writes the TL friend graphs (tl_line, tl_star, tl_ring) and
`_group_chat` the WL group chats, so each builder states only how its
scenario differs.  `_formation` writes every WL group's invites and
accepts.  Two keep a script of their own: tl_forgery befriends all its
pairs at tick 0, and wl_partitions has two founders and three groups.
tl_line_broken, tl_churn, wl_founder_moves and wl_equivocation_crowd
edit another builder's scenario.
"""

from __future__ import annotations

from typing import Optional

from .scenario import AgentSpec, Event, OracleSpec, Scenario


def _friends(
    names: list[str],
    pairs: list[tuple[str, str]],
    follows: list[tuple[int, str]],
    author: str,
    says: list[str],
    follower: str,
    bootstrap: Optional[list[tuple[str, str]]] = None,
    **scenario_fields,
) -> Scenario:
    """TL friend graph: pair i befriends at tick i, each (tick, name) in
    `follows` follows the author, and the author says `says`, one every 5
    ticks from tick 10.  The bootstrap defaults to both directions of each
    pair.  The events are written in tick order and not sorted: tl_line's
    build is part of the tl_feed workload's timed set-up."""
    if bootstrap is None:
        bootstrap = [entry for x, y in pairs for entry in ((x, y), (y, x))]
    events = []
    for i, (x, y) in enumerate(pairs):
        events.append(Event(i, x, {"cmd": "follow", "target": y}))
        events.append(Event(i, y, {"cmd": "follow", "target": x}))
    for tick, name in follows:
        events.append(Event(tick, name, {"cmd": "follow", "target": author}))
    for i, text in enumerate(says):
        events.append(Event(10 + 5 * i, author, {"cmd": "say", "text": text}))
    return Scenario(
        protocol="tl",
        agents=[AgentSpec(name) for name in names],
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("tl_liveness", {"author": author, "follower": follower}),
            OracleSpec("attribution"),
        ],
        ticks=2000,
        **scenario_fields,
    )


def tl_line(seed: int = 0, utterances: int = 20, loss: float = 0.3, dup: float = 0.1) -> Scenario:
    """Five agents in a line, consecutive pairs friends, everyone following
    the end author; the author speaks `utterances` times."""
    names = ["a", "b", "c", "d", "e"]
    return _friends(
        names,
        pairs=list(zip(names, names[1:])),
        follows=[(4, "c"), (5, "d"), (6, "e")],
        author="a",
        says=[f"line-msg-{i:03d}" for i in range(utterances)],
        follower="e",
        seed=seed,
        loss_prob=loss,
        dup_prob=dup,
    )


def tl_star(seed: int = 0, utterances: int = 8) -> Scenario:
    """Author and two leaves hang off a hub; the far leaf only hears the
    author through the hub."""
    return _friends(
        ["author", "hub", "l1", "l2"],
        pairs=[("author", "hub"), ("hub", "l1"), ("hub", "l2")],
        follows=[(4, "l1"), (4, "l2")],
        author="author",
        says=[f"star-{i:02d}" for i in range(utterances)],
        follower="l2",
        bootstrap=[
            ("hub", "author"), ("author", "hub"),
            ("hub", "l1"), ("l1", "hub"),
            ("hub", "l2"), ("l2", "hub"),
        ],
        seed=seed,
        loss_prob=0.3,
    )


def tl_ring(seed: int = 0, utterances: int = 8) -> Scenario:
    """Five agents in a cycle, everyone following the author: content can
    reach the far side along either arc."""
    names = ["a", "b", "c", "d", "e"]
    return _friends(
        names,
        pairs=list(zip(names, names[1:] + names[:1])),
        follows=[(5, name) for name in names[1:]],
        author="a",
        says=[f"ring-{i:02d}" for i in range(utterances)],
        follower="c",
        seed=seed,
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
    agents = [AgentSpec(n) for n in ("victim", "w1", "w2")] + [AgentSpec("mallory", role="forger")]
    bootstrap = []
    events: list[Event] = []
    for name in ("w1", "w2", "mallory"):
        bootstrap += [("victim", name), (name, "victim")]
        events.append(Event(0, "victim", {"cmd": "follow", "target": name}))
        events.append(Event(0, name, {"cmd": "follow", "target": "victim"}))
    for i in range(10):
        events.append(Event(5 + 4 * i, "victim", {"cmd": "say", "text": f"authentic-{i:02d}"}))
    per_burst = 10
    for mode, start, count in (("garbage", 30, garbage), ("tamper", 60, tampered)):
        for i in range(count // per_burst):
            command = {"cmd": "forge", "victim": "victim", "mode": mode, "count": per_burst}
            events.append(Event(start + 3 * i, "mallory", command))
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


def _says(start: int, every: int, speakers: list[str], texts: list[str]) -> list[Event]:
    """Round-robin chat in group G: text i is said by speaker i mod
    len(speakers), at tick start + every * i."""
    events = []
    for i, text in enumerate(texts):
        command = {"cmd": "say_group", "group": "G", "text": text}
        events.append(Event(start + every * i, speakers[i % len(speakers)], command))
    return events


def _formation(founder: str, invitees: list[str], start: int, label: str = "G") -> list[Event]:
    """The founder of group `label` invites invitee i at tick start + 2i,
    who accepts at tick start + 1 + 2i."""
    events = []
    for i, member in enumerate(invitees):
        invite = {"cmd": "invite", "group": label, "target": member}
        events.append(Event(start + 2 * i, founder, invite))
        events.append(Event(start + 1 + 2 * i, member, {"cmd": "accept", "group": label}))
    return events


def _group_chat(
    roster: list[AgentSpec],
    invitees: list[str],
    name: str,
    events: list[Event],
    oracles: list[OracleSpec],
    **scenario_fields,
) -> Scenario:
    """WL group: the first agent in `roster` creates group G, called `name`,
    at tick 0, and forms it from tick 2 (`_formation`).  The founder knows
    each invitee, then each invitee knows the founder.  `events` merge with
    the formation in tick order, the formation first within a tick."""
    founder = roster[0].name
    script = [Event(0, founder, {"cmd": "create_group", "name": name, "label": "G"})]
    script += _formation(founder, invitees, 2)
    return Scenario(
        protocol="wl",
        agents=roster,
        events=sorted(script + events, key=lambda e: e.tick),
        bootstrap=[(founder, m) for m in invitees] + [(m, founder) for m in invitees],
        oracles=oracles,
        **scenario_fields,
    )


def wl_group(seed: int = 0, utterances: int = 50, loss: float = 0.3) -> Scenario:
    """Founder plus five invited members; everyone chats."""
    names = ["f", "m1", "m2", "m3", "m4", "m5"]
    return _group_chat(
        [AgentSpec(name) for name in names],
        names[1:],
        "team",
        _says(40, 4, names, [f"group-msg-{i:03d}" for i in range(utterances)]),
        [
            OracleSpec("wl_liveness", {"founder": "f", "group_name": "team"}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        ticks=2000,
        loss_prob=loss,
    )


def wl_crowd(seed: int = 0) -> Scenario:
    """Founder plus eleven members, 30% loss and 10% duplication: the
    largest canned group.  Each utterance goes to each member in its
    creator's four copies up front (RACED), and a relay sends its copy
    only to repair a loss that an ack or nack reveals, since a direct
    copy does more for delivery than a two-hop one at the same cost."""
    names = ["f"] + [f"m{i}" for i in range(1, 12)]
    return _group_chat(
        [AgentSpec(name) for name in names],
        names[1:],
        "crowd",
        _says(40, 4, names, [f"crowd-msg-{i:02d}" for i in range(20)]),
        [
            OracleSpec("wl_liveness", {"founder": "f", "group_name": "crowd"}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        ticks=1000,
        loss_prob=0.3,
        dup_prob=0.1,
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
    chat = _says(44, 4, members, [f"orphan-msg-{i:03d}" for i in range(25)])
    return _group_chat(
        [AgentSpec(name) for name in names],
        members,
        "orphans",
        [Event(40, "f", {"cmd": "mute"})] + chat,
        [
            OracleSpec("wl_liveness", {"founder": "f", "group_name": "orphans"}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        # The muted founder never acks, so the members resend to it until
        # the budget runs out; quiescence is unreachable by design.
        ticks=600,
        loss_prob=0.3,
    )


def wl_crowd_orphans(seed: int = 0) -> Scenario:
    """Founder plus nine chatting members and two silent invitees, 30% loss
    and 10% duplication; the founder goes silent after formation.  The
    founder is the one backstop of an uncovered relay copy
    (`wl.WlAgent._wanted`), so with the founder silent the members'
    blocks reach each other through their own copies and the other
    relays' repairs, and the silent invitees hold none."""
    names = ["f"] + [f"m{i}" for i in range(1, 10)]
    silent = ["h1", "h2"]
    chat = _says(44, 4, names[1:], [f"orphan-crowd-{i:02d}" for i in range(20)])
    return _group_chat(
        [AgentSpec(name) for name in names] + [AgentSpec(n, role="silent") for n in silent],
        names[1:] + silent,
        "orphan-crowd",
        [Event(40, "f", {"cmd": "mute"})] + chat,
        [
            OracleSpec("wl_liveness", {"founder": "f", "group_name": "orphan-crowd"}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        # The muted founder and the silent invitees never ack, so the
        # members resend to them until the budget runs out.
        ticks=600,
        loss_prob=0.3,
        dup_prob=0.1,
    )


def wl_dropper(seed: int = 0) -> Scenario:
    """Four-member group where one member silently swallows everything:
    liveness must still hold among the correct three."""
    names = ["f", "m1", "m2"]
    return _group_chat(
        [AgentSpec(n) for n in names] + [AgentSpec("hole", role="silent")],
        ["m1", "m2", "hole"],
        "leaky",
        _says(40, 5, names, [f"note-{i}" for i in range(9)]),
        [OracleSpec("wl_liveness", {"founder": "f", "group_name": "leaky"})],
        seed=seed,
        # the silent member never acks, so the budget is the stop condition
        ticks=500,
        loss_prob=0.3,
    )


def wl_solo(seed: int = 0) -> Scenario:
    """Single-member group: liveness is trivially satisfied."""
    return _group_chat(
        [AgentSpec("f")],
        [],
        "diary",
        _says(2, 1, ["f"], ["dear diary"]),
        [OracleSpec("wl_liveness", {"founder": "f", "group_name": "diary"})],
        seed=seed,
        ticks=50,
        loss_prob=0.3,
    )


def wl_churn(seed: int = 0) -> Scenario:
    """Three-member group; one member rebinds mid-conversation."""
    names = ["f", "m1", "m2"]
    before = _says(30, 6, names, [f"before-{i}" for i in range(8)])
    after = _says(100, 6, names, [f"after-{i}" for i in range(8)])
    return _group_chat(
        [AgentSpec(name) for name in names],
        names[1:],
        "rooms",
        before + [Event(90, "m2", {"cmd": "rebind", "address": "m2/1"})] + after,
        [OracleSpec("wl_liveness", {"founder": "f", "group_name": "rooms"})],
        seed=seed,
        ticks=2000,
        loss_prob=0.3,
    )


def wl_equivocation(seed: int = 0) -> Scenario:
    """Six-member group with one equivocator that forks its chain to two
    disjoint pairs of members; the fifth correct member hears about the
    fork only through dissemination."""
    names = ["f", "m1", "m2", "m3", "m4"]
    fork = {
        "cmd": "equivocate",
        "group": "G",
        "text_a": "fork-alpha",
        "text_b": "fork-beta",
        "recipients_a": ["f", "m1"],
        "recipients_b": ["m2", "m3"],
    }
    before = _says(30, 5, names, [f"chatter-{i}" for i in range(6)])
    after = _says(110, 5, names, [f"later-{i}" for i in range(6)])
    return _group_chat(
        [AgentSpec(n) for n in names] + [AgentSpec("x", role="equivocator")],
        names[1:] + ["x"],
        "forked",
        before + [Event(90, "x", fork)] + after,
        [
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


def wl_equivocation_crowd(seed: int = 0) -> Scenario:
    """`wl_equivocation` with five more correct members, ten in all besides
    the equivocator, where relays send every covered copy only to repair.
    The newcomers join after the others and only listen.  A member that
    misses a withheld fork parks every later Say, since each points only
    at the forks, so the fork reaches it through its nack and a relay's
    repair."""
    scenario = wl_equivocation(seed)
    extra = [f"m{i}" for i in range(5, 10)]
    scenario.agents = [AgentSpec(name) for name in extra] + scenario.agents
    scenario.bootstrap += [("f", m) for m in extra] + [(m, "f") for m in extra]
    scenario.events += _formation("f", extra, 14)
    scenario.events.sort(key=lambda e: e.tick)
    return scenario


def wl_privacy(seed: int = 0, encrypt: bool = True) -> Scenario:
    """Three-member group with an eavesdropper that receives a copy of
    every delivered datagram; group text must never appear in the clear."""
    names = ["f", "m1", "m2"]
    secrets = [
        "the-vault-combination-is-7743",
        "we-meet-at-the-old-lighthouse",
        "operation-silent-sunrise-begins",
    ]
    says = _says(30, 8, names, secrets)
    for i, event in enumerate(says):
        event.command["label"] = f"s{i}"
    respond = {"cmd": "respond_group", "re": "s0", "text": "confirmed-the-combination-works"}
    return _group_chat(
        [AgentSpec(n) for n in names] + [AgentSpec("eve", role="eavesdropper")],
        names[1:],
        "sanctum",
        says + [Event(60, "m1", respond)],
        [
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
    bootstrap = []
    for founder, invitees in (("f1", ["m1", "m2", "m3"]), ("f2", ["m2", "m3"])):
        for m in invitees:
            bootstrap += [(founder, m), (m, founder)]
    speakers = {
        "G1": ["f1", "m1", "m2"],
        "G2": ["f2", "m2", "m3"],
        "G3": ["f1", "m1", "m3"],
    }
    events: list[Event] = []
    # A group's first speaker founds it and invites the other two in order.
    for label, name in (("G1", "alpha"), ("G2", "beta"), ("G3", "gamma")):
        founder, *members = speakers[label]
        events.append(Event(0, founder, {"cmd": "create_group", "name": name, "label": label}))
        events += _formation(founder, members, 2, label)
    groups = ["G1", "G2", "G3"]
    for i in range(18):
        label = groups[i % 3]
        command = {"cmd": "say_group", "group": label, "text": f"{label}-note-{i:02d}"}
        events.append(Event(40 + 4 * i, speakers[label][(i // 3) % 3], command))
    events.sort(key=lambda e: e.tick)
    return Scenario(
        protocol="wl",
        agents=[AgentSpec(n) for n in ("f1", "f2", "m1", "m2", "m3")],
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
    "wl_crowd": wl_crowd,
    "wl_founder_moves": wl_founder_moves,
    "wl_founder_quits": wl_founder_quits,
    "wl_crowd_orphans": wl_crowd_orphans,
    "wl_dropper": wl_dropper,
    "wl_solo": wl_solo,
    "wl_churn": wl_churn,
    "wl_equivocation": wl_equivocation,
    "wl_equivocation_crowd": wl_equivocation_crowd,
    "wl_privacy": wl_privacy,
    "wl_partitions": wl_partitions,
}
