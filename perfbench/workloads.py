"""The benchmark's workloads, built from the harness's public scenario API.

Each workload is a batch run at a fixed size.  Utterances are scripted on a
fixed schedule in simulated ticks, so the simulated load does not depend on
how fast the host is.  The seed is the scenario seed: it fixes the agents'
keys and the network's loss, duplication and delay schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from blocklace.harness import canned
from blocklace.harness.scenario import AgentSpec, Event, OracleSpec, Scenario

FOUNDER = "f"
GROUP_LABEL = "G"
GROUP_NAME = "bench"
# Group formation (one invite and one accept every 2 ticks) ends before the
# first utterance for up to 16 members.
FIRST_UTTERANCE_TICK = 40
UTTERANCE_EVERY = 4
# Slack after the last utterance; quiescence arrives long before it.
TICK_SLACK = 1000


@dataclass(frozen=True)
class Workload:
    protocol: str
    members: int
    utterances: int
    loss: float
    dup: float


WORKLOADS = {
    # Long history, small fan-out: WlAgent.disseminate re-derives what each
    # peer knows from every id it ever disclosed, so mask_of calls dominate.
    "wl_long": Workload("wl", members=6, utterances=120, loss=0.3, dup=0.0),
    # Short history, wide fan-out: traffic grows faster than n^2, so the
    # codec, SimNet.submit, the trace and parse_trace dominate.
    "wl_wide": Workload("wl", members=12, utterances=20, loss=0.3, dup=0.1),
    # The public-feed agent on canned.tl_line: no WL code runs, so a
    # WL-only change should leave it unchanged.
    "tl_feed": Workload("tl", members=5, utterances=300, loss=0.3, dup=0.1),
}


def wl_group(members: int, utterances: int, loss: float, dup: float, seed: int) -> Scenario:
    """One WL group of `members` correct agents; the founder invites
    everyone, then the members speak round-robin every UTTERANCE_EVERY ticks."""
    if not 2 <= members <= 16:
        raise ValueError("members must be within 2..16")
    names = [FOUNDER] + [f"m{i}" for i in range(1, members)]
    others = names[1:]
    bootstrap = [(FOUNDER, m) for m in others] + [(m, FOUNDER) for m in others]
    events = [
        Event(0, FOUNDER, {"cmd": "create_group", "name": GROUP_NAME, "label": GROUP_LABEL})
    ]
    for i, member in enumerate(others):
        events.append(
            Event(2 + 2 * i, FOUNDER, {"cmd": "invite", "group": GROUP_LABEL, "target": member})
        )
        events.append(Event(3 + 2 * i, member, {"cmd": "accept", "group": GROUP_LABEL}))
    for i in range(utterances):
        events.append(
            Event(
                FIRST_UTTERANCE_TICK + UTTERANCE_EVERY * i,
                names[i % members],
                {"cmd": "say_group", "group": GROUP_LABEL, "text": f"bench-msg-{i:04d}"},
            )
        )
    return Scenario(
        protocol="wl",
        agents=[AgentSpec(name) for name in names],
        events=events,
        bootstrap=bootstrap,
        oracles=[
            OracleSpec("wl_liveness", {"founder": FOUNDER, "group_name": GROUP_NAME}),
            OracleSpec("attribution"),
        ],
        seed=seed,
        ticks=FIRST_UTTERANCE_TICK + UTTERANCE_EVERY * utterances + TICK_SLACK,
        loss_prob=loss,
        dup_prob=dup,
    )


def build(name: str, seed: int) -> Scenario:
    """The named workload's scenario for `seed`."""
    w = WORKLOADS[name]
    if w.protocol == "wl":
        return wl_group(w.members, w.utterances, w.loss, w.dup, seed)
    return canned.tl_line(seed=seed, utterances=w.utterances, loss=w.loss, dup=w.dup)
