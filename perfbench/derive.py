"""Trace-derived end-to-end metrics: traffic, redundancy and delivery latency.

The benchmark computes these from the trace text with its own parser, the
same way the oracles judge a run from the trace alone.  An utterance is a
block whose payload is a Say or a Respond; its latency at a recipient is the
number of ticks from its first SUBMIT to its first DELIVER at that recipient.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from blocklace.harness.scenario import Scenario

# Wire offsets, in hex digits, of encode_block's layout:
# LP(creator) LP(digest) LP(signature) LP(address) LP(payload) pointers,
# where LP is a 4-byte big-endian length prefix.
_CREATOR = slice(8, 8 + 128)
_ADDRESS_LEN = slice(344, 352)
_ADDRESS_START = 352
# Payload tags of Say and Respond, fixed by the golden encodings.
_UTTERANCE_TAGS = (2, 3)


@dataclass
class Delivery:
    datagrams: int
    utterances: int
    pairs: int
    undelivered: int
    latencies: list[int]

    def percentile(self, p: float) -> float:
        """The p-th percentile of the latencies, read as grouped data.

        Latencies are whole ticks, so the plain sample percentile jumps by a
        whole tick when the share at one tick value moves slightly.  Taking
        each latency t as spread evenly over [t - 0.5, t + 0.5) and
        interpolating the cumulative share gives a percentile that moves
        smoothly with the distribution.
        """
        if not 0 < p <= 100:
            raise ValueError("percentile outside (0, 100]")
        if not self.latencies:
            return 0.0
        counts = Counter(self.latencies)
        target = p / 100 * len(self.latencies)
        below = 0
        for tick in sorted(counts):
            if below + counts[tick] >= target:
                break
            below += counts[tick]
        return tick - 0.5 + (target - below) / counts[tick]


def required_recipients(scenario: Scenario) -> dict[str, list[str]]:
    """Author name -> the correct agents that must receive its utterances.

    WL: the other correct members of the author's group (the founder plus
    every agent scripted to accept).  TL: every other correct agent scripted
    to follow the author.  Workloads hold at most one WL group.
    """
    correct = scenario.correct_agents()
    if scenario.protocol == "wl":
        members = [
            e.agent
            for e in scenario.events
            if e.command["cmd"] in ("create_group", "accept")
        ]
        return {a: [m for m in correct if m in members and m != a] for a in correct}
    follows = {
        (e.agent, e.command["target"])
        for e in scenario.events
        if e.command["cmd"] == "follow"
    }
    return {a: [q for q in correct if q != a and (q, a) in follows] for a in correct}


def scripted_utterances(scenario: Scenario) -> int:
    return sum(
        e.command["cmd"] in ("say", "respond", "say_group", "respond_group")
        for e in scenario.events
    )


def _utterance_creator(payload_hex: str) -> str | None:
    """Creator id (hex) if the wire bytes carry an utterance, else None."""
    try:
        address_len = int(payload_hex[_ADDRESS_LEN], 16)
        tag_at = _ADDRESS_START + 2 * address_len + 8
        tag = int(payload_hex[tag_at : tag_at + 2], 16)
    except ValueError:
        return None
    return payload_hex[_CREATOR] if tag in _UTTERANCE_TAGS else None


def delivery(trace_text: str, recipients: dict[str, list[str]]) -> Delivery:
    """Count SUBMIT records and measure every required (recipient,
    utterance) pair's delivery latency in ticks."""
    names_by_id: dict[str, str] = {}
    first_submit: dict[str, tuple[int, str]] = {}  # digest -> (tick, author)
    seen: set[str] = set()
    first_deliver: dict[tuple[str, str], int] = {}
    datagrams = 0
    for line in trace_text.splitlines():
        if line.startswith("# agent "):
            fields = dict(part.split("=", 1) for part in line[8:].split(" "))
            names_by_id[fields["id"]] = fields["name"]
            continue
        if not line or line[0] == "#":
            continue
        parts = line.split("\t")
        kind = parts[1]
        if kind not in ("SUBMIT", "DELIVER"):
            continue
        fields = dict(part.split("=", 1) for part in parts[2:])
        digest = fields["id"]
        if kind == "SUBMIT":
            datagrams += 1
            if digest not in seen:
                seen.add(digest)
                creator = _utterance_creator(fields["bytes"])
                if creator is not None:
                    first_submit[digest] = (int(parts[0]), names_by_id.get(creator, ""))
        else:
            key = (digest, fields["agent"])
            if key not in first_deliver:
                first_deliver[key] = int(parts[0])
    pairs = 0
    latencies = []
    for digest, (tick, author) in first_submit.items():
        for recipient in recipients.get(author, ()):
            pairs += 1
            delivered = first_deliver.get((digest, recipient))
            if delivered is not None:
                latencies.append(delivered - tick)
    return Delivery(
        datagrams=datagrams,
        utterances=len(first_submit),
        pairs=pairs,
        undelivered=pairs - len(latencies),
        latencies=latencies,
    )
