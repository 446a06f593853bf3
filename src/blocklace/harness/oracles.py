"""Safety, liveness, and privacy oracles.

Every oracle is a pure function of (scenario, parsed trace); final agent
states travel inside the trace as FINAL records, so a saved trace file can
be re-checked offline and must reproduce the verdict.

Verdicts: PASS, FAIL (witness names the offending evidence), and
PRECONDITION_UNSATISFIED when the scenario does not establish what the
property assumes (a broken path is not a protocol failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import blocks as b
from ..blocks import Block, BlockId, Invite
from ..lace import Blocklace
from ..simnet import ID_KEY, PAYLOAD_KEYS
from ..wl import compute_member, group_partition, is_genesis, partition_violations
from .scenario import Scenario

PASS = "PASS"
FAIL = "FAIL"
PRECONDITION_UNSATISFIED = "PRECONDITION_UNSATISFIED"


@dataclass
class OracleResult:
    name: str
    verdict: str
    witness: list[str] = field(default_factory=list)
    detail: str = ""

    def __post_init__(self):
        assert self.verdict != FAIL or self.witness, "failure requires a witness"


class TraceEvent:
    """One trace record other than FINAL: tick, event type and fields.

    Held compactly, since a trace has tens of thousands of them: the field
    keys are one tuple shared by every record of the same shape (its keys
    in order), and the values are a tuple of their own.  `fields` builds
    the `key=value` dict from the two on each read.  Events are equal when
    their tick, type and fields are."""

    __slots__ = ("tick", "type", "_keys", "_values")

    def __init__(self, tick: int, type: str, keys: tuple[str, ...], values: tuple[str, ...]):
        self.tick = tick
        self.type = type
        self._keys = keys
        self._values = values

    @property
    def fields(self) -> dict[str, str]:
        return dict(zip(self._keys, self._values))

    def __eq__(self, other):
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.tick, self.type, self.fields) == (other.tick, other.type, other.fields)

    __hash__ = None

    def __repr__(self):
        return f"TraceEvent(tick={self.tick!r}, type={self.type!r}, fields={self.fields!r})"


class TraceData:
    """Parsed trace: header metadata, event stream, final states."""

    def __init__(self):
        self.meta: dict[str, str] = {}
        self.agents: dict[str, dict[str, str]] = {}
        self.events: list[TraceEvent] = []
        self.finals: dict[str, dict[str, list[Block]]] = {}
        # Each distinct FINAL record's block and whether it verifies, keyed
        # by the record's hex: a Block's equality ignores its signature, so
        # only the bytes tell a tampered copy from a valid one.
        self.final_records: dict[str, tuple[Block, bool]] = {}
        self.unverifiable: dict[str, list[str]] = {}  # agent -> ids of its failing lace blocks
        self._laces: dict[str, tuple[Blocklace, list[str]]] = {}

    def agent_id(self, name: str) -> bytes:
        return bytes.fromhex(self.agents[name]["id"])

    def events_of(self, *types: str) -> list[TraceEvent]:
        return [e for e in self.events if e.type in types]

    def final_blocks(self, name: str, kind: str = "lace") -> list[Block]:
        return self.finals.get(name, {}).get(kind, [])

    def distinct_field(self, key: str, *types: str) -> list[str]:
        """Distinct values of field `key` over the events of `types`, in
        order of first appearance; events without the field count as ""."""
        return list(dict.fromkeys(e.fields.get(key, "") for e in self.events_of(*types)))

    def lace_of(self, name: str) -> tuple[Blocklace, list[str]]:
        """Rebuild an agent's final blocklace, failing blocks included.
        Returns (lace, ids of the blocks that fail verification)."""
        cached = self._laces.get(name)
        if cached is None:
            lace = Blocklace()
            for block in self.final_blocks(name, "lace"):
                lace.insert(block, verified=True)
            cached = (lace, self.unverifiable.get(name, []))
            self._laces[name] = cached
        return cached

    def union_lace(self) -> Blocklace:
        """Every valid block seen anywhere: all finals plus all submitted
        datagrams that decode and verify."""
        union = Blocklace()
        for block, verified in self.final_records.values():
            if verified and block.id not in union:
                union.insert(block, verified=True)
        decoder = b.WireDecoder()
        for hex_text in self.distinct_field("bytes", "SUBMIT"):
            block = decoder.decode_verified(bytes.fromhex(hex_text))
            if block is not None and block.id not in union:
                union.insert(block, verified=True)
        return union


_FINAL_KEYS = ("agent", "kind", "hex")
# The version headers `parse_trace` reads.
_VERSION_HEADERS = frozenset(f"blocklace-trace v{n}" for n in range(1, 5))


def parse_trace(text: str) -> TraceData:
    """Parse a trace's text, one newline-terminated line at a time.

    Reads v4, v3, v2 and v1 alike, and text without a version header
    too.  v4 and v3 differ only in which records they write (`Trace`), so
    a record reads the same in both.  A payload field (a key in
    `PAYLOAD_KEYS`) whose value is `*N` refers to the N-th distinct
    payload in order of first appearance, and resolves to the very `str`
    of that first occurrence.  An `id` field whose value is `#M` refers
    to the M-th distinct id in order of first appearance and resolves to
    its digest hex, so events carry the same fields as in a v2 trace: when
    `#M` first appears, its record must carry a `bytes` payload (inline or `*N`), and
    the id is `peek_digest_hex` of that payload.  `ValueError` naming the
    line is raised by a `# blocklace-trace` header naming a version other
    than v1 to v4, a reference to no earlier payload, an `#M` that is
    neither an earlier id nor the next new one, a new `#M` on a record
    without a payload (or with a payload that is not hex), a record line
    with a non-integer tick, no event type, or a field without `=`, a
    `FINAL` record that lacks a field or whose block does not decode, and
    an `# agent` header line with a field without `=` or no name.  Event
    types, field keys and other field values go through one intern table,
    so each distinct string (a payload's hex, an id, an address) is held
    once however many records repeat it; the key tuples of `TraceEvent`
    are shared the same way, one per record shape; and each distinct FINAL
    block is decoded and verified once, through `blocks.WireDecoder`, and
    shared by every agent that holds it.  These
    tables hold one entry per distinct value, so they are bounded by the
    trace's own size.  Blank lines and `#` lines that are not header fields
    are skipped."""
    data = TraceData()
    interned: dict[str, str] = {}
    intern = interned.setdefault
    shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
    payloads: dict[str, str] = {}
    by_ordinal: list[str] = []
    id_of: dict[str, str] = {}  # "#M" -> digest hex
    decoder = b.WireDecoder()
    pos, end, line_no = 0, len(text), 0
    while pos < end:
        stop = text.find("\n", pos)
        if stop < 0:
            stop = end
        line = text[pos:stop]
        pos = stop + 1
        line_no += 1
        if not line:
            continue
        if line.startswith("# "):
            body = line[2:]
            if body.startswith("agent "):
                fields = {}
                for part in body[6:].split(" "):
                    key, sep, value = part.partition("=")
                    if not sep:
                        raise ValueError(
                            f"trace line {line_no}: agent field {part!r} has no '='"
                        )
                    fields[key] = value
                if "name" not in fields:
                    raise ValueError(f"trace line {line_no}: agent line has no name=")
                data.agents[fields["name"]] = fields
            elif body.startswith("blocklace-trace"):
                if body not in _VERSION_HEADERS:
                    raise ValueError(
                        f"trace line {line_no}: header {body!r} names no version"
                        " this reader reads (v1 to v4)"
                    )
            elif "=" in body:
                key, value = body.split("=", 1)
                data.meta[key] = value
            continue
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        try:
            tick = int(parts[0])
        except ValueError:
            raise ValueError(
                f"trace line {line_no}: tick {parts[0]!r} is not an integer"
            ) from None
        if len(parts) < 2:
            raise ValueError(f"trace line {line_no}: record has no event type")
        event_type = intern(parts[1], parts[1])
        keys, values = [], []
        new_id_at = None
        for part in parts[2:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"trace line {line_no}: field {part!r} has no '='")
            if key not in PAYLOAD_KEYS:
                if key != ID_KEY:
                    value = intern(value, value)
                elif value in id_of:
                    value = id_of[value]
                elif not value.startswith("#"):
                    value = intern(value, value)
                elif value == f"#{len(id_of)}" and new_id_at is None:
                    new_id_at = len(values)
                else:
                    raise ValueError(
                        f"trace line {line_no}: {key}={value} is neither an"
                        f" earlier id nor #{len(id_of)}, the next new one"
                    )
            elif value.startswith("*"):
                ref = value[1:]
                if not (ref.isdecimal() and int(ref) < len(by_ordinal)):
                    raise ValueError(
                        f"trace line {line_no}: {key}={value} refers to no earlier payload"
                    )
                value = by_ordinal[int(ref)]
            else:
                shared = payloads.get(value)
                if shared is None:
                    shared = payloads[value] = value
                    by_ordinal.append(value)
                value = shared
            keys.append(intern(key, key))
            values.append(value)
        if new_id_at is not None:
            try:
                payload = bytes.fromhex(values[keys.index("bytes")])
            except ValueError:
                raise ValueError(
                    f"trace line {line_no}: new {ID_KEY}={values[new_id_at]} on a"
                    " record without a hex bytes= payload"
                ) from None
            token, digest = values[new_id_at], b.peek_digest_hex(payload)
            id_of[token] = values[new_id_at] = intern(digest, digest)
        if event_type == "FINAL":
            fields = dict(zip(keys, values))
            for key in _FINAL_KEYS:
                if key not in fields:
                    raise ValueError(f"trace line {line_no}: FINAL record has no {key}=")
            hex_text, agent, kind = fields["hex"], fields["agent"], fields["kind"]
            record = data.final_records.get(hex_text)
            if record is None:
                try:
                    raw = bytes.fromhex(hex_text)
                    block = decoder.decode_verified(raw)
                    record = (block, True) if block is not None else (b.decode_block(raw), False)
                except (ValueError, b.WireError) as exc:
                    raise ValueError(
                        f"trace line {line_no}: FINAL block does not decode: {exc}"
                    ) from None
                data.final_records[hex_text] = record
            block, verified = record
            data.finals.setdefault(agent, {}).setdefault(kind, []).append(block)
            if kind == "lace" and not verified:
                data.unverifiable.setdefault(agent, []).append(block.id.hex())
        else:
            shape = tuple(keys)
            shape = shapes.setdefault(shape, shape)
            data.events.append(TraceEvent(tick, event_type, shape, tuple(values)))
    return data


# --- oracle helpers -----------------------------------------------------------


def _scripted_follow_edges(scenario: Scenario) -> set[tuple[str, str]]:
    return {
        (e.agent, e.command["target"])
        for e in scenario.events
        if e.command["cmd"] == "follow"
    }


def _group_labels(scenario: Scenario) -> dict[str, tuple[str, str]]:
    """Group label -> (founder, group name)."""
    return {
        e.command["label"]: (e.agent, e.command["name"])
        for e in scenario.events
        if e.command["cmd"] == "create_group"
    }


def _texts_of_group(scenario: Scenario, founder: str, group_name: str) -> list[bytes]:
    """All plaintexts scripted into one group, responds included."""
    group_labels = {
        label
        for label, (f, n) in _group_labels(scenario).items()
        if f == founder and n == group_name
    }
    texts = []
    label_to_group: dict[str, str] = {}
    for event in scenario.events:
        command = event.command
        cmd = command["cmd"]
        if cmd == "say_group" and command["group"] in group_labels:
            texts.append(command["text"].encode("utf-8"))
            if command.get("label"):
                label_to_group[command["label"]] = command["group"]
        elif cmd == "respond_group" and label_to_group.get(command["re"]) in group_labels:
            texts.append(command["text"].encode("utf-8"))
            if command.get("label"):
                label_to_group[command["label"]] = label_to_group[command["re"]]
        elif cmd == "equivocate" and command.get("group") in group_labels:
            for key in ("text_a", "text_b", "text_c"):
                if key in command:
                    texts.append(command[key].encode("utf-8"))
    return texts


def _members_by_name(
    scenario: Scenario, data: TraceData, lace: Blocklace, gid: BlockId
) -> list[str]:
    return [
        spec.name
        for spec in scenario.agents
        if compute_member(lace, data.agent_id(spec.name), gid)
    ]


def _group(
    scenario: Scenario, data: TraceData, params: dict
) -> Optional[tuple[BlockId, list[str]]]:
    """The group `params` names (`founder`, `group_name`) as the founder's
    final blocklace holds it: its genesis id and its members, in roster
    order.  None when the founder never created it."""
    founder, name = params["founder"], params["group_name"].encode()
    lace, _ = data.lace_of(founder)
    for block in lace.by_creator(data.agent_id(founder)):
        if is_genesis(block) and block.payload.name == name:
            return block.id, _members_by_name(scenario, data, lace, block.id)
    return None


# --- the oracles ------------------------------------------------------------


def oracle_tl_liveness(scenario: Scenario, data: TraceData, params: dict) -> OracleResult:
    author, follower = params["author"], params["follower"]
    roles = scenario.roles()
    follows = _scripted_follow_edges(scenario)

    def follows_author(x: str) -> bool:
        return x == author or (x, author) in follows

    eligible = {
        spec.name
        for spec in scenario.agents
        if roles[spec.name] == "correct" and follows_author(spec.name)
    }
    if author not in eligible or follower not in eligible:
        return OracleResult(
            "tl_liveness",
            PRECONDITION_UNSATISFIED,
            detail=f"{author} or {follower} is not a correct author-following agent",
        )
    frontier, reached = [author], {author}
    while frontier:
        current = frontier.pop()
        for other in eligible - reached:
            if (current, other) in follows and (other, current) in follows:
                reached.add(other)
                frontier.append(other)
    if follower not in reached:
        return OracleResult(
            "tl_liveness",
            PRECONDITION_UNSATISFIED,
            detail="no path of correct mutual friends who all follow the author",
        )

    author_lace, _ = data.lace_of(author)
    follower_lace, _ = data.lace_of(follower)
    author_id = data.agent_id(author)
    utterances = [
        blk for blk in author_lace.by_creator(author_id) if b.is_utterance(blk.payload)
    ]
    missing = [blk.id.hex() for blk in utterances if blk.id not in follower_lace]
    if missing:
        return OracleResult(
            "tl_liveness",
            FAIL,
            witness=missing,
            detail=f"{len(missing)}/{len(utterances)} utterances missing at {follower}",
        )
    return OracleResult(
        "tl_liveness", PASS, detail=f"{len(utterances)} utterances reached {follower}"
    )


def oracle_wl_liveness(scenario: Scenario, data: TraceData, params: dict) -> OracleResult:
    group = _group(scenario, data, params)
    if group is None:
        return OracleResult(
            "wl_liveness", PRECONDITION_UNSATISFIED, detail="group was never created"
        )
    gid, members = group
    roles = scenario.roles()
    members = [m for m in members if roles[m] == "correct"]
    if not members:
        return OracleResult(
            "wl_liveness", PRECONDITION_UNSATISFIED, detail="no correct members"
        )
    partitions = {}
    for member in members:
        lace, _ = data.lace_of(member)
        partitions[member] = {blk.id for blk in group_partition(lace, gid)}
    union = set().union(*partitions.values())
    witness = []
    for member, ids in sorted(partitions.items()):
        missing = union - ids
        if missing:
            witness.append(
                f"{member} missing {sorted(i.hex()[:12] for i in missing)}"
            )
    if witness:
        return OracleResult("wl_liveness", FAIL, witness=witness)
    return OracleResult(
        "wl_liveness",
        PASS,
        detail=f"{len(members)} members agree on {len(union)} blocks",
    )


def oracle_attribution(scenario: Scenario, data: TraceData, params: dict) -> OracleResult:
    witness = []
    for name in scenario.correct_agents():
        lace, bad = data.lace_of(name)
        witness.extend(f"{name} stored unverifiable block {h}" for h in bad)
    decoder = b.WireDecoder()
    # A forger may send the same bytes several times; each is judged once.
    for hex_text in data.distinct_field("bytes", "FORGE"):
        raw = bytes.fromhex(hex_text)
        verified = decoder.decode_verified(raw)
        if verified is not None:
            witness.append(f"forgery {verified.id.hex()[:12]} unexpectedly verifies")
            continue
        try:
            forged = b.decode_block(raw)
        except b.WireError:
            continue
        for name in scenario.correct_agents():
            lace, _ = data.lace_of(name)
            stored = lace.get(forged.id)
            if stored is not None and b.encode_block(stored) == raw:
                witness.append(f"{name} inserted forged bytes {forged.id.hex()[:12]}")
    if witness:
        return OracleResult("attribution", FAIL, witness=witness)
    forged_count = len(data.events_of("FORGE"))
    return OracleResult(
        "attribution", PASS, detail=f"{forged_count} forgeries, none inserted"
    )


def oracle_equivocation_visibility(
    scenario: Scenario, data: TraceData, params: dict
) -> OracleResult:
    culprit = params["culprit"]
    culprit_id = data.agent_id(culprit)
    group = _group(scenario, data, params)
    if group is None:
        return OracleResult(
            "equivocation_visibility",
            PRECONDITION_UNSATISFIED,
            detail="group was never created",
        )
    _, members = group
    roles = scenario.roles()
    members = [m for m in members if roles[m] == "correct" and m != culprit]
    expected_pairs = {
        tuple(sorted((e.fields["id_a"], e.fields["id_b"])))
        for e in data.events_of("EQUIVOCATE")
        if e.fields["agent"] == culprit
    }
    reported: dict[str, set[tuple[str, str]]] = {}
    for member in members:
        lace, _ = data.lace_of(member)
        pairs = lace.detect_equivocations(culprit_id)
        reported[member] = {
            tuple(sorted((x.id.hex(), y.id.hex()))) for x, y in pairs
        }
    witness = []
    reference = reported[members[0]] if members else set()
    for member, pairs in sorted(reported.items()):
        if pairs != reference:
            witness.append(f"{member} reports a different fork set")
        if expected_pairs and not expected_pairs <= pairs:
            witness.append(f"{member} missing an injected fork pair")
        if expected_pairs and not pairs:
            witness.append(f"{member} sees no equivocation")
    if witness:
        return OracleResult("equivocation_visibility", FAIL, witness=witness)
    detail = (
        f"{len(members)} members agree on {len(reference)} fork pair(s)"
        if expected_pairs
        else "no equivocation scripted, none reported"
    )
    if expected_pairs and not reference:
        return OracleResult(
            "equivocation_visibility",
            FAIL,
            witness=["fork invisible to every member"],
        )
    return OracleResult("equivocation_visibility", PASS, detail=detail)


def oracle_privacy(scenario: Scenario, data: TraceData, params: dict) -> OracleResult:
    founder, group_name = params["founder"], params["group_name"]
    group = _group(scenario, data, params)
    if group is None:
        return OracleResult(
            "privacy", PRECONDITION_UNSATISFIED, detail="group was never created"
        )
    _, members = group
    texts = [t for t in _texts_of_group(scenario, founder, group_name) if t]
    leaks: dict[str, list[bytes]] = {}
    for hex_text in data.distinct_field("bytes", "SUBMIT", "FORGE"):
        raw = bytes.fromhex(hex_text)
        leaks[hex_text] = [text for text in texts if text in raw]
    witness = [
        f"plaintext {text[:24]!r} on the wire at tick {event.tick}"
        for event in data.events_of("SUBMIT", "FORGE")
        for text in leaks[event.fields.get("bytes", "")]
    ]
    for spec in scenario.agents:
        if spec.name in members:
            continue
        for kind, blocks_list in data.finals.get(spec.name, {}).items():
            for block in blocks_list:
                raw = b.encode_block(block)
                for text in texts:
                    if text in raw:
                        witness.append(
                            f"plaintext {text[:24]!r} in non-member {spec.name} ({kind})"
                        )
    if witness:
        return OracleResult("privacy", FAIL, witness=sorted(set(witness)))
    return OracleResult(
        "privacy",
        PASS,
        detail=f"{len(texts)} plaintexts absent from wire and non-member state",
    )


def oracle_partition_integrity(
    scenario: Scenario, data: TraceData, params: dict
) -> OracleResult:
    witness = [
        f"violation at tick {e.tick}: {e.fields['agent']} {e.fields['kind']}"
        for e in data.events_of("VIOLATION")
    ]
    for name in scenario.correct_agents():
        witness.extend(
            f"final blocklace of {name}: {issue}"
            for issue in partition_violations(data.lace_of(name)[0])
        )

    union = data.union_lace()
    geneses = [blk for blk in union.blocks() if is_genesis(blk)]
    membership: dict[BlockId, set[bytes]] = {}
    for genesis in geneses:
        allowed = {
            data.agent_id(m)
            for m in _members_by_name(scenario, data, union, genesis.id)
        }
        for invite in union.by_creator(genesis.id.creator):
            if isinstance(invite.payload, Invite) and invite.pointers == frozenset(
                [genesis.id]
            ):
                allowed.add(invite.payload.target)
        membership[genesis.id] = allowed
    ids_by_name = {name: data.agent_id(name) for name in data.agents}
    by_digest = {blk.id.digest.hex(): blk for blk in union.blocks()}
    deliveries = sorted(
        {(e.fields["id"], e.fields["agent"]) for e in data.events_of("DELIVER")}
    )
    for digest, agent_name in deliveries:
        block = by_digest.get(digest)
        if block is None or isinstance(block.payload, b.Ack):
            continue
        target_id = ids_by_name.get(agent_name)
        for genesis in geneses:
            if union.observes_ids(block.id, genesis.id):
                if target_id not in membership[genesis.id]:
                    witness.append(
                        f"group block {digest[:12]} delivered to non-member {agent_name}"
                    )
    if witness:
        return OracleResult("partition_integrity", FAIL, witness=sorted(set(witness)))
    return OracleResult(
        "partition_integrity",
        PASS,
        detail=f"{len(geneses)} groups, partitions disjoint and closed throughout",
    )


ORACLES = {
    "tl_liveness": oracle_tl_liveness,
    "wl_liveness": oracle_wl_liveness,
    "attribution": oracle_attribution,
    "equivocation_visibility": oracle_equivocation_visibility,
    "privacy": oracle_privacy,
    "partition_integrity": oracle_partition_integrity,
}


def evaluate(scenario: Scenario, data: TraceData) -> list[OracleResult]:
    """Every oracle listed by the scenario, in order; none skipped."""
    results = []
    for spec in scenario.oracles:
        results.append(ORACLES[spec.name](scenario, data, spec.params))
    return results
