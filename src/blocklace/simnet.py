"""Deterministic simulation of an unreliable datagram network.

Faults are loss, duplication, reordering (via random per-datagram delay),
and address churn; every random draw comes from one seeded generator, so a
(config, scenario) pair fully determines the delivery schedule.  Corruption
is deliberately not modeled: signed blocks make a corrupted datagram
indistinguishable from a lost one.

Addresses bind to at most one agent at a time.  A datagram is delivered
only if its destination address is still bound to the same agent it was
bound to at submission; anything else is a stale-address drop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .blocks import NetAddress, peek_digest_hex


class SimError(Exception):
    pass


@dataclass(frozen=True)
class NetConfig:
    loss_prob: float = 0.3
    dup_prob: float = 0.0
    delay_min: int = 1
    delay_max: int = 5
    seed: int = 0

    def validate(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise SimError("loss_prob out of range")
        if not 0.0 <= self.dup_prob <= 1.0:
            raise SimError("dup_prob out of range")
        if self.delay_min < 1:
            raise SimError("delay_min must be >= 1 (same-tick delivery is not modeled)")
        if self.delay_min > self.delay_max:
            raise SimError("delay_min > delay_max")


@dataclass(frozen=True)
class Datagram:
    src: NetAddress
    dst: NetAddress
    payload: bytes


# Field keys whose values are payloads: `bytes` values, written as hex the
# first time and as a `*N` back-reference after.  The trace reader resolves
# references on exactly these keys.
PAYLOAD_KEYS = ("bytes", "hex")
# Field key whose values are block ids (a payload's digest, as
# `peek_digest_hex` reads it), always written as an `#N` back-reference.
ID_KEY = "id"


class Trace:
    """Line-delimited event log; the oracles' input.

    A record is one line: tick, event type and `key=value` fields, separated
    by tabs.  The text is the `v3` format that the runner's header names.

    A `bytes` field value is a payload: the first record carrying a
    distinct payload writes it in full as hex, and every later record
    carrying the same bytes writes `key=*N` instead, where N is the 0-based
    ordinal of that distinct payload in order of first appearance, counted
    across all record types and keys.  Hex never contains `*`, so a
    reference is unambiguous.  The first occurrence stays inline rather than
    in a separate record because readers of `SUBMIT` lines take a block's
    payload from its first `SUBMIT`, which carries the hex unless a `FORGE`
    of the same bytes came first.

    An `id` field value is written as `#M`, every occurrence the first one
    included, where M is the 0-based ordinal of that distinct id string in
    order of first appearance, numbered apart from the payload ordinals.
    An id is a pure function of a payload, so the record that first
    carries an id must also carry the payload it is the digest of, and
    readers recover the hex from that payload; `record` raises
    `ValueError` otherwise.  Writing the first occurrence as a reference
    too keeps every record of one id spelled the same, so a reader that
    keys records on the raw `id` text still groups them correctly.  Other
    fields that hold ids (`EQUIVOCATE`'s `id_a` and `id_b`) stay hex.

    v2 differs only in writing ids as hex, and v1 also in writing repeated
    payloads in full; `parse_trace` reads all three.

    The text is kept in memory so a run can hand it over without
    re-reading.  Records accumulate as string parts until `text()` joins
    them; the joined text then replaces the parts, so the trace is held
    once, and a record written later is joined onto it by the next call.
    The ordinal memos hold one entry per distinct payload or id written,
    so they are bounded by the trace's own size."""

    def __init__(self):
        self._parts: list[str] = []
        self._ordinal: dict[bytes, int] = {}
        self._id_ordinal: dict[str, int] = {}

    def comment(self, text: str):
        """A `# text` header line."""
        self._parts.append(f"# {text}\n")

    def record(self, tick: int, event: str, **fields):
        parts = self._parts
        line = f"{tick}\t{event}"
        for key, value in fields.items():
            if isinstance(value, bytes):
                if key not in PAYLOAD_KEYS:
                    raise ValueError(f"bytes field {key!r} is not a payload key")
                ordinal = self._ordinal.get(value)
                if ordinal is None:
                    self._ordinal[value] = len(self._ordinal)
                    parts.append(f"{line}\t{key}=")
                    parts.append(value.hex())
                    line = ""
                else:
                    line += f"\t{key}=*{ordinal}"
            elif key == ID_KEY:
                ordinal = self._id_ordinal.get(value)
                if ordinal is None:
                    payload = fields.get("bytes")
                    if not isinstance(payload, bytes) or peek_digest_hex(payload) != value:
                        raise ValueError(
                            f"new id {value!r} is not the digest of the record's bytes"
                        )
                    ordinal = self._id_ordinal[value] = len(self._id_ordinal)
                line += f"\t{key}=#{ordinal}"
            else:
                line += f"\t{key}={value}"
        parts.append(line + "\n")

    def text(self) -> str:
        joined = "".join(self._parts)
        self._parts = [joined]
        return joined


class AddressTable:
    """Current and historical address ownership."""

    def __init__(self):
        self._current: dict[NetAddress, str] = {}
        self._owner_address: dict[str, NetAddress] = {}
        self.history: list[tuple[str, NetAddress, int]] = []

    def bind(self, agent: str, address: NetAddress, now: int) -> bool:
        """Bind `address` to `agent`, releasing the agent's old address.
        Returns whether the binding changed: False when the agent already
        holds `address`."""
        if self._current.get(address, agent) != agent:
            raise SimError(f"address {address!r} already bound")
        old = self._owner_address.get(agent)
        if old == address:
            return False
        if old is not None:
            del self._current[old]
        self._current[address] = agent
        self._owner_address[agent] = address
        self.history.append((agent, address, now))
        return True

    def owner(self, address: NetAddress) -> Optional[str]:
        return self._current.get(address)

    def address_of(self, agent: str) -> Optional[NetAddress]:
        return self._owner_address.get(agent)

    def owner_at(self, address: NetAddress, tick: int) -> Optional[str]:
        """The agent bound to `address` at the end of `tick`.  Delivery does
        not ask this: `SimNet` records the owner when a datagram is
        submitted."""
        # History is append-only and an agent holds one address at a time,
        # so replaying bindings up to `tick` is the simplest correct answer.
        held: dict[str, NetAddress] = {}
        current: dict[NetAddress, str] = {}
        for agent, addr, since in self.history:
            if since > tick:
                break
            old = held.get(agent)
            if old is not None:
                current.pop(old, None)
            held[agent] = addr
            current[addr] = agent
        return current.get(address)


class SimNet:
    def __init__(self, config: NetConfig, trace: Trace):
        config.validate()
        self.config = config
        self.trace = trace
        self.table = AddressTable()
        # str seeds hash deterministically (unlike tuples, which go through
        # PYTHONHASHSEED-dependent hash()).
        self._rng = random.Random(f"simnet:{config.seed}")
        # tick -> (datagram, its id, destination owner at submission)
        self._schedule: dict[int, list[tuple[Datagram, str, Optional[str]]]] = {}
        self._in_flight = 0

    # --- bindings -----------------------------------------------------------

    def bind(self, agent: str, address: NetAddress, now: int = 0):
        self.table.bind(agent, address, now)

    def rebind(self, agent: str, new_address: NetAddress, now: int):
        if self.table.bind(agent, new_address, now):
            self.trace.record(now, "REBIND", agent=agent, address=new_address)

    # --- traffic ----------------------------------------------------------------

    def submit(self, datagram: Datagram, now: int):
        digest = peek_digest_hex(datagram.payload)
        self.trace.record(
            now,
            "SUBMIT",
            src=datagram.src,
            dst=datagram.dst,
            id=digest,
            bytes=datagram.payload,
        )
        copies = 0
        if self._rng.random() < self.config.loss_prob:
            self.trace.record(now, "DROP_LOSS", src=datagram.src, dst=datagram.dst, id=digest)
        else:
            copies = 1
        if self._rng.random() < self.config.dup_prob:
            copies += 1
            self.trace.record(now, "DUP", src=datagram.src, dst=datagram.dst, id=digest)
        # The destination's owner now, so delivery can tell whether the
        # address changed hands in flight.
        entry = (datagram, digest, self.table.owner(datagram.dst))
        for _ in range(copies):
            when = now + self._rng.randint(self.config.delay_min, self.config.delay_max)
            self._schedule.setdefault(when, []).append(entry)
            self._in_flight += 1

    def step(self, now: int) -> list[tuple[str, bytes, NetAddress]]:
        """Deliver everything scheduled for `now`, in seeded-shuffle order.
        Returns (agent, payload, source address) triples."""
        batch = self._schedule.pop(now, [])
        self._in_flight -= len(batch)
        self._rng.shuffle(batch)
        out = []
        for datagram, digest, owner_at_submit in batch:
            owner = self.table.owner(datagram.dst)
            if owner is None or owner != owner_at_submit:
                self.trace.record(
                    now, "DROP_STALE", src=datagram.src, dst=datagram.dst, id=digest
                )
                continue
            self.trace.record(
                now, "DELIVER", dst=datagram.dst, agent=owner, id=digest
            )
            out.append((owner, datagram.payload, datagram.src))
        return out

    def in_flight(self) -> int:
        return self._in_flight
