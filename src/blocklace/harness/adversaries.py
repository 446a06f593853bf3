"""Role wrappers around protocol agents.

Every rostered agent, honest or not, is driven through a wrapper with the
same surface: receive / tick / change_address / run_command, all returning
raw (destination address, wire bytes) pairs.  Adversaries can only emit
datagrams; they never reach into another agent's state.

Roles:
  correct       — faithful protocol agent.
  silent        — receives and updates state, but never sends anything.
  eavesdropper  — silent, plus the runner mirrors every delivery to it.
  equivocator   — behaves correctly until its scripted fork, then goes mute
                  but for delivering each fork to its own recipients.
  forger        — behaves correctly, and on script injects invalid blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .. import blocks as b
from .. import crypto
from ..blocks import Ack, Block, BlockId, NetAddress, Say, WireDecoder
from ..simnet import Trace
from ..tl import ProtocolError, TlAgent
from ..wl import WlAgent, seal_utterance

RawSend = tuple[NetAddress, bytes]


class Defer(Exception):
    """Scripted command not yet executable; retry next tick."""


@dataclass
class Ctx:
    """What a scripted command may consult while executing."""

    now: int
    labels: dict[str, BlockId]
    agent_ids: dict[str, bytes]
    trace: Trace
    correct_targets: Callable[[], list[tuple[str, NetAddress]]]
    rng: random.Random
    wl_encrypt: bool = True


def _encode(block: Block) -> bytes:
    return b.encode_block(block)


class AgentWrapper:
    def __init__(self, name: str, inner: Union[TlAgent, WlAgent]):
        self.name = name
        self.inner = inner
        self.muted = False
        # Wire bytes of every block this agent has sent, encoded once so
        # every send of a block carries the same bytes object.  The key
        # holds the signature too: blocks equal under == may carry
        # different signature bytes and so different wire bytes.  Bound:
        # one entry per block the agent has sent.
        self._wire: dict[tuple[Block, bytes], bytes] = {}

    # -- plumbing shared by every role --

    def _out(self, sends) -> list[RawSend]:
        if self.muted:
            return []
        out = []
        for dst, block in sends:
            key = (block, block.id.signature)
            wire = self._wire.get(key)
            if wire is None:
                wire = self._wire[key] = _encode(block)
            out.append((dst, wire))
        return out

    def bootstrap(self, agent_id: bytes, address: NetAddress):
        self.inner.address_hints[agent_id] = address

    def receive(self, payload: bytes, src: Optional[NetAddress] = None) -> list[RawSend]:
        return self._out(self.inner.receive(payload, src))

    def tick(self) -> list[RawSend]:
        return self._out(self.inner.tick())

    def change_address(self, address: NetAddress) -> list[RawSend]:
        return self._out(self.inner.change_address(address))

    def run_command(self, command: dict, ctx: Ctx) -> list[RawSend]:
        cmd = command["cmd"]
        handler = getattr(self, f"_cmd_{cmd}", None)
        if handler is None:
            raise ProtocolError(f"role {type(self).__name__} cannot run {cmd!r}")
        try:
            sends = handler(command, ctx)
        except ProtocolError as exc:
            raise Defer(str(exc)) from exc
        label = command.get("label")
        if label is not None and self.inner.last_uttered is not None:
            ctx.labels[label] = self.inner.last_uttered.id
        return sends

    def _resolve_label(self, ctx: Ctx, label: str) -> BlockId:
        block_id = ctx.labels.get(label)
        if block_id is None:
            raise Defer(f"label {label!r} not yet bound")
        return block_id

    # -- protocol commands (available to every role; sends go through _out,
    #    so silent roles act but never emit) --

    def _cmd_follow(self, command, ctx):
        return self._out(self.inner.follow(ctx.agent_ids[command["target"]]))

    def _cmd_say(self, command, ctx):
        return self._out(self.inner.say(command["text"].encode("utf-8")))

    def _cmd_respond(self, command, ctx):
        re = self._resolve_label(ctx, command["re"])
        return self._out(self.inner.respond(command["text"].encode("utf-8"), re))

    def _cmd_create_group(self, command, ctx):
        return self._out(self.inner.create_group(command["name"].encode("utf-8")))

    def _cmd_invite(self, command, ctx):
        gid = self._resolve_label(ctx, command["group"])
        return self._out(self.inner.invite(ctx.agent_ids[command["target"]], gid))

    def _cmd_accept(self, command, ctx):
        gid = self._resolve_label(ctx, command["group"])
        return self._out(self.inner.accept(gid))

    def _cmd_say_group(self, command, ctx):
        gid = self._resolve_label(ctx, command["group"])
        return self._out(self.inner.say_group(gid, command["text"].encode("utf-8")))

    def _cmd_respond_group(self, command, ctx):
        re = self._resolve_label(ctx, command["re"])
        return self._out(self.inner.respond_group(re, command["text"].encode("utf-8")))


class SilentWrapper(AgentWrapper):
    """Processes everything, emits nothing."""

    def _out(self, sends) -> list[RawSend]:
        list(sends)
        return []


class EavesdropperWrapper(SilentWrapper):
    taps = True


class EquivocatorWrapper(AgentWrapper):
    """Correct until the scripted fork: it then creates two (or three)
    blocks with the same pointers, hands each to a different subset of
    recipients, and goes mute.  Its one remaining duty is the fork's
    delivery: each tick it sends every fork to each of its recipients until
    an ack from that recipient names the fork.  It relays nothing and acks
    nothing, so the fork spreads beyond its recipients only through honest
    dissemination."""

    def __init__(self, name: str, inner):
        super().__init__(name, inner)
        # (recipient, fork id, wire bytes) per fork delivery not yet
        # acknowledged.  Bound: forks × recipients of the scripted fork.
        self._unacked: list[tuple[bytes, BlockId, bytes]] = []

    def receive(self, payload: bytes, src: Optional[NetAddress] = None) -> list[RawSend]:
        sends = super().receive(payload, src)
        if self._unacked:
            block = WireDecoder().decode_verified(payload)
            if block is not None and isinstance(block.payload, Ack):
                self._unacked = [
                    entry
                    for entry in self._unacked
                    if entry[0] != block.creator or entry[1] not in block.pointers
                ]
        return sends

    def tick(self) -> list[RawSend]:
        sends = super().tick()
        for recipient, _, wire in self._unacked:
            dest = self.inner.address_of(recipient)
            if dest is not None:
                sends.append((dest, wire))
        return sends

    def _cmd_equivocate(self, command, ctx: Ctx) -> list[RawSend]:
        inner = self.inner
        branches = [("text_a", "recipients_a"), ("text_b", "recipients_b")]
        if "text_c" in command:
            branches.append(("text_c", "recipients_c"))
        if isinstance(inner, WlAgent):
            gid = self._resolve_label(ctx, command["group"])
            if not inner.member(inner.agent_id, gid) or gid not in inner.group_keys:
                raise Defer("equivocator not yet a member")
            key = inner.group_keys[gid]
            tips = inner.partition_tips(gid)
            payloads = [
                Say(seal_utterance(key, inner.kp, command[text].encode(), ctx.wl_encrypt))
                for text, _ in branches
            ]
        else:
            tips = inner.lace.tip_ids()
            payloads = [Say(command[text].encode()) for text, _ in branches]
        forks = [
            b.new_block(inner.kp, inner.current_address, payload, tips)
            for payload in payloads
        ]

        unacked = []
        for block, (_, recipients_key) in zip(forks, branches):
            wire = _encode(block)
            for name in command[recipients_key]:
                recipient = ctx.agent_ids[name]
                if inner.address_of(recipient) is None:
                    raise Defer(f"no address for recipient {name!r}")
                unacked.append((recipient, block.id, wire))
        for i, one in enumerate(forks):
            for other in forks[i + 1 :]:
                ctx.trace.record(
                    ctx.now,
                    "EQUIVOCATE",
                    agent=self.name,
                    id_a=one.id.hex(),
                    id_b=other.id.hex(),
                )
        self._unacked = unacked
        self.muted = True
        return []


class ForgerWrapper(AgentWrapper):
    """Correct participant that also injects datagrams that must never pass
    verification: fresh bodies under a victim's identity with bogus
    signatures, and replays of real blocks with tampered bodies."""

    def __init__(self, name: str, inner):
        super().__init__(name, inner)
        self._material: list[tuple[bytes, bytes]] = []  # (creator, wire bytes)
        self._seen_digests: set[bytes] = set()
        self._counter = 0

    def receive(self, payload: bytes, src: Optional[NetAddress] = None) -> list[RawSend]:
        try:
            block = b.decode_block(payload)
            if block.id.digest not in self._seen_digests:
                self._seen_digests.add(block.id.digest)
                self._material.append((block.id.creator, payload))
        except b.WireError:
            pass
        return super().receive(payload, src)

    def _cmd_forge(self, command, ctx: Ctx) -> list[RawSend]:
        victim = ctx.agent_ids[command["victim"]]
        mode = command["mode"]
        count = command["count"]
        targets = ctx.correct_targets()
        if not targets:
            raise Defer("no targets")
        if mode == "tamper" and not any(c == victim for c, _ in self._material):
            raise Defer("no victim material captured yet")
        sends: list[RawSend] = []
        for i in range(count):
            if mode == "garbage":
                wire = self._forge_garbage(victim, ctx)
            else:
                wire = self._forge_tamper(victim)
            _, dest = targets[(self._counter + i) % len(targets)]
            ctx.trace.record(
                ctx.now,
                "FORGE",
                agent=self.name,
                dst=dest,
                mode=mode,
                id=b.peek_digest_hex(wire),
                bytes=wire,
            )
            sends.append((dest, wire))
        self._counter += count
        return sends

    def _forge_garbage(self, victim: bytes, ctx: Ctx) -> bytes:
        self._counter += 1
        text = f"forged-{self._counter}".encode()
        body = b.canonical_encode(self.inner.current_address, Say(text), ())
        digest = crypto.hash_bytes(body)
        signature = ctx.rng.randbytes(crypto.SIGNATURE_LEN)
        return b._lp(victim) + b._lp(digest) + b._lp(signature) + body

    def _forge_tamper(self, victim: bytes) -> bytes:
        pool = [wire for creator, wire in self._material if creator == victim]
        wire = pool[self._counter % len(pool)]
        self._counter += 1
        block = b.decode_block(wire)
        payload = block.payload
        if isinstance(payload, Say):
            payload = Say(payload.text + b"!")
        else:
            payload = Say(b"tampered-" + str(self._counter).encode())
        body = b.canonical_encode(block.address, payload, block.pointers)
        return (
            b._lp(block.id.creator)
            + b._lp(block.id.digest)
            + b._lp(block.id.signature)
            + body
        )


ROLE_WRAPPERS = {
    "correct": AgentWrapper,
    "silent": SilentWrapper,
    "eavesdropper": EavesdropperWrapper,
    "equivocator": EquivocatorWrapper,
    "forger": ForgerWrapper,
}
