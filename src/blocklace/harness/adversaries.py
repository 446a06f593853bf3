"""Role wrappers around protocol agents.

Every rostered agent, honest or not, is driven through a wrapper with the
same surface: receive / flush_acks / tick / change_address / run_command,
all returning raw (destination address, wire bytes) pairs.  Adversaries
can only emit datagrams; they never reach into another agent's state,
and each acts through its own agent's blocklace and resend schedule.

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
from typing import Callable, Optional

from .. import blocks as b
from .. import crypto
from ..blocks import Block, BlockId, NetAddress, Say
from ..peers import Agent, ProtocolError
from ..simnet import Trace
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


class AgentWrapper:
    """Drives one agent and encodes what it sends.

    A muted agent receives and updates its state, but its sends go no
    further than `_out`, which lets through only what `_passes` allows:
    nothing, for every role but the equivocator.  The `mute` command sets
    it; the silent roles start muted.  The agent's counters (`metrics`)
    still count what the agent sent before the wrapper dropped it."""

    muted = False

    def __init__(self, name: str, inner: Agent):
        self.name = name
        self.inner = inner
        # Wire bytes of every block this agent has sent, encoded once so
        # every send of a block carries the same bytes object.  The key
        # holds the signature too: blocks equal under == may carry
        # different signature bytes and so different wire bytes.  Bound:
        # one entry per block the agent has sent.
        self._wire: dict[tuple[Block, bytes], bytes] = {}

    # -- plumbing shared by every role --

    def _passes(self, dst: NetAddress, block: Block) -> bool:
        """Whether a send of the agent's leaves the wrapper."""
        return not self.muted

    def _out(self, sends) -> list[RawSend]:
        out = []
        for dst, block in sends:
            if not self._passes(dst, block):
                continue
            key = (block, block.id.signature)
            wire = self._wire.get(key)
            if wire is None:
                wire = self._wire[key] = b.encode_block(block)
            out.append((dst, wire))
        return out

    def owes(self) -> bool:
        # Whether the run waits on this role beyond a correct agent's
        # retransmit timers (`Runner._run_ticks`).
        return False

    def bootstrap(self, agent_id: bytes, address: NetAddress):
        self.inner.address_hints[agent_id] = address

    def receive(self, payload: bytes, src: Optional[NetAddress] = None) -> list[RawSend]:
        return self._out(self.inner.receive(payload, src))

    def flush_acks(self) -> list[RawSend]:
        return self._out(self.inner.flush_acks())

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

    def _cmd_mute(self, command, ctx):
        # From now on the agent receives and updates its state, but sends
        # nothing: a phone switched off for good.
        self.muted = True
        return []

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
    """Processes everything, emits nothing: muted from the start."""

    muted = True


class EavesdropperWrapper(SilentWrapper):
    taps = True


class EquivocatorWrapper(AgentWrapper):
    """Correct until the scripted fork: it then creates two (or three)
    blocks with the same pointers, stores them in its own agent, hands
    each to a different subset of recipients, and goes mute.  Its one
    remaining duty is the forks' delivery, on its agent's own schedule
    (WL `RACED`, TL `PACED`): each fork is resent to each of its
    recipients until the agent knows the recipient holds it.  Muted, it
    lets through only a fork's copies to that fork's own recipients, so
    it relays nothing and acks nothing, and the forks spread beyond their
    recipients only through honest dissemination."""

    def __init__(self, name: str, inner):
        super().__init__(name, inner)
        # fork id -> its recipients.  Bound: the blocks of the scripted fork.
        self._forks: dict[BlockId, list[bytes]] = {}

    def _passes(self, dst: NetAddress, block: Block) -> bool:
        if not self.muted:
            return True
        recipients = self._forks.get(block.id, ())
        return any(dst == self.inner.address_of(r) for r in recipients)

    def owes(self) -> bool:
        # Until its agent knows each recipient holds its fork.
        known, bit = self.inner.peers.known, self.inner.lace.bit_of
        return any(not known(q) & bit(fork) for fork, qs in self._forks.items() for q in qs)

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
                Say(seal_utterance(key, inner.kp, command[text].encode(), inner.encrypt))
                for text, _ in branches
            ]
        else:
            tips = inner.lace.tip_ids()
            payloads = [Say(command[text].encode()) for text, _ in branches]
        for _, recipients_key in branches:
            for name in command[recipients_key]:
                if inner.address_of(ctx.agent_ids[name]) is None:
                    raise Defer(f"no address for recipient {name!r}")
        forks = [
            b.new_block(inner.kp, inner.current_address, payload, tips)
            for payload in payloads
        ]
        for i, one in enumerate(forks):
            for other in forks[i + 1 :]:
                ctx.trace.record(
                    ctx.now,
                    "EQUIVOCATE",
                    agent=self.name,
                    id_a=one.id.hex(),
                    id_b=other.id.hex(),
                )
        # Stored past every Defer, so a retried command stores nothing twice.
        for block, (_, recipients_key) in zip(forks, branches):
            inner._insert(block)
            self._forks[block.id] = [ctx.agent_ids[name] for name in command[recipients_key]]
        self.muted = True
        return self._out(inner.disseminate())


class ForgerWrapper(AgentWrapper):
    """Correct participant that also injects datagrams that must never pass
    verification: fresh bodies under a victim's identity with bogus
    signatures, and copies of the victim's blocks in its own blocklace
    with tampered bodies."""

    def __init__(self, name: str, inner):
        super().__init__(name, inner)
        self._counter = 0

    def _cmd_forge(self, command, ctx: Ctx) -> list[RawSend]:
        victim = ctx.agent_ids[command["victim"]]
        mode = command["mode"]
        count = command["count"]
        targets = ctx.correct_targets()
        if not targets:
            raise Defer("no targets")
        material = self.inner.lace.by_creator(victim)
        if mode == "tamper" and not material:
            raise Defer("no victim block here yet")
        sends: list[RawSend] = []
        for i in range(count):
            if mode == "garbage":
                wire = self._forge_garbage(victim, ctx)
            else:
                wire = self._forge_tamper(material)
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

    def _forge_tamper(self, material: list[Block]) -> bytes:
        block = material[self._counter % len(material)]
        self._counter += 1
        payload = block.payload
        if isinstance(payload, Say):
            payload = Say(payload.text + b"!")
        else:
            payload = Say(b"tampered-" + str(self._counter).encode())
        return b.encode_block(Block(block.id, block.address, payload, block.pointers))


ROLE_WRAPPERS = {
    "correct": AgentWrapper,
    "silent": SilentWrapper,
    "eavesdropper": EavesdropperWrapper,
    "equivocator": EquivocatorWrapper,
    "forger": ForgerWrapper,
}
