"""Public-feed ("Twitter-like") protocol agent.

Each agent is a single-threaded state machine over its own blocklace.
Utterances (follow/say/respond) become blocks pointing at the current
tips; every received non-ack block is acknowledged.  A block goes to each
peer that needs it when it lands or is uttered, and a periodic tick
resends what is still unacknowledged on a backoff schedule per (peer
address, block) (`retransmit.Retransmit`), so lost datagrams are
eventually retried.  Friendship is mutual following; a pending
friendship offer is resent to its target until acknowledged.

Reliable dissemination rests on three choices that keep the ack/nack
bookkeeping sound:

* An agent's blocks always carry a pointer to its previous own block, so
  every honest agent's blocks form one self-pointer chain.
* Blocks from followed creators integrate only in self-chain order; a
  block whose same-creator ancestors are missing waits in a bounded
  buffer.  (Blocks from strangers — offers, spam — are stored as they
  come: nobody promises to have their history.)  Holding a followed
  agent's block therefore implies holding that agent's whole chain prefix.
* Acks disclose, per creator, the most recent block known; the sender
  infers knowledge along self-pointer chains only.  Inferring through
  cross-creator pointers would credit receivers with blocks they may
  never have gotten (they store blocks out of order), silently starving
  them of the gap.

Received acks live in a side table rather than the blocklace: storing
them would make them tips, everything afterwards would point at them, yet
acks are never disseminated, so peers could not resolve those pointers
and would resend forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import blocks as b
from .blocks import Ack, Block, BlockId, Empty, Follow, NetAddress, Respond, Say, WireDecoder
from .crypto import AgentId, Keypair
from .lace import Blocklace
from .retransmit import Retransmit


class ProtocolError(Exception):
    """A command violated its precondition."""


# --- commands ----------------------------------------------------------------


@dataclass(frozen=True)
class FollowCmd:
    target: AgentId


@dataclass(frozen=True)
class SayCmd:
    text: bytes


@dataclass(frozen=True)
class RespondCmd:
    text: bytes
    re: BlockId


@dataclass(frozen=True)
class ChangeAddressCmd:
    address: NetAddress


@dataclass(frozen=True)
class ReceiveCmd:
    data: bytes
    src: Optional[NetAddress] = None


@dataclass(frozen=True)
class TickCmd:
    pass


@dataclass(frozen=True)
class BootstrapCmd:
    """Out-of-band address hint (how two strangers first find each other)."""

    agent: AgentId
    address: NetAddress


TlCommand = Union[
    FollowCmd, SayCmd, RespondCmd, ChangeAddressCmd, ReceiveCmd, TickCmd, BootstrapCmd
]

Send = tuple[NetAddress, Block]


@dataclass
class TlMetrics:
    received: int = 0
    inserted: int = 0
    dropped_invalid: int = 0
    acks_received: int = 0
    acks_sent: int = 0
    pending_evicted: int = 0
    resent: int = 0


class TlAgent:
    def __init__(self, kp: Keypair, address: NetAddress, pending_cap: int = 1024):
        self.kp = kp
        self.agent_id = kp.agent_id
        self.current_address = address
        self.pending_cap = pending_cap
        self.lace = Blocklace()
        self.metrics = TlMetrics()
        self.retransmit = Retransmit(self.metrics)
        self.last_uttered: Optional[Block] = None
        self.address_hints: dict[AgentId, NetAddress] = {}
        self.ack_log: list[Block] = []
        self._disclosed: dict[AgentId, set[BlockId]] = {}
        self._disclosed_weak: dict[AgentId, set[BlockId]] = {}
        self._claims: dict[AgentId, set[BlockId]] = {}
        self._own_head: Optional[BlockId] = None
        self._follow_edges: set[tuple[AgentId, AgentId]] = set()
        self._known_agents: dict[AgentId, None] = {}  # insertion-ordered set
        self._pending: dict[BlockId, Block] = {}
        self._pending_on: dict[BlockId, list[BlockId]] = {}
        self._knowledge_cache: dict[AgentId, tuple[tuple, int]] = {}
        self._decoder = WireDecoder()
        # (destination, ack id) of every ack sent since the last tick: a
        # byte-identical ack goes to a destination at most once per tick.
        # Bound: the acks sent in one tick.
        self._acked: set[tuple[NetAddress, BlockId]] = set()

    # --- state queries -----------------------------------------------------

    def follows(self, q: AgentId, q2: AgentId) -> bool:
        """q follows q2 according to the local blocklace (reflexive)."""
        return q == q2 or (q, q2) in self._follow_edges

    def friends(self, q: AgentId) -> bool:
        return (
            q != self.agent_id
            and self.follows(self.agent_id, q)
            and self.follows(q, self.agent_id)
        )

    def feed(self, author: AgentId) -> list[Block]:
        """The author's utterances, in self-chain order.

        Empty unless this agent follows the author: blocks without an
        acceptable origin never reach the feed, however they arrived.
        """
        if not self.follows(self.agent_id, author):
            return []
        utterances = [
            blk for blk in self.lace.by_creator(author) if b.is_utterance(blk.payload)
        ]
        utterances.sort(
            key=lambda blk: (self.lace.self_mask_of(blk.id).bit_count(), blk.id.digest)
        )
        return utterances

    def known_agents(self) -> list[AgentId]:
        """Agents that appear in the blocklace as creators or follow targets."""
        return [q for q in self._known_agents if q != self.agent_id]

    def address_of(self, q: AgentId) -> Optional[NetAddress]:
        return self.lace.ip_address(q) or self.address_hints.get(q)

    def pending_blocks(self) -> list[Block]:
        return list(self._pending.values())

    # --- command surface ---------------------------------------------------

    def step(self, cmd: TlCommand) -> list[Send]:
        if isinstance(cmd, FollowCmd):
            return self.follow(cmd.target)
        if isinstance(cmd, SayCmd):
            return self.say(cmd.text)
        if isinstance(cmd, RespondCmd):
            return self.respond(cmd.text, cmd.re)
        if isinstance(cmd, ChangeAddressCmd):
            return self.change_address(cmd.address)
        if isinstance(cmd, ReceiveCmd):
            return self.receive(cmd.data, cmd.src)
        if isinstance(cmd, TickCmd):
            return self.tick()
        if isinstance(cmd, BootstrapCmd):
            self.address_hints[cmd.agent] = cmd.address
            return []
        raise TypeError(f"unknown command {cmd!r}")

    def follow(self, target: AgentId) -> list[Send]:
        self._utter(Follow(target))
        return self.disseminate()

    def say(self, text: bytes) -> list[Send]:
        self._utter(Say(text))
        return self.disseminate()

    def respond(self, text: bytes, re: BlockId) -> list[Send]:
        referent = self.lace.get(re)
        if referent is None:
            raise ProtocolError("respond referent not known locally")
        if not b.is_utterance(referent.payload):
            raise ProtocolError("respond referent is not an utterance")
        self._utter(Respond(text, re))
        return self.disseminate()

    def change_address(self, address: NetAddress) -> list[Send]:
        self.current_address = address
        self._utter(Empty())
        return self.disseminate()

    def receive(self, data: bytes, src: Optional[NetAddress] = None) -> list[Send]:
        """Validate, integrate, acknowledge, and forward a datagram.

        The ack goes back to the delivering address (the creator's address
        when none is known): the deliverer is the one whose retry loop the
        ack must stop, and a relayed block acked only to its distant
        creator would be resent by the relay forever.  A block delivered
        from a known agent's address counts as that agent's claim of
        possession, like a pointer in one of its own blocks.  Only the
        blocks that just landed are forwarded; the rest of the backlog
        waits for the next `tick`.
        """
        self.metrics.received += 1
        block = self._decoder.decode_verified(data)
        if block is None:
            self.metrics.dropped_invalid += 1
            return []
        if isinstance(block.payload, Ack):
            self.metrics.acks_received += 1
            self.ack_log.append(block)
            self._record_disclosure(block)
            return []
        landed, was_new = self._integrate(block)
        sends: list[Send] = []
        sender = self._resolve_sender(src, block)
        if src is not None and sender not in (None, self.agent_id) and (
            block.id in self.lace or block.id in self._pending
        ):
            # A peer sends only blocks it holds: the copy is its claim.
            self._claims.setdefault(sender, set()).add(block.id)
        dest = src if src is not None else self.address_of(block.creator)
        if dest is not None and dest != self.current_address:
            for acked in landed:
                ack = b.new_block(
                    self.kp, self.current_address, Ack(), self._ack_pointers(acked, sender)
                )
                if (dest, ack.id) in self._acked:
                    continue
                self._acked.add((dest, ack.id))
                self.metrics.acks_sent += 1
                sends.append((dest, ack))
        if was_new:
            only = 0
            for blk in landed:
                only |= self.lace.bit_of(blk.id)
            sends.extend(self.disseminate(only))
        return sends

    def tick(self) -> list[Send]:
        """One retransmission round: every unacknowledged block whose
        timer is due, plus first offers of blocks newly needed; it ends
        this agent's tick and the ack dedup window."""
        self._acked.clear()
        with self.retransmit.round():
            return self.disseminate()

    # --- internals -----------------------------------------------------------

    def _utter(self, payload: b.Payload) -> Block:
        pointers = set(self.lace.tip_ids())
        if self._own_head is not None:
            pointers.add(self._own_head)
        block = b.new_block(self.kp, self.current_address, payload, pointers)
        self._insert(block)
        self.last_uttered = block
        return block

    def _integrate(self, block: Block) -> tuple[list[Block], bool]:
        """Insert a verified non-ack block, keeping followed creators'
        chains self-closed.

        Returns (blocks worth acknowledging, whether anything new landed).
        Duplicates are re-acknowledged so the sender's retry loop stops;
        a block waiting for its chain predecessors is not acknowledged.

        A friendship offer addressed to this agent always lands directly:
        buffering it would wedge mutual befriending, since the offerer's
        chain prefix only starts flowing once the offer is acknowledged
        and the friendship exists."""
        if block.id in self.lace:
            return [block], False
        if block.id in self._pending:
            return [], False
        is_offer_to_me = (
            isinstance(block.payload, Follow) and block.payload.target == self.agent_id
        )
        if not is_offer_to_me and self.follows(self.agent_id, block.creator):
            missing = [
                ptr
                for ptr in sorted(block.pointers)
                if ptr.creator == block.creator and ptr not in self.lace
            ]
            if missing:
                self._buffer_pending(block, missing)
                return [], False
        self._insert(block)
        landed = [block]
        landed.extend(self._drain(block.id))
        return landed, True

    def _buffer_pending(self, block: Block, missing: list[BlockId]):
        while len(self._pending) >= self.pending_cap:
            evicted = next(iter(self._pending))
            del self._pending[evicted]
            self.metrics.pending_evicted += 1
        self._pending[block.id] = block
        for ptr in missing:
            waiters = self._pending_on.setdefault(ptr, [])
            if block.id not in waiters:
                waiters.append(block.id)

    def _drain(self, arrived: BlockId) -> list[Block]:
        landed = []
        queue = [arrived]
        while queue:
            current = queue.pop(0)
            for waiter_id in self._pending_on.pop(current, ()):
                waiter = self._pending.get(waiter_id)
                if waiter is None:
                    continue
                still_missing = [
                    ptr
                    for ptr in waiter.pointers
                    if ptr.creator == waiter.creator and ptr not in self.lace
                ]
                if still_missing:
                    continue
                del self._pending[waiter_id]
                self._insert(waiter)
                landed.append(waiter)
                queue.append(waiter_id)
        return landed

    def _insert(self, block: Block) -> None:
        self.lace.insert(block, verified=True)
        self.metrics.inserted += 1
        self._known_agents.setdefault(block.creator)
        if block.creator == self.agent_id:
            self._own_head = block.id
        else:
            # The block's pointers are its creator's claims of possession;
            # they feed the knowledge estimate used by dissemination.
            self._claims.setdefault(block.creator, set()).update(block.pointers)
        if isinstance(block.payload, Follow):
            self._follow_edges.add((block.creator, block.payload.target))
            self._known_agents.setdefault(block.payload.target)

    def _record_disclosure(self, ack: Block):
        """File an ack's pointers as knowledge about its creator.

        A bare receipt of one of this agent's own friendship offers proves
        only that single block (offers land out of chain order); every
        other disclosure vouches for the named blocks and their history."""
        pointers = ack.pointers
        if len(pointers) == 1:
            (only,) = pointers
            named = self.lace.get(only)
            if (
                named is not None
                and named.creator == self.agent_id
                and isinstance(named.payload, Follow)
                and named.payload.target == ack.creator
            ):
                self._disclosed_weak.setdefault(ack.creator, set()).add(only)
                return
        self._disclosed.setdefault(ack.creator, set()).update(pointers)

    def _resolve_sender(self, src: Optional[NetAddress], block: Block) -> Optional[AgentId]:
        """Which known agent currently sits at the delivering address."""
        if src is None:
            return block.creator
        if self.lace.ip_address(block.creator) == src or (
            self.address_hints.get(block.creator) == src
        ):
            return block.creator
        for q in self._known_agents:
            if self.lace.ip_address(q) == src:
                return q
        return None

    def _ack_pointers(self, block: Block, sender: Optional[AgentId]) -> frozenset[BlockId]:
        # Full disclosure to a friend: the most recent block known per
        # creator, which pins down everything held — so vouch only for
        # creators whose chains have no known hole here.  A friendship
        # offer is acknowledged by naming it; anyone else learns nothing.
        if sender is not None and self.friends(sender):
            heads: set[BlockId] = set()
            for creator in self.lace.creators():
                if not self.lace.has_missing(creator):
                    heads.update(blk.id for blk in self.lace.creator_heads(creator))
            return frozenset(heads)
        payload = block.payload
        if isinstance(payload, Follow) and payload.target == self.agent_id:
            return frozenset([block.id])
        return frozenset()

    def _claim_credit(self, q: AgentId, claimed: BlockId) -> int:
        # What q pointing at a block proves q holds.  The whole self-chain
        # prefix when q's buffering guarantees it (q follows the creator
        # and the block is not an offer landed out of chain order);
        # otherwise just the block itself.
        block = self.lace.get(claimed)
        if block is None:
            return 0
        payload = block.payload
        if self.follows(q, block.creator) and not (
            isinstance(payload, Follow) and payload.target == q
        ):
            return self.lace.self_mask_of(claimed)
        return self.lace.bit_of(claimed)

    def _knowledge(self, q: AgentId) -> int:
        """Bitmask of blocks q provably holds: q's own blocks and chain,
        plus credit for every block q pointed at or disclosed."""
        claims = self._claims.get(q, ())
        disclosed = self._disclosed.get(q, ())
        weak = self._disclosed_weak.get(q, ())
        cached = self._knowledge_cache.get(q)
        key = (
            self.lace.version(),
            len(claims),
            len(disclosed),
            len(weak),
            len(self._follow_edges),
        )
        if cached is not None and cached[0] == key:
            return cached[1]
        mask = 0
        for blk in self.lace.by_creator(q):
            mask |= self.lace.self_mask_of(blk.id)
        for claimed in claims:
            mask |= self._claim_credit(q, claimed)
        for disclosed_id in disclosed:
            # Disclosures vouch for history: the discloser only names heads
            # of chains it holds without holes.
            mask |= self.lace.self_mask_of(disclosed_id)
        for weak_id in weak:
            if weak_id in self.lace:
                mask |= self.lace.bit_of(weak_id)
        self._knowledge_cache[q] = (key, mask)
        return mask

    def disseminate(self, only: Optional[int] = None) -> list[Send]:
        """Send every block each known agent needs, as `self.retransmit`
        schedules it.

        A block is needed until the destination's blocks or disclosed ack
        pointers show it has been observed.  Outside `tick`'s round only
        first offers go out; in the round, every pair whose timer is due.
        `only` is a bitmask of this blocklace that limits the candidates to
        those blocks: `receive` passes the blocks that just landed, so a
        new block is forwarded on arrival.  None means every block, which
        `tick` and the agent's own commands consider.
        """
        sends: list[Send] = []
        me = self.agent_id
        lace = self.lace
        scope = lace.all_mask() if only is None else only
        take = self.retransmit.take
        for q in sorted(self.known_agents()):
            dest = self.address_of(q)
            if dest is None:
                continue
            q_is_friend = self.friends(q)
            needed = scope & ~self._knowledge(q)
            batch = []
            while needed:
                low = needed & -needed
                needed ^= low
                block = lace.blocks_of_mask(low)[0]
                payload = block.payload
                if isinstance(payload, Ack):
                    continue
                if (q_is_friend and self.follows(q, block.creator)) or (
                    block.creator == me
                    and isinstance(payload, Follow)
                    and payload.target == q
                ):
                    batch.append(block)
            batch.sort(key=lambda blk: (lace.closure_size(blk.id), blk.sort_key()))
            sends.extend((dest, blk) for blk in batch if take(dest, blk.id))
        return sends
