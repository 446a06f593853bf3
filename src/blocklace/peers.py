"""What peers hold, and the receive pipeline the TL and WL agents share.

An agent sends a block to a peer until it knows the peer holds it.
`PeerKnowledge` keeps that estimate per peer as a mask of the agent's
blocklace, updated as each claim, ack or arrival happens; each agent
supplies only its credit rule.  `Agent` holds the rest both agents share:
the contact directory (the agents this one talks to, and which of them
sits at a delivering address), the gate that drops strangers' acks, the
credit a delivered copy earns the contacts at its address, the bounded
pending buffer, the receive -> ack -> forward pipeline with its per-tick
ack dedup, the send loop (`disseminate`) and the retransmission round.  A
subclass fills in `_missing`, `_admit`, `_index` (which adds contacts),
`_record_ack`, `_ack_pointers`, `_nack_pointers`, `_creator_sends` and
`_wanted`, which says who may receive what.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import blocks as b
from .blocks import Ack, Block, BlockId, NetAddress, WireDecoder
from .crypto import AgentId, Keypair
from .lace import Blocklace
from .retransmit import Retransmit

Send = tuple[NetAddress, Block]


@dataclass
class AgentMetrics:
    received: int = 0
    inserted: int = 0
    dropped_invalid: int = 0
    acks_received: int = 0
    acks_sent: int = 0
    # Of `acks_sent`, the acks of parked blocks (`Agent.receive`).
    nacks_sent: int = 0
    pending_evicted: int = 0
    resent: int = 0


class PeerKnowledge:
    """Per peer, a mask of the blocks it provably holds.

    `known(q)` is q's own blocks here (`Blocklace.creator_mask`) joined
    with the credits q earned by naming blocks: in an ack, in a pointer,
    by delivering a copy, or, where the agent credits it so, by creating
    the block.  A named block earns one of two credits, as
    `rule(q, block, vouched)` decides when the block is here (no rule
    means always the first):

    * a full credit, the block's `closure`, which is kept equal to that
      closure as the blocklace grows: when y lands, every fully credited
      block z that points at y and now has y in its closure adds y's
      closure (on a closed blocklace nothing points at an arriving block,
      so this never fires);
    * a bit credit, the block alone.  `bits(q)` lists those, so that a
      rule that depends on state may upgrade them by crediting again.

    An id not here yet is parked until it lands or its pending block is
    evicted (`forget`).  Bound: one entry per distinct absent id named by
    a block stored or pending here, or by an ack from a contact
    (`Agent.receive`), holding one flag per peer that named it.
    """

    def __init__(
        self,
        lace: Blocklace,
        closure: Callable[[BlockId], int],
        rule: Optional[Callable[[AgentId, Block, bool], bool]] = None,
    ):
        self._lace = lace
        self._closure = closure
        self._rule = rule
        # Bound: one entry per agent that ever named or created a block here.
        self._full: dict[AgentId, int] = {}
        self._bits: dict[AgentId, int] = {}
        # absent id -> {peer: whether any of its namings vouched for it}
        self.parked: dict[BlockId, dict[AgentId, bool]] = {}

    def known(self, q: AgentId) -> int:
        return self._lace.creator_mask(q) | self._full.get(q, 0) | self._bits.get(q, 0)

    def bits(self, q: AgentId) -> int:
        """q's bit credits that no full credit covers."""
        return self._bits.get(q, 0) & ~self._full.get(q, 0)

    def credit(self, q: AgentId, ids: Iterable[BlockId], vouched: bool = True) -> None:
        """q named these ids.  `vouched` means q vouched for their history
        rather than only showing it holds them; the rule reads it."""
        lace = self._lace
        for block_id in ids:
            if block_id in lace:
                self._credit(block_id, {q: vouched})
            else:
                waiting = self.parked.setdefault(block_id, {})
                waiting[q] = waiting.get(q, False) or vouched

    def landed(self, block_id: BlockId) -> None:
        """Fold in the credits parked for a block that just landed, and
        grow the full credits whose closure it extends."""
        waiting = self.parked.pop(block_id, None)
        if waiting:
            self._credit(block_id, waiting)
        pointed = self._lace.pointed_by(block_id)
        if not pointed or not self._full:
            return
        lace, closure = self._lace, self._closure
        bit = lace.bit_of(block_id)
        extension = 0
        for q, full in self._full.items():
            for z in pointed:
                if full & lace.bit_of(z) and closure(z) & bit:
                    extension = extension or closure(block_id)
                    self._full[q] = full | extension
                    break

    def forget(self, block_id: BlockId) -> None:
        """Drop the credits parked for an id that will not land soon."""
        self.parked.pop(block_id, None)

    def _credit(self, block_id: BlockId, namers: dict[AgentId, bool]) -> None:
        rule = self._rule
        block = self._lace.get(block_id) if rule is not None else None
        mask = 0
        for q, vouched in namers.items():
            if rule is None or rule(q, block, vouched):
                mask = mask or self._closure(block_id)
                self._full[q] = self._full.get(q, 0) | mask
            else:
                self._bits[q] = self._bits.get(q, 0) | self._lace.bit_of(block_id)


class Agent:
    """The state, receive pipeline and send loop common to the TL and WL
    agents."""

    # Whether a block this agent relays (one it did not create) goes on
    # the relay schedule, sent once, rather than on the eager one
    # (`retransmit`).  Such a pair is repaired on a nack when
    # `_creator_sends` says the creator covers it, and is on a backstop
    # otherwise.
    RELAY_ONCE = False

    def __init__(
        self, kp: Keypair, address: NetAddress, metrics: AgentMetrics, pending_cap: int
    ):
        self.kp = kp
        self.agent_id = kp.agent_id
        self.current_address = address
        self.pending_cap = pending_cap
        self.lace = Blocklace()
        self.metrics = metrics
        self.retransmit = Retransmit(metrics)
        self.peers: PeerKnowledge  # set by the subclass, with its credit rule
        self.last_uttered: Optional[Block] = None
        self.address_hints: dict[AgentId, NetAddress] = {}
        # The agents this one talks to, in the order `_index` met them: the
        # only agents whose acks are filed and whose deliveries earn credit.
        # Bound: one entry per agent some stored block names.
        self._contacts: dict[AgentId, None] = {}
        # (lace version, address -> the other contacts there).  An address
        # comes from a contact's own blocks or its bootstrap hint, so the
        # book is rebuilt only when the blocklace grows.  Bound: one entry
        # per contact.
        self._book: tuple[int, dict[NetAddress, list[AgentId]]] = (-1, {})
        # Blocks waiting for missing ancestors, oldest first, and the
        # pending blocks waiting on each missing id.  Bound: `pending_cap`
        # blocks, the oldest evicted to make room; `_pending_on` names only
        # pending blocks, so it holds at most their pointers.
        self._pending: dict[BlockId, Block] = {}
        self._pending_on: dict[BlockId, list[BlockId]] = {}
        self._decoder = WireDecoder()
        # (destination, ack id) of every ack sent since the last tick: a
        # byte-identical ack goes to a destination at most once per tick.
        # Bound: the acks sent in one tick.
        self._acked: set[tuple[NetAddress, BlockId]] = set()

    # --- shared queries ------------------------------------------------------

    def address_of(self, q: AgentId) -> Optional[NetAddress]:
        return self.lace.ip_address(q) or self.address_hints.get(q)

    def pending_blocks(self) -> list[Block]:
        return list(self._pending.values())

    def _contacts_at(self, src: Optional[NetAddress]) -> list[AgentId]:
        """The other contacts whose address is src, in table order."""
        version, book = self._book
        if version != self.lace.version():
            book = {}
            for q in self._contacts:
                address = self.address_of(q)
                if address is not None and q != self.agent_id:
                    book.setdefault(address, []).append(q)
            self._book = (self.lace.version(), book)
        return book.get(src, [])

    # --- the receive pipeline ------------------------------------------------

    def receive(self, data: bytes, src: Optional[NetAddress] = None) -> list[Send]:
        """Validate, integrate, acknowledge, and forward a datagram.

        An ack exists to stop the deliverer's retransmission timer, so
        each block that lands is acknowledged to the delivering address
        (its creator's address when none is known), and a duplicate is
        acknowledged again, unless `_ack_pointers` gives None: in WL, a
        relay's copy that no timer waits on.  A block parked in the pending
        buffer is acknowledged to its deliverer only when `_nack_pointers`
        gives pointers: a nack, whose pointers show the deliverer which
        ancestors are missing here.  A copy earns the contacts at the
        delivering address credit (`_credit_delivery`); an ack counts only
        from a contact.  Only the blocks that just landed are forwarded;
        the rest of the backlog waits for the next `tick`.
        """
        self.metrics.received += 1
        block = self._decoder.decode_verified(data)
        if block is None:
            self.metrics.dropped_invalid += 1
            return []
        if isinstance(block.payload, Ack):
            self.metrics.acks_received += 1
            # A stranger's ack proves nothing this agent acts on, so it
            # does not reach `peers`.
            if block.creator in self._contacts:
                self._record_ack(block)
            return []
        landed, was_new = self._integrate(block)
        sender = self._credit_delivery(block, src)
        sends: list[Send] = []
        if not landed and src is not None and block.id in self._pending:
            pointers = self._nack_pointers(block)
            if pointers and self._ack(src, pointers, sends):
                self.metrics.nacks_sent += 1
        for acked in landed:
            pointers = self._ack_pointers(acked, sender)
            if pointers is not None:
                dest = src if src is not None else self.address_of(acked.creator)
                self._ack(dest, pointers, sends)
        if was_new:
            only = 0
            for blk in landed:
                only |= self.lace.bit_of(blk.id)
            sends.extend(self.disseminate(only))
        return sends

    def _credit_delivery(self, block: Block, src: Optional[NetAddress]) -> Optional[AgentId]:
        """Credit the contacts at src with a delivered block they hold, and
        return its deliverer.

        A peer sends only blocks it holds, so a copy held or pending here
        counts as the claim of every contact at the delivering address,
        like a pointer in its own block.  The deliverer is the creator when
        src is unknown or the creator sits there, else the first contact
        at src, if any."""
        at_src = self._contacts_at(src)
        if at_src and self._holds(block.id):
            for q in at_src:
                self.peers.credit(q, (block.id,), vouched=False)
        if src is None or block.creator in at_src:
            return block.creator
        return at_src[0] if at_src else None

    def _ack(
        self, dest: Optional[NetAddress], pointers: frozenset[BlockId], sends: list[Send]
    ) -> bool:
        """Append an ack with these pointers for `dest` to `sends`, unless
        the same ack already went there this tick."""
        if dest is None or dest == self.current_address:
            return False
        ack = b.new_block(self.kp, self.current_address, Ack(), pointers)
        if (dest, ack.id) in self._acked:
            return False
        self._acked.add((dest, ack.id))
        self.metrics.acks_sent += 1
        sends.append((dest, ack))
        return True

    def _nack_pointers(self, block: Block) -> Optional[frozenset[BlockId]]:
        """The pointers of the ack of a parked block, or None for none."""
        return None

    def disseminate(self, only: Optional[int] = None) -> list[Send]:
        """Send each peer the blocks `_wanted` lists for it, as
        `self.retransmit` schedules them.

        Outside `tick`'s round only first offers go out; in the round,
        every pair whose timer is due.  Each peer's blocks go in causal
        order (by closure size).  A pair listed twice in one call (a WL
        invite's closure to a target that is already a member) goes out
        at most once: the first `take` arms or backs off its timer.
        `only` is a bitmask of this blocklace that limits the candidates
        to those blocks: `receive` passes the blocks that just landed, so
        a new block is forwarded on arrival.  None means every block,
        which `tick` and the agent's own commands consider.
        """
        lace = self.lace
        scope = lace.all_mask() if only is None else only
        take = self.retransmit.take
        relay_once = self.RELAY_ONCE
        me = self.agent_id
        sends: list[Send] = []
        for q, wanted in self._wanted(scope):
            if not wanted:
                continue
            dest = self.address_of(q)
            if dest is None:
                continue
            batch = lace.blocks_of_mask(wanted)
            batch.sort(key=lambda blk: (lace.closure_size(blk.id), blk.sort_key()))
            for blk in batch:
                if not relay_once or blk.creator == me:
                    sent = take(dest, blk.id)
                else:
                    sent = take(dest, blk.id, True, not self._creator_sends(blk, q))
                if sent:
                    sends.append((dest, blk))
        return sends

    def _creator_sends(self, block: Block, q: AgentId) -> bool:
        """Whether the block's creator, if correct, sends it to q itself,
        so a relayed copy is a second path (`RELAY_ONCE`)."""
        return False

    def tick(self) -> list[Send]:
        """One retransmission round: every unacknowledged block whose
        timer is due, plus first offers of blocks newly needed; it ends
        this agent's tick and the ack dedup window."""
        self._acked.clear()
        with self.retransmit.round():
            return self.disseminate()

    # --- integration -----------------------------------------------------------

    def _holds(self, block_id: BlockId) -> bool:
        return block_id in self.lace or block_id in self._pending

    def _integrate(self, block: Block) -> tuple[list[Block], bool]:
        """Insert a verified non-ack block unless it must wait.  Returns
        (blocks worth acknowledging, whether anything new landed)."""
        if block.id in self.lace:
            return [block], False
        if block.id in self._pending:
            return [], False
        missing = self._missing(block)
        if missing:
            self._buffer_pending(block, missing)
            return [], False
        if not self._admit(block):
            return [], False
        landed = [block]
        landed.extend(self._drain(block.id))
        return landed, True

    def _buffer_pending(self, block: Block, missing: list[BlockId]):
        while len(self._pending) >= self.pending_cap:
            evicted = self._pending.pop(next(iter(self._pending)))
            for ptr in evicted.pointers:
                waiters = self._pending_on.get(ptr)
                if waiters is not None and evicted.id in waiters:
                    waiters.remove(evicted.id)
                    if not waiters:
                        del self._pending_on[ptr]
            self.peers.forget(evicted.id)
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
                if waiter is None or self._missing(waiter):
                    continue
                del self._pending[waiter_id]
                if self._admit(waiter):
                    landed.append(waiter)
                    queue.append(waiter_id)
        return landed

    def _utter(self, payload: b.Payload, pointers: Iterable[BlockId]) -> Block:
        """Sign and store one of this agent's own blocks."""
        block = b.new_block(self.kp, self.current_address, payload, pointers)
        self._insert(block)
        self.last_uttered = block
        return block

    def _insert(self, block: Block) -> None:
        self.lace.insert(block, verified=True)
        self.metrics.inserted += 1
        self._index(block)
        self.peers.landed(block.id)
