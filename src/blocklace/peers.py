"""What peers hold, and the receive pipeline the TL and WL agents share.

The rules both agents keep:

* An agent sends a block to a peer until it knows the peer holds it.
  `PeerKnowledge` keeps that estimate per peer as one mask of the agent's
  blocklace.
* Each claim, ack or delivered copy widens the estimate by a credit that
  is fixed when it is made.  Each agent supplies its credit function.
* Only a contact's acks are filed; a stranger's ack is dropped.  A
  delivered copy earns credit for the contacts at its address.
* A block whose past is missing waits in the bounded pending buffer.
* `receive` stores and acks (Acks, below); the round sends.  The blocks
  that land wait for the agent's next round (`tick`).
* The round is the one place an agent sends blocks: `disseminate` makes
  the first offers of what peers are owed and resends what they still
  are not known to hold (`retransmit`): on a timer per copy, or, for a
  lazy copy, in a repair per destination.

Acks.  Each copy that lands draws an ack to stop the deliverer's timer
(`Agent.receive`), and two rules keep the acks few.  Nacks follow them
too.

* Merge: an agent sends each address at most one ack a tick, naming
  every block the tick's deliveries drew for it (`Agent.flush_acks`).
  This is TCP's delayed, cumulative ack (RFC 1122 4.2.3.2, RFC 5681
  4.2), at no cost in latency: the runner drains the acks right after
  the tick's deliveries, so they leave in the tick of the copies that
  drew them, whatever the agent's tick interval, while the blocks those
  copies bring wait for the agent's round.  They are not sent in the
  round, so they never hold a quiet round open.
* Twins: a copy of a block that first landed here from the same address
  fewer than BURST (5) ticks ago draws no ack.  At the default delays
  the copies of one burst land at most delay_max - delay_min = 4 ticks
  apart, and the first copy's ack answers the whole burst; without the
  rule each twin that lands in a later tick draws an ack of its own.
  Only a block's first landing opens the window, so a timer resend
  still draws a fresh ack: a RACED resend lands at least 7 ticks after
  the burst's first copy.  A first EAGER resend lands inside the window
  when it travels no slower than the first copy did, and a first PACED
  one when it travels at least 2 ticks faster; the resend after it
  lands outside, but for an EAGER one whose delays differ by the full 4
  ticks.  Every other copy draws its ack, even one that lands a tick
  after the same ack went: it may be a resend whose sender lost that
  ack.

The acks these rules hold back are not the ones that stop timers, so
resends stay about the same.  Each rule bounds its state by the last few
ticks: the merge by one tick's deliveries, the twins by the landings of
the last BURST ticks.

A subclass fills in `_missing`, `_admit`, `_index` (which adds contacts),
`_record_ack`, `_ack_pointers`, `_nack_pointers`, `_wanted`, which says
who may receive what and which part of it is lazy, and `_schedule`, which
names the first offer of each other copy.  WL also extends
`_credit_delivery`: a member's copy of a group block vouches for this
agent's own membership there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import blocks as b
from .blocks import Ack, Block, BlockId, NetAddress, WireDecoder
from .crypto import AgentId, Digest, Keypair
from .lace import Blocklace
from .retransmit import Retransmit

Send = tuple[NetAddress, Block]

# How many blocks the pending buffer holds while they wait for missing
# ancestors; past it the oldest is evicted, and lands only if a copy
# arrives again.  Read when a block is buffered.
PENDING_CAP = 1024

# How many absent ids `PeerKnowledge` keeps credits parked for; past it the
# oldest is dropped, as the pending buffer drops its oldest block.  A
# dropped credit costs at most sends the peer did not need.
PARKED_CAP = 4096

# A copy that lands fewer than this many ticks after the same block first
# landed from the same address is a twin of that burst, and draws no ack.
# At the default delays the copies of one burst land at most
# delay_max - delay_min = 4 ticks apart.
BURST = 5


class ProtocolError(Exception):
    """A command violated its precondition."""


@dataclass
class AgentMetrics:
    received: int = 0
    inserted: int = 0
    dropped_invalid: int = 0
    acks_received: int = 0
    # Acks built by `Agent.flush_acks`: at most one per destination a call.
    acks_sent: int = 0
    # Of `acks_sent`, those that name what a parked block's ack names
    # (`Agent.receive`).
    nacks_sent: int = 0
    pending_evicted: int = 0
    resent: int = 0


class PeerKnowledge:
    """Per peer, a mask of the blocks it provably holds.

    `known(q)` is q's own blocks here (`Blocklace.creator_mask`) joined
    with the credits q earned by naming blocks: in an ack, in a pointer,
    by delivering a copy, or, where the agent credits it so, by creating
    the block.  A block is named by its digest, which binds its creator
    (`blocks.block_digest`), and resolved through `Blocklace.by_digest`.
    A named block here earns the mask that `credit_of(q, block_id,
    vouched)` gives: WL's the block's closure, TL's its self-chain prefix
    or the block alone.  A credit is fixed when it is made: a closure that
    grows later (an ancestor lands) does not widen it.  Under-crediting
    costs at most sends the peer did not need, and the peer's next ack or
    claim widens it.

    A digest not here yet is parked until its block lands, its pending
    block is evicted (`forget`), or PARKED_CAP newer digests push it out.
    Bound: PARKED_CAP entries, each holding one flag per peer that named
    the digest; the digests come from blocks stored or pending here and
    from acks from contacts (`Agent.receive`).
    """

    def __init__(self, lace: Blocklace, credit_of: Callable[[AgentId, BlockId, bool], int]):
        self._lace = lace
        self._credit_of = credit_of
        # Bound: one entry per agent that ever named or created a block here.
        self._credits: dict[AgentId, int] = {}
        # absent digest -> {peer: whether any of its namings vouched for it}
        self.parked: dict[Digest, dict[AgentId, bool]] = {}

    def known(self, q: AgentId) -> int:
        return self._lace.creator_mask(q) | self._credits.get(q, 0)

    def credit(self, q: AgentId, digests: Iterable[Digest], vouched: bool = True) -> None:
        """q named the blocks with these digests.  `vouched` means q
        vouched for their history rather than only showing it holds
        them."""
        by_digest = self._lace.by_digest
        for digest in digests:
            block = by_digest(digest)
            if block is not None:
                self._credit(block.id, {q: vouched})
            else:
                waiting = self.parked.get(digest)
                if waiting is None:
                    if len(self.parked) >= PARKED_CAP:
                        del self.parked[next(iter(self.parked))]
                    waiting = self.parked[digest] = {}
                waiting[q] = waiting.get(q, False) or vouched

    def landed(self, block_id: BlockId) -> None:
        """Fold in the credits parked for a block that just landed."""
        waiting = self.parked.pop(block_id.digest, None)
        if waiting:
            self._credit(block_id, waiting)

    def forget(self, block_id: BlockId) -> None:
        """Drop the credits parked for a block that will not land soon."""
        self.parked.pop(block_id.digest, None)

    def _credit(self, block_id: BlockId, namers: dict[AgentId, bool]) -> None:
        credits = self._credits
        for q, vouched in namers.items():
            credits[q] = credits.get(q, 0) | self._credit_of(q, block_id, vouched)


class Agent:
    """The state, receive pipeline and send loop common to the TL and WL
    agents."""

    def __init__(self, kp: Keypair, address: NetAddress, metrics: AgentMetrics):
        self.kp = kp
        self.agent_id = kp.agent_id
        self.current_address = address
        self.lace = Blocklace()
        self.metrics = metrics
        self.retransmit = Retransmit(metrics)
        self.peers: PeerKnowledge  # set by the subclass, with its credit function
        self.last_uttered: Optional[Block] = None
        self.address_hints: dict[AgentId, NetAddress] = {}
        # The agents this one talks to, in the order `_index` met them: the
        # only agents whose acks are filed and whose deliveries earn credit.
        # Bound: one entry per agent some stored block names.
        self._contacts: dict[AgentId, None] = {}
        # (lace size, address hints, address -> the other contacts
        # there).  An address comes from a contact's own blocks or its
        # bootstrap hint, so the book is rebuilt when the blocklace grows or
        # the hints change.  Bound: one entry per contact, and a copy of the
        # hints.
        self._book: tuple[int, dict[AgentId, NetAddress], dict[NetAddress, list[AgentId]]]
        self._book = (-1, {}, {})
        # Blocks waiting for missing ancestors, oldest first, and the
        # pending blocks waiting on each missing id.  Bound: PENDING_CAP
        # blocks, the oldest evicted to make room; `_pending_on` names only
        # pending blocks, so it holds at most their pointers.
        self._pending: dict[BlockId, Block] = {}
        self._pending_on: dict[BlockId, list[BlockId]] = {}
        self._decoder = WireDecoder()
        # destination -> (the digests the acks drawn for it since the last
        # `flush_acks` name, whether one of them was a nack).  Bound: one
        # entry per address a datagram came from since then.
        self._outbox: dict[NetAddress, tuple[frozenset[Digest], bool]] = {}
        # (delivering address, block id) -> the tick (`retransmit.now`) the
        # block first landed here from there: a later copy from the same
        # address within BURST ticks is a twin of that burst and draws no
        # ack.  Bound: the landings of the last BURST ticks.
        self._first_copies: dict[tuple[Optional[NetAddress], BlockId], int] = {}

    # --- shared queries ------------------------------------------------------

    def address_of(self, q: AgentId) -> Optional[NetAddress]:
        return self.lace.ip_address(q) or self.address_hints.get(q)

    def pending_blocks(self) -> list[Block]:
        return list(self._pending.values())

    def _contacts_at(self, src: Optional[NetAddress]) -> list[AgentId]:
        """The other contacts whose address is src, in table order."""
        size, hints, book = self._book
        if size != len(self.lace) or hints != self.address_hints:
            book = {}
            for q in self._contacts:
                address = self.address_of(q)
                if address is not None and q != self.agent_id:
                    book.setdefault(address, []).append(q)
            self._book = (len(self.lace), dict(self.address_hints), book)
        return book.get(src, [])

    # --- the receive pipeline ------------------------------------------------

    def receive(self, data: bytes, src: Optional[NetAddress] = None) -> None:
        """Validate, integrate and acknowledge a datagram.

        It sends nothing: the acks it draws wait in the outbox for
        `flush_acks`, which merges them into one ack per destination, and
        the blocks that land go out in the agent's next round (`tick`).
        An ack exists to stop the deliverer's retransmission timer, so
        each block that lands is acknowledged to the delivering address
        (its creator's address when none is known), unless `_ack_pointers`
        gives None: in WL, a relay's copy that no timer waits on; in TL, a
        block whose ack would name nothing.  A
        duplicate is acknowledged again, unless it is a twin: a copy of a
        block that first landed here from the same address fewer than
        BURST ticks ago, whose first copy's ack answers the whole burst.
        A block parked in the pending buffer is acknowledged to its
        deliverer only when `_nack_pointers` gives ids: a nack, whose
        names show the deliverer which ancestors are missing here.  A
        copy earns the contacts at the delivering address credit
        (`_credit_delivery`); an ack counts only from a contact.
        """
        self.metrics.received += 1
        block = self._decoder.decode_verified(data)
        if block is None:
            self.metrics.dropped_invalid += 1
            return
        if isinstance(block.payload, Ack):
            self.metrics.acks_received += 1
            # A stranger's ack proves nothing this agent acts on, so it
            # does not reach `peers`.
            if block.creator in self._contacts:
                self._record_ack(block)
            return
        landed, was_new = self._integrate(block)
        sender = self._credit_delivery(block, src)
        if not landed and src is not None and block.id in self._pending:
            named = self._nack_pointers(block)
            if named:
                self._ack(src, named, nack=True)
        # `tick` keeps only the landings whose burst may still arrive.
        copy = (src, block.id)
        if was_new:
            self._first_copies[copy] = self.retransmit.now
        elif copy in self._first_copies:
            landed = []
        for acked in landed:
            named = self._ack_pointers(acked, sender)
            if named is not None:
                dest = src if src is not None else self.address_of(acked.creator)
                self._ack(dest, named)

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
                self.peers.credit(q, (block.id.digest,), vouched=False)
        if src is None or block.creator in at_src:
            return block.creator
        return at_src[0] if at_src else None

    def _ack(self, dest: Optional[NetAddress], ids: frozenset[BlockId], nack: bool = False):
        """Name these blocks in the ack that `flush_acks` builds for
        `dest`."""
        if dest is None or dest == self.current_address:
            return
        drawn, nacked = self._outbox.get(dest, (frozenset(), False))
        self._outbox[dest] = (drawn.union(i.digest for i in ids), nacked or nack)

    def flush_acks(self) -> list[Send]:
        """One ack per destination, naming every block the acks drawn for
        it since the last call name, by digest and with no pointers.
        Called once a tick, right after the tick's deliveries, so an ack
        leaves in the tick of the copy that drew it."""
        sends: list[Send] = []
        for dest, (named, nack) in self._outbox.items():
            self.metrics.acks_sent += 1
            self.metrics.nacks_sent += nack
            sends.append((dest, b.new_block(self.kp, self.current_address, Ack(named))))
        self._outbox = {}
        return sends

    def _nack_pointers(self, block: Block) -> Optional[frozenset[BlockId]]:
        """The ids the ack of a parked block names, or None for none."""
        return None

    def disseminate(self) -> list[Send]:
        """Send each peer the blocks `_wanted` lists for it, as
        `self.retransmit` schedules them; `tick`'s round is its one caller.

        The first offer of each pair newly owed, every pair whose timer is
        due, and each destination's repair (`repair`).  `take`, which
        never sees a lazy copy, says how many.  Each peer's blocks go in causal order (by
        closure size), a block's copies together.
        A pair listed twice in one call (a WL invite's closure to a target
        that is already a member) gets at most one offer: the first `take`
        arms or backs off its timer.
        """
        lace = self.lace
        take = self.retransmit.take
        schedule = self._schedule
        sends: list[Send] = []
        # destination -> the lazy blocks owed to the peers there
        lazy_at: dict[NetAddress, int] = {}
        for q, wanted, lazy in self._wanted():
            if not wanted:
                continue
            dest = self.address_of(q)
            if dest is None:
                continue
            if lazy:
                lazy_at[dest] = lazy_at.get(dest, 0) | lazy
            # Each pair's `take` reads and writes only that pair, so only
            # the blocks that go out need sorting.
            batch = []
            for blk in lace.blocks_of_mask(wanted & ~lazy):
                copies = take(dest, blk.id, lambda: schedule(blk, q))
                if copies:
                    batch.append((lace.closure_size(blk.id), blk.sort_key(), blk, copies))
            batch.sort(key=lambda item: item[:2])
            for _, _, blk, copies in batch:
                sends.extend([(dest, blk)] * copies)
        # Only WL has lazy copies, and a WL blocklace inserts a block after
        # its past, so bit order is causal order.
        for dest, lazy in lazy_at.items():
            repaired = self.retransmit.repair(dest, lazy)
            sends.extend((dest, blk) for blk in lace.blocks_of_mask(repaired))
        return sends

    def tick(self) -> list[Send]:
        """One retransmission round, the only place this agent sends
        blocks: first offers of blocks newly needed, plus every
        unacknowledged block whose timer is due; it ends this agent's
        tick, and forgets the landings whose burst is over."""
        with self.retransmit.round(len(self.lace)):
            sends = self.disseminate()
        now = self.retransmit.now
        self._first_copies = {
            copy: tick for copy, tick in self._first_copies.items() if now - tick < BURST
        }
        return sends

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
        while len(self._pending) >= PENDING_CAP:
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

    def _check_referent(self, re: BlockId) -> None:
        """A Respond's precondition: its referent is an utterance here."""
        referent = self.lace.get(re)
        if referent is None:
            raise ProtocolError("respond referent not known locally")
        if not b.is_utterance(referent.payload):
            raise ProtocolError("respond referent is not an utterance")

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
