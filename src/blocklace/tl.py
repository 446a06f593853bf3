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

What each peer holds is kept as a mask (`peers.PeerKnowledge`) under
TL's credit rule (`_full_credit`): a peer holds its own blocks; a block
it discloses in an ack, or names while it follows the block's creator,
proves the block's self-chain prefix; any other block it names proves
itself alone, until the peer follows the creator.  A block goes to a peer
that does not hold it when the peer is a friend that follows the block's
creator, or when it is this agent's own friendship offer to the peer, so
what `_wanted` hands the shared send loop (`peers.Agent.disseminate`) is
mask arithmetic.  TL's contacts in the shared directory (`peers.Agent`)
are the creators and follow targets of the blocks here: a copy delivered
from a contact's address is that contact's claim, and an ack from anyone
else is dropped.

Received acks never enter the blocklace: storing them would make them
tips, everything afterwards would point at them, yet acks are never
disseminated, so peers could not resolve those pointers and would resend
forever.  An ack only updates what its creator is known to hold
(`_record_ack`) and is then dropped.
"""

from __future__ import annotations

from typing import Iterator, Optional

from . import blocks as b
from .blocks import Block, BlockId, Empty, Follow, NetAddress, Respond, Say
from .crypto import AgentId, Keypair
from .peers import Agent, AgentMetrics, PeerKnowledge, ProtocolError, Send


def is_offer_to(block: Block, q: AgentId) -> bool:
    """A friendship offer to q: a `Follow` block whose target is q."""
    return isinstance(block.payload, Follow) and block.payload.target == q


class TlAgent(Agent):
    def __init__(self, kp: Keypair, address: NetAddress):
        super().__init__(kp, address, AgentMetrics())
        self.peers = PeerKnowledge(self.lace, self.lace.self_mask_of, self._full_credit)
        # Follow edges by follower, and this agent's own friendship offers
        # by target.  Bound: one entry per follow block stored here.
        self._followees: dict[AgentId, set[AgentId]] = {}
        self._offers_to: dict[AgentId, int] = {}

    # --- state queries -----------------------------------------------------

    def follows(self, q: AgentId, q2: AgentId) -> bool:
        """q follows q2 according to the local blocklace (reflexive)."""
        return q == q2 or q2 in self._followees.get(q, ())

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
        return [q for q in self._contacts if q != self.agent_id]

    # --- commands ----------------------------------------------------------

    def follow(self, target: AgentId) -> list[Send]:
        self._utter(Follow(target), self._pointers())
        return self.disseminate()

    def say(self, text: bytes) -> list[Send]:
        self._utter(Say(text), self._pointers())
        return self.disseminate()

    def respond(self, text: bytes, re: BlockId) -> list[Send]:
        referent = self.lace.get(re)
        if referent is None:
            raise ProtocolError("respond referent not known locally")
        if not b.is_utterance(referent.payload):
            raise ProtocolError("respond referent is not an utterance")
        self._utter(Respond(text, re), self._pointers())
        return self.disseminate()

    def change_address(self, address: NetAddress) -> list[Send]:
        self.current_address = address
        self._utter(Empty(), self._pointers())
        return self.disseminate()

    # --- internals -----------------------------------------------------------

    def _wanted(self, scope: int) -> Iterator[tuple[AgentId, int]]:
        # Every known agent, each block it may be sent and does not hold.
        known = self.peers.known
        for q in sorted(self.known_agents()):
            yield q, scope & self._sendable(q) & ~known(q)

    def _sendable(self, q: AgentId) -> int:
        """The blocks q may be sent: those by creators q follows when q is
        a friend, and this agent's own friendship offers to q."""
        mask = self._offers_to.get(q, 0)
        if self.friends(q):
            for creator in self._followees.get(q, ()):
                mask |= self.lace.creator_mask(creator)
        return mask

    def _full_credit(self, q: AgentId, block: Block, vouched: bool) -> bool:
        # What q naming a block proves q holds.  A disclosure vouches for
        # the block's self-chain prefix: the discloser names only heads of
        # chains it holds without holes.  A claim (a pointer in q's block,
        # or a copy q delivered) proves the prefix too when q's buffering
        # guarantees it: q follows the creator and the block is not an
        # offer to q, which lands out of chain order.  Otherwise it proves
        # the block alone, until q follows the creator (`_index`).
        return vouched or (
            self.follows(q, block.creator) and not is_offer_to(block, q)
        )

    def _pointers(self) -> set[BlockId]:
        # An own block points at the tips and at this agent's previous
        # block, so its blocks form one self-pointer chain.
        pointers = set(self.lace.tip_ids())
        if self.last_uttered is not None:
            pointers.add(self.last_uttered.id)
        return pointers

    def _missing(self, block: Block) -> list[BlockId]:
        # A followed creator's block waits for its same-creator ancestors.
        # A friendship offer addressed to this agent always lands directly:
        # buffering it would wedge mutual befriending, since the offerer's
        # chain prefix only starts flowing once the offer is acknowledged
        # and the friendship exists.
        if is_offer_to(block, self.agent_id) or not self.follows(
            self.agent_id, block.creator
        ):
            return []
        return [
            ptr
            for ptr in block.pointers
            if ptr.creator == block.creator and ptr not in self.lace
        ]

    def _admit(self, block: Block) -> bool:
        self._insert(block)
        return True

    def _index(self, block: Block) -> None:
        creator = block.creator
        self._contacts.setdefault(creator)
        if creator != self.agent_id:
            # The block's pointers are its creator's claims of possession.
            self.peers.credit(creator, block.pointers, vouched=False)
        payload = block.payload
        if isinstance(payload, Follow):
            target = payload.target
            self._contacts.setdefault(target)
            if creator == self.agent_id:
                bit = self.lace.bit_of(block.id)
                self._offers_to[target] = self._offers_to.get(target, 0) | bit
            followees = self._followees.setdefault(creator, set())
            if target not in followees:
                followees.add(target)
                # The creator's claims of target's blocks now prove their
                # self-chain prefixes: crediting them again upgrades those
                # credited alone so far.
                claimed = self.peers.known(creator) & self.lace.creator_mask(target)
                if claimed:
                    self.peers.credit(
                        creator,
                        [blk.id for blk in self.lace.blocks_of_mask(claimed)],
                        vouched=False,
                    )

    def _record_ack(self, ack: Block):
        """File a contact's ack as knowledge about its creator.

        A bare receipt of one of this agent's own friendship offers proves
        only that single block (offers land out of chain order); every
        other disclosure vouches for the named blocks and their history."""
        pointers = ack.pointers
        vouched = True
        if len(pointers) == 1:
            (only,) = pointers
            named = self.lace.get(only)
            vouched = not (
                named is not None
                and named.creator == self.agent_id
                and is_offer_to(named, ack.creator)
            )
        self.peers.credit(ack.creator, pointers, vouched)

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
        if is_offer_to(block, self.agent_id):
            return frozenset([block.id])
        return frozenset()
