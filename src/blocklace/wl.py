"""Private-group ("WhatsApp-like") protocol agent.

The rules a correct WL agent keeps:

* A group is a partition of the blocklace rooted at its genesis block.
  Each other block belongs to the one group whose genesis it observes.
* The blocklace stays closed.  A block whose past has not all arrived
  waits in the bounded pending buffer.  It is inserted, and acked, only
  once its whole past is present.
* An ack never enters the blocklace: its sender never stored it, and a
  block of no group would break the partition rule.  An ack only updates
  what its creator is known to hold, and marks the relay copies to its
  address for repair (`_record_ack`).
* The contacts in the shared directory (`peers.Agent`) are the founders of
  the groups here and the targets of their invites.  Only their acks are
  filed.  A copy delivered from a contact's address discloses that the
  contact holds the block's whole past.
* A member sends a group's blocks only to the members it knows.  An
  invite and the genesis are the exceptions: they reach the invitee
  before it joins.  So a member's copy of any other block of a group this
  agent belongs to shows that the member holds the blocks that made this
  agent a member.  That copy is the ack of this agent's own Accept
  (`_credit_delivery`).
* The founder makes one symmetric key per group and seals it to each
  invitee inside the invite.  Utterance text is encrypted under the group
  key and carries an inner author signature over the plaintext, so a
  decrypted message can still be attributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import blocks as b
from . import crypto
from .blocks import (
    Accept,
    Block,
    BlockId,
    Empty,
    Group,
    Invite,
    NetAddress,
    Respond,
    Say,
)
from .crypto import AgentId, GroupKey, Keypair
from .lace import Blocklace
from .peers import Agent, AgentMetrics, PeerKnowledge, ProtocolError
from .retransmit import BACKSTOP, EAGER, RACED

GroupId = BlockId

_UTTER_DOMAIN = b"group-utterance\x00"


@dataclass
class WlMetrics(AgentMetrics):
    dropped_structure: int = 0


# --- pure helpers (the protocol's predicates, evaluated from a blocklace) ----


def is_genesis(block: Block) -> bool:
    return isinstance(block.payload, Group) and not block.pointers


def compute_member(lace: Blocklace, q: AgentId, gid: GroupId) -> bool:
    """Membership from first principles: q founded the group, or the
    founder invited q into it and q accepted that invite."""
    genesis = lace.get(gid)
    if genesis is None or not is_genesis(genesis):
        return False
    if q == gid.creator:
        return True
    for invite in lace.by_creator(gid.creator):
        if (
            isinstance(invite.payload, Invite)
            and invite.payload.target == q
            and invite.pointers == frozenset([gid])
        ):
            for accept in lace.by_creator(q):
                if isinstance(accept.payload, Accept) and accept.pointers == frozenset(
                    [invite.id]
                ):
                    return True
    return False


def group_partition(lace: Blocklace, block_id: BlockId) -> list[Block]:
    """All blocks observing the genesis that block_id's block observes.

    Empty when block_id does not resolve or observes no genesis; a
    byzantine block observing several geneses lands in the one with the
    smallest id.
    """
    block = lace.get(block_id)
    if block is None:
        return []
    geneses = [
        g
        for g in lace.blocks()
        if is_genesis(g) and lace.observes_ids(block_id, g.id)
    ]
    if not geneses:
        return []
    genesis = min(geneses, key=Block.sort_key)
    return [blk for blk in lace.blocks() if lace.observes_ids(blk.id, genesis.id)]


def partition_violations(lace: Blocklace) -> list[str]:
    """The partition invariant's breaches: "closure" when some pointer
    does not resolve, and "partition:<hex>" for each non-genesis block
    that observes no genesis or several."""
    issues = [] if lace.is_closed() else ["closure"]
    geneses = 0
    for block in lace.blocks():
        if is_genesis(block):
            geneses |= lace.bit_of(block.id)
    # A genesis observes only itself, so it always passes.
    for block in lace.blocks():
        hits = lace.mask_of(block.id) & geneses
        if hits == 0 or hits & (hits - 1):
            issues.append(f"partition:{block.id.hex()}")
    return issues


# --- the agent ---------------------------------------------------------------


class WlAgent(Agent):
    def __init__(self, kp: Keypair, address: NetAddress, encrypt: bool = True):
        # Whether utterances are sealed with the group key; `wl_privacy`'s
        # control run sends them in clear.
        self.encrypt = encrypt
        super().__init__(kp, address, WlMetrics())
        # A peer holds the closures of its own blocks (credited by
        # `_index`), of the ids its acks named and of the blocks it sent here.
        self.peers = PeerKnowledge(self.lace, lambda q, block_id, _: self.lace.mask_of(block_id))
        self.group_keys: dict[GroupId, GroupKey] = {}
        self._genesis_bits = 0
        # Each genesis here, in insertion order -> the bits of its partition.
        self._partition_bits: dict[GroupId, int] = {}
        # group -> member -> the bits of the blocks that made it a member
        # here: the genesis it created, or its Accepts of invites.  Bound:
        # one entry per membership.
        self._members: dict[GroupId, dict[AgentId, int]] = {}
        self._invite_index: dict[BlockId, tuple[GroupId, AgentId]] = {}

    # --- state queries -------------------------------------------------------

    def member(self, q: AgentId, gid: GroupId) -> bool:
        return q in self._members.get(gid, ())

    def members_of(self, gid: GroupId) -> list[AgentId]:
        return sorted(self._members.get(gid, ()))

    def groups(self) -> list[GroupId]:
        return list(self._partition_bits)

    def my_groups(self) -> list[GroupId]:
        return [gid for gid in self._partition_bits if self.member(self.agent_id, gid)]

    def partition_tips(self, gid: GroupId) -> frozenset[BlockId]:
        bits = self._partition_bits.get(gid, 0)
        return frozenset(
            t for t in self.lace.tip_ids() if bits & self.lace.bit_of(t)
        )

    def group_of(self, block_id: BlockId) -> Optional[GroupId]:
        """The genesis whose partition contains block_id, if resolved."""
        return self._genesis_in(self.lace.mask_of(block_id))

    def transcript(self, gid: GroupId) -> list[tuple[AgentId, bytes, bool]]:
        """Decrypted (author, text, signature_ok) feed of a group, in
        causal order.  Requires holding the group key."""
        key = self.group_keys.get(gid)
        if key is None:
            raise ProtocolError("not holding this group's key")
        entries = []
        for blk in sorted(
            self.lace.blocks_of_mask(self._partition_bits.get(gid, 0)),
            key=lambda blk: (self.lace.closure_size(blk.id), blk.id.digest),
        ):
            if isinstance(blk.payload, (Say, Respond)):
                text, ok = open_utterance(key, blk, self.encrypt)
                entries.append((blk.creator, text, ok))
        return entries

    # --- command surface -------------------------------------------------------

    def create_group(self, name: bytes) -> None:
        for gid in self._partition_bits:
            if gid.creator == self.agent_id and self.lace.get(gid).payload.name == name:
                raise ProtocolError("group name already used by this agent")
        genesis = self._utter(Group(name), ())
        key = crypto.group_keygen(crypto.derive_seed("group-key", self.kp.sign_seed, name))
        self.group_keys[genesis.id] = key.bound_to(genesis.id.digest)

    def invite(self, target: AgentId, gid: GroupId) -> None:
        genesis = self.lace.get(gid)
        if genesis is None or not is_genesis(genesis):
            raise ProtocolError("unknown group")
        if gid.creator != self.agent_id:
            raise ProtocolError("only the group founder invites")
        if target == self.agent_id:
            raise ProtocolError("cannot invite self")
        sealed = crypto.seal(self.group_keys[gid], target)
        self._utter(Invite(target, sealed), [gid])

    def accept(self, gid: GroupId) -> None:
        invites = [
            self.lace.get(invite_id)
            for invite_id, entry in self._invite_index.items()
            if entry == (gid, self.agent_id)
        ]
        if not invites:
            raise ProtocolError("no founder-authored invite for this group")
        invite = min(invites, key=Block.sort_key)
        key = crypto.open_sealed(self.kp, invite.payload.sealed_key)
        if key.group_digest != gid.digest:
            raise ProtocolError("sealed key bound to a different group")
        self._utter(Accept(), [invite.id])
        self.group_keys[gid] = key

    def say_group(self, gid: GroupId, text: bytes) -> None:
        self._require_member(gid)
        payload = Say(seal_utterance(self.group_keys[gid], self.kp, text, self.encrypt))
        self._utter(payload, self.partition_tips(gid))

    def respond_group(self, re: BlockId, text: bytes) -> None:
        self._check_referent(re)
        gid = self.group_of(re)
        if gid is None:
            raise ProtocolError("referent belongs to no group")
        self._require_member(gid)
        payload = Respond(
            seal_utterance(self.group_keys[gid], self.kp, text, self.encrypt), re
        )
        self._utter(payload, self.partition_tips(gid))

    def change_address(self, address: NetAddress) -> None:
        self.current_address = address
        for gid in self.my_groups():
            self._utter(Empty(), self.partition_tips(gid))

    # --- dissemination ----------------------------------------------------------

    def _schedule(self, block: Block, q: AgentId) -> str:
        # Its own utterance: RACED.  Its own membership block goes EAGER
        # only to the agent that acts on it next: an Invite to its target,
        # an Accept to the founder, which relays every Accept at once.  To
        # any other member an Invite or Accept is BACKSTOP.  Its other
        # membership blocks (Group, Empty): EAGER.  A relayed block, asked
        # for only at the founder while it may be q's only path: BACKSTOP.
        if block.creator != self.agent_id:
            return BACKSTOP
        payload = block.payload
        if b.is_utterance(payload):
            return RACED
        if isinstance(payload, Invite):
            return EAGER if q == payload.target else BACKSTOP
        if not isinstance(payload, Accept):
            return EAGER
        return EAGER if q == self.group_of(block.id).creator else BACKSTOP

    def _wanted(self) -> Iterator[tuple[AgentId, int, int]]:
        # Per group, each other member the partition blocks it has not
        # observed, and their lazy part (`retransmit`): every block of
        # another creator, at the founder only those whose creator holds
        # the blocks that made the member a member (creator masks are
        # disjoint, so their sum is their union).  Then each invitee this
        # agent's invite with its ancestry, until the invitee covers it.
        lace = self.lace
        known = self.peers.known
        me = self.agent_id
        for gid in sorted(self._partition_bits):
            bits = self._partition_bits[gid]
            members = self._members[gid]
            for q in sorted(members.keys() - {me}):
                wanted = bits & ~known(q)
                lazy = wanted & ~lace.creator_mask(me)
                if gid.creator == me and lazy:
                    creators = {blk.creator for blk in lace.blocks_of_mask(lazy)}
                    lazy &= sum(lace.creator_mask(c) for c in creators if known(c) & members[q])
                yield q, wanted, lazy
        for invite_id, (gid, target) in self._invite_index.items():
            if invite_id.creator != me or target == me:
                continue
            if not known(target) & lace.bit_of(invite_id):
                yield target, lace.mask_of(invite_id), 0

    # --- receive pipeline -----------------------------------------------------

    def _record_ack(self, ack: Block):
        self.peers.credit(ack.creator, ack.payload.named)
        # Relay copies the ack does not cover may have been lost.
        self.retransmit.mark_repair(ack.address)

    def _credit_delivery(self, block: Block, src: Optional[NetAddress]) -> Optional[AgentId]:
        # A member's copy of a block of a group this agent is a member of
        # credits the member with the blocks that made this agent a member
        # (module docstring), which stops the BACKSTOP timer of its own
        # Accept there.  A resend of the genesis or of an invite to this
        # agent may cross the Accept and shows nothing, so the Accept's
        # EAGER copies to the founder keep going until the founder acks it.
        sender = super()._credit_delivery(block, src)
        gid = self.group_of(block.id)
        if gid is None or block.id == gid:
            return sender
        members = self._members[gid]
        joined = members.get(self.agent_id)
        payload = block.payload
        if joined is None or (isinstance(payload, Invite) and payload.target == self.agent_id):
            return sender
        at_src = [q for q in self._contacts_at(src) if q in members]
        if at_src:
            digests = [blk.id.digest for blk in self.lace.blocks_of_mask(joined)]
            for q in at_src:
                self.peers.credit(q, digests)
        return sender

    def _missing(self, block: Block) -> list[BlockId]:
        # The blocklace stays closed: a block waits for its whole past.
        return [ptr for ptr in block.pointers if ptr not in self.lace]

    def _admit(self, block: Block) -> bool:
        # All ancestors present: enforce the one-genesis partition rule,
        # then insert and index.
        if not is_genesis(block) and self._pointer_group(block) is None:
            self.metrics.dropped_structure += 1
            return False
        self._insert(block)
        return True

    def _pointer_group(self, block: Block) -> Optional[GroupId]:
        """The group whose genesis the block's pointers held here observe."""
        observed = 0
        for ptr in block.pointers:
            observed |= self.lace.mask_of(ptr)
        return self._genesis_in(observed)

    def _genesis_in(self, mask: int) -> Optional[GroupId]:
        """The one genesis in a mask of this blocklace; None when it holds
        none or several.  `_admit` lets in only blocks that observe
        exactly one."""
        hits = mask & self._genesis_bits
        if hits == 0 or hits & (hits - 1):
            return None
        (genesis,) = self.lace.blocks_of_mask(hits)
        return genesis.id

    def _index(self, block: Block):
        bit = self.lace.bit_of(block.id)
        self.peers.credit(block.creator, (block.id.digest,))
        if is_genesis(block):
            self._genesis_bits |= bit
            self._partition_bits[block.id] = bit
            self._members[block.id] = {block.creator: bit}
            self._contacts.setdefault(block.creator)
            return
        gid = self._pointer_group(block)
        if gid is None:
            return
        self._partition_bits[gid] |= bit
        payload = block.payload
        if (
            isinstance(payload, Invite)
            and block.creator == gid.creator
            and block.pointers == {gid}
        ):
            self._invite_index[block.id] = (gid, payload.target)
            self._contacts.setdefault(payload.target)
        elif isinstance(payload, Accept) and len(block.pointers) == 1:
            (invite_id,) = block.pointers
            entry = self._invite_index.get(invite_id)
            if entry is not None:
                gid, target = entry
                if target == block.creator:
                    joined = self._members[gid]
                    joined[target] = joined.get(target, 0) | bit

    def _ack_pointers(
        self, block: Block, sender: Optional[AgentId]
    ) -> Optional[frozenset[BlockId]]:
        # Disclose only the tips of the group the block belongs to; an
        # invite addressed to this agent is acknowledged by naming it.
        # No ack for a copy from a relay, a known deliverer
        # (`peers.Agent._credit_delivery`) other than the creator, when the
        # block observes the block that made this agent a member: the
        # relay's copy is lazy, and no timer waits on it (`_wanted`).  And
        # none for another block at an invitee: it would name nothing.
        gid = self.group_of(block.id)
        if gid is not None and self.member(self.agent_id, gid):
            joined = self._members[gid][self.agent_id]
            relayed = sender not in (None, block.creator)
            if relayed and self.lace.mask_of(block.id) & joined:
                return None
            return self.partition_tips(gid)
        if isinstance(block.payload, Invite) and block.payload.target == self.agent_id:
            return frozenset([block.id])
        return None

    def _nack_pointers(self, block: Block) -> Optional[frozenset[BlockId]]:
        # A parked block's present pointers name its group: acking that
        # group's tips, as `_ack_pointers` would, shows the deliverer what
        # is missing here.  When none of them is here (a member that
        # missed a block every later one points at), the one group this
        # agent shares with the block's creator stands in.  Nothing when
        # the pointers name no group of this agent, or when the creator
        # shares no group with it or several, so a stranger's blocks draw
        # no nack.
        me = self.agent_id
        if any(ptr in self.lace for ptr in block.pointers):
            gid = self._pointer_group(block)
        else:
            pair = {me, block.creator}
            shared = [g for g, members in self._members.items() if pair <= members.keys()]
            gid = shared[0] if len(shared) == 1 else None
        if gid is None or not self.member(me, gid):
            return None
        return self.partition_tips(gid)

    def _require_member(self, gid: GroupId):
        if not self.member(self.agent_id, gid):
            raise ProtocolError("not a member of this group")
        if gid not in self.group_keys:
            raise ProtocolError("missing group key")


# --- utterance sealing -------------------------------------------------------


def seal_utterance(key: GroupKey, kp: Keypair, text: bytes, encrypt: bool) -> bytes:
    """Bundle plaintext with an inner author signature, then encrypt.

    The inner signature is over the plaintext (domain-separated from block
    signing), so a forwarded, decrypted utterance still attributes."""
    signature = crypto.sign(kp, _UTTER_DOMAIN + text)
    bundle = len(text).to_bytes(4, "big") + text + signature
    if not encrypt:
        return bundle
    return crypto.encrypt(key, bundle)


def open_utterance(key: GroupKey, block: Block, encrypted: bool) -> tuple[bytes, bool]:
    """Recover (plaintext, inner-signature-ok) from an utterance block."""
    data = block.payload.text
    if encrypted:
        try:
            data = crypto.decrypt(key, data)
        except crypto.CryptoError:
            return b"", False
    if len(data) < 4:
        return b"", False
    n = int.from_bytes(data[:4], "big")
    if len(data) != 4 + n + crypto.SIGNATURE_LEN:
        return b"", False
    text = data[4 : 4 + n]
    signature = data[4 + n :]
    ok = crypto.verify(block.creator, _UTTER_DOMAIN + text, signature)
    return text, ok
