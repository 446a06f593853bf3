"""Private-group ("WhatsApp-like") protocol agent.

Groups are independent blocklace partitions rooted at a genesis block.
A correct agent keeps its blocklace closed: a block whose ancestors have
not arrived yet waits in a bounded pending buffer and is only inserted
(and acknowledged) once its whole past is present.  Received acks never
enter the blocklace, both because the sender never stored them and
because a groupless block would break the one-genesis-per-block
partition rule: an ack only updates what its creator is known to hold,
and marks the relay copies to its address for repair (`_record_ack`).
WL's contacts in the shared directory (`peers.Agent`) are the founders of
the groups here and the targets of their invites: only their acks are
filed, and a copy delivered from a contact's address is that contact's
disclosure of the block's whole past.

Group privacy: the founder generates a symmetric key per group and seals
it to each invitee inside the invite block.  Utterance text is encrypted
under the group key and carries an inner author signature over the
plaintext, so a decrypted message can still be attributed.
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
from .peers import Agent, AgentMetrics, PeerKnowledge, ProtocolError, Send
from .retransmit import BACKSTOP, EAGER, LAZY, RACED

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
        self.peers = PeerKnowledge(self.lace, self.lace.mask_of)
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

    def partition_ids(self, gid: GroupId) -> set[BlockId]:
        return {blk.id for blk in self.lace.blocks_of_mask(self._partition_bits.get(gid, 0))}

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

    def create_group(self, name: bytes) -> list[Send]:
        for gid in self._partition_bits:
            if gid.creator == self.agent_id and self.lace.get(gid).payload.name == name:
                raise ProtocolError("group name already used by this agent")
        genesis = self._utter(Group(name), ())
        key = crypto.group_keygen(crypto.derive_seed("group-key", self.kp.sign_seed, name))
        self.group_keys[genesis.id] = key.bound_to(genesis.id.digest)
        return self.disseminate()

    def invite(self, target: AgentId, gid: GroupId) -> list[Send]:
        genesis = self.lace.get(gid)
        if genesis is None or not is_genesis(genesis):
            raise ProtocolError("unknown group")
        if gid.creator != self.agent_id:
            raise ProtocolError("only the group founder invites")
        if target == self.agent_id:
            raise ProtocolError("cannot invite self")
        sealed = crypto.seal(self.group_keys[gid], target)
        self._utter(Invite(target, sealed), [gid])
        return self.disseminate()

    def accept(self, gid: GroupId) -> list[Send]:
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
        return self.disseminate()

    def say_group(self, gid: GroupId, text: bytes) -> list[Send]:
        self._require_member(gid)
        payload = Say(seal_utterance(self.group_keys[gid], self.kp, text, self.encrypt))
        self._utter(payload, self.partition_tips(gid))
        return self.disseminate()

    def respond_group(self, re: BlockId, text: bytes) -> list[Send]:
        referent = self.lace.get(re)
        if referent is None:
            raise ProtocolError("respond referent not known locally")
        if not b.is_utterance(referent.payload):
            raise ProtocolError("respond referent is not an utterance")
        gid = self.group_of(re)
        if gid is None:
            raise ProtocolError("referent belongs to no group")
        self._require_member(gid)
        payload = Respond(
            seal_utterance(self.group_keys[gid], self.kp, text, self.encrypt), re
        )
        self._utter(payload, self.partition_tips(gid))
        return self.disseminate()

    def change_address(self, address: NetAddress) -> list[Send]:
        self.current_address = address
        for gid in self.my_groups():
            self._utter(Empty(), self.partition_tips(gid))
        return self.disseminate()

    # --- dissemination ----------------------------------------------------------

    def _schedule(self, block: Block, q: AgentId) -> str:
        # Its own utterance: RACED.  Its own Accept to a member other than
        # the founder, which relays every Accept at once: BACKSTOP.  Its
        # other membership blocks: EAGER.  A relayed block: BACKSTOP at the
        # founder, which knows every invitee, until it knows the creator
        # covers q (holds the block that made q a member); LAZY at every
        # other relay.
        if block.creator == self.agent_id:
            payload = block.payload
            if b.is_utterance(payload):
                return RACED
            if not isinstance(payload, Accept):
                return EAGER
            return EAGER if q == self.group_of(block.id).creator else BACKSTOP
        gid = self.group_of(block.id)
        if gid.creator != self.agent_id:
            return LAZY
        joined = self._members[gid].get(q, 0)
        return LAZY if self.peers.known(block.creator) & joined else BACKSTOP

    def _wanted(self, scope: int) -> Iterator[tuple[AgentId, int]]:
        # Per group, each other member the partition blocks it has not
        # observed; then each invitee this agent's invite with its
        # ancestry, so the invitee can validate it, until the invitee's
        # blocks or acks cover the invite.
        lace = self.lace
        known = self.peers.known
        me = self.agent_id
        for gid in sorted(self._partition_bits):
            bits = self._partition_bits[gid] & scope
            if bits:
                for q in self.members_of(gid):
                    if q != me:
                        yield q, bits & ~known(q)
        for invite_id, (gid, target) in self._invite_index.items():
            if invite_id.creator != me or target == me:
                continue
            if not known(target) & lace.bit_of(invite_id):
                yield target, lace.mask_of(invite_id) & scope

    # --- receive pipeline -----------------------------------------------------

    def _record_ack(self, ack: Block):
        self.peers.credit(ack.creator, ack.pointers)
        # Relay copies the ack does not cover may have been lost.
        self.retransmit.mark_repair(ack.address)

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
        self.peers.credit(block.creator, (block.id,))
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
        # block observes the block that made this agent a member: that
        # relay holds it too, so its copy is COVERED and has no
        # timer for an ack to stop (`_schedule`).
        gid = self.group_of(block.id)
        if gid is not None and self.member(self.agent_id, gid):
            joined = self._members[gid][self.agent_id]
            relayed = sender not in (None, block.creator)
            if relayed and self.lace.mask_of(block.id) & joined:
                return None
            return self.partition_tips(gid)
        payload = block.payload
        if isinstance(payload, Invite) and payload.target == self.agent_id:
            return frozenset([block.id])
        return frozenset()

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
