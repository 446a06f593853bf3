"""Private-group ("WhatsApp-like") protocol agent.

Groups are independent blocklace partitions rooted at a genesis block.
A correct agent keeps its blocklace closed: a block whose ancestors have
not arrived yet waits in a bounded pending buffer and is only inserted
(and acknowledged) once its whole past is present.  Received acks are the
one exception — they are kept in a side table rather than the blocklace,
both because the sender never stored them and because a groupless block
would break the one-genesis-per-block partition rule.

Group privacy: the founder generates a symmetric key per group and seals
it to each invitee inside the invite block.  Utterance text is encrypted
under the group key and carries an inner author signature over the
plaintext, so a decrypted message can still be attributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import blocks as b
from . import crypto
from .blocks import (
    Accept,
    Ack,
    Block,
    BlockId,
    Empty,
    Group,
    Invite,
    NetAddress,
    Respond,
    Say,
    WireDecoder,
)
from .crypto import AgentId, GroupKey, Keypair
from .lace import Blocklace
from .retransmit import Retransmit
from .tl import (
    BootstrapCmd,
    ChangeAddressCmd,
    ProtocolError,
    ReceiveCmd,
    Send,
    TickCmd,
)

GroupId = BlockId

_UTTER_DOMAIN = b"group-utterance\x00"


# --- commands ---------------------------------------------------------------


@dataclass(frozen=True)
class CreateGroupCmd:
    name: bytes


@dataclass(frozen=True)
class InviteCmd:
    target: AgentId
    group: GroupId


@dataclass(frozen=True)
class AcceptCmd:
    group: GroupId


@dataclass(frozen=True)
class SayGroupCmd:
    group: GroupId
    text: bytes


@dataclass(frozen=True)
class RespondGroupCmd:
    re: BlockId
    text: bytes


WlCommand = Union[
    CreateGroupCmd,
    InviteCmd,
    AcceptCmd,
    SayGroupCmd,
    RespondGroupCmd,
    ChangeAddressCmd,
    ReceiveCmd,
    TickCmd,
    BootstrapCmd,
]


@dataclass
class WlMetrics:
    received: int = 0
    inserted: int = 0
    dropped_invalid: int = 0
    dropped_structure: int = 0
    pending_evicted: int = 0
    acks_received: int = 0
    acks_sent: int = 0
    resent: int = 0


@dataclass
class WlConfig:
    encrypt: bool = True
    pending_cap: int = 1024


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


# --- the agent ---------------------------------------------------------------


class WlAgent:
    def __init__(self, kp: Keypair, address: NetAddress, config: WlConfig | None = None):
        self.kp = kp
        self.agent_id = kp.agent_id
        self.current_address = address
        self.config = config or WlConfig()
        self.lace = Blocklace()
        self.metrics = WlMetrics()
        self.retransmit = Retransmit(self.metrics)
        self.group_keys: dict[GroupId, GroupKey] = {}
        self.address_hints: dict[AgentId, NetAddress] = {}
        self.last_uttered: Optional[Block] = None
        self.ack_log: list[Block] = []
        # Per peer, the union of the closures of the ids its acks named and
        # of the blocks it sent here: what those prove it holds.  An id not
        # present here yet is parked under the peers that disclosed it and
        # folded in when it lands (a present block's closure never changes,
        # the lace being closed).  Bound: one parked entry per distinct
        # absent id named by an ack, as many as the id sets this replaced
        # held; a sent block parks only while it waits in the pending
        # buffer, and leaves with it on eviction.
        self._disclosed_mask: dict[AgentId, int] = {}
        self._disclosed_parked: dict[BlockId, set[AgentId]] = {}
        # (lace version, address -> the other members there), for `receive`.
        # Bound: one entry per member.
        self._address_book: tuple[int, dict[NetAddress, list[AgentId]]] = (-1, {})
        self._pending: dict[BlockId, Block] = {}
        self._pending_on: dict[BlockId, list[BlockId]] = {}
        self._geneses: list[Block] = []
        self._genesis_bits = 0
        self._partition_bits: dict[GroupId, int] = {}
        self._members: dict[GroupId, set[AgentId]] = {}
        self._invite_index: dict[BlockId, tuple[GroupId, AgentId]] = {}
        # Members of the groups here and targets of indexed invites: the
        # only agents whose acks are kept.  Bound: one entry per such agent.
        self._peers: set[AgentId] = set()
        self._own_group_names: set[bytes] = set()
        self._decoder = WireDecoder()
        # (destination, ack id) of every ack sent since the last tick: a
        # byte-identical ack goes to a destination at most once per tick.
        # Bound: the acks sent in one tick.
        self._acked: set[tuple[NetAddress, BlockId]] = set()

    # --- state queries -------------------------------------------------------

    def member(self, q: AgentId, gid: GroupId) -> bool:
        return q == gid.creator and gid in self._members or q in self._members.get(gid, ())

    def members_of(self, gid: GroupId) -> list[AgentId]:
        return sorted(self._members.get(gid, ()))

    def groups(self) -> list[GroupId]:
        return [g.id for g in self._geneses]

    def my_groups(self) -> list[GroupId]:
        return [g.id for g in self._geneses if self.member(self.agent_id, g.id)]

    def partition_ids(self, gid: GroupId) -> set[BlockId]:
        return {blk.id for blk in self.lace.blocks_of_mask(self._partition_bits.get(gid, 0))}

    def partition_tips(self, gid: GroupId) -> frozenset[BlockId]:
        bits = self._partition_bits.get(gid, 0)
        return frozenset(
            t for t in self.lace.tip_ids() if bits & self.lace.bit_of(t)
        )

    def group_of(self, block_id: BlockId) -> Optional[GroupId]:
        """The genesis whose partition contains block_id, if resolved."""
        mask = self.lace.mask_of(block_id)
        hit = mask & self._genesis_bits
        if not hit:
            return None
        candidates = [g.id for g in self._geneses if mask & self.lace.bit_of(g.id)]
        return min(candidates)

    def pending_blocks(self) -> list[Block]:
        return list(self._pending.values())

    def structure_violations(self) -> list[str]:
        """Partition-invariant audit: the blocklace must be closed and every
        non-genesis block must observe exactly one genesis."""
        issues = []
        if not self.lace.is_closed():
            issues.append("closure")
        for block in self.lace.blocks():
            if is_genesis(block):
                continue
            hits = self.lace.mask_of(block.id) & self._genesis_bits
            if hits == 0 or hits & (hits - 1):
                issues.append(f"partition:{block.id.hex()}")
        return issues

    def address_of(self, q: AgentId) -> Optional[NetAddress]:
        return self.lace.ip_address(q) or self.address_hints.get(q)

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
                text, ok = open_utterance(key, blk, self.config.encrypt)
                entries.append((blk.creator, text, ok))
        return entries

    # --- command surface -------------------------------------------------------

    def step(self, cmd: WlCommand) -> list[Send]:
        if isinstance(cmd, CreateGroupCmd):
            return self.create_group(cmd.name)
        if isinstance(cmd, InviteCmd):
            return self.invite(cmd.target, cmd.group)
        if isinstance(cmd, AcceptCmd):
            return self.accept(cmd.group)
        if isinstance(cmd, SayGroupCmd):
            return self.say_group(cmd.group, cmd.text)
        if isinstance(cmd, RespondGroupCmd):
            return self.respond_group(cmd.re, cmd.text)
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

    def create_group(self, name: bytes) -> list[Send]:
        if name in self._own_group_names:
            raise ProtocolError("group name already used by this agent")
        genesis = b.new_block(self.kp, self.current_address, Group(name), ())
        self._insert_verified(genesis)
        self._own_group_names.add(name)
        key = crypto.group_keygen(crypto.derive_seed("group-key", self.kp.sign_seed, name))
        self.group_keys[genesis.id] = key.bound_to(genesis.id.digest)
        self.last_uttered = genesis
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
        block = b.new_block(
            self.kp, self.current_address, Invite(target, sealed), [gid]
        )
        self._insert_verified(block)
        self.last_uttered = block
        return self.disseminate()

    def accept(self, gid: GroupId) -> list[Send]:
        invites = [
            blk
            for blk in self.lace.by_creator(gid.creator)
            if isinstance(blk.payload, Invite)
            and blk.payload.target == self.agent_id
            and blk.pointers == frozenset([gid])
        ]
        if not invites:
            raise ProtocolError("no founder-authored invite for this group")
        invite = min(invites, key=Block.sort_key)
        key = crypto.open_sealed(self.kp, invite.payload.sealed_key)
        if key.group_digest != gid.digest:
            raise ProtocolError("sealed key bound to a different group")
        block = b.new_block(self.kp, self.current_address, Accept(), [invite.id])
        self._insert_verified(block)
        self.group_keys[gid] = key
        self.last_uttered = block
        return self.disseminate()

    def say_group(self, gid: GroupId, text: bytes) -> list[Send]:
        self._require_member(gid)
        payload = Say(seal_utterance(self.group_keys[gid], self.kp, text, self.config.encrypt))
        block = b.new_block(
            self.kp, self.current_address, payload, self.partition_tips(gid)
        )
        self._insert_verified(block)
        self.last_uttered = block
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
            seal_utterance(self.group_keys[gid], self.kp, text, self.config.encrypt), re
        )
        block = b.new_block(
            self.kp, self.current_address, payload, self.partition_tips(gid)
        )
        self._insert_verified(block)
        self.last_uttered = block
        return self.disseminate()

    def change_address(self, address: NetAddress) -> list[Send]:
        self.current_address = address
        for gid in self.my_groups():
            block = b.new_block(
                self.kp, self.current_address, Empty(), self.partition_tips(gid)
            )
            self._insert_verified(block)
            self.last_uttered = block
        return self.disseminate()

    def receive(self, data: bytes, src: Optional[NetAddress] = None) -> list[Send]:
        """Validate, integrate (respecting closure), acknowledge, and forward.

        Acks return to the delivering address when known (the deliverer is
        the one that will otherwise retry forever); blocks parked in the
        pending buffer are not acknowledged until they actually land.  A
        member sends only blocks it holds, so a block delivered from a
        member's address counts as that member's disclosure of it.  Only
        the blocks that just landed are forwarded; the rest of the backlog
        waits for the next `tick`.
        """
        self.metrics.received += 1
        block = self._decoder.decode_verified(data)
        if block is None:
            self.metrics.dropped_invalid += 1
            return []
        if isinstance(block.payload, Ack):
            self._record_ack(block)
            return []
        landed, was_new = self._integrate(block)
        if block.id in self.lace or block.id in self._pending:
            for q in self._members_at(src):
                self._disclose(q, (block.id,))
        sends: list[Send] = []
        for acked in landed:
            sends.extend(self._ack(acked, src))
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

    # --- dissemination ----------------------------------------------------------

    def disseminate(self, only: Optional[int] = None) -> list[Send]:
        """Per group: send each member every partition block it has not
        observed; send own invites (with their ancestry, so the invitee
        can validate them) until the invitee's blocks or acks cover them.
        `self.retransmit` schedules each send: outside `tick`'s round only
        first offers go out; in the round, every pair whose timer is due.
        This agent's own blocks (invite closures included) go on the eager
        schedule.  A block it relays goes on the backup schedule, one copy
        and then one every BACKUP_GAP ticks, because the block's creator
        sends it to every member as well.

        `only` is a bitmask of this blocklace that limits the candidates to
        those blocks: `receive` passes the blocks that just landed, so a
        new block is forwarded on arrival.  None means every block, which
        `tick` and this agent's own commands consider."""
        lace = self.lace
        scope = lace.all_mask() if only is None else only
        sends: list[Send] = []
        disclosed = self._disclosed_mask
        take = self.retransmit.take
        me = self.agent_id

        def known(q: AgentId) -> int:
            return lace.known_mask(q) | disclosed.get(q, 0)

        def push(dest: NetAddress, batch: list[Block]):
            # A pair pushed twice in one call (an invite's closure to a
            # target that is already a member) goes out at most once: the
            # first `take` arms or backs off its timer.  A relayed block is
            # a backup: its creator sends it to every member too.
            batch.sort(key=lambda blk: (lace.closure_size(blk.id), blk.sort_key()))
            sends.extend(
                (dest, blk)
                for blk in batch
                if take(dest, blk.id, backup=blk.creator != me)
            )

        for genesis in sorted(self._geneses, key=Block.sort_key):
            gid = genesis.id
            bits = self._partition_bits.get(gid, 0) & scope
            if not bits:
                continue
            for q in self.members_of(gid):
                if q == self.agent_id:
                    continue
                dest = self.address_of(q)
                if dest is None:
                    continue
                needed = bits & ~known(q)
                batch = []
                while needed:
                    low = needed & -needed
                    needed ^= low
                    batch.append(lace.blocks_of_mask(low)[0])
                push(dest, batch)

        for invite_id, (gid, target) in self._invite_index.items():
            if invite_id.creator != self.agent_id or target == self.agent_id:
                continue
            wanted = lace.mask_of(invite_id) & scope
            if not wanted or known(target) & lace.bit_of(invite_id):
                continue
            dest = self.address_of(target)
            if dest is None:
                continue
            push(dest, lace.blocks_of_mask(wanted))
        return sends

    # --- receive pipeline -----------------------------------------------------

    def _record_ack(self, ack: Block):
        # An ack from a stranger proves nothing this agent acts on, so it
        # reaches neither `ack_log` nor `_disclosed_parked`: both stay
        # bounded by the acks of members and invitees.
        self.metrics.acks_received += 1
        if ack.creator not in self._peers:
            return
        self.ack_log.append(ack)
        self._disclose(ack.creator, ack.pointers)

    def _disclose(self, q: AgentId, ids) -> None:
        """Credit q with holding the closure of each id."""
        mask = 0
        for block_id in ids:
            if block_id in self.lace:
                mask |= self.lace.mask_of(block_id)
            else:
                self._disclosed_parked.setdefault(block_id, set()).add(q)
        if mask:
            self._disclosed_mask[q] = self._disclosed_mask.get(q, 0) | mask

    def _members_at(self, src: Optional[NetAddress]) -> list[AgentId]:
        """The other members of this agent's groups whose address is src.
        A member's address comes from its own blocks here, so the book is
        rebuilt only when the blocklace grows."""
        version, book = self._address_book
        if version != self.lace.version():
            book = {}
            peers = set().union(*self._members.values()) - {self.agent_id}
            for q in sorted(peers):
                address = self.address_of(q)
                if address is not None:
                    book.setdefault(address, []).append(q)
            self._address_book = (self.lace.version(), book)
        return book.get(src, [])

    def _integrate(self, block: Block) -> tuple[list[Block], bool]:
        """Insert a verified non-ack block, honoring closure.

        Returns (blocks worth acknowledging, whether anything new landed).
        A duplicate of an already-present block is re-acknowledged so the
        sender's retry loop terminates; a block still waiting for ancestors
        is not acknowledged at all.
        """
        if block.id in self.lace:
            return [block], False
        if block.id in self._pending:
            return [], False
        missing = [ptr for ptr in sorted(block.pointers) if ptr not in self.lace]
        if missing:
            self._buffer_pending(block, missing)
            return [], False
        if not self._admit(block):
            return [], False
        landed = [block]
        landed.extend(self._drain(block.id))
        return landed, True

    def _admit(self, block: Block) -> bool:
        # All ancestors present: enforce the one-genesis partition rule,
        # then insert and index.
        if is_genesis(block):
            self._insert_verified(block)
            return True
        observed = 0
        for ptr in block.pointers:
            observed |= self.lace.mask_of(ptr)
        hits = observed & self._genesis_bits
        if hits == 0 or hits & (hits - 1):
            self.metrics.dropped_structure += 1
            return False
        self._insert_verified(block)
        return True

    def _buffer_pending(self, block: Block, missing: list[BlockId]):
        while len(self._pending) >= self.config.pending_cap:
            evicted_id = next(iter(self._pending))
            del self._pending[evicted_id]
            self._disclosed_parked.pop(evicted_id, None)
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
                missing = [p for p in waiter.pointers if p not in self.lace]
                if missing:
                    continue
                del self._pending[waiter_id]
                if self._admit(waiter):
                    landed.append(waiter)
                    queue.append(waiter_id)
        return landed

    def _insert_verified(self, block: Block):
        self.lace.insert(block, verified=True)
        self.metrics.inserted += 1
        bit = self.lace.bit_of(block.id)
        disclosers = self._disclosed_parked.pop(block.id, ())
        if disclosers:
            mask = self.lace.mask_of(block.id)
            for q in disclosers:
                self._disclosed_mask[q] = self._disclosed_mask.get(q, 0) | mask
        if is_genesis(block):
            self._geneses.append(block)
            self._genesis_bits |= bit
            self._partition_bits[block.id] = bit
            self._members.setdefault(block.id, set()).add(block.creator)
            self._peers.add(block.creator)
        else:
            mask = self.lace.mask_of(block.id)
            for genesis in self._geneses:
                if mask & self.lace.bit_of(genesis.id):
                    self._partition_bits[genesis.id] |= bit
        payload = block.payload
        if isinstance(payload, Invite):
            gid = self.group_of(block.id)
            if gid is not None and block.creator == gid.creator and block.pointers == frozenset([gid]):
                self._invite_index[block.id] = (gid, payload.target)
                self._peers.add(payload.target)
        elif isinstance(payload, Accept) and len(block.pointers) == 1:
            (invite_id,) = block.pointers
            entry = self._invite_index.get(invite_id)
            if entry is not None:
                gid, target = entry
                if target == block.creator:
                    self._members.setdefault(gid, set()).add(target)

    def _ack(self, block: Block, src: Optional[NetAddress] = None) -> list[Send]:
        dest = src if src is not None else self.address_of(block.creator)
        if dest is None or dest == self.current_address:
            return []
        ack = b.new_block(
            self.kp, self.current_address, Ack(), self._ack_pointers(block)
        )
        if (dest, ack.id) in self._acked:
            return []
        self._acked.add((dest, ack.id))
        self.metrics.acks_sent += 1
        return [(dest, ack)]

    def _ack_pointers(self, block: Block) -> frozenset[BlockId]:
        # Disclose only the tips of the group the block belongs to; an
        # invite addressed to this agent is acknowledged by naming it.
        gid = self.group_of(block.id)
        if gid is not None and self.member(self.agent_id, gid):
            return self.partition_tips(gid)
        payload = block.payload
        if isinstance(payload, Invite) and payload.target == self.agent_id:
            return frozenset([block.id])
        return frozenset()

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
