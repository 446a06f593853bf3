"""The blocklace: a set of signed blocks partially ordered by hash pointers.

Reachability ("observes") is maintained incrementally as bitmasks over
block insertion indexes.  Blocks may arrive before the blocks they point
to; when a missing target shows up, its closure is propagated forward
through the waiting blocks, so masks always equal reachability within the
currently-present set.

A Blocklace is single-writer; queries are read-only and blocks are
immutable, so readers never see torn state.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .blocks import Block, BlockId, NetAddress, verify_block
from .crypto import AgentId, Digest


class InvalidBlock(Exception):
    """Insert was given a block that fails verification."""


class Blocklace:
    def __init__(self):
        # By digest, which binds the creator (`blocks.block_digest`), so a
        # digest alone names one block.
        self._blocks: dict[Digest, Block] = {}
        self._order: list[Block] = []          # insertion order; index = bit position
        self._index: dict[BlockId, int] = {}
        self._mask: dict[BlockId, int] = {}    # closure bitmask, includes own bit
        self._self_mask: dict[BlockId, int] = {}  # closure via same-creator pointers only
        self._rev: dict[BlockId, list[BlockId]] = {}   # target -> present blocks pointing at it
        self._missing: set[BlockId] = set()            # absent pointer targets
        self._missing_by_creator: dict[AgentId, int] = {}
        self._creator_bits: dict[AgentId, int] = {}    # own bits of a creator's blocks
        self._tips: set[BlockId] = set()
        self._heads_cache: dict[AgentId, tuple[int, list[Block]]] = {}

    # --- mutation ---------------------------------------------------------

    def insert(self, block: Block, verified: bool = False) -> bool:
        """Add a block; returns False if it was already present.

        Raises InvalidBlock unless the block verifies (callers that already
        ran verify_block on the same bytes pass verified=True).
        """
        if block.id in self:
            return False
        if not verified and not verify_block(block):
            raise InvalidBlock(block.id.short())

        idx = len(self._order)
        bit = 1 << idx
        self._blocks[block.id.digest] = block
        self._order.append(block)
        self._index[block.id] = idx

        mask = bit
        self_mask = bit
        for ptr in block.pointers:
            self._rev.setdefault(ptr, []).append(block.id)
            if ptr in self._mask:
                mask |= self._mask[ptr]
                if ptr.creator == block.creator:
                    self_mask |= self._self_mask[ptr]
            else:
                if ptr not in self._missing:
                    self._missing.add(ptr)
                    self._missing_by_creator[ptr.creator] = (
                        self._missing_by_creator.get(ptr.creator, 0) + 1
                    )
            self._tips.discard(ptr)
        self._mask[block.id] = mask
        self._self_mask[block.id] = self_mask

        creator = block.creator
        self._creator_bits[creator] = self._creator_bits.get(creator, 0) | bit

        if block.id not in self._rev:
            self._tips.add(block.id)

        if block.id in self._missing:
            self._missing.remove(block.id)
            remaining = self._missing_by_creator[creator] - 1
            if remaining:
                self._missing_by_creator[creator] = remaining
            else:
                del self._missing_by_creator[creator]
            self._propagate(block.id)
        return True

    def _propagate(self, start: BlockId):
        # A formerly-missing target arrived: push its closure forward through
        # everything that (transitively) points at it.  Self-closure flows
        # only across same-creator edges.
        queue = [start]
        while queue:
            current = queue.pop()
            current_mask = self._mask[current]
            current_creator = current.creator
            current_self = self._self_mask[current]
            for waiter in self._rev.get(current, ()):
                changed = False
                merged = self._mask[waiter] | current_mask
                if merged != self._mask[waiter]:
                    self._mask[waiter] = merged
                    changed = True
                if waiter.creator == current_creator:
                    merged_self = self._self_mask[waiter] | current_self
                    if merged_self != self._self_mask[waiter]:
                        self._self_mask[waiter] = merged_self
                        changed = True
                if changed:
                    queue.append(waiter)

    # --- plain lookups ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, block_id: BlockId) -> bool:
        return self.get(block_id) is not None

    def get(self, block_id: BlockId) -> Optional[Block]:
        block = self._blocks.get(block_id.digest)
        return block if block is not None and block.creator == block_id.creator else None

    def by_digest(self, digest: Digest) -> Optional[Block]:
        """The block with this digest, if present: how an ack's names
        resolve."""
        return self._blocks.get(digest)

    def blocks(self) -> Iterator[Block]:
        """Blocks in insertion order."""
        return iter(self._order)

    def by_creator(self, creator: AgentId) -> list[Block]:
        """The creator's blocks, in insertion order."""
        return self.blocks_of_mask(self.creator_mask(creator))

    def is_closed(self) -> bool:
        """True iff every pointer of every block resolves within the set."""
        return not self._missing

    def has_missing(self, creator: AgentId) -> bool:
        """True iff some present block points at an absent block by this
        creator — the creator's chain here provably has a hole."""
        return creator in self._missing_by_creator

    # --- observation queries -------------------------------------------------

    def observes_ids(self, a: BlockId, b: BlockId) -> bool:
        """True iff a pointer path inside this blocklace leads from a to b
        (reflexively).  Both blocks must be present, except a == b."""
        if a == b:
            return True
        if a not in self._index or b not in self._index:
            return False
        return bool(self._mask[a] >> self._index[b] & 1)

    def observes(self, a: Block, b: Block) -> bool:
        return self.observes_ids(a.id, b.id)

    def tips(self) -> list[Block]:
        """Blocks no other present block points at, sorted by id."""
        return sorted((self._blocks[i.digest] for i in self._tips), key=Block.sort_key)

    def tip_ids(self) -> frozenset[BlockId]:
        return frozenset(self._tips)

    def closure(self, block: Block) -> list[Block]:
        """All present blocks that `block` observes, in insertion order."""
        if block.id not in self._index:
            return []
        return self.blocks_of_mask(self._mask[block.id])

    def self_closure(self, block: Block) -> list[Block]:
        """Blocks reachable from `block` via pointers to same-creator blocks."""
        if block.id not in self:
            return []
        return sorted(self.blocks_of_mask(self._self_mask[block.id]), key=Block.sort_key)

    def closure_size(self, block_id: BlockId) -> int:
        return self._mask[block_id].bit_count()

    def creator_heads(self, creator: AgentId) -> list[Block]:
        """The creator's maximal blocks here, sorted by digest: those no
        other block of the same creator observes.  A single head for honest
        chains; several under equivocation."""
        own = self._creator_bits.get(creator, 0)
        if not own:
            return []
        # The block inserted last is almost always the one that observes
        # all the others, and then it is the only head.
        latest = self._order[own.bit_length() - 1]
        if self._mask[latest.id] & own == own:
            return [latest]
        cached = self._heads_cache.get(creator)
        if cached is not None and cached[0] == len(self):
            return cached[1]
        # One OR: every own block's closure without its own bit.  A block is
        # maximal iff its bit is not in that union (closures are acyclic).
        below = 0
        for blk in self.blocks_of_mask(own):
            below |= self._mask[blk.id] ^ self.bit_of(blk.id)
        heads = sorted(self.blocks_of_mask(own & ~below), key=Block.sort_key)
        self._heads_cache[creator] = (len(self), heads)
        return heads

    def ip_address(self, agent: AgentId) -> Optional[NetAddress]:
        """Latest known address of an agent: its first head's.

        The agent's own most recent block wins; if the agent equivocated
        (no single latest block), ties break to the maximal block with the
        smallest digest.  None when the agent has no blocks here.
        """
        heads = self.creator_heads(agent)
        return heads[0].address if heads else None

    def detect_equivocations(self, agent: AgentId) -> list[tuple[Block, Block]]:
        """All unordered pairs of agent-created blocks where neither
        observes the other — the visible evidence of a fork."""
        own = self.by_creator(agent)
        pairs = []
        for i, x in enumerate(own):
            for y in own[i + 1 :]:
                if not self.observes(x, y) and not self.observes(y, x):
                    pair = sorted((x, y), key=Block.sort_key)
                    pairs.append((pair[0], pair[1]))
        pairs.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))
        return pairs

    # --- internals -------------------------------------------------------

    def blocks_of_mask(self, mask: int) -> list[Block]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self._order[low.bit_length() - 1])
            mask ^= low
        return out

    def mask_of(self, block_id: BlockId) -> int:
        return self._mask.get(block_id, 0)

    def self_mask_of(self, block_id: BlockId) -> int:
        return self._self_mask.get(block_id, 0)

    def bit_of(self, block_id: BlockId) -> int:
        return 1 << self._index[block_id]

    def creator_mask(self, agent: AgentId) -> int:
        """The agent's own blocks here: the union of their self-closures."""
        return self._creator_bits.get(agent, 0)
