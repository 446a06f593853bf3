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
from .crypto import AgentId


class InvalidBlock(Exception):
    """Insert was given a block that fails verification."""


class Blocklace:
    def __init__(self):
        self._blocks: dict[BlockId, Block] = {}
        self._order: list[Block] = []          # insertion order; index = bit position
        self._index: dict[BlockId, int] = {}
        self._mask: dict[BlockId, int] = {}    # closure bitmask, includes own bit
        self._self_mask: dict[BlockId, int] = {}  # closure via same-creator pointers only
        self._rev: dict[BlockId, list[BlockId]] = {}   # target -> present blocks pointing at it
        self._missing: dict[BlockId, int] = {}         # absent targets -> pointer count
        self._missing_by_creator: dict[AgentId, int] = {}
        self._by_creator: dict[AgentId, list[BlockId]] = {}
        self._creator_bits: dict[AgentId, int] = {}    # own bits of a creator's blocks
        self._tips: set[BlockId] = set()
        self._version = 0
        self._heads_cache: dict[AgentId, tuple[int, list[Block]]] = {}

    # --- mutation ---------------------------------------------------------

    def insert(self, block: Block, verified: bool = False) -> bool:
        """Add a block; returns False if it was already present.

        Raises InvalidBlock unless the block verifies (callers that already
        ran verify_block on the same bytes pass verified=True).
        """
        if block.id in self._blocks:
            return False
        if not verified and not verify_block(block):
            raise InvalidBlock(block.id.short())

        idx = len(self._order)
        bit = 1 << idx
        self._version += 1
        self._blocks[block.id] = block
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
                    self._missing_by_creator[ptr.creator] = (
                        self._missing_by_creator.get(ptr.creator, 0) + 1
                    )
                self._missing[ptr] = self._missing.get(ptr, 0) + 1
            self._tips.discard(ptr)
        self._mask[block.id] = mask
        self._self_mask[block.id] = self_mask

        creator = block.creator
        self._by_creator.setdefault(creator, []).append(block.id)
        self._creator_bits[creator] = self._creator_bits.get(creator, 0) | bit

        if block.id not in self._rev:
            self._tips.add(block.id)

        if block.id in self._missing:
            del self._missing[block.id]
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
            current_creator = self._blocks[current].creator
            current_self = self._self_mask[current]
            for waiter in self._rev.get(current, ()):
                changed = False
                merged = self._mask[waiter] | current_mask
                if merged != self._mask[waiter]:
                    self._mask[waiter] = merged
                    changed = True
                if self._blocks[waiter].creator == current_creator:
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
        return block_id in self._blocks

    def get(self, block_id: BlockId) -> Optional[Block]:
        return self._blocks.get(block_id)

    def blocks(self) -> Iterator[Block]:
        """Blocks in insertion order."""
        return iter(self._order)

    def ids(self) -> set[BlockId]:
        return set(self._blocks)

    def by_creator(self, creator: AgentId) -> list[Block]:
        return [self._blocks[i] for i in self._by_creator.get(creator, ())]

    def creators(self) -> list[AgentId]:
        return list(self._by_creator)

    def is_closed(self) -> bool:
        """True iff every pointer of every block resolves within the set."""
        return not self._missing

    def has_missing(self, creator: AgentId) -> bool:
        """True iff some present block points at an absent block by this
        creator — the creator's chain here provably has a hole."""
        return creator in self._missing_by_creator

    def version(self) -> int:
        """Bumps on every insert; lets callers cache derived masks."""
        return self._version

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
        return sorted((self._blocks[i] for i in self._tips), key=Block.sort_key)

    def tip_ids(self) -> frozenset[BlockId]:
        return frozenset(self._tips)

    def closure(self, block: Block) -> list[Block]:
        """All present blocks that `block` observes, in insertion order."""
        if block.id not in self._index:
            return []
        return self.blocks_of_mask(self._mask[block.id])

    def self_closure(self, block: Block) -> list[Block]:
        """Blocks reachable from `block` via pointers to same-creator blocks."""
        if block.id not in self._blocks:
            return []
        return sorted(self.blocks_of_mask(self._self_mask[block.id]), key=Block.sort_key)

    def closure_size(self, block_id: BlockId) -> int:
        return self._mask[block_id].bit_count()

    def creator_heads(self, creator: AgentId) -> list[Block]:
        """The creator's maximal blocks here: those no other block of the
        same creator observes.  A single head for honest chains; several
        under equivocation."""
        cached = self._heads_cache.get(creator)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        # One OR: every own block's closure without its own bit.  A block is
        # maximal iff its bit is not in that union (closures are acyclic).
        own = self._by_creator.get(creator, ())
        below = 0
        for bid in own:
            below |= self._mask[bid] ^ (1 << self._index[bid])
        heads = sorted(
            (self._blocks[bid] for bid in own if not below >> self._index[bid] & 1),
            key=Block.sort_key,
        )
        self._heads_cache[creator] = (self._version, heads)
        return heads

    def ip_address(self, agent: AgentId) -> Optional[NetAddress]:
        """Latest known address of an agent.

        The agent's own most recent block wins; if the agent equivocated
        (no single latest block), ties break to the maximal block with the
        smallest digest.  None when the agent has no blocks here.
        """
        own = self._by_creator.get(agent)
        if own:
            all_bits = self._creator_bits[agent]
            for bid in reversed(own):
                if self._mask[bid] & all_bits == all_bits:
                    return self._blocks[bid].address
            # No single latest block: the maximal one with the smallest
            # digest (heads of one creator sort by digest).
            return self.creator_heads(agent)[0].address
        return None

    def detect_equivocations(self, agent: AgentId) -> list[tuple[Block, Block]]:
        """All unordered pairs of agent-created blocks where neither
        observes the other — the visible evidence of a fork."""
        own = self._by_creator.get(agent, ())
        pairs = []
        for i, a in enumerate(own):
            for b in own[i + 1 :]:
                if not self._mask[a] >> self._index[b] & 1 and not self._mask[b] >> self._index[a] & 1:
                    pair = sorted((self._blocks[a], self._blocks[b]), key=Block.sort_key)
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

    def all_mask(self) -> int:
        return (1 << len(self._order)) - 1
