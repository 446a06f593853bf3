"""Brute-force reference implementations of the blocklace queries.

Transcribed directly from the definitions (recursive path search, quantify
over all pairs); deliberately independent of the incremental bitmask code
they are used to check.
"""

from __future__ import annotations

from blocklace.blocks import Block, BlockId


def _by_id(blocks: list[Block]) -> dict[BlockId, Block]:
    return {blk.id: blk for blk in blocks}


def observes(a: Block, target: Block, blocks: list[Block]) -> bool:
    """Path search straight from the definition: a observes target iff they
    are equal or some pointer of a resolves to a block observing target."""
    index = _by_id(blocks)

    def walk(current: Block, seen: set[BlockId]) -> bool:
        if current.id == target.id:
            return True
        for ptr in current.pointers:
            nxt = index.get(ptr)
            if nxt is not None and nxt.id not in seen:
                if walk(nxt, seen | {nxt.id}):
                    return True
        return False

    return walk(a, {a.id})


def tips(blocks: list[Block]) -> list[Block]:
    out = [
        blk
        for blk in blocks
        if not any(
            other.id != blk.id and observes(other, blk, blocks) for other in blocks
        )
    ]
    return sorted(out, key=Block.sort_key)


def closure(block: Block, blocks: list[Block]) -> list[Block]:
    return sorted(
        (blk for blk in blocks if observes(block, blk, blocks)), key=Block.sort_key
    )


def self_closure(block: Block, blocks: list[Block]) -> list[Block]:
    index = _by_id(blocks)
    creator = block.creator
    out: dict[BlockId, Block] = {}

    def walk(current: Block):
        if current.id in out:
            return
        out[current.id] = current
        for ptr in current.pointers:
            nxt = index.get(ptr)
            if nxt is not None and nxt.creator == creator:
                walk(nxt)

    walk(block)
    return sorted(out.values(), key=Block.sort_key)


def equivocations(agent: bytes, blocks: list[Block]) -> list[tuple[Block, Block]]:
    own = sorted((blk for blk in blocks if blk.creator == agent), key=Block.sort_key)
    pairs = []
    for i, a in enumerate(own):
        for b in own[i + 1 :]:
            if not observes(a, b, blocks) and not observes(b, a, blocks):
                pairs.append((a, b))
    return pairs
