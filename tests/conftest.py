import random

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.lace import Blocklace

KEYPAIRS = [crypto.keygen(i) for i in range(6)]


@pytest.fixture
def kp():
    return KEYPAIRS[0]


@pytest.fixture
def kp2():
    return KEYPAIRS[1]


def digests(ids):
    """What an ack naming these block ids carries: their digests."""
    return frozenset(i.digest for i in ids)


def deliver(x, payload, src=None):
    """x receives one datagram alone in a tick, and returns the acks it
    drew (`flush_acks`), as the runner sends them.  What lands goes out
    only in x's next round (`tick`)."""
    x.receive(payload, src)
    return x.flush_acks()


def pump(agents, sends, src_agent):
    """Perfect in-order delivery of a send list and the acks it draws."""
    queue = [(src_agent.current_address, dst, b.encode_block(blk)) for dst, blk in sends]
    while queue:
        src, dst, payload = queue.pop(0)
        target = next((a for a in agents if a.current_address == dst), None)
        if target is not None:
            out = deliver(target, payload, src)
            queue.extend((target.current_address, d, b.encode_block(blk)) for d, blk in out)


def befriend(x, y, rounds=1):
    """Mutual follow over a perfect network, each offer sent in its
    creator's round, then `rounds` rounds in which x and then y tick, each
    round's sends delivered in full."""
    x.address_hints[y.agent_id] = y.current_address
    y.address_hints[x.agent_id] = x.current_address
    x.follow(y.agent_id)
    pump([x, y], x.tick(), x)
    y.follow(x.agent_id)
    pump([x, y], y.tick(), y)
    for _ in range(rounds):
        pump([x, y], x.tick(), x)
        pump([x, y], y.tick(), y)


def is_lazy(agent, block, q):
    """Whether `agent` owes q the block lazily: in the lazy part of what
    `_wanted` lists for q, which only a repair sends."""
    bit = agent.lace.bit_of(block.id)
    return any(peer == q.agent_id and lazy & bit for peer, _, lazy in agent._wanted())


def make_block(kp, payload=None, pointers=(), address="addr/0"):
    return b.new_block(kp, address, payload if payload is not None else b.Empty(), pointers)


def random_blocklace(rng: random.Random, max_blocks: int = 20, creators: int = 4):
    """A random valid block DAG: real keys, random pointer subsets (so forks
    and multi-parent joins both occur), returned in creation order.  A
    blocklace is a set, so identical re-creations are skipped."""
    n = rng.randint(1, max_blocks)
    out = []
    seen = set()
    for i in range(n):
        keypair = KEYPAIRS[rng.randrange(creators)]
        pool = [blk.id for blk in out]
        pointers = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        kind = rng.randrange(3)
        if kind == 0:
            payload = b.Say(f"s{i}".encode())
        elif kind == 1:
            payload = b.Empty()
        else:
            # An ack names blocks by digest and carries no pointers.
            payload = b.Ack(digests(pointers))
            pointers = []
        blk = b.new_block(keypair, f"addr/{rng.randrange(3)}", payload, pointers)
        if blk.id not in seen:
            seen.add(blk.id)
            out.append(blk)
    return out


def lace_of(blocks_list, shuffle_rng=None):
    """Insert blocks (optionally out of order) into a fresh Blocklace."""
    order = list(blocks_list)
    if shuffle_rng is not None:
        shuffle_rng.shuffle(order)
    lace = Blocklace()
    for blk in order:
        lace.insert(blk)
    return lace
