import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle as oracle
from blocklace import blocks as b
from blocklace.lace import Blocklace, InvalidBlock

from conftest import KEYPAIRS, lace_of, make_block, random_blocklace


def _assert_matches_oracle(blocks_list, lace):
    creators = {blk.creator for blk in blocks_list}
    assert sorted(lace.tips(), key=b.Block.sort_key) == oracle.tips(blocks_list)
    for blk in blocks_list:
        assert sorted(lace.closure(blk), key=b.Block.sort_key) == oracle.closure(
            blk, blocks_list
        )
        assert lace.self_closure(blk) == oracle.self_closure(blk, blocks_list)
    for x, y in itertools.product(blocks_list, repeat=2):
        assert lace.observes(x, y) == oracle.observes(x, y, blocks_list)
    for creator in creators:
        own = 0
        for blk in blocks_list:
            if blk.creator == creator:
                own |= lace.self_mask_of(blk.id)
        assert lace.creator_mask(creator) == own
        assert lace.detect_equivocations(creator) == oracle.equivocations(
            creator, blocks_list
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_queries_match_bruteforce_oracle(seed):
    rng = random.Random(seed)
    blocks_list = random_blocklace(rng, max_blocks=14)
    lace = lace_of(blocks_list, shuffle_rng=rng)  # out-of-order insertion
    _assert_matches_oracle(blocks_list, lace)


def test_insert_rejects_invalid(kp):
    lace = Blocklace()
    blk = make_block(kp, b.Say(b"ok"))
    bad = b.Block(id=blk.id, address=blk.address, payload=b.Say(b"no"), pointers=blk.pointers)
    with pytest.raises(InvalidBlock):
        lace.insert(bad)


def test_insert_set_semantics(kp):
    lace = Blocklace()
    blk = make_block(kp)
    assert lace.insert(blk)
    assert not lace.insert(blk)
    assert len(lace) == 1


def test_observes_reflexive_even_outside(kp):
    lace = Blocklace()
    blk = make_block(kp)
    assert lace.observes(blk, blk)


def test_tips_empty_and_single(kp):
    lace = Blocklace()
    assert lace.tips() == []
    blk = make_block(kp)
    lace.insert(blk)
    assert lace.tips() == [blk]


def test_diamond_tips(kp, kp2):
    a = make_block(kp)
    left = make_block(kp, pointers=[a.id])
    right = make_block(kp2, pointers=[a.id])
    top = make_block(kp, pointers=[left.id, right.id])
    lace = lace_of([a, left, right, top])
    assert lace.tips() == [top]
    assert set(lace.closure(top)) == {a, left, right, top}


def test_chain_observes_direction(kp):
    a = make_block(kp, b.Say(b"a"))
    mid = make_block(kp, b.Say(b"b"), pointers=[a.id])
    c = make_block(kp, b.Say(b"c"), pointers=[mid.id])
    lace = lace_of([a, mid, c])
    assert lace.observes(c, a)
    assert not lace.observes(a, c)


def test_parallel_initials_unreachable(kp, kp2):
    one = make_block(kp)
    other = make_block(kp2)
    lace = lace_of([one, other])
    assert not lace.observes(one, other)
    assert not lace.observes(other, one)


def test_self_closure_skips_foreign_hops(kp, kp2):
    # p1 <- q <- p2: the foreign block breaks the self-pointer path.
    p1 = make_block(kp, b.Say(b"p1"))
    q = make_block(kp2, b.Say(b"q"), pointers=[p1.id])
    p2 = make_block(kp, b.Say(b"p2"), pointers=[q.id])
    lace = lace_of([p1, q, p2])
    assert lace.self_closure(p2) == [p2]
    p3 = make_block(kp, b.Say(b"p3"), pointers=[p2.id, p1.id])
    lace.insert(p3)
    assert set(lace.self_closure(p3)) == {p1, p2, p3}


def test_out_of_order_insertion_propagates(kp):
    a = make_block(kp, b.Say(b"a"))
    mid = make_block(kp, b.Say(b"mid"), pointers=[a.id])
    top = make_block(kp, b.Say(b"top"), pointers=[mid.id])
    lace = Blocklace()
    lace.insert(top)
    lace.insert(mid)
    assert not lace.observes(top, a)
    assert not lace.is_closed()
    lace.insert(a)
    assert lace.observes(top, a)
    assert lace.observes(mid, a)
    assert lace.is_closed()
    assert lace.tips() == [top]


def test_ip_address_latest_wins(kp):
    first = make_block(kp, address="old/0")
    second = make_block(kp, b.Say(b"x"), pointers=[first.id], address="new/0")
    lace = lace_of([first, second])
    assert lace.ip_address(kp.agent_id) == "new/0"


def test_ip_address_single_block(kp):
    lace = Blocklace()
    lace.insert(make_block(kp, address="only/0"))
    assert lace.ip_address(kp.agent_id) == "only/0"


def test_ip_address_unknown(kp, kp2):
    lace = Blocklace()
    lace.insert(make_block(kp))
    assert lace.ip_address(kp2.agent_id) is None


def test_ip_address_equivocation_tiebreak(kp, kp2):
    base = make_block(kp2, address="base/0")
    fork_a = make_block(kp2, b.Say(b"a"), pointers=[base.id], address="fork-a/0")
    fork_b = make_block(kp2, b.Say(b"b"), pointers=[base.id], address="fork-b/0")
    lace = lace_of([base, fork_a, fork_b])
    expected = min([fork_a, fork_b], key=lambda blk: blk.id.digest)
    assert lace.ip_address(kp2.agent_id) == expected.address


def _bruteforce_heads(creator, blocks_list):
    """The reference `creator_heads`: the creator's blocks that no other
    of its blocks observes, sorted by digest."""
    own = [blk for blk in blocks_list if blk.creator == creator]
    maximal = [
        blk
        for blk in own
        if not any(
            other != blk and oracle.observes(other, blk, blocks_list) for other in own
        )
    ]
    return sorted(maximal, key=b.Block.sort_key)


def _bruteforce_address(creator, blocks_list):
    return _bruteforce_heads(creator, blocks_list)[0].address


def test_ip_address_without_a_latest_block_matches_bruteforce(kp):
    # A WL founder: every invite points only at the genesis.
    genesis = make_block(kp, b.Group(b"g"), address="g/0")
    fan_out = [genesis] + [
        make_block(kp, b.Say(b"%d" % i), pointers=[genesis.id], address=f"i{i}/0")
        for i in range(12)
    ]
    assert lace_of(fan_out).ip_address(kp.agent_id) == _bruteforce_address(
        kp.agent_id, fan_out
    )
    # An equivocating creator: random same-creator DAGs, inserted out of order.
    rng = random.Random(5)
    keypair = KEYPAIRS[2]
    for _ in range(200):
        blocks_list = []
        for i in range(rng.randint(1, 6)):
            pool = [blk.id for blk in blocks_list]
            pointers = rng.sample(pool, rng.randint(0, min(2, len(pool))))
            blocks_list.append(
                make_block(keypair, b.Say(b"%d" % i), pointers, address=f"a{i}/0")
            )
        lace = lace_of(blocks_list, shuffle_rng=rng)
        assert lace.ip_address(keypair.agent_id) == _bruteforce_address(
            keypair.agent_id, blocks_list
        )



def _latest_address(creator, present):
    """The reference `ip_address`: the address of the creator's one block
    that observes all its others here, else of its maximal block with the
    smallest digest."""
    own = [blk for blk in present if blk.creator == creator]
    if not own:
        return None
    latest = [blk for blk in own if all(oracle.observes(blk, other, present) for other in own)]
    if latest:
        (only,) = latest
        return only.address
    return _bruteforce_address(creator, present)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_ip_address_matches_latest_block_reference_in_any_insertion_order(seed):
    # Random DAGs over two creators, so a creator's blocks fork as often as
    # they chain, each block at its own address, inserted in a random
    # order: after every insert, each creator's address is its latest
    # block's, and its heads are its maximal blocks, with gaps and forks in
    # what is here so far.
    rng = random.Random(seed)
    creators = KEYPAIRS[:2]
    blocks_list = []
    for i in range(rng.randint(1, 12)):
        pool = [blk.id for blk in blocks_list]
        pointers = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        blocks_list.append(
            make_block(rng.choice(creators), b.Say(b"%d" % i), pointers, address=f"a{i}/0")
        )
    rng.shuffle(blocks_list)
    lace = Blocklace()
    for blk in blocks_list:
        lace.insert(blk)
        present = list(lace.blocks())
        for keypair in creators:
            expected = _latest_address(keypair.agent_id, present)
            assert lace.ip_address(keypair.agent_id) == expected
            heads = _bruteforce_heads(keypair.agent_id, present)
            assert lace.creator_heads(keypair.agent_id) == heads

def test_equivocation_shapes(kp, kp2):
    base = make_block(kp2)
    lace = lace_of([base])
    assert lace.detect_equivocations(kp2.agent_id) == []
    fork_a = make_block(kp2, b.Say(b"a"), pointers=[base.id])
    fork_b = make_block(kp2, b.Say(b"b"), pointers=[base.id])
    lace.insert(fork_a)
    lace.insert(fork_b)
    assert len(lace.detect_equivocations(kp2.agent_id)) == 1
    fork_c = make_block(kp2, b.Say(b"c"), pointers=[base.id])
    lace.insert(fork_c)
    assert len(lace.detect_equivocations(kp2.agent_id)) == 3
    # unrelated creator unaffected
    assert lace.detect_equivocations(kp.agent_id) == []


def test_equivocation_empty_iff_total_order():
    # Cross-check against the order-theoretic statement on every DAG over
    # up to 5 same-creator blocks.
    rng = random.Random(11)
    keypair = KEYPAIRS[2]
    for _ in range(200):
        blocks_list = []
        for i in range(rng.randint(1, 5)):
            pool = [blk.id for blk in blocks_list]
            pointers = rng.sample(pool, rng.randint(0, len(pool)))
            blocks_list.append(make_block(keypair, b.Say(b"%d" % i), pointers))
        lace = lace_of(blocks_list, shuffle_rng=rng)
        total = all(
            lace.observes(x, y) or lace.observes(y, x)
            for x, y in itertools.combinations(blocks_list, 2)
        )
        assert (lace.detect_equivocations(keypair.agent_id) == []) == total


def test_creator_heads(kp, kp2):
    a = make_block(kp, b.Say(b"a"))
    mid = make_block(kp, b.Say(b"mid"), pointers=[a.id])
    lace = lace_of([a, mid])
    assert lace.creator_heads(kp.agent_id) == [mid]
    fork = make_block(kp, b.Say(b"fork"), pointers=[a.id])
    lace.insert(fork)
    assert set(lace.creator_heads(kp.agent_id)) == {mid, fork}
    assert lace.creator_heads(kp2.agent_id) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_creator_index_agrees_with_set(seed):
    rng = random.Random(seed)
    blocks_list = random_blocklace(rng, max_blocks=14)
    lace = lace_of(blocks_list, shuffle_rng=rng)
    creators = {blk.creator for blk in blocks_list}
    via_index = {blk.id for creator in creators for blk in lace.by_creator(creator)}
    assert via_index == {blk.id for blk in lace.blocks()} == {blk.id for blk in blocks_list}
    for creator in creators:
        assert all(blk.creator == creator for blk in lace.by_creator(creator))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_observes_is_preorder(seed):
    rng = random.Random(seed)
    blocks_list = random_blocklace(rng, max_blocks=12)
    lace = lace_of(blocks_list, shuffle_rng=rng)
    for x in blocks_list:
        assert lace.observes(x, x)
    for x, y, z in itertools.product(blocks_list, repeat=3):
        if lace.observes(x, y) and lace.observes(y, z):
            assert lace.observes(x, z)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_observes_antisymmetric(seed):
    # Hash acyclicity means mutual observation implies equality.
    rng = random.Random(seed)
    blocks_list = random_blocklace(rng, max_blocks=12)
    lace = lace_of(blocks_list, shuffle_rng=rng)
    for x, y in itertools.combinations(blocks_list, 2):
        assert not (lace.observes(x, y) and lace.observes(y, x))


def test_no_cycles_in_many_random_dags():
    # 10_000 random DAGs: the strict part of observes is always a partial
    # order (no mutual observation between distinct blocks).
    rng = random.Random(99)
    for _ in range(10_000):
        blocks_list = random_blocklace(rng, max_blocks=6, creators=3)
        lace = lace_of(blocks_list, shuffle_rng=rng)
        for x, y in itertools.combinations(blocks_list, 2):
            assert not (lace.observes(x, y) and lace.observes(y, x))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_every_block_observed_by_some_tip(seed):
    rng = random.Random(seed)
    blocks_list = random_blocklace(rng, max_blocks=12)
    lace = lace_of(blocks_list, shuffle_rng=rng)
    tips = lace.tips()
    for blk in blocks_list:
        assert any(lace.observes(t, blk) for t in tips)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_closure_is_closed(seed):
    rng = random.Random(seed)
    blocks_list = random_blocklace(rng, max_blocks=12)
    lace = lace_of(blocks_list, shuffle_rng=rng)
    for blk in blocks_list:
        closure_blocks = lace.closure(blk)
        closure_lace = lace_of(closure_blocks)
        assert closure_lace.is_closed()
        again = set()
        for inner in closure_blocks:
            again.update(closure_lace.closure(inner))
        assert again == set(closure_blocks)
