import random

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.blocks import encode_block
from blocklace.tl import ProtocolError, TlAgent

KP = [crypto.keygen(f"tl-{i}") for i in range(5)]


def agent(i, address=None):
    return TlAgent(KP[i], address or f"t{i}/0")


def pump(agents, sends, src_agent):
    """Perfect in-order delivery of a send list (and everything it spawns)."""
    queue = [(src_agent.current_address, dst, encode_block(blk)) for dst, blk in sends]
    while queue:
        src, dst, payload = queue.pop(0)
        target = next((a for a in agents if a.current_address == dst), None)
        if target is None:
            continue
        out = target.receive(payload, src)
        queue.extend(
            (target.current_address, d, encode_block(blk)) for d, blk in out
        )


def befriend(x, y):
    """Mutual follow with full offer/ack exchange over a perfect network."""
    x.address_hints[y.agent_id] = y.current_address
    y.address_hints[x.agent_id] = x.current_address
    pump([x, y], x.follow(y.agent_id), x)
    pump([x, y], y.follow(x.agent_id), y)
    pump([x, y], x.tick(), x)
    pump([x, y], y.tick(), y)


def test_first_utterance_is_initial():
    a = agent(0)
    a.say(b"hello world")
    blk = a.last_uttered
    assert blk.is_initial()
    assert blk.payload == b.Say(b"hello world")
    assert b.verify_block(blk)


def test_second_utterance_points_at_first():
    a = agent(0)
    a.say(b"one")
    first = a.last_uttered
    a.say(b"two")
    assert first.id in a.last_uttered.pointers


def test_own_chain_is_self_pointer_complete():
    a = agent(0)
    for i in range(5):
        a.say(b"%d" % i)
    blocks = a.lace.by_creator(a.agent_id)
    assert len(a.lace.self_closure(blocks[-1])) == 5


def test_follows_reflexive_and_friends_mutual():
    a, c = agent(0), agent(1)
    assert a.follows(a.agent_id, a.agent_id)
    a.follow(c.agent_id)
    assert a.follows(a.agent_id, c.agent_id)
    assert not a.friends(c.agent_id)
    # c's reciprocal follow block lands in a's blocklace -> friends
    c.follow(a.agent_id)
    a.receive(encode_block(c.last_uttered))
    assert a.friends(c.agent_id)


def test_offer_acked_with_offer_id():
    a, c = agent(0), agent(1)
    a.follow(c.agent_id)
    offer = a.last_uttered
    sends = c.receive(encode_block(offer), src=a.current_address)
    acks = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    assert len(acks) == 1
    assert acks[0].pointers == frozenset([offer.id])


def test_stranger_say_acked_with_nothing():
    a, c = agent(0), agent(1)
    a.say(b"cold call")
    sends = c.receive(encode_block(a.last_uttered), src=a.current_address)
    acks = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    assert acks and acks[0].pointers == frozenset()


def test_friend_block_acked_with_creator_heads():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"news")
    sends = c.receive(encode_block(a.last_uttered), src=a.current_address)
    acks = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    assert len(acks) == 1
    pointed = acks[0].pointers
    assert a.last_uttered.id in pointed  # c's latest view of a's chain
    heads = {blk.id for q in c.lace.creators() for blk in c.lace.creator_heads(q)}
    assert pointed == heads


def test_duplicate_receive_acks_again_without_growth():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"once")
    wire = encode_block(a.last_uttered)
    c.receive(wire, src=a.current_address)
    size = len(c.lace)
    # The same ack goes to the same destination at most once per tick.
    sends = c.receive(wire, src=a.current_address)
    assert len(c.lace) == size
    assert not any(isinstance(blk.payload, b.Ack) for _, blk in sends)
    c.tick()
    sends = c.receive(wire, src=a.current_address)
    assert len(c.lace) == size
    assert any(isinstance(blk.payload, b.Ack) for _, blk in sends)


def test_receive_forwards_only_landed_blocks():
    a, c, d = agent(0), agent(1), agent(2)
    befriend(a, c)
    befriend(c, d)
    d.follow(a.agent_id)
    c.receive(encode_block(d.last_uttered), src=d.current_address)
    c.say(b"backlog")  # sent, never delivered
    backlog = c.last_uttered
    a.say(b"news")
    news = a.last_uttered
    sends = c.receive(encode_block(news), src=a.current_address)
    forwarded = [(dst, blk.id) for dst, blk in sends if not isinstance(blk.payload, b.Ack)]
    assert forwarded == [(d.current_address, news.id)]
    resent = {(dst, blk.id) for dst, blk in c.tick()}
    assert (d.current_address, news.id) in resent
    assert (a.current_address, backlog.id) in resent
    assert (d.current_address, backlog.id) in resent


def test_forged_blocks_dropped():
    a, c = agent(0), agent(1)
    a.say(b"real")
    wire = bytearray(encode_block(a.last_uttered))
    wire[-1] ^= 0xFF
    c.receive(bytes(wire))
    assert len(c.lace) == 0
    assert c.metrics.dropped_invalid == 1
    c.receive(b"not even a block")
    assert c.metrics.dropped_invalid == 2


def test_own_acks_not_stored():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"x")
    c.receive(encode_block(a.last_uttered), src=a.current_address)
    assert not any(
        isinstance(blk.payload, b.Ack) for blk in c.lace.by_creator(c.agent_id)
    )


def test_received_acks_side_tabled_not_inserted():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"x")
    said = a.last_uttered
    sends = c.receive(encode_block(said), src=a.current_address)
    (ack,) = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    before = len(a.lace)
    assert not a.peers.known(c.agent_id) & a.lace.bit_of(said.id)
    a.receive(encode_block(ack), src=c.current_address)
    assert len(a.lace) == before
    assert a.peers.known(c.agent_id) & a.lace.bit_of(said.id)


def test_acks_from_strangers_are_dropped():
    a, c = agent(0), agent(1)
    rng = random.Random(7)

    def random_id():
        return b.BlockId(rng.randbytes(crypto.AGENT_ID_LEN), rng.randbytes(crypto.DIGEST_LEN))

    for i in range(50):
        pointers = [random_id() for _ in range(20)]
        ack = b.new_block(KP[3], f"t3/{i}", b.Ack(), pointers)
        assert a.receive(encode_block(ack), src="t3/0") == []
    assert a.peers.known(KP[3].agent_id) == 0
    assert a.peers.parked == {}

    befriend(a, c)
    a.say(b"x")
    said = a.last_uttered
    assert not a.peers.known(c.agent_id) & a.lace.bit_of(said.id)
    sends = c.receive(encode_block(said), src=a.current_address)
    (ack,) = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    a.receive(encode_block(ack), src=c.current_address)
    for named in ack.pointers:
        assert a.peers.known(c.agent_id) & a.lace.bit_of(named)
    assert a.peers.parked == {}
    assert a.peers.known(c.agent_id) & a.lace.bit_of(said.id)


def test_respond_requires_known_utterance():
    a, c = agent(0), agent(1)
    a.say(b"topic")
    topic = a.last_uttered
    with pytest.raises(ProtocolError):
        c.respond(b"re", topic.id)
    c.receive(encode_block(topic))
    c.respond(b"re", topic.id)
    assert c.last_uttered.payload == b.Respond(b"re", topic.id)
    # responding to a non-utterance (an Empty address block) is rejected
    a.change_address("t0/1")
    c.receive(encode_block(a.last_uttered))
    with pytest.raises(ProtocolError):
        c.respond(b"re", a.last_uttered.id)


def test_out_of_order_from_followed_creator_waits_for_chain():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"one")
    first = a.last_uttered
    a.say(b"two")
    second = a.last_uttered
    sends = c.receive(encode_block(second), src=a.current_address)
    assert second.id not in c.lace
    assert not [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    c.receive(encode_block(first), src=a.current_address)
    assert first.id in c.lace and second.id in c.lace


def test_parked_block_not_acked_even_with_pointers_here():
    # TL has no nack: a parked block is acked only once it lands, however
    # often it is delivered.
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"one")
    first = a.last_uttered
    pump([a, c], c.say(b"hi"), c)
    a.say(b"two")
    second = a.last_uttered
    assert c.last_uttered.id in second.pointers
    for _ in range(2):
        sends = c.receive(encode_block(second), src=a.current_address)
        assert second.id in {blk.id for blk in c.pending_blocks()}
        assert not [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
        c.tick()
    assert c.metrics.nacks_sent == 0
    sends = c.receive(encode_block(first), src=a.current_address)
    assert second.id in c.lace
    assert [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]


def test_stranger_blocks_insert_immediately():
    a, c = agent(0), agent(1)
    a.say(b"one")
    a.say(b"two")
    c.receive(encode_block(a.last_uttered))
    assert a.last_uttered.id in c.lace


def test_disseminate_sends_followed_creators_to_friend():
    a, c, d = agent(0), agent(1), agent(2)
    befriend(a, c)
    befriend(c, d)
    # d follows a; c learns that through d's follow block
    d.follow(a.agent_id)
    c.receive(encode_block(d.last_uttered), src=d.current_address)
    a.say(b"payload")
    c.receive(encode_block(a.last_uttered), src=a.current_address)
    sends = c.tick()
    assert any(
        dst == d.current_address and blk.id == a.last_uttered.id for dst, blk in sends
    )


def test_disseminate_skips_acked_blocks():
    a, c = agent(0), agent(1)
    befriend(a, c)
    sends = a.say(b"fresh")
    assert any(blk.payload == b.Say(b"fresh") for _, blk in sends)
    pump([a, c], sends, a)  # delivers, acks flow back
    assert not any(
        blk.payload == b.Say(b"fresh") for _, blk in a.tick()
    )


def test_offer_resent_until_acked():
    a, c = agent(0), agent(1)
    a.address_hints[c.agent_id] = c.current_address
    a.follow(c.agent_id)
    offer = a.last_uttered

    def resent_at(ticks):
        return [t for t in ticks if any(blk.id == offer.id for _, blk in a.tick())]

    # The same tick's round, then +1, +3, +7 and every 4 ticks.
    assert resent_at(range(12)) == [0, 1, 3, 7, 11]
    sends = c.receive(encode_block(offer), src=a.current_address)
    (ack,) = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    a.receive(encode_block(ack), src=c.current_address)
    assert resent_at(range(12, 24)) == []
    assert a.retransmit.armed() == 0


def test_no_sends_to_unknown_address():
    a = agent(0)
    a.follow(KP[3].agent_id)  # no hint, no blocks from them
    assert a.tick() == []


def test_utterance_pointers_are_possessed_at_creation():
    # causal context: a new block only ever names blocks its author held
    a, c = agent(0), agent(1)
    befriend(a, c)
    pump([a, c], c.say(b"context"), c)
    held_before = a.lace.ids()
    a.say(b"answer")
    assert a.last_uttered.pointers <= held_before


def test_tick_idempotent_on_state():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"x")
    before = a.lace.ids()
    a.tick()
    a.tick()
    assert a.lace.ids() == before


def test_change_address_announces():
    a, c = agent(0), agent(1)
    befriend(a, c)
    sends = a.change_address("t0/9")
    assert a.last_uttered.payload == b.Empty()
    assert a.last_uttered.address == "t0/9"
    pump([a, c], sends, a)
    assert c.lace.ip_address(a.agent_id) == "t0/9"
    a.change_address("t0/10")
    pump([a, c], a.tick(), a)
    assert c.lace.ip_address(a.agent_id) == "t0/10"


def test_feed_projection_and_spam_exclusion():
    a, c, stranger = agent(0), agent(1), agent(2)
    befriend(a, c)
    for i in range(3):
        pump([a, c], a.say(b"post-%d" % i), a)
    feed = c.feed(a.agent_id)
    assert [blk.payload.text for blk in feed] == [b"post-0", b"post-1", b"post-2"]
    # stranger content sits in the lace but never in a feed view
    stranger.say(b"buy stuff")
    c.receive(encode_block(stranger.last_uttered))
    assert stranger.last_uttered.id in c.lace
    assert c.feed(stranger.agent_id) == []


def test_two_hop_relay_liveness_perfect_network():
    # a - c - d line: a's posts reach d only through c.
    a, c, d = agent(0), agent(1), agent(2)
    befriend(a, c)
    befriend(c, d)
    d.follow(a.agent_id)
    c.receive(encode_block(d.last_uttered), src=d.current_address)
    agents = [a, c, d]
    for i in range(4):
        pump(agents, a.say(b"msg-%d" % i), a)
        for x in agents:
            pump(agents, x.tick(), x)
    said = [blk.id for blk in a.lace.by_creator(a.agent_id) if b.is_utterance(blk.payload)]
    assert all(bid in d.lace for bid in said)
    assert [blk.payload.text for blk in d.feed(a.agent_id)] == [
        b"msg-0",
        b"msg-1",
        b"msg-2",
        b"msg-3",
    ]
    # c's copy is on c's timer (TL relays stay eager), so d acks it to c.
    a.say(b"msg-4")
    relayed = c.receive(encode_block(a.last_uttered), src=a.current_address)
    (copy,) = [blk for dst, blk in relayed if dst == d.current_address]
    assert copy.id == a.last_uttered.id
    sends = d.receive(encode_block(copy), src=c.current_address)
    assert copy.id in d.lace
    assert c.current_address in {dst for dst, blk in sends if isinstance(blk.payload, b.Ack)}
