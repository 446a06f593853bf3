import random
from collections import Counter

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.blocks import encode_block
from blocklace.peers import BURST, ProtocolError
from blocklace.retransmit import EAGER_COPIES, GAP, ROUND_TRIP
from blocklace.tl import TlAgent

from conftest import befriend, deliver, digests, pump

KP = [crypto.keygen(f"tl-{i}") for i in range(5)]


def agent(i, address=None):
    return TlAgent(KP[i], address or f"t{i}/0")


def acks_of(sends):
    return [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]


def test_first_utterance_is_initial():
    a = agent(0)
    a.say(b"hello world")
    blk = a.last_uttered
    assert not blk.pointers
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
    sends = deliver(c, encode_block(offer), a.current_address)
    acks = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    assert len(acks) == 1
    assert acks[0].payload.named == digests([offer.id])


def test_stranger_say_acked_with_nothing():
    # An ack to a sender that is not a friend would name nothing, so none
    # is built.
    a, c = agent(0), agent(1)
    a.say(b"cold call")
    assert deliver(c, encode_block(a.last_uttered), a.current_address) == []
    assert c.metrics.acks_sent == 0


def test_friend_block_acked_with_creator_heads():
    # A lone Say is answered with the head of its creator's chain alone;
    # a tick that lands blocks of two creators names both heads.
    a, c, d = agent(0), agent(1), agent(2)
    befriend(a, c)
    befriend(c, d)
    d.follow(a.agent_id)
    pump([c, d], d.tick(), d)
    a.say(b"news")
    (ack,) = acks_of(deliver(c, encode_block(a.last_uttered), a.current_address))
    # c holds three creators' chains, and names the one it answers.
    assert len({blk.creator for blk in c.lace.blocks()}) == 3
    assert ack.payload.named == digests([a.last_uttered.id])
    a.say(b"more")
    said = a.last_uttered
    d.say(b"aside")
    # Both copies come from one address, so their acks merge into one.
    c.receive(encode_block(said), src=a.current_address)
    c.receive(encode_block(d.last_uttered), src=a.current_address)
    acks = acks_of(c.flush_acks())
    assert [blk.payload.named for blk in acks] == [digests([said.id, d.last_uttered.id])]


def test_block_whose_chain_has_a_hole_draws_no_ack():
    # c's offer to a lands at once, ahead of the Say below it, so c's
    # chain has a hole at a: naming its head would vouch for the Say.
    a, c = agent(0), agent(1)
    a.address_hints[c.agent_id] = c.current_address
    c.address_hints[a.agent_id] = a.current_address
    a.follow(c.agent_id)
    pump([a, c], a.tick(), a)
    c.say(b"before")
    c.follow(a.agent_id)
    offer = c.last_uttered
    assert not a.friends(c.agent_id)
    assert acks_of(deliver(a, encode_block(offer), c.current_address)) == []
    assert a.friends(c.agent_id) and a.lace.has_missing(c.agent_id)


def test_ack_naming_an_offer_head_vouches_for_the_chain_below():
    # c says, then offers friendship to a, so the head of c's chain at a is
    # c's offer to a.  Named alone, it would read at c as a bare receipt of
    # the offer (`_record_ack`) and c would resend its Say forever; a's own
    # head goes with it, so the ack vouches for the Say.
    a, c = agent(0), agent(1)
    a.address_hints[c.agent_id] = c.current_address
    c.address_hints[a.agent_id] = a.current_address
    a.follow(c.agent_id)
    pump([a, c], a.tick(), a)
    c.say(b"before")
    said = c.last_uttered
    c.follow(a.agent_id)
    offer = c.last_uttered
    # Not a friend's block yet: a does not know c follows it.
    assert acks_of(deliver(a, encode_block(said), c.current_address)) == []
    (ack,) = acks_of(deliver(a, encode_block(offer), c.current_address))
    assert ack.payload.named == digests([offer.id, a.last_uttered.id])
    c.receive(encode_block(ack), src=a.current_address)
    assert c.peers.known(a.agent_id) & c.lace.bit_of(said.id)
    for _ in range(3 * GAP):
        assert said.id not in {blk.id for _, blk in c.tick()}


def test_duplicate_receive_acks_again_without_growth():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"once")
    wire = encode_block(a.last_uttered)
    (ack,) = acks_of(deliver(c, wire, a.current_address))
    size = len(c.lace)
    # A copy from the same address within BURST ticks of the first is a
    # twin of its burst and draws no ack.
    for _ in range(BURST):
        assert acks_of(deliver(c, wire, a.current_address)) == []
        assert len(c.lace) == size
        c.tick()
    # Past the window every copy draws the ack, one that lands a tick after
    # the last ack went too: it may be a timer resend whose sender lost
    # that ack, and only a fresh one stops its timer.
    for _ in range(3):
        assert acks_of(deliver(c, wire, a.current_address)) == [ack]
        assert len(c.lace) == size
        c.tick()


def test_round_forwards_what_landed():
    # Receiving and saying store and ack; c's next round sends both the
    # block that landed and c's own.
    a, c, d = agent(0), agent(1), agent(2)
    befriend(a, c)
    befriend(c, d)
    d.follow(a.agent_id)
    c.receive(encode_block(d.last_uttered), src=d.current_address)
    c.say(b"backlog")
    backlog = c.last_uttered
    a.say(b"news")
    news = a.last_uttered
    assert c.receive(encode_block(news), src=a.current_address) is None
    assert all(isinstance(blk.payload, b.Ack) for _, blk in c.flush_acks())
    # Both are first offered in that round, and both are Says (PACED), so
    # the rounds resend them ROUND_TRIP ticks later.
    owed = {
        (d.current_address, news.id),
        (a.current_address, backlog.id),
        (d.current_address, backlog.id),
    }
    rounds = [
        [(dst, blk.id) for dst, blk in c.tick() if (dst, blk.id) in owed]
        for _ in range(ROUND_TRIP + 1)
    ]
    assert Counter(rounds[0]) == {pair: EAGER_COPIES for pair in owed}
    assert rounds[1:ROUND_TRIP] == [[]] * (ROUND_TRIP - 1)
    assert Counter(rounds[ROUND_TRIP]) == {pair: 1 for pair in owed}


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
    (ack,) = acks_of(deliver(c, encode_block(said), a.current_address))
    before = len(a.lace)
    assert not a.peers.known(c.agent_id) & a.lace.bit_of(said.id)
    a.receive(encode_block(ack), src=c.current_address)
    assert len(a.lace) == before
    assert a.peers.known(c.agent_id) & a.lace.bit_of(said.id)


def test_acks_from_strangers_are_dropped():
    a, c = agent(0), agent(1)
    rng = random.Random(7)

    for i in range(50):
        named = frozenset(rng.randbytes(crypto.DIGEST_LEN) for _ in range(20))
        ack = b.new_block(KP[3], f"t3/{i}", b.Ack(named))
        assert deliver(a, encode_block(ack), "t3/0") == []
    assert a.peers.known(KP[3].agent_id) == 0
    assert a.peers.parked == {}

    befriend(a, c)
    a.say(b"x")
    said = a.last_uttered
    assert not a.peers.known(c.agent_id) & a.lace.bit_of(said.id)
    (ack,) = acks_of(deliver(c, encode_block(said), a.current_address))
    a.receive(encode_block(ack), src=c.current_address)
    for named in ack.payload.named:
        assert a.peers.known(c.agent_id) & a.lace.bit_of(a.lace.by_digest(named).id)
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
    sends = deliver(c, encode_block(second), a.current_address)
    assert second.id not in c.lace
    assert not acks_of(sends)
    c.receive(encode_block(first), src=a.current_address)
    assert first.id in c.lace and second.id in c.lace


def test_parked_block_not_acked_even_with_pointers_here():
    # TL has no nack: a parked block is acked only once it lands, however
    # often it is delivered.
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"one")
    first = a.last_uttered
    c.say(b"hi")
    pump([a, c], c.tick(), c)
    a.say(b"two")
    second = a.last_uttered
    assert c.last_uttered.id in second.pointers
    for _ in range(2):
        sends = deliver(c, encode_block(second), a.current_address)
        assert second.id in {blk.id for blk in c.pending_blocks()}
        assert not acks_of(sends)
        c.tick()
    assert c.metrics.nacks_sent == 0
    sends = deliver(c, encode_block(first), a.current_address)
    assert second.id in c.lace
    assert acks_of(sends)


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
    copies = [dst for dst, blk in c.tick() if blk.id == a.last_uttered.id]
    assert copies == [d.current_address] * EAGER_COPIES


def test_disseminate_skips_acked_blocks():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"fresh")
    sends = a.tick()
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

    # EAGER_COPIES copies in the round of the offer, then one every GAP
    # ticks.
    assert [blk.id for _, blk in a.tick()] == [offer.id] * EAGER_COPIES
    assert resent_at(range(1, 3 * GAP)) == [GAP, 2 * GAP]
    (ack,) = acks_of(deliver(c, encode_block(offer), a.current_address))
    a.receive(encode_block(ack), src=c.current_address)
    assert resent_at(range(3 * GAP, 6 * GAP)) == []
    assert not a.retransmit.armed()


def test_no_sends_to_unknown_address():
    a = agent(0)
    a.follow(KP[3].agent_id)  # no hint, no blocks from them
    assert a.tick() == []


def test_utterance_pointers_are_possessed_at_creation():
    # causal context: a new block only ever names blocks its author held
    a, c = agent(0), agent(1)
    befriend(a, c)
    c.say(b"context")
    pump([a, c], c.tick(), c)
    held_before = {blk.id for blk in a.lace.blocks()}
    a.say(b"answer")
    assert a.last_uttered.pointers <= held_before


def test_tick_idempotent_on_state():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.say(b"x")
    before = list(a.lace.blocks())
    a.tick()
    a.tick()
    assert list(a.lace.blocks()) == before


def test_change_address_announces():
    a, c = agent(0), agent(1)
    befriend(a, c)
    a.change_address("t0/9")
    assert a.last_uttered.payload == b.Empty()
    assert a.last_uttered.address == "t0/9"
    pump([a, c], a.tick(), a)
    assert c.lace.ip_address(a.agent_id) == "t0/9"
    a.change_address("t0/10")
    # Every copy of the announcement, sent in the round after it, is lost.
    assert {blk.id for _, blk in a.tick()} == {a.last_uttered.id}
    for _ in range(GAP - 1):
        assert a.tick() == []
    pump([a, c], a.tick(), a)  # resent GAP ticks after the offer
    assert c.lace.ip_address(a.agent_id) == "t0/10"


def test_feed_projection_and_spam_exclusion():
    a, c, stranger = agent(0), agent(1), agent(2)
    befriend(a, c)
    for i in range(3):
        a.say(b"post-%d" % i)
        pump([a, c], a.tick(), a)
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
        a.say(b"msg-%d" % i)
        pump(agents, a.tick(), a)
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
    # c's copy is on c's own timer (a TL relay keeps one, as the creator
    # does), so d acks it to c.
    a.say(b"msg-4")
    c.receive(encode_block(a.last_uttered), src=a.current_address)
    copies = [blk for dst, blk in c.tick() if dst == d.current_address]
    assert [blk.id for blk in copies] == [a.last_uttered.id] * EAGER_COPIES
    copy = copies[0]
    sends = deliver(d, encode_block(copy), c.current_address)
    assert copy.id in d.lace
    assert c.current_address in {dst for dst, blk in sends if isinstance(blk.payload, b.Ack)}
