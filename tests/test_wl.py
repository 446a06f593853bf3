import random
from collections import Counter

import pytest

from blocklace import blocks as b
from blocklace import crypto, peers
from blocklace.blocks import encode_block
from blocklace.harness import canned
from blocklace.harness.runner import run_scenario
from blocklace.lace import Blocklace
from blocklace.peers import BURST, PARKED_CAP, ProtocolError
from blocklace.retransmit import EAGER_COPIES, GAP, RACED_COPIES, REPAIR_AFTER
from blocklace.wl import (
    WlAgent,
    compute_member,
    group_partition,
    is_genesis,
    open_utterance,
    partition_violations,
)

from conftest import deliver, digests, is_lazy, pump

KP = [crypto.keygen(f"wl-{i}") for i in range(6)]


def agent(i, encrypt=True):
    return WlAgent(KP[i], f"w{i}/0", encrypt=encrypt)


def form_group(founder, members, name=b"room"):
    """Create a group and run the whole invite/accept dance perfectly."""
    everyone = [founder] + members
    founder.create_group(name)
    gid = founder.last_uttered.id
    for member in members:
        founder.address_hints[member.agent_id] = member.current_address
        founder.invite(member.agent_id, gid)
        pump(everyone, founder.tick(), founder)
        member.accept(gid)
        pump(everyone, member.tick(), member)
        pump(everyone, founder.tick(), founder)
    for participant in everyone:
        pump(everyone, participant.tick(), participant)
    return gid


def test_create_group_founder_is_member():
    f = agent(0)
    f.create_group(b"team")
    gid = f.last_uttered.id
    assert f.last_uttered.pointers == frozenset()
    assert f.member(f.agent_id, gid)
    assert gid in f.group_keys


def test_create_group_duplicate_name_rejected():
    f = agent(0)
    f.create_group(b"team")
    with pytest.raises(ProtocolError):
        f.create_group(b"team")
    f.create_group(b"other")  # different name fine


def test_two_groups_disjoint_partitions():
    f = agent(0)
    f.create_group(b"one")
    g1 = f.last_uttered.id
    f.create_group(b"two")
    g2 = f.last_uttered.id
    f.say_group(g1, b"in one")
    f.say_group(g2, b"in two")
    p1 = {blk.id for blk in group_partition(f.lace, g1)}
    p2 = {blk.id for blk in group_partition(f.lace, g2)}
    assert p1 and p2 and not (p1 & p2)
    assert p1 | p2 == {blk.id for blk in f.lace.blocks()}


def test_invite_shape_and_preconditions():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.invite(m.agent_id, gid)
    invite = f.last_uttered
    assert invite.pointers == frozenset([gid])
    assert isinstance(invite.payload, b.Invite)
    with pytest.raises(ProtocolError):
        f.invite(f.agent_id, gid)  # self
    with pytest.raises(ProtocolError):
        m.invite(f.agent_id, gid)  # non-founder (doesn't even know it)


def test_accept_requires_founder_invite():
    f, m, imp = agent(0), agent(1), agent(2)
    f.create_group(b"g")
    gid = f.last_uttered.id
    with pytest.raises(ProtocolError):
        m.accept(gid)
    # an impostor "invite" pointing at the genesis is not founder-authored
    f.address_hints[imp.agent_id] = imp.current_address
    f.invite(imp.agent_id, gid)  # imp gets genesis+invite
    pump([f, m, imp], f.tick(), f)
    forged = b.new_block(
        imp.kp, imp.current_address,
        b.Invite(m.agent_id, crypto.seal(crypto.group_keygen(0), m.agent_id)),
        [gid],
    )
    m.receive(encode_block(forged))
    with pytest.raises(ProtocolError):
        m.accept(gid)
    assert not compute_member(m.lace, m.agent_id, gid)


def test_accept_unseals_key_and_joins():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.address_hints[m.agent_id] = m.current_address
    f.invite(m.agent_id, gid)
    pump([f, m], f.tick(), f)
    m.accept(gid)
    accept = m.last_uttered
    assert isinstance(accept.payload, b.Accept)
    assert len(accept.pointers) == 1
    assert m.member(m.agent_id, gid)
    assert m.group_keys[gid].key == f.group_keys[gid].key


def test_first_say_points_at_genesis():
    f = agent(0)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.say_group(gid, b"hello")
    assert f.last_uttered.pointers == frozenset([gid])


def test_every_block_observes_exactly_one_genesis():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    m.say_group(gid, b"hi all")
    f2 = agent(2)
    gid2 = form_group(f2, [m], name=b"second")
    m.say_group(gid2, b"other room")
    assert partition_violations(m.lace) == []
    for blk in m.lace.blocks():
        geneses = [
            g for g in m.lace.blocks()
            if not g.pointers and m.lace.observes(blk, g)
        ]
        assert len(geneses) == 1


def test_say_requires_membership():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    with pytest.raises(ProtocolError):
        m.say_group(gid, b"not in yet")
    f.address_hints[m.agent_id] = m.current_address
    f.invite(m.agent_id, gid)
    pump([f, m], f.tick(), f)
    with pytest.raises(ProtocolError):
        m.say_group(gid, b"invited but not accepted")
    m.accept(gid)
    m.say_group(gid, b"now a member")


def test_respond_group_cross_group_rejected():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    other_founder = agent(2)
    other_founder.create_group(b"private")
    other_gid = other_founder.last_uttered.id
    other_founder.say_group(other_gid, b"elsewhere")
    stray = other_founder.last_uttered
    # m is not a member of the other group: respond must fail even if the
    # block somehow arrived
    for blk in [other_founder.lace.get(other_gid), stray]:
        m.receive(encode_block(blk))
    with pytest.raises(ProtocolError):
        m.respond_group(stray.id, b"butting in")


def test_respond_group_within_group():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    f.say_group(gid, b"topic")
    pump([f, m], f.tick(), f)
    topic = f.last_uttered
    m.respond_group(topic.id, b"reply")
    assert isinstance(m.last_uttered.payload, b.Respond)
    assert m.last_uttered.payload.re == topic.id
    assert m.group_of(m.last_uttered.id) == gid


def test_address_change_one_block_per_group():
    f, m = agent(0), agent(1)
    form_group(f, [m], name=b"one")
    f2 = agent(2)
    form_group(f2, [f], name=b"two")
    before = len(f.lace)
    f.change_address("w0/1")
    created = [blk for blk in f.lace.blocks()][before:]
    assert len(created) == 2
    assert {f.group_of(blk.id) for blk in created} == set(f.my_groups())
    lone = agent(3)
    lone.change_address("w3/1")
    assert len(lone.lace) == 0


def test_pending_buffer_reorders_to_closure():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    f.say_group(gid, b"first")
    first = f.last_uttered
    f.say_group(gid, b"second")
    second = f.last_uttered
    out = deliver(m, encode_block(second), src=f.current_address)
    assert second.id not in m.lace
    assert second.id in {blk.id for blk in m.pending_blocks()}
    # None of its pointers is here, so the nack names the tips of the one
    # group m shares with its creator.
    ((dst, nack),) = acks(out)
    assert dst == f.current_address and nack.payload.named == digests(m.partition_tips(gid))
    m.receive(encode_block(first), src=f.current_address)
    assert second.id in m.lace and first.id in m.lace
    assert m.lace.is_closed()
    assert not m.pending_blocks()


def test_groupless_block_rejected():
    f, m = agent(0), agent(1)
    form_group(f, [m])
    outsider = agent(2)
    outsider.create_group(b"x")
    outsider.say_group(outsider.last_uttered.id, b"payload")
    stray_say = outsider.last_uttered
    # deliver the say without its genesis: it parks, never lands
    m.receive(encode_block(stray_say))
    assert stray_say.id not in m.lace
    # a groupless initial block (not a genesis) is rejected outright
    floater = b.new_block(outsider.kp, "w2/0", b.Say(b"no group"), ())
    m.receive(encode_block(floater))
    assert floater.id not in m.lace
    assert m.metrics.dropped_structure == 1


def test_cross_group_merge_rejected():
    f = agent(0)
    f.create_group(b"one")
    g1 = f.last_uttered.id
    f.create_group(b"two")
    g2 = f.last_uttered.id
    merge = b.new_block(f.kp, "w0/0", b.Say(b"bridge"), [g1, g2])
    m = agent(1)
    f.address_hints[m.agent_id] = m.current_address
    f.invite(m.agent_id, g1)
    pump([f, m], f.tick(), f)
    m.receive(encode_block(f.lace.get(g2)))
    m.receive(encode_block(merge))
    assert merge.id not in m.lace
    assert m.metrics.dropped_structure == 1
    assert partition_violations(m.lace) == []


def hand_built_lace(blocks_list):
    lace = Blocklace()
    for blk in blocks_list:
        lace.insert(blk)
    return lace


def test_partition_violations_names_a_merge_and_a_groupless_block():
    kp = KP[0]
    g1 = b.new_block(kp, "w0/0", b.Group(b"one"), ())
    g2 = b.new_block(kp, "w0/0", b.Group(b"two"), ())
    said = b.new_block(kp, "w0/0", b.Say(b"in one"), [g1.id])
    assert partition_violations(hand_built_lace([g1, g2, said])) == []
    merge = b.new_block(kp, "w0/0", b.Say(b"bridge"), [said.id, g2.id])
    floater = b.new_block(kp, "w0/0", b.Say(b"no group"), ())
    lace = hand_built_lace([g1, g2, said, merge, floater])
    assert partition_violations(lace) == [
        f"partition:{merge.id.hex()}",
        f"partition:{floater.id.hex()}",
    ]


def test_partition_violations_names_a_dangling_pointer():
    kp = KP[0]
    genesis = b.new_block(kp, "w0/0", b.Group(b"g"), ())
    first = b.new_block(kp, "w0/0", b.Say(b"1"), [genesis.id])
    second = b.new_block(kp, "w0/0", b.Say(b"2"), [first.id])
    lace = hand_built_lace([genesis, second])
    # `second` reaches the genesis only through the absent `first`.
    assert partition_violations(lace) == ["closure", f"partition:{second.id.hex()}"]
    lace.insert(first)
    assert partition_violations(lace) == []


def test_ack_discloses_only_group_tips():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    gid2 = form_group(f, [m], name=b"branch")
    f.say_group(gid, b"in-one")
    sends = deliver(m, encode_block(f.last_uttered), src=f.current_address)
    (ack,) = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    partition = {blk.id for blk in m.lace.blocks_of_mask(m._partition_bits[gid])}
    assert ack.payload.named <= digests(partition)
    other = digests(blk.id for blk in m.lace.blocks_of_mask(m._partition_bits[gid2]))
    assert not ack.payload.named & other


def late_member(f, members, late):
    """Invite `late` into a group of f and `members`, formed over a perfect
    network, and let it accept; only f gets the invite, and nobody gets
    the Accept yet.  So f's relay copies of late's blocks to the others
    are uncovered: the founder sends them in its next round (BACKSTOP)."""
    gid = form_group(f, members)
    f.address_hints[late.agent_id] = late.current_address
    f.invite(late.agent_id, gid)
    pump([f, late], f.tick(), f)
    late.accept(gid)
    return gid, late.last_uttered


def test_round_forwards_what_landed():
    # Receiving and saying store and ack; f's next round relays the Accept
    # that landed, one BACKSTOP copy to each other member, and makes the
    # first offer of f's own Say.
    f, m1, m2, m3 = agent(0), agent(1), agent(2), agent(3)
    gid, accept = late_member(f, [m1, m2], m3)
    f.say_group(gid, b"backlog")
    backlog = f.last_uttered
    assert f.receive(encode_block(accept), src=m3.current_address) is None
    assert all(isinstance(blk.payload, b.Ack) for _, blk in f.flush_acks())
    sent = Counter((dst, blk.id) for dst, blk in f.tick())
    relayed = {pair: n for pair, n in sent.items() if pair[1] == accept.id}
    assert relayed == {(m1.current_address, accept.id): 1, (m2.current_address, accept.id): 1}
    assert sent[(m1.current_address, backlog.id)] == RACED_COPIES
    # The rounds resend the own backlog (RACED) REPAIR_AFTER ticks after
    # its offer.
    rounds = [
        backlog.id in {blk.id for dst, blk in f.tick() if dst == m1.current_address}
        for _ in range(REPAIR_AFTER)
    ]
    assert rounds == [False] * (REPAIR_AFTER - 1) + [True]


def test_pending_drain_forwards_every_landed_block():
    f, m1, m2, m3 = agent(0), agent(1), agent(2), agent(3)
    gid, accept = late_member(f, [m1, m2], m3)
    m3.say_group(gid, b"first words")
    said = m3.last_uttered
    assert said.pointers == {accept.id}
    assert deliver(f, encode_block(said), src=m3.current_address) == []
    deliver(f, encode_block(accept), src=m3.current_address)
    # f's next round sends both blocks the drain landed.
    landed = {accept.id, said.id}
    forwarded = [(dst, blk.id) for dst, blk in f.tick() if blk.id in landed]
    assert forwarded == [
        (q.current_address, block.id)
        for q in sorted([m1, m2], key=lambda q: q.agent_id)
        for block in (accept, said)
    ]


def acks(sends):
    return [(dst, blk) for dst, blk in sends if isinstance(blk.payload, b.Ack)]


def test_parked_block_acked_at_once_with_the_group_tips():
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    m2.say_group(gid, b"missed")
    missed = m2.last_uttered
    f.receive(encode_block(missed), src=m2.current_address)
    m1.say_group(gid, b"mine")
    f.receive(encode_block(m1.last_uttered), src=m1.current_address)
    f.say_group(gid, b"both")
    both = f.last_uttered
    assert missed.id in both.pointers and missed.id not in m1.lace
    ((dst, nack),) = acks(deliver(m1, encode_block(both), src=f.current_address))
    assert both.id in {blk.id for blk in m1.pending_blocks()}
    assert dst == f.current_address
    assert nack.payload.named == digests(m1.partition_tips(gid))
    assert m1.metrics.nacks_sent == 1
    # Delivered again while still parked: the same nack again.
    assert acks(deliver(m1, encode_block(both), src=f.current_address)) == [(dst, nack)]
    assert m1.metrics.nacks_sent == 2
    # A relay's copy parks too and draws the same nack, to the relay.
    assert acks(deliver(m1, encode_block(both), src=m2.current_address)) == [
        (m2.current_address, nack)
    ]
    assert m1.metrics.nacks_sent == 3
    # Without a source address there is no deliverer to nack.
    assert acks(deliver(m1, encode_block(both))) == []


def test_parked_block_not_acked_without_a_group_of_this_agent():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.address_hints[m.agent_id] = m.current_address
    f.invite(m.agent_id, gid)  # m is invited, not a member
    pump([f, m], f.tick(), f)
    invite = f.last_uttered
    f.invite(agent(2).agent_id, gid)  # never reaches m
    f.say_group(gid, b"after")
    after = f.last_uttered
    # after's present pointer, m's invite, observes a group m has not joined.
    assert invite.id in after.pointers and len(after.pointers) == 2
    out = deliver(m, encode_block(after), src=f.current_address)
    assert after.id in {blk.id for blk in m.pending_blocks()}
    assert acks(out) == []
    # No pointer here at all, from a creator that shares no group with n.
    g, n = agent(2), agent(3)
    gid2 = form_group(g, [agent(4)])
    form_group(n, [agent(5)])
    g.say_group(gid2, b"one")
    g.say_group(gid2, b"two")
    assert acks(deliver(n, encode_block(g.last_uttered), src=g.current_address)) == []
    assert m.metrics.nacks_sent == n.metrics.nacks_sent == 0


def test_parked_block_with_no_pointer_here_nacked_with_the_shared_group_tips():
    # m1 misses a Say that f's next one points at alone.  With none of the
    # parked block's pointers here, the nack names the tips of the one
    # group m1 shares with f.  m2 shares two groups with f, so it cannot
    # tell which group to name, and does not nack.
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    form_group(f, [m2], name=b"more")
    f.say_group(gid, b"missed")
    missed = f.last_uttered
    f.say_group(gid, b"after")
    after = f.last_uttered
    assert after.pointers == {missed.id}
    ((dst, nack),) = acks(deliver(m1, encode_block(after), src=f.current_address))
    assert after.id in {blk.id for blk in m1.pending_blocks()}
    assert dst == f.current_address
    assert nack.payload.named == digests(m1.partition_tips(gid))
    assert m1.metrics.nacks_sent == 1
    assert acks(deliver(m2, encode_block(after), src=f.current_address)) == []
    assert after.id in {blk.id for blk in m2.pending_blocks()}
    assert m2.metrics.nacks_sent == 0


def test_lost_relay_copy_is_repaired_on_a_nack():
    # m2 withholds its say from m1.  f knows m2 holds m1's Accept, so its
    # relay copy is a second path, lazy: not sent on arrival, and with no
    # backstop.  Only f's next block, which points at the say and at m1's
    # own and parks at m1, shows f what is missing, and the copy goes out
    # as a repair.
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    m2.say_group(gid, b"withheld")
    said = m2.last_uttered
    held = deliver(f, encode_block(said), src=m2.current_address)
    assert (m1.current_address, said.id) not in {(dst, blk.id) for dst, blk in held}
    assert not f.retransmit.armed()
    m1.say_group(gid, b"mine")
    f.receive(encode_block(m1.last_uttered), src=m1.current_address)
    for _ in range(REPAIR_AFTER):  # no nack, so no repair
        assert said.id not in {blk.id for _, blk in f.tick()}
    f.say_group(gid, b"after")
    after = f.last_uttered
    assert said.id in after.pointers
    ((_, nack),) = acks(deliver(m1, encode_block(after), src=f.current_address))
    assert after.id not in m1.lace
    f.receive(encode_block(nack), src=m1.current_address)
    repaired = [blk for dst, blk in f.tick() if dst == m1.current_address]
    assert said.id in {blk.id for blk in repaired}
    # The round's copies to m1 land and release the parked block.
    for blk in repaired:
        m1.receive(encode_block(blk), src=f.current_address)
    assert after.id in m1.lace


def deliver_losing(agents, sends, src_agent, lost):
    """Deliver `sends` from `src_agent` and the acks they draw, in order,
    except that the first copy of each (destination agent, block id) in
    the set `lost` is dropped (and removed from it)."""
    queue = [(src_agent, dst, blk) for dst, blk in sends]
    while queue:
        src, dst, blk = queue.pop(0)
        target = next((a for a in agents if a.current_address == dst), None)
        if target is None or (target, blk.id) in lost:
            lost.discard((target, blk.id))
            continue
        out = deliver(target, encode_block(blk), src.current_address)
        queue.extend((target, d, reply) for d, reply in out)


@pytest.mark.parametrize("say_lost", [True, False], ids=["say_lost", "say_parked"])
def test_relay_copy_to_a_member_its_creator_does_not_know_is_held(say_lost):
    # m1 and m2 learn of each other only from f's relay copies of their
    # Accepts, and both are lost.  m2's say, the last event, goes to f
    # alone; f's one relay copy to m1 is lost too, or lands and parks
    # while f's Accept copy is too recent for a nack to repair.  Neither
    # m2 nor the acks f holds show that m2 knows m1, so f's copies to m1
    # stay on a backstop until m1 holds them.
    f, m1, m2 = agent(0), agent(1), agent(2)
    everyone = [f, m1, m2]
    f.create_group(b"room")
    gid = f.last_uttered.id
    for m in (m1, m2):
        f.address_hints[m.agent_id] = m.current_address
        f.invite(m.agent_id, gid)
        pump(everyone, f.tick(), f)
    for m in (m1, m2):
        m.accept(gid)
    lost = {(m1, m2.last_uttered.id), (m2, m1.last_uttered.id)}
    for m in (m1, m2):
        deliver_losing(everyone, m.tick(), m, lost)
    for a in everyone:
        deliver_losing(everyone, a.tick(), a, lost)
    assert not lost
    m2.say_group(gid, b"last word")
    sends = m2.tick()
    said = m2.last_uttered
    assert {dst for dst, _ in sends} == {f.current_address}
    lost = {(m1, said.id)} if say_lost else set()
    deliver_losing(everyone, sends, m2, lost)
    deliver_losing(everyone, f.tick(), f, lost)
    assert not lost
    assert said.id not in m1.lace and f.retransmit.armed()
    for _ in range(4 * REPAIR_AFTER):
        for a in everyone:
            deliver_losing(everyone, a.tick(), a, set())
    assert said.id in m1.lace
    assert m1.member(m2.agent_id, gid) and m2.member(m1.agent_id, gid)
    # Quiescent: nothing is owed any more.
    assert not any(a.retransmit.armed() for a in everyone)


def test_creator_covers_a_member_only_in_the_group_it_knows_it_in():
    # c knows q joined "two" but not "one", so c sends its blocks in "one"
    # to f alone, and f's copy of one of them is q's only path.
    f, c, q = agent(0), agent(1), agent(2)
    everyone = [f, c, q]
    gids = {}
    for name in (b"two", b"one"):
        f.create_group(name)
        gids[name] = f.last_uttered.id
        for m in (c, q):
            f.address_hints[m.agent_id] = m.current_address
            f.invite(m.agent_id, gids[name])
            pump(everyone, f.tick(), f)
    for m in (c, q):
        m.accept(gids[b"two"])
        pump(everyone, m.tick(), m)
    for a in everyone:
        pump(everyone, a.tick(), a)
    assert c.member(q.agent_id, gids[b"two"])
    c.accept(gids[b"one"])
    pump(everyone, c.tick(), c)
    q.accept(gids[b"one"])
    lost = {(c, q.last_uttered.id)}  # f's copy
    deliver_losing(everyone, q.tick(), q, lost)
    deliver_losing(everyone, f.tick(), f, lost)
    assert not lost and not c.member(q.agent_id, gids[b"one"])
    c.say_group(gids[b"one"], b"to f")
    sends = c.tick()
    assert {dst for dst, _ in sends} == {f.current_address}
    said = c.last_uttered
    deliver(f, encode_block(said), src=c.current_address)
    relayed = f.tick()
    assert (q.current_address, said.id) in {(dst, blk.id) for dst, blk in relayed}
    assert not is_lazy(f, said, q)
    # The say does not observe q's Accept in "one", so q acks f's copy,
    # and the ack takes the copy off its backstop, f's last timer.
    for _ in range(2):  # c's Accept in "one", which q lacks, then its ack
        pump(everyone, f.tick(), f)
    assert f.retransmit.armed()
    ((dst, ack),) = acks(deliver(q, encode_block(said), src=f.current_address))
    assert dst == f.current_address
    f.receive(encode_block(ack), src=q.current_address)
    f.tick()
    assert not f.retransmit.armed()


def test_nacks_counted_in_report_not_trace():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    f.say_group(gid, b"missed")
    m.say_group(gid, b"mine")
    f.receive(encode_block(m.last_uttered), src=m.current_address)
    f.say_group(gid, b"both")  # parks at m, which lacks "missed"
    assert m.metrics.nacks_sent == 0
    deliver(m, encode_block(f.last_uttered), src=f.current_address)
    assert m.metrics.nacks_sent == 1
    result = run_scenario(canned.wl_group(seed=0))
    metrics = result.report["agent_metrics"]
    assert metrics and all("nacks_sent" in m for m in metrics.values())
    assert "nacks_sent" not in result.trace_text


def test_covered_relay_copy_not_acked_as_it_lands():
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    f.say_group(gid, b"news")
    said = f.last_uttered
    relayed = deliver(m2, encode_block(said), src=f.current_address)
    assert (m1.current_address, said.id) not in {(dst, blk.id) for dst, blk in relayed}
    assert is_lazy(m2, said, m1)  # no timer on m2's copy
    # An ack from m1 that does not cover the say, REPAIR_AFTER ticks
    # later, draws m2's repair copy.
    for _ in range(REPAIR_AFTER):
        m2.tick()
    m2.retransmit.mark_repair(m1.current_address)
    repaired = [blk for dst, blk in m2.tick() if dst == m1.current_address]
    assert said.id in {blk.id for blk in repaired}
    assert acks(deliver(m1, encode_block(said), src=m2.current_address)) == []
    assert said.id in m1.lace
    # The creator's copy of the same block is acked, to stop its timer.
    ((dst, _),) = acks(deliver(m1, encode_block(said), src=f.current_address))
    assert dst == f.current_address
    # When the creator's copy lands first, an address where no member is
    # known gets its own ack, and m2's copy still gets none.  f's copies
    # within BURST ticks of the first are twins of its burst; a later one
    # draws the ack again.
    f.say_group(gid, b"twice")
    wire = encode_block(f.last_uttered)
    sent_before = m1.metrics.acks_sent
    (first,) = acks(deliver(m1, wire, src=f.current_address))
    assert acks(deliver(m1, wire, src="w9/0")) == [("w9/0", first[1])]
    assert acks(deliver(m1, wire, src=m2.current_address)) == []
    for _ in range(BURST):
        assert acks(deliver(m1, wire, src=f.current_address)) == []
        m1.tick()
    assert acks(deliver(m1, wire, src=m2.current_address)) == []
    assert acks(deliver(m1, wire, src=f.current_address)) == [first]
    assert m1.metrics.acks_sent - sent_before == 3


def test_acks_from_strangers_are_dropped():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    rng = random.Random(7)

    def random_digest():
        return rng.randbytes(crypto.DIGEST_LEN)

    for i in range(50):
        named = frozenset(random_digest() for _ in range(20))
        ack = b.new_block(KP[3], f"w3/{i}", b.Ack(named))
        assert deliver(f, encode_block(ack), src="w3/0") == []
    assert f.peers.known(KP[3].agent_id) == 0
    assert f.peers.parked == {}

    f.say_group(gid, b"hello")
    sends = deliver(m, encode_block(f.last_uttered), src=f.current_address)
    (ack,) = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    assert not f.peers.known(m.agent_id) & f.lace.bit_of(f.last_uttered.id)
    f.receive(encode_block(ack), src=m.current_address)
    for named in ack.payload.named:
        assert f.peers.known(m.agent_id) & f.lace.bit_of(f.lace.by_digest(named).id)
    assert f.peers.parked == {}
    # A member's ack naming a digest not here yet is parked for it.
    absent = random_digest()
    f.receive(encode_block(b.new_block(KP[1], m.current_address, b.Ack(frozenset([absent])))))
    assert f.peers.parked == {absent: {m.agent_id: True}}


def test_digest_parked_before_its_block_lands_is_credited_when_it_lands():
    # m2's Say reaches f only after m's ack naming it: the digest waits in
    # `parked` and credits m once the Say lands.
    f, m, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m, m2])
    m2.say_group(gid, b"late")
    said = m2.last_uttered
    (ack,) = [blk for _, blk in deliver(m, encode_block(said), src=m2.current_address)]
    assert ack.payload.named == digests([said.id])
    f.receive(encode_block(ack), src=m.current_address)
    assert f.peers.parked == {said.id.digest: {m.agent_id: True}}
    f.receive(encode_block(said), src=m2.current_address)
    assert f.peers.parked == {}
    assert f.peers.known(m.agent_id) & f.lace.bit_of(said.id)


def test_parked_ids_from_a_members_acks_stay_within_the_cap():
    f, m = agent(0), agent(1)
    form_group(f, [m])
    rng = random.Random(11)
    named = []
    for i in range(1000):
        named.append(frozenset(rng.randbytes(crypto.DIGEST_LEN) for _ in range(20)))
        ack = b.new_block(KP[1], m.current_address, b.Ack(named[-1]))
        f.receive(encode_block(ack), src=m.current_address)
    assert len(f.peers.parked) == PARKED_CAP
    # The oldest went first: the digests of the last acks are all still there.
    assert set().union(*named[-(PARKED_CAP // 20) :]) <= set(f.peers.parked)
    assert not named[0] & set(f.peers.parked)


def test_invite_acked_with_invite_id():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.address_hints[m.agent_id] = m.current_address
    f.invite(m.agent_id, gid)
    sends = f.tick()
    # invite dissemination carries genesis first, then invite, each in
    # EAGER_COPIES copies
    to_m = [blk for dst, blk in sends if dst == m.current_address]
    assert [type(blk.payload) for blk in to_m] == [b.Group] * EAGER_COPIES + [
        b.Invite
    ] * EAGER_COPIES
    genesis, invite = to_m[0], to_m[-1]
    m.receive(encode_block(genesis), src=f.current_address)
    out = deliver(m, encode_block(invite), src=f.current_address)
    (ack,) = [blk for _, blk in out if isinstance(blk.payload, b.Ack)]
    assert ack.payload.named == digests([invite.id])


def test_invite_resent_until_acked():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.address_hints[m.agent_id] = m.current_address
    f.invite(m.agent_id, gid)
    invite = f.last_uttered
    first_offer = f.tick()

    def resent_at(ticks):
        return [t for t in ticks if any(blk.id == invite.id for _, blk in f.tick())]

    # EAGER_COPIES copies in the round of the offer, then one every GAP
    # ticks.
    assert [blk.id for _, blk in first_offer if blk.id == invite.id] == [invite.id] * EAGER_COPIES
    assert resent_at(range(1, 3 * GAP)) == [GAP, 2 * GAP]
    pump([f, m], first_offer, f)  # delivery + ack
    assert resent_at(range(3 * GAP, 6 * GAP)) == []
    assert not f.retransmit.armed()


def test_dissemination_reaches_all_members_not_strangers():
    f, m1, m2 = agent(0), agent(1), agent(2)
    stranger = agent(3)
    gid = form_group(f, [m1, m2])
    everyone = [f, m1, m2, stranger]
    m1.say_group(gid, b"to the room")
    pump(everyone, m1.tick(), m1)
    for x in (f, m1, m2):
        pump(everyone, x.tick(), x)
    said = m1.last_uttered
    assert said.id in f.lace and said.id in m2.lace
    assert len(stranger.lace) == 0
    assert f.members_of(gid) == m1.members_of(gid) == m2.members_of(gid)


def test_member_matches_compute_member():
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1])
    everyone = [f, m1, m2]
    f.address_hints[m2.agent_id] = m2.current_address
    f.invite(m2.agent_id, gid)
    pump(everyone, f.tick(), f)
    m2.accept(gid)
    pump(everyone, m2.tick(), m2)
    for x in everyone:
        pump(everyone, x.tick(), x)
    for holder in everyone:
        for q in (f, m1, m2):
            assert holder.member(q.agent_id, gid) == compute_member(
                holder.lace, q.agent_id, gid
            )


@pytest.mark.parametrize("name", [n for n in canned.CANNED if n.startswith("wl_")])
def test_group_tables_match_first_principles_in_canned_runs(name):
    # The groups, members and partitions each correct agent indexes as
    # blocks land equal those derived from its final blocklace.
    scenario = canned.CANNED[name](seed=1)
    result = run_scenario(scenario)
    roster = [wrapper.inner.agent_id for wrapper in result.wrappers.values()]
    checked = 0
    for spec in scenario.agents:
        if spec.role != "correct":
            continue
        holder = result.wrappers[spec.name].inner
        geneses = [blk.id for blk in holder.lace.blocks() if is_genesis(blk)]
        assert holder.groups() == geneses
        for gid in geneses:
            assert holder.members_of(gid) == sorted(
                q for q in roster if compute_member(holder.lace, q, gid)
            )
            indexed = holder.lace.blocks_of_mask(holder._partition_bits[gid])
            assert {blk.id for blk in indexed} == {
                blk.id for blk in group_partition(holder.lace, gid)
            }
            checked += 1
    assert checked > 0


def test_transcript_roundtrip_encrypted():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    f.say_group(gid, b"alpha")
    pump([f, m], f.tick(), f)
    m.say_group(gid, b"beta")
    pump([f, m], m.tick(), m)
    for x in (f, m):
        pump([f, m], x.tick(), x)
    for reader in (f, m):
        entries = reader.transcript(gid)
        assert [(text, ok) for _, text, ok in entries] == [(b"alpha", True), (b"beta", True)]
    # ciphertext on the wire: plaintext absent from encoded blocks
    for blk in m.lace.blocks():
        if isinstance(blk.payload, b.Say):
            assert b"alpha" not in encode_block(blk)
    outsider = agent(2)
    with pytest.raises(ProtocolError):
        outsider.transcript(gid)


def test_transcript_plaintext_mode():
    f = agent(0, encrypt=False)
    m = agent(1, encrypt=False)
    gid = form_group(f, [m])
    f.say_group(gid, b"open secret")
    pump([f, m], f.tick(), f)
    assert any(
        b"open secret" in encode_block(blk)
        for blk in m.lace.blocks()
        if isinstance(blk.payload, b.Say)
    )
    assert m.transcript(gid)[0][1] == b"open secret"


def test_inner_signature_attributes_author():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    f.say_group(gid, b"signed words")
    pump([f, m], f.tick(), f)
    said = f.last_uttered
    key = m.group_keys[gid]
    text, ok = open_utterance(key, said, True)
    assert (text, ok) == (b"signed words", True)
    # attributing the same ciphertext to someone else fails the inner check
    imposter = b.Block(id=b.BlockId(m.agent_id, said.id.digest, said.id.signature),
                       address=said.address, payload=said.payload, pointers=said.pointers)
    _, ok = open_utterance(key, imposter, True)
    assert not ok


def test_pending_eviction_bounded(monkeypatch):
    monkeypatch.setattr(peers, "PENDING_CAP", 4)
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    orphans = []
    for i in range(6):
        f.say_group(gid, b"chain-%d" % i)
        orphans.append(f.last_uttered)
    # deliver children without the first parent: all park, oldest evicted
    for blk in orphans[1:]:
        m.receive(encode_block(blk), src=f.current_address)
    assert len(m.pending_blocks()) == 4
    assert m.metrics.pending_evicted == 1
    # A parked copy's credit to its sender leaves with the evicted block.
    assert set(m.peers.parked) == digests(blk.id for blk in m.pending_blocks())


def test_group_partition_unknown_id_empty():
    f = agent(0)
    f.create_group(b"g")
    phantom = b.new_block(KP[5], "w5/0", b.Say(b"ghost"), ())
    assert group_partition(f.lace, phantom.id) == []


def test_two_member_group_is_direct_messaging():
    alice, bob = agent(0), agent(1)
    gid = form_group(alice, [bob], name=b"dm")
    alice.say_group(gid, b"just us")
    pump([alice, bob], alice.tick(), alice)
    assert bob.transcript(gid)[-1][1] == b"just us"
    assert alice.members_of(gid) == bob.members_of(gid)
    assert len(alice.members_of(gid)) == 2
