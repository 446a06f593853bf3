import random

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.blocks import encode_block
from blocklace.harness import canned
from blocklace.harness.runner import run_scenario
from blocklace.lace import Blocklace
from blocklace.peers import PARKED_CAP, ProtocolError
from blocklace.retransmit import REPAIR_AFTER
from blocklace.wl import (
    WlAgent,
    WlConfig,
    compute_member,
    group_partition,
    is_genesis,
    open_utterance,
    partition_violations,
)

KP = [crypto.keygen(f"wl-{i}") for i in range(6)]


def agent(i, **cfg):
    return WlAgent(KP[i], f"w{i}/0", WlConfig(**cfg) if cfg else None)


def pump(agents, sends, src_agent):
    queue = [(src_agent.current_address, dst, encode_block(blk)) for dst, blk in sends]
    while queue:
        src, dst, payload = queue.pop(0)
        target = next((a for a in agents if a.current_address == dst), None)
        if target is None:
            continue
        out = target.receive(payload, src)
        queue.extend((target.current_address, d, encode_block(blk)) for d, blk in out)


def form_group(founder, members, name=b"room"):
    """Create a group and run the whole invite/accept dance perfectly."""
    everyone = [founder] + members
    founder.create_group(name)
    gid = founder.last_uttered.id
    for member in members:
        founder.address_hints[member.agent_id] = member.current_address
        pump(everyone, founder.invite(member.agent_id, gid), founder)
        pump(everyone, member.accept(gid), member)
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
    assert p1 | p2 == f.lace.ids()


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
    pump([f, m, imp], f.invite(imp.agent_id, gid), f)  # imp gets genesis+invite
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
    pump([f, m], f.invite(m.agent_id, gid), f)
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
            if g.is_initial() and m.lace.observes(blk, g)
        ]
        assert len(geneses) == 1


def test_say_requires_membership():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    with pytest.raises(ProtocolError):
        m.say_group(gid, b"not in yet")
    f.address_hints[m.agent_id] = m.current_address
    pump([f, m], f.invite(m.agent_id, gid), f)
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
    pump([f, m], f.say_group(gid, b"topic"), f)
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
    out = m.receive(encode_block(second), src=f.current_address)
    assert second.id not in m.lace
    assert second.id in {blk.id for blk in m.pending_blocks()}
    # No ack while pending: none of its pointers is here to name a group.
    assert not [blk for _, blk in out if isinstance(blk.payload, b.Ack)]
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
    pump([f, m], f.invite(m.agent_id, g1), f)
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
    sends = m.receive(encode_block(f.last_uttered), src=f.current_address)
    (ack,) = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    partition = m.partition_ids(gid)
    assert ack.pointers <= partition
    assert not ack.pointers & m.partition_ids(gid2)


def test_receive_forwards_only_landed_blocks():
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    m1.say_group(gid, b"backlog")  # sent, never delivered
    backlog = m1.last_uttered
    f.say_group(gid, b"news")
    news = f.last_uttered
    sends = m1.receive(encode_block(news), src=f.current_address)
    forwarded = [(dst, blk.id) for dst, blk in sends if not isinstance(blk.payload, b.Ack)]
    assert forwarded == [(m2.current_address, news.id)]
    # The round resends the own backlog; the relayed news went out once,
    # on arrival, and is resent only to repair a loss a nack reveals.
    assert {blk.id for _, blk in m1.tick()} == {backlog.id}


def test_pending_drain_forwards_every_landed_block():
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    f.say_group(gid, b"one")
    first = f.last_uttered
    f.say_group(gid, b"two")
    second = f.last_uttered
    assert m1.receive(encode_block(second), src=f.current_address) == []
    sends = m1.receive(encode_block(first), src=f.current_address)
    forwarded = [(dst, blk.id) for dst, blk in sends if not isinstance(blk.payload, b.Ack)]
    assert forwarded == [(m2.current_address, first.id), (m2.current_address, second.id)]


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
    m1.tick()  # a new ack dedup window
    ((dst, nack),) = acks(m1.receive(encode_block(both), src=f.current_address))
    assert both.id in {blk.id for blk in m1.pending_blocks()}
    assert dst == f.current_address
    assert nack.pointers == m1.partition_tips(gid)
    assert m1.metrics.nacks_sent == 1
    # Delivered again while still parked: the same ack, deduplicated in
    # this tick and sent again in the next.
    assert acks(m1.receive(encode_block(both), src=f.current_address)) == []
    m1.tick()
    assert acks(m1.receive(encode_block(both), src=f.current_address)) == [(dst, nack)]
    assert m1.metrics.nacks_sent == 2
    # A relay's copy parks too and draws the same nack, to the relay.
    m1.tick()
    assert acks(m1.receive(encode_block(both), src=m2.current_address)) == [
        (m2.current_address, nack)
    ]
    assert m1.metrics.nacks_sent == 3
    # Without a source address there is no deliverer to nack.
    m1.tick()
    assert acks(m1.receive(encode_block(both))) == []


def test_parked_block_not_acked_without_a_group_of_this_agent():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.address_hints[m.agent_id] = m.current_address
    pump([f, m], f.invite(m.agent_id, gid), f)  # m is invited, not a member
    invite = f.last_uttered
    f.invite(agent(2).agent_id, gid)  # never reaches m
    f.say_group(gid, b"after")
    after = f.last_uttered
    # after's present pointer, m's invite, observes a group m has not joined.
    assert invite.id in after.pointers and len(after.pointers) == 2
    m.tick()  # a new ack dedup window
    out = m.receive(encode_block(after), src=f.current_address)
    assert after.id in {blk.id for blk in m.pending_blocks()}
    assert acks(out) == []
    # No pointer here at all.
    g, n = agent(2), agent(3)
    gid2 = form_group(g, [n])
    g.say_group(gid2, b"one")
    g.say_group(gid2, b"two")
    assert acks(n.receive(encode_block(g.last_uttered), src=g.current_address)) == []
    assert m.metrics.nacks_sent == n.metrics.nacks_sent == 0


def test_lost_relay_copy_is_repaired_on_a_nack():
    # m2 withholds its say from m1, and f's one relay copy to m1 is lost.
    # f knows m2 holds m1's Accept, so its copy was a second path and has
    # no backstop: only f's next block, which points at the say and at
    # m1's own and parks at m1, shows f what is missing.
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    m2.say_group(gid, b"withheld")
    said = m2.last_uttered
    lost = f.receive(encode_block(said), src=m2.current_address)
    assert (m1.current_address, said.id) in {(dst, blk.id) for dst, blk in lost}
    assert f.retransmit.armed() == 0
    m1.say_group(gid, b"mine")
    f.receive(encode_block(m1.last_uttered), src=m1.current_address)
    for _ in range(REPAIR_AFTER):  # no nack, so no repair
        assert said.id not in {blk.id for _, blk in f.tick()}
    f.say_group(gid, b"after")
    after = f.last_uttered
    assert said.id in after.pointers
    m1.tick()  # a new ack dedup window
    ((_, nack),) = acks(m1.receive(encode_block(after), src=f.current_address))
    assert after.id not in m1.lace
    f.receive(encode_block(nack), src=m1.current_address)
    repaired = [blk for dst, blk in f.tick() if dst == m1.current_address]
    assert said.id in {blk.id for blk in repaired}
    # The round's copies to m1 land and release the parked block.
    for blk in repaired:
        m1.receive(encode_block(blk), src=f.current_address)
    assert after.id in m1.lace


def deliver_losing(agents, sends, src_agent, lost):
    """Deliver `sends` from `src_agent` and everything they spawn, in
    order, except that the first copy of each (destination agent, block
    id) in the set `lost` is dropped (and removed from it)."""
    queue = [(src_agent, dst, blk) for dst, blk in sends]
    while queue:
        src, dst, blk = queue.pop(0)
        target = next((a for a in agents if a.current_address == dst), None)
        if target is None or (target, blk.id) in lost:
            lost.discard((target, blk.id))
            continue
        out = target.receive(encode_block(blk), src.current_address)
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
        pump(everyone, f.invite(m.agent_id, gid), f)
    sends = {m: m.accept(gid) for m in (m1, m2)}
    lost = {(m1, m2.last_uttered.id), (m2, m1.last_uttered.id)}
    for m in (m1, m2):
        deliver_losing(everyone, sends[m], m, lost)
    for a in everyone:
        deliver_losing(everyone, a.tick(), a, lost)
    assert not lost
    sends = m2.say_group(gid, b"last word")
    said = m2.last_uttered
    assert {dst for dst, _ in sends} == {f.current_address}
    lost = {(m1, said.id)} if say_lost else set()
    deliver_losing(everyone, sends, m2, lost)
    assert not lost
    assert said.id not in m1.lace and f.retransmit.armed() > 0
    for _ in range(4 * REPAIR_AFTER):
        for a in everyone:
            deliver_losing(everyone, a.tick(), a, set())
    assert said.id in m1.lace
    assert m1.member(m2.agent_id, gid) and m2.member(m1.agent_id, gid)
    # Quiescent: nothing is owed any more.
    assert [a.retransmit.armed() for a in everyone] == [0, 0, 0]


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
            pump(everyone, f.invite(m.agent_id, gids[name]), f)
    for m in (c, q):
        pump(everyone, m.accept(gids[b"two"]), m)
    for a in everyone:
        pump(everyone, a.tick(), a)
    assert c.member(q.agent_id, gids[b"two"])
    pump(everyone, c.accept(gids[b"one"]), c)
    sends = q.accept(gids[b"one"])
    lost = {(c, q.last_uttered.id)}  # f's copy
    deliver_losing(everyone, sends, q, lost)
    assert not lost and not c.member(q.agent_id, gids[b"one"])
    sends = c.say_group(gids[b"one"], b"to f")
    assert {dst for dst, _ in sends} == {f.current_address}
    armed = f.retransmit.armed()
    said = c.last_uttered
    relayed = f.receive(encode_block(said), src=c.current_address)
    assert (q.current_address, said.id) in {(dst, blk.id) for dst, blk in relayed}
    assert f.retransmit.armed() == armed + 1
    # The say does not observe q's Accept in "one", so q acks f's copy,
    # and the ack takes the copy off its backstop.
    for _ in range(2):  # c's Accept in "one", which q lacks, then its ack
        pump(everyone, f.tick(), f)
    assert f.retransmit.armed() == 1
    ((dst, ack),) = acks(q.receive(encode_block(said), src=f.current_address))
    assert dst == f.current_address
    f.receive(encode_block(ack), src=q.current_address)
    f.tick()
    assert f.retransmit.armed() == 0


def test_nacks_counted_in_report_not_trace():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    f.say_group(gid, b"missed")
    m.say_group(gid, b"mine")
    f.receive(encode_block(m.last_uttered), src=m.current_address)
    f.say_group(gid, b"both")  # parks at m, which lacks "missed"
    assert m.metrics.nacks_sent == 0
    m.receive(encode_block(f.last_uttered), src=f.current_address)
    assert m.metrics.nacks_sent == 1
    result = run_scenario(canned.wl_group(seed=0))
    metrics = result.report["agent_metrics"]
    assert metrics and all("nacks_sent" in m for m in metrics.values())
    assert "nacks_sent" not in result.trace_text


def test_identical_ack_sent_once_per_destination_per_tick():
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    f.say_group(gid, b"twice")
    wire = encode_block(f.last_uttered)
    sent_before = m1.metrics.acks_sent

    (first,) = acks(m1.receive(wire, src=f.current_address))
    assert acks(m1.receive(wire, src=f.current_address)) == []
    # An address where no member is known gets its own ack.
    assert acks(m1.receive(wire, src="w9/0")) == [("w9/0", first[1])]
    # m2's copy gets none: the say observes m1's Accept, so m2 knows f
    # sends it to m1 too and keeps no timer for its own copy.
    assert acks(m1.receive(wire, src=m2.current_address)) == []
    m1.tick()
    assert acks(m1.receive(wire, src=m2.current_address)) == []
    assert acks(m1.receive(wire, src=f.current_address)) == [first]
    assert m1.metrics.acks_sent - sent_before == 3


def test_covered_relay_copy_not_acked_as_it_lands():
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    f.say_group(gid, b"news")
    said = f.last_uttered
    armed = m2.retransmit.armed()
    relayed = m2.receive(encode_block(said), src=f.current_address)
    assert (m1.current_address, said.id) in {(dst, blk.id) for dst, blk in relayed}
    assert m2.retransmit.armed() == armed  # no timer on m2's copy
    assert acks(m1.receive(encode_block(said), src=m2.current_address)) == []
    assert said.id in m1.lace
    # The creator's copy of the same block is acked, to stop its timer.
    ((dst, _),) = acks(m1.receive(encode_block(said), src=f.current_address))
    assert dst == f.current_address


def test_acks_from_strangers_are_dropped():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    rng = random.Random(7)

    def random_id():
        return b.BlockId(rng.randbytes(crypto.AGENT_ID_LEN), rng.randbytes(crypto.DIGEST_LEN))

    for i in range(50):
        pointers = [random_id() for _ in range(20)]
        ack = b.new_block(KP[3], f"w3/{i}", b.Ack(), pointers)
        assert f.receive(encode_block(ack), src="w3/0") == []
    assert f.peers.known(KP[3].agent_id) == 0
    assert f.peers.parked == {}

    f.say_group(gid, b"hello")
    sends = m.receive(encode_block(f.last_uttered), src=f.current_address)
    (ack,) = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    assert not f.peers.known(m.agent_id) & f.lace.bit_of(f.last_uttered.id)
    f.receive(encode_block(ack), src=m.current_address)
    for named in ack.pointers:
        assert f.peers.known(m.agent_id) & f.lace.bit_of(named)
    assert f.peers.parked == {}
    # A member's ack naming an id not here yet is parked for it.
    absent = random_id()
    f.receive(encode_block(b.new_block(KP[1], m.current_address, b.Ack(), [absent])))
    assert f.peers.parked == {absent: {m.agent_id: True}}


def test_parked_ids_from_a_members_acks_stay_within_the_cap():
    f, m = agent(0), agent(1)
    form_group(f, [m])
    rng = random.Random(11)
    named = []
    for i in range(1000):
        pointers = [
            b.BlockId(rng.randbytes(crypto.AGENT_ID_LEN), rng.randbytes(crypto.DIGEST_LEN))
            for _ in range(20)
        ]
        named.append(set(pointers))
        ack = b.new_block(KP[1], m.current_address, b.Ack(), pointers)
        f.receive(encode_block(ack), src=m.current_address)
    assert len(f.peers.parked) == PARKED_CAP
    # The oldest went first: the ids of the last acks are all still there.
    assert set().union(*named[-(PARKED_CAP // 20) :]) <= set(f.peers.parked)
    assert not named[0] & set(f.peers.parked)


def test_invite_acked_with_invite_id():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.address_hints[m.agent_id] = m.current_address
    sends = f.invite(m.agent_id, gid)
    # invite dissemination carries genesis first, then invite
    to_m = [blk for dst, blk in sends if dst == m.current_address]
    assert [type(blk.payload) for blk in to_m] == [b.Group, b.Invite]
    m.receive(encode_block(to_m[0]), src=f.current_address)
    out = m.receive(encode_block(to_m[1]), src=f.current_address)
    (ack,) = [blk for _, blk in out if isinstance(blk.payload, b.Ack)]
    assert ack.pointers == frozenset([to_m[1].id])


def test_invite_resent_until_acked():
    f, m = agent(0), agent(1)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.address_hints[m.agent_id] = m.current_address
    first_offer = f.invite(m.agent_id, gid)
    invite = f.last_uttered

    def resent_at(ticks):
        return [t for t in ticks if any(blk.id == invite.id for _, blk in f.tick())]

    # The same tick's round, then +1, +3, +7 and every 4 ticks.
    assert resent_at(range(12)) == [0, 1, 3, 7, 11]
    pump([f, m], first_offer, f)  # delivery + ack
    assert resent_at(range(12, 24)) == []
    assert f.retransmit.armed() == 0


def test_dissemination_reaches_all_members_not_strangers():
    f, m1, m2 = agent(0), agent(1), agent(2)
    stranger = agent(3)
    gid = form_group(f, [m1, m2])
    everyone = [f, m1, m2, stranger]
    pump(everyone, m1.say_group(gid, b"to the room"), m1)
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
    pump(everyone, f.invite(m2.agent_id, gid), f)
    pump(everyone, m2.accept(gid), m2)
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
            assert holder.partition_ids(gid) == {
                blk.id for blk in group_partition(holder.lace, gid)
            }
            checked += 1
    assert checked > 0


def test_transcript_roundtrip_encrypted():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    pump([f, m], f.say_group(gid, b"alpha"), f)
    pump([f, m], m.say_group(gid, b"beta"), m)
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
    pump([f, m], f.say_group(gid, b"open secret"), f)
    assert any(
        b"open secret" in encode_block(blk)
        for blk in m.lace.blocks()
        if isinstance(blk.payload, b.Say)
    )
    assert m.transcript(gid)[0][1] == b"open secret"


def test_inner_signature_attributes_author():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    pump([f, m], f.say_group(gid, b"signed words"), f)
    said = f.last_uttered
    key = m.group_keys[gid]
    text, ok = open_utterance(key, said, True)
    assert (text, ok) == (b"signed words", True)
    # attributing the same ciphertext to someone else fails the inner check
    imposter = b.Block(id=b.BlockId(m.agent_id, said.id.digest, said.id.signature),
                       address=said.address, payload=said.payload, pointers=said.pointers)
    _, ok = open_utterance(key, imposter, True)
    assert not ok


def test_pending_eviction_bounded():
    f = agent(0)
    m = WlAgent(KP[1], "w1/0", WlConfig(pending_cap=4))
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
    assert set(m.peers.parked) == {blk.id for blk in m.pending_blocks()}


def test_group_partition_unknown_id_empty():
    f = agent(0)
    f.create_group(b"g")
    phantom = b.new_block(KP[5], "w5/0", b.Say(b"ghost"), ())
    assert group_partition(f.lace, phantom.id) == []


def test_two_member_group_is_direct_messaging():
    alice, bob = agent(0), agent(1)
    gid = form_group(alice, [bob], name=b"dm")
    pump([alice, bob], alice.say_group(gid, b"just us"), alice)
    assert bob.transcript(gid)[-1][1] == b"just us"
    assert alice.members_of(gid) == bob.members_of(gid)
    assert len(alice.members_of(gid)) == 2
