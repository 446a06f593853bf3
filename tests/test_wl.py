import random

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.blocks import encode_block
from blocklace.tl import ProtocolError
from blocklace.wl import (
    WlAgent,
    WlConfig,
    compute_member,
    group_partition,
    open_utterance,
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
    assert m.structure_violations() == []
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
    assert not [blk for _, blk in out if isinstance(blk.payload, b.Ack)]  # no ack while pending
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
    assert m.structure_violations() == []


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
    # The round resends the own backlog; the relayed news was its one
    # backup copy for this tick.
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


def test_identical_ack_sent_once_per_destination_per_tick():
    f, m1, m2 = agent(0), agent(1), agent(2)
    gid = form_group(f, [m1, m2])
    f.say_group(gid, b"twice")
    wire = encode_block(f.last_uttered)
    sent_before = m1.metrics.acks_sent

    def acks(sends):
        return [(dst, blk) for dst, blk in sends if isinstance(blk.payload, b.Ack)]

    (first,) = acks(m1.receive(wire, src=f.current_address))
    assert acks(m1.receive(wire, src=f.current_address)) == []
    # Another deliverer of the same block gets its own ack.
    assert acks(m1.receive(wire, src=m2.current_address)) == [
        (m2.current_address, first[1])
    ]
    m1.tick()
    assert acks(m1.receive(wire, src=f.current_address)) == [first]
    assert m1.metrics.acks_sent - sent_before == 3


def test_acks_from_strangers_are_dropped():
    f, m = agent(0), agent(1)
    gid = form_group(f, [m])
    rng = random.Random(7)

    def random_id():
        return b.BlockId(rng.randbytes(crypto.AGENT_ID_LEN), rng.randbytes(crypto.DIGEST_LEN))

    log_before = list(f.ack_log)
    for i in range(50):
        pointers = [random_id() for _ in range(20)]
        ack = b.new_block(KP[3], f"w3/{i}", b.Ack(), pointers)
        assert f.receive(encode_block(ack), src="w3/0") == []
    assert f.ack_log == log_before
    assert f._disclosed_parked == {}

    f.say_group(gid, b"hello")
    sends = m.receive(encode_block(f.last_uttered), src=f.current_address)
    (ack,) = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    f.receive(encode_block(ack), src=m.current_address)
    assert f.ack_log[-1] == ack
    # A member's ack naming an id not here yet is parked for it.
    absent = random_id()
    f.receive(encode_block(b.new_block(KP[1], m.current_address, b.Ack(), [absent])))
    assert f._disclosed_parked == {absent: {m.agent_id}}


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
    assert set(m._disclosed_parked) == {blk.id for blk in m.pending_blocks()}


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
