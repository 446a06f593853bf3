"""The peer-knowledge core (`peers.PeerKnowledge`) under TL's and WL's
credit rules.

Each agent keeps what each peer holds as a mask updated as claims, acks
and arrivals happen.  The references below rebuild that mask from every
claim and disclosure on each use (TL's is the formula TL used to run);
the maintained mask must equal them.
"""

import pytest

from blocklace import blocks as b
from blocklace import crypto, peers
from blocklace.blocks import encode_block
from blocklace.harness import canned
from blocklace.harness.runner import run_scenario
from blocklace.harness.scenario import Event
from blocklace.lace import Blocklace
from blocklace.retransmit import GAP, ROUND_TRIP
from blocklace.tl import TlAgent
from blocklace.wl import WlAgent

from conftest import befriend

KP = [crypto.keygen(f"peers-{i}") for i in range(4)]

TL_CANNED = ["tl_line", "tl_star", "tl_ring", "tl_line_broken", "tl_churn", "tl_forgery"]
WL_CANNED = [
    "wl_group", "wl_dropper", "wl_solo", "wl_churn", "wl_equivocation", "wl_privacy", "wl_partitions"
]


def prefix_as_of(lace: Blocklace, block_id, size: int) -> int:
    """The block's self-chain prefix as it was when the blocklace held
    its first `size` blocks: what `self_mask_of` gave then."""
    if block_id in lace and not lace.self_mask_of(block_id) >> size:
        # Every block of today's prefix was there then, with the same
        # pointers between them.
        return lace.self_mask_of(block_id)
    mask = 0
    stack = [block_id]
    while stack:
        current = stack.pop()
        if current not in lace or lace.bit_of(current) >> size or mask & lace.bit_of(current):
            continue
        mask |= lace.bit_of(current)
        block = lace.get(current)
        stack.extend(ptr for ptr in block.pointers if ptr.creator == block.creator)
    return mask


def reference_knowledge(agent: TlAgent, q, delivered: dict, acked: list) -> int:
    """What q provably holds, rebuilt from scratch: q's own blocks and
    chain, plus credit for every block q pointed at, delivered or
    disclosed.  `delivered` maps the ids q delivered here while holding
    them to the blocklace size at the last delivery, `acked` holds the
    acks from q that the agent admitted with the size at each.

    A credit is fixed when it is made: a claimed or disclosed block earns
    its self-chain prefix as it was then (`prefix_as_of`), at the claim,
    or when the block lands if the claim named it before it did.  A claim
    earns the prefix only if q already followed the block's creator then,
    and else the block alone, which a later follow does not widen.  The
    pointers of q's block are credited before its own follow edge, so they
    count as made at the size before it landed."""
    lace = agent.lace

    def landed_at(block_id) -> int:
        return lace.bit_of(block_id).bit_length()

    follow_at: dict = {}
    claims = dict(delivered)
    for blk in lace.by_creator(q):
        payload = blk.payload
        if isinstance(payload, b.Follow):
            follow_at.setdefault(payload.target, landed_at(blk.id))
        for ptr in blk.pointers:
            claims[ptr] = max(claims.get(ptr, 0), landed_at(blk.id) - 1)

    mask = lace.creator_mask(q)
    for claimed, size in claims.items():
        if claimed not in lace:
            continue
        size = max(size, landed_at(claimed))
        block = lace.get(claimed)
        follow = follow_at.get(block.creator)
        if follow is None or follow > size or (
            isinstance(block.payload, b.Follow) and block.payload.target == q
        ):
            mask |= lace.bit_of(claimed)
        else:
            mask |= prefix_as_of(lace, claimed, size)
    for ack, size in acked:
        named = [lace.by_digest(digest) for digest in ack.payload.named]
        if len(named) == 1:
            (only,) = named
            if (
                only is not None
                and only.creator == agent.agent_id
                and isinstance(only.payload, b.Follow)
                and only.payload.target == q
            ):
                mask |= lace.bit_of(only.id)
                continue
        for disclosed in named:
            if disclosed is not None:
                mask |= prefix_as_of(lace, disclosed.id, max(size, landed_at(disclosed.id)))
    return mask


def wl_joined_as_of(lace: Blocklace, who, genesis, size: int) -> int:
    """The bits of the blocks that made `who` a member of the group of
    `genesis` when the blocklace held its first `size` blocks: the genesis
    it created, or its Accepts of an invite the founder made to it that
    points at the genesis alone."""
    if who == genesis.creator:
        return lace.bit_of(genesis.id)
    bits = 0
    for blk in lace.by_creator(who):
        if lace.bit_of(blk.id).bit_length() > size or not isinstance(blk.payload, b.Accept):
            continue
        if len(blk.pointers) != 1:
            continue
        (invite_id,) = blk.pointers
        invite = lace.get(invite_id)
        if (
            invite.creator == genesis.creator
            and isinstance(invite.payload, b.Invite)
            and invite.payload.target == who
            and invite.pointers == frozenset([genesis.id])
        ):
            bits |= lace.bit_of(blk.id)
    return bits


def wl_reference_knowledge(agent: WlAgent, q, delivered: dict, acked: list) -> int:
    """What q provably holds under WL's rule, rebuilt from scratch: the
    closures of q's own blocks, of the ids q's admitted acks named, and of
    the ids q delivered here while they were held.  A WL blocklace is
    closed, so a closure never grows after its block lands, and when each
    claim was made does not matter.

    A delivered block also vouches for the agent's own membership.  A
    member sends a group's blocks only to the members it knows, but for the
    genesis and the invites, which reach an invitee before it joins.  So a
    block of group g other than those, in the blocklace at its last
    delivery from q, while the agent and q were both members of g, earns
    q the closures of the blocks that made the agent a member of g then.
    Membership only grows, so the last delivery earns the most."""
    lace = agent.lace
    me = agent.agent_id
    named = set(delivered)
    for ack, _ in acked:
        named |= {blk.id for blk in map(lace.by_digest, ack.payload.named) if blk is not None}
    mask = 0
    for blk in lace.by_creator(q):
        mask |= lace.mask_of(blk.id)
    for block_id in named:
        mask |= lace.mask_of(block_id)
    for block_id, size in delivered.items():
        if block_id not in lace or lace.bit_of(block_id).bit_length() > size:
            continue
        geneses = [
            blk
            for blk in lace.blocks_of_mask(lace.mask_of(block_id))
            if isinstance(blk.payload, b.Group) and not blk.pointers
        ]
        if len(geneses) != 1 or geneses[0].id == block_id:
            continue
        payload = lace.get(block_id).payload
        if isinstance(payload, b.Invite) and payload.target == me:
            continue
        (genesis,) = geneses
        mine = wl_joined_as_of(lace, me, genesis, size)
        if mine and wl_joined_as_of(lace, q, genesis, size):
            for blk in lace.blocks_of_mask(mine):
                mask |= lace.mask_of(blk.id)
    return mask


def assert_maintained_masks_match(monkeypatch, cls, builder, reference, peers_of) -> None:
    """Run `builder` at seeds 1-3 and, before every `disseminate` of a
    `cls` agent, assert each of its peers' maintained mask equals
    `reference(agent, q, delivered, acked)`.  Delivered claims are
    recorded per (agent, contact) where the agent credits them: every
    contact at the delivering address; and the acks the agent files, per
    (agent, ack creator).  Each is recorded with the agent's blocklace
    size at that moment."""
    delivered: dict[tuple[int, bytes], dict] = {}
    acked: dict[tuple[int, bytes], list] = {}
    credit_delivery = cls._credit_delivery
    record_ack = cls._record_ack
    disseminate = cls.disseminate
    checks = 0

    def record(self, block, src):
        if self._holds(block.id):
            for q in self._contacts_at(src):
                delivered.setdefault((id(self), q), {})[block.id] = len(self.lace)
        return credit_delivery(self, block, src)

    def record_acked(self, ack):
        acked.setdefault((id(self), ack.creator), []).append((ack, len(self.lace)))
        return record_ack(self, ack)

    def check(self):
        nonlocal checks
        for q in peers_of(self):
            expected = reference(
                self, q, delivered.get((id(self), q), {}), acked.get((id(self), q), [])
            )
            assert self.peers.known(q) == expected
            checks += 1
        return disseminate(self)

    monkeypatch.setattr(cls, "_credit_delivery", record)
    monkeypatch.setattr(cls, "_record_ack", record_acked)
    monkeypatch.setattr(cls, "disseminate", check)
    for seed in (1, 2, 3):
        delivered.clear()
        acked.clear()
        result = run_scenario(builder(seed=seed))
        assert all(
            w.inner.metrics.pending_evicted == 0 for w in result.wrappers.values()
        )
    assert checks > 0


def tl_late_friend(seed: int = 0):
    """tl_line where e, which follows a, befriends b late.  e's offer to b
    names a's Says before b holds e's Follow of a, so b credits those
    claims alone, and e's Follow landing later does not widen them."""
    scenario = canned.tl_line(seed, utterances=12)
    late = [
        Event(40, "e", {"cmd": "follow", "target": "b"}),
        Event(42, "b", {"cmd": "follow", "target": "e"}),
    ]
    scenario.events = sorted(scenario.events + late, key=lambda e: e.tick)
    scenario.bootstrap = scenario.bootstrap + [("e", "b"), ("b", "e")]
    return scenario


TL_RUNS = {**{name: getattr(canned, name) for name in TL_CANNED}, "tl_late_friend": tl_late_friend}


@pytest.mark.parametrize("name", TL_RUNS)
def test_maintained_mask_matches_rebuild_in_canned_runs(name, monkeypatch):
    assert_maintained_masks_match(
        monkeypatch,
        TlAgent,
        TL_RUNS[name],
        reference_knowledge,
        lambda agent: agent.known_agents(),
    )


@pytest.mark.parametrize("name", WL_CANNED)
def test_wl_maintained_mask_matches_rebuild_in_canned_runs(name, monkeypatch):
    # A creator's own blocks are credited where WL indexes them, so this
    # also checks that no block reaches the blocklace unindexed.
    assert_maintained_masks_match(
        monkeypatch,
        WlAgent,
        getattr(canned, name),
        wl_reference_knowledge,
        lambda agent: list(agent._contacts),
    )


def tl(i):
    return TlAgent(KP[i], f"p{i}/0")


def chain(kp, n, address="d/0"):
    """n blocks by one creator, each pointing at the one before."""
    out = []
    for i in range(n):
        pointers = [out[-1].id] if out else []
        out.append(b.new_block(kp, address, b.Say(b"%d" % i), pointers))
    return out


def bits(lace: Blocklace, blocks_list) -> int:
    mask = 0
    for blk in blocks_list:
        mask |= lace.bit_of(blk.id)
    return mask


def test_claim_before_follow_stays_credited_alone():
    # c claimed x[1] before it followed d, which earned x[1] alone.  The
    # Follow, which names x[1] too, lands and does not widen that credit,
    # since a block's pointers are credited before its follow edge; c
    # naming x[1] again does.
    me, c, d = tl(0), KP[1], KP[2]
    x = chain(d, 2)
    for blk in x:
        me.receive(encode_block(blk))
    claim = b.new_block(c, "c/0", b.Say(b"seen"), [x[1].id])
    me.receive(encode_block(claim))
    known = me.peers.known(c.agent_id)
    assert known & bits(me.lace, x) == me.lace.bit_of(x[1].id)
    follow = b.new_block(c, "c/0", b.Follow(d.agent_id), [claim.id, x[1].id])
    me.receive(encode_block(follow))
    assert me.follows(c.agent_id, d.agent_id)
    assert me.peers.known(c.agent_id) & bits(me.lace, x) == me.lace.bit_of(x[1].id)
    again = b.new_block(c, "c/0", b.Say(b"again"), [follow.id, x[1].id])
    me.receive(encode_block(again))
    assert me.peers.known(c.agent_id) & bits(me.lace, x) == bits(me.lace, x)


def test_offer_to_the_claimant_stays_credited_alone():
    me, c, d = tl(0), KP[1], KP[2]
    base = b.new_block(d, "d/0", b.Say(b"before"), [])
    offer = b.new_block(d, "d/0", b.Follow(c.agent_id), [base.id])
    me.receive(encode_block(base))
    me.receive(encode_block(offer))
    claim = b.new_block(c, "c/0", b.Follow(d.agent_id), [offer.id])
    me.receive(encode_block(claim))
    known = me.peers.known(c.agent_id)
    assert known & me.lace.bit_of(offer.id)
    assert not known & me.lace.bit_of(base.id)


def test_credit_stays_as_made_until_the_next_ack():
    # A credit is fixed when it is made: the claim of x[2] earned x[2]'s
    # self-chain prefix as it was then, and x[0] landing later does not
    # widen it.  c's next vouched ack of d's head credits the whole prefix.
    me, c, d = tl(0), KP[1], KP[2]
    x = chain(d, 3)
    me.receive(encode_block(x[1]))
    me.receive(encode_block(x[2]))
    follow = b.new_block(c, "c/0", b.Follow(d.agent_id), [])
    claim = b.new_block(c, "c/0", b.Say(b"seen"), [follow.id, x[2].id])
    me.receive(encode_block(follow))
    me.receive(encode_block(claim))
    known = me.peers.known(c.agent_id)
    assert known & bits(me.lace, x[1:]) == bits(me.lace, x[1:])
    me.receive(encode_block(x[0]))
    assert me.lace.self_mask_of(x[2].id) == bits(me.lace, x)
    assert me.peers.known(c.agent_id) & bits(me.lace, x) == bits(me.lace, x[1:])
    ack = b.new_block(c, "c/0", b.Ack(frozenset([x[2].id.digest])))
    me.receive(encode_block(ack))
    assert me.peers.known(c.agent_id) & bits(me.lace, x) == bits(me.lace, x)


def test_absent_claim_is_parked_until_it_lands():
    me, c, d = tl(0), KP[1], KP[2]
    x = chain(d, 1)
    claim = b.new_block(c, "c/0", b.Say(b"seen"), [x[0].id])
    me.receive(encode_block(claim))
    assert me.peers.parked == {x[0].id.digest: {c.agent_id: False}}
    me.receive(encode_block(x[0]))
    assert me.peers.parked == {}
    assert me.peers.known(c.agent_id) & me.lace.bit_of(x[0].id)


def test_ack_naming_an_impostors_digest_does_not_credit_the_victim():
    # An impostor signs a body identical to me's Say under its own key.
    # c's ack naming the impostor's digest credits nothing here, so the
    # Say's timer to c keeps running; the ack naming the Say's digest stops
    # it.
    me, c = tl(0), tl(1)
    befriend(me, c)
    me.say(b"mine")
    said = me.last_uttered
    assert (c.current_address, said) in me.tick()
    impostor = b.new_block(KP[2], said.address, said.payload, said.pointers)
    assert impostor.id.digest != said.id.digest
    forged = b.new_block(c.kp, c.current_address, b.Ack(frozenset([impostor.id.digest])))
    me.receive(encode_block(forged), src=c.current_address)
    assert not me.peers.known(c.agent_id) & me.lace.bit_of(said.id)
    resent = [blk for _ in range(ROUND_TRIP) for dst, blk in me.tick() if dst == c.current_address]
    assert said in resent
    ack = b.new_block(c.kp, c.current_address, b.Ack(frozenset([said.id.digest])))
    me.receive(encode_block(ack), src=c.current_address)
    assert me.peers.known(c.agent_id) & me.lace.bit_of(said.id)
    assert not [blk for _ in range(2 * GAP) for dst, blk in me.tick() if blk == said]


def test_copy_from_a_hinted_followee_is_its_claim():
    # c is followed and known only by its bootstrap hint: no block of c's
    # is here to give its address.  A stranger's block relayed from that
    # address still counts as c's claim of it.
    me, c, d = tl(0), KP[1], KP[2]
    me.address_hints[c.agent_id] = "p1/0"
    me.follow(c.agent_id)
    (x,) = chain(d, 1)
    me.receive(encode_block(x), src="p1/0")
    assert me.peers.known(c.agent_id) & me.lace.bit_of(x.id)


def test_eviction_drops_waiters_and_parked_credit(monkeypatch):
    monkeypatch.setattr(peers, "PENDING_CAP", 2)
    f, m = tl(0), KP[1]
    f.follow(m.agent_id)
    f.address_hints[m.agent_id] = "p1/0"
    x = chain(m, 5, address="p1/0")
    for blk in x[1:]:
        f.receive(encode_block(blk), src="p1/0")
    assert f.metrics.pending_evicted == 2
    pending = {blk.id for blk in f.pending_blocks()}
    assert pending == {x[3].id, x[4].id}
    assert {w for waiters in f._pending_on.values() for w in waiters} == pending
    # Copies of pending blocks are their sender's claims, parked until
    # they land, and leave with the evicted blocks.
    assert set(f.peers.parked) == {block_id.digest for block_id in pending}


def test_stranger_chain_costs_linear_self_mask_calls(monkeypatch):
    # A stranger's blocks are stored as they come, so a chain delivered
    # head first lands out of order.  Both orders stay linear in calls.
    calls = 0
    self_mask_of = Blocklace.self_mask_of

    def counted(self, block_id):
        nonlocal calls
        calls += 1
        return self_mask_of(self, block_id)

    monkeypatch.setattr(Blocklace, "self_mask_of", counted)
    n = 500
    blocks_list = chain(KP[3], n, address="s/0")
    for order in (blocks_list, blocks_list[::-1]):
        calls = 0
        me = tl(0)
        for blk in order:
            me.receive(encode_block(blk), src="s/0")
            me.tick()
        assert len(me.lace) == n
        assert calls <= 4 * n


def test_wl_credit_is_the_whole_closure():
    f = WlAgent(KP[0], "w0/0", encrypt=True)
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.say_group(gid, b"one")
    said = f.last_uttered.id
    f.peers.credit(KP[1].agent_id, [said.digest])
    assert f.peers.known(KP[1].agent_id) == f.lace.mask_of(said)
