"""The peer-knowledge core (`peers.PeerKnowledge`) under TL's and WL's
credit rules.

Each agent keeps what each peer holds as a mask updated as claims, acks
and arrivals happen.  The references below rebuild that mask from every
claim and disclosure on each use (TL's is the formula TL used to run);
the maintained mask must equal them.
"""

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.blocks import encode_block
from blocklace.harness import canned
from blocklace.harness.runner import run_scenario
from blocklace.lace import Blocklace
from blocklace.tl import TlAgent
from blocklace.wl import WlAgent, WlConfig

KP = [crypto.keygen(f"peers-{i}") for i in range(4)]

TL_CANNED = ["tl_line", "tl_star", "tl_ring", "tl_line_broken", "tl_churn", "tl_forgery"]
WL_CANNED = [
    "wl_group", "wl_dropper", "wl_solo", "wl_churn", "wl_equivocation", "wl_privacy", "wl_partitions"
]


def reference_knowledge(agent: TlAgent, q, delivered: set, acked: list) -> int:
    """What q provably holds, rebuilt from scratch: q's own blocks and
    chain, plus credit for every block q pointed at, delivered or
    disclosed.  `delivered` holds the ids q delivered here while holding
    them, `acked` the acks from q that the agent admitted."""
    lace = agent.lace
    claims = set(delivered)
    mask = 0
    for blk in lace.by_creator(q):
        mask |= lace.self_mask_of(blk.id)
        claims |= blk.pointers
    disclosed, weak = set(), set()
    for ack in acked:
        if len(ack.pointers) == 1:
            (only,) = ack.pointers
            named = lace.get(only)
            if (
                named is not None
                and named.creator == agent.agent_id
                and isinstance(named.payload, b.Follow)
                and named.payload.target == q
            ):
                weak.add(only)
                continue
        disclosed |= ack.pointers
    for claimed in claims:
        block = lace.get(claimed)
        if block is None:
            continue
        payload = block.payload
        if agent.follows(q, block.creator) and not (
            isinstance(payload, b.Follow) and payload.target == q
        ):
            mask |= lace.self_mask_of(claimed)
        else:
            mask |= lace.bit_of(claimed)
    for disclosed_id in disclosed:
        mask |= lace.self_mask_of(disclosed_id)
    for weak_id in weak:
        if weak_id in lace:
            mask |= lace.bit_of(weak_id)
    return mask


def wl_reference_knowledge(agent: WlAgent, q, delivered: set, acked: list) -> int:
    """What q provably holds under WL's rule, rebuilt from scratch: the
    closures of q's own blocks, of the ids q's admitted acks named, and of
    the ids q delivered here while they were held."""
    lace = agent.lace
    named = set(delivered)
    for ack in acked:
        named |= ack.pointers
    mask = 0
    for blk in lace.by_creator(q):
        mask |= lace.mask_of(blk.id)
    for block_id in named:
        mask |= lace.mask_of(block_id)
    return mask


def assert_maintained_masks_match(monkeypatch, cls, builder, reference, peers_of) -> None:
    """Run `builder` at seeds 1-3 and, before every `disseminate` of a
    `cls` agent, assert each of its peers' maintained mask equals
    `reference(agent, q, delivered, acked)`.  Delivered claims are
    recorded per (agent, contact) where the agent credits them: every
    contact at the delivering address; and the acks the agent files, per
    (agent, ack creator)."""
    delivered: dict[tuple[int, bytes], set] = {}
    acked: dict[tuple[int, bytes], list] = {}
    credit_delivery = cls._credit_delivery
    record_ack = cls._record_ack
    disseminate = cls.disseminate
    checks = 0

    def record(self, block, src):
        if self._holds(block.id):
            for q in self._contacts_at(src):
                delivered.setdefault((id(self), q), set()).add(block.id)
        return credit_delivery(self, block, src)

    def record_acked(self, ack):
        acked.setdefault((id(self), ack.creator), []).append(ack)
        return record_ack(self, ack)

    def check(self, only=None):
        nonlocal checks
        for q in peers_of(self):
            expected = reference(
                self, q, delivered.get((id(self), q), ()), acked.get((id(self), q), [])
            )
            assert self.peers.known(q) == expected
            checks += 1
        return disseminate(self, only)

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


@pytest.mark.parametrize("name", TL_CANNED)
def test_maintained_mask_matches_rebuild_in_canned_runs(name, monkeypatch):
    assert_maintained_masks_match(
        monkeypatch,
        TlAgent,
        getattr(canned, name),
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


def test_claim_credited_alone_until_follow_edge_lands():
    me, c, d = tl(0), KP[1], KP[2]
    x = chain(d, 2)
    for blk in x:
        me.receive(encode_block(blk))
    claim = b.new_block(c, "c/0", b.Say(b"seen"), [x[1].id])
    me.receive(encode_block(claim))
    known = me.peers.known(c.agent_id)
    assert known & bits(me.lace, x) == me.lace.bit_of(x[1].id)
    follow = b.new_block(c, "c/0", b.Follow(d.agent_id), [claim.id])
    me.receive(encode_block(follow))
    assert me.follows(c.agent_id, d.agent_id)
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


def test_full_credit_grows_when_a_same_creator_ancestor_lands():
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
    assert me.peers.known(c.agent_id) & bits(me.lace, x) == bits(me.lace, x)


def test_absent_claim_is_parked_until_it_lands():
    me, c, d = tl(0), KP[1], KP[2]
    x = chain(d, 1)
    claim = b.new_block(c, "c/0", b.Say(b"seen"), [x[0].id])
    me.receive(encode_block(claim))
    assert me.peers.parked == {x[0].id: {c.agent_id: False}}
    me.receive(encode_block(x[0]))
    assert me.peers.parked == {}
    assert me.peers.known(c.agent_id) & me.lace.bit_of(x[0].id)


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


def test_eviction_drops_waiters_and_parked_credit():
    f, m = TlAgent(KP[0], "p0/0", pending_cap=2), KP[1]
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
    assert set(f.peers.parked) == pending


def test_stranger_chain_costs_linear_self_mask_calls(monkeypatch):
    calls = 0
    self_mask_of = Blocklace.self_mask_of

    def counted(self, block_id):
        nonlocal calls
        calls += 1
        return self_mask_of(self, block_id)

    monkeypatch.setattr(Blocklace, "self_mask_of", counted)
    me, stranger = tl(0), KP[3]
    n = 500
    for blk in chain(stranger, n, address="s/0"):
        me.receive(encode_block(blk), src="s/0")
        me.tick()
    assert len(me.lace) == n
    assert calls <= 4 * n


def test_wl_credit_is_the_whole_closure():
    f = WlAgent(KP[0], "w0/0", WlConfig())
    f.create_group(b"g")
    gid = f.last_uttered.id
    f.say_group(gid, b"one")
    said = f.last_uttered.id
    f.peers.credit(KP[1].agent_id, [said])
    assert f.peers.known(KP[1].agent_id) == f.lace.mask_of(said)
