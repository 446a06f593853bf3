"""The retransmission schedule per (destination address, block) and how the
agents follow it."""

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.blocks import encode_block
from blocklace.harness import canned
from blocklace.harness.runner import Runner, run_scenario
from blocklace.retransmit import BACKUP_GAP, MAX_GAP, Retransmit
from blocklace.tl import TlAgent, TlMetrics
from blocklace.wl import WlAgent

KP = [crypto.keygen(f"rtx-{i}") for i in range(4)]
BLOCK = b.new_block(KP[0], "r0/0", b.Say(b"x"), ()).id
OTHER = b.new_block(KP[0], "r0/0", b.Say(b"y"), ()).id


def round_sends(schedule, pairs, rounds, backup=False):
    """Run `rounds` rounds asking about every pair; returns, per pair, the
    ticks at which the round sent it."""
    sent = {pair: [] for pair in pairs}
    for _ in range(rounds):
        with schedule.round():
            for dest, block_id in pairs:
                if schedule.take(dest, block_id, backup=backup):
                    sent[(dest, block_id)].append(schedule.now)
    return sent


def test_first_offer_then_same_round_then_backoff_capped():
    metrics = TlMetrics()
    schedule = Retransmit(metrics)
    assert schedule.take("p/0", BLOCK)  # first offer, outside a round
    assert not schedule.take("p/0", BLOCK)  # no repeat before the round
    sent = round_sends(schedule, [("p/0", BLOCK)], 24)
    # The same tick's round, then +1, +3, +7, then every MAX_GAP ticks.
    assert sent[("p/0", BLOCK)] == [0, 1, 3, 7, 11, 15, 19, 23]
    assert MAX_GAP == 4
    assert metrics.resent == 8


def test_first_offer_in_a_round_sends_once_then_backs_off():
    metrics = TlMetrics()
    schedule = Retransmit(metrics)
    sent = round_sends(schedule, [("p/0", BLOCK)], 12)
    assert sent[("p/0", BLOCK)] == [0, 1, 3, 7, 11]
    assert metrics.resent == 4


def test_backup_pair_sent_once_then_every_backup_gap():
    metrics = TlMetrics()
    schedule = Retransmit(metrics)
    assert schedule.take("p/0", BLOCK, backup=True)  # first offer, outside a round
    assert not schedule.take("p/0", BLOCK, backup=True)
    sent = round_sends(schedule, [("p/0", BLOCK)], 10, backup=True)
    # No second copy in the same tick's round; no backoff.
    assert sent[("p/0", BLOCK)] == [3, 6, 9]
    assert BACKUP_GAP == 3
    assert metrics.resent == 3


def test_backup_pair_first_offered_in_a_round():
    metrics = TlMetrics()
    schedule = Retransmit(metrics)
    sent = round_sends(schedule, [("p/0", BLOCK)], 10, backup=True)
    assert sent[("p/0", BLOCK)] == [0, 3, 6, 9]
    assert metrics.resent == 3


def test_rebound_address_gets_a_fresh_timer():
    schedule = Retransmit(TlMetrics())
    round_sends(schedule, [("p/0", BLOCK)], 9)  # backed off to the cap
    start = schedule.now
    sent = round_sends(schedule, [("p/1", BLOCK)], 8)
    assert sent[("p/1", BLOCK)] == [start, start + 1, start + 3, start + 7]


def test_round_prunes_to_the_pairs_it_asked_about():
    schedule = Retransmit(TlMetrics())
    schedule.take("p/0", BLOCK)
    schedule.take("p/0", OTHER)
    schedule.take("q/0", BLOCK)
    assert schedule.armed() == 3
    round_sends(schedule, [("p/0", OTHER)], 1)
    assert schedule.armed() == 1
    assert not schedule.take("p/0", OTHER)  # still armed, outside a round
    assert schedule.take("p/0", BLOCK)  # pruned: a first offer again
    round_sends(schedule, [], 1)
    assert schedule.armed() == 0


# --- the agents -------------------------------------------------------------


def wl_agent(i):
    return WlAgent(KP[i], f"r{i}/0")


def tl_agent(i):
    return TlAgent(KP[i], f"r{i}/0")


def deliver(dst, src, block):
    return dst.receive(encode_block(block), src=src.current_address)


def pump(agents, sends, src_agent):
    """Perfect in-order delivery of a send list and everything it spawns."""
    queue = [(src_agent.current_address, dst, encode_block(blk)) for dst, blk in sends]
    while queue:
        src, dst, payload = queue.pop(0)
        target = next((a for a in agents if a.current_address == dst), None)
        if target is not None:
            out = target.receive(payload, src)
            queue.extend((target.current_address, d, encode_block(blk)) for d, blk in out)


def settle(agents):
    """Rounds over a perfect network until nobody sends."""
    for _ in range(20):
        for x in agents:
            pump(agents, x.tick(), x)


def wl_group(*agents):
    """A group founded by agents[0] with the rest as members."""
    founder, members = agents[0], agents[1:]
    founder.create_group(b"g")
    gid = founder.last_uttered.id
    for m in members:
        founder.address_hints[m.agent_id] = m.current_address
        pump(agents, founder.invite(m.agent_id, gid), founder)
        pump(agents, m.accept(gid), m)
    settle(agents)
    return gid


def befriend(x, y):
    x.address_hints[y.agent_id] = y.current_address
    y.address_hints[x.agent_id] = x.current_address
    pump([x, y], x.follow(y.agent_id), x)
    pump([x, y], y.follow(x.agent_id), y)
    settle([x, y])


def owes(agent, dest_agent, block_id, rounds=8):
    """Whether any of the next rounds sends the block to dest_agent."""
    return any(
        dst == dest_agent.current_address and blk.id == block_id
        for _ in range(rounds)
        for dst, blk in agent.tick()
    )


def test_wl_ack_stops_the_resends():
    f, m = wl_agent(0), wl_agent(1)
    gid = wl_group(f, m)
    f.say_group(gid, b"hello")
    said = f.last_uttered
    assert owes(f, m, said.id)
    sends = deliver(m, f, said)
    (ack,) = [blk for _, blk in sends if isinstance(blk.payload, b.Ack)]
    deliver(f, m, ack)
    assert not owes(f, m, said.id)
    assert f.retransmit.armed() == 0


def test_wl_block_created_by_the_peer_stops_the_resends():
    f, m = wl_agent(0), wl_agent(1)
    gid = wl_group(f, m)
    f.say_group(gid, b"hello")
    said = f.last_uttered
    deliver(m, f, said)  # its ack is lost
    m.say_group(gid, b"reply")  # points at `said`
    deliver(f, m, m.last_uttered)
    assert not owes(f, m, said.id)


def test_wl_relay_sends_once_in_its_first_tick_creator_twice():
    f, m1, m2 = wl_agent(0), wl_agent(1), wl_agent(2)
    gid = wl_group(f, m1, m2)

    def copies(sends, dest, block_id):
        return sum(dst == dest.current_address and blk.id == block_id for dst, blk in sends)

    own = f.say_group(gid, b"mine")
    said = f.last_uttered
    assert copies(own + f.tick(), m2, said.id) == 2
    relayed = deliver(m1, f, said)
    assert copies(relayed + m1.tick(), m2, said.id) == 1


def test_wl_copy_sent_by_the_peer_stops_the_resends():
    f, m1, m2 = wl_agent(0), wl_agent(1), wl_agent(2)
    gid = wl_group(f, m1, m2)
    m2.say_group(gid, b"relay me")
    said = m2.last_uttered
    forwarded = deliver(f, m2, said)  # f's one backup copy to m1 is lost
    assert (m1.current_address, said.id) in {(dst, blk.id) for dst, blk in forwarded}
    deliver(m1, m2, said)
    # m1 relays its copy to f: f learns that m1 holds it.
    forwarded = deliver(f, m1, said)
    assert not any(blk.id == said.id for _, blk in forwarded)
    assert not owes(f, m1, said.id)


def test_tl_copy_sent_by_the_peer_is_not_sent_back():
    a, c, d = tl_agent(0), tl_agent(1), tl_agent(2)
    befriend(a, c)
    befriend(c, d)
    pump([c, d], d.follow(a.agent_id), d)
    a.say(b"news")
    news = a.last_uttered
    deliver(c, a, news)
    # c relays to d; d's forward of the copy skips c, which sent it.
    sends = deliver(d, c, news)
    assert not any(blk.id == news.id for _, blk in sends)
    assert not owes(d, c, news.id)


def test_wl_new_address_gets_a_fresh_timer():
    f, m = wl_agent(0), wl_agent(1)
    gid = wl_group(f, m)
    f.say_group(gid, b"where are you")
    said = f.last_uttered
    for _ in range(9):  # backed off to the cap at m's old address
        f.tick()
    m.change_address("r1/1")
    deliver(f, m, m.last_uttered)
    sends = f.tick()
    assert ("r1/1", said.id) in {(dst, blk.id) for dst, blk in sends}


# --- the runner ---------------------------------------------------------------


def _required_held(runner):
    """(agent, peer, block) triples a correct agent owes a correct peer that
    the peer does not hold."""
    correct = {
        w.inner.agent_id: w.inner
        for name, w in runner.wrappers.items()
        if next(s for s in runner.scenario.agents if s.name == name).role == "correct"
    }
    missing = []
    for agent in correct.values():
        if isinstance(agent, WlAgent):
            for gid in agent.groups():
                for q in agent.members_of(gid):
                    peer = correct.get(q)
                    if peer is None or peer is agent:
                        continue
                    for block_id in agent.partition_ids(gid) - peer.lace.ids():
                        missing.append((agent.agent_id, q, block_id))
        else:
            for q, peer in correct.items():
                if peer is agent or not agent.friends(q):
                    continue
                for blk in agent.lace.blocks():
                    if agent.follows(q, blk.creator) and blk.id not in peer.lace:
                        missing.append((agent.agent_id, q, blk.id))
    return missing


# A correct agent owes blocks forever to a peer that never acks: a silent
# member (wl_dropper), the muted equivocator, or one beyond a broken link.
NEVER_QUIESCE = {"tl_line_broken", "wl_dropper", "wl_equivocation"}


@pytest.mark.parametrize("name", sorted(canned.CANNED))
def test_quiescence_leaves_no_timer_and_every_required_block_held(name):
    runner = Runner(canned.CANNED[name](seed=1))
    quiescence_tick, _ = runner.run()
    armed = {
        spec.name: runner.wrappers[spec.name].inner.retransmit.armed()
        for spec in runner.scenario.agents
        if spec.role == "correct"
    }
    if name in NEVER_QUIESCE:
        assert quiescence_tick is None and any(armed.values())
        return
    assert quiescence_tick is not None
    assert not any(armed.values()), armed
    assert _required_held(runner) == []


def test_resent_counter_in_report_not_trace():
    result = run_scenario(canned.wl_group(seed=1, utterances=5))
    metrics = result.report["agent_metrics"]
    assert all("resent" in m for m in metrics.values())
    assert sum(m["resent"] for m in metrics.values()) > 0
    assert "resent" not in result.trace_text
