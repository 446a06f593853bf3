"""The retransmission schedule per (destination address, block) and how the
agents follow it."""

import dataclasses

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.blocks import encode_block
from blocklace.harness import canned
from blocklace.harness.runner import Runner, run_scenario
from blocklace.peers import AgentMetrics
from blocklace.retransmit import MAX_GAP, REPAIR_AFTER, Retransmit
from blocklace.tl import TlAgent
from blocklace.wl import WlAgent

KP = [crypto.keygen(f"rtx-{i}") for i in range(4)]
BLOCK = b.new_block(KP[0], "r0/0", b.Say(b"x"), ()).id
OTHER = b.new_block(KP[0], "r0/0", b.Say(b"y"), ()).id


def round_sends(schedule, pairs, rounds, relay=False, marked=(), backstop=False):
    """Run `rounds` rounds asking about every pair, each after acks from
    the `marked` addresses; returns, per pair, the ticks at which the
    round sent it."""
    sent = {pair: [] for pair in pairs}
    for _ in range(rounds):
        for dest in marked:
            schedule.mark_repair(dest)
        with schedule.round():
            for dest, block_id in pairs:
                if schedule.take(dest, block_id, relay=relay, backstop=backstop):
                    sent[(dest, block_id)].append(schedule.now)
    return sent


def test_first_offer_then_same_round_then_backoff_capped():
    metrics = AgentMetrics()
    schedule = Retransmit(metrics)
    assert schedule.take("p/0", BLOCK)  # first offer, outside a round
    assert not schedule.take("p/0", BLOCK)  # no repeat before the round
    sent = round_sends(schedule, [("p/0", BLOCK)], 24)
    # The same tick's round, then +1, +3, +7, then every MAX_GAP ticks.
    assert sent[("p/0", BLOCK)] == [0, 1, 3, 7, 11, 15, 19, 23]
    assert MAX_GAP == 4
    assert metrics.resent == 8


def test_first_offer_in_a_round_sends_once_then_backs_off():
    metrics = AgentMetrics()
    schedule = Retransmit(metrics)
    sent = round_sends(schedule, [("p/0", BLOCK)], 12)
    assert sent[("p/0", BLOCK)] == [0, 1, 3, 7, 11]
    assert metrics.resent == 4


# A backup pair is one on the relay schedule: another path also covers it.


def test_backup_pair_sent_once_then_every_backup_gap():
    metrics = AgentMetrics()
    schedule = Retransmit(metrics)
    assert schedule.take("p/0", BLOCK, relay=True)  # first offer, outside a round
    assert not schedule.take("p/0", BLOCK, relay=True)
    sent = round_sends(schedule, [("p/0", BLOCK)], 10, relay=True)
    # No same-round copy, and without an ack from p no resend at all.
    assert sent[("p/0", BLOCK)] == []
    assert metrics.resent == 0
    # After acks from p, resends come REPAIR_AFTER ticks after the last send
    # at tick 0.
    sent = round_sends(schedule, [("p/0", BLOCK)], 30, relay=True, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER, 2 * REPAIR_AFTER, 3 * REPAIR_AFTER]
    assert metrics.resent == 3


def test_backup_pair_first_offered_in_a_round():
    metrics = AgentMetrics()
    schedule = Retransmit(metrics)
    sent = round_sends(schedule, [("p/0", BLOCK), ("p/0", OTHER)], 10, relay=True)
    # A pair first offered in a round goes out there, once.
    assert sent == {("p/0", BLOCK): [0], ("p/0", OTHER): [0]}
    assert metrics.resent == 0
    sent = round_sends(schedule, [("p/0", BLOCK)], 30, relay=True, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER, 2 * REPAIR_AFTER, 3 * REPAIR_AFTER]
    assert metrics.resent == 3


def test_relay_pair_silent_without_a_repair_mark():
    metrics = AgentMetrics()
    schedule = Retransmit(metrics)
    schedule.take("p/0", BLOCK, relay=True)
    # Acks from another address do not repair p's pairs.
    sent = round_sends(schedule, [("p/0", BLOCK)], 30, relay=True, marked=["q/0"])
    assert sent[("p/0", BLOCK)] == []
    assert metrics.resent == 0


def test_marked_relay_pair_resent_only_after_repair_after():
    metrics = AgentMetrics()
    schedule = Retransmit(metrics)
    schedule.take("p/0", BLOCK, relay=True)
    sent = round_sends(schedule, [("p/0", BLOCK)], 30, relay=True, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER, 2 * REPAIR_AFTER]
    assert REPAIR_AFTER == 11
    assert metrics.resent == 2
    # A mark lasts one round: an ack before an early round repairs nothing
    # later.
    schedule = Retransmit(AgentMetrics())
    schedule.take("p/0", BLOCK, relay=True)
    round_sends(schedule, [("p/0", BLOCK)], 1, relay=True, marked=["p/0"])
    sent = round_sends(schedule, [("p/0", BLOCK)], 30, relay=True)
    assert sent[("p/0", BLOCK)] == []


def test_relay_pairs_armed_only_on_a_backstop():
    schedule = Retransmit(AgentMetrics())
    schedule.take("p/0", BLOCK, relay=True)
    round_sends(schedule, [("p/0", BLOCK), ("q/0", BLOCK)], 15, relay=True, marked=["p/0"])
    assert schedule.armed() == 0
    schedule.take("p/0", OTHER)
    assert schedule.armed() == 1
    schedule.take("q/0", OTHER, relay=True, backstop=True)
    assert schedule.armed() == 2


def test_backstop_pair_resent_every_repair_after_until_held():
    metrics = AgentMetrics()
    schedule = Retransmit(metrics)
    assert schedule.take("p/0", BLOCK, relay=True, backstop=True)
    assert not schedule.take("p/0", BLOCK, relay=True, backstop=True)
    # No same-round copy; resent without any ack, REPAIR_AFTER ticks apart.
    sent = round_sends(schedule, [("p/0", BLOCK)], 30, relay=True, backstop=True)
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER, 2 * REPAIR_AFTER]
    assert metrics.resent == 2
    # Acks from p do not bring the resend forward.
    sent = round_sends(schedule, [("p/0", BLOCK)], 10, relay=True, backstop=True, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [3 * REPAIR_AFTER]
    assert schedule.armed() == 1
    # Held: the next round does not ask about it, and the timer is gone.
    round_sends(schedule, [], 1)
    assert schedule.armed() == 0


def test_backstop_left_once_another_path_covers_the_pair():
    metrics = AgentMetrics()
    schedule = Retransmit(metrics)
    schedule.take("p/0", BLOCK, relay=True, backstop=True)
    round_sends(schedule, [("p/0", BLOCK)], 5, relay=True, backstop=True)
    sent = round_sends(schedule, [("p/0", BLOCK)], 30, relay=True)
    assert sent[("p/0", BLOCK)] == []
    assert schedule.armed() == 0
    assert metrics.resent == 0


def test_round_prunes_relay_pairs_to_the_pairs_it_asked_about():
    schedule = Retransmit(AgentMetrics())
    schedule.take("p/0", BLOCK, relay=True)
    schedule.take("p/0", OTHER, relay=True)
    round_sends(schedule, [("p/0", OTHER)], 1, relay=True)
    assert not schedule.take("p/0", OTHER, relay=True)  # still outstanding
    assert schedule.take("p/0", BLOCK, relay=True)  # pruned: a first offer again
    round_sends(schedule, [], 1)
    assert schedule.take("p/0", OTHER, relay=True)


def test_rebound_address_gets_a_fresh_timer():
    schedule = Retransmit(AgentMetrics())
    round_sends(schedule, [("p/0", BLOCK)], 9)  # backed off to the cap
    start = schedule.now
    sent = round_sends(schedule, [("p/1", BLOCK)], 8)
    assert sent[("p/1", BLOCK)] == [start, start + 1, start + 3, start + 7]


def test_round_prunes_to_the_pairs_it_asked_about():
    schedule = Retransmit(AgentMetrics())
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


def test_tl_relay_sends_twice_in_its_first_tick_like_the_creator():
    # On a line of friends the relay may be the only path, so TL relays
    # stay on the eager schedule.
    a, c, d = tl_agent(0), tl_agent(1), tl_agent(2)
    befriend(a, c)
    befriend(c, d)
    pump([c, d], d.follow(a.agent_id), d)

    def copies(sends, dest, block_id):
        return sum(dst == dest.current_address and blk.id == block_id for dst, blk in sends)

    own = a.say(b"news")
    news = a.last_uttered
    assert copies(own + a.tick(), c, news.id) == 2
    relayed = deliver(c, a, news)
    assert copies(relayed + c.tick(), d, news.id) == 2


def test_wl_copy_sent_by_the_peer_stops_the_resends():
    f, m1, m2 = wl_agent(0), wl_agent(1), wl_agent(2)
    gid = wl_group(f, m1, m2)
    m2.say_group(gid, b"relay me")
    said = m2.last_uttered
    forwarded = deliver(f, m2, said)  # f's one relay copy to m1 is lost
    assert (m1.current_address, said.id) in {(dst, blk.id) for dst, blk in forwarded}
    # Without a nack the copy is not resent, but it stays outstanding.
    assert not owes(f, m1, said.id, rounds=REPAIR_AFTER)
    deliver(m1, m2, said)
    # m1 relays its copy to f: f learns that m1 holds it.
    forwarded = deliver(f, m1, said)
    assert not any(blk.id == said.id for _, blk in forwarded)
    # So an ack from m1 that does not name it repairs nothing.
    f.retransmit.mark_repair(m1.current_address)
    assert not owes(f, m1, said.id, rounds=1)


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
    the peer does not hold; `runner` is a Runner or a RunResult."""
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


# Which acks reach which timers is where WL quiescence can go wrong, so the
# WL scenarios that quiesce run at more seeds.
QUIESCENCE_CASES = [pytest.param(name, 1, id=name) for name in sorted(canned.CANNED)] + [
    pytest.param(name, seed, id=f"{name}-seed{seed}")
    for name in sorted(canned.CANNED)
    if name.startswith("wl_") and name not in NEVER_QUIESCE
    for seed in (2, 3)
]


@pytest.mark.parametrize("name, seed", QUIESCENCE_CASES)
def test_quiescence_leaves_no_timer_and_every_required_block_held(name, seed):
    runner = Runner(canned.CANNED[name](seed=seed))
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


@pytest.mark.parametrize("name", ["wl_partitions", "wl_churn"])
def test_delays_beyond_the_repair_window_still_quiesce_with_every_block_held(name):
    # REPAIR_AFTER fits the default delays of 1-5 ticks; at up to 12 a
    # repair may race a copy still in flight, which costs a send, not a
    # block.
    scenario = dataclasses.replace(canned.CANNED[name](seed=1), delay_max=12)
    result = run_scenario(scenario)
    assert result.quiescence_tick is not None
    assert _required_held(result) == []
    assert result.all_pass(), [(r.name, r.verdict) for r in result.oracle_results]


@pytest.mark.parametrize("seed", [15, 32])
def test_withheld_forks_reach_every_member_through_nack_and_repair(seed):
    # The equivocator withholds each fork from some members it knows, so
    # the relays' copies carry no timer.  At these seeds a lost copy
    # reaches its member only through the member's nack and the relay's
    # repair: without either, wl_liveness and equivocation_visibility fail.
    result = run_scenario(canned.wl_equivocation(seed=seed))
    assert result.all_pass(), [(r.name, r.verdict) for r in result.oracle_results]


def test_resent_counter_in_report_not_trace():
    result = run_scenario(canned.wl_group(seed=1, utterances=5))
    metrics = result.report["agent_metrics"]
    assert all("resent" in m for m in metrics.values())
    assert sum(m["resent"] for m in metrics.values()) > 0
    assert "resent" not in result.trace_text
