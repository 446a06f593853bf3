"""The retransmission schedule per (destination address, block) and how the
agents follow it."""

import dataclasses

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.blocks import encode_block
from blocklace.harness import canned
from blocklace.harness.canned import wl_equivocation_crowd
from blocklace.harness.oracles import parse_trace
from blocklace.harness.runner import Runner, run_scenario
from blocklace.peers import AgentMetrics
from blocklace.retransmit import (
    ACK_HOLDOFF,
    BACKSTOP,
    EAGER,
    EAGER_COPIES,
    GAP,
    LAZY,
    PACED,
    RACED,
    RACED_COPIES,
    REPAIR_AFTER,
    ROUND_TRIP,
    Retransmit,
)
from blocklace.simnet import NetConfig
from blocklace.tl import TlAgent
from blocklace.wl import WlAgent

KP = [crypto.keygen(f"rtx-{i}") for i in range(4)]
BLOCK = b.new_block(KP[0], "r0/0", b.Say(b"x"), ()).id
OTHER = b.new_block(KP[0], "r0/0", b.Say(b"y"), ()).id


class Asked:
    """A schedule function that gives `name` and counts its calls."""

    def __init__(self, name):
        self.name = name
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.name


def round_sends(rtx, pairs, rounds, schedule=EAGER, marked=()):
    """Run `rounds` rounds asking about every pair on `schedule` (a name,
    or an `Asked`), each after acks from the `marked` addresses; returns,
    per pair, the tick of each copy the round sent."""
    ask = schedule if isinstance(schedule, Asked) else lambda: schedule
    sent = {pair: [] for pair in pairs}
    for _ in range(rounds):
        for dest in marked:
            rtx.mark_repair(dest)
        with rtx.round():
            for dest, block_id in pairs:
                sent[(dest, block_id)] += [rtx.now] * rtx.take(dest, block_id, ask)
    return sent


def offer_covered(rtx, dest, block_id):
    """Offer the pair on its BACKSTOP, then name it LAZY: its copy went out
    once, and the creator has since been seen to cover `dest`."""
    assert rtx.take(dest, block_id, lambda: BACKSTOP) == 1
    assert rtx.take(dest, block_id, lambda: LAZY) == 0


# first offer -> (copies sent at once, ticks to the first timer send, ticks
# between later sends).  A LAZY pair goes out only on a repair.
FIRST_OFFERS = {
    EAGER: (EAGER_COPIES, GAP, GAP),
    PACED: (EAGER_COPIES, ROUND_TRIP, GAP),
    RACED: (RACED_COPIES, REPAIR_AFTER, GAP),
    BACKSTOP: (1, REPAIR_AFTER, REPAIR_AFTER),
    LAZY: (0, REPAIR_AFTER, REPAIR_AFTER),
}


@pytest.mark.parametrize("name", list(FIRST_OFFERS))
def test_first_offer_copies_waits_and_period(name):
    copies, first, period = FIRST_OFFERS[name]
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    round_sends(rtx, [], 3)
    start = rtx.now
    asked = Asked(name)
    assert rtx.take("p/0", BLOCK, asked) == copies  # first offer, outside a round
    assert rtx.take("p/0", BLOCK, asked) == 0  # no repeat before it is due
    assert metrics.resent == max(copies - 1, 0)
    # Acks from p come before every round: they repair a LAZY pair, and
    # move no other.
    sent, armed = [], []
    for _ in range(first + 3 * period + 1):
        sent += round_sends(rtx, [("p/0", BLOCK)], 1, asked, marked=["p/0"])[("p/0", BLOCK)]
        armed.append(rtx.armed())
    assert sent == [start + first + i * period for i in range(4)]
    assert armed == [int(name != LAZY)] * len(armed)
    # Every send but the first repeats one.
    assert metrics.resent == copies + len(sent) - 1
    # Only a BACKSTOP pair is asked for after its first offer.
    rereads = 1 + len(armed) if name == BACKSTOP else 0
    assert asked.calls == 1 + rereads
    # No longer wanted: the next round does not ask about it.
    round_sends(rtx, [], 1)
    assert rtx.armed() == 0
    # First offered in a round, it sends the same copies there, and waits
    # as long for its first timer send.
    rtx = Retransmit(AgentMetrics())
    with rtx.round():
        assert rtx.take("p/0", BLOCK, asked) == copies
    sent = round_sends(rtx, [("p/0", BLOCK)], first, asked, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [first]


def test_first_offer_in_a_round_sends_three_copies_then_backs_off():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    sent = round_sends(rtx, [("p/0", BLOCK)], 13)
    assert sent[("p/0", BLOCK)] == [0, 0, 0, GAP, 2 * GAP, 3 * GAP]
    assert metrics.resent == 5


def test_first_waits_in_order_and_paced_waits_the_mean_round_trip():
    # Each wait draws a fresh ack (ACK_HOLDOFF < GAP); the PACED wait is
    # the mean round trip at the default delays, the RACED one longer
    # than the slowest.
    assert ACK_HOLDOFF < GAP < ROUND_TRIP < REPAIR_AFTER
    assert ROUND_TRIP == NetConfig().delay_min + NetConfig().delay_max


def test_raced_first_offer_in_a_round():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    sent = round_sends(rtx, [("p/0", BLOCK)], REPAIR_AFTER + GAP + 1, RACED)
    assert sent[("p/0", BLOCK)] == [0] * RACED_COPIES + [REPAIR_AFTER, REPAIR_AFTER + GAP]
    assert metrics.resent == 3 + 2


def test_raced_burst_is_one_copy_more_than_eager():
    # Each copy is lost on its own, and a creator's copy costs the one
    # datagram a relay's two-hop copy would: at 30% loss a fourth direct
    # copy takes the chance that every copy is lost from 2.7% to 0.8%.
    assert RACED_COPIES == EAGER_COPIES + 1
    assert 0.3**RACED_COPIES < 0.01 < 0.3**EAGER_COPIES


def test_raced_wait_spans_the_longest_default_round_trip():
    # The first RACED resend waits out the slowest ack at the default
    # delays, and every later one still draws a fresh ack.
    assert ACK_HOLDOFF < GAP < REPAIR_AFTER
    assert REPAIR_AFTER > 2 * NetConfig().delay_max


# A backup pair is a covered one: another path also covers it.  Agents
# reach it two ways: a BACKSTOP pair whose creator has since been seen to
# cover the destination (`offer_covered`), and a LAZY pair after its
# first repair send.


def test_backup_pair_sent_once_then_every_backup_gap():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    offer_covered(rtx, "p/0", BLOCK)  # first offer, outside a round
    sent = round_sends(rtx, [("p/0", BLOCK)], 10, LAZY)
    # No same-round copy, and without an ack from p no resend at all.
    assert sent[("p/0", BLOCK)] == []
    assert metrics.resent == 0
    # After acks from p, resends come REPAIR_AFTER ticks after the last send
    # at tick 0.
    sent = round_sends(rtx, [("p/0", BLOCK)], 30, LAZY, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER, 2 * REPAIR_AFTER, 3 * REPAIR_AFTER]
    assert metrics.resent == 3


def test_backup_pair_first_offered_in_a_round():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    # A pair first offered in a round goes out there, once.
    with rtx.round():
        offer_covered(rtx, "p/0", BLOCK)
        offer_covered(rtx, "p/0", OTHER)
    sent = round_sends(rtx, [("p/0", BLOCK), ("p/0", OTHER)], 9, LAZY)
    assert sent == {("p/0", BLOCK): [], ("p/0", OTHER): []}
    assert metrics.resent == 0
    sent = round_sends(rtx, [("p/0", BLOCK)], 30, LAZY, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER, 2 * REPAIR_AFTER, 3 * REPAIR_AFTER]
    assert metrics.resent == 3


def test_relay_pair_silent_without_a_repair_mark():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    offer_covered(rtx, "p/0", BLOCK)
    # Acks from another address do not repair p's pairs.
    sent = round_sends(rtx, [("p/0", BLOCK)], 30, LAZY, marked=["q/0"])
    assert sent[("p/0", BLOCK)] == []
    assert metrics.resent == 0


def test_marked_relay_pair_resent_only_after_repair_after():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    offer_covered(rtx, "p/0", BLOCK)
    sent = round_sends(rtx, [("p/0", BLOCK)], 30, LAZY, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER, 2 * REPAIR_AFTER]
    assert REPAIR_AFTER == 11
    assert metrics.resent == 2
    # A mark lasts one round: an ack before an early round repairs nothing
    # later.
    rtx = Retransmit(AgentMetrics())
    offer_covered(rtx, "p/0", BLOCK)
    round_sends(rtx, [("p/0", BLOCK)], 1, LAZY, marked=["p/0"])
    sent = round_sends(rtx, [("p/0", BLOCK)], 30, LAZY)
    assert sent[("p/0", BLOCK)] == []


def test_relay_pairs_armed_only_on_a_backstop():
    rtx = Retransmit(AgentMetrics())
    rtx.take("p/0", BLOCK, lambda: LAZY)
    sent = round_sends(rtx, [("p/0", BLOCK), ("q/0", BLOCK)], 15, LAZY, marked=["p/0"])
    # p's pair went out on its first repair, and stays unarmed.
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER]
    assert rtx.armed() == 0
    rtx.take("p/0", OTHER, lambda: EAGER)
    assert rtx.armed() == 1
    rtx.take("q/0", OTHER, lambda: BACKSTOP)
    assert rtx.armed() == 2


def test_backstop_pair_resent_every_repair_after_until_held():
    # Acks from p do not bring a BACKSTOP resend forward.
    rtx = Retransmit(AgentMetrics())
    rtx.take("p/0", BLOCK, lambda: BACKSTOP)
    sent = round_sends(rtx, [("p/0", BLOCK)], 3 * REPAIR_AFTER, BACKSTOP, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER, 2 * REPAIR_AFTER]
    assert rtx.armed() == 1
    # Held: the next round does not ask about it, and the timer is gone.
    round_sends(rtx, [], 1)
    assert rtx.armed() == 0


def test_backstop_left_once_another_path_covers_the_pair():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    backstop = Asked(BACKSTOP)
    rtx.take("p/0", BLOCK, backstop)
    round_sends(rtx, [("p/0", BLOCK)], 5, backstop)
    # Asked for on every take while on its backstop...
    assert backstop.calls == 6
    backstop.name = LAZY
    sent = round_sends(rtx, [("p/0", BLOCK)], 30, backstop)
    assert sent[("p/0", BLOCK)] == []
    assert rtx.armed() == 0
    assert metrics.resent == 0
    # ...and never again once covered.
    assert backstop.calls == 7
    # A repair resends the copy sent at tick 0.
    sent = round_sends(rtx, [("p/0", BLOCK)], 1, backstop, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [35]
    assert metrics.resent == 1
    assert backstop.calls == 7


# A LAZY pair is a covered one whose first offer is recorded but not sent:
# it goes out only to repair a loss.


def test_lazy_pair_silent_without_a_repair_mark():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    rtx.take("p/0", BLOCK, lambda: LAZY)
    sent = round_sends(rtx, [("p/0", BLOCK)], 30, LAZY, marked=["q/0"])
    assert sent[("p/0", BLOCK)] == []
    assert metrics.resent == 0


def test_lazy_pair_repaired_only_after_repair_after():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    rtx.take("p/0", BLOCK, lambda: LAZY)
    sent = round_sends(rtx, [("p/0", BLOCK)], REPAIR_AFTER + 1, LAZY, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [REPAIR_AFTER]
    # The first send repeats no earlier one.
    assert metrics.resent == 0
    sent = round_sends(rtx, [("p/0", BLOCK)], REPAIR_AFTER, LAZY, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [2 * REPAIR_AFTER]
    assert metrics.resent == 1


def test_backstop_pair_turned_lazy_resent_only_on_repair():
    metrics = AgentMetrics()
    rtx = Retransmit(metrics)
    assert rtx.take("p/0", BLOCK, lambda: BACKSTOP)
    sent = round_sends(rtx, [("p/0", BLOCK)], 30, LAZY)
    assert sent[("p/0", BLOCK)] == []
    assert rtx.armed() == 0
    sent = round_sends(rtx, [("p/0", BLOCK)], 1, LAZY, marked=["p/0"])
    assert sent[("p/0", BLOCK)] == [30]
    assert metrics.resent == 1


def test_round_prunes_relay_pairs_to_the_pairs_it_asked_about():
    rtx = Retransmit(AgentMetrics())
    offer_covered(rtx, "p/0", BLOCK)
    offer_covered(rtx, "p/0", OTHER)
    round_sends(rtx, [("p/0", OTHER)], 1, LAZY)
    assert not rtx.take("p/0", OTHER, lambda: LAZY)  # still outstanding
    assert rtx.take("p/0", BLOCK, lambda: BACKSTOP)  # pruned: a first offer again
    round_sends(rtx, [], 1)
    assert rtx.take("p/0", OTHER, lambda: BACKSTOP)


def test_rebound_address_gets_a_fresh_timer():
    rtx = Retransmit(AgentMetrics())
    round_sends(rtx, [("p/0", BLOCK)], 10)  # resent at 4 and 8, due at 12
    start = rtx.now
    sent = round_sends(rtx, [("p/1", BLOCK)], 2 * GAP + 1)
    assert sent[("p/1", BLOCK)] == [start] * EAGER_COPIES + [start + GAP, start + 2 * GAP]


def test_round_prunes_to_the_pairs_it_asked_about():
    rtx = Retransmit(AgentMetrics())
    rtx.take("p/0", BLOCK, lambda: EAGER)
    rtx.take("p/0", OTHER, lambda: EAGER)
    rtx.take("q/0", BLOCK, lambda: EAGER)
    assert rtx.armed() == 3
    round_sends(rtx, [("p/0", OTHER)], 1)
    assert rtx.armed() == 1
    assert not rtx.take("p/0", OTHER, lambda: EAGER)  # still armed, outside a round
    assert rtx.take("p/0", BLOCK, lambda: EAGER)  # pruned: a first offer again
    round_sends(rtx, [], 1)
    assert rtx.armed() == 0


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
    # Its own Say is RACED, in a group of two too: resent REPAIR_AFTER
    # ticks after its burst.
    assert owes(f, m, said.id, rounds=REPAIR_AFTER + 1)
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


def test_wl_relay_sends_once_in_its_first_tick_creator_three_times():
    # A relay sends a copy as it lands only when the creator may not cover
    # the destination: the founder relays a new member's Accept once, while
    # the member sent it to the founder in EAGER_COPIES copies.  A relay
    # copy of a covered block is LAZY
    # (test_every_relay_copy_of_a_covered_utterance_is_lazy).
    f, m1, m2, m3 = (wl_agent(i) for i in range(4))
    gid = wl_group(f, m1, m2)
    f.address_hints[m3.agent_id] = m3.current_address
    pump([f, m3], f.invite(m3.agent_id, gid), f)

    def copies(sends, dest, block_id):
        return sum(dst == dest.current_address and blk.id == block_id for dst, blk in sends)

    own = m3.accept(gid)
    accept = m3.last_uttered
    assert copies(own, f, accept.id) == EAGER_COPIES
    assert copies(m3.tick(), f, accept.id) == 0
    relayed = deliver(f, m3, accept)
    assert copies(relayed + f.tick(), m1, accept.id) == 1


def test_wl_only_the_founder_relays_an_uncovered_accept_at_once():
    f, m1, m2, m3 = (wl_agent(i) for i in range(4))
    gid = wl_group(f, m1, m2)
    everyone = [f, m1, m2, m3]
    f.address_hints[m3.agent_id] = m3.current_address
    pump(everyone, f.invite(m3.agent_id, gid), f)
    # m3 knows only f, so its Accept goes to f alone, and reaches the
    # others only through relays: none of them knows m3 holds their Accepts.
    sends = m3.accept(gid)
    accept = m3.last_uttered
    assert {dst for dst, _ in sends} == {f.current_address}

    def copies(sends, dest):
        return sum(dst == dest.current_address and blk.id == accept.id for dst, blk in sends)

    at_f = deliver(f, m3, accept)
    assert copies(at_f, m1) == copies(at_f, m2) == 1
    # m1 keeps no timer on its copy to m2: the founder is the one
    # backstop, so m1 sends it only to repair a loss that an ack from m2
    # shows.  m1's one timer is its own Accept's BACKSTOP to m3.
    at_m1 = deliver(m1, f, accept)
    assert copies(at_m1 + m1.tick(), m2) == 0
    assert m1.retransmit.armed() == 1
    assert m1._schedule(accept, m2.agent_id) == LAZY
    assert not owes(m1, m2, accept.id, rounds=2 * REPAIR_AFTER)


CROWD_KP = [crypto.keygen(f"rtx-crowd-{i}") for i in range(12)]


def late_accept(agents):
    """A group of all agents but the last, formed over a perfect network;
    then the last is invited and accepts, and its Accept reaches the others
    only through the founder's copies.  So no relay knows that the new
    member holds the others' Accepts.  Returns the Accept."""
    founder, late = agents[0], agents[-1]
    gid = wl_group(*agents[:-1])
    founder.address_hints[late.agent_id] = late.current_address
    pump([founder, late], founder.invite(late.agent_id, gid), founder)
    invite = founder.last_uttered
    late.accept(gid)
    accept = late.last_uttered
    deliver(founder, late, accept)
    for relay in agents[1:-1]:
        deliver(relay, founder, invite)
        deliver(relay, founder, accept)
    return accept


def test_schedule_names_each_copy():
    f, m1, m2, m3 = (wl_agent(i) for i in range(4))
    gid = wl_group(f, m1, m2)
    (m1_accept,) = [
        blk for blk in f.lace.by_creator(m1.agent_id) if isinstance(blk.payload, b.Accept)
    ]
    m2.say_group(gid, b"covered")
    said = m2.last_uttered
    deliver(f, m2, said)
    m2.respond_group(said.id, b"re")
    responded = m2.last_uttered
    deliver(f, m2, responded)
    m1.change_address("r1/1")
    empty = m1.last_uttered
    deliver(f, m1, empty)
    # m3's invite and Accept: none of the others knows m3 holds their
    # Accepts, and m2 does not hold m3's.
    f.address_hints[m3.agent_id] = m3.current_address
    pump([f, m3], f.invite(m3.agent_id, gid), f)
    invite = f.last_uttered
    deliver(m1, f, invite)
    deliver(m2, f, invite)
    m3.accept(gid)
    accept = m3.last_uttered
    deliver(f, m3, accept)
    deliver(m1, f, accept)
    # An invite a member made admits no one, but is a block of the group.
    stray_invite = b.new_block(m1.kp, m1.current_address, b.Invite(m3.agent_id, b""), [gid])
    deliver(f, m1, stray_invite)
    f.say_group(gid, b"own")
    own = f.last_uttered
    f.respond_group(said.id, b"own re")
    own_responded = f.last_uttered
    # A second group of f and m2 alone, where no member relays.
    f.create_group(b"pair")
    pair = f.last_uttered.id
    pump([f, m2], f.invite(m2.agent_id, pair), f)
    pump([f, m2], m2.accept(pair), m2)
    f.say_group(pair, b"just us")
    pair_said = f.last_uttered
    # A group of six whose last member joined after the others.
    crowd = [WlAgent(kp, f"c{i}/0") for i, kp in enumerate(CROWD_KP[:6])]
    late = late_accept(crowd)
    c1, c2, c3 = crowd[1:4]
    cases = [
        (f, own, m1, RACED),  # the agent's own utterances
        (f, own_responded, m1, RACED),
        (f, pair_said, m2, RACED),  # in a group of two too
        (f, invite, m1, EAGER),  # its own membership blocks
        (m3, accept, f, EAGER),  # its own Accept, to the founder
        (m1, empty, f, EAGER),
        (m3, accept, m1, BACKSTOP),  # its own Accept, to another member
        (f, said, m1, LAZY),  # covered: m2 holds m1's Accept
        (f, responded, m1, LAZY),
        (m1, invite, m2, LAZY),
        (f, m1_accept, m2, LAZY),
        (f, empty, m2, LAZY),
        (m2, invite, m3, LAZY),  # the founder's block: always covered
        (f, accept, m1, BACKSTOP),  # uncovered, at the founder
        (f, stray_invite, m3, BACKSTOP),
        (m1, accept, m2, LAZY),  # uncovered, at a relay other than the founder
        (c3, late, c1, LAZY),
        (c2, late, c1, LAZY),
    ]
    for agent, block, q, schedule in cases:
        assert agent._schedule(block, q.agent_id) == schedule
    # A TL copy of a Say or Respond is PACED, relayed or not; of a Follow
    # or Empty, EAGER.
    a, c, d = tl_agent(0), tl_agent(1), tl_agent(2)
    befriend(a, c)
    befriend(c, d)
    d.follow(a.agent_id)
    follow = d.last_uttered
    deliver(c, d, follow)
    a.say(b"news")
    news = a.last_uttered
    deliver(c, a, news)
    a.respond(b"re", news.id)
    responded = a.last_uttered
    deliver(c, a, responded)
    a.change_address("r0/1")
    empty = a.last_uttered
    deliver(c, a, empty)
    a.follow(d.agent_id)
    offer = a.last_uttered
    tl_cases = [
        (a, news, c, PACED),  # its own utterances
        (a, responded, c, PACED),
        (c, news, d, PACED),  # relayed utterances
        (c, responded, d, PACED),
        (a, offer, d, EAGER),  # its own Follow and Empty
        (a, empty, c, EAGER),
        (c, follow, a, EAGER),  # a relayed Follow and Empty
        (c, empty, d, EAGER),
    ]
    for agent, block, q, schedule in tl_cases:
        assert agent._schedule(block, q.agent_id) == schedule


@pytest.mark.parametrize("size", [12, 7])
def test_every_relay_copy_of_a_covered_utterance_is_lazy(size):
    # Each member says once in a group formed over a perfect network, so
    # its creator covers every member.  The creator sends RACED_COPIES to
    # each, and no relay sends its copy as the Say lands, although it came
    # straight from the creator: every relay copy is LAZY, sent only to
    # repair a loss.
    agents = [WlAgent(kp, f"c{i}/0") for i, kp in enumerate(CROWD_KP[:size])]
    gid = wl_group(*agents)
    said = []
    for speaker in agents:
        sends = speaker.say_group(gid, b"hello")
        block = speaker.last_uttered
        for q in agents:
            if q is not speaker:
                got = sum(dst == q.current_address and blk.id == block.id for dst, blk in sends)
                assert got == RACED_COPIES
                relayed = deliver(q, speaker, block)
                assert not any(blk.id == block.id for _, blk in relayed)
        said.append(block)
    settle(agents)
    for block in said:
        for q in agents:
            for relay in agents:
                if block.creator not in (relay.agent_id, q.agent_id) and relay is not q:
                    assert relay._schedule(block, q.agent_id) == LAZY
    assert all(a.retransmit.armed() == 0 for a in agents)


@pytest.mark.parametrize("size", [4, 6, 12])
def test_only_the_founder_and_creator_back_up_an_uncovered_accept(size):
    # An uncovered Accept reaches a member on a timer only from its
    # creator and the founder, both on BACKSTOP; every other relay sends
    # its copy only to repair a loss.
    agents = [WlAgent(kp, f"c{i}/0") for i, kp in enumerate(CROWD_KP[:size])]
    accept = late_accept(agents)
    founder, creator = agents[0], agents[-1]
    for q in agents[1:-1]:
        assert founder._schedule(accept, q.agent_id) == BACKSTOP
        assert creator._schedule(accept, q.agent_id) == BACKSTOP
        for relay in agents[1:-1]:
            if relay is not q:
                assert relay._schedule(accept, q.agent_id) == LAZY


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_both_forks_reach_every_member_of_a_crowd(seed):
    # Relays send a fork only to repair a loss, and a member
    # that misses a fork gets it only through its nack, so both forks must
    # still reach all ten correct members.
    result = run_scenario(wl_equivocation_crowd(seed))
    assert result.all_pass(), [(r.name, r.verdict) for r in result.oracle_results]


def test_only_the_founder_submits_invites():
    # The founder sends each invite to every member on its EAGER schedule,
    # so a member's relay copy of it is LAZY: sent only to repair a loss.
    data = parse_trace(run_scenario(canned.wl_group(seed=1)).trace_text)
    invites = {}
    for event in data.events_of("SUBMIT"):
        raw = event.fields["bytes"]
        if raw not in invites:
            invites[raw] = isinstance(b.decode_block(bytes.fromhex(raw)).payload, b.Invite)
        if invites[raw]:
            assert event.fields["src"] == data.agents["f"]["address"]
    assert any(invites.values())


@pytest.mark.parametrize("name", ["wl_group", "wl_crowd"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_creator_resends_no_say_within_repair_after_of_its_burst(name, seed):
    # Read from the trace alone: a creator sends its own Say to a member in
    # one burst, and not again until REPAIR_AFTER ticks later (RACED).
    data = parse_trace(run_scenario(canned.CANNED[name](seed=seed)).trace_text)
    says = {}
    bursts = {}
    for event in data.events_of("SUBMIT"):
        fields = event.fields
        raw = fields["bytes"]
        if raw not in says:
            block = b.decode_block(bytes.fromhex(raw))
            says[raw] = block.address if isinstance(block.payload, b.Say) else None
        if fields["src"] != says[raw]:
            continue
        burst = bursts.setdefault((fields["dst"], raw), event.tick)
        assert event.tick == burst or event.tick >= burst + REPAIR_AFTER, (fields, burst)
    assert bursts


@pytest.mark.parametrize("name", ["tl_line", "tl_star"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_tl_say_resent_within_round_trip_of_its_burst(name, seed):
    # Read from the trace alone: every agent, creator or relay, sends a Say
    # to a friend in one burst, and not again until ROUND_TRIP ticks later
    # (PACED).
    data = parse_trace(run_scenario(canned.CANNED[name](seed=seed)).trace_text)
    says = {}
    bursts = {}
    resends = 0
    for event in data.events_of("SUBMIT"):
        fields = event.fields
        raw = fields["bytes"]
        if raw not in says:
            says[raw] = isinstance(b.decode_block(bytes.fromhex(raw)).payload, b.Say)
        if not says[raw]:
            continue
        burst = bursts.setdefault((fields["src"], fields["dst"], raw), event.tick)
        assert event.tick == burst or event.tick >= burst + ROUND_TRIP, (fields, burst)
        resends += event.tick > burst
    assert resends


def test_tl_relay_sends_three_copies_in_its_first_tick_like_the_creator():
    # On a line of friends the relay may be the only path, so a TL relay
    # sends its copies up front, on the creator's schedule.
    a, c, d = tl_agent(0), tl_agent(1), tl_agent(2)
    befriend(a, c)
    befriend(c, d)
    pump([c, d], d.follow(a.agent_id), d)

    def copies(sends, dest, block_id):
        return sum(dst == dest.current_address and blk.id == block_id for dst, blk in sends)

    own = a.say(b"news")
    news = a.last_uttered
    assert copies(own, c, news.id) == EAGER_COPIES
    assert copies(a.tick(), c, news.id) == 0
    relayed = deliver(c, a, news)
    assert copies(relayed, d, news.id) == EAGER_COPIES
    assert copies(c.tick(), d, news.id) == 0


def test_wl_copy_sent_by_the_peer_stops_the_resends():
    f, m1, m2 = wl_agent(0), wl_agent(1), wl_agent(2)
    gid = wl_group(f, m1, m2)
    m2.say_group(gid, b"relay me")
    said = m2.last_uttered
    forwarded = deliver(f, m2, said)
    # m2 covers m1, so f's copy to m1 is LAZY: offered, not sent.
    assert (m1.current_address, said.id) not in {(dst, blk.id) for dst, blk in forwarded}
    # Without a nack the copy is not sent, but it stays outstanding.
    assert not owes(f, m1, said.id, rounds=REPAIR_AFTER)
    deliver(m1, m2, said)
    # m1 sends its copy to f (a repair, say): f learns that m1 holds it.
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
    for _ in range(9):  # resent every GAP ticks at m's old address
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
# member (wl_dropper, wl_crowd_orphans), the muted equivocator, the muted
# founder, or one beyond a broken link.
NEVER_QUIESCE = {
    "tl_line_broken",
    "wl_dropper",
    "wl_equivocation",
    "wl_equivocation_crowd",
    "wl_founder_quits",
    "wl_crowd_orphans",
}

# Known fault, not by design: a member whose Accept is still in flight when
# the founder rebinds knows the founder only at its old address, and nothing
# the founder sends it afterwards names the new one.  The member resends
# its Accept there for good, and the founder its invite.
STUCK = pytest.mark.xfail(
    strict=True, reason="members that accepted before the founder moved cannot reach it"
)


def _case(name, seed, id):
    marks = [STUCK] if name == "wl_founder_moves" else []
    return pytest.param(name, seed, id=id, marks=marks)


# Which acks reach which timers is where WL quiescence can go wrong, so the
# WL scenarios that quiesce run at more seeds.
QUIESCENCE_CASES = [_case(name, 1, name) for name in sorted(canned.CANNED)] + [
    _case(name, seed, f"{name}-seed{seed}")
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


@pytest.mark.parametrize("seed", [17, 39])
def test_withheld_forks_reach_every_member_through_nack_and_repair(seed):
    # The equivocator withholds each fork from some members it knows, so
    # the relays' copies carry no timer.  At these seeds a lost copy
    # reaches its member only through the member's nack and the relay's
    # repair: with no nack (`WlAgent._nack_pointers` giving None) both
    # seeds fail wl_liveness and equivocation_visibility, and with no
    # repair (`Retransmit.mark_repair` a no-op) seed 39 does.
    result = run_scenario(canned.wl_equivocation(seed=seed))
    assert result.all_pass(), [(r.name, r.verdict) for r in result.oracle_results]


def test_resent_counter_in_report_not_trace():
    result = run_scenario(canned.wl_group(seed=1, utterances=5))
    metrics = result.report["agent_metrics"]
    assert all("resent" in m for m in metrics.values())
    assert sum(m["resent"] for m in metrics.values()) > 0
    assert "resent" not in result.trace_text
