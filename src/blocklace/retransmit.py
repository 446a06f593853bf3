"""The retransmission schedules shared by the TL and WL agents.

An agent owes a block to a destination address until the destination is
known to hold it.  Resending on every tick floods the network while the
first copy or its ack is still in flight (a round trip takes 2-10 ticks
at a delay of 1-5), so each (destination address, block id) pair gets its
own entry.  The agent names the first offer of each pair
(`TlAgent._schedule`, `WlAgent._schedule`), and `_OFFER` maps the name to
the copies sent at once, the wait before the first timer send, and the
kind of pair `Retransmit` keeps from then on.  ROADMAP item 5 has the
measurements behind each constant and rule.

There are three kinds:

* EAGER: resent every GAP (4) ticks until the destination is known to
  hold the block;
* BACKSTOP: resent every REPAIR_AFTER (11) ticks until then;
* COVERED: no timer.  Another path, the block's creator or the group's
  founder, covers the destination, so the pair is resent only to repair
  a loss: in a round at least REPAIR_AFTER ticks after its last send or
  first offer, once an ack or nack from the destination still does not
  cover the block.

And five first offers:

    name      sent at once   first wait     kind
    EAGER     EAGER_COPIES   GAP            EAGER
    PACED     EAGER_COPIES   ROUND_TRIP     EAGER
    RACED     RACED_COPIES   REPAIR_AFTER   EAGER
    BACKSTOP  1              REPAIR_AFTER   BACKSTOP
    LAZY      0              REPAIR_AFTER   COVERED

A first offer goes out when the block lands, or on the agent's own
command, in a round or not.  Only a pair's later sends wait for a round.

EAGER is for a pair whose copy may be the destination's only path to the
block and whose first resend should not wait: a TL Follow or Empty, own
or relayed, and a WL agent's own membership blocks but the BACKSTOP ones
below.  The EAGER_COPIES (3) copies up front cost nothing over a first
resend one tick after the offer: no ack, claim or peer copy can come back
within 2 ticks, since every delay is at least 1 tick each way, so that
copy always went out.  Loss and delay are drawn per copy, so at 30% loss
all three are lost 2.7% of the time, below the 5% that the
95th-percentile delivery time reads.  That closes the loss tail at the
creator, which lets a WL relay hold back every copy that the creator
covers (LAZY, below).

One GAP, not an RTO.  An RTO from the estimator of RFC 6298 (Paxson et
al., "Computing TCP's Retransmission Timer") is about 11 ticks at the
default delays; as the gap between every two tries it raised the
95th-percentile delivery time on a 5-agent TL line sharply, and a gap
that doubles after each send delayed quiescence for almost no datagrams
saved.  So every EAGER resend after the first waits GAP.

PACED and RACED differ from EAGER only in their first offer.  A resend
before the ack of the first copies can be back races that ack, and with
the copies up front it is needed only in the few hops that lose them
all.

* PACED is for every TL copy of a Say or Respond, own or relayed.  Its
  first resend waits ROUND_TRIP (6) ticks, the mean round trip at the
  default delays (delay_min + delay_max), as RFC 6298 waits at least a
  smoothed round trip before it retransmits.  Only the first wait is
  longer, since a longer wait before every resend raises the tail of the
  delivery time.  TL Follow and Empty copies stay EAGER: they are few,
  and what follows waits on them (a friendship on the Follow's ack,
  every later copy on the address an Empty brings).
* RACED is for the copies of a WL agent's own utterance (Say or
  Respond), in a group of any size.  It sends RACED_COPIES (4) copies at
  once, one more than EAGER, and its first resend waits REPAIR_AFTER
  ticks, the longest round trip at the default delays.  Every member of
  a WL group is one hop from the creator, and a reader waits on an
  utterance.  A relay's copy costs the same datagram as a creator's copy
  but arrives a hop later, so the extra copy goes out from the creator,
  and every relay copy of the utterance is LAZY.  With four copies up
  front a resend is needed only when all four are lost, so an earlier
  one mostly races the ack.

Ack holdoff.  Each copy that lands draws an ack, and the copies of one
burst land in different ticks, so one burst drew up to three identical
acks.  So an agent sends a byte-identical ack to the same address at
most once in ACK_HOLDOFF (3) ticks (`peers.Agent._ack`), and nacks follow
the same rule.  The holdoff only delays a repeat, never stops one: with
ACK_HOLDOFF < GAP, a resend that arrives with the same delay as the copy
before it finds the holdoff over and draws a fresh ack, so a sender
whose acks were all lost still gets one.  The acks it holds off are not
the ones that stop timers: resends stay about the same.

BACKSTOP and LAZY are for a WL copy that another path may cover too: a
copy of a block this agent did not create, which the creator sends too,
or of a member's own Accept, which the founder relays.  Each sends at
most one copy at a time.

* BACKSTOP: the creator may not know the destination yet (a member
  learns of others only from their Accepts), so this copy may be the
  only path.  It is the first offer of the group's founder for a block
  it did not create, until the founder knows the creator holds the
  block that made the destination a member: it created every invite, so
  it knows every invitee, and a new member sends its Accept there
  first.  It is also the first offer of a member's own Accept to a
  member other than the founder: the founder relays every Accept to
  every member at once, so the creator's copies need not come in a
  burst.
* LAZY: every other relay copy, covered or not, utterance or
  membership block (Group, Invite, Accept, Empty): the founder is the
  one backstop.  The creator covers the destination when the agent
  knows it holds the block that made the destination a member, and
  always when it is the group's founder: a new member knows only the
  founder, so every Accept goes to the founder first.  This is Plumtree's
  eager/lazy split (below) taken to its end for a group whose members
  are all one hop from each creator: the eager tree is the creator's own
  star, the founder backstops it, and every other relay copy is lazy.
  A relay copy sent at once would cost a datagram, as a creator copy
  does, and arrive a hop later, and relayed at once by every member to
  every other member, Accepts and covered copies grow as n^3.

The one re-read.  `take` asks again for the schedule of a BACKSTOP pair
on every call; once the agent names it LAZY, the creator has been seen
to cover the destination, and the pair becomes COVERED.  What the
creator is known to hold only grows, so a pair of any other kind keeps
the kind of its first offer.  A pair's entry also says whether its copy
has gone out yet, so the first send of a LAZY pair does not count in
`metrics.resent`: it repeats nothing.

So a run is quiescent only when every pair is COVERED or its block is
known to be held: what a correct agent owes a member, the member holds.  The exception is a
creator that withholds its block from a member it knows (a faulty one);
the relays' COVERED copies then get only the repair.  A founder that
goes silent costs delay, not liveness, only once it has relayed every
Accept: before that, a new member's Accept may have reached no one else,
and the group stays split.

REPAIR_AFTER is twice the largest default delay (5 ticks) plus one, so
an ack that still does not cover the block left the destination after
the copy could have arrived, and is evidence the copy was lost.  With
longer delays a repair may race a copy still in flight: an extra send.
The ack may be a nack: a WL agent that parks a block because ancestors
are missing acks it at once with the tips of the block's group
(`peers.Agent.receive`), which shows the deliverer what is missing.
When none of the block's pointers is here, the group is the one the
agent shares with the block's creator, if there is exactly one: so a
member that missed a block every later one points at, such as a
withheld fork, still nacks (`WlAgent._nack_pointers`).
The destination does not ack a relay's COVERED copy itself: the block
observes the destination's own Accept (or the genesis, for the
founder), so it knows the relay keeps no timer on the copy
(`WlAgent._ack_pointers`).
So a relay's repair marks come from nacks, from acks of its BACKSTOP
copies and from acks of its own blocks.
This is the eager/lazy split of Plumtree (Leitao, Pereira and Rodrigues,
"Epidemic Broadcast Trees", SRDS 2007), with acks and nacks in place of
its IHAVE and GRAFT messages.  With single relay copies and neither
repair nor backstop, `wl_partitions` fails at 11 of seeds 0-39: two
members each miss the other's Accept when the founder's one relay copy
is lost.  The repair alone passes there only while later blocks keep
drawing acks from the member; when a new member's Accept and say are the
last blocks and the founder's copies of them are lost, nothing does, and
a run could quiesce with the member lacking both.  The backstop closes
that.  In TL a relay is often the only path (friends in a line), so a TL
relay's copy is never COVERED: it goes on the creator's own schedule,
EAGER or PACED, copies up front included.

Ticks are counted by the agent's own rounds (`tick()` calls).  The key
holds the destination address, not the agent: a peer that moves to a new
address starts over with a fresh entry there.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from .blocks import BlockId, NetAddress

EAGER_COPIES = 3
RACED_COPIES = 4
GAP = 4
# The mean round trip at the default delays (1-5 ticks each way):
# delay_min + delay_max.
ROUND_TRIP = 6
# An agent repeats a byte-identical ack to the same address only after this
# many of its ticks.  Below GAP, so each timer resend draws a fresh ack.
ACK_HOLDOFF = 3
# Twice the largest delay of the default range (1-5 ticks), plus one.  With
# longer delays a repair may go out while the first copy is still in
# flight: an extra send, never a lost block.
REPAIR_AFTER = 11

# The kinds of pair `Retransmit` keeps.
EAGER = "eager"
BACKSTOP = "backstop"
COVERED = "covered"
# The other first offers an agent names.
PACED = "paced"
RACED = "raced"
LAZY = "lazy"

# first offer -> (copies sent at once, ticks to the first timer send, kind)
_OFFER = {
    EAGER: (EAGER_COPIES, GAP, EAGER),
    PACED: (EAGER_COPIES, ROUND_TRIP, EAGER),
    RACED: (RACED_COPIES, REPAIR_AFTER, EAGER),
    BACKSTOP: (1, REPAIR_AFTER, BACKSTOP),
    LAZY: (0, REPAIR_AFTER, COVERED),
}

# (destination address, block creator, block digest): a block id's fields,
# whose hashes are cached, so a lookup runs no Python-level __hash__.
Pair = tuple[NetAddress, bytes, bytes]


class Retransmit:
    """Send schedule per (destination address, block id).

    `take` decides each candidate send on the pair's schedule.  Outside a
    round it passes only first offers.  Inside a round (`with
    schedule.round():`) it passes every pair that is due, and rearms its
    timer.  A round moves the table aside, and each `take` moves the pair
    it asks about back, so the pairs the round asked about are exactly
    the pairs still outstanding; when the round ends every other entry is
    dropped.  So `armed()` is read only between rounds.  Bound: the table
    holds the pairs outstanding at the last round plus those first offered
    since, one entry each; the repair marks hold the addresses acks came
    from since the last round.
    """

    def __init__(self, metrics):
        # `metrics.resent` counts sends that repeat an earlier send of the
        # same block to the same destination.
        self._metrics = metrics
        self.now = 0
        # pair -> (tick the next send is due, kind, whether a copy went out)
        self._pairs: dict[Pair, tuple[int, str, bool]] = {}
        # the table as the current round found it; None between rounds
        self._before: Optional[dict[Pair, tuple[int, str, bool]]] = None
        # destinations an ack came from since the last round
        self._repair: set[NetAddress] = set()

    def armed(self) -> int:
        """Timers still running: the pairs that are not COVERED."""
        return sum(entry[1] != COVERED for entry in self._pairs.values())

    def mark_repair(self, dest: NetAddress) -> None:
        """An ack came from `dest`: the next round may repair its COVERED
        pairs that the ack did not cover."""
        self._repair.add(dest)

    @contextmanager
    def round(self) -> Iterator[None]:
        """One retransmission round; ends the agent's current tick."""
        self._before, self._pairs = self._pairs, {}
        try:
            yield
        finally:
            self._before = None
            self._repair = set()
            self.now += 1

    def take(self, dest: NetAddress, block_id: BlockId, schedule: Callable[[], str]) -> int:
        """How many copies of the block to send to `dest` now: on a first
        offer as `_OFFER` says, else 0 or 1.  Rearms the pair's timer when
        it sends.  `schedule` names the pair's first offer; it is called on
        the first offer, and after that only while the pair is BACKSTOP."""
        pair = (dest, block_id.creator, block_id.digest)
        pairs, before, now = self._pairs, self._before, self.now
        entry = pairs.get(pair)
        if entry is None and before is not None:
            entry = before.pop(pair, None)
            if entry is not None:
                pairs[pair] = entry
        if entry is None:
            copies, wait, kind = _OFFER[schedule()]
            pairs[pair] = (now + wait, kind, copies > 0)
            self._metrics.resent += max(copies - 1, 0)
            return copies
        due, kind, sent = entry
        if kind == BACKSTOP and schedule() == LAZY:
            kind = COVERED
            pairs[pair] = (due, kind, sent)
        if before is None or due > now or (kind == COVERED and dest not in self._repair):
            return 0
        pairs[pair] = (now + (GAP if kind == EAGER else REPAIR_AFTER), kind, True)
        self._metrics.resent += sent
        return 1
