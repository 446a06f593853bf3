"""The retransmission schedules shared by the TL and WL agents.

An agent owes a block to a destination address until the destination is
known to hold it.  It sends each copy that someone waits on under a timer
per (destination address, block id) pair, and each lazy copy, one that
the block's creator or the group's founder covers, under one repair rule
per destination.  ROADMAP item 5 has the measurements behind each
constant and rule.  What stops a timer is an ack, and `peers` holds the
rules for when a copy draws one.

Timers.  Resending on every tick floods the network while the first copy
or its ack is still in flight (a round trip takes 2-10 ticks at a delay
of 1-5), so each pair gets its own timer.  The agent names the first
offer of each pair (`TlAgent._schedule`, `WlAgent._schedule`), and
`_OFFER` maps the name to the copies sent at once, the wait before the
first timer send and the gap between later ones:

    name      sent at once   first wait     then every
    EAGER     EAGER_COPIES   GAP            GAP
    PACED     EAGER_COPIES   ROUND_TRIP     GAP
    RACED     RACED_COPIES   REPAIR_AFTER   GAP
    BACKSTOP  1              REPAIR_AFTER   REPAIR_AFTER

A pair is resent on its timer until the destination is known to hold the
block.  Every send goes out in the agent's round (`peers.Agent.tick`): a
first offer in the first round after the block lands or the agent utters
it, a later send in the first round its timer is due.

EAGER is for a pair whose copy may be the destination's only path to the
block and whose first resend should not wait: a TL Follow or Empty, own
or relayed, and a WL agent's own membership block to the agent that acts
on it next (an Invite to its target, an Accept to the group's founder) or
to any member (a Group or Empty).  Every other copy of a WL agent's own
Invite or Accept is BACKSTOP, below: as Plumtree (below) keeps eager
copies on the paths someone waits on, only the Invite's target waits on
the Invite.  The EAGER_COPIES (3) copies up front cost nothing over a first
resend one tick after the offer: no ack, claim or peer copy can come back
within 2 ticks, since every delay is at least 1 tick each way, so that
copy always went out.  Loss and delay are drawn per copy, so at 30% loss
all three are lost 2.7% of the time, below the 5% that the
95th-percentile delivery time reads.  That closes the loss tail at the
creator, which lets a WL relay hold back every copy that the creator
covers (lazy copies, below).

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
  and every relay copy of the utterance is lazy.  With four copies up
  front a resend is needed only when all four are lost, so an earlier
  one mostly races the ack.

BACKSTOP is for a WL copy that another path may cover too, or that no
agent acts on next, while nothing shows that the other path covers it:
the creator may not know the destination yet (a member learns of others
only from their Accepts), so this copy may be the only path.  It is the
first offer of the group's founder for a block it did not create, until
the founder knows the creator holds the block that made the destination
a member: it created every invite, so it knows every invitee, and a new
member sends its Accept there first.  It is also the first offer of a
member's own Accept to a member other than the founder, which relays
every Accept to every member at once, and of the founder's own Invite to
a member other than its target, which acts on nothing until the target's
Accept.  A member's own Accept to another member stops at that member's
first copy of a block of the group other than the genesis and the
invites to this member: it sends those only to the members it knows, so
the copy shows that it holds the Accept (`WlAgent._credit_delivery`).

Lazy copies.  Every other WL relay copy is lazy, covered or not,
utterance or membership block: the founder is the one backstop.  The
creator covers the destination when the agent knows it holds the block
that made the destination a member, and always when it is the group's
founder, to which every new member sends its Accept first.  So
`WlAgent._wanted` gives each member's wanted blocks with their lazy part:
at the founder the blocks whose creator covers the member, at every
other member every block of another creator.  A lazy copy has no pair
and no timer (`peers.Agent.disseminate` walks only the rest through
`take`).  TL has none: a TL relay is often the only path (friends in a
line), so it sends on the creator's schedule, copies up front included.
This is the eager/lazy split of Plumtree (Leitao, Pereira and Rodrigues,
"Epidemic Broadcast Trees", SRDS 2007), with acks and nacks in place of
its IHAVE and GRAFT messages, taken to its end for a group whose members
are all one hop from each creator: the eager tree is the creator's own
star, and the founder backstops it.  A relay copy sent at once costs a
datagram, as a creator copy does, but arrives a hop later, and relayed
at once by every member to every other one, copies grow as n^3.

The repair rule.  `repair` sends a destination, in a round after an ack
came from its address (`mark_repair`), every lazy block it is owed that
landed here at least REPAIR_AFTER rounds ago; at most once per
REPAIR_AFTER rounds, counted from when the address was first owed a lazy
copy or was last repaired.  REPAIR_AFTER is twice the largest default
delay (5 ticks) plus one, so an ack that still does not cover the block
left the destination after the creator's copy could have arrived, and is
evidence the copy was lost.  With longer delays a repair may race a copy
still in flight: an extra send, never a lost block.  The ack may be a
nack: a WL agent that parks a block because ancestors are missing acks
it at once with the tips of the block's group (`peers.Agent.receive`),
which shows the deliverer what is missing; when none of the block's
pointers is here, the group is the one the agent shares with the
block's creator, if there is exactly one, so a member that missed a
withheld fork still nacks (`WlAgent._nack_pointers`).  A member does not
ack a relay's copy of a block that observes its own Accept (or the
genesis, for the founder): the copy is lazy, and no timer waits on it
(`WlAgent._ack_pointers`).  With single relay copies and neither repair
nor backstop, `wl_partitions` fails at 11 of seeds 0-39: two members
each miss the other's Accept when the founder's one relay copy is lost.
The repair alone passes only while later blocks keep drawing acks: when
a new member's Accept and say are the last blocks and the founder's
copies are lost, a run could quiesce with the member lacking both.  The
backstop closes that.

So `armed()` reads only the timers, and a run is quiescent only when a
correct agent's members hold what it owes them on a timer; what it owes
lazily, the creator or the founder owes on a timer.  The exception is a
faulty creator that withholds its block from a member it knows: the
relays' lazy copies then get only the repair.  A founder that goes
silent before it has relayed every Accept may leave a new member's
Accept with no one else, and the group split.

`metrics.resent` counts every send but the first copy of a pair's first
offer: the other copies up front, each timer send and each repair copy.

Bounds.  The pair table holds the pairs outstanding at the last round
plus those first offered since, two ints each; the repair marks, the
addresses acks came from since the last round; the repair rule, one tick
per destination address ever owed a lazy copy and the lace size after
each of the last REPAIR_AFTER rounds.  Ticks are counted by the agent's
own rounds (`tick()` calls).  Pairs and repair ticks are keyed by the
destination address: a peer that moves starts over at its new address.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from .blocks import BlockId, NetAddress

EAGER_COPIES = 3
RACED_COPIES = 4
GAP = 4
# The mean round trip at the default delays (1-5 ticks each way):
# delay_min + delay_max.
ROUND_TRIP = 6
# Twice the largest delay of the default range (1-5 ticks), plus one.  With
# longer delays a repair may go out while the first copy is still in
# flight: an extra send, never a lost block.
REPAIR_AFTER = 11

# The first offers an agent names.
EAGER = "eager"
PACED = "paced"
RACED = "raced"
BACKSTOP = "backstop"

# first offer -> (copies sent at once, ticks to the first timer send, ticks
# between later timer sends)
_OFFER = {
    EAGER: (EAGER_COPIES, GAP, GAP),
    PACED: (EAGER_COPIES, ROUND_TRIP, GAP),
    RACED: (RACED_COPIES, REPAIR_AFTER, GAP),
    BACKSTOP: (1, REPAIR_AFTER, REPAIR_AFTER),
}

# (destination address, block creator, block digest): a block id's fields,
# whose hashes are cached, so a lookup runs no Python-level __hash__.
Pair = tuple[NetAddress, bytes, bytes]


class Retransmit:
    """Send schedule per (destination address, block id), and the repair
    of lazy copies per destination address.

    `take` and `repair` are called only inside a round (`with
    schedule.round(size):`).  `take` decides each candidate send on the
    pair's timer: it passes every first offer and every pair that is
    due, and rearms its timer.  A round moves the table aside, and each
    `take` moves the pair it asks about back, so the pairs the round
    asked about are exactly the pairs still outstanding; when the round
    ends every other entry is dropped.  So `armed()` is read only between
    rounds.
    """

    def __init__(self, metrics):
        self._metrics = metrics
        self.now = 0
        # pair -> (tick the next send is due, ticks between timer sends)
        self._pairs: dict[Pair, tuple[int, int]] = {}
        # the table as the current round found it; empty between rounds
        self._before: dict[Pair, tuple[int, int]] = {}
        # destinations an ack came from since the last round
        self._repair: set[NetAddress] = set()
        # destination -> the tick it was first owed a lazy copy or was last
        # repaired
        self._repaired: dict[NetAddress, int] = {}
        # the lace size after each of the last REPAIR_AFTER rounds
        self._sizes = [0] * REPAIR_AFTER

    def armed(self) -> bool:
        """Whether a timer still runs."""
        return bool(self._pairs)

    def mark_repair(self, dest: NetAddress) -> None:
        """An ack came from `dest`: the next round may repair the lazy
        copies it is owed."""
        self._repair.add(dest)

    @contextmanager
    def round(self, size: int) -> Iterator[None]:
        """One retransmission round; ends the agent's current tick.  `size`
        is how many blocks the agent's blocklace holds: a block's bit below
        it landed before this round."""
        self._before, self._pairs = self._pairs, {}
        try:
            yield
        finally:
            self._before = {}
            self._repair = set()
            self._sizes = self._sizes[1:] + [size]
            self.now += 1

    def take(self, dest: NetAddress, block_id: BlockId, schedule: Callable[[], str]) -> int:
        """How many copies of the block to send to `dest` now: on a first
        offer as `_OFFER` says, else 0 or 1.  Rearms the pair's timer when
        it sends.  `schedule` names the pair's first offer, and is called
        only then."""
        pair = (dest, block_id.creator, block_id.digest)
        pairs, now = self._pairs, self.now
        entry = pairs.get(pair) or self._before.pop(pair, None)
        if entry is None:
            copies, wait, gap = _OFFER[schedule()]
            pairs[pair] = (now + wait, gap)
            self._metrics.resent += copies - 1
            return copies
        due, gap = entry
        if due > now:
            pairs[pair] = entry
            return 0
        pairs[pair] = (now + gap, gap)
        self._metrics.resent += 1
        return 1

    def repair(self, dest: NetAddress, lazy: int) -> int:
        """Of the lazy blocks `dest` is owed (a mask of the agent's
        blocklace), those to send it now by the repair rule.  Call it once
        a round per destination."""
        now = self.now
        since = self._repaired.setdefault(dest, now)
        if dest not in self._repair or now - since < REPAIR_AFTER:
            return 0
        old = lazy & ((1 << self._sizes[0]) - 1)
        if old:
            self._repaired[dest] = now
            self._metrics.resent += old.bit_count()
        return old
