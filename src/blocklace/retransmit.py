"""The retransmission schedules shared by the TL and WL agents.

An agent owes a block to a destination address until the destination is
known to hold it.  Resending on every tick floods the network while the
first copy or its ack is still in flight (a round trip takes 2-10 ticks
at a delay of 1-5), so each (destination address, block id) pair gets its
own entry.  There are two schedules.

The eager schedule, with capped exponential backoff after RFC 6298
("Computing TCP's Retransmission Timer"), is for a pair whose copy may be
the destination's only path to the block.  It is sent:

* on first offer: when the block lands, or on the agent's own command;
* again in the same tick's round, since two copies with independent
  delays arrive sooner than one;
* then at +1, +3 and +7 ticks: the gap starts at FIRST_GAP and doubles;
* then every MAX_GAP ticks until the destination is known to hold it.

The cap bounds how long a pair whose copies or acks were all lost waits
for its next try: in a 12-member group at 30% loss, a cap of 16 instead
of 4 saved under 0.3% of the datagrams but delayed quiescence by up to
38 ticks (170 instead of 132).

The relay schedule is for a copy of a block this agent did not create,
where the creator sends it too.  It is sent once on first offer, in or
out of a round, with no same-round copy, unless it is held (below).
How it is resent depends on whether the creator is known to cover the
destination:

* covered: the agent knows the creator holds the block that made the
  destination a member, so a correct creator has the pair on its own
  eager schedule.  The copy has no timer.  It is resent only to repair
  a loss: in a round after an ack from the destination arrived, if the
  last send is at least REPAIR_AFTER ticks old;
* not covered: the creator may not know the destination yet (a member
  learns of others only from their Accepts), so a relay's copy may be
  the only path.  It is on a backstop: armed, and sent every
  REPAIR_AFTER ticks until the destination is known to hold the block.
  Only the group's founder sends it on first offer too: it created
  every invite, so it knows every invitee, and a new member, which
  knows only the founder, sends its Accept there first.  Any other
  relay holds its first offer (`take`'s `hold`), so its copy goes out
  REPAIR_AFTER ticks later, if the destination still lacks the block.
  With every member relaying every Accept to every other member at
  once, relayed Invites and Accepts grew as n^3; holding cut a
  12-member group's datagrams at 30% loss by 14%, with delivery times
  unchanged.  A later ack that shows the creator now covers the pair
  takes it off the backstop.

So a run is quiescent only when every pair is held or covered by an
armed eager timer: what a correct agent owes a member, the member
holds.  The exception is a creator that withholds its block from a
member it knows (a faulty one); the relays' covered copies then get
only the repair.  A founder that goes silent costs delay, not liveness,
only once it has relayed every Accept: before that, a new member's
Accept may have reached no one else, and the group stays split.

REPAIR_AFTER is twice the largest default delay (5 ticks) plus one, so
an ack that still does not cover the block left the destination after
the copy could have arrived, and is evidence the copy was lost.  With
longer delays a repair may race a copy still in flight: an extra send.
The ack may be a nack: a WL agent that parks a block because ancestors
are missing acks it at once with the tips of the block's group
(`peers.Agent.receive`), which shows the deliverer what is missing.
The destination does not ack a covered copy itself: the block observes
the destination's own Accept (or the genesis, for the founder), so it
knows the relay keeps no timer on the copy (`WlAgent._ack_pointers`).
So a relay's repair marks come from nacks, from acks of its backstop
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
that.  In TL a relay is often the only path (friends in a line), so TL
relays stay eager: dropping a TL relay's second copy raised the
95th-percentile delivery time on a 5-agent line from 12.6 to 18.5 ticks.
Each agent class states its choice as `RELAY_ONCE` and, in WL, which
creators cover whom as `_creator_sends` and which relay sends an
uncovered copy at once as `_first_relay` (`peers.Agent`).

Ticks are counted by the agent's own rounds (`tick()` calls).  The key
holds the destination address, not the agent: a peer that moves to a new
address starts over with a fresh entry there.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .blocks import BlockId, NetAddress

FIRST_GAP = 1
MAX_GAP = 4
# Twice the largest delay of the default range (1-5 ticks), plus one.  With
# longer delays a repair may go out while the first copy is still in
# flight: an extra send, never a lost block.
REPAIR_AFTER = 11

Pair = tuple[NetAddress, BlockId]


class Retransmit:
    """Send schedule per (destination address, block id).

    `take` decides each candidate send; its `relay`, `backstop` and
    `hold` flags pick the schedule.  Outside a round it passes only first
    offers.  Inside a round (`with schedule.round():`) it passes every
    eager pair whose timer is due, and backs its timer off, and every
    relay pair due for a resend; the pairs the round asked about are
    exactly the pairs still outstanding, and when the round ends every
    other entry is dropped.  Bound: each table holds the pairs
    outstanding at the last round plus those first offered since, one
    entry each; the repair marks hold the addresses acks came from since
    the last round.
    """

    def __init__(self, metrics):
        # `metrics.resent` counts sends that repeat an earlier send of the
        # same block to the same destination.
        self._metrics = metrics
        self.now = 0
        # eager pair -> (tick the next send is due, gap after that send)
        self._timers: dict[Pair, tuple[int, int]] = {}
        # relay pair -> tick it was last sent
        self._relayed: dict[Pair, int] = {}
        # the relay pairs on a backstop, a subset of `_relayed`
        self._backstops: set[Pair] = set()
        # the relay pairs first offered on hold and not sent since, a
        # subset of `_relayed`: their first send is no resend
        self._held: set[Pair] = set()
        # destinations an ack came from since the last round
        self._repair: set[NetAddress] = set()
        self._live: Optional[set[Pair]] = None

    def armed(self) -> int:
        """Timers still running: eager pairs and relay pairs on a
        backstop not yet known to be held."""
        return len(self._timers) + len(self._backstops)

    def mark_repair(self, dest: NetAddress) -> None:
        """An ack came from `dest`: the next round may repair its relay
        pairs that the ack did not cover."""
        self._repair.add(dest)

    @contextmanager
    def round(self) -> Iterator[None]:
        """One retransmission round; ends the agent's current tick."""
        self._live = live = set()
        try:
            yield
        finally:
            timers, relayed = self._timers, self._relayed
            self._timers = {pair: timers[pair] for pair in live if pair in timers}
            self._relayed = {pair: relayed[pair] for pair in live if pair in relayed}
            self._backstops &= live
            self._held &= live
            self._repair = set()
            self._live = None
            self.now += 1

    def take(
        self,
        dest: NetAddress,
        block_id: BlockId,
        relay: bool = False,
        backstop: bool = False,
        hold: bool = False,
    ) -> bool:
        """Whether to send the block to `dest` now; arms or backs off its
        timer when it does.  A relay pair is sent once on first offer and
        again at least REPAIR_AFTER ticks after its last send: on a
        backstop, then; otherwise only in a round after an ack from
        `dest`.  `hold`, read on first offer only, records the pair
        without sending it, as if sent then: a held backstop pair goes out
        in the first round REPAIR_AFTER ticks later.  `backstop` is read
        on every call, so a pair leaves its backstop once another path is
        known to cover it; a held pair that does so before its first send
        follows the covered rule, so it goes out only on a repair mark."""
        pair = (dest, block_id)
        if self._live is not None:
            self._live.add(pair)
        if relay:
            if backstop:
                self._backstops.add(pair)
            else:
                self._backstops.discard(pair)
            last = self._relayed.get(pair)
            if last is None:
                self._relayed[pair] = self.now
                if hold:
                    self._held.add(pair)
                return not hold
            if self._live is None or self.now - last < REPAIR_AFTER:
                return False
            if not backstop and dest not in self._repair:
                return False
            self._relayed[pair] = self.now
            if pair in self._held:
                self._held.discard(pair)
            else:
                self._metrics.resent += 1
            return True
        timer = self._timers.get(pair)
        if timer is None:
            if self._live is None:
                # Due again in this tick's round: the second copy.
                self._timers[pair] = (self.now, FIRST_GAP)
            else:
                self._timers[pair] = (self.now + FIRST_GAP, min(2 * FIRST_GAP, MAX_GAP))
            return True
        due, gap = timer
        if self._live is None or due > self.now:
            return False
        self._timers[pair] = (self.now + gap, min(2 * gap, MAX_GAP))
        self._metrics.resent += 1
        return True
