"""The retransmission schedules shared by the TL and WL agents.

An agent owes a block to a destination address until the destination is
known to hold it.  Resending on every tick floods the network while the
first copy or its ack is still in flight (a round trip takes 2-10 ticks
at a delay of 1-5), so each (destination address, block id) pair gets its
own entry, on one of five schedules.  The agent names the schedule of
each pair (`peers.Agent._schedule`); `Retransmit` keeps it.

EAGER, with capped exponential backoff after RFC 6298 ("Computing TCP's
Retransmission Timer"), is for a pair whose copy may be the destination's
only path to the block: every pair of a block the agent created, and
every TL pair.  It is sent:

* on first offer: when the block lands, or on the agent's own command;
* again in the same tick's round, since two copies with independent
  delays arrive sooner than one;
* then at +1, +3 and +7 ticks: the gap starts at FIRST_GAP and doubles;
* then every MAX_GAP ticks until the destination is known to hold it.

The cap bounds how long a pair whose copies or acks were all lost waits
for its next try: in a 12-member group at 30% loss, a cap of 16 instead
of 4 saved under 0.3% of the datagrams but delayed quiescence by up to
38 ticks (170 instead of 132).

The other four are for a WL copy of a block this agent did not create,
where the creator sends it too.  None has a same-round copy, and none is
resent sooner than REPAIR_AFTER ticks after its last send:

* COVERED: the agent knows the creator holds the block that made the
  destination a member, so a correct creator has the pair on its own
  EAGER schedule.  The copy is sent once on first offer and has no
  timer: it is resent only to repair a loss, in a round after an ack
  from the destination arrived;
* BACKSTOP: the creator may not know the destination yet (a member
  learns of others only from their Accepts), so this copy may be the
  only path.  It is sent on first offer, then every REPAIR_AFTER ticks
  until the destination is known to hold it.  This is the schedule of
  the group's founder: it created every invite, so it knows every
  invitee, and a new member, which knows only the founder, sends its
  Accept there first;
* HELD: a BACKSTOP pair at any other relay, whose first offer is
  recorded as if sent but not sent, so its copy goes out REPAIR_AFTER
  ticks later if the destination still lacks the block.  With every
  member relaying every Accept to every other member at once, relayed
  Accepts grew as n^3; holding cut a 12-member group's datagrams at 30%
  loss by 14%, with delivery times unchanged;
* LAZY: a COVERED pair whose block is not an utterance (Group, Invite,
  Accept, Empty), so COVERED is left to Say and Respond.  Its first
  offer is recorded but not sent, and it has no timer: it goes out only
  to repair a loss, in a round at least REPAIR_AFTER ticks after the
  offer, once an ack or nack from the destination still does not cover
  the block.  No reader waits on a membership block, so its relay copies
  need not race the creator's: this is Plumtree's eager/lazy split
  (below) made by payload.  When every member relayed every covered
  Invite to every other member at once, although the founder sends each
  invite to all of them, relayed Invites grew as n^3.  In a 12-member
  group with 20 utterances at 30% loss and 10% duplication (seeds 1-8,
  medians), LAZY cut the datagrams from 6,616.5 to 5,328 (-19.5%), with
  p50 +1.2%, p95 +3.0% and the quiescence tick unchanged.  With 50
  utterances and no duplication (seed 1), it cut them by 10%, 23% and
  29% in groups of 12, 24 and 32 (11,925 to 10,694, 53,042 to 41,012 and
  102,622 to 73,223), with p50 and p95 no higher.

The schedule is read on every `take`, so an ack that shows the creator
now covers a BACKSTOP or HELD pair makes it COVERED, or LAZY for a
membership block; a HELD pair that does so before its first send goes
out only on a repair.

So a run is quiescent only when every pair is held, COVERED or LAZY:
what a correct agent owes a member, the member holds.  The exception is
a creator that withholds its block from a member it knows (a faulty
one); the relays' COVERED and LAZY copies then get only the repair.  A
founder that goes silent costs delay, not liveness, only once it has
relayed every Accept: before that, a new member's Accept may have
reached no one else, and the group stays split.

REPAIR_AFTER is twice the largest default delay (5 ticks) plus one, so
an ack that still does not cover the block left the destination after
the copy could have arrived, and is evidence the copy was lost.  With
longer delays a repair may race a copy still in flight: an extra send.
The ack may be a nack: a WL agent that parks a block because ancestors
are missing acks it at once with the tips of the block's group
(`peers.Agent.receive`), which shows the deliverer what is missing.
The destination does not ack a COVERED or LAZY copy itself: the block
observes the destination's own Accept (or the genesis, for the
founder), so it knows the relay keeps no timer on the copy
(`WlAgent._ack_pointers`).
So a relay's repair marks come from nacks, from acks of its BACKSTOP
and HELD copies and from acks of its own blocks.
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
relays stay EAGER: dropping a TL relay's second copy raised the
95th-percentile delivery time on a 5-agent line from 12.6 to 18.5 ticks.

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

EAGER = "eager"
COVERED = "covered"
BACKSTOP = "backstop"
HELD = "held"
LAZY = "lazy"

Pair = tuple[NetAddress, BlockId]


class Retransmit:
    """Send schedule per (destination address, block id).

    `take` decides each candidate send on the schedule it names.  Outside
    a round it passes only first offers.  Inside a round (`with
    schedule.round():`) it passes every pair that is due, and backs off
    its timer; the pairs the round asked about are exactly the pairs
    still outstanding, and when the round ends every other entry is
    dropped.  Bound: the table holds the pairs outstanding at the last
    round plus those first offered since, one entry each; the repair
    marks hold the addresses acks came from since the last round.
    """

    def __init__(self, metrics):
        # `metrics.resent` counts sends that repeat an earlier send of the
        # same block to the same destination.
        self._metrics = metrics
        self.now = 0
        # pair -> (tick the next send is due, gap after that send, schedule)
        self._pairs: dict[Pair, tuple[int, int, str]] = {}
        # the HELD and LAZY pairs not sent yet: their first send is no resend
        self._held: set[Pair] = set()
        # destinations an ack came from since the last round
        self._repair: set[NetAddress] = set()
        self._live: Optional[set[Pair]] = None

    def armed(self) -> int:
        """Timers still running: the pairs neither COVERED nor LAZY."""
        return sum(entry[2] not in (COVERED, LAZY) for entry in self._pairs.values())

    def mark_repair(self, dest: NetAddress) -> None:
        """An ack came from `dest`: the next round may repair its COVERED
        and LAZY pairs that the ack did not cover."""
        self._repair.add(dest)

    @contextmanager
    def round(self) -> Iterator[None]:
        """One retransmission round; ends the agent's current tick."""
        self._live = live = set()
        try:
            yield
        finally:
            pairs = self._pairs
            self._pairs = {pair: pairs[pair] for pair in live if pair in pairs}
            self._held &= live
            self._repair = set()
            self._live = None
            self.now += 1

    def take(self, dest: NetAddress, block_id: BlockId, schedule: str = EAGER) -> bool:
        """Whether to send the block to `dest` now, on `schedule`; arms or
        backs off its timer when it does."""
        pair = (dest, block_id)
        live = self._live
        if live is not None:
            live.add(pair)
        entry = self._pairs.get(pair)
        if entry is None:
            if schedule != EAGER:
                self._pairs[pair] = (self.now + REPAIR_AFTER, REPAIR_AFTER, schedule)
                if schedule in (HELD, LAZY):
                    self._held.add(pair)
                    return False
            elif live is None:
                # Due again in this tick's round: the second copy.
                self._pairs[pair] = (self.now, FIRST_GAP, schedule)
            else:
                self._pairs[pair] = (self.now + FIRST_GAP, min(2 * FIRST_GAP, MAX_GAP), schedule)
            return True
        due, gap, _ = entry
        if (
            live is None
            or due > self.now
            or (schedule in (COVERED, LAZY) and dest not in self._repair)
        ):
            if entry[2] != schedule:
                self._pairs[pair] = (due, gap, schedule)
            return False
        if schedule == EAGER:
            self._pairs[pair] = (self.now + gap, min(2 * gap, MAX_GAP), schedule)
        else:
            self._pairs[pair] = (self.now + REPAIR_AFTER, REPAIR_AFTER, schedule)
        if pair in self._held:
            self._held.discard(pair)
        else:
            self._metrics.resent += 1
        return True
