"""The retransmission schedules shared by the TL and WL agents.

An agent sends a block to a destination address until the destination is
known to hold it.  Resending on every tick floods the network while the
first copy or its ack is still in flight (a round trip takes 2-10 ticks
at a delay of 1-5), so each (destination address, block id) pair gets its
own timer.  There are two schedules.

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

The backup schedule is for a pair another path also covers.  It is sent
once on first offer, in or out of a round, with no same-round copy, then
every BACKUP_GAP ticks, without backoff, until the destination is known
to hold it.  This is the eager/lazy split of Plumtree (Leitao, Pereira
and Rodrigues, "Epidemic Broadcast Trees", SRDS 2007): in a WL group the
creator of a block sends it to every member on the eager schedule, so a
relay's copy is a second path and goes on the backup schedule.  In TL a
relay is often the only path (friends in a line), so TL relays stay
eager: dropping a TL relay's second copy raised the 95th-percentile
delivery time on a 5-agent line from 12.6 to 18.5 ticks.

Backup variants on a 12-member WL group at 30% loss (perfbench's
`wl_wide`, medians over 10 seeds, against relays on the eager schedule):
a gap of 3 cut datagrams by 34% with quiescence 6% later (134 -> 141.5
ticks, at most 10% later at one seed); a gap of 4 cut 40% but left a
longer tail (quiescence 15% later at one seed); a gap doubling from 3 to
4 also widened the tail (153 ticks at one seed against a median of 138);
acking a landed block to every member, not only to its deliverer, added
datagrams and did not quiesce sooner.

Ticks are counted by the agent's own rounds (`tick()` calls).  The key
holds the destination address, not the agent: a peer that moves to a new
address starts over with a fresh timer there.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .blocks import BlockId, NetAddress

FIRST_GAP = 1
MAX_GAP = 4
BACKUP_GAP = 3

Pair = tuple[NetAddress, BlockId]


class Retransmit:
    """Send schedule per (destination address, block id).

    `take` decides each candidate send; its `backup` flag picks the
    schedule.  Outside a round it passes only first offers.  Inside a
    round (`with schedule.round():`) it passes every pair whose timer is
    due, and backs an eager timer off; the pairs the round asked about
    are exactly the pairs still outstanding, and when the round ends
    every other timer is dropped.  Bound: the table holds the pairs
    outstanding at the last round plus those first offered since, one
    entry each.
    """

    def __init__(self, metrics):
        # `metrics.resent` counts sends that repeat an earlier send of the
        # same block to the same destination.
        self._metrics = metrics
        self.now = 0
        # pair -> (tick the next send is due, gap after that send)
        self._timers: dict[Pair, tuple[int, int]] = {}
        self._live: Optional[set[Pair]] = None

    def armed(self) -> int:
        """Timers still running: pairs not yet known to be held."""
        return len(self._timers)

    @contextmanager
    def round(self) -> Iterator[None]:
        """One retransmission round; ends the agent's current tick."""
        self._live = set()
        try:
            yield
        finally:
            timers = self._timers
            self._timers = {pair: timers[pair] for pair in self._live}
            self._live = None
            self.now += 1

    def take(self, dest: NetAddress, block_id: BlockId, backup: bool = False) -> bool:
        """Whether to send the block to `dest` now; arms or backs off its
        timer when it does.  A backup pair is sent once on first offer and
        then every BACKUP_GAP ticks, with no same-round copy."""
        pair = (dest, block_id)
        timer = self._timers.get(pair)
        if self._live is not None:
            self._live.add(pair)
        if timer is None:
            if backup:
                self._timers[pair] = (self.now + BACKUP_GAP, BACKUP_GAP)
            elif self._live is None:
                # Due again in this tick's round: the second copy.
                self._timers[pair] = (self.now, FIRST_GAP)
            else:
                self._timers[pair] = (self.now + FIRST_GAP, min(2 * FIRST_GAP, MAX_GAP))
            return True
        due, gap = timer
        if self._live is None or due > self.now:
            return False
        self._timers[pair] = (self.now + gap, gap if backup else min(2 * gap, MAX_GAP))
        self._metrics.resent += 1
        return True
