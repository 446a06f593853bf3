"""The retransmission schedule shared by the TL and WL agents.

An agent sends a block to a destination address until the destination is
known to hold it.  Resending on every tick floods the network while the
first copy or its ack is still in flight (a round trip takes 2-10 ticks
at a delay of 1-5), so each (destination address, block id) pair gets its
own timer with capped exponential backoff, after RFC 6298 ("Computing
TCP's Retransmission Timer").  A pair is sent:

* on first offer: when the block lands, or on the agent's own command;
* again in the same tick's round, since two copies with independent
  delays arrive sooner than one;
* then at +1, +3 and +7 ticks: the gap starts at FIRST_GAP and doubles;
* then every MAX_GAP ticks until the destination is known to hold it.

The cap bounds how long a pair whose copies or acks were all lost waits
for its next try: in a 12-member group at 30% loss, a cap of 16 instead
of 4 saved under 0.3% of the datagrams but delayed quiescence by up to
38 ticks (170 instead of 132).

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

Pair = tuple[NetAddress, BlockId]


class Retransmit:
    """Send schedule per (destination address, block id).

    `take` decides each candidate send.  Outside a round it passes only
    first offers.  Inside a round (`with schedule.round():`) it passes
    every pair whose timer is due, and backs the timer off; the pairs the
    round asked about are exactly the pairs still outstanding, and when
    the round ends every other timer is dropped.  Bound: the table holds
    the pairs outstanding at the last round plus those first offered
    since, one entry each.
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

    def take(self, dest: NetAddress, block_id: BlockId) -> bool:
        """Whether to send the block to `dest` now; arms or backs off its
        timer when it does."""
        pair = (dest, block_id)
        timer = self._timers.get(pair)
        if self._live is None:
            if timer is not None:
                return False
            # Due again in this tick's round: the second copy.
            self._timers[pair] = (self.now, FIRST_GAP)
            return True
        self._live.add(pair)
        if timer is None:
            self._timers[pair] = (self.now + FIRST_GAP, min(2 * FIRST_GAP, MAX_GAP))
            return True
        due, gap = timer
        if due > self.now:
            return False
        self._timers[pair] = (self.now + gap, min(2 * gap, MAX_GAP))
        self._metrics.resent += 1
        return True
