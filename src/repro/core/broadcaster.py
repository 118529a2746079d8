"""Cluster-wide dissemination: one unicast fan-out.

Rapid broadcasts two kinds of payloads: batched edge alerts (paper section
4.2) and consensus traffic (section 4.3).  Both leave the same way at every
view size: :meth:`Broadcaster.broadcast` hands the payload to the runtime's
``broadcast`` for every other member — one message delay and one copy per
member, matching the reference implementation's default broadcaster — and
then delivers it locally, so a node processes its own broadcasts through
the same code path as everyone else's.

Nothing relays.  How votes travel in a large view is consensus's own
business: there :class:`~repro.core.fast_paxos.FastPaxos` counts them by
delta gossip, point to point (``RapidSettings.use_gossip``), and hands this
fan-out only its classical recovery rounds.  Every datagram is one sender's
message, so none outgrows what one process composes: an observer's alert
batch, or a ``Phase2a`` / ``Phase1b`` carrying one cut
(``docs/ARCHITECTURE.md``, "Alert fan-outs at scale").
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, islice
from typing import Any, Callable, Iterator, Optional

from repro.core.node_id import Endpoint
from repro.runtime.base import Runtime

__all__ = ["Broadcaster", "Peers"]

Deliver = Callable[[Endpoint, Any], None]


class Peers(Sequence):
    """A view's members minus one process, without copying the membership.

    Stands in for ``tuple(m for m in members if m != me)`` — same length,
    same order, so ``rng.sample`` draws the same peers — but holds only the
    (shared) ``members`` tuple and the position to skip, where the tuple
    cost every node 8 bytes per member per disseminator.  ``index`` is an
    optional ``{endpoint: position}`` map over ``members``; without it the
    position is found by a scan.
    """

    __slots__ = ("_members", "_skip", "_len")

    def __init__(
        self, members: tuple, me: Endpoint, index: Optional[dict] = None
    ) -> None:
        self._members = members
        if index is not None:
            skip = index.get(me)
        elif me in members:
            skip = members.index(me)
        else:
            skip = None
        # A position past the end skips nothing.
        self._skip = len(members) if skip is None else skip
        self._len = len(members) - (skip is not None)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Endpoint:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(i)
        return self._members[i if i < self._skip else i + 1]

    def __iter__(self) -> Iterator[Endpoint]:
        members, skip = self._members, self._skip
        return chain(islice(members, skip), islice(members, skip + 1, None))


class Broadcaster:
    """Deliver a payload to every member of the current view, self included."""

    def __init__(self, runtime: Runtime, deliver: Deliver) -> None:
        """Bind the fan-out to ``runtime`` and its delivery callback."""
        self.runtime = runtime
        self.deliver = deliver
        self._peers: Sequence = ()

    def set_membership(self, members: tuple, index: Optional[dict] = None) -> None:
        """Adopt a new view: its members minus this process, as a
        :class:`Peers` view (``index`` as there)."""
        self._peers = Peers(members, self.runtime.addr, index)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` straight to every member, then deliver it here."""
        self.runtime.broadcast(self._peers, payload)
        self.deliver(self.runtime.addr, payload)
