"""Cluster-wide dissemination substrate.

Rapid broadcasts two kinds of payloads: batched edge alerts (paper
section 4.2) and consensus traffic (section 4.3).  An alert batch must
reach every member whole and cannot be merged with another in transit,
so :meth:`Broadcaster.unicast` sends it straight to every member at every
view size: one message delay and one copy per member, matching the
reference implementation's default broadcaster.  When hundreds of
observers announce at once (a healed partition's removals and rejoins)
this sends more datagrams than the epidemic would, whose relays pack many
origins' batches into one, but a fraction of the bytes, and no datagram
is larger than one observer's batch (``docs/ARCHITECTURE.md``, "Alert
fan-outs at scale").  Consensus traffic goes through
:meth:`Broadcaster.broadcast`, which disseminates one of two ways, chosen
per installed view by its owner (see
:meth:`repro.core.settings.RapidSettings.use_gossip`):

* **unicast** — the same fan-out to every member; cheap at small N.
* **gossip** — epidemic "infect and die" relay: the originator sends to
  ``fanout`` random peers; every first-time receiver relays onward while a
  hop budget lasts.  O(log N) latency, per-node fan-out bounded at large N.
  Vote aggregates merge by OR, and in a gossip view
  :class:`~repro.core.fast_paxos.FastPaxos` counts them by its own delta
  gossip, so there the epidemic carries a classical recovery round.

Either way the payload is delivered locally as well, so a node always
processes its own broadcasts through the same code path as everyone
else's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain, islice
from typing import Any, Callable, Iterator, Optional

from repro.core.messages import GossipBundle, GossipEnvelope
from repro.core.node_id import Endpoint
from repro.runtime.base import Runtime

__all__ = ["Broadcaster", "Peers"]

Deliver = Callable[[Endpoint, Any], None]

#: Seconds a node buffers the envelopes it owes a forward before relaying
#: them as one bundle (see :class:`Broadcaster`, "relay batching").
GOSSIP_RELAY_WINDOW = 0.05


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
    """Deliver a payload to every member of the current view.

    :meth:`unicast` fans the bare payload out to the precomputed peer list
    through the runtime's ``broadcast``, in every view; :meth:`broadcast`
    does the same in unicast views.  Gossip views wrap it in a
    :class:`~repro.core.messages.GossipEnvelope` and relay epidemically
    with duplicate suppression and relay batching.  Inbound envelopes are
    relayed whichever way this node currently originates: during a view
    change peers may disagree about the mode for a moment, and an
    envelope must travel on no matter which side of the threshold this
    node sits on.

    An envelope lives for ``ceil(log2(N)) + 3`` relays, enough for an
    epidemic with the default fanout to reach all members with high
    probability; duplicates are dropped on the ``(origin, message_id)``
    key, where ``message_id`` is a per-origin sequence number.  The id is
    deterministic — same-seed runs must replay identically across
    interpreter invocations, so nothing derived from the builtin
    ``hash()`` (which varies with ``PYTHONHASHSEED``) may reach the wire.

    **Relay batching**: envelopes awaiting a forward are buffered for
    ``GOSSIP_RELAY_WINDOW`` seconds and then relayed together as one
    :class:`~repro.core.messages.GossipBundle` to a single random peer
    sample.  When several envelopes arrive in one window — the rounds of
    a classical recovery, or several origins' envelopes at once — this
    collapses k per-envelope relay fan-outs into one timer plus one
    fan-out, at the cost of up to ``GOSSIP_RELAY_WINDOW`` seconds of added
    latency per hop.  A node's *own* broadcasts are never delayed.  A
    bundle's size is not bounded: a classical round at n=1000 relays every
    acceptor's ``Phase2b`` and can build bundles past the 65,507-byte
    datagram limit (ROADMAP item 5).
    """

    def __init__(self, runtime: Runtime, deliver: Deliver, fanout: int = 8) -> None:
        """Bind the substrate to ``runtime`` and its delivery callback."""
        self.runtime = runtime
        self.deliver = deliver
        self.fanout = fanout
        #: True when the current view originates broadcasts epidemically.
        self.gossip = False
        self._members: tuple = ()
        self._peers: Sequence = ()
        self._seen: set = set()
        self._next_id = 0
        self._relay_buf: list = []
        self._relay_timer = None

    def set_membership(
        self, members: Sequence, gossip: bool, index: Optional[dict] = None
    ) -> None:
        """Adopt a new view and its dissemination mode.

        Takes the peer list (members minus self, as a :class:`Peers` view;
        ``index`` as there) and forgets the dedup history.  Envelopes
        still buffered for relay belong to the old view and are dropped
        with it — relaying them after ``_seen`` was wiped would make every
        receiver treat them as first-seen and re-start an epidemic of
        already-disseminated, now-stale traffic.
        """
        self.gossip = gossip
        self._members = tuple(members)
        self._peers = Peers(self._members, self.runtime.addr, index)
        self._seen.clear()
        self._relay_buf.clear()
        if self._relay_timer is not None:
            self._relay_timer.cancel()
            self._relay_timer = None

    def _hops(self) -> int:
        n = max(2, len(self._members))
        return int(math.ceil(math.log2(n))) + 3

    def unicast(self, payload: Any) -> None:
        """Send ``payload`` straight to every member, self included."""
        self.runtime.broadcast(self._peers, payload)
        self.deliver(self.runtime.addr, payload)

    def broadcast(self, payload: Any) -> None:
        """Disseminate ``payload`` to every member, self included."""
        if not self.gossip:
            self.unicast(payload)
            return
        # The counter is never reset (not even on view changes) so the
        # (origin, id) dedup key stays unique for the broadcaster's
        # lifetime.
        self._next_id += 1
        envelope = GossipEnvelope(
            sender=self.runtime.addr,
            message_id=self._next_id,
            hops_left=self._hops(),
            payload=payload,
        )
        self._seen.add((self.runtime.addr, self._next_id))
        self.deliver(self.runtime.addr, payload)
        self._relay(envelope)

    def handle(self, src: Endpoint, envelope: Any) -> None:
        """Process an inbound envelope or relay bundle (dedup + forward)."""
        if isinstance(envelope, GossipBundle):
            for inner in envelope.envelopes:
                self._handle_envelope(inner)
        else:
            self._handle_envelope(envelope)

    def _handle_envelope(self, envelope: GossipEnvelope) -> None:
        key = (envelope.sender, envelope.message_id)
        if key in self._seen:
            return
        self._seen.add(key)
        self.deliver(envelope.sender, envelope.payload)
        if envelope.hops_left > 0:
            self._relay_buf.append(
                GossipEnvelope(
                    sender=envelope.sender,
                    message_id=envelope.message_id,
                    hops_left=envelope.hops_left - 1,
                    payload=envelope.payload,
                )
            )
            if self._relay_timer is None:
                self._relay_timer = self.runtime.schedule(
                    GOSSIP_RELAY_WINDOW, self._flush_relays
                )

    def _flush_relays(self) -> None:
        """Forward everything buffered during the window as one bundle."""
        self._relay_timer = None
        buf = self._relay_buf  # never empty: filled when the timer is armed
        if len(buf) == 1:
            message: Any = buf[0]
        else:
            message = GossipBundle(sender=self.runtime.addr, envelopes=tuple(buf))
        buf.clear()
        self._relay(message)

    def _relay(self, message: Any) -> None:
        peers = self._peers
        if not peers:
            return
        count = min(self.fanout, len(peers))
        self.runtime.broadcast(self.runtime.rng.sample(peers, count), message)

