"""All-to-all gossip-style failure detector baseline.

This is the "in-house gossip-based failure detector that uses all-to-all
monitoring" that the paper's transactional data platform used before Rapid
(section 7, Figure 12).  Every node heartbeats every other node; a node that
goes silent past a timeout at *any single observer* is declared down
cluster-wide via a rumor, and resurrect rumors fire as soon as anyone hears
from it again.

Under a packet blackhole between exactly two processes (observed by
Pingmesh-style studies), this design flaps: the isolated observer repeatedly
declares its peer down while everyone else keeps resurrecting it — which is
what drives the repeated failovers and the 32% throughput drop the paper
reports for the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.baselines.common import MembershipAgent
from repro.core.node_id import Endpoint
from repro.runtime.base import Runtime

__all__ = ["GossipFdNode"]


@dataclass(frozen=True)
class FdHeartbeat:
    sender: Endpoint


@dataclass(frozen=True)
class FdRumor:
    """Cluster-wide assertion that ``target`` is down or back up."""

    sender: Endpoint
    target: Endpoint
    alive: bool
    epoch: int


# The paper does not give the in-house detector's timers; these are this
# model's: heartbeat every second, down after three silent seconds at any
# one observer, checked twice a second.  A down-marked peer that is heard
# from again is declared alive at once by every observer that hears it.
HEARTBEAT_INTERVAL = 1.0
TIMEOUT = 3.0
CHECK_INTERVAL = 0.5


class GossipFdNode(MembershipAgent):
    """One member of a fixed cluster using all-to-all heartbeat monitoring."""

    def __init__(
        self,
        runtime: Runtime,
        members: Iterable[Endpoint],
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.members = tuple(sorted(members))
        self.down: set[Endpoint] = set()
        self._last_heard: dict[Endpoint, float] = {}
        self._epochs: dict[Endpoint, int] = {}
        runtime.attach(self.on_message)

    def start(self) -> None:
        now = self.runtime.now()
        for peer in self.members:
            if peer != self.addr:
                self._last_heard[peer] = now
        self.runtime.schedule(
            self.runtime.rng.uniform(0, HEARTBEAT_INTERVAL),
            self._heartbeat_tick,
        )
        self.runtime.schedule(CHECK_INTERVAL, self._check_tick)

    def view(self) -> tuple:
        return tuple(ep for ep in self.members if ep not in self.down)

    # ---------------------------------------------------------------- driving

    def _heartbeat_tick(self) -> None:
        for peer in self.members:
            if peer != self.addr:
                self.runtime.send(peer, FdHeartbeat(sender=self.addr))
        self.runtime.schedule(HEARTBEAT_INTERVAL, self._heartbeat_tick)

    def _check_tick(self) -> None:
        now = self.runtime.now()
        for peer, last in self._last_heard.items():
            if peer in self.down:
                continue
            if now - last > TIMEOUT:
                self._declare(peer, alive=False)
        self.runtime.schedule(CHECK_INTERVAL, self._check_tick)

    def _declare(self, target: Endpoint, alive: bool) -> None:
        epoch = self._epochs.get(target, 0) + 1
        self._epochs[target] = epoch
        self._set_status(target, alive)
        rumor = FdRumor(sender=self.addr, target=target, alive=alive, epoch=epoch)
        for peer in self.members:
            if peer != self.addr:
                self.runtime.send(peer, rumor)

    def _set_status(self, target: Endpoint, alive: bool) -> None:
        if alive:
            self.down.discard(target)
            self._last_heard[target] = self.runtime.now()
        else:
            self.down.add(target)

    # --------------------------------------------------------------- messages

    def on_message(self, src: Endpoint, msg) -> None:
        if isinstance(msg, FdHeartbeat):
            self._last_heard[msg.sender] = self.runtime.now()
            if msg.sender in self.down:
                # Heard from a supposedly dead node: resurrect it everywhere.
                self._declare(msg.sender, alive=True)
        elif isinstance(msg, FdRumor):
            epoch = self._epochs.get(msg.target, 0)
            if msg.epoch > epoch:
                self._epochs[msg.target] = msg.epoch
                self._set_status(msg.target, msg.alive)
