"""Akka-Cluster-like gossip membership baseline.

Models the behaviors that make Akka Cluster unstable in the paper's
Figure 1 experiment (80% packet loss on 1% of processes):

* full-state **gossip** every second to a random peer, merged with
  per-member version counters (a simplification of Akka's vector clocks);
* a **phi-accrual failure detector** over heartbeats to a handful of ring
  neighbors (Akka's default ``monitored-by-nr-of-members = 5``, phi
  threshold 8);
* **reachability rumors**: marking a member unreachable/reachable bumps its
  record version, so conflicting observations from different monitors race
  each other around the cluster — the "conflicting rumors ... propagate in
  the cluster concurrently" of section 2;
* **auto-downing**: a member continuously unreachable past a timeout is
  removed.  Removal is terminal (the node must rejoin), which is how benign
  but slow processes get ejected, exactly the pathology the paper observed.

View size counts members in the ``up`` state, matching how an application
sees Akka's usable cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.baselines.common import MembershipAgent
from repro.core.node_id import Endpoint
from repro.detectors.phi_accrual import PhiAccrualDetector
from repro.runtime.base import Runtime

__all__ = ["AkkaNode"]

UP = "up"
UNREACHABLE = "unreachable"
REMOVED = "removed"

_RANK = {UP: 0, UNREACHABLE: 1, REMOVED: 2}


@dataclass(frozen=True)
class AkkaGossip:
    sender: Endpoint
    state: tuple = ()  # ((endpoint, status, version), ...)


@dataclass(frozen=True)
class AkkaHeartbeat:
    sender: Endpoint


@dataclass(frozen=True)
class AkkaHeartbeatAck:
    sender: Endpoint


@dataclass(frozen=True)
class AkkaJoin:
    sender: Endpoint


# Akka Cluster's reference configuration: ``gossip-interval``,
# ``heartbeat-interval`` and ``unreachable-nodes-reaper-interval`` of one
# second, ``monitored-by-nr-of-members = 5``, phi ``threshold = 8``.
# Auto-downing is off in Akka by default; this model turns it on at 10 s.
GOSSIP_INTERVAL = 1.0
HEARTBEAT_INTERVAL = 1.0
MONITORED_MEMBERS = 5
PHI_THRESHOLD = 8.0
AUTO_DOWN_AFTER = 10.0
FD_CHECK_INTERVAL = 1.0


class AkkaNode(MembershipAgent):
    def __init__(
        self,
        runtime: Runtime,
        seeds: Iterable[Endpoint] = (),
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.seeds = tuple(seeds)
        # endpoint -> [status, version]
        self.state: dict[Endpoint, list] = {self.addr: [UP, 0]}
        self._detectors: dict[Endpoint, PhiAccrualDetector] = {}
        self._unreachable_since: dict[Endpoint, float] = {}
        # Derived-state caches, all invalidated together on any mutation of
        # ``state``.  In a converged cluster every gossip tick/merge would
        # otherwise rebuild O(n log n) sorted tuples, which dominates large-n
        # simulation cost.
        self._cached_view: Optional[tuple] = None
        self._cached_snapshot: Optional[tuple] = None
        self._cached_peers: Optional[list] = None
        self._cached_targets: Optional[list] = None
        runtime.attach(self.on_message)

    def _invalidate(self) -> None:
        self._cached_view = None
        self._cached_snapshot = None
        self._cached_peers = None
        self._cached_targets = None

    def start(self) -> None:
        for seed in self.seeds:
            if seed != self.addr:
                self.runtime.send(seed, AkkaJoin(sender=self.addr))
        self.runtime.schedule(
            self.runtime.rng.uniform(0, GOSSIP_INTERVAL), self._gossip_tick
        )
        self.runtime.schedule(
            self.runtime.rng.uniform(0, HEARTBEAT_INTERVAL),
            self._heartbeat_tick,
        )
        self.runtime.schedule(FD_CHECK_INTERVAL, self._fd_check)

    def view(self) -> tuple:
        if self._cached_view is None:
            self._cached_view = tuple(
                sorted(ep for ep, (status, _) in self.state.items() if status == UP)
            )
        return self._cached_view

    # ------------------------------------------------------------- monitoring

    def _monitor_targets(self) -> list:
        """Ring neighbors in sorted order (Akka's heartbeat topology)."""
        if self._cached_targets is None:
            members = sorted(
                ep for ep, (status, _) in self.state.items() if status != REMOVED
            )
            if self.addr not in members or len(members) < 2:
                self._cached_targets = []
            else:
                idx = members.index(self.addr)
                count = min(MONITORED_MEMBERS, len(members) - 1)
                self._cached_targets = [
                    members[(idx + i + 1) % len(members)] for i in range(count)
                ]
        return self._cached_targets

    def _heartbeat_tick(self) -> None:
        for target in self._monitor_targets():
            self.runtime.send(target, AkkaHeartbeat(sender=self.addr))
        self.runtime.schedule(HEARTBEAT_INTERVAL, self._heartbeat_tick)

    def _fd_check(self) -> None:
        now = self.runtime.now()
        targets = set(self._monitor_targets())
        for target in targets:
            detector = self._detectors.get(target)
            if detector is None:
                detector = PhiAccrualDetector(
                    threshold=PHI_THRESHOLD,
                    expected_interval=HEARTBEAT_INTERVAL,
                )
                # Seed the arrival history so phi is meaningful immediately.
                detector.on_probe_success(now, 0.0)
                self._detectors[target] = detector
            status, version = self.state.get(target, (None, 0))
            if status == UP and detector.current_phi(now) >= PHI_THRESHOLD:
                self._mark(target, UNREACHABLE)
            elif status == UNREACHABLE and detector.current_phi(now) < PHI_THRESHOLD:
                self._mark(target, UP)
        # Auto-down: unreachable for too long is removed cluster-wide.
        for target, since in list(self._unreachable_since.items()):
            status, _ = self.state.get(target, (None, 0))
            if status != UNREACHABLE:
                self._unreachable_since.pop(target, None)
            elif now - since > AUTO_DOWN_AFTER:
                self._mark(target, REMOVED)
                self._unreachable_since.pop(target, None)
        self.runtime.schedule(FD_CHECK_INTERVAL, self._fd_check)

    def _mark(self, target: Endpoint, status: str) -> None:
        record = self.state.get(target)
        version = (record[1] if record else 0) + 1
        self.state[target] = [status, version]
        self._invalidate()
        if status == UNREACHABLE:
            self._unreachable_since.setdefault(target, self.runtime.now())

    # ----------------------------------------------------------------- gossip

    def _gossip_tick(self) -> None:
        if self._cached_peers is None:
            # Insertion order, not sorted: the random peer pick must draw
            # from the same sequence as the uncached implementation.
            self._cached_peers = [
                ep
                for ep, (status, _) in self.state.items()
                if ep != self.addr and status != REMOVED
            ]
        peers = self._cached_peers
        if peers:
            peer = peers[self.runtime.rng.randrange(len(peers))]
            self.runtime.send(peer, AkkaGossip(sender=self.addr, state=self._snapshot()))
        self.runtime.schedule(GOSSIP_INTERVAL, self._gossip_tick)

    def _snapshot(self) -> tuple:
        if self._cached_snapshot is None:
            self._cached_snapshot = tuple(
                (ep, status, version)
                for ep, (status, version) in sorted(self.state.items())
            )
        return self._cached_snapshot

    # --------------------------------------------------------------- messages

    def on_message(self, src: Endpoint, msg) -> None:
        if isinstance(msg, AkkaHeartbeat):
            self.runtime.send(msg.sender, AkkaHeartbeatAck(sender=self.addr))
            self._learn(msg.sender)
        elif isinstance(msg, AkkaHeartbeatAck):
            detector = self._detectors.get(msg.sender)
            if detector is not None:
                detector.on_probe_success(self.runtime.now(), 0.0)
        elif isinstance(msg, AkkaJoin):
            self.state[msg.sender] = [UP, self.state.get(msg.sender, [UP, 0])[1] + 1]
            self._invalidate()
            self.runtime.send(msg.sender, AkkaGossip(sender=self.addr, state=self._snapshot()))
        elif isinstance(msg, AkkaGossip):
            self._merge(msg.state)

    def _learn(self, endpoint: Endpoint) -> None:
        if endpoint not in self.state:
            self.state[endpoint] = [UP, 1]
            self._invalidate()

    def _merge(self, snapshot: tuple) -> None:
        if snapshot == self._snapshot():
            # Converged steady state: the incoming full-state gossip carries
            # exactly what we already believe, so the per-entry merge below
            # is a no-op (every version ties and every rank ties; our own
            # entry is UP so no refutation fires).  Skipping it is the hot
            # path at large n.
            return
        changed = False
        for endpoint, status, version in snapshot:
            if endpoint == self.addr:
                # Refute unreachability claims about ourselves; removal is
                # terminal in Akka (a removed node must rejoin).
                mine = self.state[self.addr]
                if status == UNREACHABLE and version >= mine[1]:
                    self.state[self.addr] = [UP, version + 1]
                    changed = True
                continue
            record = self.state.get(endpoint)
            if record is None:
                if status != REMOVED:
                    self.state[endpoint] = [status, version]
                    changed = True
                continue
            if version > record[1] or (
                version == record[1] and _RANK[status] > _RANK[record[0]]
            ):
                record[0] = status
                record[1] = version
                changed = True
                if status == UNREACHABLE:
                    self._unreachable_since.setdefault(endpoint, self.runtime.now())
        if changed:
            self._invalidate()
