"""SWIM-style gossip membership — a Memberlist work-alike.

This models HashiCorp's Memberlist (the library under Serf and Consul),
which implements SWIM [Das et al., DSN'02] with Lifeguard-era defaults:

* round-robin **probing**: each protocol period, ping one member; on
  timeout, ask ``indirect_probes`` random peers to ping it for us;
* **suspicion** with incarnation-numbered refutation: a suspected member
  that hears about its suspicion re-asserts itself with a higher
  incarnation; unrefuted suspicion expires to ``dead`` after a multiplier
  of ``log(N)`` protocol periods;
* **piggybacked + dedicated gossip**: membership updates ride on ping/ack
  traffic and on a dedicated gossip tick, each update retransmitted
  ``retransmit_mult * log(N)`` times;
* periodic **push-pull** full state synchronization with a random peer
  (Memberlist's 30-second ``PushPullInterval`` in ``DefaultLANConfig``) —
  the paper's bootstrap experiments show this is what dominates
  Memberlist's convergence time at scale.

The instabilities the paper measures (Figures 1, 9, 10) emerge from exactly
these rules: under partial packet loss, suspicions and refutations race
forever, and a dead-then-refuted member flaps in and out of every view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.baselines.common import MembershipAgent
from repro.core.node_id import Endpoint
from repro.runtime.base import Runtime

__all__ = ["SwimNode", "SwimConfig"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


@dataclass(frozen=True)
class Update:
    """A gossiped membership assertion."""

    endpoint: Endpoint
    status: str
    incarnation: int


@dataclass(frozen=True)
class SwimPing:
    sender: Endpoint
    seq: int
    updates: tuple = ()


@dataclass(frozen=True)
class SwimAck:
    sender: Endpoint
    seq: int
    updates: tuple = ()


@dataclass(frozen=True)
class SwimPingReq:
    """Indirect probe request: "please ping ``target`` for me"."""

    sender: Endpoint
    origin: Endpoint
    target: Endpoint
    seq: int
    updates: tuple = ()


@dataclass(frozen=True)
class SwimIndirectAck:
    sender: Endpoint
    target: Endpoint
    seq: int
    updates: tuple = ()


@dataclass(frozen=True)
class SwimPushPull:
    """Full state exchange used on join and periodically for anti-entropy."""

    sender: Endpoint
    state: tuple = ()  # ((endpoint, status, incarnation), ...)
    reply: bool = False


@dataclass
class SwimConfig:
    """Memberlist ``DefaultLANConfig``-shaped parameters."""

    protocol_period: float = 1.0
    probe_timeout: float = 0.5
    indirect_probes: int = 3
    suspicion_mult: float = 4.0
    gossip_interval: float = 0.2
    gossip_nodes: int = 3
    retransmit_mult: float = 4.0
    push_pull_interval: float = 30.0
    max_piggyback: int = 8


@dataclass
class _Member:
    status: str
    incarnation: int


class SwimNode(MembershipAgent):
    """One SWIM/Memberlist agent."""

    def __init__(
        self,
        runtime: Runtime,
        seeds: Iterable[Endpoint] = (),
        config: Optional[SwimConfig] = None,
        on_view_change=None,
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.config = config or SwimConfig()
        self.seeds = tuple(seeds)
        self.on_view_change = on_view_change
        self.incarnation = 0
        self.members: dict[Endpoint, _Member] = {self.addr: _Member(ALIVE, 0)}
        self._probe_order: list[Endpoint] = []
        self._probe_seq = 0
        self._pending_acks: set[int] = set()
        # Relay bookkeeping for indirect probes: our ping seq -> (origin,
        # origin's seq), so the target's ack can be forwarded back.
        self._relay: dict[int, tuple] = {}
        self._suspicion_timers: dict[Endpoint, object] = {}
        self._view_cache: Optional[tuple] = None
        # Update -> remaining retransmissions.
        self._broadcast_queue: dict[Update, int] = {}
        self._started = False
        runtime.attach(self.on_message)

    # ----------------------------------------------------------------- public

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for seed in self.seeds:
            if seed != self.addr:
                self.runtime.send(seed, SwimPushPull(sender=self.addr, state=self._state()))
        self._queue_update(Update(self.addr, ALIVE, self.incarnation))
        jitter = self.runtime.rng.uniform(0, self.config.protocol_period)
        self.runtime.schedule(jitter, self._probe_tick)
        self.runtime.schedule(self.config.gossip_interval, self._gossip_tick)
        self.runtime.schedule(
            self.runtime.rng.uniform(0, self.config.push_pull_interval),
            self._push_pull_tick,
        )

    def view(self) -> tuple:
        # Cached: the harness polls every agent's view once per virtual
        # second and _apply diffs it around every update, so re-sorting
        # the membership per call dominated baseline runs.
        cached = self._view_cache
        if cached is None:
            cached = self._view_cache = tuple(
                sorted(ep for ep, m in self.members.items() if m.status != DEAD)
            )
        return cached

    # ----------------------------------------------------------------- probing

    def _probe_tick(self) -> None:
        target = self._next_probe_target()
        if target is not None:
            self._probe_seq += 1
            seq = self._probe_seq
            self._pending_acks.add(seq)
            self.runtime.send(
                target,
                SwimPing(sender=self.addr, seq=seq, updates=self._piggyback()),
            )
            self.runtime.schedule(
                self.config.probe_timeout, self._probe_timeout, target, seq
            )
        self.runtime.schedule(self.config.protocol_period, self._probe_tick)

    def _next_probe_target(self) -> Optional[Endpoint]:
        # Memberlist shuffles the member list and walks it round-robin so
        # every member is probed within N periods.
        alive = [ep for ep, m in self.members.items() if ep != self.addr and m.status != DEAD]
        if not alive:
            return None
        while True:
            if not self._probe_order:
                self._probe_order = alive[:]
                self.runtime.rng.shuffle(self._probe_order)
            candidate = self._probe_order.pop()
            member = self.members.get(candidate)
            if member is not None and member.status != DEAD:
                return candidate
            if not any(
                self.members.get(c) and self.members[c].status != DEAD
                for c in self._probe_order
            ):
                return None

    def _probe_timeout(self, target: Endpoint, seq: int) -> None:
        if seq not in self._pending_acks:
            return
        # Try indirect probes before suspecting.
        peers = self._random_peers(self.config.indirect_probes, exclude={target})
        for peer in peers:
            self.runtime.send(
                peer,
                SwimPingReq(
                    sender=self.addr,
                    origin=self.addr,
                    target=target,
                    seq=seq,
                    updates=self._piggyback(),
                ),
            )
        self.runtime.schedule(
            self.config.protocol_period - self.config.probe_timeout,
            self._indirect_timeout,
            target,
            seq,
        )

    def _indirect_timeout(self, target: Endpoint, seq: int) -> None:
        if seq not in self._pending_acks:
            return
        self._pending_acks.discard(seq)
        member = self.members.get(target)
        if member is not None and member.status == ALIVE:
            self._apply(Update(target, SUSPECT, member.incarnation))

    # ----------------------------------------------------------------- gossip

    def _piggyback(self) -> tuple:
        out = []
        for update in list(self._broadcast_queue):
            if len(out) >= self.config.max_piggyback:
                break
            out.append(update)
            self._broadcast_queue[update] -= 1
            if self._broadcast_queue[update] <= 0:
                del self._broadcast_queue[update]
        return tuple(out)

    def _queue_update(self, update: Update) -> None:
        n = max(2, len(self.members))
        retransmits = int(self.config.retransmit_mult * math.log10(n) + 1)
        self._broadcast_queue[update] = retransmits

    def _gossip_tick(self) -> None:
        if self._broadcast_queue:
            peers = self._random_peers(self.config.gossip_nodes)
            updates = self._piggyback()
            if updates:
                for peer in peers:
                    self.runtime.send(
                        peer, SwimAck(sender=self.addr, seq=0, updates=updates)
                    )
        self.runtime.schedule(self.config.gossip_interval, self._gossip_tick)

    def _push_pull_tick(self) -> None:
        peers = self._random_peers(1)
        for peer in peers:
            self.runtime.send(peer, SwimPushPull(sender=self.addr, state=self._state()))
        self.runtime.schedule(self.config.push_pull_interval, self._push_pull_tick)

    def _random_peers(self, count: int, exclude: frozenset = frozenset()) -> list:
        candidates = [
            ep
            for ep, m in self.members.items()
            if ep != self.addr and ep not in exclude and m.status != DEAD
        ]
        if len(candidates) <= count:
            return candidates
        return self.runtime.rng.sample(candidates, count)

    def _state(self) -> tuple:
        return tuple(
            (ep, m.status, m.incarnation) for ep, m in sorted(self.members.items())
        )

    # --------------------------------------------------------------- messages

    def on_message(self, src: Endpoint, msg) -> None:
        if isinstance(msg, SwimPing):
            self._ingest(msg.updates)
            self.runtime.send(
                msg.sender,
                SwimAck(sender=self.addr, seq=msg.seq, updates=self._piggyback()),
            )
        elif isinstance(msg, SwimAck):
            self._ingest(msg.updates)
            relay = self._relay.pop(msg.seq, None)
            if relay is not None:
                origin, origin_seq = relay
                self.runtime.send(
                    origin,
                    SwimIndirectAck(
                        sender=self.addr,
                        target=msg.sender,
                        seq=origin_seq,
                        updates=self._piggyback(),
                    ),
                )
            else:
                self._pending_acks.discard(msg.seq)
        elif isinstance(msg, SwimPingReq):
            self._ingest(msg.updates)
            self._probe_seq += 1
            relay_seq = self._probe_seq
            self._relay[relay_seq] = (msg.origin, msg.seq)
            self.runtime.send(
                msg.target,
                SwimPing(sender=self.addr, seq=relay_seq, updates=self._piggyback()),
            )
        elif isinstance(msg, SwimIndirectAck):
            self._ingest(msg.updates)
            self._pending_acks.discard(msg.seq)
        elif isinstance(msg, SwimPushPull):
            self._ingest(
                tuple(Update(ep, status, inc) for ep, status, inc in msg.state)
            )
            if not msg.reply:
                self.runtime.send(
                    src,
                    SwimPushPull(sender=self.addr, state=self._state(), reply=True),
                )

    def _ingest(self, updates: Iterable[Update]) -> None:
        for update in updates:
            self._apply(update)

    # ------------------------------------------------------------ state rules

    def _apply(self, update: Update) -> None:
        """SWIM's precedence rules: higher incarnations win; for equal
        incarnations dead > suspect > alive.  Assertions about ourselves are
        refuted by bumping our incarnation."""
        before = self.view()
        if update.endpoint == self.addr:
            if update.status in (SUSPECT, DEAD) and update.incarnation >= self.incarnation:
                self.incarnation = update.incarnation + 1
                self.members[self.addr] = _Member(ALIVE, self.incarnation)
                self._view_cache = None
                self._queue_update(Update(self.addr, ALIVE, self.incarnation))
            return
        member = self.members.get(update.endpoint)
        if member is None:
            if update.status == DEAD:
                return  # don't learn about members via their obituary
            self.members[update.endpoint] = _Member(update.status, update.incarnation)
            self._view_cache = None
            self._queue_update(update)
            self._after_change(update, before)
            return
        if not self._supersedes(update, member):
            return
        member.status = update.status
        member.incarnation = update.incarnation
        self._view_cache = None
        self._queue_update(update)
        self._after_change(update, before)

    @staticmethod
    def _supersedes(update: Update, member: _Member) -> bool:
        rank = {ALIVE: 0, SUSPECT: 1, DEAD: 2}
        if update.incarnation > member.incarnation:
            return True
        if update.incarnation == member.incarnation:
            return rank[update.status] > rank[member.status]
        return False

    def _after_change(self, update: Update, view_before: tuple) -> None:
        if update.status == SUSPECT:
            self._arm_suspicion_timer(update.endpoint, update.incarnation)
        timer = self._suspicion_timers.pop(update.endpoint, None)
        if timer is not None and update.status == ALIVE:
            timer.cancel()
        view_after = self.view()
        if view_after != view_before and self.on_view_change is not None:
            self.on_view_change(view_after)

    def _arm_suspicion_timer(self, endpoint: Endpoint, incarnation: int) -> None:
        n = max(2, len(self.members))
        timeout = (
            self.config.suspicion_mult * math.log10(n) * self.config.protocol_period
        )
        old = self._suspicion_timers.pop(endpoint, None)
        if old is not None:
            old.cancel()
        self._suspicion_timers[endpoint] = self.runtime.schedule(
            timeout, self._suspicion_expired, endpoint, incarnation
        )

    def _suspicion_expired(self, endpoint: Endpoint, incarnation: int) -> None:
        self._suspicion_timers.pop(endpoint, None)
        member = self.members.get(endpoint)
        if member is not None and member.status == SUSPECT and member.incarnation == incarnation:
            self._apply(Update(endpoint, DEAD, incarnation))
