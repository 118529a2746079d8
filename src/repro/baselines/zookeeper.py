"""ZooKeeper-style logically centralized membership baseline.

Models the way the paper's evaluation uses ZooKeeper for group membership
(via Apache Curator): every process holds a session with a 3-server
ensemble, registers itself as an *ephemeral znode* under a group path, and
maintains a *watch* on the group's children.  The mechanisms responsible for
the behaviors the paper measures are modeled explicitly:

* **sessions** — clients heartbeat their server; the leader expires sessions
  that go silent, deleting their ephemeral znodes.  A client whose session
  expired reconnects with a fresh session and re-registers, which is what
  produces ZooKeeper's flapping under heavy egress packet loss (Figure 10)
  — and its *non*-reaction to ingress-only loss (Figure 9), since such
  clients keep heartbeating happily;
* **watches** — one-shot: when the children change, each server notifies
  registered clients, which re-read the full child list and re-arm.  Changes
  landing between the notification and the re-arm are missed (the
  documented lose-updates window, which yields the eventually-consistent
  client views of Figure 7);
* **the herd effect** — the ``i``-th join triggers ``i - 1`` watch events
  and full re-reads, so bootstrap work grows quadratically.  Servers are
  modeled with a finite service rate (a ``busy_until`` queue), making the
  herd visible as queueing delay exactly as the paper describes ("herd
  behavior ... resulting in its bootstrap latency increasing by 4x from
  N=1000 to N=2000").

Server capacities (``BASE_COST``, ``PER_CHILD_COST``) are calibrated for
the scaled-down cluster sizes used in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.baselines.common import MembershipAgent
from repro.core.node_id import Endpoint
from repro.runtime.base import Runtime

__all__ = ["ZkServer", "ZkClient", "build_ensemble"]


# ------------------------------------------------------------------ messages


@dataclass(frozen=True)
class ZkConnect:
    sender: Endpoint


@dataclass(frozen=True)
class ZkConnectReply:
    sender: Endpoint
    session_id: int


@dataclass(frozen=True)
class ZkSessionExpired:
    sender: Endpoint
    session_id: int


@dataclass(frozen=True)
class ZkHeartbeat:
    sender: Endpoint
    session_id: int


@dataclass(frozen=True)
class ZkHeartbeatReply:
    sender: Endpoint
    session_id: int


@dataclass(frozen=True)
class ZkRegister:
    """Create the client's ephemeral member znode."""

    sender: Endpoint
    session_id: int


@dataclass(frozen=True)
class ZkRegisterReply:
    sender: Endpoint
    ok: bool = True


@dataclass(frozen=True)
class ZkGetChildren:
    sender: Endpoint
    session_id: int
    watch: bool = True


@dataclass(frozen=True)
class ZkChildrenReply:
    sender: Endpoint
    members: tuple = ()
    zxid: int = 0


@dataclass(frozen=True)
class ZkWatchEvent:
    sender: Endpoint
    zxid: int = 0


# Intra-ensemble replication.


@dataclass(frozen=True)
class ZkPropose:
    sender: Endpoint
    zxid: int
    op: str  # "create" | "delete"
    target: Endpoint = Endpoint("unset")
    session_id: int = 0


@dataclass(frozen=True)
class ZkAckProposal:
    sender: Endpoint
    zxid: int


@dataclass(frozen=True)
class ZkCommit:
    sender: Endpoint
    zxid: int
    op: str
    target: Endpoint = Endpoint("unset")
    session_id: int = 0


@dataclass(frozen=True)
class ZkSessionTouch:
    """Follower -> leader: client heartbeat relay."""

    sender: Endpoint
    session_id: int
    client: Endpoint


# Client timers: a 6 s session, pinged every third of it as ZooKeeper's
# client does, and the paper's 5-second poll alongside the watches.
SESSION_TIMEOUT = 6.0
HEARTBEAT_INTERVAL = 2.0
POLL_INTERVAL = 5.0
# Server service costs.  These are deliberately inflated relative to a
# real ZooKeeper: the herd effect the paper measures is quadratic in N,
# and the benchmarks run at roughly 10x-scaled-down cluster sizes, so
# per-request costs are scaled up to preserve the same saturation shape.
BASE_COST = 0.005  # seconds of server time per request
PER_CHILD_COST = 0.0005  # extra per child in a list response
WRITE_COST = 0.008
#: How often the leader expires sessions that went silent.
SESSION_CHECK_INTERVAL = 1.0


# ------------------------------------------------------------------- servers


class ZkServer:
    """One ensemble server.  ``servers[0]`` is the fixed leader.

    Requests are serialized through a single ``busy_until`` queue per
    server, so load (e.g. watch herds) appears as response latency.
    """

    def __init__(
        self,
        runtime: Runtime,
        servers: Iterable[Endpoint],
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.servers = tuple(servers)
        self.leader = self.servers[0]
        self.is_leader = self.addr == self.leader
        # Replicated state: member endpoint -> owning session id.
        self.children: dict[Endpoint, int] = {}
        self.zxid = 0
        # Watches registered at *this* server: client -> session id.
        self.watches: dict[Endpoint, int] = {}
        # Leader-only session table: session id -> (client, last heartbeat).
        self.sessions: dict[int, list] = {}
        self._next_session = 0
        self._busy_until = 0.0
        # Leader-only: in-flight proposals zxid -> (op, target, session, acks)
        self._proposals: dict[int, list] = {}
        runtime.attach(self.on_message)

    def start(self) -> None:
        if self.is_leader:
            self.runtime.schedule(SESSION_CHECK_INTERVAL, self._session_check)

    # ----------------------------------------------------------- service time

    def _service_delay(self, cost: float) -> float:
        """Queue a request costing ``cost`` seconds; return completion delay."""
        now = self.runtime.now()
        start = max(now, self._busy_until)
        self._busy_until = start + cost
        return self._busy_until - now

    def _respond(self, dst: Endpoint, msg, cost: float) -> None:
        self.runtime.schedule(self._service_delay(cost), self.runtime.send, dst, msg)

    # --------------------------------------------------------------- messages

    def on_message(self, src: Endpoint, msg) -> None:
        if isinstance(msg, ZkConnect):
            self._on_connect(msg)
        elif isinstance(msg, ZkHeartbeat):
            self._on_heartbeat(msg)
        elif isinstance(msg, ZkSessionTouch):
            self._touch(msg.session_id, msg.client)
        elif isinstance(msg, ZkRegister):
            self._on_register(msg)
        elif isinstance(msg, ZkGetChildren):
            self._on_get_children(msg)
        elif isinstance(msg, ZkPropose):
            self._on_propose(src, msg)
        elif isinstance(msg, ZkAckProposal):
            self._on_ack_proposal(msg)
        elif isinstance(msg, ZkCommit):
            self._apply_commit(msg)

    # ----------------------------------------------------------------- client

    def _on_connect(self, msg: ZkConnect) -> None:
        if self.is_leader:
            self._next_session += 1
            session_id = (hash(str(self.addr)) & 0xFFFF) * 1_000_000 + self._next_session
            self.sessions[session_id] = [msg.sender, self.runtime.now()]
            self._respond(
                msg.sender,
                ZkConnectReply(sender=self.addr, session_id=session_id),
                BASE_COST,
            )
        else:
            # Forward connects to the leader (sessions are leader-owned).
            self.runtime.send(self.leader, msg)

    def _on_heartbeat(self, msg: ZkHeartbeat) -> None:
        if self.is_leader:
            known = self._touch(msg.session_id, msg.sender)
            reply = (
                ZkHeartbeatReply(sender=self.addr, session_id=msg.session_id)
                if known
                else ZkSessionExpired(sender=self.addr, session_id=msg.session_id)
            )
            self._respond(msg.sender, reply, BASE_COST / 4)
        else:
            self.runtime.send(
                self.leader,
                ZkSessionTouch(
                    sender=self.addr, session_id=msg.session_id, client=msg.sender
                ),
            )
            self._respond(
                msg.sender,
                ZkHeartbeatReply(sender=self.addr, session_id=msg.session_id),
                BASE_COST / 4,
            )

    def _touch(self, session_id: int, client: Endpoint) -> bool:
        if not self.is_leader:
            return True
        session = self.sessions.get(session_id)
        if session is None:
            return False
        session[1] = self.runtime.now()
        return True

    def _on_register(self, msg: ZkRegister) -> None:
        if not self.is_leader:
            self.runtime.send(self.leader, msg)
            return
        self._start_proposal("create", msg.sender, msg.session_id)
        self._respond(msg.sender, ZkRegisterReply(sender=self.addr), WRITE_COST)

    def _on_get_children(self, msg: ZkGetChildren) -> None:
        members = tuple(sorted(self.children))
        if msg.watch:
            self.watches[msg.sender] = msg.session_id
        cost = BASE_COST + PER_CHILD_COST * len(members)
        self._respond(
            msg.sender,
            ZkChildrenReply(sender=self.addr, members=members, zxid=self.zxid),
            cost,
        )

    # ------------------------------------------------------------ replication

    def _start_proposal(self, op: str, target: Endpoint, session_id: int) -> None:
        self.zxid += 1
        zxid = self.zxid
        self._proposals[zxid] = [op, target, session_id, 1]  # leader self-ack
        proposal = ZkPropose(
            sender=self.addr, zxid=zxid, op=op, target=target, session_id=session_id
        )
        for server in self.servers:
            if server != self.addr:
                self.runtime.send(server, proposal)
        if len(self.servers) == 1:
            self._commit(zxid)

    def _on_propose(self, src: Endpoint, msg: ZkPropose) -> None:
        self._respond(src, ZkAckProposal(sender=self.addr, zxid=msg.zxid), BASE_COST)

    def _on_ack_proposal(self, msg: ZkAckProposal) -> None:
        entry = self._proposals.get(msg.zxid)
        if entry is None:
            return
        entry[3] += 1
        if entry[3] >= len(self.servers) // 2 + 1:
            self._commit(msg.zxid)

    def _commit(self, zxid: int) -> None:
        entry = self._proposals.pop(zxid, None)
        if entry is None:
            return
        op, target, session_id, _ = entry
        commit = ZkCommit(
            sender=self.addr, zxid=zxid, op=op, target=target, session_id=session_id
        )
        for server in self.servers:
            if server != self.addr:
                self.runtime.send(server, commit)
        self._apply_commit(commit)

    def _apply_commit(self, msg: ZkCommit) -> None:
        if msg.zxid > self.zxid:
            self.zxid = msg.zxid
        if msg.op == "create":
            self.children[msg.target] = msg.session_id
        elif msg.op == "delete":
            self.children.pop(msg.target, None)
        self._fire_watches(msg.zxid)

    def _fire_watches(self, zxid: int) -> None:
        """One-shot watch semantics: notify and clear."""
        watchers = list(self.watches)
        self.watches.clear()
        for client in watchers:
            self._respond(
                client,
                ZkWatchEvent(sender=self.addr, zxid=zxid),
                BASE_COST / 10,
            )

    # --------------------------------------------------------------- sessions

    def _session_check(self) -> None:
        now = self.runtime.now()
        expired = [
            sid
            for sid, (client, last) in self.sessions.items()
            if now - last > SESSION_TIMEOUT
        ]
        for sid in expired:
            client, _ = self.sessions.pop(sid)
            for target, owner in list(self.children.items()):
                if owner == sid:
                    self._start_proposal("delete", target, sid)
        self.runtime.schedule(SESSION_CHECK_INTERVAL, self._session_check)


# ------------------------------------------------------------------- clients


class ZkClient(MembershipAgent):
    """A membership agent backed by the ZooKeeper ensemble."""

    def __init__(
        self,
        runtime: Runtime,
        servers: Iterable[Endpoint],
        on_view_change=None,
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.servers = tuple(servers)
        self.on_view_change = on_view_change
        self.session_id: Optional[int] = None
        self.members: tuple = ()
        self._server = self.servers[0]
        self._started = False
        runtime.attach(self.on_message)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._server = self.servers[
            self.runtime.rng.randrange(len(self.servers))
        ]
        self._connect()
        self.runtime.schedule(HEARTBEAT_INTERVAL, self._heartbeat_tick)
        self.runtime.schedule(
            POLL_INTERVAL + self.runtime.rng.uniform(0, 1.0),
            self._poll_tick,
        )

    def view(self) -> tuple:
        return self.members

    # -------------------------------------------------------------- lifecycle

    def _connect(self) -> None:
        self.session_id = None
        self.runtime.send(self._server, ZkConnect(sender=self.addr))
        self.runtime.schedule(SESSION_TIMEOUT, self._connect_check)

    def _connect_check(self) -> None:
        if self.session_id is None and self._started:
            self._connect()

    def _heartbeat_tick(self) -> None:
        if self.session_id is not None:
            self.runtime.send(
                self._server, ZkHeartbeat(sender=self.addr, session_id=self.session_id)
            )
        self.runtime.schedule(HEARTBEAT_INTERVAL, self._heartbeat_tick)

    def _poll_tick(self) -> None:
        # Defense-in-depth polling alongside watches, as in the paper's
        # 5-second probing setup.
        if self.session_id is not None:
            self._read_children()
        self.runtime.schedule(POLL_INTERVAL, self._poll_tick)

    def _read_children(self) -> None:
        self.runtime.send(
            self._server,
            ZkGetChildren(sender=self.addr, session_id=self.session_id, watch=True),
        )

    # --------------------------------------------------------------- messages

    def on_message(self, src: Endpoint, msg) -> None:
        if isinstance(msg, ZkConnectReply):
            self.session_id = msg.session_id
            self.runtime.send(
                self._server, ZkRegister(sender=self.addr, session_id=self.session_id)
            )
            self._read_children()
        elif isinstance(msg, ZkSessionExpired):
            # Our ephemeral znode is gone; rejoin with a fresh session.
            self._connect()
        elif isinstance(msg, ZkWatchEvent):
            if self.session_id is not None:
                self._read_children()
        elif isinstance(msg, ZkChildrenReply):
            before = self.members
            self.members = msg.members
            if before != self.members and self.on_view_change is not None:
                self.on_view_change(self.members)


def build_ensemble(runtimes: Iterable[Runtime]):
    """Construct servers for the given runtimes; first runtime is leader."""
    runtimes = list(runtimes)
    endpoints = tuple(rt.addr for rt in runtimes)
    servers = [ZkServer(rt, endpoints) for rt in runtimes]
    for server in servers:
        server.start()
    return servers
