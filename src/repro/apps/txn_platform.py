"""Distributed transactional data platform (paper section 7, Figure 12).

A model of the end-to-end workload the paper integrated Rapid into: a data
platform with a single active *transaction serialization server* (a
timestamp oracle in the style of Megastore/Omid).  Data servers form a
membership group; the serializer is the lowest-addressed live server in the
current view.  A view change that moves the serializer triggers a failover:
a Paxos-style reconfiguration pause during which transactions stall.

Transactions are two phases — fetch a timestamp from the serializer, then
write to ``writes_per_txn`` servers chosen by the transaction's
(zipf-distributed) key — and both phases ride the shared resilience tier
(:mod:`repro.apps.resilience`): the serializer address is a cached
:class:`~repro.apps.resilience.ViewResolver` answer invalidated on
timeouts and ``NotSerializer`` redirects (failover re-resolution), per-
destination circuit breakers shed load toward dead servers, the timestamp
phase hedges past the recent latency quantile, and the whole transaction
runs under one propagated deadline.  Clients offer open-loop load, so a
failover stall is measured as the deadline misses users would see.

The Figure 12 experiment: a packet blackhole between the serializer and
one data server.  With the all-to-all gossip failure detector
(:class:`~repro.baselines.gossip_fd.GossipFdNode`), the lone isolated
observer repeatedly declares the serializer dead while everyone else
resurrects it — repeated failovers, collapsed throughput.  With Rapid the
single observer's reports stay below the low watermark ``L`` and nothing
happens ("because no node exceeded L reports").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.apps.load import OpenLoopSource, ZipfKeys
from repro.apps.resilience import (
    BackoffPolicy,
    BreakerBoard,
    HedgeTracker,
    ResiliencePolicy,
    ResilientCall,
    ViewResolver,
)
from repro.core.node_id import Endpoint
from repro.obs.app_scorecard import AppScorecard
from repro.runtime import codec as wire_codec
from repro.runtime.base import Runtime
from repro.runtime.dispatch import TypeDispatcher

__all__ = [
    "DataServer",
    "TxnClient",
    "TxnPlatformConfig",
    "TsRequest",
    "TsResponse",
    "NotSerializer",
    "WriteRequest",
    "WriteAck",
    "ViewRequest",
    "ViewResponse",
]


# ------------------------------------------------------------------ messages


@dataclass(frozen=True)
class TsRequest:
    sender: Endpoint
    txn_id: int
    deadline: float = 0.0  # absolute virtual time; 0.0 = unbounded


@dataclass(frozen=True)
class TsResponse:
    sender: Endpoint
    txn_id: int
    timestamp: int


@dataclass(frozen=True)
class NotSerializer:
    """Reply from a server that does not believe it is the serializer."""

    sender: Endpoint
    txn_id: int
    hint: Optional[Endpoint] = None


@dataclass(frozen=True)
class WriteRequest:
    sender: Endpoint
    txn_id: int
    timestamp: int
    key: int = 0
    seq: int = 0  # which of the transaction's writes this is
    deadline: float = 0.0


@dataclass(frozen=True)
class WriteAck:
    sender: Endpoint
    txn_id: int
    seq: int = 0


@dataclass(frozen=True)
class ViewRequest:
    sender: Endpoint


@dataclass(frozen=True)
class ViewResponse:
    sender: Endpoint
    members: tuple[Endpoint, ...] = ()


# One registration covers the live wire codec and the simulator's sizer,
# so the app runs over real sockets (and its traffic is sized) unchanged.
wire_codec.register(TsRequest, tag=0x48)
wire_codec.register(TsResponse, tag=0x49)
wire_codec.register(NotSerializer, tag=0x4A)
wire_codec.register(WriteRequest, tag=0x4B)
wire_codec.register(WriteAck, tag=0x4C)
wire_codec.register(ViewRequest, tag=0x4D)
wire_codec.register(ViewResponse, tag=0x4E)


@dataclass
class TxnPlatformConfig:
    failover_pause: float = 2.0  # Paxos reconfiguration stall on failover
    write_service_time: float = 0.002
    ts_service_time: float = 0.0005
    attempt_timeout: float = 0.5  # per-attempt timeout at the client
    max_attempts: int = 4
    txn_deadline: float = 5.0  # end-to-end budget per transaction
    backoff_base: float = 0.02
    backoff_cap: float = 0.5
    hedge_quantile: float = 95.0
    hedge_min_samples: int = 50
    breaker_failures: int = 3
    breaker_recovery: float = 3.0
    writes_per_txn: int = 2
    txn_rate: float = 50.0  # transactions per second per client (open loop)
    view_refresh_interval: float = 1.0
    n_keys: int = 256
    zipf_skew: float = 1.1


class DataServer:
    """A data server; also serves timestamps when it is the serializer.

    The serializer identity is recomputed once per view change (not per
    request) from the members of the current view that belong to the
    static server set.  Queued timestamp requests carry the client's
    propagated deadline; requests already past it when the failover pause
    drains are dropped rather than answered uselessly late.
    """

    def __init__(
        self,
        dispatcher: TypeDispatcher,
        server_set: Iterable[Endpoint],
        config: Optional[TxnPlatformConfig] = None,
        stats: Optional[AppScorecard] = None,
    ) -> None:
        self.runtime = dispatcher.runtime
        self.addr = self.runtime.addr
        self.config = config or TxnPlatformConfig()
        self.stats = stats
        self.server_set = tuple(sorted(server_set))
        self._server_members = frozenset(self.server_set)
        self.view: tuple = self.server_set
        self._serializer: Optional[Endpoint] = (
            min(self.server_set) if self.server_set else None
        )
        self._timestamp = 0
        self._busy_until = 0.0
        self._serializer_since: Optional[float] = None
        self._queued_ts: list[tuple] = []
        self.failovers_observed = 0
        dispatcher.add(self._on_ts_request, TsRequest)
        dispatcher.add(self._on_write, WriteRequest)
        dispatcher.add(self._on_view_request, ViewRequest)

    # ------------------------------------------------------------- membership

    def on_view_change(self, members: Iterable[Endpoint]) -> None:
        """Feed from the membership agent (Rapid callback or baseline)."""
        old_serializer = self._serializer
        self.view = tuple(sorted(members))
        candidates = [ep for ep in self.view if ep in self._server_members]
        self._serializer = min(candidates) if candidates else None
        if self._serializer != old_serializer:
            self.failovers_observed += 1
            if self._serializer == self.addr:
                # One reconfiguration per failover, recorded by the server
                # that takes over (every server sees the view change).
                if self.stats is not None:
                    self.stats.record_reconfiguration()
                # We just became the serializer: reconfiguration pause before
                # serving (paper: "workloads are paused and clients do not
                # make progress" during failover).
                self._serializer_since = (
                    self.runtime.now() + self.config.failover_pause
                )
                self.runtime.schedule(
                    self.config.failover_pause, self._drain_queued
                )

    def serializer(self) -> Optional[Endpoint]:
        return self._serializer

    def _is_active_serializer(self) -> bool:
        if self._serializer != self.addr:
            return False
        if self._serializer_since is None:
            # We were the serializer from the start; no failover pause.
            self._serializer_since = 0.0
        return self.runtime.now() >= self._serializer_since

    # --------------------------------------------------------------- requests

    def _service_delay(self, cost: float) -> float:
        now = self.runtime.now()
        start = max(now, self._busy_until)
        self._busy_until = start + cost
        return self._busy_until - now

    def _on_ts_request(self, src: Endpoint, msg: TsRequest) -> None:
        if self._serializer != self.addr:
            self.runtime.send(
                msg.sender,
                NotSerializer(
                    sender=self.addr, txn_id=msg.txn_id, hint=self._serializer
                ),
            )
            return
        if not self._is_active_serializer():
            self._queued_ts.append((src, msg))
            return
        self._serve_ts(msg)

    def _serve_ts(self, msg: TsRequest) -> None:
        self._timestamp += 1
        response = TsResponse(
            sender=self.addr, txn_id=msg.txn_id, timestamp=self._timestamp
        )
        self.runtime.schedule(
            self._service_delay(self.config.ts_service_time),
            self.runtime.send,
            msg.sender,
            response,
        )

    def _drain_queued(self) -> None:
        if not self._is_active_serializer():
            return
        now = self.runtime.now()
        queued, self._queued_ts = self._queued_ts, []
        for _src, msg in queued:
            if msg.deadline and now >= msg.deadline:
                continue  # the client has already given up on this one
            self._serve_ts(msg)

    def _on_write(self, src: Endpoint, msg: WriteRequest) -> None:
        ack = WriteAck(sender=self.addr, txn_id=msg.txn_id, seq=msg.seq)
        self.runtime.schedule(
            self._service_delay(self.config.write_service_time),
            self.runtime.send,
            msg.sender,
            ack,
        )

    def _on_view_request(self, src: Endpoint, msg: ViewRequest) -> None:
        self.runtime.send(
            msg.sender, ViewResponse(sender=self.addr, members=self.view)
        )


@dataclass
class _Txn:
    txn_id: int
    key: int
    intended: float
    deadline_at: float
    timestamp: Optional[int] = None
    writes_done: int = 0
    writes_needed: int = 0
    done: bool = False


class TxnClient:
    """An update-heavy client issuing timestamp+write transactions.

    Open-loop: transactions arrive on a fixed schedule regardless of how
    previous ones fare, and every transaction runs under one absolute
    deadline shared by both phases.  The serializer address comes from a
    :class:`~repro.apps.resilience.ViewResolver` over the client's view
    of the server set; a timestamp timeout or ``NotSerializer`` redirect
    invalidates it, so the next attempt re-resolves against the current
    view — failover convergence without bespoke retry plumbing.  A
    redirect deliberately does not short-circuit the attempt timeout:
    mid-failover, nobody claims the serializer role yet, and the stall
    until the next attempt is the cost the paper plots.
    """

    def __init__(
        self,
        runtime: Runtime,
        servers: Iterable[Endpoint],
        stats: AppScorecard,
        config: Optional[TxnPlatformConfig] = None,
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.stats = stats
        self.config = config or TxnPlatformConfig()
        self.servers = tuple(sorted(servers))
        self._server_members = frozenset(self.servers)
        self._view: tuple = self.servers
        self._candidates: tuple = self.servers
        self.keys = ZipfKeys(self.config.n_keys, self.config.zipf_skew)
        self.resolver = ViewResolver(
            lambda: self._candidates, select=min, restrict=self.servers
        )
        self.breakers = BreakerBoard(
            failure_threshold=self.config.breaker_failures,
            recovery_timeout=self.config.breaker_recovery,
            on_transition=stats.record_breaker,
        )
        self.hedge = HedgeTracker(
            quantile=self.config.hedge_quantile,
            min_samples=self.config.hedge_min_samples,
        )
        backoff = BackoffPolicy(
            base=self.config.backoff_base, cap=self.config.backoff_cap
        )
        self.ts_policy = ResiliencePolicy(
            attempt_timeout=self.config.attempt_timeout,
            max_attempts=self.config.max_attempts,
            deadline=self.config.txn_deadline,
            backoff=backoff,
            hedge=self.hedge,
        )
        self.write_policy = ResiliencePolicy(
            attempt_timeout=self.config.attempt_timeout,
            max_attempts=self.config.max_attempts,
            deadline=self.config.txn_deadline,
            backoff=backoff,
            hedge=None,  # writes already fail over across replicas
        )
        self._next_txn = 0
        self._inflight: dict[int, _Txn] = {}
        self._ts_calls: dict[int, ResilientCall] = {}
        self._write_calls: dict[tuple, ResilientCall] = {}
        self.source: Optional[OpenLoopSource] = None
        self._running = False
        runtime.attach(self.on_message)

    def start(self, duration: Optional[float] = None) -> None:
        """Offer transactions for ``duration`` seconds (unbounded if None)."""
        self._running = True
        self.source = OpenLoopSource(
            self.runtime, self.config.txn_rate, self._begin_txn, duration=duration
        )
        self.source.start()
        self.runtime.schedule(self.config.view_refresh_interval, self._view_tick)

    def stop(self) -> None:
        self._running = False
        if self.source is not None:
            self.source.stop()

    # ------------------------------------------------------------------ txns

    def _begin_txn(self, intended: float, index: int) -> None:
        self._next_txn += 1
        self.stats.record_offered()
        txn = _Txn(
            txn_id=self._next_txn,
            key=self.keys.sample(self.runtime.rng),
            intended=intended,
            deadline_at=intended + self.config.txn_deadline,
            writes_needed=self.config.writes_per_txn,
        )
        self._inflight[txn.txn_id] = txn
        self._request_ts(txn)

    def _pick_serializer(self, attempt: int) -> Optional[Endpoint]:
        target = self.resolver.resolve()
        if target is None:
            return None
        if not self.breakers.allow(target, self.runtime.now()):
            return None  # shed until the breaker half-opens
        return target

    def _request_ts(self, txn: _Txn) -> None:
        txn_id = txn.txn_id

        def send(dst: Endpoint, call: ResilientCall) -> None:
            self.runtime.send(
                dst,
                TsRequest(
                    sender=self.addr, txn_id=txn_id, deadline=call.deadline_at
                ),
            )

        def target_failed(dst: Endpoint) -> None:
            self.breakers.record_failure(dst, self.runtime.now())
            # Failover re-resolution: drop the cached serializer and pull
            # a fresh view so the next attempt re-derives it.
            self.resolver.invalidate()
            self._refresh_view()

        def done(call: ResilientCall, ok: bool) -> None:
            self._ts_calls.pop(txn_id, None)
            if not ok:
                self._fail_txn(txn, call.outcome)
                return
            self._start_writes(txn)

        call = ResilientCall(
            self.runtime,
            self.ts_policy,
            self.stats,
            pick=self._pick_serializer,
            send=send,
            on_done=done,
            on_target_failure=target_failed,
            on_target_success=lambda dst: self.breakers.record_success(
                dst, self.runtime.now()
            ),
            intended=txn.intended,
            deadline_at=txn.deadline_at,
        )
        self._ts_calls[txn_id] = call
        call.begin()

    def _write_targets(self, txn: _Txn, seq: int, attempt: int) -> Optional[Endpoint]:
        candidates = self._candidates
        if not candidates:
            return None
        # Key-sharded placement over the *current* view: retries rotate to
        # the next replica, so a write to a dead shard fails over once the
        # breaker or timeout fires.
        idx = (txn.key + seq + attempt) % len(candidates)
        now = self.runtime.now()
        for off in range(len(candidates)):
            dst = candidates[(idx + off) % len(candidates)]
            if self.breakers.allow(dst, now):
                return dst
        return None

    def _start_writes(self, txn: _Txn) -> None:
        txn_id = txn.txn_id
        for seq in range(txn.writes_needed):

            def send(dst: Endpoint, call: ResilientCall, _seq=seq) -> None:
                self.runtime.send(
                    dst,
                    WriteRequest(
                        sender=self.addr,
                        txn_id=txn_id,
                        timestamp=txn.timestamp or 0,
                        key=txn.key,
                        seq=_seq,
                        deadline=call.deadline_at,
                    ),
                )

            def done(call: ResilientCall, ok: bool, _seq=seq) -> None:
                self._write_calls.pop((txn_id, _seq), None)
                self._write_done(txn, call, ok)

            call = ResilientCall(
                self.runtime,
                self.write_policy,
                self.stats,
                pick=lambda attempt, _seq=seq: self._write_targets(
                    txn, _seq, attempt
                ),
                send=send,
                on_done=done,
                on_target_failure=lambda dst: self.breakers.record_failure(
                    dst, self.runtime.now()
                ),
                on_target_success=lambda dst: self.breakers.record_success(
                    dst, self.runtime.now()
                ),
                intended=txn.intended,
                deadline_at=txn.deadline_at,
            )
            self._write_calls[(txn_id, seq)] = call
            call.begin()

    def _write_done(self, txn: _Txn, call: ResilientCall, ok: bool) -> None:
        if txn.done:
            return
        if not ok:
            self._fail_txn(txn, call.outcome)
            return
        txn.writes_done += 1
        if txn.writes_done >= txn.writes_needed:
            txn.done = True
            self._inflight.pop(txn.txn_id, None)
            now = self.runtime.now()
            self.stats.record_success(txn.intended, now - txn.intended)

    def _fail_txn(self, txn: _Txn, outcome: Optional[str]) -> None:
        if txn.done:
            return
        txn.done = True
        self._inflight.pop(txn.txn_id, None)
        if outcome == "deadline":
            self.stats.record_deadline()
        elif outcome == "exhausted":
            self.stats.record_exhausted()
        else:
            self.stats.record_error()

    # --------------------------------------------------------------- messages

    def on_message(self, src: Endpoint, msg) -> None:
        if isinstance(msg, TsResponse):
            txn = self._inflight.get(msg.txn_id)
            call = self._ts_calls.get(msg.txn_id)
            if txn is None or call is None:
                return
            if txn.timestamp is None:
                txn.timestamp = msg.timestamp
            call.complete(src)
        elif isinstance(msg, NotSerializer):
            # Redirect: adopt the responder's belief about the serializer
            # (or just invalidate if it has none) and let the attempt
            # timeout drive the retry.
            if msg.txn_id in self._ts_calls:
                self.resolver.hint(msg.hint)
        elif isinstance(msg, WriteAck):
            call = self._write_calls.get((msg.txn_id, msg.seq))
            if call is not None:
                call.complete(src)
        elif isinstance(msg, ViewResponse):
            members = tuple(msg.members)
            if members != self._view:
                self._view = members
                self._candidates = tuple(
                    ep for ep in members if ep in self._server_members
                )
                self.resolver.invalidate()

    # ------------------------------------------------------------------- view

    def _view_tick(self) -> None:
        if not self._running:
            return
        self._refresh_view()
        self.runtime.schedule(self.config.view_refresh_interval, self._view_tick)

    def _refresh_view(self) -> None:
        target = self.servers[self.runtime.rng.randrange(len(self.servers))]
        self.runtime.send(target, ViewRequest(sender=self.addr))
