"""Service discovery workload (paper section 7, Figure 13).

A load balancer discovers a fleet of backend web servers through a
membership service and rewrites its configuration on every membership
change — the Terraform + Serf + nginx deployment of the paper, in model
form:

* the **load balancer** forwards each request over its *configured*
  backend list.  The configured list only changes when a configuration
  reload completes; reloads take ``reload_duration`` and add latency to
  requests serviced while one is in flight (nginx re-exec'ing workers);
* forwarding rides the shared resilience tier
  (:mod:`repro.apps.resilience`): per-backend circuit breakers take dead
  backends out of rotation before the membership layer evicts them,
  jittered backoff bounds the retry rate, the client's deadline is
  propagated on the wire and honored mid-tier, and a hedge duplicates a
  request to the next backend once it outlives the fleet's p95;
* the **workload generator** offers open-loop load
  (:class:`repro.apps.load.OpenLoopSource`) with zipf-distributed keys;
  latency is measured from the scheduled arrival time, so a reload stall
  shows up as the latency the user felt, not as quietly withheld load.

With a SWIM/Serf agent the ten backend failures arrive as several separate
membership updates, each triggering a reload; with Rapid they arrive as one
multi-node view change and a single reload — the difference Figure 13
plots.  Both components report into one shared
:class:`~repro.obs.app_scorecard.AppScorecard`.
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
)
from repro.core.node_id import Endpoint
from repro.obs.app_scorecard import AppScorecard
from repro.runtime import codec as wire_codec
from repro.runtime.base import Runtime
from repro.runtime.dispatch import TypeDispatcher

__all__ = [
    "Backend",
    "LoadBalancer",
    "WorkloadGenerator",
    "ServiceDiscoveryConfig",
    "HttpRequest",
    "HttpResponse",
]


@dataclass(frozen=True)
class HttpRequest:
    sender: Endpoint
    request_id: int
    key: int = 0
    deadline: float = 0.0  # absolute virtual time; 0.0 = unbounded


@dataclass(frozen=True)
class HttpResponse:
    sender: Endpoint
    request_id: int


# One registration covers the live wire codec and the simulator's sizer,
# so the app runs over real sockets (and its traffic is sized) unchanged.
wire_codec.register(HttpRequest, tag=0x40)
wire_codec.register(HttpResponse, tag=0x41)


@dataclass
class ServiceDiscoveryConfig:
    backend_service_time: float = 0.002
    reload_duration: float = 1.0
    reload_penalty: float = 0.2  # extra delay for requests during a reload
    backend_timeout: float = 1.0  # per-attempt timeout at the LB
    lb_max_attempts: int = 3
    lb_backoff_base: float = 0.02
    lb_backoff_cap: float = 0.5
    hedge_quantile: float = 95.0
    hedge_min_samples: int = 50
    breaker_failures: int = 3
    breaker_recovery: float = 5.0
    request_rate: float = 200.0  # requests per second from the generator
    request_deadline: float = 4.0  # end-to-end budget per request
    client_attempt_timeout: float = 2.0
    client_max_attempts: int = 2
    n_keys: int = 256
    zipf_skew: float = 1.1


class Backend:
    """A web server answering static-page requests after a service time."""

    def __init__(
        self,
        dispatcher: TypeDispatcher,
        config: Optional[ServiceDiscoveryConfig] = None,
    ) -> None:
        self.runtime = dispatcher.runtime
        self.addr = self.runtime.addr
        self.config = config or ServiceDiscoveryConfig()
        self._busy_until = 0.0
        dispatcher.add(self._on_request, HttpRequest)

    def _on_request(self, src: Endpoint, msg: HttpRequest) -> None:
        now = self.runtime.now()
        start = max(now, self._busy_until)
        self._busy_until = start + self.config.backend_service_time
        self.runtime.schedule(
            self._busy_until - now,
            self.runtime.send,
            src,
            HttpResponse(sender=self.addr, request_id=msg.request_id),
        )


class LoadBalancer:
    """Round-robin LB whose backend list follows the membership service.

    Forwarding is a :class:`~repro.apps.resilience.ResilientCall` per
    client request: round-robin over the configured list skipping
    backends whose circuit is open, per-attempt timeouts feeding those
    breakers, and a hedge to the next backend once the request outlives
    the fleet's recent latency quantile.  The client's propagated
    deadline bounds everything — a request that cannot finish in budget
    is shed instead of amplified into a retry storm.
    """

    def __init__(
        self,
        dispatcher: TypeDispatcher,
        backends: Iterable[Endpoint],
        stats: AppScorecard,
        config: Optional[ServiceDiscoveryConfig] = None,
    ) -> None:
        self.runtime = dispatcher.runtime
        self.addr = self.runtime.addr
        self.config = config or ServiceDiscoveryConfig()
        self.stats = stats
        self.configured: tuple = tuple(sorted(backends))
        self._desired: tuple = self.configured
        self._reload_target: tuple = self.configured
        self._rr = 0
        self._reloading_until: Optional[float] = None
        self._reload_pending = False
        self.reloads = 0
        self.breakers = BreakerBoard(
            failure_threshold=self.config.breaker_failures,
            recovery_timeout=self.config.breaker_recovery,
            on_transition=stats.record_breaker,
        )
        self.hedge = HedgeTracker(
            quantile=self.config.hedge_quantile,
            min_samples=self.config.hedge_min_samples,
        )
        self.policy = ResiliencePolicy(
            attempt_timeout=self.config.backend_timeout,
            max_attempts=self.config.lb_max_attempts,
            deadline=self.config.request_deadline,
            backoff=BackoffPolicy(
                base=self.config.lb_backoff_base, cap=self.config.lb_backoff_cap
            ),
            hedge=self.hedge,
        )
        self._calls: dict[int, ResilientCall] = {}
        dispatcher.add(self._on_client_request, HttpRequest)
        dispatcher.add(self._on_backend_response, HttpResponse)

    # ------------------------------------------------------------- membership

    def on_view_change(self, members: Iterable[Endpoint]) -> None:
        """Feed from the membership agent.  ``members`` may include the LB
        itself, which never appears in its own backend list."""
        desired = tuple(sorted(ep for ep in members if ep != self.addr))
        if desired == self._desired:
            return
        self._desired = desired
        self._schedule_reload()

    def _schedule_reload(self) -> None:
        if self._reloading_until is not None:
            # A reload is running with the config written at its start; the
            # newer change will trigger a follow-up reload when it finishes.
            self._reload_pending = True
            return
        self.reloads += 1
        self.stats.record_reconfiguration()
        self._reload_target = self._desired
        self._reloading_until = self.runtime.now() + self.config.reload_duration
        self.runtime.schedule(self.config.reload_duration, self._finish_reload)

    def _finish_reload(self) -> None:
        self._reloading_until = None
        self.configured = self._reload_target
        self._rr = 0
        if self._reload_pending:
            self._reload_pending = False
            if self.configured != self._desired:
                self._schedule_reload()

    def _reload_delay(self) -> float:
        if self._reloading_until is None:
            return 0.0
        return self.config.reload_penalty

    # --------------------------------------------------------------- requests

    def _pick_backend(self, attempt: int) -> Optional[Endpoint]:
        configured = self.configured
        if not configured:
            return None
        now = self.runtime.now()
        breakers = self.breakers
        for _ in range(len(configured)):
            backend = configured[self._rr % len(configured)]
            self._rr += 1
            if breakers.allow(backend, now):
                return backend
        return None  # every circuit open: shed rather than pile on

    def _on_client_request(self, src: Endpoint, msg: HttpRequest) -> None:
        if msg.request_id in self._calls:
            return  # client retry overlapping an attempt already in flight
        client = src
        request_id = msg.request_id
        key = msg.key
        deadline_at = msg.deadline if msg.deadline > 0.0 else None

        def send(dst: Endpoint, call: ResilientCall) -> None:
            self.runtime.schedule(
                self._reload_delay(),
                self.runtime.send,
                dst,
                HttpRequest(
                    sender=self.addr,
                    request_id=request_id,
                    key=key,
                    deadline=call.deadline_at,
                ),
            )

        def done(call: ResilientCall, ok: bool) -> None:
            self._calls.pop(request_id, None)
            if ok:
                self.runtime.schedule(
                    self._reload_delay(),
                    self.runtime.send,
                    client,
                    HttpResponse(sender=self.addr, request_id=request_id),
                )
            # On failure the client's own deadline/retry tier takes over;
            # answering with an explicit error message would only race it.

        now = self.runtime.now()
        call = ResilientCall(
            self.runtime,
            self.policy,
            self.stats,
            pick=self._pick_backend,
            send=send,
            on_done=done,
            on_target_failure=lambda dst: self.breakers.record_failure(
                dst, self.runtime.now()
            ),
            on_target_success=lambda dst: self.breakers.record_success(
                dst, self.runtime.now()
            ),
            intended=now,
            deadline_at=deadline_at,
        )
        self._calls[request_id] = call
        call.begin()

    def _on_backend_response(self, src: Endpoint, msg: HttpResponse) -> None:
        call = self._calls.get(msg.request_id)
        if call is not None:
            call.complete(src)


class WorkloadGenerator:
    """Open-loop HTTP client measuring latency from intended arrival times.

    Offers ``request_rate`` requests/s on a fixed schedule with
    zipf-distributed keys, stamps every request with an absolute deadline
    (propagated by the LB), and accounts terminal outcomes — success with
    latency from the *scheduled* arrival, deadline misses, errors — into
    the shared scorecard.  A stalled system therefore shows up as a pile
    of deadline misses at full offered load, never as silently reduced
    throughput (the coordinated-omission fix).
    """

    def __init__(
        self,
        runtime: Runtime,
        lb: Endpoint,
        stats: AppScorecard,
        config: Optional[ServiceDiscoveryConfig] = None,
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.lb = lb
        self.stats = stats
        self.config = config or ServiceDiscoveryConfig()
        self.keys = ZipfKeys(self.config.n_keys, self.config.zipf_skew)
        self.policy = ResiliencePolicy(
            attempt_timeout=self.config.client_attempt_timeout,
            max_attempts=self.config.client_max_attempts,
            deadline=self.config.request_deadline,
            backoff=BackoffPolicy(base=0.05, cap=1.0),
            hedge=None,  # one LB: a duplicate to it buys nothing
        )
        self._next_id = 0
        self._calls: dict[int, ResilientCall] = {}
        self.source: Optional[OpenLoopSource] = None
        runtime.attach(self.on_message)

    def start(self, duration: Optional[float] = None) -> None:
        """Offer load for ``duration`` seconds (unbounded if ``None``)."""
        self.source = OpenLoopSource(
            self.runtime, self.config.request_rate, self._issue, duration=duration
        )
        self.source.start()

    def stop(self) -> None:
        if self.source is not None:
            self.source.stop()

    def _issue(self, intended: float, index: int) -> None:
        self._next_id += 1
        request_id = self._next_id
        key = self.keys.sample(self.runtime.rng)
        self.stats.record_offered()

        def send(dst: Endpoint, call: ResilientCall) -> None:
            self.runtime.send(
                dst,
                HttpRequest(
                    sender=self.addr,
                    request_id=request_id,
                    key=key,
                    deadline=call.deadline_at,
                ),
            )

        def done(call: ResilientCall, ok: bool) -> None:
            self._calls.pop(request_id, None)
            if ok:
                self.stats.record_success(call.intended, call.latency)
            elif call.outcome == "deadline":
                self.stats.record_deadline()
            elif call.outcome == "exhausted":
                self.stats.record_exhausted()
            else:
                self.stats.record_error()

        call = ResilientCall(
            self.runtime,
            self.policy,
            self.stats,
            pick=lambda attempt: self.lb,
            send=send,
            on_done=done,
            intended=intended,
        )
        self._calls[request_id] = call
        call.begin()

    def on_message(self, src: Endpoint, msg) -> None:
        if isinstance(msg, HttpResponse):
            call = self._calls.get(msg.request_id)
            if call is not None:
                call.complete(src)
