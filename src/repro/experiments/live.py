"""Live-runtime experiment harness: the sim harness surface over real UDP.

:class:`LiveHarness` mirrors the simulator harness API (``bootstrap``,
``run_for``, ``run_until_converged``, ``crash``, ``recover``,
``live_endpoints``, ``view_sizes``) over :class:`~repro.runtime.live_net.
LiveRuntime` — a few hundred localhost UDP nodes multiplexed on one
private asyncio event loop.  The same driver code therefore runs a
workload against the simulator *or* against real sockets, which is what
makes the cross-validation suite (``tests/test_live.py``) possible: same
workload, matched :class:`~repro.core.settings.RapidSettings`, sim and
live trajectories compared within a documented tolerance.

Design notes:

* The harness owns a private event loop and exposes *synchronous*
  methods that ``run_until_complete`` internally — the squidasm-style
  sim-stack/real-stack split, where only the lowest layer knows which
  clock is ticking.  Real time keeps passing while the loop is parked
  between calls, so drivers should do all timed work through the harness
  methods.
* Nodes bind OS-assigned ephemeral ports
  (:func:`~repro.runtime.asyncio_transport.open_local_socket`), so
  concurrent CI runs never collide.
* All runtimes share one epoch, so ``runtime.now()`` — and every
  timestamp in the :class:`~repro.sim.trace.ViewTrace` — is small
  run-relative seconds, directly comparable to sim virtual time.
* ``engine`` and ``network`` are facades with the counter surface
  :class:`repro.bench.runner.BenchRunner` harvests, so ``live_bootstrap``
  bench cases produce ordinary report entries (wall time doubles as
  "virtual" time; events are delivered datagrams; byte counters are real
  measured bytes, with the sim-sized estimate alongside).

Crash semantics are fail-stop, like ``SimRuntime.crash``: ``crash``
closes the node's transport and stops its timers (they are guarded at
fire time); ``recover`` re-binds the same port and clears the guard.
Timers skipped while crashed stay dead — identical to the simulator.
"""

from __future__ import annotations

import asyncio
import time
from typing import Iterable, Optional

from repro.core.events import NodeStatus
from repro.core.membership import RapidNode
from repro.core.node_id import Endpoint, stable_hash64
from repro.core.settings import RapidSettings
from repro.obs.invariants import ViewLedger
from repro.obs.metrics import MetricsRegistry
from repro.runtime.asyncio_transport import open_local_socket
from repro.runtime.live_net import LiveRuntime, LiveWire
from repro.sim.rng import child_rng
from repro.sim.trace import ViewChangeEventLog, ViewTrace

__all__ = [
    "LIVE_SETTINGS",
    "live_settings",
    "default_stagger",
    "LiveHarness",
    "live_bootstrap_experiment",
]

#: Protocol timers for live runs, as plain overrides so sim-side parity
#: runs can build the identical :class:`RapidSettings`.  The profile is
#: deliberately *low-rate*: one Python event loop multiplexing hundreds
#: of nodes sustains roughly a thousand decoded datagrams per second, so
#: the aggregate message rate — not packet loss — is the live binding
#: constraint (kernel counters during saturated runs show the IP path
#: delivering everything; the "lost" datagrams were sitting unread in
#: socket receive queues).  When the offered rate exceeds loop capacity,
#: queueing delay makes probes time out, false alerts feed conflicting
#: proposals, fast Paxos falls back to classical rounds, and the extra
#: traffic saturates the loop it is already losing to.  Hence: seconds-
#: scale probe timers (queueing delay must never look like failure), a
#: one-second batching window (one consensus round admits many joiners),
#: and gossip slowed to 0.5 s x fanout 4 (during consensus *every* node
#: sends ``gossip_fanout`` vote bundles per ``gossip_interval``, which at
#: the defaults would be ~6000 msg/s for 150 nodes).  With this profile a
#: 150-node localhost cluster bootstraps in under a minute on ~33 k
#: datagrams.  Both sides of a parity comparison must use the same values
#: for latencies to be comparable.
LIVE_SETTINGS: dict = {
    "probe_interval": 2.0,
    "probe_timeout": 2.0,
    "batching_window": 1.0,
    "join_timeout": 5.0,
    "consensus_fallback_timeout": 8.0,
    "gossip_interval": 0.5,
    "gossip_fanout": 4,
    "report_interval": 1.0,
}


def live_settings() -> RapidSettings:
    """The standard live-cluster settings as a :class:`RapidSettings`."""
    return RapidSettings(**LIVE_SETTINGS)


class _LiveEngine:
    """Engine-shaped facade over a live run's clocks and counters.

    ``now`` is harness-relative wall time (the live analogue of virtual
    time), ``wall_time_s`` is the time actually spent driving the event
    loop, and ``events_processed`` counts delivered datagrams — the
    closest live analogue of the simulator's delivery events.
    """

    def __init__(self, harness: "LiveHarness") -> None:
        self._harness = harness

    @property
    def now(self) -> float:
        """Harness-relative seconds (frozen once the harness closes)."""
        return self._harness._now()

    @property
    def wall_time_s(self) -> float:
        """Cumulative wall seconds spent inside the event loop."""
        return self._harness._run_wall_s

    @property
    def events_processed(self) -> int:
        """Datagrams delivered to node handlers so far."""
        return self._harness.wire.delivered_messages


class LiveHarness:
    """Drive a real localhost UDP Rapid cluster with the sim harness API."""

    name = "live-rapid"

    def __init__(
        self,
        seed: int = 0,
        settings: Optional[RapidSettings] = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.seed = seed
        self.settings = settings or live_settings()
        self.host = host
        self.loop = asyncio.new_event_loop()
        self.metrics = MetricsRegistry()
        self.trace = ViewTrace()
        # The same safety-invariant monitor the sim harness runs: live
        # nodes feed the event log from their real install path, so the
        # consistency properties are checked against real UDP traffic too.
        self.ledger = ViewLedger(seed=seed)
        self.event_log = ViewChangeEventLog(ledger=self.ledger)
        self._epoch = self.loop.time()
        self._final_now: Optional[float] = None
        self.wire = LiveWire(seed=seed, clock=self._now)
        #: ``network`` and ``engine`` satisfy the benchmark runner's
        #: harvest surface (counters / clocks), like the sim harnesses.
        self.network = self.wire
        self.engine = _LiveEngine(self)
        self.agents: dict[Endpoint, RapidNode] = {}
        self.runtimes: dict[Endpoint, LiveRuntime] = {}
        self.endpoints: list[Endpoint] = []
        self._crashed: set[Endpoint] = set()
        self._run_wall_s = 0.0
        self._closed = False

    # ------------------------------------------------------------- plumbing

    @property
    def nodes(self) -> dict:
        """Alias matching :class:`~repro.sim.cluster.SimCluster`."""
        return self.agents

    def _now(self) -> float:
        if self._final_now is not None:
            return self._final_now
        return self.loop.time() - self._epoch

    def _run(self, coro):
        started = time.perf_counter()
        try:
            return self.loop.run_until_complete(coro)
        finally:
            self._run_wall_s += time.perf_counter() - started

    # -------------------------------------------------------------- driving

    def bootstrap(
        self, n: int, seed_delay: float = 1.0, stagger: float = 0.5
    ) -> list:
        """Bind ``n`` nodes on ephemeral ports and start the join storm.

        Node 0 is the seed and starts immediately; the rest start at
        ``seed_delay`` plus a uniform stagger, drawn from a seed-derived
        rng stream exactly like the sim harness's bootstrap.  Returns the
        endpoint list (actual bound ports).
        """
        return self._run(self._bootstrap(n, seed_delay, stagger))

    async def _bootstrap(self, n: int, seed_delay: float, stagger: float):
        bound = [open_local_socket(self.host) for _ in range(n)]
        self.endpoints = [ep for _, ep in bound]
        seed_ep = self.endpoints[0]
        rng = child_rng(self.seed, "live", "stagger")
        for i, (sock, ep) in enumerate(bound):
            runtime = LiveRuntime(
                ep, self.wire, seed=stable_hash64(self.seed, "live-node", i)
            )
            runtime.epoch = self._epoch
            await runtime.start(sock=sock)
            node = RapidNode(
                runtime,
                self.settings,
                seeds=(seed_ep,),
                view_trace=self.trace,
                event_log=self.event_log,
                metrics=self.metrics,
            )
            self.agents[ep] = node
            self.runtimes[ep] = runtime
            if i == 0:
                node.start()
            else:
                offset = seed_delay + (rng.random() * stagger if stagger else 0.0)
                runtime.schedule(offset, node.start)
        return self.endpoints

    def run_for(self, duration: float) -> None:
        """Drive the event loop for ``duration`` real seconds."""
        self._run(asyncio.sleep(duration))

    def run_until_converged(
        self, size: int, timeout: float = 60.0, check_interval: float = 0.25
    ) -> Optional[float]:
        """Run until every live node is active at ``size``; time or None."""
        return self._run(self._wait_converged(size, timeout, check_interval))

    async def _wait_converged(
        self, size: int, timeout: float, check_interval: float
    ) -> Optional[float]:
        deadline = self._now() + timeout
        while self._now() < deadline:
            if self.converged(size):
                return self._now()
            await asyncio.sleep(check_interval)
        return None

    def converged(self, size: int) -> bool:
        """True when every non-crashed node is ACTIVE and reports ``size``."""
        found = False
        for ep in self.endpoints:
            if ep in self._crashed:
                continue
            found = True
            node = self.agents[ep]
            if node.status != NodeStatus.ACTIVE or node.size != size:
                return False
        return found

    # --------------------------------------------------------------- faults

    def crash(self, endpoints: Iterable[Endpoint]) -> None:
        """Fail-stop nodes: close their sockets, stop their timers."""
        for ep in endpoints:
            self.runtimes[ep].close()
            self._crashed.add(ep)

    def recover(self, endpoints: Iterable[Endpoint]) -> None:
        """Re-bind crashed nodes on their original ports.

        The port was released by ``crash``; on a busy host another
        process may steal it in the window, which raises ``OSError`` —
        acceptable for a test harness, where recovery windows are short.
        """
        self._run(self._recover(list(endpoints)))

    async def _recover(self, endpoints: list) -> None:
        for ep in endpoints:
            await self.runtimes[ep].start()
            self._crashed.discard(ep)

    def live_endpoints(self) -> list:
        """Endpoints not currently crashed."""
        return [ep for ep in self.endpoints if ep not in self._crashed]

    def view_sizes(self) -> list:
        """Believed cluster size at every live node."""
        return [self.agents[ep].size for ep in self.live_endpoints()]

    # -------------------------------------------------------------- teardown

    def close(self) -> None:
        """Close every socket and the private event loop (idempotent).

        Clocks freeze at close time so measurements harvested afterwards
        (e.g. by the benchmark runner) stay consistent.
        """
        if self._closed:
            return
        self._closed = True
        self._final_now = self.loop.time() - self._epoch
        for runtime in self.runtimes.values():
            runtime.close()
        if not self.loop.is_closed():
            # One final tick so transport close callbacks run.
            self.loop.run_until_complete(asyncio.sleep(0))
            self.loop.close()

    def __enter__(self) -> "LiveHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def default_stagger(n: int) -> float:
    """Join-storm spread that keeps admission within loop capacity.

    Joins are admitted through consensus rounds the single event loop
    must also serve; ~8 joiners per second is comfortably inside its
    budget at n=150 (measured), so spread arrivals accordingly.
    """
    return max(2.0, n / 7.5)


def live_bootstrap_experiment(
    system: str,
    n: int,
    seed: int = 0,
    timeout: float = 120.0,
    seed_delay: float = 1.0,
    stagger: Optional[float] = None,
    settings=None,
    host: str = "127.0.0.1",
) -> dict:
    """Bootstrap ``n`` real UDP processes and measure convergence.

    The live twin of :func:`repro.experiments.scenarios.bootstrap_experiment`
    — same result shape (convergence time, per-node times, view
    timeseries) plus the wire-parity fields: real datagram bytes sent,
    the simulator's sized estimate for the identical traffic, their
    ratio, and the per-class breakdown.  Wall-clock results are
    machine-local; a live case is never part of a determinism gate.
    """
    if system != "rapid":
        raise ValueError(
            f"live_bootstrap runs the rapid system only, not {system!r}"
        )
    if isinstance(settings, dict):
        settings = RapidSettings.from_overrides(settings)
    if stagger is None:
        stagger = default_stagger(n)
    harness = LiveHarness(seed=seed, settings=settings, host=host)
    try:
        endpoints = harness.bootstrap(n, seed_delay=seed_delay, stagger=stagger)
        convergence = harness.run_until_converged(n, timeout=timeout)
        # Let reporting ticks observe the final state.
        harness.run_for(2 * harness.settings.report_interval)
    finally:
        harness.close()
    trace = harness.trace
    real = harness.wire.sent_bytes
    estimated = harness.wire.estimated_bytes_sent
    return {
        "system": system,
        "n": n,
        "runtime": "live",
        "convergence_time": convergence,
        "per_node_times": trace.per_node_convergence(endpoints, n),
        "unique_sizes": trace.unique_sizes(endpoints),
        "timeseries": trace.aggregate_series(endpoints, step=1.0),
        "real_bytes_sent": real,
        "estimated_bytes_sent": estimated,
        "sim_estimate_ratio": (real / estimated) if estimated else None,
        "decode_errors": harness.wire.decode_errors,
        "wire_parity": harness.wire.parity_by_class(),
        "invariant_checks": harness.ledger.records,
        "harness": harness,
    }
