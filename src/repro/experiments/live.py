"""Live-runtime experiment harness: the cluster driver over real UDP.

:class:`LiveHarness` is the simulator's driver
(:class:`~repro.sim.cluster.SimCluster`, through
:class:`~repro.experiments.harness.RapidHarness`) with the clock and the
sockets swapped: a few hundred localhost UDP nodes
(:class:`~repro.runtime.live_net.LiveRuntime`) multiplexed on one private
asyncio event loop.  The same driver code therefore runs a workload
against the simulator *or* against real sockets, which is what makes the
cross-validation suite (``tests/test_live.py``) possible: same workload,
matched :class:`~repro.core.settings.RapidSettings`, sim and live
trajectories compared within a documented tolerance.

Design notes:

* The harness owns a private event loop and its *synchronous* driving
  methods ``run_until_complete`` internally — the squidasm-style
  sim-stack/real-stack split, where only the lowest layer knows which
  clock is ticking.  Real time keeps passing while the loop is parked
  between calls, so drivers should do all timed work through the harness
  methods.
* Nodes bind OS-assigned ephemeral ports
  (:func:`~repro.runtime.asyncio_transport.open_local_socket`) unless a
  ``base_port`` is given, so concurrent CI runs never collide.
* All runtimes share one epoch, so ``runtime.now()`` — and every
  timestamp in the :class:`~repro.sim.trace.ViewTrace` — is small
  run-relative seconds, directly comparable to sim virtual time.
* ``engine`` and ``network`` are a facade and the
  :class:`~repro.runtime.live_net.LiveWire`, with the calls the driver
  makes and the counter surface :class:`repro.bench.runner.BenchRunner`
  harvests, so ``live_bootstrap`` bench cases produce ordinary report
  entries (wall time doubles as "virtual" time; events are delivered
  datagrams; byte counters are real measured bytes, with the sim-sized
  estimate alongside).

Crash semantics are fail-stop, like ``SimRuntime.crash``: ``crash``
closes the node's transport and stops its timers (they are guarded at
fire time).  Always ``close()`` a harness (or use it as a context
manager): every socket it bound is released, converged or not.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.core.node_id import Endpoint, stable_hash64
from repro.core.settings import RapidSettings
from repro.experiments.harness import RapidHarness
from repro.runtime.asyncio_transport import open_local_socket
from repro.runtime.live_net import LiveRuntime, LiveWire

__all__ = [
    "LIVE_SETTINGS",
    "live_settings",
    "default_stagger",
    "LiveHarness",
    "live_bootstrap_experiment",
]

#: Protocol timers for live runs, as plain overrides so sim-side parity
#: runs can build the identical :class:`RapidSettings`.  The profile is
#: deliberately *low-rate*.  Decode throughput is not what it protects:
#: since the binary codec one loop handles ~79 k datagrams/s
#: (``wire_loopback``), and a 150-node cluster on default settings
#: sustains 12 k/s (median; up to 20 k/s).  It protects against the
#: classical-fallback storm a join storm on one shared loop can tip into
#: at default rates: conflicting cut proposals, fallback rounds whose
#: traffic delays the next round further, joiners never admitted (the
#: undiagnosed hang of ROADMAP item 4).  Measured at n=150, one run
#: per seed (``CHANGES.md``, PR 24, lists every run): on the defaults with
#: the simulator's 2 s stagger, 31 of 35 bootstraps converge in 3-22 s
#: (simulated: 10 s), two take 45 and 63 s, and two never converge within
#: 120 s (174 and 210 fallback rounds, joiners left JOINING); with two
#: CPU hogs none of three does.  On this profile 29 of 29 converge in
#: 22-44 s, and all three runs under the hogs.  Hence: seconds-scale probe
#: timers (queueing delay must never look like failure), a one-second
#: batching window (one consensus round admits many joiners) and gossip
#: slowed to 0.5 s x fanout 4.  Both sides of a parity comparison must use
#: the same values for latencies to be comparable.
LIVE_SETTINGS: dict = {
    "probe_interval": 2.0,
    "probe_timeout": 2.0,
    "batching_window": 1.0,
    "gossip_interval": 0.5,
    "gossip_fanout": 4,
}


def live_settings() -> RapidSettings:
    """The standard live-cluster settings as a :class:`RapidSettings`."""
    return RapidSettings(**LIVE_SETTINGS)


class _LiveEngine:
    """Engine-shaped facade over a live run's clocks and counters.

    ``now`` is harness-relative wall time (the live analogue of virtual
    time) and ``events_processed`` counts delivered datagrams — the
    closest live analogue of the simulator's delivery events.  ``run``
    and ``schedule_at`` are the two calls the cluster driver makes on an
    engine.
    """

    def __init__(self, harness: "LiveHarness") -> None:
        self._harness = harness

    @property
    def now(self) -> float:
        """Harness-relative seconds (frozen once the harness closes)."""
        return self._harness._now()

    @property
    def events_processed(self) -> int:
        """Datagrams delivered to node handlers so far."""
        return self._harness.network.delivered_messages

    def run(self, until: float) -> None:
        """Drive the event loop until harness time ``until``."""
        delay = max(0.0, until - self.now)
        self._harness.loop.run_until_complete(asyncio.sleep(delay))

    def schedule_at(self, when: float, fn, *args) -> None:
        """Call ``fn(*args)`` at harness time ``when``."""
        self._harness.loop.call_later(max(0.0, when - self.now), fn, *args)


class LiveHarness(RapidHarness):
    """The cluster driver over real localhost UDP sockets.

    Inherits the whole driving surface; a real clock forces only what is
    defined here: a private event loop behind the engine facade, a
    :class:`~repro.runtime.live_net.LiveWire` as the network, socket
    binding, and :meth:`close`.  ``base_port=None`` (the default) binds
    OS-assigned ephemeral ports; an explicit base gives the predictable
    ``base_port + i`` layout.
    """

    name = "live-rapid"
    #: Wall seconds are what a live run measures, so sample finely.
    sample_interval = 0.25

    def __init__(
        self,
        seed: int = 0,
        settings: Optional[RapidSettings] = None,
        host: str = "127.0.0.1",
        base_port: Optional[int] = None,
    ) -> None:
        self.host = host
        self.base_port = base_port
        self.loop = asyncio.new_event_loop()
        self._epoch = self.loop.time()
        self._final_now: Optional[float] = None
        #: Pre-bound sockets of bootstrap-cohort addresses not yet started.
        self._sockets: dict = {}
        super().__init__(seed=seed, settings=settings or live_settings())

    # ---------------------------------------------- what the real clock swaps

    def _now(self) -> float:
        if self._final_now is not None:
            return self._final_now
        return self.loop.time() - self._epoch

    def _fabric(self) -> tuple:
        return _LiveEngine(self), LiveWire(seed=self.seed, clock=self._now)

    def _address(self, index: int) -> Endpoint:
        """Bind the cohort's sockets up front: the seed list needs real ports."""
        if self.base_port is not None:
            return Endpoint(self.host, self.base_port + index)
        sock, endpoint = open_local_socket(self.host)
        self._sockets[endpoint] = sock
        return endpoint

    def _runtime(self, endpoint: Endpoint) -> LiveRuntime:
        """A started runtime on ``endpoint``'s pre-bound socket, or one
        that binds the address itself; all share the harness epoch."""
        runtime = LiveRuntime(
            endpoint,
            self.network,
            seed=stable_hash64(self.seed, "live-node", len(self.runtimes)),
        )
        runtime.epoch = self._epoch
        self.loop.run_until_complete(
            runtime.start(sock=self._sockets.pop(endpoint, None))
        )
        return runtime

    # -------------------------------------------------------------- teardown

    def close(self) -> None:
        """Close every socket and the private event loop (idempotent).

        Clocks freeze at close time so measurements harvested afterwards
        (e.g. by the benchmark runner) stay consistent.
        """
        if self.loop.is_closed():
            return
        self._final_now = self.loop.time() - self._epoch
        for sock in self._sockets.values():
            sock.close()
        for runtime in self.runtimes.values():
            runtime.close()
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
        harness.run_for(2.0)  # as bootstrap_experiment holds the final view
    finally:
        harness.close()
    trace = harness.trace
    wire = harness.network
    real = wire.sent_bytes
    estimated = wire.estimated_bytes_sent
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
        "decode_errors": wire.decode_errors,
        "send_errors": wire.send_errors,
        "wire_parity": wire.parity_by_class(),
        "invariant_checks": harness.ledger.records,
        "harness": harness,
    }
