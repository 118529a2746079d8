"""The cluster driver: one harness contract for every system under test.

The paper's evaluation (section 7) puts Rapid, Memberlist and ZooKeeper
through one procedure — start a seed process, spawn ``N - 1`` more, have
"every process log its own view of the cluster size every second", inject
the fault, watch.  :class:`SimCluster` is that procedure and the state of
one run of it.  A system plugs in by subclassing it with an agent factory
(:mod:`repro.experiments.harness` has one subclass per system); the live
runtime swaps the clock and the sockets underneath and inherits the rest
(:class:`repro.experiments.live.LiveHarness`).  ``docs/ARCHITECTURE.md``
tabulates the contract.

The per-second view log is the driver's, not the processes': as it runs
the clock forward, :class:`SimCluster` stops at every multiple of
``sample_interval`` and logs the view size of every live process into
``trace``, and convergence is read off those same samples.  The protocol
stack carries no experiment hook and the engine no sampling event.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.node_id import Endpoint
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.process import SimRuntime
from repro.sim.trace import ViewTrace

__all__ = ["SimCluster", "endpoint_for"]


def endpoint_for(index: int, port: int = 5000) -> Endpoint:
    """Deterministic address for the ``index``-th simulated process."""
    return Endpoint(host=f"10.{index >> 16 & 255}.{index >> 8 & 255}.{index & 255}", port=port)


class SimCluster:
    """One run of one membership system: its state and the driving surface.

    Parameters
    ----------
    seed:
        Root seed for all randomness in the run.  The simulated network
        has one latency model (:class:`~repro.sim.latency.LanLatency`);
        a test that needs exact timing builds a
        :class:`~repro.sim.network.Network` with its own.
    ledger:
        The run's :class:`~repro.obs.invariants.ViewLedger`, fed by
        ``trace``; ``None`` for systems whose views carry no
        configuration ids to check.

    Agents are anything with ``start()``, ``view()`` and ``view_size``
    (:class:`~repro.baselines.common.MembershipAgent`,
    :class:`~repro.core.membership.RapidNode`).  ``agents`` and
    ``runtimes`` map every process added so far; ``endpoints`` is the
    cohort :meth:`bootstrap` started, and may be reassigned by a driver
    that grows the cluster by hand.
    """

    #: Seconds of the run's clock between two view samples: the driver
    #: samples at every multiple of it that it runs the clock to.
    sample_interval = 1.0

    def __init__(self, seed: int = 0, ledger=None) -> None:
        self.seed = seed
        self.metrics = MetricsRegistry()
        self.engine, self.network = self._fabric()
        self.ledger = ledger
        self.trace = ViewTrace(ledger)
        self.agents: dict[Endpoint, object] = {}
        self.runtimes: dict[Endpoint, object] = {}
        self.endpoints: list[Endpoint] = []
        #: The next sample is taken at ``_next_sample * sample_interval``.
        self._next_sample = 1

    # ------------------------------------------- what a system or a clock swaps

    def make_agent(self, runtime, seeds: tuple = (), **agent_kw):
        """Build (not start) this system's agent on ``runtime``."""
        raise NotImplementedError

    def _fabric(self) -> tuple:
        """The run's ``(engine, network)`` pair."""
        engine = Engine(metrics=self.metrics)
        return engine, Network(engine, seed=self.seed, metrics=self.metrics)

    def _address(self, index: int) -> Endpoint:
        """Where the ``index``-th process of the bootstrap cohort listens."""
        return endpoint_for(index)

    def _runtime(self, endpoint: Endpoint):
        """A ready messaging/timer environment for the process at ``endpoint``."""
        return SimRuntime(self.engine, self.network, endpoint, seed=self.seed)

    # ------------------------------------------------------------- node setup

    def add_node(
        self, endpoint: Endpoint, start_at: Optional[float] = None, **agent_kw
    ):
        """Create a process; it starts now, or at ``start_at`` on the run's clock.

        ``agent_kw`` goes to the system's agent factory: ``seeds`` (the
        bootstrap contact list) for every system, anything else the
        agent class accepts.
        """
        runtime = self._runtime(endpoint)
        agent = self.make_agent(runtime, **agent_kw)
        self.agents[endpoint] = agent
        self.runtimes[endpoint] = runtime
        if start_at is None:
            agent.start()
        else:
            self.engine.schedule_at(start_at, self._start, endpoint)
        return agent

    def _start(self, endpoint: Endpoint) -> None:
        """A deferred start; a process crashed while it waited stays down."""
        if not self.runtimes[endpoint].crashed:
            self.agents[endpoint].start()

    def bootstrap(
        self, n: int, seed_delay: float = 10.0, stagger: float = 0.0, **agent_kw
    ) -> list:
        """Start a seed process, then ``n - 1`` joiners after ``seed_delay``.

        Mirrors the paper's bootstrap experiments: "we start each experiment
        with a single seed process, and after ten seconds, spawn a
        subsequent group of N-1 processes".  ``stagger`` spreads the joiner
        start times uniformly over that many seconds.  Returns the cohort's
        endpoints (also kept as ``endpoints``).
        """
        self.endpoints = [self._address(i) for i in range(n)]
        seeds = (self.endpoints[0],)
        rng = self.network.rng_for("bootstrap", "stagger")
        joiners_at = self.engine.now + seed_delay
        for i, ep in enumerate(self.endpoints):
            start_at = None
            if i:
                start_at = joiners_at + (rng.random() * stagger if stagger else 0.0)
            self.add_node(ep, start_at=start_at, seeds=seeds, **agent_kw)
        return self.endpoints

    # ---------------------------------------------------------------- driving

    def run_for(self, duration: float) -> None:
        """Advance the run's clock by ``duration`` seconds, sampling on the way."""
        self._advance(self.engine.now + duration)

    def run_until_converged(self, size: int, timeout: float = 600.0) -> Optional[float]:
        """Advance time until every live process reports ``size`` members.

        Convergence is checked on the view samples, so the returned time is
        that of the first sample at which it held; ``None`` on timeout.
        The caller is responsible for the target size matching the
        scenario.
        """
        return self._advance(self.engine.now + timeout, size)

    def _advance(self, until: float, size: Optional[int] = None) -> Optional[float]:
        """Run the clock to ``until``, sampling every live view on the way.

        A sample is due at every multiple of ``sample_interval``; one the
        clock already passed (someone ran the engine directly) is skipped.
        With ``size``, stop at the first sample at which the cluster has
        :meth:`converged` to it and return that time.
        """
        engine = self.engine
        interval = self.sample_interval
        while True:
            at = self._next_sample * interval
            if at <= engine.now:
                self._next_sample = int(engine.now // interval) + 1
                continue
            if at > until:
                engine.run(until=until)
                return None
            engine.run(until=at)
            self._next_sample += 1
            now = engine.now
            self._sample(now)
            if size is not None and self.converged(size):
                return now

    def _sample(self, now: float) -> None:
        """Log the view size of every live process that reports one."""
        runtimes = self.runtimes
        self.trace.sample_all(
            now,
            (
                (ep, size)
                for ep, agent in self.agents.items()
                if not runtimes[ep].crashed and (size := agent.view_size)
            ),
        )

    def converged(self, size: int) -> bool:
        """True when there is a live process and every one reports ``size``."""
        # Single pass, no intermediate lists: run_until_converged checks
        # this at every sample, which at n=1000 adds up.
        runtimes = self.runtimes
        found = False
        for ep, agent in self.agents.items():
            if runtimes[ep].crashed:
                continue
            found = True
            if agent.view_size != size:
                return False
        return found

    def crash(self, endpoints: Iterable[Endpoint]) -> None:
        """Fail-stop the given processes immediately."""
        for ep in endpoints:
            self.runtimes[ep].crash()

    def live_endpoints(self) -> list:
        """Endpoints of every process added so far that has not crashed."""
        runtimes = self.runtimes
        return [ep for ep in self.agents if not runtimes[ep].crashed]
