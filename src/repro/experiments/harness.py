"""Uniform harnesses for running each membership system in the simulator.

Every harness exposes the same surface — ``bootstrap``, ``run_for``,
``run_until_converged``, ``crash``, ``live_endpoints``, ``view_sizes``, and
a shared ``metrics`` registry (:mod:`repro.obs.metrics`) — so the
experiment scenarios (:mod:`repro.experiments.scenarios`) and the benchmark
runner (:mod:`repro.bench`) can run the paper's comparisons across Rapid,
Rapid-C, Memberlist/SWIM, ZooKeeper, and Akka with identical drivers.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.baselines.akka import AkkaConfig, AkkaNode
from repro.baselines.common import ViewReporter
from repro.baselines.gossip_fd import GossipFdConfig, GossipFdNode
from repro.baselines.swim import SwimConfig, SwimNode
from repro.baselines.zookeeper import ZkClient, ZkConfig, build_ensemble
from repro.core.node_id import Endpoint
from repro.core.settings import RapidSettings
from repro.obs.metrics import MetricsRegistry
from repro.sim.cluster import SimCluster, endpoint_for
from repro.sim.engine import Engine
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.process import SimRuntime
from repro.sim.trace import ViewTrace

__all__ = [
    "RapidHarness",
    "SwimHarness",
    "GossipFdHarness",
    "ZooKeeperHarness",
    "AkkaHarness",
    "harness_for",
    "SYSTEMS",
]


class _AgentHarness:
    """Shared driving logic over a set of agents with ``view()`` methods."""

    def __init__(self, seed: int = 0, latency: Optional[LatencyModel] = None) -> None:
        self.seed = seed
        self.metrics = MetricsRegistry()
        self.engine = Engine(metrics=self.metrics)
        self.network = Network(
            self.engine, seed=seed, latency=latency, metrics=self.metrics
        )
        self.trace = ViewTrace()
        #: Baselines report opaque views (no config ids/membership hashes),
        #: so the safety-invariant ledger does not apply to them.
        self.ledger = None
        self.agents: dict[Endpoint, object] = {}
        self.runtimes: dict[Endpoint, SimRuntime] = {}
        self.endpoints: list[Endpoint] = []

    # -- to be provided by subclasses ------------------------------------
    def _make_agent(self, runtime: SimRuntime, index: int):
        raise NotImplementedError

    # -- common driving ---------------------------------------------------
    def bootstrap(self, n: int, seed_delay: float = 10.0, stagger: float = 0.0) -> list:
        self.endpoints = [endpoint_for(i) for i in range(n)]
        rng = self.network.rng_for("bootstrap", "stagger")
        for i, ep in enumerate(self.endpoints):
            runtime = SimRuntime(self.engine, self.network, ep, seed=self.seed)
            agent = self._make_agent(runtime, i)
            self.agents[ep] = agent
            self.runtimes[ep] = runtime
            ViewReporter(agent, self.trace).start()
            if i == 0:
                agent.start()
            else:
                offset = seed_delay + (rng.random() * stagger if stagger else 0.0)
                self.engine.schedule_at(offset, agent.start)
        return self.endpoints

    def run_for(self, duration: float) -> None:
        self.engine.run_for(duration)

    def run_until_converged(
        self, size: int, timeout: float = 600.0, check_interval: float = 1.0
    ) -> Optional[float]:
        deadline = self.engine.now + timeout
        while self.engine.now < deadline:
            self.engine.run(until=min(self.engine.now + check_interval, deadline))
            if self.converged(size):
                return self.engine.now
        return None

    def converged(self, size: int) -> bool:
        # Single pass, no intermediate list: polled once per virtual
        # second by run_until_converged.
        agents = self.agents
        runtimes = self.runtimes
        found = False
        for ep in self.endpoints:
            if runtimes[ep].crashed:
                continue
            found = True
            if len(agents[ep].view()) != size:
                return False
        return found

    def crash(self, endpoints: Iterable[Endpoint]) -> None:
        for ep in endpoints:
            self.runtimes[ep].crash()

    def recover(self, endpoints: Iterable[Endpoint]) -> None:
        for ep in endpoints:
            self.runtimes[ep].recover()

    def live_endpoints(self) -> list:
        return [ep for ep in self.endpoints if not self.runtimes[ep].crashed]

    def view_sizes(self) -> list:
        return [len(self.agents[ep].view()) for ep in self.live_endpoints()]


class SwimHarness(_AgentHarness):
    """Memberlist/SWIM cluster."""

    name = "memberlist"
    config_cls = SwimConfig

    def __init__(self, seed: int = 0, config: Optional[SwimConfig] = None, **kw) -> None:
        super().__init__(seed=seed, **kw)
        self.config = config or SwimConfig()

    def _make_agent(self, runtime: SimRuntime, index: int):
        seeds = (endpoint_for(0),) if index else ()
        return SwimNode(runtime, seeds=seeds, config=self.config)


class AkkaHarness(_AgentHarness):
    """Akka-Cluster-like cluster."""

    name = "akka"
    config_cls = AkkaConfig

    def __init__(self, seed: int = 0, config: Optional[AkkaConfig] = None, **kw) -> None:
        super().__init__(seed=seed, **kw)
        self.config = config or AkkaConfig()

    def _make_agent(self, runtime: SimRuntime, index: int):
        seeds = (endpoint_for(0),) if index else ()
        return AkkaNode(runtime, seeds=seeds, config=self.config)


class GossipFdHarness(_AgentHarness):
    """All-to-all gossip failure-detector cluster (static member list).

    Every agent knows the full membership from construction — the system
    has no join protocol — so ``converged`` holds as soon as the processes
    start; what the harness measures is view *stability* under faults.
    """

    name = "gossip-fd"
    config_cls = GossipFdConfig

    def __init__(
        self, seed: int = 0, config: Optional[GossipFdConfig] = None, **kw
    ) -> None:
        super().__init__(seed=seed, **kw)
        self.config = config or GossipFdConfig()

    def _make_agent(self, runtime: SimRuntime, index: int):
        return GossipFdNode(runtime, members=self.endpoints, config=self.config)


class ZooKeeperHarness(_AgentHarness):
    """3-server ZooKeeper ensemble plus one client agent per process."""

    name = "zookeeper"
    config_cls = ZkConfig

    def __init__(self, seed: int = 0, config: Optional[ZkConfig] = None, **kw) -> None:
        super().__init__(seed=seed, **kw)
        self.config = config or ZkConfig()
        self.server_endpoints = tuple(
            Endpoint(f"10.255.254.{i + 1}", 2181) for i in range(3)
        )
        runtimes = [
            SimRuntime(self.engine, self.network, ep, seed=seed)
            for ep in self.server_endpoints
        ]
        self.servers = build_ensemble(runtimes, self.config)

    def _make_agent(self, runtime: SimRuntime, index: int):
        return ZkClient(runtime, self.server_endpoints, self.config)


class RapidHarness:
    """Adapter presenting :class:`SimCluster` with the harness surface."""

    name = "rapid"
    mode = "decentralized"

    def __init__(
        self,
        seed: int = 0,
        settings: Optional[RapidSettings] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.cluster = SimCluster(
            seed=seed, settings=settings, latency=latency, mode=self.mode
        )
        self.engine = self.cluster.engine
        self.network = self.cluster.network
        self.metrics = self.cluster.metrics
        self.trace = self.cluster.view_trace
        #: Safety-invariant monitor fed by every node's view installs
        #: (see :mod:`repro.obs.invariants`); checks run as the cluster
        #: reconfigures, so scenarios need no extra wiring.
        self.ledger = self.cluster.ledger
        self.endpoints: list[Endpoint] = []

    def bootstrap(self, n: int, seed_delay: float = 10.0, stagger: float = 0.0) -> list:
        self.endpoints = self.cluster.bootstrap(n, seed_delay=seed_delay, stagger=stagger)
        return self.endpoints

    def run_for(self, duration: float) -> None:
        self.cluster.run_for(duration)

    def run_until_converged(self, size: int, timeout: float = 600.0, **kw):
        return self.cluster.run_until_converged(size, timeout=timeout, **kw)

    def converged(self, size: int) -> bool:
        return self.cluster.converged(size)

    def crash(self, endpoints: Iterable[Endpoint]) -> None:
        self.cluster.crash(endpoints)

    def recover(self, endpoints: Iterable[Endpoint]) -> None:
        self.cluster.recover(endpoints)

    def live_endpoints(self) -> list:
        return [ep for ep in self.endpoints if not self.cluster.runtimes[ep].crashed]

    def view_sizes(self) -> list:
        return self.cluster.active_view_sizes()

    @property
    def agents(self):
        return self.cluster.nodes

    @property
    def runtimes(self):
        return self.cluster.runtimes


class RapidCHarness(RapidHarness):
    """Rapid in logically centralized mode (3-node ensemble)."""

    name = "rapid-c"
    mode = "centralized"


SYSTEMS = {
    "rapid": RapidHarness,
    "rapid-c": RapidCHarness,
    "memberlist": SwimHarness,
    "gossip-fd": GossipFdHarness,
    "zookeeper": ZooKeeperHarness,
    "akka": AkkaHarness,
}


def harness_for(system: str, seed: int = 0, **kwargs):
    """Construct the harness for a system name used in the paper's plots.

    ``settings`` may be passed as a plain dict of
    :class:`~repro.core.settings.RapidSettings` field overrides — the form
    benchmark specs use, since their params must stay JSON-serializable —
    and is instantiated here for the Rapid harnesses (an unknown field
    name raises ``ValueError`` listing the valid ones).  Likewise ``config``
    may be a plain dict of the baseline harness's config-dataclass fields
    (``SwimConfig``, ``GossipFdConfig``, ``ZkConfig``, ``AkkaConfig``), the
    form sweep grids use.
    """
    try:
        factory = SYSTEMS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; choose from {sorted(SYSTEMS)}")
    settings = kwargs.get("settings")
    if isinstance(settings, dict):
        kwargs["settings"] = RapidSettings.from_overrides(settings)
    config = kwargs.get("config")
    if isinstance(config, dict):
        config_cls = getattr(factory, "config_cls", None)
        if config_cls is None:
            raise ValueError(
                f"system {system!r} takes no config dict; "
                "pass Rapid overrides via settings={...}"
            )
        kwargs["config"] = config_cls(**config)
    return factory(seed=seed, **kwargs)
