"""One harness per membership system: the cluster driver plus what differs.

Every system runs under the one contract of
:class:`~repro.sim.cluster.SimCluster` — ``bootstrap``, ``add_node``,
``run_for``, ``run_until_converged``, ``converged``, ``crash``,
``live_endpoints`` over the shared ``engine`` / ``network`` / ``metrics`` /
``trace`` / ``ledger`` / ``agents`` / ``runtimes`` / ``endpoints`` state —
so the experiment scenarios (:mod:`repro.experiments.scenarios`) and the
benchmark runner (:mod:`repro.bench`) run the paper's comparisons across
Rapid, Rapid-C, Memberlist/SWIM, ZooKeeper, and Akka with identical
drivers.  A class here adds only its agent factory and what it needs
beyond the contract: nothing for a baseline, whose timers are constants
of its own module (the paper runs each at its stock settings); settings,
the safety ledger and (for Rapid-C) the ensemble for Rapid.

Every system is observed from outside: the driver samples each agent's
``view_size`` itself, and a Rapid process reports the views it installs
through the application callback of the paper's API
(``on_view_change``), which the harness composes with any callback the
caller passes.  No protocol class knows it is in an experiment.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.akka import AkkaNode
from repro.baselines.gossip_fd import GossipFdNode
from repro.baselines.swim import SwimNode
from repro.baselines.zookeeper import ZkClient, build_ensemble
from repro.core.centralized import CentralizedClusterNode, EnsembleNode
from repro.core.membership import RapidNode, ViewChanger
from repro.core.node_id import Endpoint
from repro.core.settings import RapidSettings
from repro.obs.invariants import ViewLedger
from repro.sim.cluster import SimCluster

__all__ = [
    "RapidHarness",
    "RapidCHarness",
    "SwimHarness",
    "GossipFdHarness",
    "ZooKeeperHarness",
    "AkkaHarness",
    "harness_for",
    "SYSTEMS",
]


class _BaselineHarness(SimCluster):
    """A baseline: ``agent_cls(runtime, contacts)``.

    A baseline takes nothing but a seed: its timers are constants of its
    module.  Baselines report opaque views (no config ids or membership
    hashes), so the safety-invariant ledger does not apply: ``ledger`` is
    ``None``.
    """

    agent_cls: type

    def _contacts(self, addr: Endpoint, seeds: tuple) -> tuple:
        """Whom a new agent is told about: its seeds, never itself."""
        return tuple(seed for seed in seeds if seed != addr)

    def make_agent(self, runtime, seeds: tuple = (), **agent_kw):
        return self.agent_cls(runtime, self._contacts(runtime.addr, seeds), **agent_kw)


class SwimHarness(_BaselineHarness):
    """Memberlist/SWIM cluster."""

    name = "memberlist"
    agent_cls = SwimNode


class AkkaHarness(_BaselineHarness):
    """Akka-Cluster-like cluster."""

    name = "akka"
    agent_cls = AkkaNode


class GossipFdHarness(_BaselineHarness):
    """All-to-all gossip failure-detector cluster (static member list).

    Every agent knows the full bootstrap cohort from construction — the
    system has no join protocol — so ``converged`` holds as soon as the
    processes start; what the harness measures is view *stability* under
    faults.
    """

    name = "gossip-fd"
    agent_cls = GossipFdNode

    def _contacts(self, addr: Endpoint, seeds: tuple) -> tuple:
        return tuple(self.endpoints)


class ZooKeeperHarness(_BaselineHarness):
    """3-server ZooKeeper ensemble plus one client agent per process."""

    name = "zookeeper"
    agent_cls = ZkClient

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.server_endpoints = tuple(
            Endpoint(f"10.255.254.{i + 1}", 2181) for i in range(3)
        )
        self.servers = build_ensemble(
            [self._runtime(ep) for ep in self.server_endpoints]
        )

    def _contacts(self, addr: Endpoint, seeds: tuple) -> tuple:
        return self.server_endpoints


class RapidHarness(SimCluster):
    """Rapid: shared settings, and a ledger checking every view install.

    Every installation a process reports to its view-change callback is
    recorded in ``trace``, which feeds ``ledger`` on the spot.
    """

    name = "rapid"
    #: Whether the ledger lets a member skip views (only Rapid-C may).
    allow_member_gaps = False

    def __init__(self, seed: int = 0, settings: Optional[RapidSettings] = None) -> None:
        ledger = ViewLedger(seed=seed, allow_member_gaps=self.allow_member_gaps)
        super().__init__(seed=seed, ledger=ledger)
        self.settings = settings or RapidSettings()

    def make_agent(self, runtime, seeds: tuple = (), **agent_kw):
        return RapidNode(
            runtime, self.settings, seeds=seeds, **self._observed(runtime, agent_kw)
        )

    def _observed(self, runtime, agent_kw: dict) -> dict:
        """``agent_kw`` plus the shared metrics and a view-change callback
        that records each install in ``trace`` before calling the
        caller's own ``on_view_change``, if any."""
        addr, record = runtime.addr, self.trace.record
        forward = agent_kw.get("on_view_change")

        def on_view_change(event) -> None:
            if not event.kicked:
                record(event.time, addr, event.configuration)
            if forward is not None:
                forward(event)

        return {**agent_kw, "metrics": self.metrics, "on_view_change": on_view_change}

    # benchmarks/workloads.py (frozen) reaches late joins and the install
    # records through these two names; nothing else may.
    cluster = property(lambda self: self)
    event_log = property(lambda self: self.trace)


class RapidCHarness(RapidHarness):
    """Rapid in logically centralized mode (3-node ensemble)."""

    name = "rapid-c"
    # ViewUpdate pushes legitimately skip views, so only the ledger's
    # contiguity leg is relaxed.
    allow_member_gaps = True

    def __init__(self, seed: int = 0, settings: Optional[RapidSettings] = None) -> None:
        super().__init__(seed=seed, settings=settings)
        # ``metrics`` instruments the cluster members, not the ensemble; the
        # members decide nothing, and their report keeps Rapid's columns for
        # the deciding role (at zero) so the two systems' rows line up.
        ViewChanger.instruments(self.metrics)
        self.ensemble_endpoints = tuple(
            Endpoint(host=f"10.255.255.{i + 1}", port=9000) for i in range(3)
        )
        self.ensemble = [
            EnsembleNode(self._runtime(ep), self.ensemble_endpoints, self.settings)
            for ep in self.ensemble_endpoints
        ]

    def make_agent(self, runtime, seeds: tuple = (), **agent_kw):
        return CentralizedClusterNode(
            runtime,
            self.ensemble_endpoints,
            self.settings,
            **self._observed(runtime, agent_kw),
        )


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

    A baseline takes only ``seed``.  The Rapid harnesses also take
    ``settings``, which may be a plain dict of
    :class:`~repro.core.settings.RapidSettings` field overrides — the form
    benchmark specs and grids use, since their params must stay
    JSON-serializable — and is instantiated here (an unknown field name
    raises ``ValueError`` listing the valid ones).
    """
    try:
        factory = SYSTEMS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; choose from {sorted(SYSTEMS)}")
    settings = kwargs.get("settings")
    if isinstance(settings, dict):
        kwargs["settings"] = RapidSettings.from_overrides(settings)
    return factory(seed=seed, **kwargs)
