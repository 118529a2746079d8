"""Shared scaffolding for baseline membership systems.

Each baseline (SWIM/Memberlist, ZooKeeper, Akka-like, all-to-all gossip FD)
implements :class:`MembershipAgent`: the minimal surface the cluster driver
(:class:`repro.sim.cluster.SimCluster`) and the example applications need —
``start()``, a ``view()`` of the cluster and the ``view_size`` it reports.
:class:`repro.core.membership.RapidNode` has the same three (it samples its
own view size into the :class:`~repro.sim.trace.ViewTrace`; baselines get a
:class:`ViewReporter`), so experiments swap systems freely.
"""

from __future__ import annotations

from repro.runtime.base import Runtime
from repro.sim.trace import ViewTrace

__all__ = ["MembershipAgent", "ViewReporter"]


class MembershipAgent:
    """Minimal interface every membership system under test implements."""

    runtime: Runtime

    def start(self) -> None:
        raise NotImplementedError

    def view(self) -> tuple:
        """The membership set this agent currently believes in."""
        raise NotImplementedError

    @property
    def view_size(self) -> int:
        """The cluster size this agent reports (0: nothing to report yet)."""
        return len(self.view())


class ViewReporter:
    """Logs an agent's view size once per second into a shared trace.

    Mirrors the paper's experiment methodology: "Every process logs its own
    view of the cluster size every second."
    """

    def __init__(
        self, agent: MembershipAgent, trace: ViewTrace, interval: float = 1.0
    ) -> None:
        self.agent = agent
        self.trace = trace
        self.interval = interval

    def start(self) -> None:
        self.agent.runtime.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        size = self.agent.view_size
        if size > 0:
            self.trace.sample(self.agent.runtime.addr, self.agent.runtime.now(), size)
        self.agent.runtime.schedule(self.interval, self._tick)
