"""Shared scaffolding for baseline membership systems.

Each baseline (SWIM/Memberlist, ZooKeeper, Akka-like, all-to-all gossip FD)
implements :class:`MembershipAgent`: the minimal surface the cluster driver
(:class:`repro.sim.cluster.SimCluster`) and the example applications need —
``start()``, a ``view()`` of the cluster and the ``view_size`` it reports.
:class:`repro.core.membership.RapidNode` has the same three, so experiments
swap systems freely; the driver samples ``view_size`` of every system from
outside, once per second.
"""

from __future__ import annotations

from repro.runtime.base import Runtime

__all__ = ["MembershipAgent"]


class MembershipAgent:
    """Minimal interface every membership system under test implements."""

    runtime: Runtime

    def start(self) -> None:
        """Begin taking part in the cluster (called once per process)."""

    def view(self) -> tuple:
        """The membership set this agent currently believes in."""

    @property
    def view_size(self) -> int:
        """The cluster size this agent reports (0: nothing to report yet)."""
        return len(self.view())
