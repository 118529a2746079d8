"""Logically centralized Rapid ("Rapid-C", paper section 5).

A small auxiliary ensemble ``S`` records the membership of a cluster ``C``,
the way systems use ZooKeeper as membership ground truth — but with Rapid's
stability intact, because the *monitoring* stays distributed:

1. nodes in ``C`` keep monitoring each other along the k-ring topology, but
   report alerts only to the ensemble (not to all of ``C``);
2. ensemble nodes feed the alerts through the same multi-process cut
   detection and run the view-change consensus *among themselves*;
3. nodes in ``C`` learn new views via push notifications from the ensemble
   and by probing it periodically.

Resiliency drops to that of the ensemble (a majority of ``S`` must stay up
and reachable), which is the price of any logically centralized design.

Both classes are compositions of the parts in :mod:`repro.core.membership`,
as the paper's "three minor modifications" suggest:

:class:`EnsembleNode` — a member of ``S``: the deciding role
    (:class:`~repro.core.membership.ViewChanger`, with the ensemble as its
    acceptors) plus the admission desk's seed-side answers.
:class:`CentralizedClusterNode` — a member of ``C``: a
    :class:`~repro.core.membership.ClusterMember` (monitor, alert batch,
    joiner-vouching desk) whose alert batches go to the ensemble and whose
    views come from it.  It holds no cut detector and no consensus state.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.core.broadcaster import Broadcaster
from repro.core.configuration import Configuration
from repro.core.events import NodeStatus
from repro.core.membership import (
    CONSENSUS_MESSAGES,
    AdmissionDesk,
    ClusterMember,
    ViewChanger,
)
from repro.core.messages import (
    AlertKind,
    BatchedAlerts,
    PreJoinRequest,
    Proposal,
    ViewProbe,
    ViewUpdate,
)
from repro.core.node_id import Endpoint
from repro.core.ring import KRingTopology
from repro.core.settings import RapidSettings
from repro.runtime.base import Runtime

__all__ = ["EnsembleNode", "CentralizedClusterNode"]

#: Seconds between a cluster member's polls of the ensemble for view
#: updates (the paper uses 5 s to mirror its ZooKeeper setup).
VIEW_PROBE_INTERVAL = 5.0


def _view_update(sender: Endpoint, config: Configuration) -> ViewUpdate:
    return ViewUpdate(
        sender=sender,
        config_id=config.config_id,
        members=config.members,
        uuids=config.uuids,
        seq=config.seq,
    )


class EnsembleNode:
    """One member of the auxiliary ensemble ``S``.

    All ensemble members start with the same (possibly empty) initial
    cluster configuration and the same sorted ensemble list; consensus runs
    among the ensemble with the cluster's configuration id as its scope.
    Role metadata in JOIN alerts is not kept: the views the ensemble hands
    out carry none.
    """

    def __init__(
        self,
        runtime: Runtime,
        ensemble: Iterable[Endpoint],
        settings: Optional[RapidSettings] = None,
        initial_members: Iterable[Endpoint] = (),
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.settings = settings = settings or RapidSettings()
        self.ensemble = tuple(sorted(ensemble))
        if self.addr not in self.ensemble:
            raise ValueError("ensemble node address must be in the ensemble list")
        # The ensemble is this decider's view: consensus fans out over it.
        self.broadcaster = Broadcaster(runtime, self.on_message)
        self.broadcaster.set_membership(self.ensemble)
        self.decider = ViewChanger(
            runtime, settings, self.broadcaster.broadcast, self._on_decide
        )
        self.desk = AdmissionDesk(runtime, settings, {}, self.decider.on_alert)
        self._dispatch = {
            BatchedAlerts: self.decider.on_alerts,
            PreJoinRequest: self.desk.on_pre_join_request,
            ViewProbe: self._on_view_probe,
            **dict.fromkeys(CONSENSUS_MESSAGES, self.decider.on_consensus),
        }
        runtime.attach(self.on_message)
        self._serve(Configuration.of(initial_members))

    @property
    def config(self) -> Configuration:
        """The authoritative configuration of the cluster ``C``."""
        return self.decider.config

    def on_message(self, src: Endpoint, msg: Any) -> None:
        """Entry point for cluster alerts, ensemble consensus, and joins."""
        handler = self._dispatch.get(type(msg))
        if handler is not None:
            handler(src, msg)

    def _serve(self, config: Configuration) -> None:
        """Decide and answer for ``config`` from now on."""
        k = self.settings.k
        topology = KRingTopology.for_configuration(config, k) if config.size else None
        gossip = self.settings.use_gossip(len(self.ensemble))
        self.decider.reset(config, topology, gossip, acceptors=self.ensemble)
        self.desk.reset(config, topology, ())

    def _on_decide(self, old: Configuration, new: Configuration, cut: Proposal) -> None:
        self._serve(new)
        joined = tuple(c.endpoint for c in cut if c.kind == AlertKind.JOIN)
        # Answer joiners; push the new view to the cluster (lowest-address
        # ensemble member pushes, the rest serve polls).
        for joiner in joined:
            self.runtime.send(joiner, self.desk.join_response())
        if self.addr == self.ensemble[0]:
            update = _view_update(self.addr, new)
            for member in new.members:
                if member not in joined:
                    self.runtime.send(member, update)

    def _on_view_probe(self, src: Endpoint, msg: ViewProbe) -> None:
        if msg.config_id != self.config.config_id:
            self.runtime.send(msg.sender, _view_update(self.addr, self.config))


class CentralizedClusterNode(ClusterMember):
    """A member of the cluster ``C`` in logically centralized mode.

    A :class:`~repro.core.membership.ClusterMember` with the paper's
    section 5 wiring: it joins through the ensemble, its alert batches go
    only to the ensemble, and view changes arrive as
    ``JoinResponse``/``ViewUpdate`` messages from the ensemble, pulled by a
    periodic probe.  Consensus traffic and pre-join requests are none of
    its business and find no handler here.
    """

    def __init__(
        self,
        runtime: Runtime,
        ensemble: Iterable[Endpoint],
        settings: Optional[RapidSettings] = None,
        **kwargs,
    ) -> None:
        self.ensemble = tuple(sorted(ensemble))
        super().__init__(
            runtime, settings, seeds=self.ensemble, publish=self._publish, **kwargs
        )
        self._dispatch[ViewUpdate] = self._on_view_update

    def start(self) -> None:
        """Boot by joining through the ensemble (no self-bootstrap path)."""
        if self.status != NodeStatus.INIT:
            raise RuntimeError("start() called twice")
        self._join()
        self.monitor.start()
        self.runtime.schedule(VIEW_PROBE_INTERVAL, self._view_probe_tick)

    def _publish(self, batch: BatchedAlerts) -> None:
        for ensemble_node in self.ensemble:
            self.runtime.send(ensemble_node, batch)

    def _view_probe_tick(self) -> None:
        if self.status in (NodeStatus.KICKED, NodeStatus.LEFT):
            return
        if self.status == NodeStatus.ACTIVE:
            target = self.ensemble[self.runtime.rng.randrange(len(self.ensemble))]
            self.runtime.send(
                target, ViewProbe(sender=self.addr, config_id=self.config.config_id)
            )
        self.runtime.schedule(VIEW_PROBE_INTERVAL, self._view_probe_tick)

    def _on_view_update(self, src: Endpoint, msg: ViewUpdate) -> None:
        if self.status != NodeStatus.ACTIVE or msg.seq <= self.config.seq:
            return
        new_config = Configuration(members=msg.members, uuids=msg.uuids, seq=msg.seq)
        old_members = set(self.config.members)
        new_members = set(new_config.members)
        if self.addr not in new_members:
            self._depart(NodeStatus.KICKED, kicked_from=self.config)
            return
        self._install(
            new_config,
            joined=tuple(sorted(new_members - old_members)),
            removed=tuple(sorted(old_members - new_members)),
        )
