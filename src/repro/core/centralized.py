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

Classes
-------
:class:`EnsembleNode` — a member of ``S``; holds the authoritative
    configuration of ``C`` and decides view changes.
:class:`CentralizedClusterNode` — a member of ``C``; a
    :class:`~repro.core.membership.RapidNode` whose alert and view-change
    paths are redirected through the ensemble.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.core.configuration import Configuration
from repro.core.cut_detector import MultiNodeCutDetector
from repro.core.events import NodeStatus, ViewChangeEvent
from repro.core.fast_paxos import DecisionLog, FastPaxos
from repro.core.membership import RapidNode
from repro.core.messages import (
    Alert,
    AlertKind,
    BatchedAlerts,
    Decision,
    JoinRequest,
    JoinResponse,
    JoinStatus,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    PreJoinRequest,
    PreJoinResponse,
    Proposal,
    ViewProbe,
    ViewUpdate,
    VoteBundle,
    VotePull,
)
from repro.core.node_id import Endpoint
from repro.core.ring import KRingTopology
from repro.core.settings import RapidSettings
from repro.runtime.base import Runtime

__all__ = ["EnsembleNode", "CentralizedClusterNode"]


class EnsembleNode:
    """One member of the auxiliary ensemble ``S``.

    All ensemble members start with the same (possibly empty) initial
    cluster configuration and the same sorted ensemble list; consensus runs
    among the ensemble with the cluster's configuration id as its scope.
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
        self.settings = settings or RapidSettings()
        self.ensemble = tuple(sorted(ensemble))
        if self.addr not in self.ensemble:
            raise ValueError("ensemble node address must be in the ensemble list")
        self.config = Configuration.of(initial_members)
        self.cut_detector: Optional[MultiNodeCutDetector] = None
        self.consensus: Optional[FastPaxos] = None
        self._pending_joiners: dict[Endpoint, int] = {}
        self._config_chain = DecisionLog()
        self.view_changes_decided = 0
        runtime.attach(self.on_message)
        self._reset_round()

    # -------------------------------------------------------------- consensus

    def _reset_round(self) -> None:
        if self.consensus is not None:
            self.consensus.cancel_timers()
        topology = (
            KRingTopology.for_configuration(self.config, self.settings.k)
            if self.config.size > 0
            else None
        )
        self.cut_detector = MultiNodeCutDetector(
            self.settings.k, self.settings.h, self.settings.l, topology
        )
        self.consensus = FastPaxos(
            runtime=self.runtime,
            members=self.ensemble,
            config_id=self.config.config_id,
            settings=self.settings,
            broadcast=self._broadcast_ensemble,
            on_decide=self._on_decide,
            gossip=self.settings.use_gossip(len(self.ensemble)),
        )

    def _broadcast_ensemble(self, payload: Any) -> None:
        for peer in self.ensemble:
            if peer != self.addr:
                self.runtime.send(peer, payload)
        self.on_message(self.addr, payload)

    # --------------------------------------------------------------- messages

    def on_message(self, src: Endpoint, msg: Any) -> None:
        """Entry point for cluster alerts, ensemble consensus, and joins."""
        if isinstance(msg, BatchedAlerts):
            for alert in msg.alerts:
                self._on_alert(alert)
        elif isinstance(
            msg, (VoteBundle, VotePull, Decision, Phase1a, Phase1b, Phase2a, Phase2b)
        ):
            self._on_consensus(src, msg)
        elif isinstance(msg, PreJoinRequest):
            self._on_pre_join_request(src, msg)
        elif isinstance(msg, ViewProbe):
            self._on_view_probe(src, msg)

    def _on_alert(self, alert: Alert) -> None:
        if alert.config_id != self.config.config_id:
            return
        in_view = alert.subject in self.config
        if alert.kind == AlertKind.REMOVE and not in_view:
            return
        if alert.kind == AlertKind.JOIN and (
            in_view or self.config.has_uuid(alert.joiner_uuid)
        ):
            return
        if alert.kind == AlertKind.JOIN:
            self._pending_joiners.setdefault(alert.subject, alert.joiner_uuid)
        proposal = self.cut_detector.receive_alert(alert, self.runtime.now())
        if proposal:
            self.consensus.propose(proposal)

    def _on_consensus(self, src: Endpoint, msg: Any) -> None:
        if msg.config_id == self.config.config_id:
            self.consensus.handle(src, msg)
            return
        if not isinstance(msg, Decision):
            want = msg.want if isinstance(msg, VotePull) else ()
            decision = self._config_chain.learn(self.addr, msg.config_id, want)
            if decision is not None:
                self.runtime.send(src, decision)

    def _on_decide(self, proposal: Proposal) -> None:
        old = self.config
        try:
            self.config = old.apply(proposal)
        except ValueError:
            return
        self._config_chain.record(old.config_id, self.config.config_id, proposal)
        self.view_changes_decided += 1
        self._reset_round()
        joined = tuple(c.endpoint for c in proposal if c.kind == AlertKind.JOIN)
        # Answer joiners; push the new view to the cluster (lowest-address
        # ensemble member pushes, the rest serve polls).
        for joiner in joined:
            self._pending_joiners.pop(joiner, None)
            self.runtime.send(joiner, self._join_response())
        if self.addr == self.ensemble[0]:
            update = self._view_update()
            for member in self.config.members:
                if member not in joined:
                    self.runtime.send(member, update)

    # ------------------------------------------------------------------ joins

    def _on_pre_join_request(self, src: Endpoint, msg: PreJoinRequest) -> None:
        if msg.sender in self.config:
            if self.config.uuid_of(msg.sender) == msg.uuid:
                self.runtime.send(msg.sender, self._join_response())
            else:
                self.runtime.send(
                    msg.sender,
                    PreJoinResponse(
                        sender=self.addr,
                        status=JoinStatus.UUID_IN_USE,
                        config_id=self.config.config_id,
                        conflict_uuid=self.config.uuid_of(msg.sender),
                    ),
                )
            return
        if self.config.size == 0:
            # Empty cluster: the ensemble itself vouches for the first
            # joiner, playing the role of all K temporary observers.
            self._pending_joiners[msg.sender] = msg.uuid
            self._on_alert(
                Alert(
                    observer=self.addr,
                    subject=msg.sender,
                    kind=AlertKind.JOIN,
                    config_id=self.config.config_id,
                    ring_numbers=tuple(range(self.settings.k)),
                    joiner_uuid=msg.uuid,
                )
            )
            return
        topology = KRingTopology.for_configuration(self.config, self.settings.k)
        self.runtime.send(
            msg.sender,
            PreJoinResponse(
                sender=self.addr,
                status=JoinStatus.SAFE_TO_JOIN,
                config_id=self.config.config_id,
                observers=tuple(topology.observers_of(msg.sender)),
            ),
        )

    def _join_response(self) -> JoinResponse:
        return JoinResponse(
            sender=self.addr,
            status=JoinStatus.SAFE_TO_JOIN,
            config_id=self.config.config_id,
            view=self.config.view_snapshot(),
        )

    def _view_update(self) -> ViewUpdate:
        return ViewUpdate(
            sender=self.addr,
            config_id=self.config.config_id,
            members=self.config.members,
            uuids=self.config.uuids,
            seq=self.config.seq,
        )

    def _on_view_probe(self, src: Endpoint, msg: ViewProbe) -> None:
        if msg.config_id != self.config.config_id:
            self.runtime.send(msg.sender, self._view_update())


class CentralizedClusterNode(RapidNode):
    """A member of the cluster ``C`` in logically centralized mode.

    Reuses the full :class:`RapidNode` monitoring and join machinery with
    three redirections (paper section 5's "three minor modifications"):
    alert batches go only to the ensemble; consensus messages are ignored
    locally (the ensemble decides); and view changes arrive as
    ``JoinResponse``/``ViewUpdate`` messages from the ensemble, pulled by a
    periodic probe.
    """

    def __init__(
        self,
        runtime: Runtime,
        ensemble: Iterable[Endpoint],
        settings: Optional[RapidSettings] = None,
        **kwargs,
    ) -> None:
        self.ensemble = tuple(sorted(ensemble))
        super().__init__(runtime, settings, seeds=self.ensemble, **kwargs)

    def start(self) -> None:
        """Boot by joining through the ensemble (no self-bootstrap path)."""
        if self.status != NodeStatus.INIT:
            raise RuntimeError("start() called twice")
        self.status = NodeStatus.JOINING
        from repro.core.join import JoinProtocol

        self._join_protocol = JoinProtocol(self)
        self._join_protocol.begin()
        self._start_ticks()
        self.runtime.schedule(
            self.settings.view_probe_interval, self._view_probe_tick
        )

    # ------------------------------------------------------------ redirection

    def _flush_alerts(self) -> None:
        self._batch_timer = None
        if not self._alert_batch or self.status != NodeStatus.ACTIVE:
            self._alert_batch.clear()
            return
        batch = BatchedAlerts(sender=self.addr, alerts=tuple(self._alert_batch))
        self._alert_batch.clear()
        for ensemble_node in self.ensemble:
            self.runtime.send(ensemble_node, batch)

    def _on_consensus(self, src: Endpoint, msg: Any) -> None:
        return  # the ensemble runs consensus; cluster nodes take no part

    def _on_alert(self, alert: Alert) -> None:
        return  # alerts are aggregated by the ensemble only

    def _on_pre_join_request(self, src: Endpoint, msg: PreJoinRequest) -> None:
        return  # joins go through the ensemble

    _DISPATCH_NAMES = {**RapidNode._DISPATCH_NAMES, ViewUpdate: "_on_view_update"}

    def _install(self, config, joined: tuple, removed: tuple) -> None:
        super()._install(config, joined=joined, removed=removed)
        # RapidNode._install answered pending joiners itself; in centralized
        # mode the ensemble answers joiners, so nothing extra to do — but the
        # consensus instance RapidNode created stays idle by construction
        # (propose is never called because _on_alert is disabled).

    # ---------------------------------------------------------------- probing

    def _view_probe_tick(self) -> None:
        if self.status in (NodeStatus.KICKED, NodeStatus.LEFT):
            return
        if self.status == NodeStatus.ACTIVE and self.config is not None:
            target = self.ensemble[
                self.runtime.rng.randrange(len(self.ensemble))
            ]
            self.runtime.send(
                target, ViewProbe(sender=self.addr, config_id=self.config.config_id)
            )
        self.runtime.schedule(self.settings.view_probe_interval, self._view_probe_tick)

    def _on_view_update(self, src: Endpoint, msg: ViewUpdate) -> None:
        if self.status != NodeStatus.ACTIVE or self.config is None:
            return
        if msg.seq <= self.config.seq:
            return
        new_config = Configuration(members=msg.members, uuids=msg.uuids, seq=msg.seq)
        old_members = set(self.config.members)
        new_members = set(new_config.members)
        joined = tuple(sorted(new_members - old_members))
        removed = tuple(sorted(old_members - new_members))
        if self.addr not in new_members:
            self._become_kicked(self.config)
            return
        self._install(new_config, joined=joined, removed=removed)
