"""The Rapid membership service: one node's full protocol stack.

:class:`RapidNode` wires together the components of the paper's Figure 3
pipeline for a single process:

``edge monitoring`` (K-ring probes + pluggable detector, section 4.1)
→ ``irrevocable alerts`` (batched, broadcast)
→ ``multi-process cut detection`` (section 4.2)
→ ``leaderless view-change consensus`` (section 4.3)
→ ``configuration installation`` + application callback.

The node is sans-io: it talks to the world only through a
:class:`~repro.runtime.base.Runtime`, so the same class runs inside the
deterministic simulator and over real asyncio UDP sockets.

Typical use (mirrors the paper's ``JOIN(HOST:PORT, SEEDS, CALLBACK)`` API)::

    node = RapidNode(runtime, settings, seeds=[seed_endpoint],
                     on_view_change=callback)
    node.start()
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Optional

from repro.core.configuration import Configuration
from repro.core.cut_detector import MultiNodeCutDetector
from repro.core.broadcaster import Broadcaster, make_fanout
from repro.core.events import NodeStatus, ViewChangeEvent
from repro.core.fast_paxos import DecisionLog, FastPaxos
from repro.core.join import JoinProtocol
from repro.core.messages import (
    Alert,
    AlertKind,
    BatchedAlerts,
    Decision,
    GossipBundle,
    GossipEnvelope,
    JoinRequest,
    JoinResponse,
    JoinStatus,
    LeaveNotification,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    PreJoinRequest,
    PreJoinResponse,
    Probe,
    ProbeAck,
    Proposal,
    ViewDelta,
    VoteBundle,
    VotePull,
)
from repro.core.node_id import Endpoint, NodeId
from repro.core.ring import KRingTopology
from repro.core.settings import RapidSettings
from repro.detectors.base import DetectorFactory
from repro.detectors.ping_timeout import PingTimeoutDetector
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.runtime.base import Runtime

__all__ = ["RapidNode"]

ViewChangeCallback = Callable[[ViewChangeEvent], None]


class RapidNode:
    """A member (or joiner) of a Rapid cluster.

    Parameters
    ----------
    runtime:
        Messaging/timer environment (simulated or real).
    settings:
        Protocol parameters; defaults to the paper's ``K=10, H=9, L=3``.
    seeds:
        Bootstrap contact list.  A node whose address is the first seed (or
        with no seeds at all) boots a fresh single-member cluster; everyone
        else joins through the seeds.
    detector_factory:
        Factory for per-edge failure detectors; defaults to the paper's
        40%-of-last-10 probe detector.
    on_view_change:
        Application callback invoked on every installed view change.
    metadata:
        Application-supplied role metadata, e.g. ``{"role": "backend"}``.
    trace:
        Optional experiment hook (a :class:`repro.sim.trace.ViewTrace`):
        receives this node's view size every ``report_interval`` and
        every view it installs.
    metrics:
        Registry receiving ``cluster.*`` aggregates, per-node
        ``node.<ep>.*`` counters, and the consensus instruments (shared
        across every node of a harness; disabled by default).
    """

    def __init__(
        self,
        runtime: Runtime,
        settings: Optional[RapidSettings] = None,
        seeds: Iterable[Endpoint] = (),
        detector_factory: Optional[DetectorFactory] = None,
        on_view_change: Optional[ViewChangeCallback] = None,
        metadata: Optional[dict] = None,
        trace=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._cluster_metrics = self.metrics.scope("cluster")
        self._node_metrics = self.metrics.scope("node", runtime.addr)
        # Hot-path instruments are resolved once; with a disabled registry
        # these are shared no-op singletons.
        self._m_probes_sent = self._cluster_metrics.counter("probes_sent")
        self._m_alerts_enqueued = self._cluster_metrics.counter("alerts_enqueued")
        self._m_alerts_received = self._cluster_metrics.counter("alerts_received")
        self._m_view_changes = self._cluster_metrics.counter("view_changes")
        self._m_cut_latency = self._cluster_metrics.histogram(
            "cut_detection_latency_s"
        )
        self._m_node_alerts = self._node_metrics.counter("alerts_sent")
        self._m_node_views = self._node_metrics.counter("view_changes")
        self.settings = settings or RapidSettings()
        self.seeds = tuple(seeds)
        self.node_id = NodeId.fresh(self.addr)
        self.detector_factory = detector_factory or self._default_detector_factory()
        self.on_view_change = on_view_change
        self.metadata = dict(metadata or {})
        self.trace = trace

        self.status = NodeStatus.INIT
        self.config: Optional[Configuration] = None
        self.topology: Optional[KRingTopology] = None
        self.cut_detector: Optional[MultiNodeCutDetector] = None
        self.consensus: Optional[FastPaxos] = None
        self.metadata_store: dict[Endpoint, dict] = {}

        self.broadcaster = Broadcaster(
            runtime,
            self.on_message,
            fanout=self.settings.gossip_fanout,
            relay_window=self.settings.gossip_relay_window,
        )

        # Monitoring state (per configuration), kept in parallel arrays
        # indexed by subject position: the probe wheel touches these every
        # tick and every ack, so bookkeeping must not allocate per probe.
        self._subjects: list[Endpoint] = []
        self._subject_index: dict[Endpoint, int] = {}
        self._detectors: list[Any] = []
        self._alerted: set[Endpoint] = set()
        # Virtual time of the last view install (or re-announce); gates
        # the stale-view re-announce scan below.
        self._last_progress = 0.0
        #: Outstanding probe per subject: the wheel-tick seq of the probe
        #: in flight, or 0 when none (at most one probe per edge).
        self._outstanding: list[int] = []
        self._sent_at: list[float] = []
        #: Consecutive bootstrapping acks per subject (see
        #: ``probe_bootstrap_budget``).
        self._bootstrap_acks: list[int] = []
        #: Subject indices assigned to each wheel slot (round-robin).
        self._slot_indices: list[list[int]] = []
        #: Shared expiry ring: ``(deadline, subject_idx, seq)`` in send
        #: order.  Deadlines are monotone (fixed probe_timeout), so expiry
        #: pops from the left — O(1) amortized, no per-probe timeout
        #: events and no engine tombstones.
        self._probe_ring: deque = deque()
        #: Observers owed an ack, in probe-arrival order (dict as ordered
        #: set); flushed as one batched ProbeAck on the next wheel tick.
        self._ack_pending: dict[Endpoint, None] = {}
        self._wheel_ticks = 0
        self._report_every = 0
        #: One-rotation announcement debounce (see ``_wheel_tick`` step 4).
        self._announce_armed = False
        #: Handle of the pending wheel tick, and whether it was scheduled
        #: at the slow (pre-active, once-per-interval) cadence —
        #: activation cancels a slow tick so monitoring and ack batching
        #: start at sub-interval pace immediately.
        self._wheel_timer = None
        self._wheel_slow = False
        #: Sub-intervals the wheel divides ``probe_interval`` into: 2 is
        #: the minimum that strides probe traffic while keeping batched
        #: acks (queued for up to one sub-interval) comfortably inside
        #: ``probe_timeout``; every further slot costs a tick event and up
        #: to two fan-outs per node per interval.  Bounded by ``k`` — a
        #: view with fewer subjects than slots would tick empty slots.
        self._wheel_slots = min(2, self.settings.k)
        self._sub_interval = self.settings.probe_interval / self._wheel_slots
        self._fanout = make_fanout(runtime)

        # Alert batching.
        self._alert_batch: list[Alert] = []
        self._batch_timer = None

        # Joiners waiting for a view change that admits them:
        # {endpoint: (uuid, base_config_id)} — the base is the
        # configuration the joiner said it still holds (0 for none), used
        # for delta-encoded join responses.
        self._pending_joiners: dict[Endpoint, tuple] = {}
        self._joiner_metadata: dict[Endpoint, tuple] = {}

        # Configuration transition chain: one link per decided cut, read
        # by laggard repair (the Decision that closed a past view) and by
        # the rejoin path (links composed from a rejoiner's advertised
        # base to the current view yield its ViewDelta).
        self._config_chain = DecisionLog()
        # Join-response interning (reset per install): the
        # membership-filtered metadata table backing the view snapshot
        # (itself cached on the Configuration) and the deltas computed
        # per advertised base.  Mass admissions build each once.
        self._meta_entries: Optional[tuple] = None
        self._delta_cache: dict[int, Optional[ViewDelta]] = {}
        # The last configuration this process was a member of, advertised
        # as a delta base when rejoining after a leave or kick.
        self._delta_base: Optional[Configuration] = None

        self._join_protocol: Optional[JoinProtocol] = None
        self._tick_started = False
        self.view_changes_installed = 0

        runtime.attach(self.on_message)

    # ----------------------------------------------------------------- public

    def start(self) -> None:
        """Boot the node: become a fresh cluster seed, or join via seeds."""
        if self.status != NodeStatus.INIT:
            raise RuntimeError(f"start() called twice (status={self.status})")
        if not self.seeds or self.seeds[0] == self.addr:
            bootstrap = Configuration.bootstrap(self.addr, self.node_id.uuid)
            self._install(bootstrap, joined=(self.addr,), removed=())
        else:
            self.status = NodeStatus.JOINING
            self._join_protocol = JoinProtocol(self)
            self._join_protocol.begin()
        self._start_ticks()

    def leave(self) -> None:
        """Gracefully depart: ask our observers to announce our removal."""
        if self.status != NodeStatus.ACTIVE or self.config is None:
            self.status = NodeStatus.LEFT
            return
        for observer in self.topology.unique_observers_of(self.addr):
            if observer == self.addr:
                continue
            rings = tuple(self.topology.observer_rings(observer, self.addr))
            self.runtime.send(
                observer,
                LeaveNotification(
                    sender=self.addr,
                    config_id=self.config.config_id,
                    ring_numbers=rings,
                ),
            )
        self.status = NodeStatus.LEFT

    def rejoin(self) -> None:
        """After being kicked, rejoin with a fresh logical identity."""
        if self.status not in (NodeStatus.KICKED, NodeStatus.LEFT):
            raise RuntimeError("rejoin() only valid after leaving or being kicked")
        self.node_id = NodeId.fresh(self.addr)
        self.status = NodeStatus.JOINING
        if self.config is not None:
            # Keep the departed view as a delta base: responders that
            # still retain it can answer our rejoin with a ViewDelta
            # instead of re-shipping the whole membership.
            self._delta_base = self.config
        self.config = None
        self._join_protocol = JoinProtocol(self)
        self._join_protocol.begin()

    @property
    def membership(self) -> tuple:
        """The current view's membership list (empty until active)."""
        return self.config.members if self.config is not None else ()

    @property
    def size(self) -> int:
        """Number of members in the current view (0 until active)."""
        return len(self.membership)

    def view(self) -> tuple:
        """:attr:`membership` as a call — the accessor baselines share
        (:class:`repro.baselines.common.MembershipAgent`)."""
        return self.membership

    @property
    def view_size(self) -> int:
        """The cluster size this process reports: 0 unless an active member."""
        if self.status == NodeStatus.ACTIVE and self.config is not None:
            return self.config.size
        return 0

    def metadata_tuple(self) -> tuple:
        """This node's role metadata in canonical (sorted, hashable) form."""
        return tuple(sorted(self.metadata.items()))

    def get_metadata(self, endpoint: Endpoint) -> dict:
        """Application metadata advertised by ``endpoint`` at join time."""
        return dict(self.metadata_store.get(endpoint, {}))

    # -------------------------------------------------------------- dispatch

    def on_message(self, src: Endpoint, msg: Any) -> None:
        """Entry point for every inbound message.

        Payloads the broadcaster unwraps (or a node's own broadcasts,
        delivered locally) come back through here too.  Exact-type
        dispatch table: wire messages are final dataclasses, and a dict
        lookup beats a ten-way isinstance chain on the per-message hot
        path.  Subclasses extend ``_DISPATCH`` (see
        :class:`repro.core.centralized.CentralizedClusterNode`).
        """
        handler = self._DISPATCH.get(type(msg))
        if handler is not None:
            handler(self, src, msg)

    def _on_gossip_envelope(self, src: Endpoint, msg: GossipEnvelope) -> None:
        self.broadcaster.handle(src, msg)

    def _on_batched_alerts(self, src: Endpoint, msg: BatchedAlerts) -> None:
        for alert in msg.alerts:
            self._on_alert(alert)
        # Laggard repair: alerts scoped to a configuration we already
        # moved past mean the announcer is stranded in an old view (the
        # healed-partition case) — hand it the decision that superseded
        # that configuration, if we still hold it.
        if (
            msg.alerts
            and self.status == NodeStatus.ACTIVE
            and self.config is not None
            and src != self.addr
            and msg.alerts[0].config_id != self.config.config_id
        ):
            self._repair_laggard(src, msg.alerts[0].config_id)

    def _repair_laggard(self, src: Endpoint, config_id: int, want: tuple = ()) -> None:
        """Send ``src`` the cached Decision that closed ``config_id``, if any.

        The Decision names the cut; its body goes along only when the
        laggard asked for it (``want``, from a :class:`VotePull`).
        """
        decision = self._config_chain.learn(self.addr, config_id, want)
        if decision is not None:
            self.runtime.send(src, decision)
        if want:
            answered = decision is not None and decision.body
            name = "bodies_sent" if answered else "wants_unanswered"
            self.metrics.counter(f"consensus.{name}").inc()

    def _on_pre_join_response(self, src: Endpoint, msg: PreJoinResponse) -> None:
        if self._join_protocol is not None:
            self._join_protocol.on_pre_join_response(msg)

    def _on_join_response(self, src: Endpoint, msg: JoinResponse) -> None:
        if self._join_protocol is not None:
            self._join_protocol.on_join_response(msg)

    # ------------------------------------------------------------- monitoring

    def _default_detector_factory(self) -> DetectorFactory:
        window = self.settings.detector_window
        threshold = self.settings.failure_threshold
        return lambda: PingTimeoutDetector(window=window, threshold=threshold)

    def _start_ticks(self) -> None:
        """Start the per-node probe wheel.

        The wheel is the node's *single* recurring schedule: one tick per
        sub-interval drives probe sends (strided across slots), probe
        expiry (the shared ring), batched ack flushes, and — once per
        full rotation — the reinforcement scan.  Report sampling rides
        the wheel too: ``report_interval`` is a whole number of
        sub-intervals (``RapidSettings`` rejects anything else).
        """
        if self._tick_started:
            return
        self._tick_started = True
        jitter = self.runtime.rng.uniform(0, self._sub_interval)
        self._wheel_timer = self.runtime.schedule(jitter, self._wheel_tick)
        if self.trace is not None:
            self._report_every = round(
                self.settings.report_interval / self._sub_interval
            )

    def _wheel_tick(self) -> None:
        """One probe-wheel sub-interval: expire, ack, probe, reinforce.

        Runs ``_wheel_slots`` times per ``probe_interval``.  Every
        subject is probed exactly once per interval (in its assigned
        slot); expiry of overdue probes is checked against the shared
        ring, so no per-probe timeout event ever reaches the engine.
        """
        if self.status in (NodeStatus.KICKED, NodeStatus.LEFT):
            # The wheel dies with the membership; a later rejoin's
            # _install sees the cleared handle and restarts it (a dead
            # wheel on a readmitted node would hold queued acks forever,
            # condemning it all over again).
            self._wheel_timer = None
            return
        if self.status != NodeStatus.ACTIVE:
            # Nothing to probe or expire yet; idle at one tick per full
            # interval (probes received meanwhile are acked immediately
            # in _on_probe, so joiners stay responsive).  Mass
            # bootstraps spend seconds here per node — sub-interval
            # ticking would be pure event overhead.  _install cancels
            # this tick on activation so the fast cadence starts
            # immediately.
            self._wheel_slow = True
            self._wheel_timer = self.runtime.schedule(
                self.settings.probe_interval, self._wheel_tick
            )
            return
        self._wheel_slow = False
        now = self.runtime.now()
        self._wheel_ticks = tick = self._wheel_ticks + 1
        # 1. Expire overdue probes (ring is deadline-ordered; amortized
        #    O(1) per probe, at most one sub-interval late).
        ring = self._probe_ring
        outstanding = self._outstanding
        while ring and ring[0][0] <= now:
            _, idx, seq = ring.popleft()
            if outstanding[idx] != seq:
                continue  # acked in time (or superseded by a view change)
            outstanding[idx] = 0
            subject = self._subjects[idx]
            if subject in self._alerted:
                continue
            # Feed the verdict but do not announce yet: removals are
            # announced at the rotation boundary below, so simultaneous
            # victims in different slots land in one alert batch (the
            # cut detector sees them together, as the paper's one-shot
            # multi-node cuts require).
            self._detectors[idx].on_probe_failure(now)
        # 2. Flush batched acks: one message fans out to every observer
        #    that probed us since the last tick.
        if self._ack_pending:
            targets = tuple(self._ack_pending)
            self._ack_pending.clear()
            # Only active nodes batch (pre-active probes are acked
            # immediately in _on_probe), so bootstrapping is never set
            # on this path.
            self._fanout(
                targets,
                ProbeAck(sender=self.addr, config_id=self.config.config_id),
            )
        # 3. Probe this slot's subjects with one fanned-out message.
        if self.status == NodeStatus.ACTIVE and self._subjects:
            targets = []
            deadline = now + self.settings.probe_timeout
            alerted = self._alerted
            subjects = self._subjects
            sent_at = self._sent_at
            for idx in self._slot_indices[tick % self._wheel_slots]:
                subject = subjects[idx]
                if subject in alerted or outstanding[idx]:
                    continue
                outstanding[idx] = tick
                sent_at[idx] = now
                ring.append((deadline, idx, tick))
                targets.append(subject)
            if targets:
                self._m_probes_sent.inc(len(targets))
                self._fanout(
                    targets,
                    Probe(
                        sender=self.addr,
                        config_id=self.config.config_id,
                        seq=tick,
                    ),
                )
        # 4. Once per full rotation: announce failed edges, run the
        #    reinforcement scan, and (when folded) the view-report
        #    sample.  Announcements are debounced by one rotation:
        #    striding means simultaneous victims can cross their
        #    detector thresholds up to one probe_interval apart (the
        #    crash lands mid-rotation, so edges in different slots see
        #    one outcome more or less), and waiting a rotation after the
        #    first verdict re-batches the whole wave into a single alert
        #    batch — preserving the paper's one-shot multi-node cuts.
        if tick % self._wheel_slots == 0:
            if self.status == NodeStatus.ACTIVE:
                alerted = self._alerted
                detectors = self._detectors
                pending = [
                    subject
                    for idx, subject in enumerate(self._subjects)
                    if subject not in alerted and detectors[idx].failed()
                ]
                if pending and not self._announce_armed:
                    self._announce_armed = True  # co-victims get one rotation
                else:
                    self._announce_armed = False
                    for subject in pending:
                        self._announce_removal(subject)
            self._reinforcement_scan(now)
            self._reannounce_scan(now)
        if self._report_every and tick % self._report_every == 0:
            size = self.view_size
            if size:
                self.trace.sample(self.addr, now, size, self.config.config_id)
        self._wheel_timer = self.runtime.schedule(
            self._sub_interval, self._wheel_tick
        )

    def _on_probe(self, src: Endpoint, msg: Probe) -> None:
        """Queue an ack; the batch flushes on our next wheel tick.

        Before the node is active its wheel idles at one tick per
        interval, which is too slow for ack batching — a joiner that
        answered an interval late would look dead to its observers — so
        pre-active probes are acked immediately instead.
        """
        if self.status == NodeStatus.ACTIVE:
            self._ack_pending[msg.sender] = None
            return
        self.runtime.send(
            msg.sender,
            ProbeAck(
                sender=self.addr,
                config_id=self.config.config_id if self.config is not None else 0,
                bootstrapping=True,
            ),
        )

    def _on_probe_ack(self, src: Endpoint, msg: ProbeAck) -> None:
        """Credit an ack to the sender's outstanding probe, if any.

        Acks are batched and carry no per-edge sequence number; whatever
        probe is in flight for this subject is considered answered.  A
        stale ack (its probe already expired, or a view change reset the
        edge) finds nothing outstanding and is dropped.
        """
        idx = self._subject_index.get(msg.sender)
        if idx is None or not self._outstanding[idx]:
            return
        self._outstanding[idx] = 0
        if msg.sender in self._alerted:
            return
        now = self.runtime.now()
        if msg.bootstrapping:
            # "Has bootstrapped" rule: a joiner answers bootstrapping acks
            # only between its admission and its view install, so a
            # subject that *keeps* answering this way is a departed
            # process whose graceful leave went missing (or a stale
            # incarnation of a rejoiner) — past the budget its acks count
            # as failures so it fails out of the view instead of
            # lingering as an immortal member.
            count = self._bootstrap_acks[idx] + 1
            self._bootstrap_acks[idx] = count
            if count > self.settings.probe_bootstrap_budget:
                self._detectors[idx].on_probe_failure(now)
                return
        else:
            self._bootstrap_acks[idx] = 0
        self._detectors[idx].on_probe_success(now, now - self._sent_at[idx])

    def _announce_removal(self, subject: Endpoint) -> None:
        """Broadcast an irrevocable REMOVE alert about a subject we monitor."""
        if self.status != NodeStatus.ACTIVE or subject in self._alerted:
            return
        alert = self._observer_alert(subject, AlertKind.REMOVE)
        if alert is not None:
            self._alerted.add(subject)
            self._enqueue_alert(alert)

    def _observer_alert(
        self, subject: Endpoint, kind: Optional[str] = None
    ) -> Optional[Alert]:
        """The alert this node vouches for ``subject`` with, as its observer.

        ``kind`` defaults to what the cut detector has already heard about
        the subject (echoes repeat the pending verdict), REMOVE when it
        has heard nothing.  ``None`` when we observe ``subject`` on no
        ring of the current topology.
        """
        rings = tuple(self.topology.observer_rings(self.addr, subject))
        if not rings:
            return None
        if kind is None:
            kind = self.cut_detector.kind_of(subject) or AlertKind.REMOVE
        uuid = 0
        if kind == AlertKind.JOIN:
            pending = self._pending_joiners.get(subject)
            uuid = pending[0] if pending is not None else 0
        return Alert(
            observer=self.addr,
            subject=subject,
            kind=kind,
            config_id=self.config.config_id,
            ring_numbers=rings,
            joiner_uuid=uuid,
        )

    def _reinforcement_scan(self, now: float) -> None:
        """Paper section 4.2 liveness aid: after a subject has lingered in the
        unstable region past the timeout, every observer echoes the alert.

        Runs once per full wheel rotation (every ``probe_interval``).
        """
        if self.status != NodeStatus.ACTIVE or self.cut_detector is None:
            return
        for subject in self.cut_detector.unstable_subjects():
            first = self.cut_detector.first_seen(subject)
            if first is None or now - first < self.settings.reinforcement_timeout:
                continue
            if subject in self._alerted:
                continue
            alert = self._observer_alert(subject)
            if alert is not None:
                self._alerted.add(subject)
                self._enqueue_alert(alert)

    def _reannounce_scan(self, now: float) -> None:
        """Liveness aid for healed partitions: re-broadcast stuck alerts.

        A minority partition announces its unreachable subjects once but
        can never decide their removal (no quorum), so after the announce
        the minority goes silent — and once the partition heals, nothing
        would ever cross the old partition line again: both sides probe
        only their own members.  Re-broadcasting the alerted-but-still-
        in-view subjects after ``reannounce_interval`` seconds without a
        view change breaks that silence.  Receivers that moved past our
        configuration answer with the cached removal Decision (see
        :meth:`_on_batched_alerts`), which tells this stranded process it
        was kicked so it can rejoin.  Duplicate alerts are idempotent at
        every receiver (the cut detector tallies each (subject, ring)
        edge once), so re-announcing is safe in any regime.
        """
        if self.status != NodeStatus.ACTIVE or not self._alerted:
            return
        if now - self._last_progress < self.settings.reannounce_interval:
            return
        self._last_progress = now
        for subject in sorted(self._alerted):
            if subject not in self.config:
                continue
            alert = self._observer_alert(subject)
            if alert is not None:
                self._enqueue_alert(alert)

    # ----------------------------------------------------------------- alerts

    def _enqueue_alert(self, alert: Alert) -> None:
        """Buffer an alert; the batch flushes after the batching window."""
        self._m_alerts_enqueued.inc()
        self._m_node_alerts.inc()
        self._alert_batch.append(alert)
        if self._batch_timer is None:
            self._batch_timer = self.runtime.schedule(
                self.settings.batching_window, self._flush_alerts
            )

    def _flush_alerts(self) -> None:
        self._batch_timer = None
        if not self._alert_batch or self.status != NodeStatus.ACTIVE:
            self._alert_batch.clear()
            return
        batch = BatchedAlerts(sender=self.addr, alerts=tuple(self._alert_batch))
        self._alert_batch.clear()
        self.broadcaster.broadcast(batch)

    def _on_alert(self, alert: Alert) -> None:
        if self.status != NodeStatus.ACTIVE or self.config is None:
            return
        if alert.config_id != self.config.config_id:
            return
        self._m_alerts_received.inc()
        in_view = alert.subject in self.config
        if alert.kind == AlertKind.REMOVE and not in_view:
            return
        if alert.kind == AlertKind.JOIN:
            if in_view or self.config.has_uuid(alert.joiner_uuid):
                return
            if alert.metadata:
                self._joiner_metadata[alert.subject] = alert.metadata
        now = self.runtime.now()
        proposal = self.cut_detector.receive_alert(alert, now)
        if proposal:
            if self.metrics.enabled:
                firsts = [
                    t
                    for t in (
                        self.cut_detector.first_seen(c.endpoint) for c in proposal
                    )
                    if t is not None
                ]
                if firsts:
                    self._m_cut_latency.observe(now - min(firsts))
            self.consensus.propose(proposal)

    # -------------------------------------------------------------- consensus

    def _on_consensus(self, src: Endpoint, msg: Any) -> None:
        if (
            self.status == NodeStatus.ACTIVE
            and self.consensus is not None
            and msg.config_id == self.config.config_id
        ):
            self.consensus.handle(src, msg)
            return
        # Repair: a laggard is still deciding a configuration we already
        # moved past — hand it the decision directly.  Whatever else the
        # message carried for that configuration is dropped.
        if isinstance(msg, Decision):
            return
        want = msg.want if isinstance(msg, VotePull) else ()
        self._repair_laggard(src, msg.config_id, want)
        if isinstance(msg, VoteBundle) and msg.bodies:
            self.metrics.counter("consensus.bodies_rejected").inc(len(msg.bodies))

    def _on_decide(self, proposal: Proposal) -> None:
        if self.config is None:
            return
        old_config = self.config
        try:
            new_config = old_config.apply(proposal)
        except ValueError:
            return  # malformed proposal cannot install; should not happen
        joined = tuple(c.endpoint for c in proposal if c.kind == AlertKind.JOIN)
        removed = tuple(c.endpoint for c in proposal if c.kind == AlertKind.REMOVE)
        self._config_chain.record(
            old_config.config_id, new_config.config_id, proposal
        )
        for endpoint in joined:
            meta = self._joiner_metadata.pop(endpoint, None)
            if meta:
                self.metadata_store[endpoint] = dict(meta)
        for endpoint in removed:
            self.metadata_store.pop(endpoint, None)
        if self.addr in removed:
            self._become_kicked(old_config)
            return
        self._install(new_config, joined=joined, removed=removed)

    def _become_kicked(self, old_config: Configuration) -> None:
        self.status = NodeStatus.KICKED
        if self.consensus is not None:
            self.consensus.cancel_timers()
        event = ViewChangeEvent(
            configuration=old_config,
            joined=(),
            removed=(self.addr,),
            kicked=True,
            time=self.runtime.now(),
        )
        if self.on_view_change is not None:
            self.on_view_change(event)

    # ----------------------------------------------------------- installation

    def _install(
        self, config: Configuration, joined: tuple, removed: tuple
    ) -> None:
        """Install a configuration and reset all per-view protocol state."""
        if self.consensus is not None:
            self.consensus.cancel_timers()
        # The outgoing view is what pending JoinRequests were scoped to:
        # its topology designates the (single) join responder per joiner.
        old_topology = self.topology
        self._meta_entries = None
        self._delta_cache = {}
        self.config = config
        self.status = NodeStatus.ACTIVE
        # Activation: a wheel idling at the slow pre-active cadence could
        # be up to a full probe_interval away, which would delay the
        # first probes and — worse — hold queued acks past their
        # observers' probe_timeout.  Restart it at sub-interval pace now.
        # A wheel that died entirely (the node left or was kicked, then
        # rejoined) is restarted the same way.
        if self._tick_started and (
            self._wheel_timer is None or self._wheel_slow
        ):
            if self._wheel_timer is not None:
                self._wheel_timer.cancel()
            self._wheel_slow = False
            self._wheel_timer = self.runtime.schedule(
                self.runtime.rng.uniform(0, self._sub_interval), self._wheel_tick
            )
        self.view_changes_installed += 1
        self._m_view_changes.inc()
        self._m_node_views.inc()
        self._cluster_metrics.gauge("view_size").set(config.size)
        self.topology = KRingTopology.for_configuration(config, self.settings.k)
        self.cut_detector = MultiNodeCutDetector(
            self.settings.k, self.settings.h, self.settings.l, self.topology
        )
        # One decision per view, shared by both disseminators: alerts and
        # votes travel by gossip in views at or above the threshold.
        gossip = self.settings.use_gossip(config.size)
        self.broadcaster.set_membership(config.members, gossip)
        self.consensus = FastPaxos(
            runtime=self.runtime,
            members=config.members,
            config_id=config.config_id,
            settings=self.settings,
            broadcast=self.broadcaster.broadcast,
            on_decide=self._on_decide,
            gossip=gossip,
            metrics=self.metrics,
            index=config.member_index(),
        )
        # Reset monitoring for the new topology: fresh detectors, empty
        # probe arrays, subjects re-strided across the wheel slots.
        # Pending acks are deliberately kept — observers from the old
        # view may still be waiting on them.
        self._subjects = [
            s for s in dict.fromkeys(self.topology.subjects_of(self.addr)) if s != self.addr
        ]
        count = len(self._subjects)
        self._subject_index = {s: i for i, s in enumerate(self._subjects)}
        self._detectors = [self.detector_factory() for _ in range(count)]
        self._outstanding = [0] * count
        self._sent_at = [0.0] * count
        self._bootstrap_acks = [0] * count
        slots = self._wheel_slots
        self._slot_indices = [list(range(s, count, slots)) for s in range(slots)]
        self._probe_ring.clear()
        self._alerted.clear()
        self._alert_batch.clear()
        self._announce_armed = False
        self._last_progress = self.runtime.now()
        # Answer joiners admitted by this view change; joiners whose alerts
        # did not make this cut are told to restart promptly against the new
        # configuration (otherwise they would idle out their join timeout,
        # which cascades badly during mass bootstraps).  Responses are
        # deduplicated — only the designated observer of each joiner
        # answers — and batched: every joiner receiving the same payload
        # (the interned view snapshot, one delta per base, the
        # CONFIG_CHANGED notice) shares one fanned-out message.
        # {base_config_id: joiners}; base 0 is the full snapshot, sent
        # first.
        admitted_targets: dict[int, list] = {0: []}
        changed_targets: list[Endpoint] = []
        for joiner in joined:
            pending = self._pending_joiners.pop(joiner, None)
            if pending is None:
                continue
            uuid, base_id = pending
            if config.uuid_of(joiner) != uuid:
                continue
            if not self._is_designated_responder(old_topology, joiner):
                continue
            if self._view_delta(base_id) is None:
                base_id = 0
            admitted_targets.setdefault(base_id, []).append(joiner)
        for joiner in list(self._pending_joiners):
            self._pending_joiners.pop(joiner)
            if joiner in config:
                continue
            if not self._is_designated_responder(old_topology, joiner):
                continue
            changed_targets.append(joiner)
        for base_id, targets in admitted_targets.items():
            if targets:
                self._fanout(targets, self._join_response(base_id))
        if changed_targets:
            self._fanout(changed_targets, self._join_response(admitted=False))
        event = ViewChangeEvent(
            configuration=config,
            joined=joined,
            removed=removed,
            kicked=False,
            time=self.runtime.now(),
        )
        if self.trace is not None:
            self.trace.record(
                self.runtime.now(),
                self.addr,
                config.config_id,
                config.size,
                joins=len(joined),
                removes=len(removed),
                seq=config.seq,
                members=config.members,
                uuids=config.uuids,
            )
        if self.on_view_change is not None:
            self.on_view_change(event)

    def _is_designated_responder(self, topology, joiner: Endpoint) -> bool:
        """Whether this node answers ``joiner``'s join for this decision.

        The designated responder is the joiner's observer on the
        lowest-numbered ring of the configuration its JoinRequests were
        scoped to — deterministic per (joiner, configuration) pair, so
        all ``K`` observers agree without coordination and exactly one
        sends the (view-sized) response; a lost response is recovered by
        the joiner's retry.  On the very first install (no prior
        topology) everyone answers.
        """
        if topology is None:
            return True
        return topology.observers_of(joiner)[0] == self.addr

    def _metadata_entries(self, config: Configuration) -> tuple:
        """The current view's metadata table, built once per install.

        Canonical ``((endpoint, ((key, value), ...)), ...)`` form, sorted
        by endpoint and restricted to current members with a non-empty
        table.  Every join response of this view shares this one tuple.
        """
        entries = self._meta_entries
        if entries is None:
            entries = tuple(
                (endpoint, tuple(sorted(meta.items())))
                for endpoint, meta in sorted(self.metadata_store.items())
                if meta and endpoint in config
            )
            self._meta_entries = entries
        return entries

    def _view_delta(self, base_id: int) -> Optional[ViewDelta]:
        """The delta response payload for a joiner holding ``base_id``.

        Composes the transition-chain links from the advertised base to
        the current configuration into one net add/remove set (last write
        per endpoint wins: a member removed and re-admitted along the way
        nets to an add with its final uuid; a transient member both added
        and removed nets to a remove the base never saw — appliers skip
        those).  ``None`` when the base fell off the chain (or 0 =
        first-time joiner), or the composed delta would not encode fewer
        entries (adds plus removes) than the full snapshot has members —
        the byte cost of either encoding is proportional to its entry
        count.  Memoized per (install, base): a wave of rejoiners sharing
        a base costs one composition.
        """
        if base_id == 0:
            return None
        if base_id in self._delta_cache:
            return self._delta_cache[base_id]
        config = self.config
        delta: Optional[ViewDelta] = None
        net: dict[Endpoint, Optional[int]] = {}
        chain = self._config_chain
        cursor = base_id
        for _ in range(len(chain) + 1):
            if cursor == config.config_id:
                adds = tuple(
                    sorted(
                        (endpoint, uuid)
                        for endpoint, uuid in net.items()
                        if uuid is not None
                    )
                )
                removes = tuple(
                    sorted(
                        endpoint for endpoint, uuid in net.items() if uuid is None
                    )
                )
                if len(adds) + len(removes) < config.size:
                    added = {endpoint for endpoint, _ in adds}
                    delta = ViewDelta(
                        base_config_id=base_id,
                        seq=config.seq,
                        adds=adds,
                        removes=removes,
                        metadata=tuple(
                            entry
                            for entry in self._metadata_entries(config)
                            if entry[0] in added
                        ),
                    )
                break
            link = chain.get(cursor)
            if link is None:
                break
            cursor, _, cut = link
            for change in cut:
                joins = change.kind == AlertKind.JOIN
                net[change.endpoint] = change.uuid if joins else None
        self._delta_cache[base_id] = delta
        return delta

    def _join_response(self, base_id: int = 0, admitted: bool = True) -> JoinResponse:
        """This node's answer to a joiner, scoped to the current view.

        An admitted joiner gets SAFE_TO_JOIN carrying the view: as a
        delta against the ``base_id`` it advertised when one beats the
        snapshot (:meth:`_view_delta`), else as the interned snapshot.
        The :class:`ViewSnapshot` is built once per installed view
        (:meth:`Configuration.view_snapshot`) and shared by every
        response (and every admitted joiner) of that view; the simulated
        network memoizes its wire size on the object, so constructing
        and sizing the N-th response is O(1).  A joiner the view moved
        past gets a bare CONFIG_CHANGED.
        """
        config = self.config
        view = delta = None
        if admitted:
            delta = self._view_delta(base_id)
            if delta is None:
                view = config.view_snapshot(self._metadata_entries(config))
        return JoinResponse(
            sender=self.addr,
            status=JoinStatus.SAFE_TO_JOIN if admitted else JoinStatus.CONFIG_CHANGED,
            config_id=config.config_id,
            view=view,
            delta=delta,
        )

    def _install_joined_view(
        self,
        config: Configuration,
        metadata: tuple = (),
        removed: tuple = (),
        partial: bool = False,
    ) -> None:
        """Called by the join protocol when our admission is confirmed.

        ``partial`` distinguishes the two response encodings: a full
        snapshot replaces the metadata store wholesale, while a delta
        applies its removals and additions on top of the store carried
        over from the base configuration.
        """
        if not partial:
            self.metadata_store.clear()
        for endpoint in removed:
            self.metadata_store.pop(endpoint, None)
        for endpoint, meta in metadata:
            self.metadata_store[endpoint] = dict(meta)
        self.metadata_store[self.addr] = dict(self.metadata)
        self._delta_base = None
        self._join_protocol = None
        self._install(config, joined=(self.addr,), removed=())

    # ------------------------------------------------------------------- join

    def _on_pre_join_request(self, src: Endpoint, msg: PreJoinRequest) -> None:
        if self.status != NodeStatus.ACTIVE or self.config is None:
            return
        if msg.sender in self.config:
            if self.config.uuid_of(msg.sender) == msg.uuid:
                # The join already succeeded but the response was lost.
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
        if self.config.has_uuid(msg.uuid):
            self.runtime.send(
                msg.sender,
                PreJoinResponse(
                    sender=self.addr,
                    status=JoinStatus.UUID_IN_USE,
                    config_id=self.config.config_id,
                ),
            )
            return
        observers = tuple(self.topology.observers_of(msg.sender))
        self.runtime.send(
            msg.sender,
            PreJoinResponse(
                sender=self.addr,
                status=JoinStatus.SAFE_TO_JOIN,
                config_id=self.config.config_id,
                observers=observers,
            ),
        )

    def _on_join_request(self, src: Endpoint, msg: JoinRequest) -> None:
        if self.status != NodeStatus.ACTIVE or self.config is None:
            return
        if msg.config_id != self.config.config_id:
            # Either the join already succeeded — re-send the view (as a
            # delta against the joiner's advertised base when possible) —
            # or the view moved on without it.
            admitted = (
                msg.sender in self.config
                and self.config.uuid_of(msg.sender) == msg.uuid
            )
            self.runtime.send(
                msg.sender, self._join_response(msg.base_config_id, admitted)
            )
            return
        rings = tuple(self.topology.observer_rings(self.addr, msg.sender))
        if not rings:
            self.runtime.send(msg.sender, self._join_response(admitted=False))
            return
        # Duplicate JoinRequests (network-level duplication, or a joiner
        # retry racing its own admission) must not re-broadcast the JOIN
        # alert: the cut detector is idempotent per (subject, ring) so
        # tallies would not move, but every duplicate would trigger a
        # full gossip storm.  Refresh the pending entry and stop.
        if self._pending_joiners.get(msg.sender) == (msg.uuid, msg.base_config_id):
            return
        self._pending_joiners[msg.sender] = (msg.uuid, msg.base_config_id)
        self._enqueue_alert(
            Alert(
                observer=self.addr,
                subject=msg.sender,
                kind=AlertKind.JOIN,
                config_id=self.config.config_id,
                ring_numbers=rings,
                joiner_uuid=msg.uuid,
                metadata=msg.metadata,
            )
        )

    def _on_leave_notification(self, src: Endpoint, msg: LeaveNotification) -> None:
        if self.status != NodeStatus.ACTIVE or self.config is None:
            return
        if msg.config_id != self.config.config_id or msg.sender not in self.config:
            return
        self._announce_removal(msg.sender)

    # Message type -> handler method name; consensus types share one
    # entry.  The callable table ``_DISPATCH`` is materialized per class
    # (see ``_build_dispatch``) so subclass overrides are honored.
    _DISPATCH_NAMES: dict = {
        GossipEnvelope: "_on_gossip_envelope",
        GossipBundle: "_on_gossip_envelope",
        Probe: "_on_probe",
        ProbeAck: "_on_probe_ack",
        BatchedAlerts: "_on_batched_alerts",
        VoteBundle: "_on_consensus",
        VotePull: "_on_consensus",
        Decision: "_on_consensus",
        Phase1a: "_on_consensus",
        Phase1b: "_on_consensus",
        Phase2a: "_on_consensus",
        Phase2b: "_on_consensus",
        PreJoinRequest: "_on_pre_join_request",
        PreJoinResponse: "_on_pre_join_response",
        JoinRequest: "_on_join_request",
        JoinResponse: "_on_join_response",
        LeaveNotification: "_on_leave_notification",
    }
    _DISPATCH: dict = {}

    @classmethod
    def _build_dispatch(cls) -> None:
        """Resolve ``_DISPATCH_NAMES`` against this class's MRO."""
        cls._DISPATCH = {
            msg_type: getattr(cls, name)
            for msg_type, name in cls._DISPATCH_NAMES.items()
        }

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._build_dispatch()


RapidNode._build_dispatch()
