"""The Rapid membership service: three roles, and the node composing them.

The paper's Figure 3 pipeline has a seam between *watching* (section 4.1),
*deciding* (sections 4.2-4.3) and *admitting* (section 3); section 5 gets
Rapid-C out of Rapid by moving only the deciding role to a small ensemble.
Each role is a part that talks to the world through a
:class:`~repro.runtime.base.Runtime` and to its owner through
constructor-injected callables — never through a reference to a node:

:class:`EdgeMonitor`
    ``edge monitoring`` (K-ring probes + pluggable detector) → "these
    subjects failed"; a probe or ack naming another configuration → "this
    peer is on another view".  Every member is probed by K observers every
    interval, so this is how a process that missed a view change hears of
    it.
:class:`ViewChanger`
    alert filter → ``multi-process cut detection`` → ``leaderless
    view-change consensus`` → ``on_decide(old, new, cut)``; traffic from a
    configuration it has left, probes included, is answered with the
    Decision that closed it, except votes pushed in a view that did not
    gossip (their sender counts every vote itself, and pulls if it lags).
:class:`AdmissionDesk`
    the responder side of the join protocol: vouches for joiners with JOIN
    alerts and answers them once a view admits (or passes over) them.

:class:`ClusterMember` orchestrates what every process of the monitored
cluster does whoever decides its views — identity, status, the installed
configuration, the outbound ``irrevocable alerts`` batch, ``configuration
installation`` + application callback — over a monitor and a desk.
:class:`RapidNode` adds the deciding role (the paper's decentralized
Rapid); :mod:`repro.core.centralized` composes the same parts twice more.

Nodes are sans-io, so the same classes run inside the deterministic
simulator and over real asyncio UDP sockets.  Nor do they know they are
measured: an experiment driver reads ``view_size`` and subscribes to
``on_view_change`` as any application does.

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
from repro.core.broadcaster import Broadcaster
from repro.core.events import NodeStatus, ViewChangeEvent
from repro.core.fast_paxos import DecisionLog, FastPaxos
from repro.core.join import JoinProtocol
from repro.core.messages import (
    Alert,
    AlertKind,
    BatchedAlerts,
    Decision,
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
    VoteBundle,
    VotePull,
)
from repro.core.node_id import Endpoint, NodeId
from repro.core.ring import KRingTopology
from repro.core.settings import RapidSettings
from repro.detectors.base import DetectorFactory
from repro.detectors.ping_timeout import PingTimeoutDetector
from repro.obs.metrics import MetricsRegistry
from repro.runtime.base import Runtime

__all__ = [
    "EdgeMonitor",
    "ViewChanger",
    "AdmissionDesk",
    "ClusterMember",
    "RapidNode",
    "CONSENSUS_MESSAGES",
]

ViewChangeCallback = Callable[[ViewChangeEvent], None]

#: Every message class a :class:`ViewChanger` takes through ``on_consensus``.
CONSENSUS_MESSAGES = (VoteBundle, VotePull, Decision, Phase1a, Phase1b, Phase2a, Phase2b)

#: Consecutive *bootstrapping* probe acks an observer honors per subject
#: (per view) before counting further ones as probe failures — the
#: reference implementation's "has bootstrapped" rule (see
#: :meth:`EdgeMonitor.on_probe_ack`).
PROBE_BOOTSTRAP_BUDGET = 15

#: Seconds a subject may linger in the unstable region before its
#: observers echo REMOVE alerts (section 4.2, "reinforcements").
REINFORCEMENT_TIMEOUT = 10.0

# EdgeMonitor phases: before the first view (and while rejoining), as a
# member of a view, after leaving or being kicked.
_IDLE, _WATCHING, _STOPPED = range(3)


def _batch(sender: Endpoint, config_id: int, alerts: tuple) -> BatchedAlerts:
    """``alerts``, all raised by ``sender`` in ``config_id``, as one batch."""
    return BatchedAlerts(
        sender,
        config_id,
        joins=tuple(a for a in alerts if a.kind == AlertKind.JOIN),
        removes=tuple(a for a in alerts if a.kind != AlertKind.JOIN),
    )


class EdgeMonitor:
    """One process's probe wheel over its K-ring subjects (section 4.1).

    The wheel is the process's *single* recurring schedule: one tick per
    sub-interval drives probe sends (strided across slots), probe expiry
    (the shared ring), batched ack flushes, and — once per full rotation —
    the failed-edge report and the owner's rotation callback.

    Parameters
    ----------
    runtime, settings:
        Timers, messaging and randomness; probe timing parameters.
    detector_factory:
        Factory for per-edge failure detectors; defaults to the paper's
        40%-of-last-10 probe detector (:class:`PingTimeoutDetector`).
    on_failed:
        Called with the list of subjects whose detectors failed — once per
        subject per view, one rotation after the first verdict of a wave.
    on_rotation:
        Called with the current time at the end of every full rotation.
    on_foreign:
        ``on_foreign(peer, config_id)``: while watching, a probe, or an ack
        from a process that watches a view too, named a configuration
        other than the watched one.  Either side may be behind; the one
        that is ahead answers (see :meth:`ViewChanger.repair`).
    metrics:
        Registry receiving ``cluster.probes_sent``.
    """

    def __init__(
        self,
        runtime: Runtime,
        settings: RapidSettings,
        detector_factory: Optional[DetectorFactory],
        on_failed: Callable[[list], None],
        on_rotation: Callable[[float], None],
        on_foreign: Callable[[Endpoint, int], None],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.runtime = runtime
        self.settings = settings
        self._detector_factory = detector_factory or PingTimeoutDetector
        self._on_failed = on_failed
        self._on_rotation = on_rotation
        self._on_foreign = on_foreign
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_probes_sent = metrics.counter("cluster.probes_sent")
        #: Subjects this process has raised an alert about in the current
        #: view.  Alerts are irrevocable, so these are never reported
        #: again; they are still probed, because a probe is how a process
        #: that missed a view change hears of it (``on_foreign``).  The
        #: owner adds the ones it alerts about for reasons of its own (a
        #: leave notification, a reinforcement).
        self.alerted: set[Endpoint] = set()
        self._phase = _IDLE
        self._config_id = 0
        # Monitoring state (per configuration), kept in parallel arrays
        # indexed by subject position: the probe wheel touches these every
        # tick and every ack, so bookkeeping must not allocate per probe.
        self._subjects: list[Endpoint] = []
        self._subject_index: dict[Endpoint, int] = {}
        self._detectors: list[Any] = []
        #: Outstanding probe per subject: the wheel-tick seq of the probe
        #: in flight, or 0 when none (at most one probe per edge).
        self._outstanding: list[int] = []
        self._sent_at: list[float] = []
        #: Consecutive bootstrapping acks per subject (see
        #: ``PROBE_BOOTSTRAP_BUDGET``).
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
        self._ticks = 0
        #: One-rotation announcement debounce (see ``_tick`` step 4).
        self._announce_armed = False
        #: Handle of the pending wheel tick, and whether it was scheduled
        #: at the slow (idle, once-per-interval) cadence — ``watch``
        #: cancels a slow tick so monitoring and ack batching start at
        #: sub-interval pace immediately.
        self._timer = None
        self._slow = False
        self._started = False
        #: Sub-intervals the wheel divides ``probe_interval`` into: 2 is
        #: the minimum that strides probe traffic while keeping batched
        #: acks (queued for up to one sub-interval) comfortably inside
        #: ``probe_timeout``; every further slot costs a tick event and up
        #: to two fan-outs per node per interval.  Bounded by ``k`` — a
        #: view with fewer subjects than slots would tick empty slots.
        self._slots = min(2, settings.k)
        self._sub_interval = settings.probe_interval / self._slots

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Arm the wheel: the first tick fires within one sub-interval."""
        self._started = True
        jitter = self.runtime.rng.uniform(0, self._sub_interval)
        self._timer = self.runtime.schedule(jitter, self._tick)

    def watch(self, config_id: int, subjects: Iterable[Endpoint]) -> None:
        """Monitor ``subjects`` as a member of configuration ``config_id``.

        Fresh detectors, empty probe arrays, subjects re-strided across
        the wheel slots; probes outstanding from the previous view are
        forgotten.  Pending acks are deliberately kept — observers from
        the old view may still be waiting on them.
        """
        self._phase = _WATCHING
        self._config_id = config_id
        # Activation: a wheel idling at the slow cadence could be up to a
        # full probe_interval away, which would delay the first probes and
        # — worse — hold queued acks past their observers' probe_timeout.
        # Restart it at sub-interval pace now.  A wheel that died entirely
        # (the process left or was kicked, then rejoined) is restarted the
        # same way.
        if self._started and (self._timer is None or self._slow):
            if self._timer is not None:
                self._timer.cancel()
            self._slow = False
            self._timer = self.runtime.schedule(
                self.runtime.rng.uniform(0, self._sub_interval), self._tick
            )
        addr = self.runtime.addr
        self._subjects = [s for s in dict.fromkeys(subjects) if s != addr]
        count = len(self._subjects)
        self._subject_index = {s: i for i, s in enumerate(self._subjects)}
        self._detectors = [self._detector_factory() for _ in range(count)]
        self._outstanding = [0] * count
        self._sent_at = [0.0] * count
        self._bootstrap_acks = [0] * count
        slots = self._slots
        self._slot_indices = [list(range(s, count, slots)) for s in range(slots)]
        self._probe_ring.clear()
        self.alerted.clear()
        self._announce_armed = False

    def stop(self) -> None:
        """This process left its view or was kicked: the wheel dies at its
        next tick; probes are answered at once, as by a joiner."""
        self._phase = _STOPPED

    def standby(self) -> None:
        """Back to the pre-view state of a (re)joiner: a wheel that has not
        died yet idles at one tick per interval."""
        self._phase = _IDLE
        self._config_id = 0

    # ----------------------------------------------------------------- messages

    def on_probe(self, src: Endpoint, msg: Probe) -> None:
        """Queue an ack to ``src``; the batch flushes on our next wheel tick.

        A probe naming another configuration reports ``src`` to
        ``on_foreign`` too.  Outside a view the wheel idles at one tick per
        interval (or not at all), which is too slow for ack batching — a
        joiner that answered an interval late would look dead to its
        observers — so those probes are acked immediately instead.
        """
        if self._phase == _WATCHING:
            self._ack_pending[src] = None
            if msg.config_id != self._config_id:
                self._on_foreign(src, msg.config_id)
            return
        self.runtime.send(src, ProbeAck(config_id=self._config_id, bootstrapping=True))

    def on_probe_ack(self, src: Endpoint, msg: ProbeAck) -> None:
        """Credit an ack to the outstanding probe of its source, if any.

        An ack names no sender: the datagram's source is the subject that
        sent it.  Acks are batched and carry no per-edge sequence number;
        whatever probe is in flight for this subject is considered
        answered.  A stale ack (its probe already expired, or a view change
        reset the edge) finds nothing outstanding and is dropped, as is an
        ack from a process this monitor does not watch.  An ack naming
        another configuration reports ``src`` to ``on_foreign`` first,
        unless it is bootstrapping: its sender watches no view.
        """
        if (
            msg.config_id != self._config_id
            and not msg.bootstrapping
            and self._phase == _WATCHING
        ):
            self._on_foreign(src, msg.config_id)
        idx = self._subject_index.get(src)
        if idx is None or not self._outstanding[idx]:
            return
        self._outstanding[idx] = 0
        if src in self.alerted:
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
            if count > PROBE_BOOTSTRAP_BUDGET:
                self._detectors[idx].on_probe_failure(now)
                return
        else:
            self._bootstrap_acks[idx] = 0
        self._detectors[idx].on_probe_success(now, now - self._sent_at[idx])

    # -------------------------------------------------------------------- wheel

    def _tick(self) -> None:
        """One probe-wheel sub-interval: expire, ack, probe, report failures.

        Runs ``_slots`` times per ``probe_interval``.  Every subject is
        probed exactly once per interval (in its assigned slot); expiry of
        overdue probes is checked against the shared ring, so no per-probe
        timeout event ever reaches the engine.
        """
        if self._phase == _STOPPED:
            # The wheel dies with the membership; a later rejoin's watch()
            # sees the cleared handle and restarts it (a dead wheel on a
            # readmitted node would hold queued acks forever, condemning
            # it all over again).
            self._timer = None
            return
        if self._phase == _IDLE:
            # Nothing to probe or expire yet; idle at one tick per full
            # interval (probes received meanwhile are acked immediately
            # in on_probe, so joiners stay responsive).  Mass bootstraps
            # spend seconds here per node — sub-interval ticking would be
            # pure event overhead.  watch() cancels this tick so the fast
            # cadence starts immediately.
            self._slow = True
            self._timer = self.runtime.schedule(
                self.settings.probe_interval, self._tick
            )
            return
        self._slow = False
        now = self.runtime.now()
        self._ticks = tick = self._ticks + 1
        alerted = self.alerted
        subjects = self._subjects
        # 1. Expire overdue probes (ring is deadline-ordered; amortized
        #    O(1) per probe, at most one sub-interval late).
        ring = self._probe_ring
        outstanding = self._outstanding
        while ring and ring[0][0] <= now:
            _, idx, seq = ring.popleft()
            if outstanding[idx] != seq:
                continue  # acked in time (or superseded by a view change)
            outstanding[idx] = 0
            if subjects[idx] in alerted:
                continue
            # Feed the verdict but do not report yet: failures are
            # reported at the rotation boundary below, so simultaneous
            # victims in different slots land in one alert batch (the
            # cut detector sees them together, as the paper's one-shot
            # multi-node cuts require).
            self._detectors[idx].on_probe_failure(now)
        # 2. Flush batched acks: one message fans out to every observer
        #    that probed us since the last tick.
        if self._ack_pending:
            targets = tuple(self._ack_pending)
            self._ack_pending.clear()
            # Only a watching process batches (others ack immediately in
            # on_probe), so bootstrapping is never set on this path.
            self.runtime.broadcast(targets, ProbeAck(config_id=self._config_id))
        # 3. Probe this slot's subjects with one fanned-out message.
        if subjects:
            targets = []
            deadline = now + self.settings.probe_timeout
            sent_at = self._sent_at
            for idx in self._slot_indices[tick % self._slots]:
                if outstanding[idx]:
                    continue
                outstanding[idx] = tick
                sent_at[idx] = now
                ring.append((deadline, idx, tick))
                targets.append(subjects[idx])
            if targets:
                self._m_probes_sent.inc(len(targets))
                self.runtime.broadcast(
                    targets,
                    Probe(
                        sender=self.runtime.addr, config_id=self._config_id, seq=tick
                    ),
                )
        # 4. Once per full rotation: report failed edges, then let the
        #    owner run its per-rotation scans.  Reports are debounced by
        #    one rotation: striding means simultaneous victims can cross
        #    their detector thresholds up to one probe_interval apart (the
        #    crash lands mid-rotation, so edges in different slots see one
        #    outcome more or less), and waiting a rotation after the first
        #    verdict re-batches the whole wave into a single alert batch —
        #    preserving the paper's one-shot multi-node cuts.
        if tick % self._slots == 0:
            detectors = self._detectors
            failed = [
                subject
                for idx, subject in enumerate(subjects)
                if subject not in alerted and detectors[idx].failed()
            ]
            if failed and not self._announce_armed:
                self._announce_armed = True  # co-victims get one rotation
            else:
                self._announce_armed = False
                if failed:
                    alerted.update(failed)
                    self._on_failed(failed)
            self._on_rotation(now)
        self._timer = self.runtime.schedule(self._sub_interval, self._tick)


class ViewChanger:
    """Whoever decides view changes: alerts in, decided cuts out (sections
    4.2-4.3).

    Filters inbound alerts down to those that can still matter to the
    current configuration, tallies them in a per-view
    :class:`MultiNodeCutDetector`, votes its output in a per-view
    :class:`FastPaxos` among the acceptors, and keeps the
    :class:`DecisionLog` of the cuts it decided — from which it repairs
    anyone still talking about a configuration it has left.

    Parameters
    ----------
    runtime, settings:
        Timers and messaging; watermarks and consensus timing.
    broadcast:
        Disseminates a consensus payload to every acceptor, self included.
    on_decide:
        ``on_decide(old, new, cut)``: ``cut`` closed configuration ``old``
        and yields ``new``.  The owner answers by calling :meth:`reset`
        for ``new`` (or :meth:`stop`).
    metrics:
        Registry receiving ``cluster.alerts_received``, the cut-detection
        latency histogram and the ``consensus.*`` instruments.
    """

    def __init__(
        self,
        runtime: Runtime,
        settings: RapidSettings,
        broadcast: Callable[[Any], None],
        on_decide: Callable[[Configuration, Configuration, Proposal], None],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.runtime = runtime
        self.settings = settings
        self._broadcast = broadcast
        self._on_decide = on_decide
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_alerts_received, self._m_cut_latency = self.instruments(self.metrics)
        #: The configuration being decided for; ``None`` while not deciding.
        self.config: Optional[Configuration] = None
        self.cut_detector: Optional[MultiNodeCutDetector] = None
        self.consensus: Optional[FastPaxos] = None
        #: One link per decided cut, read by :meth:`repair` (the Decision
        #: that closed a past view).
        self.log = DecisionLog()
        #: Role metadata the current view's JOIN alerts carried, by joiner.
        self.joiner_metadata: dict[Endpoint, tuple] = {}

    @staticmethod
    def instruments(metrics: MetricsRegistry) -> tuple:
        """Resolve the instruments a decider always reports (its own and
        its consensus instances') from ``metrics``."""
        FastPaxos.instruments(metrics)
        return (
            metrics.counter("cluster.alerts_received"),
            metrics.histogram("cluster.cut_detection_latency_s"),
        )

    def reset(
        self,
        config: Configuration,
        topology: Optional[KRingTopology],
        gossip: bool,
        acceptors: Optional[tuple] = None,
    ) -> None:
        """Start deciding the change that will close ``config``.

        ``acceptors`` vote; by default the members themselves (Rapid),
        else a fixed ensemble (Rapid-C).  ``gossip`` is the owner's one
        per-view dissemination decision (``RapidSettings.use_gossip``).
        """
        if self.consensus is not None:
            self.consensus.cancel_timers()
        self.config = config
        self.joiner_metadata = {}
        settings = self.settings
        self.cut_detector = MultiNodeCutDetector(
            settings.k, settings.h, settings.l, topology
        )
        self.consensus = FastPaxos(
            runtime=self.runtime,
            members=config.members if acceptors is None else acceptors,
            config_id=config.config_id,
            settings=settings,
            broadcast=self._broadcast,
            on_decide=self._decided,
            gossip=gossip,
            metrics=self.metrics,
            index=config.member_index() if acceptors is None else None,
        )

    def stop(self) -> None:
        """Stop deciding (the owner left its view): alerts are dropped,
        consensus traffic is treated as foreign and the abandoned round's
        timers are cancelled, until the next reset."""
        self.config = None
        if self.consensus is not None:
            self.consensus.cancel_timers()

    # ------------------------------------------------------------------ alerts

    def on_alerts(self, src: Endpoint, msg: BatchedAlerts) -> None:
        """Tally each alert of a batch that can still matter; vote when a
        cut forms.

        A batch names its view once: one addressed to another view is
        dropped whole.  Its JOIN alerts are tallied before its REMOVE
        alerts (the wire keeps no other order).  The aggregation rule is
        evaluated after every alert (it is per alert in the paper: a cut
        forms the moment no subject is left unstable), but what it is
        evaluated *against* is fixed for the batch, so it is bound once.
        A vote can decide on the spot and re-enter :meth:`reset`; the rest
        of the batch was addressed to the view that just closed and is
        dropped, uncounted.
        """
        config = self.config
        if config is None or msg.config_id != config.config_id:
            return
        members = config.member_index()
        detector = self.cut_detector
        now = self.runtime.now()
        received = 0
        for alert in msg.joins + msg.removes:
            received += 1
            subject = alert.subject
            in_view = subject in members
            if alert.kind == AlertKind.REMOVE and not in_view:
                continue
            if alert.kind == AlertKind.JOIN:
                if in_view or config.has_uuid(alert.joiner_uuid):
                    continue
                if alert.metadata:
                    self.joiner_metadata[subject] = alert.metadata
            proposal = detector.receive_alert(alert, now)
            if proposal:
                first = min(detector.first_seen(c.endpoint) for c in proposal)
                self._m_cut_latency.observe(now - first)
                # Every decider of this view that detects the same cut
                # votes, files and logs one tuple.
                self.consensus.propose(config.cut(proposal))
                if self.config is not config:
                    break
        self._m_alerts_received.inc(received)

    def on_alert(self, alert: Alert) -> None:
        """:meth:`on_alerts` for a batch of one."""
        self.on_alerts(alert.observer, _batch(alert.observer, alert.config_id, (alert,)))

    def file_metadata(self, store: dict, cut: Proposal) -> None:
        """File the role metadata of ``cut``'s joiners in ``store`` and drop
        its leavers'; :meth:`reset` forgets the JOIN alerts it came in."""
        for change in cut:
            if change.kind == AlertKind.JOIN:
                meta = self.joiner_metadata.get(change.endpoint)
                if meta:
                    store[change.endpoint] = dict(meta)
            else:
                store.pop(change.endpoint, None)

    def overdue(self, now: float) -> list:
        """``(subject, kind)`` of every subject that has lingered in the
        unstable region past ``REINFORCEMENT_TIMEOUT`` (section 4.2)."""
        detector = self.cut_detector
        return [
            (subject, detector.kind_of(subject))
            for subject in detector.unstable_subjects()
            if now - detector.first_seen(subject) >= REINFORCEMENT_TIMEOUT
        ]

    # --------------------------------------------------------------- consensus

    def on_consensus(self, src: Endpoint, msg: Any) -> None:
        """Feed a consensus message to the current round, or repair its
        sender if it names a configuration this process has left."""
        config = self.config
        if config is not None and msg.config_id == config.config_id:
            self.consensus.handle(src, msg)
            return
        # The sender is still deciding a configuration we already moved
        # past.  Whatever the message carried for it is dropped.
        kind = type(msg)
        if kind is VoteBundle:
            if msg.bodies:
                self.metrics.counter("consensus.bodies_rejected").inc(len(msg.bodies))
            self.repair(src, msg.config_id, pushed=True)
        elif kind is not Decision:
            self.repair(src, msg.config_id, msg.want if kind is VotePull else ())

    def repair(
        self, src: Endpoint, config_id: int, want: tuple = (), pushed: bool = False
    ) -> None:
        """Send ``src`` the logged Decision that closed ``config_id``, if any.

        The one foreign-configuration rule: whatever names a configuration
        this process has left is answered with the cut that closed it —
        a pull, a classical-round message, a probe or ack — except a
        ``pushed`` :class:`VoteBundle` from a view that did not gossip.
        There every voter broadcast its vote to every member and counts
        every vote itself, so a bundle arriving after the decision is a
        concurrent voter's, not a laggard's; a real laggard's stale tick
        sends a :class:`VotePull`, which is answered.  In a gossip view
        a push is how a laggard asks, and it is answered here just as a
        decided round of the same view answers it.
        The Decision names the cut; its body goes along only when the
        laggard asked for it (``want``, from a :class:`VotePull`).
        """
        link = self.log.get(config_id)
        answered = False
        if link is not None:
            _, cid, body, gossip = link
            if gossip or not pushed:
                answered = cid in want
                decision = Decision(
                    self.runtime.addr, config_id, cid, body if answered else ()
                )
                self.runtime.send(src, decision)
        if want:
            name = "bodies_sent" if answered else "wants_unanswered"
            self.metrics.counter(f"consensus.{name}").inc()

    def _decided(self, cut: Proposal) -> None:
        # Consensus is fed only while ``config`` is set, and ``stop``
        # cancels its timers, so a decision always has a view to close.
        old = self.config
        cid = self.consensus.decision_id
        try:
            # Every decider of this view holds the same ``old`` and decides
            # the same cut: the first computes the transition, the rest
            # reuse it.
            new = old.successor(cut, cid)
        except ValueError:
            return  # malformed proposal cannot install; should not happen
        self.log.record(
            old.config_id, new.config_id, cid, cut, self.consensus.gossip_mode
        )
        self._on_decide(old, new, cut)


class AdmissionDesk:
    """The responder side of the join protocol (paper section 3).

    Tells a prospective member its temporary observers, vouches for it
    with a JOIN alert when asked to as one of them, and — when a view
    change admits it or passes it over — answers it, once per joiner
    across all its observers.

    Parameters
    ----------
    runtime:
        Messaging.
    metadata_store:
        The owner's ``{endpoint: role metadata}`` table (read-only here),
        shipped with view snapshots.
    raise_alert:
        Called with each JOIN alert this desk vouches with.
    """

    def __init__(
        self,
        runtime: Runtime,
        metadata_store: dict,
        raise_alert: Callable[[Alert], None],
    ) -> None:
        self.runtime = runtime
        self._metadata_store = metadata_store
        self._raise_alert = raise_alert
        #: The view being served; ``None`` while its owner is not a member.
        self.config: Optional[Configuration] = None
        self.topology: Optional[KRingTopology] = None
        #: Joiners waiting for a view change that admits them:
        #: ``{endpoint: uuid}``.
        self.pending: dict[Endpoint, int] = {}
        # The membership-filtered metadata table backing the view snapshot
        # (itself cached on the Configuration), built once per view.
        self._meta_entries: Optional[tuple] = None

    def reset(
        self, config: Configuration, topology: Optional[KRingTopology], joined: tuple
    ) -> None:
        """Serve ``config`` from now on, and settle every pending joiner.

        Joiners of ``joined`` that this view change admits are answered
        with the view;
        those whose alerts did not make this cut are told to restart
        promptly against the new configuration (otherwise they would idle
        out their join timeout, which cascades badly during mass
        bootstraps).  Responses are deduplicated — only the designated
        observer of each joiner answers — and batched: the admitted share
        one fanned-out message carrying the interned view snapshot, then
        the passed-over share one CONFIG_CHANGED notice.
        """
        # The outgoing view is what pending JoinRequests were scoped to:
        # its topology designates the (single) join responder per joiner.
        old_topology = self.topology
        self.config = config
        self.topology = topology
        self._meta_entries = None
        pending = self.pending
        # Every joiner this view admits leaves ``pending`` (the pop), so
        # none of them is also told CONFIG_CHANGED below.
        admitted = [
            joiner
            for joiner in joined
            if config.uuid_of(joiner) == pending.pop(joiner, None)
            and self._designated(old_topology, joiner)
        ]
        changed = [
            joiner
            for joiner in pending
            if joiner not in config and self._designated(old_topology, joiner)
        ]
        pending.clear()
        if admitted:
            self.runtime.broadcast(admitted, self.join_response())
        if changed:
            self.runtime.broadcast(changed, self.join_response(admitted=False))

    def stop(self) -> None:
        """Stop serving (the owner left its view); pending joiners are
        settled by the next :meth:`reset`."""
        self.config = None

    def _designated(self, topology: KRingTopology, joiner: Endpoint) -> bool:
        """Whether this process answers ``joiner``'s join for this decision.

        The designated responder is the joiner's observer on the
        lowest-numbered ring of the configuration its JoinRequests were
        scoped to — deterministic per (joiner, configuration) pair, so
        all ``K`` observers agree without coordination and exactly one
        sends the (view-sized) response; a lost response is recovered by
        the joiner's retry.  A joiner is pending only at a desk that
        served a view, so that view's topology is there to read.
        """
        return topology.observers_of(joiner)[0] == self.runtime.addr

    # ---------------------------------------------------------------- responses

    def metadata_entries(self) -> tuple:
        """The current view's metadata table, built once per view.

        Canonical ``((endpoint, ((key, value), ...)), ...)`` form, sorted
        by endpoint and restricted to current members with a non-empty
        table.  Every join response of this view shares this one tuple.
        """
        entries = self._meta_entries
        if entries is None:
            config = self.config
            entries = self._meta_entries = tuple(
                (endpoint, tuple(sorted(meta.items())))
                for endpoint, meta in sorted(self._metadata_store.items())
                if meta and endpoint in config
            )
        return entries

    def join_response(self, admitted: bool = True) -> JoinResponse:
        """This process's answer to a joiner, scoped to the current view.

        An admitted joiner, first-time or rejoining, gets SAFE_TO_JOIN
        carrying the view's snapshot.
        The :class:`ViewSnapshot` is built once per view and metadata
        table (:meth:`Configuration.view_snapshot`) and shared by every
        response, responder and admitted joiner of that view in the
        process; the simulated network memoizes its wire size on the
        object, so constructing and sizing the N-th response is O(1).
        A joiner the view moved past gets a bare CONFIG_CHANGED.
        """
        config = self.config
        return JoinResponse(
            sender=self.runtime.addr,
            status=JoinStatus.SAFE_TO_JOIN if admitted else JoinStatus.CONFIG_CHANGED,
            config_id=config.config_id,
            view=config.view_snapshot(self.metadata_entries()) if admitted else None,
        )

    # ----------------------------------------------------------------- requests

    def on_pre_join_request(self, src: Endpoint, msg: PreJoinRequest) -> None:
        """Phase 1: name the joiner's temporary observers, or turn it away."""
        config = self.config
        if config is None:
            return

        def reply(status: str, **fields) -> None:
            self.runtime.send(
                msg.sender,
                PreJoinResponse(
                    sender=self.runtime.addr,
                    status=status,
                    config_id=config.config_id,
                    **fields,
                ),
            )

        if msg.sender in config:
            if config.uuid_of(msg.sender) == msg.uuid:
                # The join already succeeded but the response was lost.
                self.runtime.send(msg.sender, self.join_response())
            else:
                reply(JoinStatus.UUID_IN_USE, conflict_uuid=config.uuid_of(msg.sender))
        elif config.has_uuid(msg.uuid):
            reply(JoinStatus.UUID_IN_USE)
        elif not config.size:
            # Nobody to observe the first member of an empty cluster: this
            # process vouches for it, as all K temporary observers at once
            # (a decider of the empty view has no topology and counts the
            # vouch on every ring).
            self._vouch(msg.sender, msg.uuid)
        else:
            reply(
                JoinStatus.SAFE_TO_JOIN,
                observers=tuple(self.topology.observers_of(msg.sender)),
            )

    def on_join_request(self, src: Endpoint, msg: JoinRequest) -> None:
        """Phase 2: vouch for the joiner as one of its temporary observers."""
        config = self.config
        if config is None:
            return
        if msg.config_id != config.config_id:
            # Either the join already succeeded — re-send the view — or
            # the view moved on without it.
            admitted = config.uuid_of(msg.sender) == msg.uuid
            self.runtime.send(msg.sender, self.join_response(admitted))
            return
        if not self.topology.observer_rings(self.runtime.addr, msg.sender):
            self.runtime.send(msg.sender, self.join_response(admitted=False))
            return
        # Duplicate JoinRequests (network-level duplication, or a joiner
        # retry racing its own admission) must not re-broadcast the JOIN
        # alert: the cut detector is idempotent per (subject, ring) so
        # tallies would not move, but every duplicate would cost a
        # fan-out to the whole view.  Refresh the pending entry and stop.
        if self.pending.get(msg.sender) == msg.uuid:
            return
        self.pending[msg.sender] = msg.uuid
        self._vouch(msg.sender, msg.uuid, msg.metadata)

    def _vouch(self, joiner: Endpoint, uuid: int, metadata: tuple = ()) -> None:
        self._raise_alert(
            Alert(
                observer=self.runtime.addr,
                subject=joiner,
                kind=AlertKind.JOIN,
                config_id=self.config.config_id,
                joiner_uuid=uuid,
                metadata=metadata,
            )
        )


class ClusterMember:
    """A member (or joiner) of the monitored cluster, whoever decides its views.

    Holds the process's identity, status, installed configuration and role
    metadata; watches its K-ring subjects through an :class:`EdgeMonitor`,
    serves joiners through an :class:`AdmissionDesk`, batches the alerts
    both raise and hands each batch to ``publish``; installs the views it
    is told about and tells the application.  Who decides those views is a
    composition's business: :class:`RapidNode` (the members themselves) and
    :class:`repro.core.centralized.CentralizedClusterNode` (an ensemble).

    Parameters
    ----------
    runtime:
        Messaging/timer environment (simulated or real).
    settings:
        Protocol parameters; defaults to the paper's ``K=10, H=9, L=3``.
    seeds:
        Contact list a joining process works through.
    detector_factory:
        Factory for per-edge failure detectors (see :class:`EdgeMonitor`).
    on_view_change:
        Application callback invoked on every installed view change.
    metadata:
        Application-supplied role metadata, e.g. ``{"role": "backend"}``.
    metrics:
        Registry receiving ``cluster.*`` aggregates and the consensus
        instruments (shared across every node of a harness; a private
        one by default).
    publish:
        Where a flushed :class:`BatchedAlerts` goes.
    on_install:
        Optional; called with ``(config, topology)`` for every view this
        process installs, before monitoring restarts on it.
    reinforce:
        Optional; the monitor's ``on_rotation``.
    repair:
        Optional; the monitor's ``on_foreign``.
    """

    #: Whether an install answers the joiners it admits (with the view).
    #: Whoever decides a view answers them; a joiner the view passed over
    #: is told so by its designated observer either way.
    answers_admitted = True

    def __init__(
        self,
        runtime: Runtime,
        settings: Optional[RapidSettings] = None,
        seeds: Iterable[Endpoint] = (),
        detector_factory: Optional[DetectorFactory] = None,
        on_view_change: Optional[ViewChangeCallback] = None,
        metadata: Optional[dict] = None,
        metrics: Optional[MetricsRegistry] = None,
        *,
        publish: Callable[[BatchedAlerts], None],
        on_install: Optional[Callable[[Configuration, KRingTopology], None]] = None,
        reinforce: Optional[Callable[[float], None]] = None,
        repair: Optional[Callable[[Endpoint, int], None]] = None,
    ) -> None:
        self.runtime = runtime
        self.addr = runtime.addr
        self.settings = settings = settings or RapidSettings()
        self.seeds = tuple(seeds)
        self.node_id = NodeId.fresh(self.addr)
        self.on_view_change = on_view_change
        self.metadata = dict(metadata or {})
        self.metadata_store: dict[Endpoint, dict] = {}
        self.metrics = metrics = metrics if metrics is not None else MetricsRegistry()
        # Hot-path instruments are resolved once.
        cluster = metrics.scope("cluster")
        self._m_alerts_enqueued = cluster.counter("alerts_enqueued")
        self._m_view_changes = cluster.counter("view_changes")
        self._m_view_size = cluster.gauge("view_size")

        self.status = NodeStatus.INIT
        self.config: Optional[Configuration] = None
        self.topology: Optional[KRingTopology] = None
        self._joiner: Optional[JoinProtocol] = None
        self._publish = publish
        self._on_install = on_install

        # The alert outbox: what this process vouches for, batched.
        self._alert_batch: list[Alert] = []
        self._batch_timer = None

        self.monitor = EdgeMonitor(
            runtime,
            settings,
            detector_factory,
            on_failed=self._alert,
            on_rotation=reinforce or (lambda now: None),
            on_foreign=repair or (lambda peer, config_id: None),
            metrics=metrics,
        )
        self.desk = AdmissionDesk(runtime, self.metadata_store, self._enqueue_alert)
        #: Everything that goes quiet when this process leaves its view.
        self._parts: list = [self.monitor, self.desk]
        # Exact-type dispatch: wire messages are final dataclasses, and a
        # dict lookup beats an isinstance chain on the per-message hot
        # path.  Compositions add their own entries; a joining process
        # adds its join protocol's for as long as it runs.
        self._dispatch: dict[type, Callable[[Endpoint, Any], None]] = {
            Probe: self.monitor.on_probe,
            ProbeAck: self.monitor.on_probe_ack,
            JoinRequest: self.desk.on_join_request,
            LeaveNotification: self._on_leave_notification,
        }
        runtime.attach(self.on_message)

    # ----------------------------------------------------------------- public

    def leave(self) -> None:
        """Gracefully depart: ask our observers to announce our removal."""
        if self.status == NodeStatus.ACTIVE:
            for observer in self.topology.unique_observers_of(self.addr):
                if observer == self.addr:
                    continue
                self.runtime.send(
                    observer,
                    LeaveNotification(sender=self.addr, config_id=self.config.config_id),
                )
        self._depart(NodeStatus.LEFT)

    def rejoin(self) -> None:
        """After being kicked, rejoin with a fresh logical identity."""
        if self.status not in (NodeStatus.KICKED, NodeStatus.LEFT):
            raise RuntimeError("rejoin() only valid after leaving or being kicked")
        self.node_id = NodeId.fresh(self.addr)
        self.config = None
        self.monitor.standby()
        self._join()

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

    def on_message(self, src: Endpoint, msg: Any) -> None:
        """Entry point for every inbound message.

        A node's own broadcasts, delivered locally, come back through
        here too.
        """
        handler = self._dispatch.get(type(msg))
        if handler is not None:
            handler(src, msg)

    # ------------------------------------------------------------------- join

    def _join(self) -> None:
        """Run the joiner side until some view admits this process."""
        self.status = NodeStatus.JOINING
        self._joiner = joiner = JoinProtocol(
            self.runtime,
            self.settings,
            self.seeds,
            self.node_id,
            tuple(sorted(self.metadata.items())),
            self._on_admitted,
        )
        self._dispatch[PreJoinResponse] = joiner.on_pre_join_response
        self._dispatch[JoinResponse] = joiner.on_join_response
        joiner.begin()

    def _on_admitted(
        self, node_id: NodeId, config: Configuration, metadata: tuple
    ) -> None:
        """Called by the join protocol when our admission is confirmed.

        ``node_id`` is the identity admitted (the handshake may have had
        to re-mint it).
        """
        self.node_id = node_id
        self._adopt_metadata(metadata)
        self._joiner = None
        del self._dispatch[PreJoinResponse], self._dispatch[JoinResponse]
        self._install(config, joined=(self.addr,), removed=())

    def _adopt_metadata(self, table: tuple) -> None:
        """Replace the metadata store wholesale with a view's metadata
        table, plus this process's own entry."""
        store = self.metadata_store
        store.clear()
        for endpoint, meta in table:
            store[endpoint] = dict(meta)
        store[self.addr] = dict(self.metadata)

    # ----------------------------------------------------------------- alerts

    def _alert(self, subjects: Iterable[Endpoint], kind: str = AlertKind.REMOVE) -> None:
        """Raise this process's alert about each subject it observes.

        Alerts are irrevocable: a subject alerted about is marked in the
        monitor and never reported again.  A subject this process observes
        on no ring of the current topology is skipped; the alert names no
        ring, as every receiver derives them from the same topology.
        """
        for subject in subjects:
            if not self.topology.observer_rings(self.addr, subject):
                continue
            uuid = 0
            if kind == AlertKind.JOIN:
                uuid = self.desk.pending.get(subject, 0)
            self.monitor.alerted.add(subject)
            self._enqueue_alert(
                Alert(
                    observer=self.addr,
                    subject=subject,
                    kind=kind,
                    config_id=self.config.config_id,
                    joiner_uuid=uuid,
                )
            )

    def _enqueue_alert(self, alert: Alert) -> None:
        """Buffer an alert; the batch flushes after the batching window."""
        self._m_alerts_enqueued.inc()
        self._alert_batch.append(alert)
        if self._batch_timer is None:
            self._batch_timer = self.runtime.schedule(
                self.settings.batching_window, self._flush_alerts
            )

    def _flush_alerts(self) -> None:
        self._batch_timer = None
        alerts = tuple(self._alert_batch)
        self._alert_batch.clear()
        if alerts and self.status == NodeStatus.ACTIVE:
            self._publish(_batch(self.addr, self.config.config_id, alerts))

    def _on_leave_notification(self, src: Endpoint, msg: LeaveNotification) -> None:
        if (
            self.status == NodeStatus.ACTIVE
            and msg.config_id == self.config.config_id
            and msg.sender in self.config
            and msg.sender not in self.monitor.alerted
        ):
            self._alert((msg.sender,))

    # ----------------------------------------------------------- installation

    def _install(self, config: Configuration, joined: tuple, removed: tuple) -> None:
        """Install a configuration and reset every part for it.

        An alert outlives the view it was raised in: every subject this
        process alerted about that the new view still lists is alerted
        about again, in the new view.  Otherwise a removal whose alerts
        were raised while another change was being decided (a leave
        announced during a join) would be lost with the closed view.
        """
        old = self.config
        # REMOVE alerts only: a JOIN alert's subject was no member of ``old``.
        carried = sorted(
            s for s in self.monitor.alerted if old is not None and s in old and s in config
        )
        self.config = config
        self.status = NodeStatus.ACTIVE
        self._m_view_changes.inc()
        self._m_view_size.set(config.size)
        self.topology = topology = KRingTopology.for_configuration(
            config, self.settings.k
        )
        now = self.runtime.now()
        if self._on_install is not None:
            self._on_install(config, topology)
        self.monitor.watch(config.config_id, topology.subjects_of(self.addr))
        self._alert_batch.clear()
        self._alert(carried)
        self.desk.reset(config, topology, joined if self.answers_admitted else ())
        if self.on_view_change is not None:
            self.on_view_change(
                ViewChangeEvent(
                    configuration=config,
                    joined=joined,
                    removed=removed,
                    kicked=False,
                    time=now,
                )
            )

    def _depart(self, status: str, kicked_from: Optional[Configuration] = None) -> None:
        """Stop being a member: the process left, or its view ejected it."""
        self.status = status
        for part in self._parts:
            part.stop()
        if self._joiner is not None:
            self._joiner.stop()  # left mid-handshake
        if kicked_from is not None and self.on_view_change is not None:
            self.on_view_change(
                ViewChangeEvent(
                    configuration=kicked_from,
                    joined=(),
                    removed=(self.addr,),
                    kicked=True,
                    time=self.runtime.now(),
                )
            )


class RapidNode(ClusterMember):
    """A member of a decentralized Rapid cluster: the members decide.

    A :class:`ClusterMember` plus the deciding role: every alert batch is
    unicast to every member, and each member runs cut detection and
    votes in the view-change consensus (a :class:`ViewChanger` whose
    acceptors are the members themselves).

    Parameters are those of :class:`ClusterMember`.  ``seeds`` is the
    bootstrap contact list: a node whose address is the first seed (or with
    no seeds at all) boots a fresh single-member cluster; everyone else
    joins through the seeds.
    """

    def __init__(
        self,
        runtime: Runtime,
        settings: Optional[RapidSettings] = None,
        seeds: Iterable[Endpoint] = (),
        detector_factory: Optional[DetectorFactory] = None,
        on_view_change: Optional[ViewChangeCallback] = None,
        metadata: Optional[dict] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        settings = settings or RapidSettings()
        # One registry for every part, private unless the caller shares one.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self.broadcaster = Broadcaster(runtime, self.on_message)
        broadcast = self.broadcaster.broadcast
        self.decider = ViewChanger(
            runtime, settings, broadcast, self._on_decide, metrics
        )
        super().__init__(
            runtime,
            settings,
            seeds,
            detector_factory,
            on_view_change,
            metadata,
            metrics,
            publish=broadcast,
            on_install=self._on_install_view,
            reinforce=self._reinforce_scan,
            repair=self.decider.repair,
        )
        self._parts.append(self.decider)
        self._dispatch[BatchedAlerts] = self.decider.on_alerts
        self._dispatch[PreJoinRequest] = self.desk.on_pre_join_request
        # One bound method shared by every consensus message class.
        self._dispatch.update(
            dict.fromkeys(CONSENSUS_MESSAGES, self.decider.on_consensus)
        )

    def start(self) -> None:
        """Boot the node: become a fresh cluster seed, or join via seeds."""
        if self.status != NodeStatus.INIT:
            raise RuntimeError(f"start() called twice (status={self.status})")
        if not self.seeds or self.seeds[0] == self.addr:
            bootstrap = Configuration.bootstrap(self.addr, self.node_id.uuid)
            self._install(bootstrap, joined=(self.addr,), removed=())
        else:
            self._join()
        self.monitor.start()

    def _on_install_view(self, config: Configuration, topology: KRingTopology) -> None:
        # Votes travel by gossip in views at or above the threshold;
        # everything broadcast (alert batches, classical rounds) is one
        # unicast fan-out at any size.
        self.broadcaster.set_membership(config.members, config.member_index())
        self.decider.reset(config, topology, self.settings.use_gossip(config.size))

    def _reinforce_scan(self, now: float) -> None:
        """Paper section 4.2 liveness aid: after a subject has lingered in the
        unstable region past the timeout, every observer echoes the alert
        (repeating the pending verdict, JOIN or REMOVE)."""
        alerted = self.monitor.alerted
        for subject, kind in self.decider.overdue(now):
            if subject not in alerted:
                self._alert((subject,), kind)

    def _on_decide(self, old: Configuration, new: Configuration, cut: Proposal) -> None:
        joined = tuple(c.endpoint for c in cut if c.kind == AlertKind.JOIN)
        removed = tuple(c.endpoint for c in cut if c.kind == AlertKind.REMOVE)
        self.decider.file_metadata(self.metadata_store, cut)
        if self.addr in removed:
            self._depart(NodeStatus.KICKED, kicked_from=old)
        else:
            self._install(new, joined=joined, removed=removed)
