"""The three roles at their seams, and the three ways they are composed.

``EdgeMonitor`` (watch), ``ViewChanger`` (decide) and ``AdmissionDesk``
(admit) take a runtime and plain callables, so each is driven here with a
fake runtime and no node or cluster — behaviour that otherwise only shows
through a whole ``SimCluster``.  The last class checks the compositions:
Rapid, a Rapid-C cluster member, an ensemble member.
"""

import heapq
import random

import pytest

from repro.core.centralized import (
    VIEW_PROBE_INTERVAL,
    CentralizedClusterNode,
    EnsembleNode,
)
from repro.core.configuration import Configuration
from repro.core.cut_detector import MultiNodeCutDetector
from repro.core.events import NodeStatus
from repro.core.fast_paxos import DecisionLog, FastPaxos
from repro.core.join import JoinProtocol
from repro.core.membership import (
    PROBE_BOOTSTRAP_BUDGET,
    REINFORCEMENT_TIMEOUT,
    AdmissionDesk,
    EdgeMonitor,
    RapidNode,
    ViewChanger,
)
from repro.core.messages import (
    Alert,
    AlertKind,
    Change,
    Decision,
    JoinRequest,
    JoinResponse,
    JoinStatus,
    Phase1a,
    PreJoinRequest,
    PreJoinResponse,
    Probe,
    ProbeAck,
    ViewProbe,
    ViewUpdate,
    VoteBundle,
    VotePull,
    cut_id,
    make_proposal,
)
from repro.core.node_id import NodeId
from repro.core.ring import KRingTopology
from repro.core.settings import RapidSettings
from repro.experiments.harness import harness_for
from repro.obs.metrics import MetricsRegistry
from repro.sim.cluster import endpoint_for


class SteppingRuntime:
    """A runtime whose clock moves only when the test steps it."""

    def __init__(self, addr):
        self.addr = addr
        self.rng = random.Random(0)
        self.time = 0.0
        self.sent = []  # (time, dst, msg)
        self._timers = []
        self._seq = 0

    class _Timer:
        def __init__(self, fn, args):
            self.fn, self.args, self.cancelled = fn, args, False

        def cancel(self):
            self.cancelled = True

    def now(self):
        return self.time

    def schedule(self, delay, fn, *args):
        timer = self._Timer(fn, args)
        self._seq += 1
        heapq.heappush(self._timers, (self.time + delay, self._seq, timer))
        return timer

    def send(self, dst, msg):
        self.sent.append((self.time, dst, msg))

    def broadcast(self, dsts, msg):
        for dst in dsts:
            self.send(dst, msg)

    def attach(self, handler):
        self.handler = handler

    def run_until(self, deadline):
        while self._timers and self._timers[0][0] <= deadline:
            self.time, _, timer = heapq.heappop(self._timers)
            if not timer.cancelled:
                timer.fn(*timer.args)
        self.time = deadline

    def live_timers(self):
        """What is still scheduled to run, by the name of what it runs."""
        return sorted(
            timer.fn.__name__ for _, _, timer in self._timers if not timer.cancelled
        )


class OneStrike:
    """An edge detector that fails on the first lost probe, and keeps score."""

    def __init__(self, log):
        self.outcomes = []
        self.failed_at = None
        log.append(self)

    def on_probe_success(self, now, rtt):
        self.outcomes.append(True)

    def on_probe_failure(self, now):
        self.outcomes.append(False)
        if self.failed_at is None:
            self.failed_at = now

    def failed(self):
        return self.failed_at is not None


ME = endpoint_for(0)
SUBJECTS = [endpoint_for(i) for i in range(1, 5)]  # wheel slots: 1,3 | 2,4


class MonitorBench:
    """One EdgeMonitor, its fake runtime, and subjects that ack on cue."""

    def __init__(self, **settings):
        self.runtime = SteppingRuntime(ME)
        self.settings = RapidSettings(**settings)
        self.detectors = []
        self.reports = []  # (time, subjects)
        self.rotations = []
        self.foreign = []  # (peer, config_id)
        self.monitor = EdgeMonitor(
            self.runtime,
            self.settings,
            lambda: OneStrike(self.detectors),
            on_failed=lambda subjects: self.reports.append(
                (self.runtime.time, list(subjects))
            ),
            on_rotation=self.rotations.append,
            on_foreign=lambda peer, config_id: self.foreign.append((peer, config_id)),
        )
        self._answered = 0

    def probes(self):
        return [(t, dst) for t, dst, msg in self.runtime.sent if isinstance(msg, Probe)]

    def run(self, until, silent=(), silent_from=0.0, bootstrapping=()):
        """Step the clock; every probe is acked within 50 ms unless its
        subject is ``silent`` (from ``silent_from`` on)."""
        runtime = self.runtime
        while runtime.time < until:
            runtime.run_until(runtime.time + 0.05)
            probes = self.probes()
            for _, dst in probes[self._answered:]:
                if dst in silent and runtime.time >= silent_from:
                    continue
                self.monitor.on_probe_ack(
                    dst, ProbeAck(dst, config_id=7, bootstrapping=dst in bootstrapping)
                )
            self._answered = len(probes)

    def detector_of(self, subject):
        """The current view's detector for ``subject``."""
        return self.detectors[-len(SUBJECTS):][SUBJECTS.index(subject)]


class TestEdgeMonitor:
    def test_silent_subject_is_reported_once_after_one_rotation(self):
        bench = MonitorBench()
        bench.monitor.watch(7, SUBJECTS)
        bench.monitor.start()
        victim = SUBJECTS[0]
        bench.run(30.0, silent={victim})
        assert [subjects for _, subjects in bench.reports] == [[victim]]
        reported_at = bench.reports[0][0]
        failed_at = bench.detector_of(victim).failed_at
        # The verdict waited out one full rotation before it was reported.
        assert reported_at - failed_at == pytest.approx(bench.settings.probe_interval)
        assert victim in bench.monitor.alerted
        # An alerted subject is still probed every rotation or two (a silent
        # subject's probe is outstanding for one probe_timeout), but never
        # reported again: the one report above spans the whole run.
        later = [t for t, dst in bench.probes() if dst == victim and t > reported_at]
        assert len(later) >= (30.0 - reported_at) / (2 * bench.settings.probe_interval)

    def test_co_victims_in_different_slots_arrive_in_one_report(self):
        bench = MonitorBench()
        bench.monitor.watch(7, SUBJECTS)
        bench.monitor.start()
        victims = {SUBJECTS[0], SUBJECTS[1]}  # one per wheel slot
        # Go silent between two ticks of one rotation: the two edges cross
        # their thresholds in different rotations.
        first_tick = bench.runtime._timers[0][0]
        bench.run(30.0, silent=victims, silent_from=first_tick + 1.25)
        verdicts = sorted(bench.detector_of(v).failed_at for v in victims)
        rotation = bench.settings.probe_interval
        assert 0 < verdicts[1] - verdicts[0] < rotation
        rotations_between = [t for t in bench.rotations if verdicts[0] <= t < verdicts[1]]
        assert len(rotations_between) == 1
        assert len(bench.reports) == 1
        assert set(bench.reports[0][1]) == victims

    def test_acked_probe_never_expires(self):
        bench = MonitorBench()
        bench.monitor.watch(7, SUBJECTS)
        bench.monitor.start()
        bench.run(20.0)
        assert bench.reports == []
        outcomes = [o for d in bench.detectors for o in d.outcomes]
        assert outcomes and all(outcomes)
        # One probe per subject per interval, each credited exactly once.
        assert len(outcomes) == len(bench.probes())
        assert len(bench.rotations) == pytest.approx(20, abs=1)

    def test_an_edge_has_at_most_one_probe_in_flight(self):
        """With a timeout longer than the interval, a silent subject's
        slot comes round while its probe is still out: it is skipped."""
        bench = MonitorBench(probe_timeout=1.6)
        bench.monitor.watch(7, SUBJECTS)
        bench.monitor.start()
        victim = SUBJECTS[0]
        bench.run(12.0, silent={victim})
        sent = [t for t, dst in bench.probes() if dst == victim]
        gaps = {round(b - a, 6) for a, b in zip(sent, sent[1:])}
        assert gaps == {2 * bench.settings.probe_interval}

    def test_bootstrapping_acks_past_the_budget_count_as_failures(self):
        bench = MonitorBench()
        bench.monitor.watch(7, SUBJECTS)
        bench.monitor.start()
        zombie = SUBJECTS[2]
        bench.run(40.0, bootstrapping={zombie})
        budget = PROBE_BOOTSTRAP_BUDGET
        outcomes = bench.detector_of(zombie).outcomes
        assert outcomes[: budget + 1] == [True] * budget + [False]
        assert [subjects for _, subjects in bench.reports] == [[zombie]]

    def test_new_view_forgets_outstanding_probes_but_keeps_owed_acks(self):
        bench = MonitorBench()
        runtime, monitor = bench.runtime, bench.monitor
        monitor.watch(7, SUBJECTS)
        monitor.start()
        first_tick = runtime._timers[0][0]
        runtime.run_until(first_tick + 0.6)  # both slots probed, nothing acked
        assert len(bench.probes()) == len(SUBJECTS)
        observer = endpoint_for(9)
        monitor.on_probe(observer, Probe(observer, config_id=7, seq=1))
        monitor.watch(8, SUBJECTS)
        # The old view's probes are nobody's business any more: a late ack
        # finds nothing outstanding, an unanswered one never expires into
        # a verdict.
        for subject in SUBJECTS[:2]:
            monitor.on_probe_ack(subject, ProbeAck(subject, config_id=7))
        assert all(bench.detector_of(subject).outcomes == [] for subject in SUBJECTS)
        bench._answered = len(bench.probes())
        bench.run(10.0)
        assert all(all(d.outcomes) for d in bench.detectors)
        assert bench.reports == []
        # The ack owed from before the view change still went out, under
        # the new configuration id, batched onto the next tick.
        acks = [(dst, msg) for _, dst, msg in runtime.sent if isinstance(msg, ProbeAck)]
        assert acks == [(observer, ProbeAck(ME, config_id=8))]

    def test_outside_a_view_probes_are_acked_at_once_as_bootstrapping(self):
        bench = MonitorBench()
        observer = endpoint_for(9)
        bench.monitor.on_probe(observer, Probe(observer, config_id=3, seq=1))
        assert bench.runtime.sent == [
            (0.0, observer, ProbeAck(ME, config_id=0, bootstrapping=True))
        ]
        bench.monitor.watch(7, SUBJECTS)
        bench.monitor.stop()
        bench.monitor.on_probe(observer, Probe(observer, config_id=7, seq=2))
        assert bench.runtime.sent[-1][2] == ProbeAck(ME, config_id=7, bootstrapping=True)


    def test_a_probe_or_ack_naming_another_view_is_reported_once(self):
        bench = MonitorBench()
        monitor, peer, subject = bench.monitor, endpoint_for(9), SUBJECTS[0]
        monitor.watch(7, SUBJECTS)
        monitor.on_probe(peer, Probe(peer, config_id=6, seq=1))
        assert bench.foreign == [(peer, 6)]
        monitor.on_probe_ack(subject, ProbeAck(subject, config_id=8))
        assert bench.foreign == [(peer, 6), (subject, 8)]

    def test_only_a_watching_monitor_hears_of_another_view(self):
        """Same-view traffic, a bootstrapping ack (its sender watches no
        view), and anything an idle or stopped monitor receives are not
        foreign."""
        bench = MonitorBench()
        monitor, peer, subject = bench.monitor, endpoint_for(9), SUBJECTS[0]

        def traffic(config_id):
            monitor.on_probe(peer, Probe(peer, config_id=config_id, seq=1))
            monitor.on_probe_ack(subject, ProbeAck(subject, config_id=config_id))

        traffic(6)
        monitor.watch(7, SUBJECTS)
        traffic(7)
        monitor.on_probe_ack(subject, ProbeAck(subject, config_id=0, bootstrapping=True))
        monitor.stop()
        traffic(6)
        assert bench.foreign == []

    def test_stopped_wheel_dies_at_its_next_tick(self):
        bench = MonitorBench()
        bench.monitor.watch(7, SUBJECTS)
        bench.monitor.start()
        bench.run(3.0)
        bench.monitor.stop()
        assert bench.runtime.live_timers() == ["_tick"]
        bench.run(3.0 + bench.settings.probe_interval)
        assert bench.runtime.live_timers() == []


MEMBERS = tuple(sorted(endpoint_for(i) for i in range(8)))
ENSEMBLE = tuple(sorted(endpoint_for(i) for i in (100, 101, 102)))


@pytest.fixture(params=["members", "ensemble"])
def changer(request):
    """A ViewChanger deciding for an 8-member view, voting either among
    the members themselves (Rapid) or among a 3-node ensemble (Rapid-C)."""
    acceptors = None if request.param == "members" else ENSEMBLE
    runtime = SteppingRuntime(MEMBERS[0] if acceptors is None else ENSEMBLE[0])
    settings = RapidSettings()
    config = Configuration.of(MEMBERS)
    changer = ViewChanger(
        runtime, settings, lambda payload: None, lambda *args: None, MetricsRegistry()
    )
    topology = KRingTopology.for_configuration(config, settings.k)
    changer.reset(config, topology, gossip=False, acceptors=acceptors)
    return changer


def alert(changer, subject, kind, config_id=None, uuid=0):
    return Alert(
        observer=MEMBERS[1],
        subject=subject,
        kind=kind,
        config_id=changer.config.config_id if config_id is None else config_id,
        ring_numbers=(0,),
        joiner_uuid=uuid,
    )


class TestViewChanger:
    def test_alert_filter(self, changer):
        config, detector = changer.config, changer.cut_detector
        member, stranger = MEMBERS[3], endpoint_for(50)
        dropped = [
            alert(changer, member, AlertKind.REMOVE, config_id=config.config_id ^ 1),
            alert(changer, stranger, AlertKind.REMOVE),
            alert(changer, member, AlertKind.JOIN, uuid=12345),
            alert(changer, stranger, AlertKind.JOIN, uuid=config.uuid_of(member)),
        ]
        for each in dropped:
            changer.on_alert(each)
            assert detector.kind_of(each.subject) is None
        changer.on_alert(alert(changer, member, AlertKind.REMOVE))
        assert detector.kind_of(member) == AlertKind.REMOVE
        changer.on_alert(alert(changer, stranger, AlertKind.JOIN, uuid=12345))
        assert detector.kind_of(stranger) == AlertKind.JOIN

    def test_foreign_configuration_is_answered_from_the_decision_log(self, changer):
        """A link whose view gossiped: everything foreign is answered."""
        runtime = changer.runtime
        laggard = MEMBERS[5]
        cut = make_proposal([Change(MEMBERS[7], AlertKind.REMOVE)])
        left, cid = 4242, cut_id(cut)
        changer.log.record(left, changer.config.config_id, cid, cut, gossip=True)

        changer.on_consensus(laggard, VoteBundle(laggard, left, ids=(cid,), bitmaps=(1,)))
        changer.on_consensus(laggard, VotePull(laggard, left, want=(cid,)))
        changer.repair(laggard, left)
        assert [(dst, msg) for _, dst, msg in runtime.sent] == [
            (laggard, Decision(runtime.addr, left, cid)),
            (laggard, Decision(runtime.addr, left, cid, cut)),  # body only on want
            (laggard, Decision(runtime.addr, left, cid)),
        ]
        del runtime.sent[:]
        # A Decision is never answered, nor is a configuration off the log.
        changer.on_consensus(laggard, Decision(laggard, left, cid))
        changer.on_consensus(laggard, VoteBundle(laggard, 777, ids=(cid,), bitmaps=(1,)))
        assert runtime.sent == []

    def test_a_unicast_link_answers_everything_but_pushed_votes(self, changer):
        """In a view that did not gossip every voter counted every vote:
        its late bundle earns nothing, its pull and everything else the
        Decision."""
        runtime = changer.runtime
        laggard = MEMBERS[5]
        cut = make_proposal([Change(MEMBERS[7], AlertKind.REMOVE)])
        left, cid = 4242, cut_id(cut)
        changer.log.record(left, changer.config.config_id, cid, cut, gossip=False)

        changer.on_consensus(laggard, VoteBundle(laggard, left, ids=(cid,), bitmaps=(1,)))
        assert runtime.sent == []
        changer.on_consensus(laggard, VotePull(laggard, left, ids=(cid,), bitmaps=(1,)))
        changer.on_consensus(laggard, Phase1a(laggard, left, (2, 5)))
        changer.repair(laggard, left)  # an alert batch
        assert [(dst, msg) for _, dst, msg in runtime.sent] == [
            (laggard, Decision(runtime.addr, left, cid))
        ] * 3

    def test_a_body_for_another_configuration_is_counted_and_never_installed(
        self, changer
    ):
        """Consensus scope is checked once, here: a bundle naming a view
        this process is not deciding never reaches the round, even when
        it carries the very body the round is waiting for."""
        consensus = changer.consensus
        wanted = make_proposal([Change(MEMBERS[7], AlertKind.REMOVE)])
        consensus._merge(cut_id(wanted), (1 << consensus.fast_quorum) - 1)
        consensus._check_quorum()
        assert not consensus.decided and consensus._want == cut_id(wanted)
        peer, foreign = MEMBERS[1], changer.config.config_id ^ 1
        changer.on_consensus(peer, VoteBundle(peer, foreign, bodies=(wanted,)))
        assert not consensus.decided
        assert cut_id(wanted) not in consensus._bodies
        assert changer.metrics.counter("consensus.bodies_rejected").value == 1

    def test_a_decided_cut_that_cannot_apply_closes_nothing(self, changer):
        """A Decision whose body removes a non-member settles the round,
        but there is no successor view to log or hand on."""
        bad = make_proposal([Change(endpoint_for(50), AlertKind.REMOVE)])
        config_id = changer.config.config_id
        changer.on_consensus(MEMBERS[1], Decision(MEMBERS[1], config_id, cut_id(bad), bad))
        assert changer.consensus.decided
        assert list(changer.log) == []

    def test_the_log_keeps_the_newest_links(self):
        log = DecisionLog()
        cut = make_proposal([Change(MEMBERS[7], AlertKind.REMOVE)])
        for old in range(log.DEPTH + 1):
            log.record(old, old + 1, cut_id(cut), cut, gossip=False)
        assert list(log) == list(range(1, log.DEPTH + 1))

    def test_stopped_changer_still_repairs_but_tallies_nothing(self, changer):
        member = MEMBERS[3]
        stale = alert(changer, member, AlertKind.REMOVE)
        left = changer.config.config_id
        cut = make_proposal([Change(member, AlertKind.REMOVE)])
        changer.log.record(left, 99, cut_id(cut), cut, gossip=False)
        changer.stop()
        changer.on_alert(stale)
        assert changer.cut_detector.kind_of(member) is None
        changer.on_consensus(MEMBERS[5], VotePull(MEMBERS[5], left))
        assert [msg for _, _, msg in changer.runtime.sent] == [
            Decision(changer.runtime.addr, left, cut_id(cut))
        ]


    def test_stopped_changer_has_no_timer_pending(self, changer):
        """A vote short of its quorum arms the fallback and gossip timers;
        a process that left its view must not keep running that round."""
        runtime = changer.runtime
        changer.on_alert(
            Alert(MEMBERS[1], MEMBERS[3], AlertKind.REMOVE, changer.config.config_id,
                  tuple(range(changer.settings.k)))
        )
        assert changer.consensus.my_vote and not changer.consensus.decided
        assert runtime.live_timers() == ["_fallback", "_gossip_tick"]
        changer.stop()
        assert runtime.live_timers() == []
        del runtime.sent[:]
        runtime.run_until(10 * changer.settings.consensus_fallback_timeout)
        assert runtime.sent == []


def bare_joiner(seeds=(MEMBERS[0],)):
    """A joiner-side state machine on a stepping runtime, and its admissions."""
    runtime = SteppingRuntime(endpoint_for(9))
    admitted = []
    joiner = JoinProtocol(
        runtime, RapidSettings(), seeds, NodeId.fresh(runtime.addr), (),
        lambda *args: admitted.append(args),
    )
    return runtime, joiner, admitted


def pre_join(status, **fields):
    return PreJoinResponse(MEMBERS[0], status, 7, **fields)


class TestJoinProtocol:
    def test_stopped_handshake_neither_retries_nor_completes(self):
        runtime, joiner, admitted = bare_joiner()
        settings = joiner.settings
        joiner.begin()
        assert [type(msg) for _, _, msg in runtime.sent] == [PreJoinRequest]
        assert runtime.live_timers() == ["_on_timeout"]
        joiner.stop()
        assert runtime.live_timers() == []
        # Answers to the abandoned attempt change nothing and re-arm nothing.
        config = Configuration.of(MEMBERS + (runtime.addr,))
        joiner.on_pre_join_response(
            MEMBERS[0],
            PreJoinResponse(MEMBERS[0], JoinStatus.SAFE_TO_JOIN, 7, observers=MEMBERS[:3]),
        )
        joiner.on_join_response(
            MEMBERS[0],
            JoinResponse(
                MEMBERS[0], JoinStatus.SAFE_TO_JOIN, config.config_id, config.view_snapshot()
            ),
        )
        runtime.run_until(10 * settings.join_timeout)
        assert len(runtime.sent) == 1 and admitted == []
        assert runtime.live_timers() == []
        joiner.begin()  # a finished handshake does not start again
        assert len(runtime.sent) == 1 and runtime.live_timers() == []

    def test_a_joiner_without_seeds_cannot_begin(self):
        _, joiner, _ = bare_joiner(seeds=())
        with pytest.raises(RuntimeError):
            joiner.begin()

    def test_a_conflict_naming_an_earlier_attempt_adopts_that_identity(self):
        """Our first attempt was admitted but its answer was lost; a retry
        under a fresh uuid is told the view holds the first one for our
        endpoint.  The joiner takes that identity back and asks again
        promptly, instead of minting identities against its own
        admission."""
        runtime, joiner, _ = bare_joiner()
        first = joiner.node_id.uuid
        joiner.begin()
        joiner.on_pre_join_response(MEMBERS[0], pre_join(JoinStatus.UUID_IN_USE))
        second = joiner.node_id.uuid
        assert second != first
        joiner.on_pre_join_response(
            MEMBERS[0], pre_join(JoinStatus.UUID_IN_USE, conflict_uuid=first)
        )
        assert joiner.node_id.uuid == first
        runtime.run_until(0.5 * 1.25)  # the prompt retry, jitter included
        uuids = [msg.uuid for _, _, msg in runtime.sent if isinstance(msg, PreJoinRequest)]
        assert uuids == [first, first]

    def test_an_unexpected_status_retries_after_half_the_timeout(self):
        runtime, joiner, _ = bare_joiner()
        joiner.begin()
        joiner.on_pre_join_response(MEMBERS[0], pre_join(JoinStatus.NOT_IN_RING))
        half = joiner.settings.join_timeout / 2
        runtime.run_until(half * 1.25)
        assert [type(msg) for _, _, msg in runtime.sent] == [PreJoinRequest] * 2

    def test_only_a_view_that_lists_the_joiner_is_installed(self):
        runtime, joiner, admitted = bare_joiner()
        joiner.begin()
        outside, inside = Configuration.of(MEMBERS), Configuration.of(MEMBERS + (runtime.addr,))
        for config, view in ((inside, None), (outside, outside.view_snapshot())):
            joiner.on_join_response(
                MEMBERS[0],
                JoinResponse(MEMBERS[0], JoinStatus.SAFE_TO_JOIN, config.config_id, view),
            )
            assert not joiner.completed
        joiner.on_join_response(
            MEMBERS[0],
            JoinResponse(
                MEMBERS[0], JoinStatus.SAFE_TO_JOIN, inside.config_id, inside.view_snapshot()
            ),
        )
        assert joiner.completed and [args[1] for args in admitted] == [inside]


class TestAdmissionDesk:
    def test_responders_of_one_view_answer_with_their_own_metadata(self):
        """A view's responders share one Configuration object, so its
        snapshot memo must not hand one responder's metadata table to the
        next; responders that agree on the table share the snapshot."""
        settings = RapidSettings()
        config = Configuration.of(MEMBERS)
        topology = KRingTopology.for_configuration(config, settings.k)
        roles = ["backend", "frontend", "backend"]
        desks = []
        for addr, role in zip(MEMBERS, roles):
            store = {MEMBERS[1]: {"role": role}, endpoint_for(77): {"role": "gone"}}
            desk = AdmissionDesk(SteppingRuntime(addr), settings, store, lambda alert: None)
            desk.reset(config, topology, ())
            desks.append(desk)
        views = [desk.join_response().view for desk in desks]
        assert [view.metadata for view in views] == [
            ((MEMBERS[1], (("role", role),)),) for role in roles
        ]
        assert views[2] is views[0] and views[1] is not views[0]
        assert all(view.members is config.members for view in views)


    def test_a_desk_serving_no_view_answers_nothing(self):
        desk = AdmissionDesk(SteppingRuntime(MEMBERS[0]), RapidSettings(), {}, None)
        joiner = endpoint_for(9)
        desk.on_pre_join_request(joiner, PreJoinRequest(joiner, uuid=5))
        desk.on_join_request(joiner, JoinRequest(joiner, uuid=5, config_id=7))
        assert desk.runtime.sent == []

    def test_a_pre_join_naming_a_listed_endpoint_or_uuid(self):
        """A member asking again under its own identity was admitted and
        lost the answer: it gets the view.  Anyone else presenting a
        listed endpoint or logical id is turned away; when the endpoint
        is listed, the reply names the id the view holds for it."""
        settings = RapidSettings()
        config = Configuration(MEMBERS, tuple(range(1, 9)), seq=0)
        runtime = SteppingRuntime(MEMBERS[0])
        desk = AdmissionDesk(runtime, settings, {}, None)
        desk.reset(config, KRingTopology.for_configuration(config, settings.k), ())
        stranger, member = endpoint_for(9), MEMBERS[2]
        desk.on_pre_join_request(member, PreJoinRequest(member, uuid=3))
        desk.on_pre_join_request(stranger, PreJoinRequest(stranger, uuid=4))
        desk.on_pre_join_request(member, PreJoinRequest(member, uuid=99))
        (_, dst, answer), *refusals = runtime.sent
        assert (dst, answer.status, answer.view.members) == (
            member, JoinStatus.SAFE_TO_JOIN, MEMBERS
        )
        assert [(dst, msg.status, msg.conflict_uuid) for _, dst, msg in refusals] == [
            (stranger, JoinStatus.UUID_IN_USE, 0),
            (member, JoinStatus.UUID_IN_USE, 3),
        ]

    def test_a_join_request_to_a_non_observer_is_sent_back(self):
        """A JoinRequest scoped to the current view reaches a member that
        observes the joiner on no ring: the joiner is told to start over."""
        settings = RapidSettings(k=2, h=2, l=1)
        config = Configuration.of(MEMBERS)
        topology = KRingTopology.for_configuration(config, settings.k)
        joiner = endpoint_for(9)
        outsider = next(
            m for m in MEMBERS if not topology.observer_rings(m, joiner)
        )
        runtime = SteppingRuntime(outsider)
        alerts = []
        desk = AdmissionDesk(runtime, settings, {}, alerts.append)
        desk.reset(config, topology, ())
        request = JoinRequest(joiner, uuid=5, config_id=config.config_id)
        desk.on_join_request(joiner, request)
        assert [(dst, msg.status) for _, dst, msg in runtime.sent] == [
            (joiner, JoinStatus.CONFIG_CHANGED)
        ]
        assert alerts == [] and desk.pending == {}

    def test_desk_schedules_nothing(self):
        settings = RapidSettings()
        config = Configuration.of(MEMBERS)
        runtime = SteppingRuntime(MEMBERS[0])
        desk = AdmissionDesk(runtime, settings, {}, lambda alert: None)
        desk.reset(config, KRingTopology.for_configuration(config, settings.k), ())
        joiner = endpoint_for(9)
        desk.on_pre_join_request(joiner, PreJoinRequest(joiner, uuid=5))
        desk.stop()
        assert runtime.live_timers() == []


class TestCompositions:
    def test_leaving_mid_handshake_abandons_the_join(self):
        """``leave()`` stops every part, the join protocol included: the
        node's only timer left is the wheel tick it dies on."""
        runtime = SteppingRuntime(endpoint_for(9))
        node = RapidNode(runtime, seeds=(MEMBERS[0],))
        node.start()
        assert runtime.live_timers() == ["_on_timeout", "_tick"]
        node.leave()
        assert runtime.live_timers() == ["_tick"]
        runtime.run_until(10 * node.settings.join_timeout)
        assert runtime.live_timers() == []
        assert [type(msg) for _, _, msg in runtime.sent] == [PreJoinRequest]
        # Rejoining starts a fresh handshake.
        node.rejoin()
        assert [type(msg) for _, _, msg in runtime.sent] == [PreJoinRequest] * 2
        assert runtime.live_timers() == ["_on_timeout"]

    def test_the_view_change_callback_gets_each_installed_view(self):
        """The paper's VIEW-CHANGE-CALLBACK (section 3): one event per
        installed view, carrying the view, its size and the delta."""
        harness = harness_for("rapid", seed=1)
        endpoints = harness.bootstrap(8, seed_delay=2.0, stagger=1.0)
        events = {ep: [] for ep in endpoints}
        for ep in endpoints:
            harness.agents[ep].on_view_change = events[ep].append
        assert harness.run_until_converged(8, timeout=120.0) is not None
        victim = endpoints[3]
        harness.crash([victim])
        assert harness.run_until_converged(7, timeout=120.0) is not None
        for ep in endpoints:
            if ep == victim:
                continue
            assert [e.size for e in events[ep]][-2:] == [8, 7]
            last = events[ep][-1]
            assert last.configuration is harness.agents[ep].config
            assert last.removed == (victim,) and not last.joined and not last.kicked

    def test_a_node_starts_once_and_rejoins_only_once_out(self):
        node = RapidNode(SteppingRuntime(MEMBERS[0]))
        with pytest.raises(RuntimeError):
            node.rejoin()
        node.start()
        with pytest.raises(RuntimeError):
            node.start()

    def test_the_last_member_leaves_without_notifying_itself(self):
        runtime = SteppingRuntime(MEMBERS[0])
        node = RapidNode(runtime)
        node.start()
        assert node.view_size == 1
        node.leave()
        assert node.status == NodeStatus.LEFT
        assert runtime.sent == []

    def test_a_lingering_joiner_is_vouched_for_again(self):
        """Reinforcement (section 4.2): a joiner left in the unstable region
        past the timeout is echoed as a JOIN, with the uuid it asked under."""
        runtime = SteppingRuntime(MEMBERS[0])
        node = RapidNode(runtime)
        node._install(Configuration.of(MEMBERS), joined=MEMBERS, removed=())
        joiner = next(
            endpoint_for(i)
            for i in range(50, 100)
            if node.topology.observer_rings(node.addr, endpoint_for(i))
        )
        node.desk.pending[joiner] = 77
        node.decider.on_alert(
            Alert(MEMBERS[1], joiner, AlertKind.JOIN, node.config.config_id, (0, 1, 2), 77)
        )
        node._alert_batch.clear()
        runtime.time = REINFORCEMENT_TIMEOUT
        node._reinforce_scan(runtime.time)
        assert [(a.subject, a.kind, a.joiner_uuid) for a in node._alert_batch] == [
            (joiner, AlertKind.JOIN, 77)
        ]

    def test_an_install_raises_again_the_alerts_its_view_still_needs(self):
        """Alerts outlive their view: what a member alerted about and the
        new view still lists is alerted about again under the new
        ``config_id``; a subject the new view dropped is not."""
        runtime = SteppingRuntime(MEMBERS[0])
        node = RapidNode(runtime)
        node._install(Configuration.of(MEMBERS), joined=MEMBERS, removed=())
        subjects = node.topology.subjects_of(node.addr)
        departs, joiner = subjects[0], endpoint_for(50)
        new = Configuration.of([m for m in MEMBERS if m != departs] + [joiner], seq=1)
        topology = KRingTopology.for_configuration(new, node.settings.k)
        stays = min(set(subjects) & set(topology.subjects_of(node.addr)))
        node._alert((stays, departs))
        node._install(new, joined=(joiner,), removed=(departs,))
        assert [(a.subject, a.kind, a.config_id) for a in node._alert_batch] == [
            (stays, AlertKind.REMOVE, new.config_id)
        ]
        assert node.monitor.alerted == {stays}

    def test_rapid_c_members_watch_and_vouch_but_decide_nothing(self, monkeypatch):
        built = {FastPaxos: [], MultiNodeCutDetector: []}
        for cls, log in built.items():
            init = cls.__init__

            def counting(self, *args, _init=init, _log=log, **kwargs):
                _log.append(kwargs.get("runtime"))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        harness = harness_for("rapid-c", seed=1)
        endpoints = harness.bootstrap(8, seed_delay=2.0, stagger=1.0)
        assert harness.run_until_converged(8, timeout=120.0) is not None
        # Every consensus instance and cut detector of the run was built by
        # an ensemble member: one of each per view it served.
        ensemble = set(harness.ensemble_endpoints)
        assert built[FastPaxos] and {rt.addr for rt in built[FastPaxos]} <= ensemble
        assert len(built[MultiNodeCutDetector]) == len(built[FastPaxos])
        for ep in endpoints:
            member = harness.agents[ep]
            assert type(member) is CentralizedClusterNode
            assert not isinstance(member, RapidNode)
            parts = [member, member.monitor, member.desk]
            held = [value for part in parts for value in vars(part).values()]
            assert not any(
                isinstance(value, (ViewChanger, FastPaxos, MultiNodeCutDetector))
                for value in held
            )
            # It vouches for joiners its ensemble sends to it; it is nobody's seed.
            assert PreJoinRequest not in member._dispatch
            assert member.desk.pending == {}
        rapid = harness_for("rapid", seed=1)
        rapid.bootstrap(1)
        (node,) = rapid.agents.values()
        for server in harness.ensemble:
            assert type(server) is EnsembleNode
            assert type(server.decider) is type(node.decider) is ViewChanger
            assert type(server.desk) is type(node.desk)
            assert server.config.config_id == harness.agents[endpoints[0]].config.config_id

    def test_an_ensemble_member_answers_only_a_stale_view_probe(self):
        with pytest.raises(ValueError):
            EnsembleNode(SteppingRuntime(endpoint_for(9)), ENSEMBLE)
        server = EnsembleNode(SteppingRuntime(ENSEMBLE[0]), ENSEMBLE, initial_members=MEMBERS)
        current, member = server.config, MEMBERS[2]
        server.on_message(member, ViewProbe(member, current.config_id))
        assert server.runtime.sent == []
        server.on_message(member, ViewProbe(member, current.config_id ^ 1))
        assert [(dst, msg) for _, dst, msg in server.runtime.sent] == [
            (
                member,
                ViewUpdate(
                    ENSEMBLE[0], current.config_id, current.members, current.uuids,
                    current.seq,
                ),
            )
        ]

    def test_a_rapid_c_member_follows_the_ensemble_until_it_is_removed(self):
        """Views come from the ensemble: an update that arrives before the
        member is in, or that is no newer than its view, is ignored; its
        probe asks one ensemble member every ``VIEW_PROBE_INTERVAL``; the
        update that removes it kicks it, and a departed member's probe
        tick is its last."""
        runtime = SteppingRuntime(MEMBERS[2])
        node = CentralizedClusterNode(runtime, ENSEMBLE)
        node.start()
        with pytest.raises(RuntimeError):
            node.start()
        config = Configuration.of(MEMBERS)
        newer = Configuration.of(MEMBERS[:-1], seq=1)

        def update(view):
            return ViewUpdate(ENSEMBLE[1], view.config_id, view.members, view.uuids, view.seq)

        node.on_message(ENSEMBLE[1], update(newer))  # early: still joining
        assert node.status == NodeStatus.JOINING and node.config is None
        node.on_message(
            ENSEMBLE[0],
            JoinResponse(
                ENSEMBLE[0], JoinStatus.SAFE_TO_JOIN, config.config_id, config.view_snapshot()
            ),
        )
        assert node.status == NodeStatus.ACTIVE and node.config is config
        node.on_message(ENSEMBLE[1], update(config))  # stale: no newer
        assert node.config is config
        runtime.run_until(VIEW_PROBE_INTERVAL)
        probes = [(dst, msg) for _, dst, msg in runtime.sent if type(msg) is ViewProbe]
        assert len(probes) == 1 and probes[0][0] in ENSEMBLE
        assert probes[0][1] == ViewProbe(node.addr, config.config_id)
        node.on_message(ENSEMBLE[1], update(newer))
        assert node.config is newer
        gone = Configuration.of([m for m in MEMBERS if m != node.addr], seq=2)
        node.on_message(ENSEMBLE[1], update(gone))
        assert node.status == NodeStatus.KICKED and node.config is newer
        runtime.run_until(4 * VIEW_PROBE_INTERVAL)
        assert [msg for _, _, msg in runtime.sent if type(msg) is ViewProbe] == [
            msg for _, msg in probes
        ]
        assert runtime.live_timers() == []
