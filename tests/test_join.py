"""Join-path edge cases: one answer shape, responder dedup, retry identity.

Pins the properties of the join/bootstrap dissemination path:

* a rejoiner is answered with the view's snapshot, exactly as a
  first-time joiner is, and installs the object every member holds;
* a snapshot that does not hash to its response's ``config_id`` is
  never installed;
* ``UUID_IN_USE`` makes a rejoiner mint a fresh logical identity and
  still complete the join;
* exactly one SAFE_TO_JOIN responder answers each admitted joiner,
  deterministically across seeds;
* join retry timeouts are jittered and clear the in-flight config id;
* one short loss window on one process, at any 20 ms offset around a
  join or a graceful leave, leaves nobody on a closed view, joining, or
  listing the leaver (the view-boundary scan).
"""

import pytest

from repro.core.configuration import Configuration
from repro.core.events import NodeStatus
from repro.core.messages import JoinResponse, JoinStatus, ViewUpdate
from repro.core.join import JoinProtocol
from repro.core.node_id import Endpoint, NodeId
from repro.core.settings import RapidSettings
from repro.experiments.harness import RapidCHarness, RapidHarness
from repro.sim.cluster import endpoint_for
from repro.sim.faults import Loss
from repro.sim.network import Network, wire_size


def settings_for_tests(**overrides) -> RapidSettings:
    defaults = dict(k=4, h=3, l=1, join_timeout=2.0)
    defaults.update(overrides)
    return RapidSettings(**defaults)


def converged_cluster(n: int, seed: int = 1, **setting_overrides) -> RapidHarness:
    cluster = RapidHarness(seed=seed, settings=settings_for_tests(**setting_overrides))
    cluster.bootstrap(n, seed_delay=2.0, stagger=1.0)
    assert cluster.run_until_converged(n, timeout=120.0) is not None
    return cluster


def leave_silently(cluster: RapidHarness, node) -> None:
    """A graceful leave whose every LeaveNotification is lost."""
    network = cluster.network
    send = network.send
    network.send = lambda src, dst, msg: None
    try:
        node.leave()
    finally:
        network.send = send


def joiner_on(runtime, on_admitted=lambda *args: None) -> JoinProtocol:
    """A bare joiner-side state machine: no node, one seed."""
    return JoinProtocol(
        runtime,
        RapidSettings(),
        (endpoint_for(99),),
        NodeId.fresh(runtime.addr),
        (),
        on_admitted,
    )


def distinct_views(cluster: RapidHarness) -> set:
    """Config ids installed across the live, active processes."""
    nodes = (cluster.agents[ep] for ep in cluster.live_endpoints())
    return {node.config.config_id for node in nodes if node.view_size}


class RecordingNetwork:
    """Wraps a cluster's network send/broadcast to log JoinResponses."""

    def __init__(self, cluster: RapidHarness) -> None:
        self.responses: list = []  # (sender, dst, status, seq, kind)
        network = cluster.network
        orig_send, orig_broadcast = network.send, network.broadcast

        def record(src, dst, msg):
            if isinstance(msg, JoinResponse):
                kind = "view" if msg.view is not None else "bare"
                # Keyed by view *seq*, not config_id: logical uuids come
                # from a process-wide counter, so config ids are not
                # stable across two runs in one process (seqs are).
                seq = msg.view.seq if msg.view is not None else -1
                self.responses.append((src, dst, msg.status, seq, kind))

        def send(src, dst, msg):
            record(src, dst, msg)
            orig_send(src, dst, msg)

        def broadcast(src, dsts, msg):
            for dst in dsts:
                record(src, dst, msg)
            orig_broadcast(src, dsts, msg)

        network.send = send
        network.broadcast = broadcast

    def safe_to_join(self) -> list:
        return [r for r in self.responses if r[2] == JoinStatus.SAFE_TO_JOIN]


class TestRejoinPaths:
    def _leave_and_rejoin(self, rejoin_after: float = 8.0):
        cluster = RapidHarness(seed=3, settings=settings_for_tests())
        recorder = RecordingNetwork(cluster)
        cluster.bootstrap(10, seed_delay=2.0, stagger=1.0)
        assert cluster.run_until_converged(10, timeout=120.0) is not None
        victim = endpoint_for(4)
        node = cluster.agents[victim]
        recorder.responses.clear()
        node.leave()
        cluster.engine.schedule(rejoin_after, node.rejoin)
        assert cluster.run_until_converged(10, timeout=120.0) is not None
        return cluster, node, recorder

    def test_a_rejoiner_is_answered_with_the_views_snapshot(self):
        # The one answer shape: a rejoiner gets the view's snapshot, once,
        # and what it installs is the object everyone else holds.
        cluster, node, recorder = self._leave_and_rejoin()
        assert node.status == NodeStatus.ACTIVE
        assert distinct_views(cluster) == {node.config.config_id}
        kinds = [r[4] for r in recorder.safe_to_join() if r[1] == node.addr]
        assert kinds == ["view"]
        assert node.config.size == 10
        assert all(agent.config is node.config for agent in cluster.agents.values())

    def test_uuid_in_use_mints_fresh_identity(self):
        # Rejoin immediately: the old incarnation is still in everyone's
        # view, so the seed answers UUID_IN_USE until the removal lands.
        cluster = converged_cluster(8, seed=2)
        victim = endpoint_for(3)
        node = cluster.agents[victim]
        node.leave()
        original_uuid = node.node_id.uuid
        node.rejoin()
        rejoin_uuid = node.node_id.uuid
        assert rejoin_uuid != original_uuid
        assert cluster.run_until_converged(8, timeout=120.0) is not None
        assert node.status == NodeStatus.ACTIVE
        # UUID_IN_USE forced at least one further fresh identity.
        assert node.node_id.uuid != original_uuid
        assert distinct_views(cluster) == {node.config.config_id}

    def test_silent_leaver_fails_out_via_bootstrap_budget(self):
        # A leaver whose LeaveNotification is lost (here: suppressed
        # entirely) keeps answering probes with bootstrapping acks; past
        # PROBE_BOOTSTRAP_BUDGET those count as failures, so the departed
        # member is removed instead of lingering in the view forever.
        cluster = converged_cluster(10, seed=6)
        victim = endpoint_for(4)
        node = cluster.agents[victim]
        leave_silently(cluster, node)
        survivors = [n for ep, n in cluster.agents.items() if ep != victim]
        deadline = cluster.engine.now + 60.0
        while cluster.engine.now < deadline:
            cluster.run_for(1.0)
            if all(n.size == 9 for n in survivors):
                break
        assert all(n.size == 9 for n in survivors)

    def test_zombie_rejoin_eventually_completes(self):
        # Same silent leave, followed by a rejoin: the stale incarnation
        # must fail out of the view (the rejoiner's own bootstrapping
        # acks are budget-limited) and the rejoin must then complete.
        cluster = converged_cluster(10, seed=7)
        victim = endpoint_for(4)
        node = cluster.agents[victim]
        leave_silently(cluster, node)
        cluster.engine.schedule(2.0, node.rejoin)
        assert cluster.run_until_converged(10, timeout=120.0) is not None
        assert node.status == NodeStatus.ACTIVE
        assert distinct_views(cluster) == {node.config.config_id}

    def test_config_changed_restart_still_completes(self):
        # Two staggered joiners: the second's first attempt can be
        # superseded by the view change admitting the first; the
        # CONFIG_CHANGED restart must still complete both joins.
        cluster = converged_cluster(8, seed=4)
        seed_ep = endpoint_for(0)
        cluster.add_node(endpoint_for(50), seeds=(seed_ep,), start_at=cluster.engine.now + 0.1)
        cluster.add_node(endpoint_for(51), seeds=(seed_ep,), start_at=cluster.engine.now + 0.6)
        assert cluster.run_until_converged(10, timeout=120.0) is not None
        assert len(distinct_views(cluster)) == 1


class TestRoleMetadata:
    """``metadata={"role": ...}`` travels with membership: in the JOIN
    alerts to every decider's table, from there in snapshots to later
    joiners and to rejoiners whose last view predates the member."""

    def test_a_joiners_role_reaches_members_later_joiners_and_rejoiners(self):
        cluster = converged_cluster(8, seed=2)
        recorder = RecordingNetwork(cluster)
        seed, away, backend, late = (endpoint_for(i) for i in (0, 5, 20, 21))
        role = {"role": "backend"}

        def everyone_else_sees(size):
            def reached():
                rest = (a for ep, a in cluster.agents.items() if ep != away)
                return all(agent.view_size == size for agent in rest)

            deadline = cluster.engine.now + 60.0
            while not reached() and cluster.engine.now < deadline:
                cluster.run_for(0.5)
            return reached()

        rejoiner = cluster.agents[away]
        rejoiner.leave()  # its last view is the 8-view, which has no backend
        assert everyone_else_sees(7)
        cluster.add_node(backend, seeds=(seed,), metadata=role)
        assert everyone_else_sees(8)
        members = [a for ep, a in cluster.agents.items() if ep not in (away, backend)]
        assert all(agent.metadata_store.get(backend) == role for agent in members)
        assert backend not in rejoiner.metadata_store

        rejoiner.rejoin()
        assert cluster.run_until_converged(9, timeout=60.0) is not None
        kinds = [r[4] for r in recorder.safe_to_join() if r[1] == away]
        assert kinds == ["view"]
        assert rejoiner.metadata_store.get(backend) == role

        newcomer = cluster.add_node(late, seeds=(seed,))
        assert cluster.run_until_converged(10, timeout=60.0) is not None
        kinds = [r[4] for r in recorder.safe_to_join() if r[1] == late]
        assert kinds == ["view"]
        assert newcomer.metadata_store.get(backend) == role
        # Nobody else announced a role, and nobody invented one.
        for agent in cluster.agents.values():
            roles = {ep: meta for ep, meta in agent.metadata_store.items() if meta}
            assert roles == {backend: role}, agent.addr


    def test_rapid_c_hands_a_joiners_role_to_members_in_its_view_updates(self):
        """Rapid-C: the ensemble files the role from the JOIN alerts it
        decides on, and its ViewUpdate carries the view's table to the
        members that learn the view that way; a departure takes the role
        with it."""
        cluster = RapidCHarness(seed=1)
        updates = []
        broadcast = cluster.network.broadcast

        def tap(src, dsts, msg):
            if type(msg) is ViewUpdate:
                updates.extend((dst, msg) for dst in dsts)
            broadcast(src, dsts, msg)

        cluster.network.broadcast = tap
        endpoints = cluster.bootstrap(6, seed_delay=2.0, stagger=1.0)
        assert cluster.run_until_converged(6, timeout=120.0) is not None
        backend, role = endpoint_for(20), {"role": "backend"}
        cluster.add_node(backend, seeds=endpoints[:1], metadata=role)
        assert cluster.run_until_converged(7, timeout=120.0) is not None
        for server in cluster.ensemble:
            assert server.metadata_store == {backend: role}
        told = {dst for dst, msg in updates if backend in msg.members}
        assert told == set(endpoints)
        assert all(msg.metadata == ((backend, (("role", "backend"),)),)
                   for dst, msg in updates if backend in msg.members)
        for ep in endpoints:
            assert cluster.agents[ep].metadata_store.get(backend) == role
        cluster.crash([backend])
        assert cluster.run_until_converged(6, timeout=120.0) is not None
        for ep in endpoints:
            assert backend not in cluster.agents[ep].metadata_store
        assert all(server.metadata_store == {} for server in cluster.ensemble)


class TestTamperedResponses:
    """The view a joiner installs is the process-wide shared object, so the
    integrity check guards everyone: content that does not hash to the
    response's ``config_id`` must never be installed under it."""

    MEMBERS = tuple(sorted(endpoint_for(i) for i in range(6)))
    UUIDS = tuple(range(200, 206))

    def _joiner(self):
        from repro.sim.engine import Engine
        from repro.sim.process import SimRuntime

        engine = Engine()
        runtime = SimRuntime(engine, Network(engine, seed=1), self.MEMBERS[2], seed=1)
        admitted = []
        protocol = joiner_on(runtime, lambda *args: admitted.append(args))
        protocol.begin()
        return protocol, admitted

    def _answer(self, protocol, config_id, view=None):
        protocol.on_join_response(
            endpoint_for(99),
            JoinResponse(
                sender=endpoint_for(99),
                status=JoinStatus.SAFE_TO_JOIN,
                config_id=config_id,
                view=view,
            ),
        )

    @pytest.mark.parametrize(
        "members, uuids",
        [
            (MEMBERS[:5], UUIDS[:5]),  # a member dropped
            (MEMBERS, UUIDS[:5] + (999,)),  # an incarnation swapped
            (MEMBERS[:4] + (MEMBERS[5], MEMBERS[4]), UUIDS),  # unsorted
            (MEMBERS[:5] + (MEMBERS[4],), UUIDS),  # duplicated
            (MEMBERS, UUIDS[:5]),  # misaligned
        ],
    )
    def test_snapshot_not_matching_its_config_id_is_refused(self, members, uuids):
        from repro.core.messages import ViewSnapshot

        held = Configuration(self.MEMBERS, self.UUIDS, seq=7)  # someone's view
        protocol, admitted = self._joiner()
        forged = ViewSnapshot(members=members, uuids=uuids, seq=7)
        self._answer(protocol, held.config_id, view=forged)
        assert not protocol.completed and not admitted
        # The honest answer still goes through, onto the held object.
        self._answer(protocol, held.config_id, view=held.view_snapshot())
        assert protocol.completed and admitted[0][1] is held


class TestSingleResponder:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exactly_one_safe_to_join_per_admission(self, seed):
        cluster = RapidHarness(seed=seed, settings=settings_for_tests())
        recorder = RecordingNetwork(cluster)
        cluster.bootstrap(12, seed_delay=2.0, stagger=1.0)
        assert cluster.run_until_converged(12, timeout=120.0) is not None
        per_admission: dict = {}
        for sender, dst, _, seq, _ in recorder.safe_to_join():
            per_admission.setdefault((dst, seq), []).append(sender)
        assert per_admission, "no joins observed"
        for key, senders in per_admission.items():
            assert len(senders) == 1, (key, senders)

    def test_replay_assigns_identical_responders(self):
        def responder_map(seed):
            cluster = RapidHarness(seed=seed, settings=settings_for_tests())
            recorder = RecordingNetwork(cluster)
            cluster.bootstrap(12, seed_delay=2.0, stagger=1.0)
            assert cluster.run_until_converged(12, timeout=120.0) is not None
            return {
                (dst, seq): sender
                for sender, dst, _, seq, _ in recorder.safe_to_join()
            }

        assert responder_map(5) == responder_map(5)


class TestRetryBehavior:
    def test_retry_jitter_spreads_timeouts(self):
        # Two nodes arming the same nominal delay must not collide on the
        # same instant (their per-process RNG streams differ).
        from repro.sim.engine import Engine
        from repro.sim.process import SimRuntime

        engine = Engine()
        network = Network(engine, seed=1)
        fire_times = []
        for i in range(4):
            runtime = SimRuntime(engine, network, endpoint_for(i), seed=1)
            protocol = joiner_on(runtime)
            protocol.begin()
            fire_times.append(protocol._timeout_handle._event.time)
        assert len(set(fire_times)) == len(fire_times)

    def test_restart_clears_inflight_config_id(self):
        from repro.sim.engine import Engine
        from repro.sim.process import SimRuntime

        engine = Engine()
        network = Network(engine, seed=1)
        runtime = SimRuntime(engine, network, endpoint_for(0), seed=1)
        protocol = joiner_on(runtime)
        protocol.begin()
        protocol._config_id = 1234
        protocol.on_join_response(
            endpoint_for(99),
            JoinResponse(
                sender=endpoint_for(99),
                status=JoinStatus.CONFIG_CHANGED,
                config_id=5678,
            ),
        )
        assert protocol._config_id is None


def harness_alerts(cluster: RapidHarness) -> int:
    """Alerts every node of the cluster has enqueued so far."""
    return cluster.metrics.snapshot()["cluster.alerts_enqueued"]


class TestDuplicateIdempotency:
    """Regression tests for join-path bugs shaken out by the message
    adversary: network-level duplicates must not amplify join traffic."""

    def test_duplicate_join_request_enqueues_one_alert(self):
        from repro.core.messages import JoinRequest

        cluster = converged_cluster(6)
        joiner = endpoint_for(77)
        # Pick a member that actually observes the joiner in the current
        # topology (others answer CONFIG_CHANGED and never alert).
        node = next(
            n
            for n in cluster.agents.values()
            if tuple(n.topology.observer_rings(n.addr, joiner))
        )
        msg = JoinRequest(
            sender=joiner, uuid=123456, config_id=node.config.config_id, metadata=()
        )
        alerts = harness_alerts(cluster)
        node.on_message(joiner, msg)
        assert node.desk.pending[joiner] == 123456
        node.on_message(joiner, msg)  # network duplicate
        assert node.desk.pending[joiner] == 123456
        assert harness_alerts(cluster) == alerts + 1
        # A genuinely new incarnation (fresh uuid) must still re-alert.
        fresh = JoinRequest(
            sender=joiner, uuid=999999, config_id=node.config.config_id, metadata=()
        )
        node.on_message(joiner, fresh)
        assert node.desk.pending[joiner] == 999999
        assert harness_alerts(cluster) == alerts + 2

    def test_duplicate_safe_to_join_fans_requests_once(self):
        from repro.core.messages import PreJoinResponse
        from repro.sim.engine import Engine
        from repro.sim.process import SimRuntime

        engine = Engine()
        network = Network(engine, seed=1)
        sent = []
        orig_send = network.send

        def send(src, dst, msg):
            sent.append(type(msg).__name__)
            orig_send(src, dst, msg)

        network.send = send
        runtime = SimRuntime(engine, network, endpoint_for(0), seed=1)
        protocol = joiner_on(runtime)
        protocol.begin()
        msg = PreJoinResponse(
            sender=endpoint_for(99),
            status=JoinStatus.SAFE_TO_JOIN,
            config_id=42,
            observers=tuple(endpoint_for(i) for i in (10, 11, 12)),
        )
        protocol.on_pre_join_response(msg.sender, msg)
        assert sent.count("JoinRequest") == 3
        deadline = protocol._timeout_handle._event.time
        protocol.on_pre_join_response(msg.sender, msg)  # network duplicate
        assert sent.count("JoinRequest") == 3  # not re-fanned
        assert protocol._timeout_handle._event.time == deadline  # not re-armed
        # A later attempt (the in-flight id was cleared by a restart)
        # fans out again.
        protocol._config_id = None
        protocol.on_pre_join_response(msg.sender, msg)
        assert sent.count("JoinRequest") == 6


class TestSnapshotSizing:
    def test_view_snapshot_size_is_memoized(self):
        from repro.core.messages import ViewSnapshot

        snapshot = ViewSnapshot(
            members=tuple(endpoint_for(i) for i in range(64)),
            uuids=tuple(range(64)),
            seq=7,
        )
        first = wire_size(snapshot)
        assert snapshot.__dict__.get("_wire_size") is not None
        assert wire_size(snapshot) == first
        # A response embedding the interned snapshot reuses the memo.
        response = JoinResponse(
            sender=endpoint_for(0),
            status=JoinStatus.SAFE_TO_JOIN,
            config_id=1,
            view=snapshot,
        )
        assert wire_size(response) > first


def strand_one_member():
    """A converged cluster that decides one join while a member hears nothing.

    Of 16 members, everything sent to the last is dropped for one second,
    which covers the whole view change (the join installs 0.1 s after it
    starts) but is too short for any detector to suspect an edge.  The
    member misses the JOIN alerts, the votes and the decision, so it is
    left ACTIVE on the configuration the others closed, with no vote and
    nothing alerted, yet still listed in their view; the ``Decision``s its
    observers send back when its probes name the closed view are lost too.
    Returns the harness, at the end of the loss window, and the stranded
    member's endpoint.
    """
    n = 16
    cluster = RapidHarness(seed=1)
    members = cluster.bootstrap(n, seed_delay=1.0)
    assert cluster.run_until_converged(n, timeout=120.0) is not None
    cluster.run_for(10.0)
    stranded = members[-1]
    now = cluster.engine.now
    cluster.network.add_rule(
        Loss(dst=frozenset({stranded}), start=now, end=now + 1.0)
    )
    cluster.add_node(endpoint_for(n), seeds=(members[0],))
    cluster.run_for(1.0)
    return cluster, stranded


def test_a_member_cut_off_from_one_view_change_is_left_behind_silently():
    """The stranded state, reached without a timing race: ACTIVE on a
    closed configuration, no vote, no pending alert, and still a member of
    everyone else's view."""
    cluster, stranded = strand_one_member()
    node = cluster.agents[stranded]
    ahead = cluster.agents[cluster.endpoints[0]]
    assert node.status == NodeStatus.ACTIVE
    assert node.config.seq == ahead.config.seq - 1
    assert node.decider.consensus.my_vote is None
    assert not node.monitor.alerted
    assert stranded in ahead.config.members


def test_a_stranded_member_catches_up_with_the_cluster():
    """The stranded member has nothing to alert and no vote to pull for,
    but it keeps probing and acking the members around it, and those
    name the closed view: the members it reaches answer with the logged
    ``Decision``, and all 17 end on one view."""
    cluster, _ = strand_one_member()
    assert cluster.run_until_converged(len(cluster.agents), timeout=120.0) is not None
    assert cluster.ledger.report()["ok"] is True


def leave_during_a_join():
    """A converged cluster in which a member leaves while a join is decided.

    Of 16 members, one calls ``leave()`` 0.05 s after a join starts; the
    join installs at 0.10 s.  (Any leave from 0.01 s to 0.10 s after the
    start lands the same way; at 0 s the two are decided together and from
    0.11 s on the leave is counted in the new view.)  Its eight observers
    accept the ``LeaveNotification``s, which name the view the join is
    closing, and raise their REMOVE alerts in that view; the batches, due
    one ``batching_window`` (0.1 s) later, are still buffered at the
    install, which clears them.  Returns the harness, 0.08 s after the
    join started, and the departed member's endpoint.
    """
    n = 16
    cluster = RapidHarness(seed=1)
    members = cluster.bootstrap(n, seed_delay=1.0)
    assert cluster.run_until_converged(n, timeout=120.0) is not None
    cluster.run_for(10.0)
    leaver = members[-2]
    cluster.add_node(endpoint_for(n), seeds=(members[0],))
    cluster.run_for(0.05)
    closing = cluster.agents[leaver].config
    cluster.agents[leaver].leave()
    cluster.run_for(0.03)
    observers = [
        node for node in cluster.agents.values() if leaver in node.monitor.alerted
    ]
    assert observers and all(node.config is closing for node in observers)
    return cluster, leaver


def test_a_graceful_leave_during_a_view_change_is_removed():
    """The observers' REMOVE alerts outlive the view they were raised in:
    the install that clears the buffered batches raises them again in the
    new view, so the 16 others agree on a view without the leaver within
    5 s."""
    cluster, leaver = leave_during_a_join()
    cluster.run_for(5.0)
    others = [node for ep, node in cluster.agents.items() if ep != leaver]
    assert all(leaver not in node.config for node in others)
    assert len({node.config for node in others}) == 1
    assert cluster.ledger.report()["ok"] is True


@pytest.mark.slow
def test_stranded_members_rejoin_the_running_cluster():
    """The stranded member at scale, reached by a timing race.

    ``join_churn`` at n=128 with 16 joiners and 8 rejoins, seed 11: on a
    tree whose probe path ignored ``config_id``, two members installed
    seq 5 after the rest of the cluster had begun installing seq 6, whose
    votes and ``Decision`` had reached them on seq 4 and been dropped as
    foreign-configuration traffic.  They stayed ACTIVE on seq 5 for the
    whole run while the cluster ran on to seq 13, and the run never
    re-converged within its 180 s churn timeout.  Their probes name seq 5,
    so their observers now answer with the Decision that closed it.
    """
    from repro.experiments.scenarios import join_churn_experiment

    result = join_churn_experiment("rapid", 128, joiners=16, rejoins=8, seed=11)
    assert result["harness"].ledger.report()["ok"] is True
    assert result["churn_convergence"] is not None


# ------------------------------------------------------- view-boundary scan
#
# One short loss window on one process, at every 20 ms offset around one
# view change.  ``strand_one_member`` and ``leave_during_a_join`` are two
# hand-picked cells of this grid.

SCAN_EVENTS = ("join", "leave")
#: Each fault's scope over its victim: loss at its input or output chain.
SCAN_FAULTS = {"IngressLoss": "dst", "EgressLoss": "src"}
SCAN_DURATIONS = (0.2, 1.0)
SCAN_OFFSETS = tuple(round(-0.04 + 0.02 * step, 2) for step in range(15))


def view_boundary_cells(n: int) -> list:
    """Every ``(n, event, fault, victim, duration, offset)`` cell at ``n``:
    the victim is member 0 (the joiner's seed) or member n-1."""
    return [
        (n, event, fault, victim, duration, offset)
        for event in SCAN_EVENTS
        for fault in SCAN_FAULTS
        for victim in (0, n - 1)
        for duration in SCAN_DURATIONS
        for offset in SCAN_OFFSETS
    ]


def view_boundary_cell(n, event, fault, victim, duration, offset) -> list:
    """Run one cell of the scan and return what its oracle found wrong.

    A converged ``n``-member cluster (seed 1) either admits one joiner
    through member 0 or sees member n-2 leave gracefully.  ``fault``
    covers member ``victim`` for ``duration`` seconds, starting ``offset``
    seconds after the event.  30 s after the event no process may be
    JOINING, every ACTIVE process must be on one configuration, and none
    may list the leaver; the list names each check that failed.
    """
    cluster = RapidHarness(seed=1)
    members = cluster.bootstrap(n, seed_delay=1.0)
    assert cluster.run_until_converged(n, timeout=120.0) is not None
    cluster.run_for(10.0)
    event_at = cluster.engine.now + 0.1
    cluster.network.add_rule(
        Loss(
            **{SCAN_FAULTS[fault]: frozenset({members[victim]})},
            start=event_at + offset,
            end=event_at + offset + duration,
        )
    )
    cluster.run_for(event_at - cluster.engine.now)
    leaver = None
    if event == "join":
        cluster.add_node(endpoint_for(n), seeds=(members[0],))
    else:
        leaver = members[-2]
        cluster.agents[leaver].leave()
    cluster.run_for(30.0)
    nodes = [cluster.agents[ep] for ep in cluster.live_endpoints()]
    active = [node for node in nodes if node.status == NodeStatus.ACTIVE]
    complaints = []
    if any(node.status == NodeStatus.JOINING for node in nodes):
        complaints.append("joining")
    if len({node.config.config_id for node in active}) != 1:
        complaints.append("split")
    if leaver is not None and any(leaver in node.config for node in active):
        complaints.append("leaver listed")
    return complaints


#: The 42 cells that failed at n=8 while probes ignored their
#: ``config_id`` and an install dropped the alerts raised in the view it
#: closed.  Every one is ingress loss, of either length: the joiner's seed
#: from +0.02 s to +0.10 s, or the last member from -0.04 s to +0.10 s, was
#: left on the closed configuration; across a leave, member 0 was, and the
#: leaver stayed listed.
STRANDING_CELLS_N8 = tuple(
    (8, event, "IngressLoss", victim, duration, offset)
    for event, victim, offsets in (
        ("join", 0, SCAN_OFFSETS[3:8]),
        ("join", 7, SCAN_OFFSETS[:8]),
        ("leave", 0, SCAN_OFFSETS[:8]),
    )
    for duration in SCAN_DURATIONS
    for offset in offsets
)


@pytest.mark.parametrize("cell", STRANDING_CELLS_N8, ids=str)
def test_a_loss_window_at_a_view_boundary_strands_nobody(cell):
    assert view_boundary_cell(*cell) == []


@pytest.mark.slow
def test_no_cell_of_the_view_boundary_scan_strands_anybody():
    """All 480 cells: n = 8 and 16, a join or a leave, ingress or egress
    loss on member 0 or n-1, for 0.2 s or 1.0 s, at 15 offsets."""
    failing = [
        cell
        for n in (8, 16)
        for cell in view_boundary_cells(n)
        if view_boundary_cell(*cell)
    ]
    assert failing == []
