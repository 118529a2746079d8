"""Multi-process cut detection (paper section 4.2), tested directly.

Three layers.  Unit tests pin what one detector does with one alert: the
three zones at the watermarks, idempotence, the alerts it ignores, the
implicit-alert rule and the queries reinforcement reads.  A differential
test runs the bitmask detector against the dict-of-dicts detector it
replaced (``tests/reference_cut_detector.py``) over thousands of seeded
random alert streams.  The last class checks how ``ViewChanger`` feeds it:
one loop per batch, one count per batch, one cut object per view; and the
last test how Rapid-C's ensemble admits an empty view's first member.
"""

import random
from itertools import groupby, permutations

import pytest

from reference_cut_detector import ReferenceCutDetector
from repro.core.configuration import Configuration
from repro.core.cut_detector import MultiNodeCutDetector
from repro.core.membership import ViewChanger
from repro.core.messages import Alert, AlertKind, BatchedAlerts, Change
from repro.core.ring import KRingTopology
from repro.core.settings import RapidSettings
from repro.experiments.harness import harness_for
from repro.obs.metrics import MetricsRegistry
from repro.sim.cluster import endpoint_for
from test_roles import SteppingRuntime

JOIN, REMOVE = AlertKind.JOIN, AlertKind.REMOVE
K, H, L = 10, 9, 3
MEMBERS = [endpoint_for(i) for i in range(60)]
TOPOLOGY = KRingTopology(MEMBERS, K)
#: Members observed by K distinct processes, so the observer of ring r
#: reports ring r alone; in Endpoint order, as a cut lists them.
DISTINCT = sorted(m for m in MEMBERS if len(set(TOPOLOGY.observers_of(m))) == K)
#: A prospective member whose K expected observers are distinct.
JOINER = next(
    joiner
    for joiner in map(endpoint_for, range(500, 600))
    if len(set(TOPOLOGY.observers_of(joiner))) == K
)


def tally(detector, subject, *rings, kind=REMOVE, uuid=0, now=0.0):
    """Feed ``detector`` one alert from the observer of each of ``rings``
    (an alert names no ring: the detector counts those its observer holds)
    and return the proposal one of them returned, if any."""
    observers = detector.topology.observers_of(subject)
    reporters = list(dict.fromkeys(observers[ring] for ring in rings))
    masks = detector.topology.ring_masks(subject)
    held = sum(masks[o] for o in reporters)
    assert held == sum({1 << ring for ring in rings}), "a reporter holds other rings"
    proposals = [
        detector.receive_alert(Alert(o, subject, kind, 1, joiner_uuid=uuid), now)
        for o in reporters
    ]
    returned = [proposal for proposal in proposals if proposal is not None]
    assert len(returned) <= 1
    return returned[0] if returned else None


def subjects_of(proposal):
    return [change.endpoint for change in proposal]


def observer_chain(length):
    """Members ``s0, s1, ...`` and rings ``r0, r1, ...`` where ``s(i+1)``
    observes ``si`` on ring ``ri`` and on no other, and nobody else in the
    chain observes anybody in it — so the only implicit alerts among them
    are the ones the chain spells.  Each is observed by K distinct
    processes."""
    def extend(chain, rings):
        if len(chain) == length:
            return chain, rings
        observers = TOPOLOGY.observers_of(chain[-1])
        for ring, observer in enumerate(observers):
            if observer in chain or observer not in DISTINCT:
                continue
            candidate = chain + [observer]
            related = sum(
                a in TOPOLOGY.observers_of(b) for a, b in permutations(candidate, 2)
            )
            if related == len(candidate) - 1:
                found = extend(candidate, rings + [ring])
                if found:
                    return found
        return None

    for start in DISTINCT:
        found = extend([start], [])
        if found:
            return found
    raise AssertionError("no observer chain in this topology")


def other_rings(count, *excluded):
    return [ring for ring in range(K) if ring not in excluded][:count]


class TestZones:
    def test_watermarks_are_constructor_checked(self):
        for k, h, l in [(10, 11, 3), (10, 3, 4), (10, 9, 0), (0, 0, 0)]:
            with pytest.raises(ValueError):
                MultiNodeCutDetector(k, h, l)

    def test_noise_unstable_stable_at_the_watermarks(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = DISTINCT[2]
        zones = {}
        for ring in range(H):
            proposal = tally(detector, victim, ring)
            zones[ring + 1] = (detector.unstable_subjects(), proposal)
        assert zones[L - 1] == ([], None)
        assert zones[L] == ([victim], None)
        assert zones[H - 1] == ([victim], None)
        assert zones[H] == ([], (Change(victim, REMOVE),))

    def test_h_equal_to_k_needs_every_ring(self):
        topology = KRingTopology(MEMBERS, 3)
        detector = MultiNodeCutDetector(3, 3, 1, topology)
        victim = next(m for m in MEMBERS if len(set(topology.observers_of(m))) == 3)
        assert tally(detector, victim, 0) is None
        assert tally(detector, victim, 2) is None
        assert detector.unstable_subjects() == [victim]
        assert subjects_of(tally(detector, victim, 1)) == [victim]

    def test_duplicate_subject_ring_moves_nothing(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = DISTINCT[2]
        for ring in (0, 1, 1, 0, 1):
            assert tally(detector, victim, ring) is None
        assert detector.unstable_subjects() == []  # two rings, not five
        tally(detector, victim, 2)
        assert detector.unstable_subjects() == [victim]

    def test_conflicting_kind_is_dropped(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = DISTINCT[2]
        tally(detector, victim, 0, 1)
        assert tally(detector, victim, 2, 3, kind=JOIN, uuid=9) is None
        assert detector.kind_of(victim) == REMOVE
        assert detector.unstable_subjects() == []
        tally(detector, victim, 2)
        assert detector.unstable_subjects() == [victim]

    def test_an_alert_counts_its_observers_rings_whatever_it_names(self):
        """No alert names its rings: one from a process that observes the
        subject on no ring moves nothing, not even the subject's first
        sight, and one from an observer counts the rings it holds."""
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = DISTINCT[2]
        observers = TOPOLOGY.observers_of(victim)
        outsider = next(m for m in MEMBERS if m not in observers)
        every = tuple(range(-1, K + 8))
        for kind in (REMOVE, JOIN):
            alert = Alert(outsider, victim, kind, 1, every, joiner_uuid=7)
            assert detector.receive_alert(alert, now=4.0) is None
        assert detector.kind_of(victim) is None
        assert detector.first_seen(victim) is None
        assert detector.unstable_subjects() == []
        # The observer of ring 0 alone counts ring 0 alone, whatever it names.
        assert detector.receive_alert(Alert(observers[0], victim, REMOVE, 1, every), 6.0) is None
        assert detector.first_seen(victim) == 6.0
        assert tally(detector, victim, 1) is None
        assert detector.unstable_subjects() == []
        assert tally(detector, victim, 2) is None
        assert detector.unstable_subjects() == [victim]

    def test_one_alert_with_several_rings_jumps_noise_to_stable(self):
        """In a one-member view the member observes a joiner on every ring."""
        solo = KRingTopology(MEMBERS[:1], K)
        detector = MultiNodeCutDetector(K, H, L, solo)
        alert = Alert(MEMBERS[0], JOINER, JOIN, 1, joiner_uuid=77)
        proposal = detector.receive_alert(alert)
        assert proposal == (Change(JOINER, JOIN, 77),)
        assert detector.unstable_subjects() == []

    def test_without_a_topology_an_alert_counts_on_every_ring(self):
        """An empty view's first member is vouched for by one process as
        all K observers (Rapid-C's ensemble): a detector with no topology
        counts the vouch on every ring."""
        detector = MultiNodeCutDetector(K, K, L, None)
        proposal = detector.receive_alert(Alert(MEMBERS[0], JOINER, JOIN, 1, joiner_uuid=5))
        assert proposal == (Change(JOINER, JOIN, 5),)

    def test_cut_waits_for_every_unstable_subject_and_is_sorted(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        late, early = DISTINCT[0], DISTINCT[-1]
        assert late < early
        tally(detector, early, *range(H)[:L])
        assert tally(detector, late, *range(H)) is None  # early blocks
        proposal = tally(detector, early, *range(H))
        assert subjects_of(proposal) == [late, early]


class TestQueries:
    def test_unstable_subjects_keep_first_report_order(self):
        """Reinforcement echoes in this order, so it is part of the trace."""
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        a, b, c = DISTINCT[9], DISTINCT[3], DISTINCT[6]
        tally(detector, a, 0)
        tally(detector, b, *range(L))
        tally(detector, c, *range(L))
        tally(detector, a, *range(L))  # unstable last, reported first
        assert detector.unstable_subjects() == [a, b, c]

    def test_first_seen_and_kind_of(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = DISTINCT[2]
        tally(detector, victim, 0, now=5.0)
        tally(detector, victim, 1, now=9.0)
        tally(detector, JOINER, 0, kind=JOIN, uuid=3, now=9.5)
        assert detector.first_seen(victim) == 5.0
        assert detector.first_seen(JOINER) == 9.5
        assert (detector.kind_of(victim), detector.kind_of(JOINER)) == (REMOVE, JOIN)
        assert detector.first_seen(MEMBERS[8]) is None
        assert detector.kind_of(MEMBERS[8]) is None


class TestImplicitAlerts:
    """Section 4.2: a failing observer cannot be expected to report."""

    def test_observer_reaches_l_after_its_subject_was_blocked(self):
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        tally(detector, subject, *other_rings(L, ring))
        tally(detector, observer, *range(L - 1))
        assert detector.unstable_subjects() == [subject]
        # The observer's L-th ring makes it failing: its ring counts for
        # the subject, which is thereby stable; the observer itself blocks.
        assert tally(detector, observer, L - 1) is None
        assert detector.unstable_subjects() == [observer]
        proposal = tally(detector, observer, L)
        assert sorted(subjects_of(proposal)) == sorted([subject, observer])

    def test_observer_was_failing_before_its_subject_was_blocked(self):
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        tally(detector, observer, *range(L))
        rings = other_rings(L, ring)
        tally(detector, subject, *rings[:-1])
        assert detector.unstable_subjects() == [observer]
        tally(detector, subject, rings[-1])  # L explicit + 1 implicit
        assert detector.unstable_subjects() == [observer]

    def test_a_proposed_observer_is_still_failing(self):
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        assert tally(detector, observer, *range(L + 1))
        proposal = tally(detector, subject, *other_rings(L, ring))
        assert subjects_of(proposal) == sorted([subject, observer])

    def test_each_new_failing_observer_gets_its_own_pass(self):
        (a, b, c), (ring_ab, ring_bc) = observer_chain(3)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        tally(detector, a, *other_rings(L, ring_ab))
        assert detector.unstable_subjects() == [a]
        tally(detector, b, *other_rings(L, ring_bc))
        assert detector.unstable_subjects() == [b]  # b failing lifted a
        assert tally(detector, c, *range(L)) is None
        assert detector.unstable_subjects() == [c]  # c failing lifted b
        proposal = tally(detector, c, L)
        assert subjects_of(proposal) == sorted([a, b, c])

    def test_joiner_with_a_failing_expected_observer(self):
        expected = TOPOLOGY.observers_of(JOINER)
        observer = next(o for o in expected if o in DISTINCT)
        ring = expected.index(observer)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        tally(detector, JOINER, *other_rings(L, ring), kind=JOIN, uuid=5)
        assert detector.unstable_subjects() == [JOINER]  # nobody is failing yet
        proposal = tally(detector, observer, *range(L + 1))
        assert sorted(proposal) == sorted(
            [Change(JOINER, JOIN, 5), Change(observer, REMOVE)]
        )

    def test_joiners_are_never_failing_observers(self):
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        tally(detector, observer, *range(L + 1), kind=JOIN, uuid=5)
        tally(detector, subject, *other_rings(L, ring))
        assert detector.unstable_subjects() == [subject]

    def test_without_a_topology_nothing_is_implied(self):
        """Nor is anything tallied from a topology: with none every alert
        counts on every ring, so an observer and its subject each reach
        H at once, and nothing is left unstable to imply anything about."""
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, None)
        detector.receive_alert(Alert(MEMBERS[0], observer, REMOVE, 1))
        detector.receive_alert(Alert(MEMBERS[0], subject, REMOVE, 1))
        assert detector.unstable_subjects() == []
        assert detector.kind_of(subject) == REMOVE


class TestRepeatProposals:
    def test_a_cut_is_proposed_once_and_grows_only_by_new_subjects(self):
        """Consensus takes one vote per view, and every proposal is a
        latency sample: an alert that adds nothing stable returns nothing."""
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        second, first, noise = DISTINCT[1], DISTINCT[2], DISTINCT[5]
        assert subjects_of(tally(detector, first, *range(H))) == [first]
        assert tally(detector, noise, 0) is None
        assert tally(detector, noise, 0) is None
        assert tally(detector, second, *range(L)) is None
        later = tally(detector, second, *range(H))
        assert subjects_of(later) == [second, first]  # every stable subject
        assert tally(detector, noise, 1) is None

    def test_proposed_subjects_take_no_more_alerts(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = DISTINCT[2]
        assert tally(detector, victim, *range(H))
        assert tally(detector, victim, H) is None
        assert tally(detector, victim, 0) is None


# ------------------------------------------------------------ differential

STREAMS = 3000


def random_stream(rng):
    """One detector's parameters and the alert stream it is fed."""
    n = rng.randint(4, 100)
    k = rng.choice((3, 5, 10))
    h = rng.randint(1, k)
    l = rng.randint(1, h)
    members = [endpoint_for(i) for i in range(n)]
    topology = KRingTopology(members, k)
    failed = rng.sample(members, rng.randint(0, min(12, n - 1)))
    joiners = [endpoint_for(1000 + i) for i in range(rng.randint(0, 5))]
    alerts = []
    for subject in failed + joiners:
        kind, uuid = (REMOVE, 0) if subject in failed else (JOIN, rng.getrandbits(32))
        # One alert per observer, naming its rings (several in small
        # views) for the reference, which tallies what an alert names.
        for observer in topology.unique_observers_of(subject):
            rings = topology.observer_rings(observer, subject)
            if rng.random() < 0.15:
                continue  # lost
            if rng.random() < 0.1:
                rings = rings + [rng.choice((-1, k, k + 3))]
            if rng.random() < 0.05:
                kind_sent = JOIN if kind == REMOVE else REMOVE
            else:
                kind_sent = kind
            alert = Alert(observer, subject, kind_sent, 1, tuple(rings), uuid)
            alerts.extend([alert] * rng.choice((1, 1, 1, 2, 3)))
    rng.shuffle(alerts)
    return k, h, l, topology, alerts


def test_bitmask_detector_agrees_with_the_reference_on_random_streams():
    rng = random.Random(20181)
    proposals = repeats = 0
    for number in range(STREAMS):
        k, h, l, topology, alerts = random_stream(rng)
        new = MultiNodeCutDetector(k, h, l, topology)
        old = ReferenceCutDetector(k, h, l, topology)
        where = f"stream {number} (K={k} H={h} L={l})"
        returned = set()  # subjects the reference has proposed so far
        for step, alert in enumerate(alerts):
            now = float(step)
            expected = old.receive_alert(alert, now)
            # The reference returns the whole stable set again whenever
            # nothing is unstable; the detector only when it has grown.
            if expected is not None:
                repeat = returned.issuperset(subjects_of(expected))
                returned.update(subjects_of(expected))
                repeats += repeat
                if repeat:
                    expected = None
            assert new.receive_alert(alert, now) == expected, where
            proposals += expected is not None
            assert new.unstable_subjects() == old.unstable_subjects(), where
            subject = alert.subject
            assert new.kind_of(subject) == old.kind_of(subject), where
            assert new.first_seen(subject) == old.first_seen(subject), where
    assert proposals > STREAMS and repeats > STREAMS  # the streams do reach both


# ------------------------------------------------------------- ViewChanger

ME = endpoint_for(0)


def decider(config, addr, decided=None, metrics=None):
    """A ViewChanger deciding for ``config`` as member ``addr``; ``decided``
    collects what it decides and it moves on to each new view, as an owner
    would make it."""
    settings = RapidSettings()

    def on_decide(old, new, cut):
        if decided is not None:
            decided.append(cut)
        changer.reset(new, KRingTopology.for_configuration(new, settings.k), False)

    changer = ViewChanger(
        SteppingRuntime(addr), settings, lambda payload: None, on_decide, metrics
    )
    changer.reset(config, KRingTopology.for_configuration(config, settings.k), False)
    return changer


def vouch(config, joiner, uuid):
    return Alert(ME, joiner, JOIN, config.config_id, joiner_uuid=uuid)


def deliver(changer, alerts, batched):
    """The same alerts as one ``BatchedAlerts`` per view or one call each."""
    if batched:
        for config_id, run in groupby(alerts, key=lambda alert: alert.config_id):
            run = tuple(run)
            joins = tuple(alert for alert in run if alert.kind == JOIN)
            removes = tuple(alert for alert in run if alert.kind == REMOVE)
            changer.on_alerts(ME, BatchedAlerts(ME, config_id, joins, removes))
    else:
        for alert in alerts:
            changer.on_alert(alert)


class TestViewChangerBatches:
    def test_batch_ends_with_the_alert_that_closes_the_view(self):
        """A one-member view decides on its own vote, inside ``propose``:
        the rest of the batch was addressed to the view that just closed."""
        solo = Configuration.of([ME])
        joiners = [endpoint_for(i) for i in (1, 2, 3)]
        alerts = tuple(vouch(solo, j, 10 + i) for i, j in enumerate(joiners))
        counts = []
        for batched in (True, False):
            metrics, decided = MetricsRegistry(), []
            changer = decider(solo, ME, decided, metrics)
            deliver(changer, alerts, batched)
            assert decided == [(Change(joiners[0], JOIN, 10),)]
            assert changer.config.members == (ME, joiners[0])
            assert changer.cut_detector.kind_of(joiners[1]) is None
            counts.append(metrics.counter("cluster.alerts_received").value)
        assert counts == [1, 1]

    def test_alerts_received_counts_what_passed_the_id_check(self):
        config = Configuration.of(MEMBERS[:8])
        stranger = endpoint_for(500)
        batch = (
            Alert(ME, MEMBERS[3], REMOVE, config.config_id ^ 1),  # foreign
            Alert(ME, stranger, REMOVE, config.config_id),  # not a member
            Alert(ME, MEMBERS[3], JOIN, config.config_id, joiner_uuid=5),  # a member
            Alert(ME, MEMBERS[3], REMOVE, config.config_id),
            Alert(ME, stranger, JOIN, config.config_id, joiner_uuid=5),
        )
        counts = []
        for batched in (True, False):
            metrics = MetricsRegistry()
            changer = decider(config, MEMBERS[0], metrics=metrics)
            deliver(changer, batch, batched)
            detector = changer.cut_detector
            assert detector.kind_of(MEMBERS[3]) == REMOVE
            assert detector.kind_of(stranger) == JOIN
            counts.append(metrics.counter("cluster.alerts_received").value)
        assert counts == [4, 4]

    def test_deciders_of_one_view_share_one_cut_object(self):
        config = Configuration.of(MEMBERS[:8])
        a, b, c = (decider(config, addr) for addr in MEMBERS[:3])
        topology = a.cut_detector.topology

        def reported(subject):  # by each of its observers
            return [
                Alert(observer, subject, REMOVE, config.config_id)
                for observer in topology.unique_observers_of(subject)
            ]

        agreed, differs = reported(MEMBERS[5]), reported(MEMBERS[6])
        for alert in agreed:
            a.on_alert(alert)
            b.on_alert(alert)
        for alert in differs:
            c.on_alert(alert)
        vote = a.consensus.my_vote
        assert vote == (Change(MEMBERS[5], REMOVE),)
        assert b.consensus.my_vote is vote
        assert c.consensus.my_vote == (Change(MEMBERS[6], REMOVE),)
        assert c.consensus.my_vote is not vote


def test_rapid_c_admits_the_first_member_of_an_empty_view():
    """Nobody observes the first member of an empty view: an ensemble
    member vouches for it as all K observers, and its deciders, which have
    no topology of an empty view, count that vouch on every ring."""
    harness = harness_for("rapid-c", seed=1)
    (first,) = harness.bootstrap(1)
    assert harness.run_until_converged(1, timeout=30.0) is not None
    assert harness.agents[first].config.members == (first,)
    assert [server.config.members for server in harness.ensemble] == [(first,)] * len(
        harness.ensemble
    )
