"""Multi-process cut detection (paper section 4.2), tested directly.

Three layers.  Unit tests pin what one detector does with one alert: the
three zones at the watermarks, idempotence, the alerts it ignores, the
implicit-alert rule and the queries reinforcement reads.  A differential
test runs the bitmask detector against the dict-of-dicts detector it
replaced (``tests/reference_cut_detector.py``) over thousands of seeded
random alert streams.  The last class checks how ``ViewChanger`` feeds it:
one loop per batch, one count per batch, one cut object per view.
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
from repro.obs.metrics import MetricsRegistry
from repro.sim.cluster import endpoint_for
from test_roles import SteppingRuntime

JOIN, REMOVE = AlertKind.JOIN, AlertKind.REMOVE
K, H, L = 10, 9, 3
MEMBERS = [endpoint_for(i) for i in range(60)]
TOPOLOGY = KRingTopology(MEMBERS, K)
REPORTER = MEMBERS[0]  # the detector never reads who reported a ring


def report(subject, *rings, kind=REMOVE, uuid=0):
    return Alert(REPORTER, subject, kind, config_id=1, ring_numbers=rings, joiner_uuid=uuid)


def subjects_of(proposal):
    return [change.endpoint for change in proposal]


def observer_chain(length):
    """Members ``s0, s1, ...`` and rings ``r0, r1, ...`` where ``s(i+1)``
    observes ``si`` on ring ``ri`` and on no other, and nobody else in the
    chain observes anybody in it — so the only implicit alerts among them
    are the ones the chain spells."""
    def extend(chain, rings):
        if len(chain) == length:
            return chain, rings
        observers = TOPOLOGY.observers_of(chain[-1])
        for ring, observer in enumerate(observers):
            if observer in chain or observers.count(observer) != 1:
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

    for start in MEMBERS:
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
        victim = MEMBERS[7]
        zones = {}
        for ring in range(H):
            proposal = detector.receive_alert(report(victim, ring))
            zones[ring + 1] = (detector.unstable_subjects(), proposal)
        assert zones[L - 1] == ([], None)
        assert zones[L] == ([victim], None)
        assert zones[H - 1] == ([victim], None)
        assert zones[H] == ([], (Change(victim, REMOVE),))

    def test_h_equal_to_k_needs_every_ring(self):
        detector = MultiNodeCutDetector(3, 3, 1, None)
        victim = MEMBERS[7]
        assert detector.receive_alert(report(victim, 0)) is None
        assert detector.receive_alert(report(victim, 2)) is None
        assert detector.unstable_subjects() == [victim]
        assert subjects_of(detector.receive_alert(report(victim, 1))) == [victim]

    def test_duplicate_subject_ring_moves_nothing(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = MEMBERS[7]
        for ring in (0, 1, 1, 0, 1):
            assert detector.receive_alert(report(victim, ring)) is None
        assert detector.unstable_subjects() == []  # two rings, not five
        detector.receive_alert(report(victim, 2))
        assert detector.unstable_subjects() == [victim]

    def test_conflicting_kind_is_dropped(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = MEMBERS[7]
        detector.receive_alert(report(victim, 0, 1))
        assert detector.receive_alert(report(victim, 2, 3, kind=JOIN, uuid=9)) is None
        assert detector.kind_of(victim) == REMOVE
        assert detector.unstable_subjects() == []
        detector.receive_alert(report(victim, 2))
        assert detector.unstable_subjects() == [victim]

    def test_rings_outside_k_are_ignored_but_register_first_sight(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = MEMBERS[7]
        assert detector.receive_alert(report(victim, -1, K, K + 7), now=4.0) is None
        assert detector.kind_of(victim) == REMOVE
        assert detector.first_seen(victim) == 4.0
        assert detector.unstable_subjects() == []
        # Ring -1 is not ring K-1, ring K is not the "proposed" mark.
        for ring in range(H - 1):
            assert detector.receive_alert(report(victim, ring, K), now=6.0) is None
        assert detector.receive_alert(report(victim, K - 1), now=6.0)
        assert detector.first_seen(victim) == 4.0

    def test_one_alert_with_several_rings_jumps_noise_to_stable(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        joiner = endpoint_for(500)
        proposal = detector.receive_alert(report(joiner, *range(H), kind=JOIN, uuid=77))
        assert proposal == (Change(joiner, JOIN, 77),)
        assert detector.unstable_subjects() == []

    def test_cut_waits_for_every_unstable_subject_and_is_sorted(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        late, early = MEMBERS[3], MEMBERS[40]
        assert late < early
        detector.receive_alert(report(early, *range(H)[:L]))
        assert detector.receive_alert(report(late, *range(H))) is None  # early blocks
        proposal = detector.receive_alert(report(early, *range(H)))
        assert subjects_of(proposal) == [late, early]


class TestQueries:
    def test_unstable_subjects_keep_first_report_order(self):
        """Reinforcement echoes in this order, so it is part of the trace."""
        detector = MultiNodeCutDetector(K, H, L, None)
        a, b, c = MEMBERS[30], MEMBERS[10], MEMBERS[20]
        detector.receive_alert(report(a, 0))
        detector.receive_alert(report(b, *range(L)))
        detector.receive_alert(report(c, *range(L)))
        detector.receive_alert(report(a, *range(L)))  # unstable last, reported first
        assert detector.unstable_subjects() == [a, b, c]

    def test_first_seen_and_kind_of(self):
        detector = MultiNodeCutDetector(K, H, L, None)
        victim, joiner = MEMBERS[7], endpoint_for(500)
        detector.receive_alert(report(victim, 0), now=5.0)
        detector.receive_alert(report(victim, 1), now=9.0)
        detector.receive_alert(report(joiner, 0, kind=JOIN, uuid=3), now=9.5)
        assert detector.first_seen(victim) == 5.0
        assert detector.first_seen(joiner) == 9.5
        assert (detector.kind_of(victim), detector.kind_of(joiner)) == (REMOVE, JOIN)
        assert detector.first_seen(MEMBERS[8]) is None
        assert detector.kind_of(MEMBERS[8]) is None


class TestImplicitAlerts:
    """Section 4.2: a failing observer cannot be expected to report."""

    def test_observer_reaches_l_after_its_subject_was_blocked(self):
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        detector.receive_alert(report(subject, *other_rings(L, ring)))
        detector.receive_alert(report(observer, *range(L - 1)))
        assert detector.unstable_subjects() == [subject]
        # The observer's L-th ring makes it failing: its ring counts for
        # the subject, which is thereby stable; the observer itself blocks.
        assert detector.receive_alert(report(observer, L - 1)) is None
        assert detector.unstable_subjects() == [observer]
        proposal = detector.receive_alert(report(observer, L))
        assert sorted(subjects_of(proposal)) == sorted([subject, observer])

    def test_observer_was_failing_before_its_subject_was_blocked(self):
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        detector.receive_alert(report(observer, *range(L)))
        rings = other_rings(L, ring)
        detector.receive_alert(report(subject, *rings[:-1]))
        assert detector.unstable_subjects() == [observer]
        detector.receive_alert(report(subject, rings[-1]))  # L explicit + 1 implicit
        assert detector.unstable_subjects() == [observer]

    def test_a_proposed_observer_is_still_failing(self):
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        # Noise to stable in one alert: a crossing with nothing blocked.
        assert detector.receive_alert(report(observer, *range(L + 1)))
        proposal = detector.receive_alert(report(subject, *other_rings(L, ring)))
        assert subjects_of(proposal) == sorted([subject, observer])

    def test_each_new_failing_observer_gets_its_own_pass(self):
        (a, b, c), (ring_ab, ring_bc) = observer_chain(3)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        detector.receive_alert(report(a, *other_rings(L, ring_ab)))
        assert detector.unstable_subjects() == [a]
        detector.receive_alert(report(b, *other_rings(L, ring_bc)))
        assert detector.unstable_subjects() == [b]  # b failing lifted a
        assert detector.receive_alert(report(c, *range(L))) is None
        assert detector.unstable_subjects() == [c]  # c failing lifted b
        proposal = detector.receive_alert(report(c, L))
        assert subjects_of(proposal) == sorted([a, b, c])

    def test_joiner_with_a_failing_expected_observer(self):
        joiner = endpoint_for(500)
        expected = TOPOLOGY.observers_of(joiner)
        observer = next(o for o in expected if expected.count(o) == 1)
        ring = expected.index(observer)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        detector.receive_alert(report(joiner, *other_rings(L, ring), kind=JOIN, uuid=5))
        assert detector.unstable_subjects() == [joiner]  # nobody is failing yet
        proposal = detector.receive_alert(report(observer, *range(L + 1)))
        assert sorted(proposal) == sorted(
            [Change(joiner, JOIN, 5), Change(observer, REMOVE)]
        )

    def test_joiners_are_never_failing_observers(self):
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, TOPOLOGY)
        detector.receive_alert(report(observer, *range(L + 1), kind=JOIN, uuid=5))
        detector.receive_alert(report(subject, *other_rings(L, ring)))
        assert detector.unstable_subjects() == [subject]

    def test_without_a_topology_nothing_is_implied(self):
        (subject, observer), (ring,) = observer_chain(2)
        detector = MultiNodeCutDetector(K, L + 1, L, None)
        detector.receive_alert(report(observer, *range(L)))
        detector.receive_alert(report(subject, *other_rings(L, ring)))
        assert detector.unstable_subjects() == [observer, subject]


class TestRepeatProposals:
    def test_a_cut_is_proposed_once_and_grows_only_by_new_subjects(self):
        """Consensus takes one vote per view, and every proposal is a
        latency sample: an alert that adds nothing stable returns nothing."""
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        first, second, noise = MEMBERS[7], MEMBERS[3], MEMBERS[20]
        assert subjects_of(detector.receive_alert(report(first, *range(H)))) == [first]
        assert detector.receive_alert(report(noise, 0)) is None
        assert detector.receive_alert(report(noise, 0)) is None
        assert detector.receive_alert(report(second, *range(L))) is None
        later = detector.receive_alert(report(second, *range(H)))
        assert subjects_of(later) == [second, first]  # every stable subject
        assert detector.receive_alert(report(noise, 1)) is None

    def test_proposed_subjects_take_no_more_alerts(self):
        detector = MultiNodeCutDetector(K, H, L, TOPOLOGY)
        victim = MEMBERS[7]
        assert detector.receive_alert(report(victim, *range(H)))
        assert detector.receive_alert(report(victim, H)) is None
        assert detector.receive_alert(report(victim, 0)) is None


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
        by_observer = {}
        for ring, observer in enumerate(topology.observers_of(subject)):
            # One alert per observer (several rings in small views), or
            # one per ring.
            key = observer if rng.random() < 0.7 else (observer, ring)
            by_observer.setdefault(key, (observer, []))[1].append(ring)
        for observer, rings in by_observer.values():
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
    return k, h, l, (None if rng.random() < 0.1 else topology), alerts


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
    return Alert(ME, joiner, JOIN, config.config_id, tuple(range(K)), uuid)


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
            Alert(ME, MEMBERS[3], REMOVE, config.config_id ^ 1, (0,)),  # foreign
            Alert(ME, stranger, REMOVE, config.config_id, (0,)),  # not a member
            Alert(ME, MEMBERS[3], JOIN, config.config_id, (0,), 5),  # a member
            Alert(ME, MEMBERS[3], REMOVE, config.config_id, (0,)),
            Alert(ME, stranger, JOIN, config.config_id, (0,), 5),
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
        agreed = Alert(ME, MEMBERS[5], REMOVE, config.config_id, tuple(range(K)))
        differs = Alert(ME, MEMBERS[6], REMOVE, config.config_id, tuple(range(K)))
        a.on_alert(agreed)
        b.on_alert(agreed)
        c.on_alert(differs)
        vote = a.consensus.my_vote
        assert vote == (Change(MEMBERS[5], REMOVE),)
        assert b.consensus.my_vote is vote
        assert c.consensus.my_vote == (Change(MEMBERS[6], REMOVE),)
        assert c.consensus.my_vote is not vote
