"""One ``Configuration`` object per view per process.

A configuration is immutable (paper section 3), so every node of a
simulated cluster that installs a view holds the *same* object — member
tuple, member set, index, uuid set, identifier and all — however it learned
of it: deciding the cut, a full snapshot, a delta, a Rapid-C push.  The
class is its own weak intern table; these tests pin the door, the sharing
and the weakness.  The K-ring topology derived from a view is shared the
same way (a bounded cache keyed by view id); its edge branches are pinned
at the end.
"""

import copy
import gc
import pickle

import pytest

from repro.core import configuration
from repro.core.configuration import Configuration
from repro.core.messages import AlertKind, Change, ViewDelta, cut_id, make_proposal
from repro.core.ring import KRingTopology
from repro.core.settings import RapidSettings
from repro.experiments.harness import RapidCHarness, RapidHarness
from repro.sim.cluster import endpoint_for

MEMBERS = tuple(sorted(endpoint_for(i) for i in range(6)))
UUIDS = tuple(range(100, 106))


def small_settings() -> RapidSettings:
    return RapidSettings(k=4, h=3, l=1, join_timeout=2.0)


def installed(harness) -> set:
    """``id`` of the configuration object each live, active agent holds."""
    agents = (harness.agents[ep] for ep in harness.live_endpoints())
    return {id(agent.config) for agent in agents if agent.view_size}


class TestTheDoor:
    def test_equal_content_is_one_object(self):
        first = Configuration(MEMBERS, UUIDS, seq=3)
        assert Configuration(members=list(MEMBERS), uuids=list(UUIDS), seq=3) is first
        assert Configuration(MEMBERS, UUIDS, seq=4) is not first
        assert Configuration(MEMBERS, UUIDS[::-1], seq=3) is not first
        assert Configuration.of(reversed(MEMBERS)) is Configuration.of(MEMBERS)

    def test_transitions_land_on_the_held_object(self):
        base = Configuration(MEMBERS, UUIDS)
        cut = make_proposal([Change(MEMBERS[2], AlertKind.REMOVE)])
        new = base.apply(cut)
        assert base.apply(cut) is new
        assert base.successor(cut, cut_id(cut)) is new
        other = make_proposal([Change(MEMBERS[3], AlertKind.REMOVE)])
        assert base.successor(other, cut_id(other)) is base.apply(other)

    @pytest.mark.parametrize(
        "members, uuids",
        [
            ((MEMBERS[1], MEMBERS[0]), (1, 2)),  # unsorted
            ((MEMBERS[0], MEMBERS[0]), (1, 2)),  # duplicated: sorted, not distinct
            (MEMBERS[:2], (1,)),  # misaligned
        ],
    )
    def test_malformed_content_is_rejected(self, members, uuids):
        with pytest.raises(ValueError):
            Configuration(members, uuids)

    def test_shared_means_read_only(self):
        config = Configuration(MEMBERS, UUIDS)
        with pytest.raises(AttributeError):
            config.seq = 9
        with pytest.raises(AttributeError):
            del config.members
        assert copy.deepcopy(config) is config
        assert pickle.loads(pickle.dumps(config)) is config

    def test_uuid_lookup(self):
        config = Configuration(MEMBERS, UUIDS)
        assert config.has_uuid(103) and not config.has_uuid(7)
        assert config.uuid_of(MEMBERS[3]) == 103
        assert config.uuid_of(endpoint_for(50)) is None


class TestTransitions:
    """``apply`` is the step that changes who is a member: it re-validates
    what consensus hands it, and a wrong cut raises instead of installing."""

    @pytest.mark.parametrize(
        "change",
        [
            Change(MEMBERS[2], AlertKind.JOIN, uuid=7),  # join of a member
            Change(endpoint_for(50), AlertKind.REMOVE),  # removal of a non-member
            Change(MEMBERS[2], "EVICT"),  # a kind this version does not know
        ],
        ids=["join-of-member", "remove-of-non-member", "unknown-kind"],
    )
    def test_apply_refuses_a_cut_that_does_not_fit_the_view(self, change):
        base = Configuration(MEMBERS, UUIDS)
        good = Change(MEMBERS[4], AlertKind.REMOVE)
        with pytest.raises(ValueError):
            base.apply((good, change))
        with pytest.raises(ValueError):
            base.successor((good, change), cut_id((good, change)))
        assert base.apply((good,)).members == MEMBERS[:4] + MEMBERS[5:]

    def test_delta_applies_to_its_base_only_and_skips_unseen_removes(self):
        base = Configuration(MEMBERS, UUIDS, seq=2)
        joiner, transient = endpoint_for(50), endpoint_for(51)
        delta = ViewDelta(
            base_config_id=base.config_id,
            seq=5,
            adds=((joiner, 9),),
            # MEMBERS[1] left; `transient` joined and left in between, so
            # this base never saw it.
            removes=(MEMBERS[1], transient),
        )
        new = base.apply_delta(delta)
        assert new is Configuration(
            MEMBERS[:1] + MEMBERS[2:] + (joiner,), UUIDS[:1] + UUIDS[2:] + (9,), seq=5
        )
        with pytest.raises(ValueError):
            new.apply_delta(delta)

    def test_equal_cuts_of_one_view_are_one_tuple(self):
        """Deciders that detect the same cut get the first emitter's tuple
        back; a different cut, or the same cut of another view, is its own."""
        base = Configuration(MEMBERS, UUIDS)
        first = make_proposal([Change(MEMBERS[4], AlertKind.REMOVE)])
        again = make_proposal([Change(MEMBERS[4], AlertKind.REMOVE)])
        other = make_proposal([Change(MEMBERS[3], AlertKind.REMOVE)])
        assert again is not first
        assert base.cut(first) is first
        assert base.cut(again) is first
        assert base.cut(other) is other
        assert Configuration(MEMBERS, UUIDS, seq=1).cut(again) is again

    def test_one_liner_names_the_view(self):
        config = Configuration(MEMBERS, UUIDS, seq=3)
        assert config.describe() == f"view#3 id={config.config_id & 0xFFFFFF:06x} n=6"
        assert repr(config) == f"Configuration({config.describe()})"


@pytest.mark.parametrize("harness_cls", [RapidHarness, RapidCHarness])
def test_converged_cluster_holds_one_configuration_object(harness_cls):
    harness = harness_cls(seed=3, settings=small_settings())
    endpoints = harness.bootstrap(32, seed_delay=2.0, stagger=1.0)
    assert harness.run_until_converged(32, timeout=120.0) is not None
    assert len(installed(harness)) == 1
    harness.crash(endpoints[10:12])
    assert harness.run_until_converged(30, timeout=120.0) is not None
    assert len(installed(harness)) == 1
    # The deciders and the desks serve that same object too.
    live = [harness.agents[ep] for ep in harness.live_endpoints()]
    config = live[0].config
    deciders = getattr(harness, "ensemble", None) or live
    assert all(node.decider.config is config for node in deciders)
    assert all(node.desk.config is config for node in deciders)


def test_table_tracks_installed_views_not_decided_ones():
    gc.collect()
    held_before = len(configuration._HELD)
    harness = RapidHarness(seed=5, settings=small_settings())
    endpoints = harness.bootstrap(16, seed_delay=2.0, stagger=8.0)
    assert harness.run_until_converged(16, timeout=120.0) is not None
    for i in range(8):  # one view change per joiner, then one per crash
        harness.add_node(endpoint_for(100 + i), seeds=(endpoints[0],))
        assert harness.run_until_converged(17 + i, timeout=120.0) is not None
    for i in range(8):
        harness.crash([endpoint_for(100 + i)])
        assert harness.run_until_converged(23 - i, timeout=120.0) is not None
    decided = {record.config_id for record in harness.trace.records}
    assert len(decided) >= 30
    # Converged: the one installed view (crashed processes keep their last).
    assert len(configuration._HELD) - held_before <= 1 + 8
    assert len(installed(harness)) == 1
    del harness
    gc.collect()
    assert len(configuration._HELD) == held_before


class TestTheTopologyOfAView:
    """The branches of ``core/ring.py`` no cluster run reaches."""

    def test_a_topology_needs_at_least_one_ring(self):
        with pytest.raises(ValueError, match="k must be positive"):
            KRingTopology(MEMBERS, 0)

    def test_a_topology_needs_at_least_one_member(self):
        with pytest.raises(ValueError, match="at least one member"):
            KRingTopology((), 4)

    def test_the_shared_cache_is_bounded_and_evicts_the_oldest_view(self):
        configs = [
            Configuration(MEMBERS, UUIDS, seq)
            for seq in range(1000, 1001 + KRingTopology._CACHE_SIZE)
        ]
        first = KRingTopology.for_configuration(configs[0], 4)
        assert KRingTopology.for_configuration(configs[0], 4) is first
        for config in configs[1:]:
            KRingTopology.for_configuration(config, 4)
        assert len(KRingTopology._cache) == KRingTopology._CACHE_SIZE
        assert (configs[0].config_id, 4) not in KRingTopology._cache
        assert KRingTopology.for_configuration(configs[0], 4) is not first

    def test_only_a_member_monitors_subjects(self):
        topology = KRingTopology(MEMBERS, 4)
        assert len(topology.subjects_of(MEMBERS[0])) == 4
        with pytest.raises(KeyError, match="not a member"):
            topology.subjects_of(endpoint_for(99))

    def test_unique_observers_keep_ring_order_without_repeats(self):
        # Three members, four rings: some observer repeats on some ring.
        topology = KRingTopology(MEMBERS[:3], 4)
        subject = MEMBERS[0]
        observers = topology.observers_of(subject)
        unique = topology.unique_observers_of(subject)
        assert len(observers) == 4 and len(unique) < 4
        assert unique == list(dict.fromkeys(observers))
        assert subject not in unique
