"""Safety-invariant monitor: unit checks plus end-to-end ledger runs.

The synthetic-trace tests feed :class:`repro.obs.invariants.ViewLedger`
hand-built view sequences — including a deliberately forked history — and
assert the right property trips with a useful report.  The integration
tests run real simulated clusters and assert the always-on ledger stays
clean through bootstrap, crashes, and rejoins.
"""

import pytest

from repro.core.node_id import Endpoint
from repro.experiments.harness import harness_for
from repro.experiments.scenarios import (
    join_churn_experiment,
    partition_heal_experiment,
)
from repro.obs.invariants import InvariantViolation, ViewLedger
from repro.sim.faults import Duplicate, Reorder


def ep(i: int) -> Endpoint:
    return Endpoint(host=f"10.0.0.{i}", port=5000)


def members(*indices: int) -> tuple:
    return tuple(sorted(ep(i) for i in indices))


class TestSyntheticTraces:
    def test_clean_chain_passes(self):
        ledger = ViewLedger(seed=7)
        m1 = members(1, 2, 3)
        m2 = members(1, 2, 3, 4)
        for node in m1:
            ledger.observe(1.0, node, 100, 1, m1)
        for node in m2:
            ledger.observe(2.0, node, 200, 2, m2)
        assert ledger.records == 7
        assert ledger.configs == 2
        assert ledger.max_seq == 2
        assert ledger.chain() == [(1, 100), (2, 200)]
        assert ledger.report()["ok"] is True

    def test_monotonicity_violation(self):
        ledger = ViewLedger(seed=7)
        ledger.observe(1.0, ep(1), 100, 2, members(1, 2))
        with pytest.raises(InvariantViolation) as exc:
            ledger.observe(2.0, ep(1), 50, 1, members(1))
        assert exc.value.prop == "monotonicity"
        assert exc.value.seed == 7
        assert ep(1) in exc.value.nodes

    def test_agreement_violation(self):
        # Same config id reported with two different memberships: the
        # content hash broke, or two views collided — either is fatal.
        ledger = ViewLedger()
        ledger.observe(1.0, ep(1), 100, 1, members(1, 2))
        with pytest.raises(InvariantViolation) as exc:
            ledger.observe(1.5, ep(2), 100, 1, members(1, 2, 3))
        assert exc.value.prop == "agreement"

    def test_forked_chain_trips_with_useful_report(self):
        # Two nodes install *different* configurations at the same
        # sequence number — a forked history no run of the protocol may
        # ever produce.  The violation must name the property, carry the
        # seed and virtual time, and include the recent trace.
        ledger = ViewLedger(seed=42)
        ledger.observe(1.0, ep(1), 100, 1, members(1, 2))
        with pytest.raises(InvariantViolation) as exc:
            ledger.observe(3.25, ep(2), 999, 1, members(3, 4))
        violation = exc.value
        assert violation.prop == "fork"
        assert violation.seed == 42
        assert violation.time == 3.25
        assert violation.nodes == (ep(2),)
        assert len(violation.trace) == 2
        text = str(violation)
        assert "fork" in text and "seed=42" in text and "seq=1" in text

    def test_skipping_a_view_you_belonged_to_is_a_fork(self):
        ledger = ViewLedger()
        m1 = members(1, 2, 3)
        m2 = members(1, 2, 3, 4)
        m3 = members(1, 2, 3, 4, 5)
        ledger.observe(1.0, ep(1), 100, 1, m1)
        ledger.observe(2.0, ep(2), 200, 2, m2)
        ledger.observe(3.0, ep(2), 300, 3, m3)
        # ep(1) jumps 1 -> 3, but it was a member of seq 2: its chain is
        # not a contiguous subsequence of the global chain.
        with pytest.raises(InvariantViolation) as exc:
            ledger.observe(4.0, ep(1), 300, 3, m3)
        assert exc.value.prop == "fork"

    def test_rejoin_gap_is_allowed(self):
        # A process removed at seq 2 and re-admitted at seq 4 skips views
        # it was not a member of — that is the legitimate rejoin path.
        ledger = ViewLedger()
        m1 = members(1, 2, 3)
        m2 = members(2, 3)  # ep(1) removed
        m3 = members(2, 3, 4)
        m4 = members(1, 2, 3, 4)  # ep(1) re-admitted
        ledger.observe(1.0, ep(1), 100, 1, m1)
        ledger.observe(2.0, ep(2), 200, 2, m2)
        ledger.observe(3.0, ep(2), 300, 3, m3)
        ledger.observe(4.0, ep(2), 400, 4, m4)
        ledger.observe(5.0, ep(1), 400, 4, m4)
        assert ledger.view_changes_of(ep(1)) == (4, 400)

    def test_leaver_listed_until_removed_then_rejoins_under_new_id(self):
        # ep(1) calls leave() after seq 1: it stops installing views but
        # stays listed (old logical id 11) through seq 2 until its removal
        # is decided at seq 3, then rejoins at seq 4 as id 12.  The skipped
        # seq 2 listed its *previous* incarnation, so this is no fork.
        ledger = ViewLedger()
        m = members(1, 2, 3)
        ledger.observe(1.0, ep(1), 100, 1, m, uuids=(11, 20, 30))
        ledger.observe(2.0, ep(2), 200, 2, members(1, 2, 3, 4), uuids=(11, 20, 30, 40))
        ledger.observe(3.0, ep(2), 300, 3, members(2, 3, 4), uuids=(20, 30, 40))
        rejoined = members(1, 2, 3, 4)
        ledger.observe(4.0, ep(2), 400, 4, rejoined, uuids=(12, 20, 30, 40))
        ledger.observe(5.0, ep(1), 400, 4, rejoined, uuids=(12, 20, 30, 40))
        assert ledger.view_changes_of(ep(1)) == (4, 400)
        # Monotonicity still binds across incarnations.
        with pytest.raises(InvariantViolation) as exc:
            ledger.observe(6.0, ep(1), 300, 3, members(2, 3, 4), uuids=(20, 30, 40))
        assert exc.value.prop == "monotonicity"

    def test_same_incarnation_skip_is_still_a_fork(self):
        # With logical ids on the feed, a process that never left (same
        # id throughout) skipping a view it belonged to still trips.
        ledger = ViewLedger()
        ledger.observe(1.0, ep(1), 100, 1, members(1, 2, 3), uuids=(11, 20, 30))
        ledger.observe(2.0, ep(2), 200, 2, members(1, 2, 3, 4), uuids=(11, 20, 30, 40))
        m3 = members(1, 2, 3, 4, 5)
        ledger.observe(3.0, ep(2), 300, 3, m3, uuids=(11, 20, 30, 40, 50))
        with pytest.raises(InvariantViolation) as exc:
            ledger.observe(4.0, ep(1), 300, 3, m3, uuids=(11, 20, 30, 40, 50))
        assert exc.value.prop == "fork"

    def test_allow_member_gaps_mode(self):
        # Rapid-C's ViewUpdate push is last-write-wins: a slow member may
        # legitimately jump views it belonged to.
        ledger = ViewLedger(allow_member_gaps=True)
        m1 = members(1, 2, 3)
        m2 = members(1, 2, 3, 4)
        m3 = members(1, 2, 3, 4, 5)
        ledger.observe(1.0, ep(1), 100, 1, m1)
        ledger.observe(2.0, ep(2), 200, 2, m2)
        ledger.observe(3.0, ep(2), 300, 3, m3)
        ledger.observe(4.0, ep(1), 300, 3, m3)  # skipped seq 2, tolerated
        # Same-seq forks still trip even in the relaxed mode.
        with pytest.raises(InvariantViolation):
            ledger.observe(5.0, ep(3), 999, 3, members(7, 8))

    def test_split_brain_detected(self):
        # Two disjoint five-node views, each fully installed by its own
        # side, at different sequence numbers (so the same-seq fork check
        # does not fire first): the no-disjoint-majorities check must.
        ledger = ViewLedger()
        side_a = members(1, 2, 3, 4, 5)
        side_b = members(6, 7, 8, 9, 10)
        for node in side_a:
            ledger.observe(1.0, node, 100, 1, side_a)
        with pytest.raises(InvariantViolation) as exc:
            for i, node in enumerate(side_b):
                ledger.observe(2.0 + i, node, 200, 2, side_b)
        assert exc.value.prop == "split_brain"
        # It fires exactly when the second side reaches its own majority.
        assert exc.value.time == pytest.approx(4.0)

    def test_minority_stale_view_is_not_split_brain(self):
        # A partitioned minority still holding the old view is *not*
        # split-brain: it holds no majority of the old membership.
        ledger = ViewLedger()
        full = members(*range(1, 11))
        majority = members(*range(1, 8))  # nodes 8-10 removed
        for node in full:
            ledger.observe(1.0, node, 100, 1, full)
        for node in majority:
            ledger.observe(2.0, node, 200, 2, majority)
        assert ledger.report()["ok"] is True


class TestLedgerWiring:
    def test_sim_cluster_bootstrap_runs_clean(self):
        cluster = harness_for("rapid", seed=3)
        cluster.bootstrap(8)
        assert cluster.run_until_converged(8, timeout=300.0) is not None
        assert cluster.ledger.records > 0
        assert cluster.ledger.nodes == 8
        report = cluster.ledger.report()
        assert report["ok"] is True and report["max_seq"] >= 1

    def test_crash_and_reconfigure_runs_clean(self):
        cluster = harness_for("rapid", seed=5)
        endpoints = cluster.bootstrap(12)
        assert cluster.run_until_converged(12, timeout=300.0) is not None
        cluster.crash(endpoints[-3:])
        assert cluster.run_until_converged(9, timeout=300.0) is not None
        assert cluster.ledger.report()["ok"] is True
        assert cluster.ledger.configs >= 2

    def test_harnesses_expose_ledger(self):
        rapid = harness_for("rapid", seed=1)
        assert rapid.trace.ledger is rapid.ledger
        assert rapid.ledger.allow_member_gaps is False
        rapid_c = harness_for("rapid-c", seed=1)
        assert rapid_c.ledger.allow_member_gaps is True
        baseline = harness_for("memberlist", seed=1)
        assert baseline.ledger is None

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_graceful_leave_and_rejoin_churn_runs_clean(self, seed):
        # Eight members leave gracefully and rejoin under fresh ids while
        # sixteen late joiners arrive.  A leaver stays listed until its
        # removal is decided, so its next install skips views that named
        # its previous incarnation; the ledger used to call that a fork
        # (4 of these 6 seeds).
        result = join_churn_experiment(
            "rapid", 24, joiners=16, rejoins=8, seed=seed
        )
        report = result["harness"].ledger.report()
        assert report["ok"] is True and report["nodes"] == 40

    def test_install_records_carry_members(self):
        cluster = harness_for("rapid", seed=3)
        cluster.bootstrap(4)
        cluster.run_until_converged(4, timeout=300.0)
        final = cluster.trace.records[-1]
        assert final.seq >= 1
        assert len(final.members) == final.size


def test_a_healed_minority_rejoins_promptly():
    """After the heal, the minority's probes name the view the majority
    closed, and the majority members they reach answer with the Decision
    that removed them: all 12 rejoin within 15 s of the heal (25 s while
    the only way back was a re-announce every 30 s)."""
    result = partition_heal_experiment(
        "rapid", 128, fraction=0.1, partition_for=60.0, seed=1
    )
    assert result["minority"] == result["rejoined"] == 12
    assert result["reconverge_time"] <= 15
    assert result["harness"].ledger.report()["ok"] is True


@pytest.mark.slow
class TestSafetyAtScale:
    """The n=256 safety acceptance bars (minutes of wall time, opt-in)."""

    def test_dup_reorder_bootstrap_and_crash_at_n256(self):
        # Bootstrap an entire 256-node cluster while every message is
        # duplicated with p=0.2 and held back with p=0.2, then crash one
        # member.  The protocol must treat redelivery and overtaking as
        # routine: the crash is detected and removed, no healthy node is
        # evicted, and the always-on ledger certifies every view install.
        harness = harness_for("rapid", seed=1)
        harness.network.add_rule(Duplicate(probability=0.2))
        harness.network.add_rule(Reorder(probability=0.2, delay=0.2, jitter=0.3))
        endpoints = harness.bootstrap(256, seed_delay=5.0, stagger=0.2)
        assert harness.run_until_converged(256, timeout=900.0) is not None
        harness.run_for(10.0)
        victim = endpoints[-1]
        harness.crash([victim])
        assert harness.run_until_converged(255, timeout=300.0) is not None
        survivors = set(endpoints) - {victim}
        for member in harness.live_endpoints():
            assert set(harness.agents[member].membership) == survivors
        assert sum(harness.network.duplicate_counts.values()) > 0
        assert sum(harness.network.reorder_counts.values()) > 0
        report = harness.ledger.report()
        assert report["ok"] is True and report["checked"] > 0

    def test_partition_heal_at_n256(self):
        # Split off a 20% minority for 60 s: the minority must make zero
        # view progress while split (no split-brain), the majority must
        # reconfigure it out, and after the heal every minority member
        # must learn of its removal and rejoin through the join protocol.
        result = partition_heal_experiment("rapid", 256, seed=1)
        assert result["settled"]
        assert result["minority"] > 0
        assert result["minority_installs_during_partition"] == 0
        assert result["majority_converged_during_partition"] is True
        assert result["rejoined"] == result["minority"]
        assert result["reconverge_time"] is not None
        assert result["invariant_checks"] > 0
        assert result["harness"].ledger.report()["ok"] is True
        # The majority removes exactly the minority, and all of it.
        assert result["healthy_evicted_nodes"] == 0
        assert result["detection_latency"] is not None
