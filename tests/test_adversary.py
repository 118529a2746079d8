"""Adversarial fault-matrix tests: scorecard semantics and stability claims.

The cheap tests drive :class:`repro.obs.scorecard.StabilityScorecard`
directly with scripted views, and run the accrual-detector probe profiles
(``slow_process``/``stalled_process``) plus the Figure 9 flip-flop profile
against Rapid at sizes tier-1 can afford.  The ``slow``-marked test runs
the full n=256 stability-gap comparison (Rapid vs SWIM vs gossip-FD under
the identical flip-flop profile) as a grid through the experiment runner,
asserting the paper's headline: Rapid holds its view while the baselines
flap.
"""

import pytest

from repro.experiments.scenarios import adversary_experiment, sensitivity_experiment
from repro.obs.scorecard import StabilityScorecard
from repro.sim.engine import Engine
from repro.bench import BenchRunner, csv_hash, parse_grid
from repro.bench.runner import render_csv


class TestScorecard:
    def _run(self, script, fault_start=0.0, faulty=("f",), until=8.0,
             crashed=None):
        """Drive a scorecard over scripted views.

        ``script`` maps virtual times to ``{observer: view_tuple}``
        updates; samples happen at whole seconds starting at
        ``fault_start``.
        """
        engine = Engine()
        state = {"o1": ("a", "b", "f"), "o2": ("a", "b", "f")}
        views = {obs: (lambda _o=obs: state[_o]) for obs in state}
        card = StabilityScorecard(
            engine, views, faulty=faulty, fault_start=fault_start,
            crashed=crashed,
        )
        card.start()
        for when, updates in script.items():
            engine.schedule_at(when, state.update, updates)
        engine.run(until=until)
        return card

    def test_healthy_eviction_counted_once_per_pair(self):
        card = self._run({1.5: {"o1": ("a", "f")}})
        assert card.healthy_eviction_events == 1
        assert card.healthy_evicted == {"b"}
        assert card.flap_events == 0

    def test_faulty_removal_is_not_an_eviction(self):
        card = self._run({1.5: {"o1": ("a", "b"), "o2": ("a", "b")}})
        assert card.healthy_eviction_events == 0
        assert card.faulty_detected_at == 2.0
        report = card.report(end=10.0)
        assert report["detection_latency"] == 2.0
        assert report["faulty_removed"] is True

    def test_detection_waits_for_every_observer(self):
        card = self._run({1.5: {"o1": ("a", "b")}, 4.5: {"o2": ("a", "b")}})
        assert card.faulty_detected_at == 5.0

    def test_reappearance_and_re_removal_both_flap(self):
        card = self._run(
            {
                1.5: {"o1": ("a", "f")},  # b evicted at o1
                2.5: {"o1": ("a", "b", "f")},  # b back: flap 1
                3.5: {"o1": ("a", "f")},  # b re-removed: flap 2
            }
        )
        assert card.flap_events == 2
        assert card.healthy_eviction_events == 1  # only the first removal
        report = card.report(end=8.0)
        assert report["flap_events"] == 2
        assert report["flap_rate"] == pytest.approx(2 / 8.0)

    def test_view_changes_counted_per_observer_sample(self):
        card = self._run(
            {1.5: {"o1": ("a", "b")}, 2.5: {"o2": ("a", "b")}}
        )
        assert card.view_change_events == 2

    def test_crashed_observers_are_skipped(self):
        down = {"o2"}
        card = self._run(
            {1.5: {"o1": ("a", "b"), "o2": ("a", "b", "f")}},
            crashed=lambda ep: ep in down,
        )
        # o2 is fail-stopped: its stale view must not block detection.
        assert card.faulty_detected_at == 2.0


class TestAccrualProbe:
    """Slow vs stalled processes against the rapid detector threshold."""

    def test_slow_process_below_threshold_is_not_evicted(self):
        result = adversary_experiment(
            "rapid", 24, profile="slow_process", seed=1,
            fault_at=10.0, observe_for=40.0, settle_timeout=120.0,
        )
        assert result["settled"]
        assert result["expect_eviction"] is False
        assert result["healthy_evicted_nodes"] == 0
        assert result["faulty_removed"] is False  # delayed, but alive
        assert result["view_change_events"] == 0
        assert result["configs_post_fault"] == 0

    def test_stalled_process_past_threshold_is_evicted(self):
        result = adversary_experiment(
            "rapid", 24, profile="stalled_process", seed=1,
            fault_at=10.0, observe_for=40.0, settle_timeout=120.0,
        )
        assert result["settled"]
        assert result["expect_eviction"] is True
        assert result["faulty_removed"] is True
        assert result["detection_latency"] is not None
        assert result["detection_latency"] <= 30.0
        assert result["healthy_evicted_nodes"] == 0
        assert result["flap_events"] == 0
        assert result["configs_post_fault"] == 1  # one clean view change


class TestRapidFlipFlopStability:
    def test_rapid_rides_out_flip_flop_at_n256(self):
        # Figure 9 headline at a size free of small-N ring collisions:
        # zero healthy evictions, zero flaps, one clean configuration
        # change evicting the flip-flopping processes.
        result = adversary_experiment(
            "rapid", 256, profile="flip_flop", seed=1,
            fault_at=10.0, observe_for=120.0, settle_timeout=300.0,
        )
        assert result["settled"]
        assert result["healthy_evicted_nodes"] == 0
        assert result["flap_events"] == 0
        assert result["faulty_removed"] is True
        assert result["view_changes_per_observer"] <= 3.0
        assert result["configs_post_fault"] <= 3


#: The stability-gap grid: the identical flip_flop profile against all
#: three systems at n=256.  The gossip-FD leg runs its stock timers, whose
#: all-to-all heartbeats and resurrect rumors cost ~65k messages per
#: second and per flap at this size, so it strikes sooner and watches for a
#: shorter window purely to bound simulation cost (~3.5 min; 11.5 min at
#: the other legs' window) — its per-second flap rate is what's compared.
STABILITY_GAP_GRID = [
    {
        "scenario": "adversary",
        "system": "rapid",
        "profile": "flip_flop",
        "n": 256,
        "seed": 1,
        "fault_at": 10.0,
        "observe_for": 120.0,
        "settle_timeout": 300.0,
    },
    {
        "scenario": "adversary",
        "system": "memberlist",
        "profile": "flip_flop",
        "n": 256,
        "seed": 1,
        "fault_at": 10.0,
        "observe_for": 120.0,
        "settle_timeout": 300.0,
    },
    {
        "scenario": "adversary",
        "system": "gossip-fd",
        "profile": "flip_flop",
        "n": 256,
        "seed": 1,
        "fault_at": 5.0,
        "observe_for": 10.0,
        "settle_timeout": 30.0,
    },
]


class TestWatermarkSensitivity:
    def test_high_watermark_buys_almost_everywhere_agreement(self):
        """Figure 11's shape at a size tier-1 can afford: raising H from 6
        to 9 never raises the conflict rate, and the paper's operating
        point (H=9, L=3) sees no conflicting first proposal at all."""
        rates = sensitivity_experiment(
            n=200, repetitions=3, observers_sampled=40,
            h_values=(6, 9), f_values=(2, 8),
        )["conflict_rates"]
        assert len(rates) == 2 * 4 * 2
        for (h, l, f), rate in rates.items():
            if h == 6:
                assert rates[(9, l, f)] <= rate, (l, f)
        assert rates[(9, 3, 2)] == rates[(9, 3, 8)] == 0.0
        assert max(rates.values()) > 10.0  # a low H, high L corner does conflict

    def test_a_low_watermark_above_the_high_one_is_not_a_cell(self):
        rates = sensitivity_experiment(
            k=4, n=16, repetitions=1, observers_sampled=4,
            h_values=(3,), l_values=(2, 4), f_values=(1,),
        )["conflict_rates"]
        assert list(rates) == [(3, 2, 1)]


@pytest.mark.slow
class TestStabilityGap:
    def test_flip_flop_gap_at_n256_via_grid(self, tmp_path):
        import json

        points = parse_grid(json.dumps(STABILITY_GAP_GRID))
        assert [p.system for p in points] == ["rapid", "memberlist", "gossip-fd"]
        cases = BenchRunner(log=None).run(points)
        (tmp_path / "stability_gap.csv").write_text(render_csv(cases))
        assert len(csv_hash(cases)) == 64
        results = {case.spec.system: case.result for case in cases}

        def metric(system, name):
            return float(results[system][name])

        # Rapid: zero healthy evictions, zero flaps, bounded view changes.
        assert metric("rapid", "healthy_evicted_nodes") == 0
        assert metric("rapid", "flap_events") == 0
        assert metric("rapid", "view_changes_per_observer") <= 3.0
        assert metric("rapid", "faulty_removed") == 1
        # Both baselines flap at >= 5x Rapid's rate under the same profile.
        rapid_events = metric("rapid", "flap_events")
        rapid_rate = metric("rapid", "flap_rate")
        for system in ("memberlist", "gossip-fd"):
            assert metric(system, "flap_events") >= 5 * max(rapid_events, 1.0)
            assert metric(system, "flap_rate") >= 5 * max(rapid_rate, 0.01)
