"""Direct tests for fault-rule semantics (:mod:`repro.sim.faults`).

Covers the rule algebra the adversarial experiments depend on: one scope
table run through every effect, activity window boundaries, flip-flop
phasing, delay-rule delivery, the profiles' schedules, and the
determinism of probabilistic rules under the network's seeded RNG
streams.
"""

import math
import random

import pytest

from repro.core.messages import Probe
from repro.core.node_id import Endpoint
from repro.experiments.harness import harness_for
from repro.experiments.scenarios import _schedule
from repro.sim.cluster import endpoint_for
from repro.sim.engine import Engine
from repro.sim.fault_profiles import compile_profile, profile_names
from repro.sim.faults import (
    Delay,
    Duplicate,
    EgressLoss,
    IngressDelay,
    Loss,
    Reorder,
    ScheduledAction,
    rack_members,
)
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network


def make_network(seed: int = 1):
    engine = Engine()
    return engine, Network(engine, seed=seed, latency=ConstantLatency(0.001))


def endpoints(n: int):
    return [Endpoint(f"10.0.0.{i + 1}", 5000) for i in range(n)]


def probe(sender, seq=1):
    return Probe(sender=sender, config_id=1, seq=seq)


class TestValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window is empty"):
            Loss(probability=0.5, start=10.0, end=5.0)

    def test_flip_flop_requires_both_periods(self):
        with pytest.raises(ValueError, match="both period_on and period_off"):
            Loss(dst=frozenset(endpoints(1)), period_on=20.0)
        with pytest.raises(ValueError, match="both period_on and period_off"):
            Loss(dst=frozenset(endpoints(1)), period_off=20.0)

    def test_zero_length_cycle_rejected(self):
        # Used to divide by zero inside active(); now fails at construction.
        with pytest.raises(ValueError, match="periods must be positive"):
            Loss(probability=1.0, period_on=0.0, period_off=0.0)
        with pytest.raises(ValueError, match="periods must be positive"):
            Loss(probability=1.0, period_on=5.0, period_off=-1.0)

    def test_probability_bounds_checked(self):
        a, b = endpoints(2)
        with pytest.raises(ValueError, match="probability"):
            Loss(probability=1.5)
        with pytest.raises(ValueError, match="probability"):
            Loss(src=frozenset({a}), dst=frozenset({b}), probability=-0.1)

    def test_delay_and_jitter_must_be_non_negative(self):
        nodes = frozenset(endpoints(1))
        with pytest.raises(ValueError, match="delay"):
            Delay(dst=nodes, delay=-0.5)
        with pytest.raises(ValueError, match="jitter"):
            Delay(dst=nodes, delay=0.5, jitter=-0.1)

    def test_adversary_rule_validation(self):
        with pytest.raises(ValueError, match="copies"):
            Duplicate(probability=0.5, copies=0)
        with pytest.raises(ValueError, match="probability"):
            Duplicate(probability=1.5)
        with pytest.raises(ValueError, match="delay"):
            Reorder(probability=0.5, delay=-1.0)
        with pytest.raises(ValueError, match="jitter"):
            Reorder(probability=0.5, delay=0.5, jitter=-0.1)

    def test_rules_take_keywords_only(self):
        # A positional value would land in the first scope field unnoticed.
        with pytest.raises(TypeError):
            Loss(0.5)

    def test_scheduled_action_verb_checked(self):
        nodes = tuple(endpoints(1))
        with pytest.raises(ValueError, match="unknown action"):
            ScheduledAction(1.0, "reboot", nodes)
        for verb in ("netdown", "netup", "crash", "join", "leave", "rejoin"):
            assert ScheduledAction(1.0, verb, nodes).action == verb

    def test_flip_flop_crash_validation(self):
        nodes = endpoints(4)
        with pytest.raises(ValueError, match="periods must be positive"):
            compile_profile("flip_flop_crash", nodes, 1, 0.0, {"down_for": 0.0})
        with pytest.raises(ValueError, match="cycles"):
            compile_profile("flip_flop_crash", nodes, 1, 0.0, {"cycles": 0})

    def test_rack_count_checked(self):
        with pytest.raises(ValueError, match="racks"):
            rack_members(endpoints(4), 0, 0)


class TestActivityWindow:
    def test_half_open_window_boundaries(self):
        rule = Loss(probability=1.0, start=10.0, end=20.0)
        assert not rule.active(9.999)
        assert rule.active(10.0)  # inclusive start
        assert rule.active(19.999)
        assert not rule.active(20.0)  # exclusive end
        assert not rule.active(25.0)

    def test_unbounded_window_is_always_active(self):
        rule = Loss(probability=1.0)
        assert rule.active(0.0)
        assert rule.active(1e9)
        assert rule.end == math.inf

    def test_flip_flop_phasing(self):
        rule = Loss(probability=1.0, start=10.0, period_on=5.0, period_off=5.0)
        assert not rule.active(9.0)  # before the window
        assert rule.active(10.0)  # first on-phase begins at start
        assert rule.active(14.999)
        assert not rule.active(15.0)  # off-phase is half-open too
        assert not rule.active(19.999)
        assert rule.active(20.0)  # second cycle
        assert not rule.active(26.0)

    def test_flip_flop_respects_outer_window(self):
        rule = Loss(
            probability=1.0,
            start=0.0,
            end=12.0,
            period_on=5.0,
            period_off=5.0,
        )
        assert rule.active(11.0)  # second on-phase, inside the window
        assert not rule.active(12.0)  # window closed mid-phase


A, B, C, D = endpoints(4)

#: Every scope the profiles use: its fields, the ``(src, dst)`` pairs it
#: must cover and the pairs it must leave alone.
SCOPES = {
    "ingress": (
        {"dst": frozenset({B})},
        [(A, B), (C, B)],
        [(B, A), (A, C)],
    ),
    "egress": (
        {"src": frozenset({B})},
        [(B, A), (B, C)],
        [(A, B), (A, C)],
    ),
    "process": (
        {"src": frozenset({B}), "both_ways": True},
        [(A, B), (B, A), (B, C)],
        [(A, C), (C, A)],
    ),
    "link": (
        {"src": frozenset({A}), "dst": frozenset({B}), "both_ways": True},
        [(A, B), (B, A)],
        [(A, C), (C, B)],
    ),
    "one_way_link": (
        {"src": frozenset({A}), "dst": frozenset({B})},
        [(A, B)],
        [(B, A), (A, C)],
    ),
    "partition": (
        {"src": frozenset({A, B}), "dst": frozenset({C, D}), "both_ways": True},
        [(A, C), (B, D), (C, A), (D, B)],
        [(A, B), (C, D)],
    ),
    "one_way_partition": (
        {"src": frozenset({A, B}), "dst": frozenset({C, D})},
        [(A, C), (B, D)],
        [(C, A), (A, B), (C, D)],
    ),
    "everything": ({}, [(A, B), (B, A), (C, D)], []),
}

#: Each effect at full strength, and how one delivered copy shows it: the
#: arrival times of a ``src -> dst`` send over a 1 ms constant latency.
EFFECTS = {
    "Loss": (lambda scope: Loss(**scope), []),
    "Delay": (lambda scope: Delay(delay=0.5, **scope), [0.501]),
    "Duplicate": (lambda scope: Duplicate(probability=1.0, **scope), [0.001, 0.001]),
    "Reorder": (
        lambda scope: Reorder(probability=1.0, delay=0.5, jitter=0.0, **scope),
        [0.501],
    ),
}


class TestScope:
    @pytest.mark.parametrize("effect", EFFECTS)
    @pytest.mark.parametrize("scope", SCOPES)
    def test_scope_covers_exactly_its_links(self, scope, effect):
        fields, covered, spared = SCOPES[scope]
        make, hit = EFFECTS[effect]
        rule = make(fields)
        for src, dst in covered:
            assert rule.matches(src, dst), (src, dst)
        for src, dst in spared:
            assert not rule.matches(src, dst), (src, dst)
        # End to end: the network applies the effect to exactly the
        # covered pairs, and delivers the spared ones untouched.
        engine, network = make_network()
        arrivals = {}
        for ep in (A, B, C, D):
            network.register(
                ep, lambda s, m, _ep=ep: arrivals.setdefault((s, _ep), []).append(
                    round(engine.now, 6)
                )
            )
        network.add_rule(rule)
        for src, dst in covered + spared:
            network.send(src, dst, probe(src))
        engine.run()
        for src, dst in covered:
            assert arrivals.get((src, dst), []) == hit, (src, dst)
        for src, dst in spared:
            assert arrivals[(src, dst)] == [0.001], (src, dst)

    def test_partition_probability_yields_partial_loss(self):
        a, b, c, d = endpoints(4)
        lossless = Loss(
            src=frozenset({a}), dst=frozenset({c}), both_ways=True, probability=0.0
        )
        engine, network = make_network()
        got = []
        network.register(c, lambda s, m: got.append(m.seq))
        network.register(a, lambda s, m: None)
        network.add_rule(lossless)
        network.send(a, c, probe(a))
        engine.run()
        assert got == [1]  # matches, but probability 0 never drops

    def test_benchmark_constructors_are_a_loss_and_a_delay(self):
        nodes = frozenset(endpoints(1))
        assert EgressLoss(nodes=nodes) == Loss(src=nodes)
        assert IngressDelay(nodes=nodes, delay=0.01) == Delay(dst=nodes, delay=0.01)


class TestDelayRules:
    def test_ingress_delay_slows_delivery_without_dropping(self):
        engine, network = make_network()
        a, b = endpoints(2)
        arrivals = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: arrivals.append(engine.now))
        network.add_rule(Delay(dst=frozenset({b}), delay=0.5))
        network.send(a, b, probe(a))
        engine.run()
        assert len(arrivals) == 1
        assert arrivals[0] == pytest.approx(0.501)
        assert network.dropped_messages == 0

    def test_process_delay_hits_both_directions(self):
        engine, network = make_network()
        a, b = endpoints(2)
        arrivals = {}
        network.register(a, lambda s, m: arrivals.setdefault("a", engine.now))
        network.register(b, lambda s, m: arrivals.setdefault("b", engine.now))
        network.add_rule(Delay(src=frozenset({b}), both_ways=True, delay=0.25))
        network.send(a, b, probe(a, seq=1))
        network.send(b, a, probe(b, seq=2))
        engine.run()
        # Probe toward b and ack from b both gain the delay: RTT +2*delay.
        assert arrivals["b"] == pytest.approx(0.251)
        assert arrivals["a"] == pytest.approx(0.251)

    def test_inactive_delay_rule_adds_nothing(self):
        engine, network = make_network()
        a, b = endpoints(2)
        arrivals = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: arrivals.append(engine.now))
        network.add_rule(Delay(dst=frozenset({b}), delay=5.0, start=100.0))
        network.send(a, b, probe(a))
        engine.run()
        assert arrivals[0] == pytest.approx(0.001)

    def test_broadcast_splits_delayed_recipients(self):
        engine, network = make_network()
        a, b, c = endpoints(3)
        arrivals = {}
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: arrivals.setdefault(b, engine.now))
        network.register(c, lambda s, m: arrivals.setdefault(c, engine.now))
        network.add_rule(Delay(dst=frozenset({c}), delay=0.5))
        network.broadcast(a, [b, c], probe(a))
        engine.run()
        assert arrivals[b] == pytest.approx(0.001)
        assert arrivals[c] == pytest.approx(0.501)

    def test_delay_rules_never_drop(self):
        engine, network = make_network()
        a, b = endpoints(2)
        got = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: got.append(m.seq))
        network.add_rule(Delay(dst=frozenset({b}), delay=1.0, jitter=0.5))
        for seq in range(50):
            network.send(a, b, probe(a, seq=seq))
        engine.run()
        assert sorted(got) == list(range(50))
        assert network.dropped_messages == 0


class TestBoundarySemantics:
    """Half-open ``[start, end)`` edges at *simultaneous* timestamps.

    The activity-window tests above check ``active()`` in isolation; these
    pin what happens when a message crosses the network at exactly a
    rule's boundary instant, when two windows abut, and when a
    :class:`ScheduledAction` shares a timestamp with a rule edge.
    """

    def test_abutting_windows_have_no_overlap_and_no_gap(self):
        first = Loss(start=10.0, end=20.0)
        second = Loss(start=20.0, end=30.0)
        for t, active in ((19.999, (True, False)), (20.0, (False, True))):
            assert (first.active(t), second.active(t)) == active
        # Exactly one of the two covers every instant of [10, 30).
        assert all(
            first.active(t) != second.active(t)
            for t in (10.0, 15.0, 19.999, 20.0, 25.0, 29.999)
        )

    def test_zero_width_window_is_never_active(self):
        # end == start is tolerated at construction (only end < start is
        # an error) and means "never": the half-open window is empty.
        rule = Loss(start=10.0, end=10.0)
        assert not rule.active(10.0)

    def test_message_sent_exactly_at_rule_edges(self):
        # A message entering the fabric at exactly ``start`` is subject to
        # the rule; one entering at exactly ``end`` is not.
        engine, network = make_network()
        a, b = endpoints(2)
        got = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: got.append(m.seq))
        network.add_rule(Loss(start=5.0, end=9.0))
        engine.schedule_at(5.0, network.send, a, b, probe(a, seq=1))  # dropped
        engine.schedule_at(8.999, network.send, a, b, probe(a, seq=2))  # dropped
        engine.schedule_at(9.0, network.send, a, b, probe(a, seq=3))  # delivered
        engine.run()
        assert got == [3]

    def test_scheduled_action_at_a_rule_boundary_instant(self):
        # A netup action and a rule's end sharing one timestamp: both the
        # recovery and the rule expiry take effect for a message sent at
        # that same instant — no one-tick shadow where either lingers.
        engine, network = make_network()
        a, b = endpoints(2)
        got = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: got.append(m.seq))
        network.add_rule(Loss(start=0.0, end=10.0))
        action = ScheduledAction(10.0, "netup", (b,))
        network.crash(b)
        engine.schedule_at(
            action.time, lambda: [network.recover(ep) for ep in action.nodes]
        )
        engine.schedule_at(10.0, network.send, a, b, probe(a, seq=1))
        engine.run()
        assert got == [1]

    def test_partition_directionality_with_partial_probability(self):
        # probability < 1.0 must not change *which* directions match —
        # only how often matching packets drop.
        a, b, c, d = endpoints(4)
        always = random.Random()
        always.random = lambda: 0.0  # every draw says "drop"
        partial = Loss(
            src=frozenset({a, b}),
            dst=frozenset({c, d}),
            both_ways=True,
            probability=0.5,
        )
        assert partial.matches(a, c) and partial.matches(c, a)
        assert not partial.matches(a, b) and not partial.matches(c, d)
        assert partial.should_drop(a, c, 0.0, always)
        assert partial.should_drop(c, a, 0.0, always)
        assert not partial.should_drop(a, b, 0.0, always)
        one_way = Loss(
            src=frozenset({a, b}),
            dst=frozenset({c, d}),
            probability=0.5,
        )
        assert one_way.matches(a, c)
        assert not one_way.matches(c, a)  # reverse never matches, any p
        assert not one_way.should_drop(c, a, 0.0, always)

    def test_partial_one_way_partition_losses_are_asymmetric(self):
        # End to end: a 50% one-way partition thins a->c traffic but
        # leaves the reverse direction untouched.
        engine, network = make_network(seed=9)
        a, c = endpoints(2)
        got = {a: 0, c: 0}
        network.register(a, lambda s, m: got.__setitem__(a, got[a] + 1))
        network.register(c, lambda s, m: got.__setitem__(c, got[c] + 1))
        network.add_rule(
            Loss(src=frozenset({a}), dst=frozenset({c}), probability=0.5)
        )
        for seq in range(200):
            network.send(a, c, probe(a, seq=seq))
            network.send(c, a, probe(c, seq=seq))
        engine.run()
        assert got[a] == 200  # reverse direction untouched
        assert 0 < got[c] < 200  # forward direction thinned, not severed


class TestAdversaryRules:
    def test_duplicate_delivers_extra_copies(self):
        engine, network = make_network()
        a, b = endpoints(2)
        got = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: got.append(m.seq))
        network.add_rule(Duplicate(probability=1.0, copies=2))
        network.send(a, b, probe(a, seq=1))
        engine.run()
        assert got == [1, 1, 1]  # original + 2 fabricated copies
        assert network.sent_messages == 1  # fabricated, not transmitted
        assert network.delivered_messages == 3
        assert network.duplicate_counts == {"Probe": 2}

    def test_reorder_holds_delivery(self):
        engine, network = make_network()
        a, b = endpoints(2)
        arrivals = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: arrivals.append((m.seq, engine.now)))
        network.add_rule(Reorder(probability=1.0, delay=0.5, jitter=0.0))
        network.send(a, b, probe(a, seq=1))
        engine.run()
        assert arrivals == [(1, pytest.approx(0.501))]
        assert network.reorder_counts == {"Probe": 1}
        assert network.dropped_messages == 0

    def test_held_message_is_overtaken_by_a_later_send(self):
        # The observable reordering: message 1 is held, message 2 is not,
        # so 2 arrives first even though 1 entered the fabric earlier.
        engine, network = make_network()
        a, b = endpoints(2)
        got = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: got.append(m.seq))
        network.add_rule(
            Reorder(probability=1.0, delay=1.0, jitter=0.0, end=0.5)
        )
        network.send(a, b, probe(a, seq=1))  # held for +1s
        engine.schedule_at(0.6, network.send, a, b, probe(a, seq=2))
        engine.run()
        assert got == [2, 1]

    def test_scoped_adversary_only_touches_its_nodes(self):
        engine, network = make_network()
        a, b, c = endpoints(3)
        got = {b: 0, c: 0}
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: got.__setitem__(b, got[b] + 1))
        network.register(c, lambda s, m: got.__setitem__(c, got[c] + 1))
        network.add_rule(
            Duplicate(src=frozenset({b}), both_ways=True, probability=1.0)
        )
        network.send(a, b, probe(a, seq=1))
        network.send(a, c, probe(a, seq=2))
        engine.run()
        assert got == {b: 2, c: 1}

    def test_broadcast_duplicates_per_destination(self):
        engine, network = make_network()
        a, b, c = endpoints(3)
        got = {b: 0, c: 0}
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: got.__setitem__(b, got[b] + 1))
        network.register(c, lambda s, m: got.__setitem__(c, got[c] + 1))
        network.add_rule(Duplicate(probability=1.0, copies=1))
        network.broadcast(a, [b, c], probe(a))
        engine.run()
        assert got == {b: 2, c: 2}
        assert network.duplicate_counts == {"Probe": 2}

    def test_inactive_adversary_rule_does_nothing(self):
        engine, network = make_network()
        a, b = endpoints(2)
        got = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: got.append(engine.now))
        network.add_rule(Duplicate(probability=1.0, start=100.0))
        network.add_rule(Reorder(probability=1.0, delay=5.0, start=100.0))
        network.send(a, b, probe(a))
        engine.run()
        assert got == [pytest.approx(0.001)]
        assert network.duplicate_counts == {}
        assert network.reorder_counts == {}

    def test_adversary_stream_does_not_perturb_other_traffic(self):
        # The drop pattern and the originals' latencies are byte-identical
        # with and without an adversary installed: its draws come from a
        # dedicated RNG stream, and fabricated copies sample their latency
        # from that same stream.
        def run(with_adversary):
            engine, network = make_network(seed=7)
            a, b = endpoints(2)
            got = []
            network.register(a, lambda s, m: None)
            network.register(b, lambda s, m: got.append(m.seq))
            network.add_rule(Loss(probability=0.5))
            if with_adversary:
                network.add_rule(Duplicate(probability=0.3))
                network.add_rule(Reorder(probability=0.3, delay=0.2))
            for seq in range(200):
                network.send(a, b, probe(a, seq=seq))
            engine.run()
            return got

        baseline = run(False)
        adversaried = run(True)
        assert sorted(set(adversaried)) == sorted(baseline)
        assert len(adversaried) > len(baseline)  # duplicates landed


class TestDeterminism:
    def _ambient_run(self, seed, with_delay_rule=False, sends=200):
        engine, network = make_network(seed=seed)
        a, b = endpoints(2)
        got = []
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: got.append(m.seq))
        network.add_rule(Loss(probability=0.5))
        if with_delay_rule:
            network.add_rule(Delay(dst=frozenset({b}), delay=0.2, jitter=0.1))
        for seq in range(sends):
            network.send(a, b, probe(a, seq=seq))
        engine.run()
        return sorted(got)

    def test_ambient_loss_is_deterministic_per_seed(self):
        first = self._ambient_run(seed=7)
        second = self._ambient_run(seed=7)
        assert first == second
        assert 0 < len(first) < 200  # actually lossy, not degenerate
        assert self._ambient_run(seed=8) != first

    def test_delay_rules_do_not_perturb_loss_sampling(self):
        # Delay jitter draws come from a separate RNG stream, so adding a
        # delay rule must not change which packets the loss rule drops.
        assert self._ambient_run(seed=7) == self._ambient_run(
            seed=7, with_delay_rule=True
        )

    def test_rng_for_streams_are_independent(self):
        _, network = make_network(seed=3)
        aux = network.rng_for("bootstrap")
        again = network.rng_for("bootstrap")
        other = network.rng_for("join_churn")
        draws = [aux.random() for _ in range(4)]
        assert draws == [again.random() for _ in range(4)]
        assert draws != [other.random() for _ in range(4)]


class TestProfiles:
    def test_every_profile_compiles_deterministically(self):
        nodes = [endpoint_for(i) for i in range(24)]
        for name in profile_names():
            first = compile_profile(name, nodes, seed=3, fault_start=10.0)
            again = compile_profile(name, nodes, seed=3, fault_start=10.0)
            assert first.faulty == again.faulty, name
            assert len(first.rules) == len(again.rules), name
            assert first.actions == again.actions, name
            assert nodes[0] not in first.faulty  # the bootstrap seed stays up

    def test_unknown_profile_and_override_fail_loudly(self):
        nodes = [endpoint_for(i) for i in range(8)]
        with pytest.raises(ValueError, match="unknown fault profile"):
            compile_profile("nope", nodes, seed=1, fault_start=0.0)
        with pytest.raises(ValueError, match="no parameter"):
            compile_profile(
                "flip_flop", nodes, seed=1, fault_start=0.0,
                overrides={"typo": 1},
            )

    def test_flip_flop_crash_expansion(self):
        nodes = endpoints(8)
        compiled = compile_profile(
            "flip_flop_crash",
            nodes,
            1,
            30.0,
            {"down_for": 10.0, "up_for": 5.0, "cycles": 2},
        )
        assert compiled.rules == ()
        assert [(a.time, a.action) for a in compiled.actions] == [
            (30.0, "netdown"),
            (40.0, "netup"),
            (45.0, "netdown"),
            (55.0, "netup"),
        ]
        down = tuple(sorted(compiled.faulty))
        assert len(down) == 1 and all(a.nodes == down for a in compiled.actions)

    def test_rack_crash_is_a_single_fail_stop(self):
        nodes = endpoints(24)
        compiled = compile_profile("rack_crash", nodes, 1, 12.0)
        assert compiled.faulty == rack_members(nodes, 8, 1)
        (action,) = compiled.actions
        assert action == ScheduledAction(12.0, "crash", tuple(sorted(compiled.faulty)))

    def test_rack_members_round_robin(self):
        eps = endpoints(8)
        assert rack_members(eps, 3, 0) == frozenset({eps[0], eps[3], eps[6]})
        assert rack_members(eps, 3, 1) == frozenset({eps[1], eps[4], eps[7]})
        assert rack_members(eps, 3, 2) == frozenset({eps[2], eps[5]})
        assert rack_members(eps, 3, 5) == frozenset()

    def test_blackhole_on_the_edge_pair(self):
        # The app experiments' Figure 12 edge: lowest against highest.
        nodes = endpoints(8)
        compiled = compile_profile("blackhole", nodes, 1, 3.0, {"pair": "edge"})
        (rule,) = compiled.rules
        assert compiled.faulty == {nodes[0], nodes[-1]}
        assert rule.matches(nodes[0], nodes[-1]) and rule.matches(nodes[-1], nodes[0])
        assert not rule.matches(nodes[0], nodes[1])
        assert rule.probability == 1.0 and rule.start == 3.0

    def test_every_profile_compiles_to_its_rules(self):
        # Each profile's effects and window; partitions split the faulty
        # slice from everyone else.
        nodes = endpoints(16)
        expected = {
            "asymmetric_ingress": ["Loss"],
            "blackhole": ["Loss"],
            "dup_reorder": ["Duplicate", "Reorder"],
            "egress_loss": ["Loss"],
            "flip_flop": ["Loss"],
            "flip_flop_crash": [],
            "ingress_loss": ["Loss"],
            "network_flap": ["Loss"],
            "partition_flap": ["Loss"],
            "partition_heal": ["Loss"],
            "partition_minority": ["Loss"],
            "rack_crash": [],
            "rack_partition": ["Loss"],
            "slow_process": ["Delay"],
            "stalled_process": ["Delay"],
        }
        assert set(expected) == set(profile_names())
        for name, effects in expected.items():
            compiled = compile_profile(name, nodes, 1, 5.0)
            assert [type(r).__name__ for r in compiled.rules] == effects, name
            assert all(r.start == 5.0 for r in compiled.rules), name
            if "partition" in name:
                (rule,) = compiled.rules
                assert rule.src == compiled.faulty, name
                assert rule.dst == frozenset(nodes) - compiled.faulty, name
                assert rule.both_ways, name
        heal = compile_profile("partition_heal", nodes, 1, 5.0).rules[0]
        assert heal.end == 65.0 and heal.period_on is None
        flap = compile_profile("partition_flap", nodes, 1, 5.0).rules[0]
        assert (flap.end, flap.period_on, flap.period_off) == (math.inf, 15.0, 15.0)
        one_way = compile_profile("rack_partition", nodes, 1, 5.0, {"one_way": True})
        assert not one_way.rules[0].both_ways


class TestChurnActions:
    def test_leave_rejoin_and_join_run_through_the_schedule(self):
        harness = harness_for("rapid", seed=1)
        cohort = harness.bootstrap(8, seed_delay=2.0, stagger=1.0)
        assert harness.run_until_converged(8, timeout=120.0) is not None

        def step(verb, ep, members):
            _schedule(harness, [ScheduledAction(harness.engine.now + 1.0, verb, (ep,))])
            harness.run_for(30.0)
            for other in members:
                assert set(harness.agents[other].view()) == set(members), verb

        leaver, joiner = cohort[3], endpoint_for(8)
        step("leave", leaver, [ep for ep in cohort if ep != leaver])
        step("rejoin", leaver, cohort)
        step("join", joiner, [*cohort, joiner])
        assert harness.ledger.report()["ok"] is True

    def test_netdown_netup_and_crash_run_through_the_schedule(self):
        """A network outage silences a process only while it lasts; a crash
        is for good and the cluster evicts the process."""
        harness = harness_for("rapid", seed=1)
        cohort = harness.bootstrap(8, seed_delay=2.0, stagger=1.0)
        assert harness.run_until_converged(8, timeout=120.0) is not None
        flapper, victim = cohort[2], cohort[5]
        now = harness.engine.now
        _schedule(
            harness,
            [
                ScheduledAction(now + 1.0, "netdown", (flapper,)),
                ScheduledAction(now + 2.0, "netup", (flapper,)),
                ScheduledAction(now + 3.0, "crash", (victim,)),
            ],
        )
        sent = harness.network.tx_per_second[flapper]
        harness.run_for(1.1)
        before = sum(sent)
        harness.run_for(0.8)
        assert sum(sent) == before
        harness.run_for(1.0)
        assert sum(sent) > before
        assert harness.run_until_converged(7, timeout=120.0) is not None
        assert harness.live_endpoints() == [ep for ep in cohort if ep != victim]
        assert set(harness.agents[flapper].view()) == set(harness.live_endpoints())
