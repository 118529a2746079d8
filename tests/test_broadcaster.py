"""Dissemination substrates: gossip determinism and scale adaptation."""

import random

import pytest

from repro.core.broadcaster import GOSSIP_RELAY_WINDOW, Broadcaster, Peers
from repro.core.messages import BatchedAlerts, GossipBundle, GossipEnvelope
from repro.core.node_id import Endpoint
from repro.core.settings import RapidSettings
from repro.experiments.harness import RapidHarness
from repro.sim.cluster import endpoint_for


class FakeRuntime:
    """Captures sends, fan-outs as one send per destination.

    Timers are collected and fired on demand (``fire_timers``) so tests
    can step the relay-batching window deterministically.
    """

    def __init__(self, addr):
        self.addr = addr
        self.rng = random.Random(0)
        self.sent = []
        self.timers = []

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def broadcast(self, dsts, msg):
        for dst in dsts:
            self.send(dst, msg)

    class _Timer:
        """Cancellable stand-in for an engine event handle."""

        def __init__(self, fn, args):
            self.fn, self.args, self.cancelled = fn, args, False

        def cancel(self):
            self.cancelled = True

    def schedule(self, delay, fn, *args):
        timer = self._Timer(fn, args)
        self.timers.append((delay, timer))
        return timer

    def fire_timers(self):
        timers, self.timers = self.timers, []
        for _, timer in timers:
            if not timer.cancelled:
                timer.fn(*timer.args)


def members(n):
    return tuple(endpoint_for(i) for i in range(n))


class TestPeers:
    """The skip-self view must be indistinguishable from the per-node
    ``members minus me`` tuple it replaced — same-seed runs sample peers
    from it, so length and order are behaviour."""

    @pytest.mark.parametrize("n", [1, 2, 9, 200])  # sample() copies small pools, indexes large
    def test_equals_the_filtered_tuple_wherever_self_sits(self, n):
        view = members(n)
        index = {m: i for i, m in enumerate(view)}
        for me in (view[0], view[n // 2], view[-1], endpoint_for(9999)):
            expected = tuple(m for m in view if m != me)
            for peers in (Peers(view, me), Peers(view, me, index)):
                assert len(peers) == len(expected)
                assert tuple(peers) == expected
                assert tuple(peers[i] for i in range(len(peers))) == expected
                assert not expected or peers[-1] == expected[-1]
                with pytest.raises(IndexError):
                    peers[len(expected)]
                count = min(8, len(expected))
                assert random.Random(5).sample(peers, count) == random.Random(
                    5
                ).sample(expected, count)

    def test_holds_no_copy_of_the_membership(self):
        view = members(64)
        bcast = Broadcaster(FakeRuntime(view[3]), lambda src, msg: None)
        bcast.set_membership(view, gossip=True)
        assert bcast._peers._members is view


class TestGossipMessageIds:
    def test_ids_are_deterministic_sequence_numbers(self):
        """Ids must not depend on PYTHONHASHSEED: same-seed runs replay
        identically across interpreter invocations."""
        view = members(8)
        envelopes = []
        for _ in range(2):
            runtime = FakeRuntime(view[0])
            bcast = Broadcaster(runtime, lambda src, msg: None, fanout=3)
            bcast.set_membership(view, gossip=True)
            bcast.broadcast("a")
            bcast.broadcast("b")
            envelopes.append([msg for _, msg in runtime.sent])
        first, second = envelopes
        assert [e.message_id for e in first] == [e.message_id for e in second]
        assert sorted({e.message_id for e in first}) == [1, 2]

    def test_counter_survives_view_changes(self):
        runtime = FakeRuntime(members(4)[0])
        bcast = Broadcaster(runtime, lambda src, msg: None, fanout=2)
        bcast.set_membership(members(4), gossip=True)
        bcast.broadcast("a")
        bcast.set_membership(members(5), gossip=True)
        bcast.broadcast("b")
        ids = {msg.message_id for _, msg in runtime.sent}
        assert ids == {1, 2}  # never reused within one origin

    def test_dedup_key_is_origin_scoped(self):
        """Two origins using the same counter value must not collide."""
        view = members(4)
        delivered = []
        runtime = FakeRuntime(view[0])
        bcast = Broadcaster(
            runtime, lambda src, msg: delivered.append((src, msg)), fanout=2
        )
        bcast.set_membership(view, gossip=True)
        for origin in (view[1], view[2]):
            bcast.handle(
                origin,
                GossipEnvelope(sender=origin, message_id=1, hops_left=0, payload="p"),
            )
        assert [src for src, _ in delivered] == [view[1], view[2]]
        # Replay of an already-seen (origin, id) is dropped.
        bcast.handle(
            view[1],
            GossipEnvelope(sender=view[1], message_id=1, hops_left=0, payload="p"),
        )
        assert len(delivered) == 2


class TestRelayBatching:
    def test_envelopes_in_one_window_relay_as_one_bundle(self):
        """k first-seen envelopes within the window → one bundle per peer."""
        view = members(8)
        runtime = FakeRuntime(view[0])
        bcast = Broadcaster(runtime, lambda src, msg: None, fanout=3)
        bcast.set_membership(view, gossip=True)
        for i in range(4):
            bcast.handle(
                view[1],
                GossipEnvelope(
                    sender=view[1], message_id=i + 1, hops_left=2, payload=f"p{i}"
                ),
            )
        assert runtime.sent == []  # buffered, not yet relayed
        assert [delay for delay, _ in runtime.timers] == [GOSSIP_RELAY_WINDOW]
        runtime.fire_timers()
        assert len(runtime.sent) == 3  # one message per sampled peer
        for _, msg in runtime.sent:
            assert isinstance(msg, GossipBundle)
            assert len(msg.envelopes) == 4
            assert all(e.hops_left == 1 for e in msg.envelopes)

    def test_single_envelope_flush_sends_bare_envelope(self):
        """No bundle overhead when the window caught only one envelope."""
        view = members(8)
        runtime = FakeRuntime(view[0])
        bcast = Broadcaster(runtime, lambda src, msg: None, fanout=2)
        bcast.set_membership(view, gossip=True)
        bcast.handle(
            view[1],
            GossipEnvelope(sender=view[1], message_id=1, hops_left=1, payload="p"),
        )
        runtime.fire_timers()
        assert len(runtime.sent) == 2
        assert all(isinstance(m, GossipEnvelope) for _, m in runtime.sent)

    def test_bundle_receiver_dedups_and_delivers_each_envelope(self):
        view = members(8)
        delivered = []
        runtime = FakeRuntime(view[0])
        bcast = Broadcaster(
            runtime, lambda src, msg: delivered.append((src, msg)), fanout=2
        )
        bcast.set_membership(view, gossip=True)
        envelopes = tuple(
            GossipEnvelope(sender=view[1], message_id=i + 1, hops_left=0, payload=i)
            for i in range(3)
        )
        bundle = GossipBundle(sender=view[2], envelopes=envelopes)
        bcast.handle(view[2], bundle)
        assert [msg for _, msg in delivered] == [0, 1, 2]
        # Payload origin (not the relayer) is reported as the source.
        assert all(src == view[1] for src, _ in delivered)
        bcast.handle(view[3], bundle)  # replay: every envelope already seen
        assert len(delivered) == 3

    def test_a_view_change_drops_what_is_still_buffered(self):
        """Buffered envelopes belong to the old view: relaying them after
        the dedup history is wiped would restart a stale epidemic."""
        view = members(8)
        runtime = FakeRuntime(view[0])
        bcast = Broadcaster(runtime, lambda src, msg: None, fanout=3)
        bcast.set_membership(view, gossip=True)
        bcast.handle(
            view[1],
            GossipEnvelope(sender=view[1], message_id=1, hops_left=2, payload="p"),
        )
        [(_, timer)] = runtime.timers
        bcast.set_membership(view[:7], gossip=True)
        assert timer.cancelled
        runtime.fire_timers()
        assert runtime.sent == []


class TestModePerView:
    def test_mode_follows_each_installed_view(self):
        runtime = FakeRuntime(members(8)[0])
        bcast = Broadcaster(runtime, lambda src, msg: None, fanout=3)
        bcast.set_membership(members(4), gossip=False)
        bcast.broadcast("small")
        assert all(not isinstance(m, GossipEnvelope) for _, m in runtime.sent)
        assert len(runtime.sent) == 3  # unicast to every peer

        runtime.sent.clear()
        bcast.set_membership(members(8), gossip=True)
        bcast.broadcast("large")
        assert all(isinstance(m, GossipEnvelope) for _, m in runtime.sent)
        assert len(runtime.sent) == 3  # gossip fanout, not all peers

        runtime.sent.clear()
        bcast.set_membership(members(4), gossip=False)  # shrink back
        bcast.broadcast("small again")
        assert all(not isinstance(m, GossipEnvelope) for _, m in runtime.sent)

    def test_a_lone_member_delivers_to_itself_and_sends_nothing(self):
        me = members(1)[0]
        delivered = []
        runtime = FakeRuntime(me)
        bcast = Broadcaster(runtime, lambda src, msg: delivered.append((src, msg)))
        bcast.set_membership((me,), gossip=True)
        bcast.broadcast("solo")
        assert delivered == [(me, "solo")]
        assert runtime.sent == [] and runtime.timers == []

    def test_envelopes_relayed_regardless_of_mode(self):
        """During a mode disagreement a unicast-side node must still relay
        gossip envelopes."""
        view = members(8)
        delivered = []
        runtime = FakeRuntime(view[0])
        bcast = Broadcaster(runtime, lambda src, msg: delivered.append(msg), fanout=3)
        bcast.set_membership(view, gossip=False)
        bcast.handle(
            view[1],
            GossipEnvelope(sender=view[1], message_id=1, hops_left=2, payload="x"),
        )
        assert delivered == ["x"]
        runtime.fire_timers()  # the relay-batching window elapses
        assert len(runtime.sent) == 3  # relayed onward despite unicast mode


class TestNodeWiring:
    def test_one_threshold_decision_drives_consensus_dissemination(self):
        """A node evaluates ``n >= gossip_threshold`` once per installed
        view and hands the answer to its consensus instance and to the
        broadcaster that carries that instance's broadcasts."""
        cluster = RapidHarness(seed=1, settings=RapidSettings(gossip_threshold=4))
        cluster.bootstrap(3, seed_delay=1.0)
        assert cluster.run_until_converged(3, timeout=60) is not None
        for node in cluster.agents.values():
            assert not node.broadcaster.gossip
            assert not node.decider.consensus.gossip_mode
        cluster.add_node(endpoint_for(3), seeds=(endpoint_for(0),))
        assert cluster.run_until_converged(4, timeout=60) is not None
        for node in cluster.agents.values():
            assert node.broadcaster.gossip
            assert node.decider.consensus.gossip_mode

    def test_alert_batches_are_unicast_in_a_gossip_view(self):
        """Alert batches leave their announcer as one fan-out to the whole
        view at every size; the epidemic carries only consensus traffic."""
        cluster = RapidHarness(seed=1, settings=RapidSettings(gossip_threshold=4))
        cluster.bootstrap(6, seed_delay=1.0)
        assert cluster.run_until_converged(6, timeout=60) is not None
        fan_outs = []
        network = cluster.network
        fan_out = network.broadcast

        def spy(src, dsts, msg):
            if isinstance(msg, BatchedAlerts):
                fan_outs.append((len(dsts), cluster.agents[src].view_size))
            fan_out(src, dsts, msg)

        network.broadcast = spy
        before = network.class_counts["BatchedAlerts"]
        cluster.crash(cluster.endpoints[-1:])
        assert cluster.run_until_converged(5, timeout=60) is not None
        assert fan_outs
        assert all(sent == size - 1 for sent, size in fan_outs)
        assert network.class_counts["BatchedAlerts"] - before == sum(
            sent for sent, _ in fan_outs
        )
        assert "GossipEnvelope[BatchedAlerts]" not in network.class_counts
        live = [cluster.agents[ep] for ep in cluster.live_endpoints()]
        assert all(node.decider.consensus.gossip_mode for node in live)
        # A classical round still travels by the epidemic.
        counts = dict(network.class_counts)
        live[0].decider.consensus.paxos.start_round(2)
        assert network.class_counts["GossipEnvelope[Phase1a]"] == len(live) - 1
        assert network.class_counts.get("Phase1a") == counts.get("Phase1a")
