"""Dissemination: the one unicast fan-out, and which view sizes gossip votes."""

import random

import pytest

from repro.core.broadcaster import Broadcaster, Peers
from repro.core.messages import BatchedAlerts
from repro.core.settings import RapidSettings
from repro.experiments.harness import RapidHarness
from repro.experiments.scenarios import join_churn_experiment
from repro.runtime import codec
from repro.sim.cluster import endpoint_for
from repro.sim.network import Network


class FakeRuntime:
    """Captures sends, fan-outs as one send per destination."""

    def __init__(self, addr):
        self.addr = addr
        self.sent = []

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def broadcast(self, dsts, msg):
        for dst in dsts:
            self.send(dst, msg)


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
        bcast.set_membership(view)
        assert bcast._peers._members is view


class TestModePerView:
    def test_mode_follows_each_installed_view(self):
        """Every view is one unicast fan-out to all its other members,
        whatever its size: nothing wraps, samples or relays."""
        runtime = FakeRuntime(members(8)[0])
        bcast = Broadcaster(runtime, lambda src, msg: None)
        for n in (4, 8, 4):
            runtime.sent.clear()
            bcast.set_membership(members(n))
            bcast.broadcast(f"n={n}")
            assert runtime.sent == [(peer, f"n={n}") for peer in members(n)[1:]]

    def test_a_lone_member_delivers_to_itself_and_sends_nothing(self):
        me = members(1)[0]
        delivered = []
        runtime = FakeRuntime(me)
        bcast = Broadcaster(runtime, lambda src, msg: delivered.append((src, msg)))
        bcast.set_membership((me,))
        bcast.broadcast("solo")
        assert delivered == [(me, "solo")]
        assert runtime.sent == []


class TestNodeWiring:
    def test_one_threshold_decision_drives_consensus_dissemination(self):
        """A node evaluates ``n >= gossip_threshold`` once per installed
        view and hands the answer to its consensus instance."""
        cluster = RapidHarness(seed=1, settings=RapidSettings(gossip_threshold=4))
        cluster.bootstrap(3, seed_delay=1.0)
        assert cluster.run_until_converged(3, timeout=60) is not None
        for node in cluster.agents.values():
            assert not node.decider.consensus.gossip_mode
        cluster.add_node(endpoint_for(3), seeds=(endpoint_for(0),))
        assert cluster.run_until_converged(4, timeout=60) is not None
        for node in cluster.agents.values():
            assert node.decider.consensus.gossip_mode

    def test_alert_batches_are_unicast_in_a_gossip_view(self):
        """Alert batches and classical rounds leave their sender as one
        fan-out to the whole view at every size; only votes gossip."""
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
        live = [cluster.agents[ep] for ep in cluster.live_endpoints()]
        assert all(node.decider.consensus.gossip_mode for node in live)
        # A classical round is the same fan-out.  It is not run to a
        # decision: this coordinator holds no proposal, so it would
        # decide an empty cut.
        phase1a = network.class_counts.get("Phase1a", 0)
        live[0].decider.consensus.paxos.start_round(2)
        assert network.class_counts["Phase1a"] - phase1a == len(live) - 1
        assert not [key for key in network.class_counts if key.startswith("Gossip")]


@pytest.mark.slow
def test_a_classical_round_in_a_gossip_view_fits_every_datagram():
    """``join_churn`` at n=512, seed 2, falls back to a classical round in
    a gossip view (seed 6 did until wire version 6 moved the delivery
    times).  Relayed through the epidemic, their accepts packed
    into bundles of up to 213,575 bytes (982 over the UDP payload limit,
    which a real socket refuses); sent one hop at a time, with
    ``Phase2b`` naming its cut by id, every datagram fits."""
    largest = 0
    send, broadcast = Network.send, Network.broadcast

    def encode(msg):
        nonlocal largest
        largest = max(largest, len(codec.encode_bytes(msg)))

    def encoded_send(self, src, dst, msg):
        encode(msg)
        send(self, src, dst, msg)

    def encoded_broadcast(self, src, dsts, msg):
        encode(msg)
        broadcast(self, src, dsts, msg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "send", encoded_send)
        patch.setattr(Network, "broadcast", encoded_broadcast)
        result = join_churn_experiment("rapid", 512, joiners=25, rejoins=5, seed=2)
    harness = result["harness"]
    assert harness.metrics.snapshot()["consensus.fallback_rounds"] >= 1
    assert result["churn_convergence"] is not None
    assert harness.converged(537)
    assert harness.ledger.report()["ok"] is True
    assert largest <= codec.MAX_DATAGRAM_BYTES
