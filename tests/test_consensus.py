"""Consensus at scale: delta-gossip dissemination and incremental quorums.

Drives :class:`repro.core.fast_paxos.FastPaxos` instances directly over the
simulated network — no membership stack — so one consensus round can be
exercised at paper scale (n=1000) in a fraction of a second of virtual
time.  Pins the properties the dissemination overhaul claims:

* the incremental popcount bookkeeping is equivalent to full-bitmap scans;
* delta bundles carry only bits the peer has not been shown;
* the fast path decides under message loss with gossip-only dissemination;
* classical recovery still decides when gossip cannot converge;
* a view change at n=1000 costs O(N·log N·fanout) VoteBundle deliveries,
  not the O(N²) (~1M) of an all-to-all aggregate broadcast.
"""

import math
import random

from repro.core.fast_paxos import FastPaxos
from repro.core.messages import (
    AlertKind,
    Change,
    VoteBundle,
    VotePull,
    make_proposal,
)
from repro.core.node_id import Endpoint
from repro.core.settings import RapidSettings
from repro.obs.metrics import MetricsRegistry
from repro.sim.cluster import endpoint_for
from repro.sim.engine import Engine
from repro.sim.faults import AmbientLoss
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.process import SimRuntime


def proposal_for(index: int):
    return make_proposal(
        [Change(endpoint=Endpoint(f"10.99.0.{index}", 1), kind=AlertKind.REMOVE)]
    )


class ConsensusHarness:
    """N bare FastPaxos instances sharing an engine/network pair."""

    def __init__(self, n, settings, seed=1, latency=None):
        self.engine = Engine()
        self.network = Network(
            self.engine, seed=seed, latency=latency or ConstantLatency(0.001)
        )
        self.metrics = MetricsRegistry()
        self.members = tuple(endpoint_for(i) for i in range(n))
        index = {m: i for i, m in enumerate(self.members)}
        self.nodes = {}
        for addr in self.members:
            runtime = SimRuntime(self.engine, self.network, addr, seed=seed)
            node = FastPaxos(
                runtime=runtime,
                members=self.members,
                config_id=1,
                settings=settings,
                broadcast=self._broadcaster_for(runtime),
                on_decide=lambda value: None,
                gossip=settings.use_gossip(n),
                metrics=self.metrics,
                index=index,
            )
            runtime.attach(node.handle)
            self.nodes[addr] = node

    def _broadcaster_for(self, runtime):
        peers = tuple(m for m in self.members if m != runtime.addr)

        def broadcast(msg):
            runtime.broadcast(peers, msg)
            self.nodes[runtime.addr].handle(runtime.addr, msg)

        return broadcast

    def propose_all(self, proposal_of):
        for i, addr in enumerate(self.members):
            node = self.nodes[addr]
            self.engine.schedule(0.0, node.propose, proposal_of(i))

    def run_until_decided(self, timeout=60.0):
        deadline = self.engine.now + timeout
        while self.engine.now < deadline:
            self.engine.run(until=min(self.engine.now + 0.5, deadline))
            if all(node.decided for node in self.nodes.values()):
                return self.engine.now
        return None


def gossip_settings(**overrides):
    """Gossip dissemination at any view size."""
    return RapidSettings(gossip_threshold=1, **overrides)


class TestIncrementalQuorum:
    def test_counts_match_full_bitmap_scan(self):
        """The incremental popcount ledger equals bit_count() at all times."""
        harness = ConsensusHarness(8, RapidSettings())
        node = harness.nodes[harness.members[0]]
        rng = random.Random(42)
        proposals = [proposal_for(i) for i in range(3)]
        for _ in range(200):
            proposal = rng.choice(proposals)
            bitmap = rng.getrandbits(node.n)
            node._merge(proposal, bitmap)
            for p, bits in node.votes.items():
                assert node._counts[p] == bits.bit_count()

    def test_quorum_decision_equivalent_to_full_scan(self):
        """_check_quorum fires exactly when a full scan would."""
        harness = ConsensusHarness(16, RapidSettings())
        node = harness.nodes[harness.members[0]]
        proposal = proposal_for(0)
        for i in range(node.n):
            assert not node.decided
            full_scan = any(
                bits.bit_count() >= node.fast_quorum for bits in node.votes.values()
            )
            assert full_scan == node.decided
            node._merge(proposal, 1 << i)
            node._check_quorum()
            if node.decided:
                break
        assert node.decided
        assert node.votes[proposal].bit_count() == node.fast_quorum

    def test_merge_returns_only_new_bits(self):
        harness = ConsensusHarness(8, RapidSettings())
        node = harness.nodes[harness.members[0]]
        proposal = proposal_for(0)
        assert node._merge(proposal, 0b0110) == 0b0110
        assert node._merge(proposal, 0b0011) == 0b0001
        assert node._merge(proposal, 0b0110) == 0
        assert node._counts[proposal] == 3


class TestDeltaBundles:
    def test_delta_carries_only_unshown_bits(self):
        harness = ConsensusHarness(32, gossip_settings())
        node = harness.nodes[harness.members[0]]
        peer = harness.members[1]
        proposal = proposal_for(0)
        node._merge(proposal, 0b111)
        first = node._delta_for(peer)
        assert first.proposals == (proposal,)
        assert first.bitmaps == (0b111,)
        # Nothing new: no bundle at all.
        assert node._delta_for(peer) is None
        node._merge(proposal, 0b1111)
        second = node._delta_for(peer)
        assert second.bitmaps == (0b1000,)

    def test_bits_learned_from_peer_are_never_pushed_back(self):
        harness = ConsensusHarness(32, gossip_settings())
        a, b = harness.members[0], harness.members[1]
        node = harness.nodes[a]
        proposal = proposal_for(0)
        node._merge(proposal, 1 << 5)
        node._on_votes(
            VoteBundle(sender=b, config_id=1, proposals=(proposal,), bitmaps=(0b11,))
        )
        delta = node._delta_for(b)
        assert delta is not None
        assert delta.bitmaps == (1 << 5,)  # the peer's own bits are excluded

    def test_gossip_mode_selected_by_scale(self):
        default = RapidSettings()
        assert not default.use_gossip(default.gossip_threshold - 1)
        assert default.use_gossip(default.gossip_threshold)
        assert gossip_settings().use_gossip(2)
        unicast = RapidSettings(gossip_threshold=1_000_000)
        assert not unicast.use_gossip(10_000)


class TestGossipDissemination:
    def test_fast_path_decides_under_message_loss(self):
        """Delta gossip repairs loss: everyone decides without fallback."""
        harness = ConsensusHarness(48, gossip_settings(), seed=3)
        harness.network.add_rule(AmbientLoss(probability=0.15))
        proposal = proposal_for(0)
        harness.propose_all(lambda i: proposal)
        decided_at = harness.run_until_decided(timeout=20.0)
        assert decided_at is not None, "gossip did not converge under loss"
        for node in harness.nodes.values():
            assert node.decision == proposal
            assert not node.used_fallback

    def test_fallback_decides_when_gossip_converges_slowly(self):
        """Conflicting votes never reach a fast quorum; recovery decides."""
        settings = gossip_settings(
            gossip_interval=5.0,  # gossip too slow to matter
            consensus_fallback_timeout=0.5,
            consensus_rank_delay=0.05,
        )
        harness = ConsensusHarness(12, settings, seed=4)
        a, b = proposal_for(0), proposal_for(1)
        harness.propose_all(lambda i: a if i % 2 == 0 else b)
        decided_at = harness.run_until_decided(timeout=60.0)
        assert decided_at is not None, "fallback did not decide"
        decisions = {node.decision for node in harness.nodes.values()}
        assert len(decisions) == 1
        assert decisions <= {a, b}
        assert any(node.used_fallback for node in harness.nodes.values())

    def test_pull_heartbeat_is_bounded_after_convergence(self):
        """In gossip mode undecided nodes keep a slow pull heartbeat after push gossip converges — bounded by
        ``gossip_pull_fanout`` digests per ``pull_interval()`` per node
        (each earning at most one reply)."""
        settings = gossip_settings(
            gossip_convergence_ticks=3, consensus_fallback_timeout=10_000.0
        )
        n = 32
        harness = ConsensusHarness(n, settings, seed=5)
        proposal = proposal_for(0)
        for addr in harness.members[:8]:
            harness.engine.schedule(0.0, harness.nodes[addr].propose, proposal)
        harness.engine.run(until=30.0)
        sent_before = harness.network.sent_messages
        window = 30.0
        harness.engine.run(until=30.0 + window)
        sent = harness.network.sent_messages - sent_before
        per_node = settings.gossip_pull_fanout * (window / settings.pull_interval())
        assert 0 < sent <= 2 * n * per_node, (sent, per_node)
        # The aggregate is still fully converged and undecided.
        for addr in harness.members[:8]:
            node = harness.nodes[addr]
            assert not node.decided
            assert node.votes[proposal].bit_count() == 8


class TestPullGossip:
    def test_pull_merges_digest_and_replies_with_missing_bits(self):
        """A pull digest is merged like a bundle; the reply is the delta."""
        harness = ConsensusHarness(32, gossip_settings(), seed=7)
        a, b = harness.members[0], harness.members[1]
        node = harness.nodes[a]
        proposal = proposal_for(0)
        node._merge(proposal, 0b1111)
        node._on_pull(
            VotePull(sender=b, config_id=1, proposals=(proposal,), bitmaps=(0b10001,))
        )
        # The digest's bit 4 was merged locally...
        assert node.votes[proposal] == 0b11111
        # ...and the reply (delivered to b after the wire delay) carries
        # exactly the bits b was missing.
        harness.engine.run(until=1.0)
        peer = harness.nodes[b]
        assert peer.votes[proposal] == 0b1110 | 0b10001 | 0b1111

    def test_pull_to_decided_node_earns_decision(self):
        """Pulling a decided peer repairs the straggler with the decision."""
        harness = ConsensusHarness(8, gossip_settings(), seed=8)
        a, b = harness.members[0], harness.members[1]
        node = harness.nodes[a]
        proposal = proposal_for(0)
        node._merge(proposal, (1 << node.fast_quorum) - 1)
        node._check_quorum()
        assert node.decided
        node._on_pull(VotePull(sender=b, config_id=1, proposals=(), bitmaps=()))
        harness.engine.run(until=1.0)
        assert harness.nodes[b].decided
        assert harness.nodes[b].decision == proposal

    def test_stale_tick_sends_pulls(self):
        """A tick that learned nothing sends gossip_pull_fanout digests."""
        settings = gossip_settings(
            gossip_pull_fanout=2, consensus_fallback_timeout=10_000.0
        )
        harness = ConsensusHarness(16, settings, seed=9)
        node = harness.nodes[harness.members[0]]
        harness.engine.schedule(0.0, node.propose, proposal_for(0))
        # After the first push round, nothing new arrives (nobody else
        # votes), so every subsequent tick is stale and pulls.
        harness.engine.run(until=2.0)
        pulls = counter_value(harness, "consensus.vote_pulls_sent")
        assert pulls > 0

    def test_unicast_views_never_pull(self):
        """Pulls ride the gossip counting step: below the threshold a
        stale tick re-pushes the aggregate and sends no digest."""
        settings = RapidSettings(consensus_fallback_timeout=10_000.0)
        harness = ConsensusHarness(16, settings, seed=9)
        node = harness.nodes[harness.members[0]]
        harness.engine.schedule(0.0, node.propose, proposal_for(0))
        harness.engine.run(until=2.0)
        assert counter_value(harness, "consensus.vote_pulls_sent") == 0
        assert counter_value(harness, "consensus.vote_bundles_sent") > 0


class TestScale:
    def test_vote_bundle_deliveries_at_n1000_are_subquadratic(self):
        """Acceptance gate: one view change at n=1000 costs O(N·log N·fanout)
        VoteBundle deliveries — orders of magnitude below the ~1M an
        all-to-all aggregate broadcast used to produce."""
        n = 1000
        settings = RapidSettings()  # n=1000 >> threshold, gossip active
        harness = ConsensusHarness(n, settings, seed=6)
        proposal = proposal_for(0)
        harness.propose_all(lambda i: proposal)
        decided_at = harness.run_until_decided(timeout=30.0)
        assert decided_at is not None
        for node in harness.nodes.values():
            assert node.decision == proposal
            assert not node.used_fallback
        delivered = counter_value(harness, "consensus.vote_bundles_received")
        # Dissemination bound: every node pushes at most fanout deltas per
        # tick and gossip converges in ~log2(N) rounds, with at most
        # gossip_convergence_ticks quiet rounds before stopping; reactive
        # repair replies can at most double it.
        rounds = math.ceil(math.log2(n)) + settings.gossip_convergence_ticks
        bound = 2 * n * settings.gossip_fanout * rounds
        assert delivered <= bound, (delivered, bound)
        assert delivered < n * n / 8  # far from the O(N^2) regime


def counter_value(harness, name):
    return harness.metrics.snapshot().get(name, 0)
