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
  not the O(N²) (~1M) of an all-to-all aggregate broadcast;
* votes, pulls and decisions name a cut by its 64-bit id; a cut's body
  crosses the wire only in answer to a ``want``, is installed only if it
  hashes back to the id, and nothing malformed raises.
"""

import gc
import math
import random
import weakref

import pytest

from repro.core.configuration import Configuration
from repro.core.events import NodeStatus
from repro.core.fast_paxos import GOSSIP_CONVERGENCE_TICKS, GOSSIP_PULL_FANOUT, FastPaxos
from repro.core.membership import ViewChanger
from repro.core.messages import (
    Alert,
    AlertKind,
    Change,
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    VoteBundle,
    VotePull,
    cut_id,
    make_proposal,
)
from repro.core.node_id import Endpoint
from repro.core.paxos import PaxosInstance, recovery_threshold, select_recovery_value
from repro.core.ring import KRingTopology
from repro.core.settings import RapidSettings
from repro.experiments.harness import harness_for
from repro.experiments.scenarios import partition_heal_experiment
from repro.obs.metrics import MetricsRegistry
from repro.runtime import codec
from repro.sim.cluster import endpoint_for
from repro.sim.engine import Engine
from repro.sim.faults import Loss
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.process import SimRuntime


def proposal_for(index: int):
    return make_proposal(
        [Change(endpoint=Endpoint(f"10.99.0.{index}", 1), kind=AlertKind.REMOVE)]
    )


class ConsensusHarness:
    """N bare FastPaxos instances sharing an engine/network pair.

    Their ``broadcast`` is one unicast fan-out plus local delivery, which
    is what a node hands its consensus in both modes, so the split-vote
    tests cover the classical recovery a gossip view really runs.  They
    decide for ``config``, whose id scopes their traffic (a bare instance
    reads no scope; :meth:`move_on` puts a process there that does).
    """

    def __init__(self, n, settings, seed=1, latency=None):
        self.engine = Engine()
        self.network = Network(
            self.engine, seed=seed, latency=latency or ConstantLatency(0.001)
        )
        self.metrics = MetricsRegistry()
        self.settings = settings
        self.members = tuple(endpoint_for(i) for i in range(n))
        self.config = Configuration.of(self.members)
        index = {m: i for i, m in enumerate(self.members)}
        self.nodes = {}
        for addr in self.members:
            runtime = SimRuntime(self.engine, self.network, addr, seed=seed)
            node = FastPaxos(
                runtime=runtime,
                members=self.members,
                config_id=self.config.config_id,
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

    def cut(self):
        """A cut of this view that it can apply: the last member leaves."""
        return make_proposal([Change(endpoint=self.members[-1], kind=AlertKind.REMOVE)])

    def move_on(self, addr, cut):
        """Make ``addr`` a process that decided ``cut`` and left the view.

        A :class:`ViewChanger` deciding ``config`` takes the bare
        instance's place: its round decides ``cut``, it logs the link and
        stops, as its owner would on installing the next view.  From then
        on everything naming the view is answered from its
        :class:`~repro.core.fast_paxos.DecisionLog`
        (:meth:`ViewChanger.repair`), the one answer every composition
        gives for a decided view.
        """
        runtime = self.nodes[addr].runtime
        changer = ViewChanger(
            runtime,
            self.settings,
            lambda payload: None,
            lambda old, new, cut: changer.stop(),
            self.metrics,
        )
        changer.reset(self.config, None, self.settings.use_gossip(len(self.members)))
        changer.consensus._decide(cut)
        assert self.config.config_id in changer.log
        runtime.attach(changer.on_consensus)
        return changer

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


def unicast_settings(**overrides):
    """One aggregate broadcast per voter at any view size."""
    return RapidSettings(gossip_threshold=1_000_000, **overrides)


#: Both dissemination paths of a view, for tests of what they share.
BOTH_MODES = pytest.mark.parametrize(
    "settings_for", [unicast_settings, gossip_settings], ids=["unicast", "gossip"]
)


class TestIncrementalQuorum:
    def test_counts_match_full_bitmap_scan(self):
        """The incremental popcount ledger equals bit_count() at all times."""
        harness = ConsensusHarness(8, RapidSettings())
        node = harness.nodes[harness.members[0]]
        rng = random.Random(42)
        cuts = [cut_id(proposal_for(i)) for i in range(3)]
        for _ in range(200):
            cid = rng.choice(cuts)
            bitmap = rng.getrandbits(node.n)
            node._merge(cid, bitmap)
            for c, bits in node.votes.items():
                assert node._counts[c] == bits.bit_count()

    def test_quorum_decision_equivalent_to_full_scan(self):
        """_check_quorum fires exactly when a full scan would."""
        harness = ConsensusHarness(16, RapidSettings())
        node = harness.nodes[harness.members[0]]
        proposal = proposal_for(0)
        cid = node._hold(proposal)
        for i in range(node.n):
            assert not node.decided
            full_scan = any(
                bits.bit_count() >= node.fast_quorum for bits in node.votes.values()
            )
            assert full_scan == node.decided
            node._merge(cid, 1 << i)
            node._check_quorum()
            if node.decided:
                break
        assert node.decided
        assert node.decision == proposal and node.decision_id == cid
        assert node.votes[cid].bit_count() == node.fast_quorum

    def test_merge_returns_only_new_bits(self):
        harness = ConsensusHarness(8, RapidSettings())
        node = harness.nodes[harness.members[0]]
        cid = cut_id(proposal_for(0))
        assert node._merge(cid, 0b0110) == 0b0110
        assert node._merge(cid, 0b0011) == 0b0001
        assert node._merge(cid, 0b0110) == 0
        assert node._counts[cid] == 3


class TestDeltaBundles:
    def test_delta_carries_only_unshown_bits(self):
        harness = ConsensusHarness(32, gossip_settings())
        node = harness.nodes[harness.members[0]]
        peer = harness.members[1]
        cid = cut_id(proposal_for(0))
        node._merge(cid, 0b111)
        shown = node._ledger(peer)
        first = node._delta_for(shown)
        assert first.ids == (cid,)
        assert first.bitmaps == (0b111,)
        assert first.bodies == ()  # a push never spells the cut out
        # Nothing new: no bundle at all.
        assert node._delta_for(shown) is None
        node._merge(cid, 0b1111)
        second = node._delta_for(shown)
        assert second.bitmaps == (0b1000,)

    def test_bits_learned_from_peer_are_never_pushed_back(self):
        harness = ConsensusHarness(32, gossip_settings())
        a, b = harness.members[0], harness.members[1]
        node = harness.nodes[a]
        cid = cut_id(proposal_for(0))
        node._merge(cid, 1 << 5)
        node._on_votes(VoteBundle(sender=b, config_id=1, ids=(cid,), bitmaps=(0b11,)))
        delta = node._delta_for(node._ledger(b))
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
        harness.network.add_rule(Loss(probability=0.15))
        proposal = proposal_for(0)
        harness.propose_all(lambda i: proposal)
        decided_at = harness.run_until_decided(timeout=20.0)
        assert decided_at is not None, "gossip did not converge under loss"
        for node in harness.nodes.values():
            assert node.decision == proposal
            assert not node.used_fallback

    def test_fallback_decides_when_gossip_converges_slowly(self):
        """Conflicting votes never reach a fast quorum; recovery decides."""
        self.split_vote_decides_by_fallback(gossip_settings)

    def test_split_vote_in_a_unicast_view_falls_back_too(self):
        self.split_vote_decides_by_fallback(unicast_settings)

    def test_a_split_unicast_view_pulls_at_the_heartbeat_until_it_falls_back(self):
        """Pulling cannot repair a 50/50 split — no quorum exists to learn
        — so a voter's stale ticks slow to the heartbeat until the lowest
        rank's fallback timer fires and its classical round decides.  Each
        member sends a bounded handful of pulls, not one fan-out per
        tick."""
        settings = RapidSettings()
        assert not settings.use_gossip(12)
        harness = ConsensusHarness(12, settings, seed=4)
        pulls = dict.fromkeys(harness.members, 0)
        for addr, node in harness.nodes.items():
            runtime = node.runtime

            def spy(dst, msg, addr=addr, send=runtime.send):
                pulls[addr] += type(msg) is VotePull
                send(dst, msg)

            def fan_out(dsts, msg, addr=addr, broadcast=runtime.broadcast):
                pulls[addr] += len(dsts) * (type(msg) is VotePull)
                broadcast(dsts, msg)

            runtime.send, runtime.broadcast = spy, fan_out
        a, b = proposal_for(0), proposal_for(1)
        harness.propose_all(lambda i: a if i % 2 == 0 else b)
        decided_at = harness.run_until_decided(timeout=60.0)
        timeout = settings.consensus_fallback_timeout
        assert decided_at is not None and timeout < decided_at <= timeout + 1.0
        assert len({node.decision for node in harness.nodes.values()}) == 1
        window = settings.gossip_interval * GOSSIP_CONVERGENCE_TICKS
        bound = GOSSIP_CONVERGENCE_TICKS + math.ceil(timeout / window) + 2
        assert 0 < max(pulls.values()) <= bound, (pulls, bound)
        assert counter_value(harness, "consensus.body_pulls_sent") == 0

    def split_vote_decides_by_fallback(self, settings_for):
        """A 50/50 split: the half that voted for the other cut learns the
        decided body from ``Phase1b``/``Phase2a`` — nobody counted a
        quorum, so nobody pulls."""
        settings = settings_for(
            gossip_interval=5.0,  # gossip too slow to matter
            consensus_fallback_timeout=0.5,
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
        (decided,) = decisions
        for node in harness.nodes.values():
            assert node.decision_id == cut_id(decided)
            assert node._bodies[node.decision_id] == decided
        assert counter_value(harness, "consensus.body_pulls_sent") == 0
        assert counter_value(harness, "consensus.bodies_sent") == 0

    def test_pull_heartbeat_is_bounded_after_convergence(self):
        """In gossip mode undecided nodes keep a slow pull heartbeat after push gossip converges — bounded by
        ``GOSSIP_PULL_FANOUT`` digests per convergence window per node
        (each earning at most one reply)."""
        settings = gossip_settings(consensus_fallback_timeout=10_000.0)
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
        pull_interval = settings.gossip_interval * GOSSIP_CONVERGENCE_TICKS
        per_node = GOSSIP_PULL_FANOUT * (window / pull_interval)
        assert 0 < sent <= 2 * n * per_node, (sent, per_node)
        # The aggregate is still fully converged and undecided.
        for addr in harness.members[:8]:
            node = harness.nodes[addr]
            assert not node.decided
            assert node.votes[cut_id(proposal)].bit_count() == 8

    def test_voters_of_one_instant_start_counting_at_random_phases(self):
        """One alert batch reaches a gossip view's members in the same
        delivery, so they vote in the same instant; their first ticks
        fall at random phases of the interval, not in lock-step."""
        settings = gossip_settings()
        harness = ConsensusHarness(16, settings)
        now = harness.engine.now
        proposal = proposal_for(0)
        for node in harness.nodes.values():
            node.propose(proposal)
        ticks = {node._gossip_timer.time for node in harness.nodes.values()}
        assert len(ticks) > 1
        assert all(now < t < now + settings.gossip_interval for t in ticks)


class TestPullGossip:
    def test_pull_merges_digest_and_replies_with_missing_bits(self):
        """A pull digest is merged like a bundle; the reply is the delta."""
        harness = ConsensusHarness(32, gossip_settings(), seed=7)
        a, b = harness.members[0], harness.members[1]
        node = harness.nodes[a]
        cid = cut_id(proposal_for(0))
        node._merge(cid, 0b1111)
        node._on_pull(VotePull(sender=b, config_id=1, ids=(cid,), bitmaps=(0b10001,)))
        # The digest's bit 4 was merged locally...
        assert node.votes[cid] == 0b11111
        # ...and the reply (delivered to b after the wire delay) carries
        # exactly the bits b was missing.
        harness.engine.run(until=1.0)
        peer = harness.nodes[b]
        assert peer.votes[cid] == 0b1110 | 0b10001 | 0b1111

    def test_pull_to_decided_node_earns_decision(self):
        """Pulling a peer that decided and moved on repairs the straggler
        with the decision, from the peer's ``DecisionLog``."""
        harness = ConsensusHarness(8, gossip_settings(), seed=8)
        a, b = harness.members[0], harness.members[1]
        cut = harness.cut()
        harness.nodes[b]._hold(cut)  # both computed the cut; only a decided
        changer = harness.move_on(a, cut)
        changer.on_consensus(b, VotePull(sender=b, config_id=harness.config.config_id))
        harness.engine.run(until=1.0)
        assert harness.nodes[b].decided
        assert harness.nodes[b].decision == cut
        # The decision named the cut; b spelled it out from its own table.
        assert counter_value(harness, "consensus.bodies_sent") == 0

    def test_stale_tick_sends_pulls(self):
        """A tick that learned nothing sends GOSSIP_PULL_FANOUT digests."""
        settings = gossip_settings(consensus_fallback_timeout=10_000.0)
        harness = ConsensusHarness(16, settings, seed=9)
        node = harness.nodes[harness.members[0]]
        harness.engine.schedule(0.0, node.propose, proposal_for(0))
        # After the first push round, nothing new arrives (nobody else
        # votes), so every subsequent tick is stale and pulls.
        harness.engine.run(until=2.0)
        pulls = counter_value(harness, "consensus.vote_pulls_sent")
        assert pulls > 0

    @BOTH_MODES
    def test_a_stale_tick_pulls_and_a_quiet_voter_slows_to_a_heartbeat(self, settings_for):
        """The one pull rule of every view: a tick that learned a bit sends
        nothing; a tick that learned none sends ``GOSSIP_PULL_FANOUT``
        digests, each the whole aggregate; after
        ``GOSSIP_CONVERGENCE_TICKS`` such ticks, one per convergence
        window."""
        settings = settings_for(consensus_fallback_timeout=10_000.0)
        harness = ConsensusHarness(16, settings, seed=9)
        a, b = harness.members[0], harness.members[1]
        node = harness.nodes[a]
        pulls, send = [], node.runtime.send

        def spy(dst, msg):
            if type(msg) is VotePull:
                pulls.append((harness.engine.now, msg))
            send(dst, msg)

        node.runtime.send = spy
        node.propose(harness.cut())
        interval = settings.gossip_interval
        first = node._gossip_timer.time
        harness.engine.run(until=first + interval / 2)
        assert [t for t, _ in pulls] == [first] * GOSSIP_PULL_FANOUT
        for _, msg in pulls:
            assert msg.want == ()
            assert (msg.ids, msg.bitmaps) == (tuple(node.votes), tuple(node.votes.values()))
        # A bit learned before the next tick: that tick sends nothing.
        cid = cut_id(harness.cut())
        node.handle(b, VoteBundle(b, harness.config.config_id, ids=(cid,), bitmaps=(0b10,)))
        learned = first + interval
        del pulls[:]
        window = interval * GOSSIP_CONVERGENCE_TICKS
        harness.engine.run(until=learned + 4 * window + interval / 2)
        times = [t for t, _ in pulls[::GOSSIP_PULL_FANOUT]]
        expected = [learned + k * interval for k in range(1, GOSSIP_CONVERGENCE_TICKS + 1)]
        expected += [expected[-1] + k * window for k in (1, 2, 3)]
        assert times == pytest.approx(expected)
        assert len(pulls) == GOSSIP_PULL_FANOUT * len(expected)
        assert pulls[-1][1].bitmaps == (0b11,)
        assert not node.decided

    def test_unicast_pull_is_answered_with_only_the_bits_it_lacks(self):
        """A unicast view keeps no ledger rows: the reply to a pull is
        computed against the digest itself."""
        harness = ConsensusHarness(16, unicast_settings(), seed=7)
        a, b = harness.members[0], harness.members[1]
        node = harness.nodes[a]
        cid = cut_id(proposal_for(0))
        node._merge(cid, 0b1111)
        node._on_pull(VotePull(sender=b, config_id=1, ids=(cid,), bitmaps=(0b10011,)))
        assert node.votes[cid] == 0b11111 and node._shown == {}
        harness.engine.run(until=0.1)  # before a's first tick
        assert harness.nodes[b].votes[cid] == 0b1100
        # A digest that holds everything earns no reply.
        node._on_pull(VotePull(sender=b, config_id=1, ids=(cid,), bitmaps=(0b11111,)))
        assert counter_value(harness, "consensus.vote_pull_replies") == 1


class TestLaggardRepair:
    """In a unicast view every member counts every vote: the ``Decision``
    learn message goes only to a process that pulls for it."""

    def converged(self, n, seed=1):
        harness = harness_for("rapid", seed=seed)
        endpoints = harness.bootstrap(n, seed_delay=2.0, stagger=1.0)
        assert harness.run_until_converged(n, timeout=120.0) is not None
        harness.run_for(2.0)
        assert not harness.settings.use_gossip(n)
        return harness, endpoints

    def test_a_lossless_view_change_sends_no_decision(self):
        """The last quarter of the voters vote after the rest decided;
        their bundles are not answered, because they count the others'."""
        harness, endpoints = self.converged(8)
        before = harness.network.class_counts.get("Decision", 0)
        harness.crash([endpoints[3]])
        assert harness.run_until_converged(7, timeout=120.0) is not None
        harness.run_for(2.0)
        assert harness.network.class_counts.get("Decision", 0) == before
        assert harness.ledger.report()["ok"] is True

    def test_a_member_that_loses_every_vote_bundle_installs_on_its_next_tick(self):
        """Its stale tick pulls; the peers that moved on answer with the
        Decision, so it installs within one ``gossip_interval`` (plus a
        LAN round trip) of the rest, and not at the fallback timeout."""
        harness, endpoints = self.converged(16)
        deaf = harness.agents[endpoints[5]]

        def handler(src, msg, deliver=deaf.on_message):
            if type(msg) is not VoteBundle:
                deliver(src, msg)

        deaf.runtime.attach(handler)
        start = len(harness.trace.records)
        harness.crash([endpoints[9]])
        assert harness.run_until_converged(15, timeout=120.0) is not None
        installs = {r.endpoint: r.time for r in harness.trace.records[start:]}
        rest = max(t for ep, t in installs.items() if ep != deaf.addr)
        assert installs[deaf.addr] - rest <= harness.settings.gossip_interval + 0.01
        assert harness.ledger.report()["ok"] is True


class TestReplacedInstances:
    def test_no_replaced_instance_survives_a_gossip_view_change(self):
        """Installing a view cancels the old instance's gossip timer and
        its fallback timer, due up to ``consensus_fallback_timeout +
        CONSENSUS_RANK_DELAY * index`` later; nothing else holds the
        instance, so it is garbage as soon as the new view is in."""
        harness = harness_for("rapid", seed=1, settings=gossip_settings())
        endpoints = harness.bootstrap(16, seed_delay=2.0, stagger=1.0)
        assert harness.run_until_converged(16, timeout=120.0) is not None
        harness.run_for(2.0)
        assert harness.settings.use_gossip(16)
        survivors = [ep for ep in endpoints if ep != endpoints[3]]
        replaced = {
            ep: weakref.ref(harness.agents[ep].decider.consensus) for ep in survivors
        }
        harness.crash([endpoints[3]])
        assert harness.run_until_converged(15, timeout=120.0) is not None
        assert all(
            harness.agents[ep].decider.consensus is not ref()
            for ep, ref in replaced.items()
        )
        gc.collect()
        assert [ep for ep, ref in replaced.items() if ref() is not None] == []
        assert harness.ledger.report()["ok"] is True

    def test_a_replaced_round_is_freed_by_the_reset_that_replaces_it(self):
        """A round that voted, armed both timers, pushed deltas and answered
        a classical ``Phase1a`` holds no reference back to itself: the
        ``reset`` that drops the decider's last reference frees it, with
        the collector off."""
        engine = Engine()
        network = Network(engine, seed=1, latency=ConstantLatency(0.001))
        members = tuple(endpoint_for(i) for i in range(8))
        runtime = SimRuntime(engine, network, members[0], seed=1)
        settings = gossip_settings()
        changer = ViewChanger(
            runtime, settings, lambda payload: None, lambda *args: None
        )
        config = Configuration.of(members)
        topology = KRingTopology.for_configuration(config, settings.k)
        changer.reset(config, topology, gossip=True)
        for observer in topology.unique_observers_of(members[3]):
            changer.on_alert(Alert(observer, members[3], AlertKind.REMOVE, config.config_id))
        round_ = changer.consensus
        changer.on_consensus(members[2], Phase1a(members[2], config.config_id, (2, 2)))
        assert round_.my_vote and round_.paxos.promised_rank == (2, 2)
        assert not round_.decided
        replaced = weakref.ref(round_)
        del round_
        closed = config.apply(make_proposal([Change(members[3], AlertKind.REMOVE)]))
        gc.disable()
        try:
            changer.reset(
                closed, KRingTopology.for_configuration(closed, settings.k), gossip=True
            )
            assert replaced() is None
        finally:
            gc.enable()

    def test_a_gossip_run_through_a_join_a_leave_and_a_crash_makes_no_cyclic_garbage(
        self,
    ):
        """Every per-view object dies by reference counting: nothing is
        left for the collector after views are installed by gossip."""
        gc.collect()
        gc.disable()
        try:
            harness = harness_for(
                "rapid", seed=3, settings=RapidSettings(gossip_threshold=8)
            )
            endpoints = harness.bootstrap(48, seed_delay=2.0, stagger=8.0)
            assert harness.run_until_converged(48, timeout=120.0) is not None
            harness.add_node(endpoint_for(100), seeds=(endpoints[0],))
            assert harness.run_until_converged(49, timeout=120.0) is not None
            leaver = harness.agents[endpoints[5]]
            leaver.leave()
            harness.run_for(3.0)
            assert leaver.status == NodeStatus.LEFT
            assert {harness.agents[ep].view_size for ep in endpoints[:5]} == {48}
            harness.crash([endpoints[5], endpoints[9]])
            assert harness.run_until_converged(47, timeout=120.0) is not None
            assert harness.ledger.report()["ok"] is True
            assert gc.collect() == 0
        finally:
            gc.enable()


def drop_first_body(harness, addr, count=1):
    """Lose the first ``count`` messages that carry a cut body to ``addr``."""
    node, dropped = harness.nodes[addr], []

    def handler(src, msg):
        carried = msg.bodies if isinstance(msg, VoteBundle) else (
            msg.body if isinstance(msg, Decision) else ()
        )
        if carried and len(dropped) < count:
            dropped.append(msg)
            return
        node.handle(src, msg)

    harness.network.register(addr, handler)
    return dropped


class TestBodiesOnDemand:
    """A cut's body crosses the wire only in answer to a ``want``."""

    @BOTH_MODES
    @pytest.mark.parametrize("lose_first_reply", [False, True], ids=["", "reply-lost"])
    def test_quorum_for_an_unknown_cut_is_pulled_verified_and_decided(
        self, settings_for, lose_first_reply
    ):
        """A node whose cut detector never fired counts a fast quorum for
        an id it cannot spell out, asks a voter, and decides on the fast
        path — one gossip tick later when the first reply is lost."""
        settings = settings_for(consensus_fallback_timeout=30.0)
        harness = ConsensusHarness(16, settings, seed=11)
        proposal = proposal_for(0)
        silent = harness.members[-1]
        dropped = drop_first_body(harness, silent) if lose_first_reply else None
        for addr in harness.members[:-1]:
            harness.engine.schedule(0.0, harness.nodes[addr].propose, proposal)
        decided_at = harness.run_until_decided(timeout=10.0)
        assert decided_at is not None and decided_at < settings.consensus_fallback_timeout
        node = harness.nodes[silent]
        assert node.my_vote is None
        assert node.decision == proposal and node.decision_id == cut_id(proposal)
        assert not any(n.used_fallback for n in harness.nodes.values())
        pulls = counter_value(harness, "consensus.body_pulls_sent")
        bodies = counter_value(harness, "consensus.bodies_sent")
        if lose_first_reply:
            assert len(dropped) == 1
            assert pulls == bodies >= 2
        else:
            assert pulls == bodies == 1
        assert counter_value(harness, "consensus.bodies_rejected") == 0

    @BOTH_MODES
    def test_decision_naming_an_unknown_cut_is_pulled_from_its_sender(
        self, settings_for
    ):
        """``Decision(id)`` -> ``want`` -> ``Decision(id, body)``: a laggard
        with no vote on record asks the process that told it, and keeps
        asking every gossip tick while the answers get lost."""
        harness = ConsensusHarness(8, settings_for(), seed=12)
        a, b = harness.members[0], harness.members[1]
        cut = harness.cut()
        harness.move_on(a, cut)
        laggard = harness.nodes[b]
        dropped = drop_first_body(harness, b, count=2)
        told = Decision(a, harness.config.config_id, cut_id(cut))
        laggard.handle(a, told)
        assert not laggard.decided and laggard._want == cut_id(cut)
        # The same decision from elsewhere is not a reason to ask twice.
        laggard.handle(a, told)
        assert counter_value(harness, "consensus.body_pulls_sent") == 1
        harness.engine.run(until=1.0)
        assert len(dropped) == 2
        assert laggard.decided and laggard.decision == cut
        assert counter_value(harness, "consensus.body_pulls_sent") == 3
        assert counter_value(harness, "consensus.bodies_sent") == 3

    def test_its_own_late_cut_detection_can_supply_the_awaited_body(self):
        """The laggard's cut detector fires after it counted the quorum:
        proposing the cut it is waiting for decides it, and casts no vote."""
        harness = ConsensusHarness(8, unicast_settings(), seed=14)
        a, b = harness.members[0], harness.members[1]
        cut = harness.cut()
        harness.move_on(a, cut)
        laggard = harness.nodes[b]
        laggard.handle(a, Decision(a, harness.config.config_id, cut_id(cut)))
        assert not laggard.decided and laggard._want == cut_id(cut)
        laggard.propose(cut)
        assert laggard.decided and laggard.decision == cut
        assert laggard.my_vote is None
        assert counter_value(harness, "consensus.votes_cast") == 0

    def test_a_body_is_installed_only_under_the_id_it_hashes_to(self):
        harness = ConsensusHarness(8, unicast_settings(), seed=13)
        a, b = harness.members[0], harness.members[1]
        node = harness.nodes[a]
        wanted, other = proposal_for(0), proposal_for(1)
        node._merge(cut_id(wanted), (1 << node.fast_quorum) - 1 << 1)
        node._check_quorum()
        assert not node.decided and node._want == cut_id(wanted)
        # Not the body asked for, a decision whose body is another cut's.
        # (A body scoped to a configuration this instance is not deciding
        # never reaches it: tests/test_roles.py, TestViewChanger.)
        node.handle(b, VoteBundle(b, 1, bodies=(other,)))
        node.handle(b, Decision(b, 1, cut_id(wanted), body=other))
        assert not node.decided
        assert counter_value(harness, "consensus.bodies_rejected") == 2
        node.handle(b, VoteBundle(b, 1, bodies=(other, wanted)))
        assert node.decided and node.decision == wanted
        assert counter_value(harness, "consensus.bodies_rejected") == 3

    def test_a_want_for_a_cut_never_held_is_dropped_and_counted(self):
        harness = ConsensusHarness(8, unicast_settings(), seed=14)
        a, b = harness.members[0], harness.members[1]
        node = harness.nodes[a]
        sent = harness.network.sent_messages
        node.handle(b, VotePull(b, 1, want=(12345,)))
        assert harness.network.sent_messages == sent  # nothing to say
        assert counter_value(harness, "consensus.wants_unanswered") == 1
        cut = harness.cut()
        changer = harness.move_on(a, cut)
        changer.on_consensus(b, VotePull(b, harness.config.config_id, want=(12345,)))
        assert counter_value(harness, "consensus.wants_unanswered") == 2
        assert counter_value(harness, "consensus.bodies_sent") == 0
        # The decision still went back, by id — which b then asks about.
        harness.engine.run(until=1.0)
        assert harness.nodes[b].decision == cut
        assert counter_value(harness, "consensus.bodies_sent") == 1

    @BOTH_MODES
    def test_healed_partition_laggards_fetch_the_cut_that_removed_them(
        self, settings_for
    ):
        """After the heal a minority member is told ``Decision(id)`` for a
        cut it never saw a vote for, asks for the body, learns it was
        removed, and rejoins — with a clean ledger, as before."""
        result = partition_heal_experiment(
            "rapid", 16, fraction=0.2, partition_for=30.0, seed=1,
            settings=settings_for(),
        )
        harness = result["harness"]
        assert result["minority_installs_during_partition"] == 0
        assert result["majority_converged_during_partition"] is True
        assert result["rejoined"] == result["minority"] > 0
        assert result["reconverge_time"] is not None
        assert harness.ledger.report()["ok"] is True
        snapshot = harness.metrics.snapshot()
        # One body per laggard, not one per Decision it was sent.
        assert snapshot["consensus.body_pulls_sent"] >= result["minority"]
        assert 0 < snapshot["consensus.bodies_sent"] <= 2 * result["minority"]
        assert harness.network.class_counts["Decision"] > snapshot["consensus.bodies_sent"]

    def test_one_vote_is_one_mtu_however_large_the_cut(self):
        """A 1,024-change cut in a 2,048-member view: every fast-path
        message names it by id, so the real encoding of each fits one
        1,400 B frame where shipping the body (as wire version 1 did in
        every vote) takes more than 16 KB."""
        members = tuple(sorted(endpoint_for(i) for i in range(2048)))
        uuids = random.Random(7)
        cut = make_proposal(
            Change(endpoint_for(i), AlertKind.JOIN, uuid=uuids.getrandbits(64))
            for i in range(2048, 3072)
        )
        cid, everyone, config_id = cut_id(cut), (1 << 2048) - 1, 2**64 - 1
        for msg in (
            VoteBundle(members[0], config_id, ids=(cid,), bitmaps=(everyone,)),
            VotePull(members[0], config_id, ids=(cid,), bitmaps=(everyone,), want=(cid,)),
            Decision(members[0], config_id, cut_id=cid),
        ):
            data = codec.encode_bytes(msg)
            assert len(data) <= 1400, (type(msg).__name__, len(data))
            assert codec.decode_bytes(data) == msg
        # The body travels only on request, and then it is this large.
        answered = Decision(members[0], config_id, cut_id=cid, body=cut)
        assert len(codec.encode_bytes(answered)) > 16 * 1024


class TestMalformedConsensusTraffic:
    """Whatever names a cut wrongly is dropped or pulled, and counted."""

    @BOTH_MODES
    def test_seeded_fuzz_never_raises_in_on_message(self, settings_for):
        harness = harness_for("rapid", seed=21, settings=settings_for())
        endpoints = harness.bootstrap(8, seed_delay=2.0, stagger=1.0)
        assert harness.run_until_converged(8, timeout=120.0) is not None
        harness.run_for(2.0)
        rng = random.Random(21)
        node = harness.agents[endpoints[3]]
        current = node.config.config_id
        past = next(iter(node.decider.log))
        views = {ep: harness.agents[ep].config.config_id for ep in endpoints}
        before = harness.metrics.snapshot()

        def some_id():
            # Ids of cuts nobody can spell out: no body below hashes to one.
            return rng.choice((0, 1, rng.getrandbits(64), cut_id(proposal_for(9))))

        def some_ids():
            return tuple(some_id() for _ in range(rng.randrange(3)))

        def some_cut():
            return tuple(proposal_for(rng.randrange(4)) for _ in range(rng.randrange(3)))

        for _ in range(600):
            src = rng.choice(endpoints)
            config_id = rng.choice((current, past, rng.getrandbits(64)))
            ids = some_ids()
            # Fewer bitmaps than ids, more, wider than the view: all fine.
            bitmaps = tuple(rng.getrandbits(12) for _ in range(rng.randrange(4)))
            msg = rng.choice(
                (
                    VoteBundle(src, config_id, ids, bitmaps, bodies=some_cut()),
                    VotePull(src, config_id, ids, bitmaps, want=some_ids()),
                    # Never a body under the id it hashes to: that would be
                    # a decision, and the protocol trusts its members.
                    Decision(src, config_id, rng.getrandbits(64), rng.choice(some_cut() + ((),))),
                )
            )
            node.on_message(src, msg)
        harness.run_for(5.0)
        # Nobody installed anything on the strength of it.
        assert {ep: harness.agents[ep].config.config_id for ep in endpoints} == views
        assert all(harness.agents[ep].status == NodeStatus.ACTIVE for ep in endpoints)
        assert harness.ledger.report()["ok"] is True
        after = harness.metrics.snapshot()

        def counted(name):
            name = f"consensus.{name}"
            return after.get(name, 0) - before.get(name, 0)

        for name in ("bodies_rejected", "wants_unanswered", "body_pulls_sent"):
            assert counted(name) > 0, name
        assert counted("bodies_sent") == 0


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
        # GOSSIP_CONVERGENCE_TICKS quiet rounds before stopping; reactive
        # repair replies can at most double it.
        rounds = math.ceil(math.log2(n)) + GOSSIP_CONVERGENCE_TICKS
        bound = 2 * n * settings.gossip_fanout * rounds
        assert delivered <= bound, (delivered, bound)
        assert delivered < n * n / 8  # far from the O(N^2) regime


FAST = (1, 0)  # the rank every fast-round vote is accepted at


def promise(i, vrank=None, vvalue=None, rank=(2, 0)):
    """Acceptor ``i``'s Phase1b for ``rank``, reporting what it last accepted."""
    return Phase1b(endpoint_for(i), 1, rank, vrank, vvalue)


class TestCoordinatorRule:
    """``select_recovery_value``: a wrong pick here forks the cluster — it
    is the only thing standing between a recovery round and a value some
    quorum it cannot fully see has already chosen."""

    n = 8  # classical quorum 5, fast quorum 6, recovery threshold 3
    a, b, own = proposal_for(0), proposal_for(1), proposal_for(2)

    def test_nobody_voted_frees_the_coordinators_own_value(self):
        responses = [promise(i) for i in range(5)]
        assert select_recovery_value(responses, self.n, self.own) == self.own

    def test_a_classical_round_outranks_any_number_of_fast_votes(self):
        responses = [promise(i, FAST, self.a) for i in range(4)]
        responses.append(promise(4, (2, 3), self.b))
        assert select_recovery_value(responses, self.n, self.own) == self.b
        responses.append(promise(5, (3, 1), self.own))
        assert select_recovery_value(responses, self.n, self.a) == self.own

    def test_a_fast_value_at_the_threshold_may_be_chosen_and_is_kept(self):
        threshold = recovery_threshold(self.n)
        assert threshold == 3
        voted = [promise(i, FAST, self.a) for i in range(threshold)]
        rest = [promise(i, FAST, self.b) for i in range(threshold, 5)]
        assert select_recovery_value(voted + rest, self.n, self.own) == self.a
        # One short of it no fast quorum can have formed: nothing to keep.
        assert select_recovery_value(voted[1:] + rest, self.n, self.own) == self.own


class BarePaxos:
    """One :class:`PaxosInstance` over ``n`` acceptors, its broadcasts
    wired to a list."""

    def __init__(self, n=5, me=0):
        members = tuple(endpoint_for(i) for i in range(n))
        self.broadcasts = []
        self.instance = PaxosInstance(
            endpoint_for(me),
            {m: i for i, m in enumerate(members)},
            config_id=1,
            send=lambda dst, msg: None,
            broadcast=self.broadcasts.append,
        )

    @property
    def decided(self):
        """The decision read off the instance, as a list of at most one."""
        return [self.instance.decision] if self.instance.decided else []

    def accept(self, i, value, rank=(2, 0)):
        """Acceptor ``i`` accepts ``value``, named by its id."""
        accept = Phase2b(endpoint_for(i), 1, rank, cut_id(value))
        self.instance.handle(endpoint_for(i), accept)


class TestClassicalRounds:
    a, b = proposal_for(0), proposal_for(1)

    def test_only_an_acceptor_has_an_instance(self):
        with pytest.raises(KeyError):
            BarePaxos(n=5, me=5)
        harness = ConsensusHarness(4, unicast_settings())
        outsider = SimRuntime(harness.engine, harness.network, endpoint_for(9), seed=1)
        with pytest.raises(KeyError):
            FastPaxos(
                outsider, harness.members, 1, unicast_settings(), print, print, False
            )

    def test_an_acceptor_changing_its_vote_moves_the_count_a_duplicate_does_not(self):
        paxos = BarePaxos(n=5)  # three identical accepts decide
        paxos.accept(1, self.a)
        paxos.accept(1, self.a)  # duplicated datagram
        paxos.accept(2, self.a)
        assert not paxos.decided, "a duplicate was counted as a third acceptor"
        paxos.accept(1, self.b)  # acceptor 1 now backs b: a is down to one
        paxos.accept(3, self.a)
        assert not paxos.decided, "a vote that moved away was still counted"
        paxos.accept(1, self.b, rank=(3, 1))  # another round counts apart
        paxos.accept(4, self.a)
        assert paxos.decided == [cut_id(self.a)]
        paxos.accept(1, self.a)  # after the decision nothing is handled
        assert paxos.decided == [cut_id(self.a)]

    def test_a_phase1b_quorum_counts_distinct_acceptors_of_the_coordinated_rank(self):
        paxos = BarePaxos(n=5, me=2)
        instance = paxos.instance
        instance.my_proposal = self.b
        assert instance.start_round(2) == (2, 2)
        assert paxos.broadcasts == [Phase1a(endpoint_for(2), 1, (2, 2))]
        for response in (
            promise(0, FAST, self.a, rank=(2, 2)),
            promise(0, FAST, self.a, rank=(2, 2)),  # duplicate
            promise(1, FAST, self.a, rank=(2, 1)),  # somebody else's round
            promise(1, FAST, self.a, rank=(2, 2)),
        ):
            instance.handle(response.sender, response)
        assert len(paxos.broadcasts) == 1, "two distinct promises are no quorum"
        instance.handle(endpoint_for(3), promise(3, rank=(2, 2)))
        # Two of five saw a: recovery_threshold(5) == 2, so a may be chosen.
        assert paxos.broadcasts[1] == Phase2a(endpoint_for(2), 1, (2, 2), self.a)

    def test_a_classical_round_completing_after_a_fast_decision_decides_nothing(self):
        """``on_decide`` runs exactly once: acceptors' ``Phase2b``s still
        in flight when the fast quorum formed complete the classical round
        into a decided instance."""
        harness = ConsensusHarness(5, unicast_settings(), seed=3)
        node, decided = harness.nodes[harness.members[0]], []
        node._on_decide = decided.append
        node._merge(node._hold(self.a), 0b01111)
        node._check_quorum()
        assert decided == [self.a]
        for i in range(1, 4):  # a classical quorum of accepts
            accept = Phase2b(endpoint_for(i), 1, (2, 1), cut_id(self.a))
            node.handle(endpoint_for(i), accept)
        assert node.paxos.decided and decided == [self.a]

    def test_an_accept_is_the_same_size_however_large_the_cut(self):
        """``Phase2b`` names its cut by id, so every datagram of an
        all-to-all accept round is fixed-size, like a body-less
        ``Decision``."""
        sizes = set()
        for changes in (1, 1_000):
            cut = make_proposal(
                Change(endpoint_for(i), AlertKind.JOIN, uuid=i) for i in range(changes)
            )
            accept = Phase2b(endpoint_for(0), 2**64 - 1, (2, 999), cut_id=cut_id(cut))
            sizes.add(len(codec.encode_bytes(accept)))
        assert len(sizes) == 1, sizes

    def test_an_accept_majority_for_a_cut_never_held_pulls_it_then_decides_once(self):
        """A node that lost the ``Phase2a`` counts a classical majority of
        ``Phase2b`` for a cut it cannot spell out: it asks the acceptor
        whose accept completed the majority (that acceptor filed the body
        from ``Phase2a``), drops a body that does not hash to the id, and
        decides once on the one that does."""
        harness = ConsensusHarness(5, unicast_settings(), seed=15)
        ends = harness.members
        node, decided = harness.nodes[ends[0]], []
        node._on_decide = decided.append
        pulls = []
        send = harness.network.send

        def spy(src, dst, msg):
            if isinstance(msg, VotePull):
                pulls.append((src, dst, msg.want))
            send(src, dst, msg)

        harness.network.send = spy
        cid, rank = cut_id(self.a), (2, 4)
        for i in (1, 2):
            node.handle(ends[i], Phase2b(ends[i], 1, rank, cid))
        # The coordinator's Phase2a reaches acceptor 3, which broadcasts
        # its Phase2b: the third accept of a majority of five.
        harness.nodes[ends[3]].handle(ends[4], Phase2a(ends[4], 1, rank, self.a))
        harness.engine.run(until=0.0015)
        assert node.paxos.decided and node.paxos.decision == cid
        assert not decided and node._want == cid
        assert pulls == [(ends[0], ends[3], (cid,))]
        node.handle(ends[2], Decision(ends[2], 1, cid, body=self.b))
        assert not decided
        assert counter_value(harness, "consensus.bodies_rejected") == 1
        harness.engine.run(until=1.0)
        assert decided == [self.a] and node.decision_id == cid
        assert counter_value(harness, "consensus.body_pulls_sent") == 1
        assert counter_value(harness, "consensus.bodies_sent") == 1
        node.handle(ends[1], Phase2b(ends[1], 1, (3, 1), cid))
        node.handle(ends[3], Decision(ends[3], 1, cid, body=self.a))
        assert decided == [self.a]

    def test_a_voteless_node_falls_back_on_the_most_endorsed_body_it_holds(self):
        settings = unicast_settings(
            gossip_interval=1_000.0,
            consensus_fallback_timeout=0.5,
        )
        harness = ConsensusHarness(5, settings, seed=2)
        first = harness.members[0]
        node = harness.nodes[first]
        peer = harness.members[1]
        # Nobody here cast a vote.  The first member is shown a 1:2 split it
        # cannot spell out: no body held, so its timeout proposes nothing.
        votes = VoteBundle(
            peer, 1, ids=(cut_id(self.a), cut_id(self.b)), bitmaps=(0b00010, 0b01100)
        )
        node.handle(peer, votes)
        harness.engine.run(until=0.75)
        assert counter_value(harness, "consensus.fallback_rounds") == 1
        assert harness.network.class_counts.get("Phase1a", 0) == 0
        # It then meets both bodies in another coordinator's recovery round.
        for i, body in ((1, self.a), (2, self.b)):
            node.handle(peer, promise(i, FAST, body, rank=(2, 4)))
        assert harness.run_until_decided(timeout=5.0) is not None
        assert node.paxos.my_proposal == self.b
        assert {n.decision for n in harness.nodes.values()} == {self.b}
        assert all(n.used_fallback for n in harness.nodes.values())


def counter_value(harness, name):
    return harness.metrics.snapshot().get(name, 0)
