"""Focused hot-path timing test (``pytest --microbench`` to run).

Times one primitive the benchmark suite leans on and asserts a
deliberately loose throughput floor — an order of magnitude below what
current hardware delivers — so it catches a catastrophic regression
(accidental O(N) in an O(1) path) without flaking on slow CI machines.
Skipped by default: tier-1 stays timing-free.  Only primitives without a
kernel in ``benchmarks/kernels.py`` belong here: ``wire_size``, the engine
and ``Network.send``/``broadcast`` are measured there
(``sim.network.ns_per_wire_size``, ``sim.engine.ns_per_event`` /
``ns_per_timer``, ``sim.network.ns_per_send`` / ``ns_per_broadcast_dst``).

Four memory floors ride along under the same opt-in (``tracemalloc`` makes
them ~10 s per mass join): live heap per member must not grow with N, what
a decider holds per joiner while admitting stays a few machine words, and
a view change leaves no replaced consensus instance behind, neither after
a collection nor for the collector.
"""

import gc
import random
import time
import tracemalloc
import weakref

import pytest

from repro.core.fast_paxos import CONSENSUS_RANK_DELAY, FastPaxos
from repro.core.messages import AlertKind, Change, cut_id
from repro.core.node_id import Endpoint
from repro.core.settings import RapidSettings
from repro.experiments.harness import RapidHarness
from repro.sim.cluster import endpoint_for
from repro.sim.engine import Engine
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.process import SimRuntime

pytestmark = pytest.mark.microbench


def rate(n: int, elapsed: float) -> float:
    return n / elapsed if elapsed > 0 else float("inf")


class TestConsensus:
    def test_vote_merge_and_quorum_check_throughput(self):
        """Merging one vote bitmap and re-checking the quorum must stay
        O(changed bits), not an O(N-bit) popcount rescan per message: at
        n=1024 even a pessimistic floor catches an accidental rescan."""
        n = 1024
        engine = Engine()
        network = Network(engine, seed=1, latency=ConstantLatency(0.001))
        members = tuple(endpoint_for(i) for i in range(n))
        runtime = SimRuntime(engine, network, members[0], seed=1)
        node = FastPaxos(
            runtime=runtime,
            members=members,
            config_id=1,
            settings=RapidSettings(),
            broadcast=lambda msg: None,
            on_decide=lambda value: None,
            gossip=True,
        )
        cuts = [
            cut_id((Change(endpoint=Endpoint(f"10.99.0.{i}", 1), kind=AlertKind.REMOVE),))
            for i in range(4)
        ]
        rng = random.Random(7)
        # Bit positions capped below the fast quorum so no proposal ever
        # decides: every iteration exercises the undecided hot path.
        merges = [(cuts[i % 4], 1 << rng.randrange(n // 2)) for i in range(40_000)]
        start = time.perf_counter()
        for cid, bitmap in merges:
            node._merge(cid, bitmap)
            node._check_quorum()
        per_s = rate(len(merges), time.perf_counter() - start)
        assert per_s > 100_000, f"merge+quorum too slow: {per_s:.0f}/s"


def mass_join_heap(n: int, core: int = 64) -> tuple:
    """Traced bytes around one mass join, a converged ``core`` growing to
    ``n`` (the ``bootstrap_n512`` benchmark's shape): the peak while the
    core admits the joiners, and what is still live two virtual seconds
    after the view is installed."""
    gc.collect()
    tracemalloc.start()
    try:
        harness = RapidHarness(seed=1)
        endpoints = harness.bootstrap(core, seed_delay=5.0, stagger=8.0)
        assert harness.run_until_converged(core) is not None
        harness.run_for(2.0)
        for i in range(core, n):
            harness.add_node(endpoint_for(i), seeds=(endpoints[0],))
        tracemalloc.reset_peak()
        assert harness.run_until_converged(n) is not None
        harness.run_for(2.0)
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, live


def live_heap_per_member(n: int) -> float:
    return mass_join_heap(n)[1] / n


def view_change_residue_per_member(n: int) -> float:
    """Traced bytes per survivor that one gossip-mode view change (one
    crash) leaves live, measured from a heap settled past every bootstrap
    fallback timer to the moment the last survivor installs."""
    return one_gossip_view_change(n, collect=True)[0]


def one_gossip_view_change(n: int, collect: bool) -> tuple:
    """One crash in a settled ``n``-member gossip-mode cluster: traced
    bytes per survivor left live once the last survivor installs, and how
    many survivors' replaced ``FastPaxos`` instances are still alive then.
    With ``collect`` the heap is collected before it is read; without it
    the collector is off from before the crash to the reading, so what
    only a reference cycle holds is counted."""
    gc.collect()
    tracemalloc.start()
    try:
        harness = RapidHarness(seed=1, settings=RapidSettings(gossip_threshold=1))
        endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=8.0)
        assert harness.run_until_converged(n) is not None
        harness.run_for(
            harness.settings.consensus_fallback_timeout + CONSENSUS_RANK_DELAY * n
        )
        survivors = endpoints[:-1]
        replaced = [weakref.ref(harness.agents[ep].decider.consensus) for ep in survivors]
        gc.collect()
        if not collect:
            gc.disable()
        before, _ = tracemalloc.get_traced_memory()
        harness.crash(endpoints[-1:])
        assert harness.run_until_converged(n - 1) is not None
        if collect:
            gc.collect()
        after, _ = tracemalloc.get_traced_memory()
        live = sum(ref() is not None for ref in replaced)
    finally:
        gc.enable()
        tracemalloc.stop()
    return (after - before) / (n - 1), live


class TestMemory:
    def test_live_heap_per_member_is_flat_in_n(self):
        """Per-view state (the ``Configuration``, its member set, index and
        uuid set, the peer lists) is shared by every node of the process,
        so what a member costs must not depend on how many others there
        are.  With one private copy per node the heap is O(N^2) and this
        ratio is ~1.65 (60 -> 99 KB/member); shared it is ~0.93 (37 -> 35)."""
        small, large = live_heap_per_member(256), live_heap_per_member(512)
        growth = large / small
        assert growth < 1.25, (
            f"heap per member grew {growth:.2f}x from n=256 to n=512 "
            f"({small / 1e3:.1f} -> {large / 1e3:.1f} KB)"
        )

    def test_admission_transient_per_decider_per_joiner(self):
        """What 64 deciders hold while 448 joiners are being admitted is
        detector state and votes: a few machine words per (decider, joiner)
        — ring bits, a first-alert reference, a timestamp — and one shared
        cut.  A ring dict, a kind tuple and a proposed-set entry per pair,
        plus a private 448-change cut per decider, were ~510 B; this is
        ~90 B."""
        core, n = 64, 512
        peak, live = mass_join_heap(n, core)
        transient = (peak - live) / (core * (n - core))
        assert transient < 250, (
            f"{transient:.0f} B per decider per joiner "
            f"(peak {peak / 1e6:.1f} MB, settled {live / 1e6:.1f} MB)"
        )

    def test_a_view_change_leaves_no_replaced_instance_live(self):
        """Installing a view cancels the old consensus instance's timers;
        the fallback one is due up to ``consensus_fallback_timeout +
        CONSENSUS_RANK_DELAY * index`` later.  A tombstone that kept its
        callback pinned the whole instance (votes, bodies, per-peer gossip
        ledger) until then: ~11 KB per member at n=64.  Released, what is
        left is ~0.5 KB."""
        residue = view_change_residue_per_member(64)
        assert residue < 2000, f"{residue:.0f} B per member left by one view change"

    def test_a_view_change_leaves_nothing_for_the_collector(self):
        """The same view change with the collector off from before the
        crash to the reading: every replaced instance must be freed by
        reference counting alone.  A ``PaxosInstance`` that called its
        owner back through a bound method formed a cycle with it, so all
        63 survivors' replaced instances outlived the view until the
        collector's next full pass: ~13 KB per member at n=64.  Without
        it ~3.7 KB, ~2.5 KB above the collected figure: the interpreter's
        free lists, which only a full collection empties."""
        residue, live = one_gossip_view_change(64, collect=False)
        assert live == 0, f"{live} replaced consensus instances still live"
        assert residue < 6000, f"{residue:.0f} B per member left by one view change"
