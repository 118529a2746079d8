"""Focused hot-path timing tests (``pytest --microbench`` to run).

Each test times one primitive the benchmark suite leans on and asserts a
deliberately loose throughput floor — an order of magnitude below what
current hardware delivers — so they catch catastrophic regressions
(accidental O(N) in an O(1) path, a debug hook left on) without flaking
on slow CI machines.  Skipped by default: tier-1 stays timing-free.
"""

import random
import time

import pytest

from repro.core.fast_paxos import FastPaxos
from repro.core.messages import Alert, AlertKind, BatchedAlerts, Change, Probe, cut_id
from repro.core.node_id import Endpoint
from repro.core.settings import RapidSettings
from repro.sim.cluster import endpoint_for
from repro.sim.engine import Engine
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network, wire_size
from repro.sim.process import SimRuntime

pytestmark = pytest.mark.microbench


def rate(n: int, elapsed: float) -> float:
    return n / elapsed if elapsed > 0 else float("inf")


class TestWireSize:
    def test_probe_sizing_throughput(self):
        src = Endpoint("10.0.0.1", 5000)
        messages = [Probe(sender=src, config_id=7, seq=i) for i in range(20_000)]
        start = time.perf_counter()
        for msg in messages:
            wire_size(msg)
        per_s = rate(len(messages), time.perf_counter() - start)
        assert per_s > 100_000, f"wire_size too slow: {per_s:.0f}/s"

    def test_batched_alert_sizing_throughput(self):
        src = Endpoint("10.0.0.1", 5000)
        batch = BatchedAlerts(
            sender=src,
            alerts=tuple(
                Alert(
                    observer=src,
                    subject=Endpoint(f"10.0.0.{i}", 5000),
                    kind=AlertKind.REMOVE,
                    config_id=7,
                    ring_numbers=(0, 1, 2),
                )
                for i in range(16)
            ),
        )
        start = time.perf_counter()
        for _ in range(5_000):
            wire_size(batch)
        per_s = rate(5_000, time.perf_counter() - start)
        assert per_s > 5_000, f"batched wire_size too slow: {per_s:.0f}/s"


class TestEngine:
    def test_schedule_step_throughput(self):
        engine = Engine()
        n = 50_000
        sink = [].append
        start = time.perf_counter()
        for i in range(n):
            engine.schedule(float(i % 97) / 10.0, sink, i)
        while engine.step():
            pass
        per_s = rate(n, time.perf_counter() - start)
        assert per_s > 100_000, f"schedule+step too slow: {per_s:.0f}/s"

    def test_zero_delay_fifo_throughput(self):
        engine = Engine()
        n = 50_000
        sink = [].append
        start = time.perf_counter()
        for i in range(n):
            engine.schedule(0.0, sink, i)
        engine.run()
        per_s = rate(n, time.perf_counter() - start)
        assert per_s > 200_000, f"zero-delay path too slow: {per_s:.0f}/s"


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


class TestNetworkSend:
    def test_send_throughput(self):
        engine = Engine()
        network = Network(engine, seed=1, latency=ConstantLatency(0.001))
        a = Endpoint("10.0.0.1", 5000)
        b = Endpoint("10.0.0.2", 5000)
        network.register(a, lambda src, msg: None)
        network.register(b, lambda src, msg: None)
        n = 20_000
        start = time.perf_counter()
        for i in range(n):
            network.send(a, b, Probe(sender=a, config_id=1, seq=i))
        engine.run()
        per_s = rate(n, time.perf_counter() - start)
        assert per_s > 50_000, f"send+deliver too slow: {per_s:.0f}/s"

    def test_broadcast_throughput(self):
        engine = Engine()
        network = Network(engine, seed=1, latency=ConstantLatency(0.001))
        src = Endpoint("10.0.0.1", 5000)
        peers = [Endpoint(f"10.0.1.{i}", 5000) for i in range(100)]
        network.register(src, lambda s, m: None)
        for peer in peers:
            network.register(peer, lambda s, m: None)
        n = 1_000
        start = time.perf_counter()
        for i in range(n):
            network.broadcast(src, peers, Probe(sender=src, config_id=1, seq=i))
        engine.run()
        per_s = rate(n * len(peers), time.perf_counter() - start)
        assert per_s > 100_000, f"broadcast fan-out too slow: {per_s:.0f} deliveries/s"
