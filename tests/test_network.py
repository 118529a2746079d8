"""Tests for the simulated network fabric: accounting, broadcast, rates."""

from array import array
from dataclasses import dataclass

import pytest

from repro.core.messages import Probe
from repro.core.node_id import Endpoint
from repro.sim.engine import Engine
from repro.sim.faults import Delay, Duplicate, Loss, Reorder
from repro.sim.latency import ConstantLatency, LanLatency
from repro.sim.network import Network, wire_size
from repro.sim.process import SimRuntime


def make_network(seed: int = 1):
    engine = Engine()
    return engine, Network(engine, seed=seed, latency=ConstantLatency(0.001))


def endpoints(n: int):
    return [Endpoint(f"10.0.0.{i + 1}", 5000) for i in range(n)]


def byte_totals(network, ep):
    """``(tx, rx)`` bytes of ``ep``, summed over its per-second series."""
    return (
        sum(network.tx_per_second.get(ep, ())),
        sum(network.rx_per_second.get(ep, ())),
    )


class TestSend:
    def test_delivery_and_accounting(self):
        engine, network = make_network()
        a, b = endpoints(2)
        received = []
        network.register(a, lambda src, msg: None)
        network.register(b, lambda src, msg: received.append((src, msg)))
        msg = Probe(sender=a, config_id=1, seq=1)
        network.send(a, b, msg)
        engine.run()
        assert received == [(a, msg)]
        size = wire_size(msg)
        assert byte_totals(network, a) == (size, 0)
        assert byte_totals(network, b) == (0, size)
        assert network.sent_messages == network.delivered_messages == 1

    def test_per_class_counts_and_bytes(self):
        engine, network = make_network()
        a, b, c = endpoints(3)
        for ep in (a, b, c):
            network.register(ep, lambda src, msg: None)
        msg = Probe(sender=a, config_id=1, seq=1)
        network.send(a, b, msg)
        network.broadcast(a, [b, c], msg)
        engine.run()
        assert network.class_counts == {"Probe": 3}
        assert network.class_bytes == {"Probe": 3 * wire_size(msg)}
        assert sum(network.class_bytes.values()) == network.sent_bytes

    def test_crashed_destination_drops(self):
        engine, network = make_network()
        a, b = endpoints(2)
        network.register(a, lambda src, msg: None)
        network.register(b, lambda src, msg: None)
        network.crash(b)
        network.send(a, b, Probe(sender=a, config_id=1, seq=1))
        engine.run()
        assert network.dropped_messages == 1
        assert network.sent_messages == 1  # tx accounted before the drop


class TestFailStop:
    """``Network.crash``: the endpoint neither sends nor receives from then
    on.  The fabric is the one place that says so for traffic — the
    simulated runtime only silences timers — so it is pinned here."""

    def test_send_from_crashed_source_is_silent(self):
        engine, network = make_network()
        a, b = endpoints(2)
        network.register(a, lambda src, msg: None)
        network.register(b, lambda src, msg: None)
        network.crash(a)
        network.send(a, b, Probe(sender=a, config_id=1, seq=1))
        engine.run()
        assert network.sent_messages == network.dropped_messages == 0
        assert not network.class_counts and engine.events_processed == 0

    def test_copies_in_flight_to_an_endpoint_that_then_crashes_are_dropped(self):
        engine, network = make_network()
        src, victim, peer, nobody = endpoints(4)
        delivered = []
        for ep in (src, victim, peer):
            network.register(ep, lambda s, m, _ep=ep: delivered.append(_ep))
        msg = Probe(sender=src, config_id=1, seq=1)
        network.send(src, victim, msg)
        network.broadcast(src, [victim, peer, nobody], msg)
        network.send(src, nobody, msg)  # nothing listens there at all
        network.crash(victim)  # its two copies are already on the wire
        engine.run()
        assert delivered == [peer]
        assert network.sent_messages == 5
        assert network.dropped_messages == 4
        assert network.delivered_messages == 1
        assert network.received_bytes == wire_size(msg)
        assert byte_totals(network, victim) == (0, 0)
        assert byte_totals(network, nobody) == (0, 0)

    def test_a_process_hears_only_once_attached_and_attaching_revives_nothing(self):
        """A runtime's handler is the network's: nothing reaches the
        address before ``attach``, and a second ``attach`` (an app
        co-hosted on a crashed process) leaves it down."""
        engine, network = make_network()
        a, b = endpoints(2)
        network.register(a, lambda src, msg: None)
        runtime = SimRuntime(engine, network, b)
        heard = []
        network.send(a, b, Probe(sender=a, config_id=1, seq=1))
        engine.run()
        runtime.attach(lambda src, msg: heard.append(msg.seq))
        network.send(a, b, Probe(sender=a, config_id=1, seq=2))
        engine.run()
        runtime.crash()
        runtime.attach(lambda src, msg: heard.append(-msg.seq))
        network.send(a, b, Probe(sender=a, config_id=1, seq=3))
        engine.run()
        assert heard == [2]
        assert network.dropped_messages == 2 and runtime.crashed


class TestSizing:
    def test_a_dataclass_is_sized_on_first_sight_and_nothing_else_is(self):
        @dataclass(frozen=True)
        class Ping:
            sender: Endpoint
            note: str

        class Label(str):
            pass

        (a,) = endpoints(1)
        header, fields = 28, 2
        assert wire_size(Ping(a, "hi")) == header + fields + (4 + len(a.host)) + (2 + 2)
        # Exact-type dispatch: a subclass of a builtin has no wire form, and
        # is refused rather than charged a guess.
        with pytest.raises(TypeError):
            wire_size(Ping(a, Label("hi")))
        with pytest.raises(TypeError):
            wire_size(object())


FAN_OUT_PEERS = frozenset(endpoints(13)[1:])


class TestBroadcast:
    def test_broadcast_reaches_every_destination(self):
        engine, network = make_network()
        eps = endpoints(5)
        src, peers = eps[0], eps[1:]
        received = {ep: [] for ep in peers}
        network.register(src, lambda s, m: None)
        for ep in peers:
            network.register(ep, lambda s, m, _ep=ep: received[_ep].append((s, m)))
        msg = Probe(sender=src, config_id=1, seq=1)
        network.broadcast(src, peers, msg)
        engine.run()
        for ep in peers:
            assert received[ep] == [(src, msg)]
        assert network.sent_messages == len(peers)
        assert network.delivered_messages == len(peers)

    def test_broadcast_accounting_matches_unicast_semantics(self):
        # Bytes and message counts must equal what a send() loop produces:
        # one message of wire_size(msg) per destination, both directions.
        engine, network = make_network()
        eps = endpoints(4)
        src, peers = eps[0], eps[1:]
        for ep in eps:
            network.register(ep, lambda s, m: None)
        msg = Probe(sender=src, config_id=1, seq=1)
        network.broadcast(src, peers, msg)
        engine.run()
        size = wire_size(msg)
        assert byte_totals(network, src) == (size * len(peers), 0)
        for ep in peers:
            assert byte_totals(network, ep) == (0, size)
        assert network.sent_messages == network.delivered_messages == len(peers)
        assert network.sent_bytes == size * len(peers)
        assert network.received_bytes == size * len(peers)

    def test_broadcast_skips_crashed_and_ruled_out_destinations(self):
        engine, network = make_network()
        eps = endpoints(4)
        src, peers = eps[0], eps[1:]
        delivered = []
        for ep in eps:
            network.register(ep, lambda s, m, _ep=ep: delivered.append(_ep))
        network.crash(peers[0])
        network.add_rule(Loss(dst=frozenset({peers[1]})))
        network.broadcast(src, peers, Probe(sender=src, config_id=1, seq=1))
        engine.run()
        assert delivered == [peers[2]]
        assert network.dropped_messages == 2

    def test_broadcast_from_crashed_source_is_silent(self):
        engine, network = make_network()
        eps = endpoints(3)
        src, peers = eps[0], eps[1:]
        for ep in eps:
            network.register(ep, lambda s, m: None)
        network.crash(src)
        network.broadcast(src, peers, Probe(sender=src, config_id=1, seq=1))
        engine.run()
        assert network.sent_messages == 0
        assert network.dropped_messages == 0

    def test_broadcast_respects_egress_loss(self):
        engine, network = make_network()
        eps = endpoints(3)
        src, peers = eps[0], eps[1:]
        for ep in eps:
            network.register(ep, lambda s, m: None)
        network.add_rule(Loss(src=frozenset({src})))
        network.broadcast(src, peers, Probe(sender=src, config_id=1, seq=1))
        engine.run()
        assert network.delivered_messages == 0
        assert network.dropped_messages == len(peers)

    @pytest.mark.parametrize(
        "rules",
        [
            (),
            (Loss(dst=FAN_OUT_PEERS, probability=0.5),),
            (Delay(dst=FAN_OUT_PEERS, delay=0.002, jitter=0.004),),
            (Duplicate(probability=0.5), Reorder(probability=0.5)),
        ],
        ids=["no_rule", "ingress_loss", "delay", "duplicate_reorder"],
    )
    def test_broadcast_is_a_send_loop(self, rules):
        # The contract: on two networks with one seed, a broadcast and a
        # send() loop over the same recipients draw the same latencies and
        # rule decisions, so every copy arrives at the same instant and
        # every counter and per-second series agrees.
        eps = endpoints(1 + len(FAN_OUT_PEERS))
        src, peers = eps[0], eps[1:]

        def run(fan_out):
            engine = Engine()
            network = Network(engine, seed=7, latency=LanLatency())
            deliveries = []
            for ep in eps:
                network.register(
                    ep, lambda s, m, _ep=ep: deliveries.append((engine.now, _ep, m))
                )
            for rule in rules:
                network.add_rule(rule)
            network.crash(peers[-1])
            for seq in range(3):
                fan_out(network, Probe(sender=src, config_id=1, seq=seq))
            engine.run()
            counters = (
                network.sent_messages,
                network.delivered_messages,
                network.dropped_messages,
            )
            return deliveries, counters, network.tx_per_second, network.rx_per_second

        def loop(network, msg):
            for dst in peers:
                network.send(src, dst, msg)

        broadcast = run(lambda network, msg: network.broadcast(src, peers, msg))
        assert broadcast == run(loop)
        assert len({when for when, _, _ in broadcast[0]}) > 1


class TestPerSecondRates:
    def test_final_partial_second_is_counted(self):
        # Regression test: traffic after the last whole-second boundary
        # used to be silently truncated by the int() stop bound.
        engine, network = make_network()
        a, b = endpoints(2)
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: None)
        msg = Probe(sender=a, config_id=1, seq=1)
        engine.run(until=2.5)  # mid-second
        network.send(a, b, msg)
        engine.run()
        tx, rx = network.per_second_rates(a, end=engine.now)
        assert len(tx) == 3  # seconds 0, 1, and the partial 2.x
        assert tx[2] == pytest.approx(wire_size(msg) / 1024.0)

    def test_series_are_packed_bytes_per_whole_second(self):
        engine, network = make_network()
        a, b, c = endpoints(3)
        for ep in (a, b, c):
            network.register(ep, lambda s, m: None)
        msg = Probe(sender=a, config_id=1, seq=1)
        size = wire_size(msg)
        engine.run(until=0.5)
        network.send(a, b, msg)
        engine.run(until=3.2)
        network.broadcast(a, [b, c], msg)
        engine.run()
        assert network.tx_per_second[a] == array("q", [size, 0, 0, 2 * size])
        assert network.rx_per_second[b] == array("q", [size, 0, 0, size])
        assert network.rx_per_second[c] == array("q", [0, 0, 0, size])
        assert a not in network.rx_per_second
        tx, rx = network.per_second_rates(a, start=1.0, end=5.0)
        assert tx == [0.0, 0.0, 2 * size / 1024.0, 0.0]  # past the series: zero
        assert rx == [0.0] * 4
        assert network.per_second_rates(b, start=-1.0, end=1.0)[1] == [
            0.0, size / 1024.0,
        ]

    def test_whole_second_window_unchanged(self):
        engine, network = make_network()
        a, b = endpoints(2)
        network.register(a, lambda s, m: None)
        network.register(b, lambda s, m: None)
        network.send(a, b, Probe(sender=a, config_id=1, seq=1))
        engine.run()
        engine.run(until=3.0)
        tx, _ = network.per_second_rates(a, end=3.0)
        assert len(tx) == 3
        assert tx[0] > 0 and tx[1] == 0 and tx[2] == 0


def test_bandwidth_stats_summarise_per_second_rates_as_table_2():
    """Paper Table 2: mean/p99/max of per-process KB/s over a crash run."""
    from repro.experiments.scenarios import bandwidth_stats, crash_experiment

    harness = crash_experiment("rapid", 16, failures=2, seed=1)["harness"]
    stats = bandwidth_stats(harness, harness.live_endpoints())
    for direction in ("tx", "rx"):
        summary = stats[direction]
        assert 0 < summary["mean"] <= summary["p99"] <= summary["max"]
    # Everyone sends probes and acks every second: under 1 KB/s each way
    # (0.887 at wire version 5, 0.873 since a REMOVE alert is its subject
    # and its rings, 0.834 at version 8, 0.764 since an ack names no
    # sender).
    assert stats["tx"]["mean"] == pytest.approx(0.76, abs=0.05)
    late = bandwidth_stats(harness, harness.live_endpoints(), start=harness.engine.now + 1)
    assert late == {
        "tx": {"mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0},
        "rx": {"mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0},
    }
