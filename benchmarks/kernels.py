"""Layer kernels: direct timed calls into each layer's public functions.

Each kernel is a fixed loop of one layer's public operation on fixed
inputs, repeated ``ROUNDS`` times; the reported cost is the fastest round
divided by the operation count (the work is identical every round, so
noise only ever adds).  They say what one operation of a layer costs in
isolation; the in-situ attribution of ``layers.fold`` says how much of a
workload the layer took.  Layers that need a live runtime to be called
(``core.fast_paxos``, ``core.join``, ``core.membership``, ``apps``) are
measured in situ only.
"""

from __future__ import annotations

import gc
import time

from repro.core.configuration import Configuration
from repro.core.cut_detector import MultiNodeCutDetector
from repro.core.messages import Alert, AlertKind, Change, Probe
from repro.core.ring import KRingTopology
from repro.obs.invariants import ViewLedger
from repro.obs.metrics import MetricsRegistry
from repro.runtime import codec
from repro.runtime.conformance import sample_message
from repro.runtime.live_net import UDP_OVERHEAD_BYTES
from repro.sim.cluster import endpoint_for
from repro.sim.engine import Engine
from repro.sim.faults import EgressLoss, IngressDelay
from repro.sim.network import Network, wire_size

ROUNDS = 5
N = 512
K = 10


def _noop(*_args) -> None:
    pass


def _best(run, operations: int, scale: float, prepare=lambda: ()) -> float:
    """Fastest of ``ROUNDS`` calls of ``run``, per operation, scaled.

    ``prepare`` builds each round's fresh arguments outside the timing.
    """
    best = float("inf")
    for _ in range(ROUNDS):
        args = prepare()
        gc.collect()
        started = time.perf_counter()
        run(*args)
        best = min(best, time.perf_counter() - started)
    return best / operations * scale


def _corpus() -> list:
    return [sample_message(name) for name in sorted(codec.registered_classes())]


def _fabric(rules=()) -> tuple:
    engine = Engine()
    network = Network(engine, seed=1)
    members = [endpoint_for(i) for i in range(N)]
    for ep in members:
        network.register(ep, _noop)
    for rule in rules:
        network.add_rule(rule)
    return engine, network, members


def _engine_events() -> float:
    count = 40_000

    def run() -> None:
        engine = Engine()
        for i in range(count):
            engine.post(i * 1e-6, _noop)
        engine.run()

    return _best(run, count, 1e9)


def _engine_timers() -> float:
    count = 40_000

    def run() -> None:
        engine = Engine()
        handles = [engine.schedule(1.0 + i * 1e-6, _noop) for i in range(count)]
        for handle in handles[::2]:
            handle.cancel()
        engine.run()

    return _best(run, count, 1e9)


def _network_send(rules=()) -> float:
    """One unicast through the fabric: sized, accounted, delayed, delivered."""
    count = 20_000

    def run(engine, network, members) -> None:
        a, b = members[0], members[1]
        probe = Probe(a, config_id=1, seq=1)
        for _ in range(count):
            network.send(a, b, probe)
        engine.run()

    return _best(run, count, 1e9, prepare=lambda: _fabric(rules))


def _network_send_ruled() -> float:
    # The rules afflict a third endpoint: every send walks the drop and
    # delay lists (the fault-rule slow path) yet is delivered unchanged.
    bystander = frozenset({endpoint_for(N)})
    return _network_send(
        (EgressLoss(nodes=bystander), IngressDelay(nodes=bystander, delay=0.01))
    )


def _network_broadcast() -> float:
    storms = 60

    def run(engine, network, members) -> None:
        probe = Probe(members[0], config_id=1, seq=1)
        for _ in range(storms):
            network.broadcast(members[0], members, probe)
        engine.run()

    return _best(run, storms * N, 1e9, prepare=_fabric)


def _wire_size() -> float:
    corpus = _corpus()
    loops = 300

    def run() -> None:
        for _ in range(loops):
            for msg in corpus:
                wire_size(msg)

    return _best(run, loops * len(corpus), 1e9)


def _ring_build() -> float:
    members = [endpoint_for(i) for i in range(N)]
    builds = 4
    serial = iter(range(1, 1 << 30))

    def run() -> None:
        # A fresh seq gives a fresh config id, so the topology memo misses
        # and the rings are rebuilt (per-member ring hashes stay cached, as
        # they do across real view changes).
        for _ in range(builds):
            KRingTopology.for_configuration(
                Configuration.of(members, seq=next(serial)), K
            )

    return _best(run, builds, 1e3)


def _configuration_apply() -> float:
    config = Configuration.of([endpoint_for(i) for i in range(N)])
    cut = tuple(
        Change(endpoint_for(i), AlertKind.REMOVE) for i in range(N // 2, N // 2 + 16)
    )
    applies = 100

    def run() -> None:
        for _ in range(applies):
            config.apply(cut)

    return _best(run, applies, 1e6)


def _cut_detector_alerts() -> float:
    members = [endpoint_for(i) for i in range(N)]
    topology = KRingTopology(members, K)
    alerts = [
        Alert(observer, subject, AlertKind.REMOVE, config_id=1, ring_numbers=(ring,))
        for subject in members[N // 2 : N // 2 + 16]
        for ring, observer in enumerate(topology.observers_of(subject))
    ]
    streams = 60

    def run() -> None:
        for _ in range(streams):
            detector = MultiNodeCutDetector(K, 9, 3, topology)
            for alert in alerts:
                detector.receive_alert(alert)

    return _best(run, streams * len(alerts), 1e9)


def _codec_encode() -> float:
    corpus = _corpus()
    loops = 40

    def run() -> None:
        for _ in range(loops):
            for msg in corpus:
                codec.encode_bytes(msg)

    return _best(run, loops * len(corpus), 1e9)


def _codec_decode() -> float:
    datagrams = [codec.encode_bytes(msg) for msg in _corpus()]
    loops = 40

    def run() -> None:
        for _ in range(loops):
            for data in datagrams:
                codec.decode_bytes(data)

    return _best(run, loops * len(datagrams), 1e9)


def _codec_real_over_estimate() -> float:
    corpus = _corpus()
    real = sum(len(codec.encode_bytes(msg)) + UDP_OVERHEAD_BYTES for msg in corpus)
    return real / sum(wire_size(msg) for msg in corpus)


def _ledger_observe() -> float:
    members = tuple(endpoint_for(i) for i in range(N))
    views = 8

    def run() -> None:
        ledger = ViewLedger(seed=1)
        for seq in range(views):
            for ep in members:
                ledger.observe(float(seq), ep, 1000 + seq, seq, members, N)

    return _best(run, views * N, 1e9)


def _metrics_inc() -> float:
    counter = MetricsRegistry().counter("kernel")
    count = 200_000

    def run() -> None:
        for _ in range(count):
            counter.inc()

    return _best(run, count, 1e9)


KERNELS = {
    "sim.engine.ns_per_event": _engine_events,
    "sim.engine.ns_per_timer": _engine_timers,
    "sim.network.ns_per_send": _network_send,
    "sim.network.ns_per_send_ruled": _network_send_ruled,
    "sim.network.ns_per_broadcast_dst": _network_broadcast,
    "sim.network.ns_per_wire_size": _wire_size,
    "core.ring.build_ms_n512": _ring_build,
    "core.configuration.apply_us_n512": _configuration_apply,
    "core.cut_detector.ns_per_alert": _cut_detector_alerts,
    "runtime.codec.encode_ns_per_msg": _codec_encode,
    "runtime.codec.decode_ns_per_msg": _codec_decode,
    "runtime.codec.real_over_estimate": _codec_real_over_estimate,
    "obs.invariants.ns_per_observe": _ledger_observe,
    "obs.metrics.ns_per_inc": _metrics_inc,
}


def run_kernels() -> dict:
    """Every kernel's cost, keyed by metric name."""
    return {name: kernel() for name, kernel in KERNELS.items()}
