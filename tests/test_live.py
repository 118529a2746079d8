"""Real-runtime conformance and sim-vs-live cross-validation.

Two layers:

* Socket-free tests (always run, tier-1): codec conformance — every
  wire-registered message class round-trips through the byte codec and
  its real encoded size stays under the simulator's structural estimate
  — plus registry agreement, the runtimes' error counters, and
  :class:`~repro.runtime.live_net.LiveWire` fault-rule semantics driven
  by a fake clock.  The codec's own fuzz and format fences are in
  ``tests/test_codec.py``.
* ``--live`` tests (opt-in, the CI ``live`` job): real localhost UDP
  clusters multiplexed on one event loop.  These bind sockets and
  measure wall-clock behaviour, so they are never part of a determinism
  gate; the headline case bootstraps a 150-node cluster and checks its
  convergence latency against a matched-settings simulator run.

Parity tolerance
----------------

Live and sim runs share identical ``RapidSettings``
(:data:`repro.experiments.live.LIVE_SETTINGS`) and the same join-storm
shape (``seed_delay`` + uniform stagger), so their convergence times are
directly comparable.  They are *not* expected to be equal: the live side
pays real scheduling latency and CPU contention, the sim side quantizes
probe rounds to its virtual clock.  Measured for PR 24 on a 2-core
host, n=150 on ``LIVE_SETTINGS``: 33.0 s simulated against 22.1-44.3 s
live (29 runs, median 24.7 s).  On the *default* settings with the
simulator's 2 s stagger the median is as close (10.0 s simulated, 9.4 s
live) but 4 of 35 runs fall outside the tolerance and two of those never
converge, which is why these tests keep the profile (numbers in
``repro.experiments.live`` and ``docs/ARCHITECTURE.md``).  The documented
tolerance is a factor of
:data:`PARITY_FACTOR` plus :data:`PARITY_SLACK_S` seconds of absolute
slack, in both directions — wide enough for noisy shared runners, tight
enough that a broken live scheduler (or a sim model drifting from
reality) still fails.
"""

import dataclasses
import os

import pytest

from repro.core import messages
from repro.core.node_id import Endpoint
from repro.core.settings import RapidSettings
from repro.runtime import codec
from repro.runtime.asyncio_transport import AsyncioRuntime, _Protocol
from repro.runtime.conformance import (
    parity_rows,
    render_parity_table,
    sample_message,
)
from repro.runtime.live_net import LiveRuntime, LiveWire
from repro.sim import network
from repro.sim.cluster import endpoint_for
from repro.sim.faults import Blackhole, Duplicate, EgressLoss, LinkDelay, Reorder

live = pytest.mark.live

#: Sim and live convergence latencies must agree within this factor ...
PARITY_FACTOR = 2.0
#: ... plus this many seconds of absolute slack (loop startup, CI noise).
PARITY_SLACK_S = 5.0

#: Tight timers for small clusters: wall seconds are expensive, and at
#: n <= 16 a shared event loop is nowhere near saturation, so the
#: low-rate profile's caution is unnecessary.
FAST = dict(
    probe_interval=0.2,
    probe_timeout=0.2,
    batching_window=0.1,
    join_timeout=1.0,
    consensus_fallback_timeout=2.0,
    gossip_interval=0.1,
    report_interval=0.5,
)


# =====================================================================
# Codec conformance (socket-free, tier-1)
# =====================================================================


def test_every_registered_class_round_trips():
    rows = parity_rows()
    assert len(rows) == len(codec.registered_classes())
    bad = [r.name for r in rows if not r.roundtrip_ok]
    assert not bad, f"classes failing encode/decode round-trip: {bad}"


def test_wire_size_parity_ratio_bounded():
    """The structural estimate is an upper bound on the real bytes.

    The simulator's ``wire_size`` charges 8 bytes a number and 2 bytes of
    framing per container; the binary codec sends varints, one-byte enums
    and 7-byte addresses, so real/estimated stays at or below 1.  Above 1
    the sizer undercounts a class; below ~0.25 it has stopped tracking
    the real wire format for it.
    """
    for row in parity_rows():
        assert row.estimated_bytes > 0, row.name
        assert 0.25 <= row.ratio <= 1.0, (
            f"{row.name}: real {row.real_bytes} B vs estimated "
            f"{row.estimated_bytes} B (ratio {row.ratio:.2f})"
        )


def test_parity_table_renders_every_class():
    rows = parity_rows()
    table = render_parity_table(rows)
    for row in rows:
        assert row.name in table


def test_codec_registry_covers_sizer_registry():
    """Every protocol/app dataclass the sim can size, the codec carries.

    Scoped to ``repro.core`` / ``repro.apps``: the sizer registry also
    holds builtin container types (its sizing recursion bottoms out
    there) and — once a sim test has run — lazily-added baseline message
    classes (SWIM, ZooKeeper, ...), which never cross a real wire and
    have no codec entry by design.
    """
    registered = set(codec.registered_classes().values())
    sized_wire_classes = {
        cls
        for cls in network._SIZERS
        if dataclasses.is_dataclass(cls)
        and cls.__module__.startswith(("repro.core", "repro.apps"))
    }
    missing = sized_wire_classes - registered
    assert not missing, (
        f"classes with a sim sizer but no codec registration: "
        f"{sorted(c.__name__ for c in missing)}"
    )


def test_app_message_classes_registered_in_both_registries():
    app_classes = [
        "HttpRequest",
        "HttpResponse",
        "TsRequest",
        "TsResponse",
        "WriteRequest",
        "WriteAck",
        "ViewRequest",
        "ViewResponse",
        "NotSerializer",
    ]
    registry = codec.registered_classes()
    for name in app_classes:
        assert name in registry, f"{name} not codec-registered"
        assert registry[name] in network._SIZERS, f"{name} has no sim sizer"
        # And the shared sample round-trips with real field values.
        msg = sample_message(name)
        assert codec.decode_bytes(codec.encode_bytes(msg)) == msg


def test_tuple_fields_survive_round_trip():
    """Sequence fields decode as tuples, so decoded messages stay hashable
    and ``==`` their originals."""
    checked = 0
    for name in codec.registered_classes():
        msg = sample_message(name)
        decoded = codec.decode_bytes(codec.encode_bytes(msg))
        assert decoded == msg
        if dataclasses.is_dataclass(msg):
            for field in dataclasses.fields(msg):
                value = getattr(msg, field.name)
                if isinstance(value, tuple):
                    assert isinstance(getattr(decoded, field.name), tuple)
                    checked += 1
    assert checked > 0, "no tuple-valued fields exercised"


def test_unregistered_dataclass_raises_codec_error():
    @dataclasses.dataclass
    class Unregistered:
        x: int = 1

    with pytest.raises(codec.CodecError):
        codec.encode_bytes(Unregistered())
    unassigned_tag = bytes((codec.WIRE_VERSION, 0xEE))
    with pytest.raises(codec.CodecError):
        codec.decode_bytes(unassigned_tag + b"\x01")


def test_malformed_datagrams_count_decode_errors_without_crashing():
    received = []
    runtime = AsyncioRuntime(Endpoint("127.0.0.1", 1))
    runtime.attach(lambda src, msg: received.append(msg))
    probe = codec.encode_bytes(sample_message("Probe"))
    malformed = (
        b"",
        b"\xff\xfe\x00",  # no such wire version
        probe[:-1],  # truncated
        probe + b"\x00",  # trailing byte
        bytes((codec.WIRE_VERSION, 0xEE)) + probe[2:],  # no such class
        # What a pre-binary peer would send: counted, not raised, and
        # never handed to the protocol as a type-confused Probe.
        b'{"__dc__":"Probe","f":{"sender":1,"config_id":"x","seq":null}}',
    )
    for payload in malformed:
        runtime._datagram_received(payload, ("127.0.0.1", 2))
    assert runtime.decode_errors == len(malformed)
    assert received == []
    # A valid datagram still gets through afterwards.
    runtime._datagram_received(
        codec.encode_bytes(sample_message("Probe")), ("127.0.0.1", 2)
    )
    assert len(received) == 1


def test_a_version_1_datagram_is_a_counted_decode_error_not_a_misparse():
    """Wire version 1 put whole proposals where version 2 puts 8-byte cut
    ids; a peer still speaking it is counted and ignored, never read as
    a vote for ids made of its proposal bytes."""
    received = []
    runtime = AsyncioRuntime(Endpoint("127.0.0.1", 1))
    runtime.attach(lambda src, msg: received.append(msg))
    version_1 = (
        # The committed version-1 vectors of a VoteBundle and a Decision.
        "010e007f000001a10f88796a5b4c3d2e1f0102007f000001a20f00070000000000"
        "0000007f000001a30f01000000000000000001010b",
        "0110007f000001a10f88796a5b4c3d2e1f02007f000001a20f0007000000000000"
        "00007f000001a30f010000000000000000",
    )
    for hexed in version_1:
        runtime._datagram_received(bytes.fromhex(hexed), ("127.0.0.1", 2))
    assert runtime.decode_errors == len(version_1)
    assert received == []
    assert codec.WIRE_VERSION == 2


def test_live_runtime_accounts_decode_errors_on_the_wire():
    wire = LiveWire(seed=0)
    runtime = LiveRuntime(Endpoint("127.0.0.1", 1), wire)
    runtime.attach(lambda src, msg: None)
    runtime._datagram_received(b"garbage", ("127.0.0.1", 2))
    assert wire.decode_errors == 1
    assert wire.delivered_messages == 1  # arrival is accounted pre-decode
    assert runtime.decode_errors == 1


class _RecordingTransport:
    """Stands in for the asyncio datagram transport: remembers sends."""

    def __init__(self):
        self.sent = []

    def sendto(self, payload, addr):
        self.sent.append((payload, addr))


def _oversized_join_response():
    members = tuple(endpoint_for(i) for i in range(5000))
    view = messages.ViewSnapshot(members=members, uuids=(1,) * len(members))
    return messages.JoinResponse(
        members[0], messages.JoinStatus.SAFE_TO_JOIN, config_id=1, view=view
    )


def test_outbound_failures_are_counted_not_swallowed():
    wire = LiveWire(seed=0)
    plain = AsyncioRuntime(Endpoint("127.0.0.1", 1))
    fabric = LiveRuntime(Endpoint("127.0.0.1", 2), wire)
    too_big = _oversized_join_response()
    assert len(codec.encode_bytes(too_big)) > codec.MAX_DATAGRAM_BYTES
    for runtime in (plain, fabric):
        runtime._transport = transport = _RecordingTransport()
        # A message no datagram can carry is dropped before the socket.
        runtime.send(_DST, too_big)
        runtime.broadcast([_SRC, _DST], too_big)
        assert transport.sent == []
        assert runtime.send_errors == 2
        # What the socket reports back (ICMP unreachable, EMSGSIZE) counts too.
        _Protocol(runtime).error_received(OSError("unreachable"))
        assert runtime.send_errors == 3
        # Ordinary traffic still flows.
        runtime.send(_DST, sample_message("Probe"))
        assert len(transport.sent) == 1
    assert wire.send_errors == 3
    assert wire.sent_messages == 1  # the dropped ones never reached the fabric


# =====================================================================
# LiveWire fault-rule semantics (socket-free, tier-1)
# =====================================================================

_SRC = Endpoint("127.0.0.1", 9001)
_DST = Endpoint("127.0.0.1", 9002)
_OTHER = Endpoint("127.0.0.1", 9003)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_live_wire_applies_sim_drop_rules():
    clock = _FakeClock()
    wire = LiveWire(seed=7, clock=clock)
    rule = wire.add_rule(EgressLoss(nodes=frozenset({_SRC}), probability=1.0))
    assert wire.should_drop(_SRC, _DST)
    assert not wire.should_drop(_OTHER, _DST)  # egress rule: src-keyed
    wire.remove_rule(rule)
    assert not wire.should_drop(_SRC, _DST)


def test_live_wire_blackhole_is_bidirectional():
    wire = LiveWire(seed=7, clock=_FakeClock())
    wire.add_rule(Blackhole(_SRC, _DST))
    assert wire.should_drop(_SRC, _DST)
    assert wire.should_drop(_DST, _SRC)
    assert not wire.should_drop(_SRC, _OTHER)
    wire.clear_rules()
    assert not wire.should_drop(_SRC, _DST)


def test_live_wire_honours_rule_activity_windows():
    """Flip-flop windows evaluate against the harness clock, as in sim."""
    clock = _FakeClock()
    wire = LiveWire(seed=7, clock=clock)
    wire.add_rule(
        EgressLoss(
            nodes=frozenset({_SRC}),
            probability=1.0,
            start=10.0,
            period_on=5.0,
            period_off=5.0,
        )
    )
    clock.now = 5.0  # before the window
    assert not wire.should_drop(_SRC, _DST)
    clock.now = 12.0  # on-phase
    assert wire.should_drop(_SRC, _DST)
    clock.now = 17.0  # off-phase
    assert not wire.should_drop(_SRC, _DST)


def test_live_wire_delay_rules_are_kept_separate():
    clock = _FakeClock()
    wire = LiveWire(seed=7, clock=clock)
    rule = wire.add_rule(LinkDelay(a=_SRC, b=_DST, delay=0.25))
    assert not wire.should_drop(_SRC, _DST)  # delay rules never drop
    assert wire.added_delay(_SRC, _DST) == pytest.approx(0.25)
    assert wire.added_delay(_DST, _SRC) == pytest.approx(0.25)
    assert wire.added_delay(_SRC, _OTHER) == 0.0
    wire.remove_rule(rule)
    assert wire.added_delay(_SRC, _DST) == 0.0


@pytest.mark.parametrize(
    "rule", [Duplicate(probability=0.5), Reorder(probability=0.5, delay=0.1)]
)
def test_live_wire_refuses_rules_it_cannot_apply(rule):
    """A message-adversary rule on real sockets used to land among the
    drop rules, where it never fires — the run passed vacuously."""
    wire = LiveWire(seed=7, clock=_FakeClock())
    with pytest.raises(ValueError, match=type(rule).__name__):
        wire.add_rule(rule)
    assert not wire.should_drop(_SRC, _DST)
    # The contract's adversary counters exist, and stay empty.
    assert wire.duplicate_counts == {} and wire.reorder_counts == {}


def test_live_wire_stagger_stream_keeps_its_label():
    from repro.sim.rng import child_rng

    drawn = LiveWire(seed=1).rng_for("bootstrap", "stagger").random()
    assert drawn == child_rng(1, "live", "stagger").random()


def test_live_bootstrap_scenario_is_registered():
    from repro.bench.specs import suite_specs
    from repro.experiments.scenarios import scenario_function

    live_bootstrap = scenario_function("live_bootstrap")
    specs = suite_specs("live")
    assert [spec.n for spec in specs] == [50, 150]
    with pytest.raises(ValueError):
        live_bootstrap("memberlist", 8)


# =====================================================================
# Live cluster tests (--live): real localhost UDP sockets
# =====================================================================


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


@live
def test_live_harness_converges_on_ephemeral_ports():
    from repro.experiments.live import LiveHarness

    with LiveHarness(seed=2, settings=RapidSettings(**FAST)) as harness:
        endpoints = harness.bootstrap(8, seed_delay=0.2)
        assert harness.run_until_converged(8, timeout=30.0) is not None
        ports = [ep.port for ep in endpoints]
        assert len(set(ports)) == 8  # all distinct, OS-assigned
        assert all(port != 0 for port in ports)
        assert [harness.agents[ep].size for ep in endpoints] == [8] * 8


@live
def test_live_harness_timeout_closes_every_socket():
    """A failed bootstrap must not leak sockets: leaving the harness
    closes every one it bound, converged or not.  Repeating the failure
    must not grow the process's open-fd count."""
    from repro.experiments.live import LiveHarness

    def doomed():
        # join_timeout longer than the converge budget: can't finish.
        settings = RapidSettings(**{**FAST, "join_timeout": 30.0})
        with LiveHarness(settings=settings) as harness:
            harness.bootstrap(6, seed_delay=0.2)
            assert harness.run_until_converged(6, timeout=0.5) is None

    doomed()
    before = _open_fds()
    for _ in range(3):
        doomed()
    assert _open_fds() <= before


@live
def test_live_harness_blackhole_evicts_the_partitioned_node():
    """Drop rules work on real sockets: fully blackholing one node makes
    the rest of the cluster detect and evict it.  The victim itself stays
    up (partitioned, not crashed), so convergence is judged from the
    surviving nodes' views only.  n=12 keeps the cut detector's observer
    count above its H=9 threshold after the eviction."""
    from repro.core.events import NodeStatus
    from repro.experiments.live import LiveHarness

    n = 12
    with LiveHarness(seed=3, settings=RapidSettings(**FAST)) as harness:
        endpoints = harness.bootstrap(n, seed_delay=0.5, stagger=1.0)
        assert harness.run_until_converged(n, timeout=30.0) is not None
        victim = endpoints[-1]
        survivors = endpoints[:-1]
        for other in survivors:
            harness.network.add_rule(Blackhole(victim, other))

        def evicted() -> bool:
            return all(
                harness.agents[ep].status == NodeStatus.ACTIVE
                and harness.agents[ep].size == n - 1
                for ep in survivors
            )

        for _ in range(120):
            harness.run_for(0.25)
            if evicted():
                break
        assert evicted(), [harness.agents[ep].size for ep in survivors]
        assert harness.network.dropped_messages > 0


@live
def test_live_crash_detection_matches_sim(n=50, failures=5):
    from repro.experiments.harness import harness_for
    from repro.experiments.live import (
        LiveHarness,
        default_stagger,
        live_settings,
    )

    def drive(harness):
        endpoints = harness.bootstrap(
            n, seed_delay=1.0, stagger=default_stagger(n)
        )
        boot = harness.run_until_converged(n, timeout=120.0)
        assert boot is not None
        harness.crash(endpoints[-failures:])
        settled = harness.run_until_converged(n - failures, timeout=120.0)
        assert settled is not None
        return settled - boot

    sim = harness_for("rapid", seed=1, settings=live_settings())
    sim_latency = drive(sim)
    with LiveHarness(seed=1) as harness:
        live_latency = drive(harness)
    assert live_latency <= sim_latency * PARITY_FACTOR + PARITY_SLACK_S
    assert sim_latency <= live_latency * PARITY_FACTOR + PARITY_SLACK_S


def _bootstrap_parity(n: int) -> None:
    from repro.experiments.live import (
        default_stagger,
        live_bootstrap_experiment,
        live_settings,
    )
    from repro.experiments.scenarios import bootstrap_experiment

    sim = bootstrap_experiment(
        "rapid",
        n,
        seed=1,
        timeout=120.0,
        seed_delay=1.0,
        stagger=default_stagger(n),
        settings=live_settings(),
    )
    real = live_bootstrap_experiment("rapid", n, seed=1, timeout=120.0)
    sim_t, live_t = sim["convergence_time"], real["convergence_time"]
    assert sim_t is not None
    assert live_t is not None, f"live n={n} cluster failed to converge"
    assert live_t <= sim_t * PARITY_FACTOR + PARITY_SLACK_S
    assert sim_t <= live_t * PARITY_FACTOR + PARITY_SLACK_S
    # Every node individually reached the full view.
    assert len(real["per_node_times"]) == n
    # Wire accounting: real bytes measured, sim estimate alongside.
    assert real["real_bytes_sent"] > 0
    assert real["decode_errors"] == 0
    assert real["send_errors"] == 0
    assert 0.25 <= real["sim_estimate_ratio"] <= 1.0
    for name, row in real["wire_parity"].items():
        assert row["real_bytes"] >= row["messages"]
        assert 0.25 <= row["ratio"] <= 1.0, (name, row)


@live
def test_live_bootstrap_parity_n50():
    _bootstrap_parity(50)


@live
def test_live_bootstrap_parity_n150():
    """The acceptance bar: a real 150-node localhost UDP cluster — 150
    sockets, one event loop — bootstraps and converges, within tolerance
    of the matched-settings simulator run."""
    _bootstrap_parity(150)


@live
def test_live_bench_case_records_wire_parity():
    from repro.bench.runner import BenchRunner
    from repro.bench.specs import BenchSpec

    runner = BenchRunner(log=None)
    case = runner.run_case(
        BenchSpec(
            "live_bootstrap",
            "rapid",
            12,
            seed=1,
            params={"timeout": 60.0},
        )
    )
    assert case.result["convergence_time"] is not None
    assert case.result["real_bytes_sent"] > 0
    assert case.result["estimated_bytes_sent"] > 0
    assert 0.25 <= case.result["sim_estimate_ratio"] <= 1.0
    assert case.result["decode_errors"] == 0
    assert case.result["send_errors"] == 0
    assert case.messages["sent"] > 0
    assert case.virtual_s > 0
