"""The binary wire codec: totality, canonical form and the pinned format.

Socket-free and seeded, so tier-1.  Three fences:

* **totality** — whatever bytes arrive, :func:`codec.decode_bytes` either
  returns a registered message or raises :class:`codec.CodecError`; the
  fuzz cases below feed it truncations, bit flips and noise;
* **canonical form** — a datagram that decodes re-encodes to itself, so
  an echo or a relay never changes a byte (the ``wire_loopback`` benchmark
  counts on it);
* **a deliberate format** — ``tests/golden/wire_vectors.json`` pins the
  hex of every conformance exemplar; only ``tests/regen_golden.py``
  rewrites it.
"""

import dataclasses
import json
import math
import random
from pathlib import Path
from typing import Optional

import pytest

from repro.core import messages as m
from repro.core.node_id import Endpoint
from repro.experiments.harness import harness_for
from repro.runtime import codec
from repro.runtime.conformance import sample_message
from repro.sim import network
from repro.sim.cluster import endpoint_for

WIRE_VECTORS = Path(__file__).parent / "golden" / "wire_vectors.json"

NAMES = sorted(codec.registered_classes())
HEADER = bytes((codec.WIRE_VERSION,))


def wire_vectors() -> dict:
    """Hex of every conformance exemplar's datagram, by class name."""
    return {name: codec.encode_bytes(sample_message(name)).hex() for name in NAMES}


def decode_or_refuse(data: bytes):
    """The only two outcomes: a canonical message, or ``CodecError``."""
    try:
        msg = codec.decode_bytes(data)
    except codec.CodecError:
        return None
    assert type(msg) in codec.registered_classes().values()
    assert codec.encode_bytes(msg) == data
    return msg


def body(name: str) -> bytes:
    """A datagram header for ``name``; the caller appends the fields."""
    return HEADER + bytes((codec.wire_classes()[name].tag,))


_A = Endpoint("127.0.0.1", 4001)
_A_WIRE = b"\x00\x7f\x00\x00\x01" + (4001).to_bytes(2, "little")
_CID = bytes(8)
#: The committed version-4 vector of the BatchedAlerts exemplar: each
#: alert named its observer and its view.
VERSION_4_BATCH = (
    "0406007f000001a10f02007f000001a10f007f000001a20f0188796a5b4c3d2e1f0300"
    "0307000000000000000000007f000001a10f007f000001a30f0088796a5b4c3d2e1f01"
    "01090000000000000001047a6f6e650162"
)
#: ``wire_size`` of every exemplar at wire version 4.  Version 5 moved only
#: BatchedAlerts (198): its two alerts dropped 13 + 8 B each, the batch
#: gained its 8-byte ``config_id``.
VERSION_4_SIZES = {
    "Alert": 108, "BatchedAlerts": 198, "Change": 57, "Decision": 61,
    "Endpoint": 33, "HttpRequest": 67, "HttpResponse": 51, "JoinRequest": 72,
    "JoinResponse": 172, "LeaveNotification": 51, "NotSerializer": 64,
    "Phase1a": 69, "Phase1b": 149, "Phase2a": 131, "Phase2b": 77,
    "PreJoinRequest": 51, "PreJoinResponse": 101, "Probe": 59, "ProbeAck": 52,
    "TsRequest": 59, "TsResponse": 59, "ViewProbe": 51, "ViewRequest": 43,
    "ViewResponse": 71, "ViewSnapshot": 135, "ViewUpdate": 105, "VoteBundle": 73,
    "VotePull": 81, "WriteAck": 59, "WriteRequest": 83,
}


# ------------------------------------------------------------ pinned format


def test_wire_vectors_are_the_committed_ones():
    committed = json.loads(WIRE_VECTORS.read_text())
    assert wire_vectors() == committed, (
        "the wire format changed; if that is intended, bump WIRE_VERSION and "
        "run `python -m tests.regen_golden`"
    )
    for name, hexed in committed.items():
        assert codec.decode_bytes(bytes.fromhex(hexed)) == sample_message(name)


def test_a_probe_is_eighteen_bytes_laid_out_as_documented():
    data = codec.encode_bytes(m.Probe(_A, config_id=0x0102030405060708, seq=300))
    assert data == (
        body("Probe")
        + _A_WIRE
        + bytes.fromhex("0807060504030201")  # u64, little-endian
        + bytes.fromhex("ac02")  # 300 as a varint
    )


# -------------------------------------------------------------------- fuzz


@pytest.mark.parametrize("name", NAMES)
def test_every_truncation_is_refused(name):
    data = codec.encode_bytes(sample_message(name))
    for length in range(len(data)):
        with pytest.raises(codec.CodecError):
            codec.decode_bytes(data[:length])
    with pytest.raises(codec.CodecError):
        codec.decode_bytes(data + b"\x00")


@pytest.mark.parametrize("name", NAMES)
def test_bit_flips_decode_canonically_or_not_at_all(name):
    data = codec.encode_bytes(sample_message(name))
    rng = random.Random(f"flip:{name}")
    survived = 0
    for _ in range(1000):
        flipped = bytearray(data)
        bit = rng.randrange(len(data) * 8)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        survived += decode_or_refuse(bytes(flipped)) is not None
    # A flip inside an id or a counter is still a well-formed message.
    assert survived > 0


def test_random_bytes_decode_canonically_or_not_at_all():
    rng = random.Random("noise")
    tags = sorted(entry.tag for entry in codec.wire_classes().values())
    for case in range(1000):
        noise = rng.randbytes(rng.randrange(0, 96))
        if case % 4:  # most cases get past the header, into a decoder
            noise = HEADER + bytes((rng.choice(tags),)) + noise
        decode_or_refuse(noise)


def test_hostile_lengths_are_refused_before_any_allocation():
    huge = b"\xff\xff\xff\xff\x0f"  # 2**32 - 1 as a varint
    for data in (
        body("ViewSnapshot") + huge,  # member count
        body("JoinRequest") + _A_WIRE + _CID + _CID + huge,  # metadata
        body("VoteBundle") + _A_WIRE + _CID + b"\x00\x01" + huge,  # bitmap bytes
        body("Endpoint") + huge,  # host name bytes
    ):
        with pytest.raises(codec.CodecError):
            codec.decode_bytes(data)
    with pytest.raises(codec.CodecError):
        codec.decode_bytes(bytes(codec.MAX_DATAGRAM_BYTES + 1))


def test_non_canonical_encodings_are_refused():
    probe = body("Probe") + _A_WIRE + _CID
    ack = body("ProbeAck") + _A_WIRE + _CID
    for data in (
        probe + b"\x80\x00",  # 0 as a padded varint
        probe + b"\xff" * 10 + b"\x01",  # an eleven-byte varint
        probe + b"\xff" * 9 + b"\x02",  # 2**64 and up
        ack + b"\x02",  # a bool that is neither 0 nor 1
        body("Endpoint") + b"\x09127.0.0.1\x01",  # a dotted quad as a host name
        body("Endpoint") + b"\x01x\x80\x80\x04",  # port 65536
        body("NotSerializer") + _A_WIRE + b"\x01\x02",  # presence byte 2
        body("Change") + _A_WIRE + b"\x02" + _CID,  # AlertKind index 2
        body("VoteBundle") + _A_WIRE + _CID + b"\x00\x01\x02\x01\x00",  # bitmap 0x0001
        b"\x06" + probe[1:] + b"\x01",  # a future wire version
        b"\x01" + probe[1:] + b"\x01",  # retired: full-body votes
        b"\x02" + probe[1:] + b"\x01",  # retired: full-body accepts, epidemic
        # retired: delta-encoded join answers (the committed version-3
        # JoinRequest, its ring numbers and base config id included)
        bytes.fromhex(
            "0309007f000001a10f630000000000000088796a5b4c3d2e1f02010201047a6f"
            "6e6501610000000000000000"
        ),
        # retired: alerts that name their observer and view each (the
        # committed version-4 BatchedAlerts)
        bytes.fromhex(VERSION_4_BATCH),
        HEADER + b"\x0b",  # the join answer's delta, retired with its class
        HEADER + b"\x15",  # the epidemic's envelope, retired with its class
        HEADER + b"\x16",  # and its relay bundle
        HEADER + b"\xee",  # no such class
        HEADER + b"\x00",  # tag 0 is never assigned
    ):
        with pytest.raises(codec.CodecError):
            codec.decode_bytes(data)
    assert codec.decode_bytes(probe + b"\x00") == m.Probe(_A, 0, 0)


def test_old_json_datagrams_are_refused_not_misread():
    for data in (
        b'{"__dc__":"Probe","f":{"bogus":1}}',
        b'{"__ep__":"nope"}',
        b'{"__map__":5}',
        b'{"__dc__":"Probe","f":{"sender":1,"config_id":"x","seq":null}}',
    ):
        with pytest.raises(codec.CodecError):
            codec.decode_bytes(data)


# ------------------------------------------------------------ hoisted alerts


def _batch(alerts, sender=_A, config_id=7):
    return m.BatchedAlerts(sender, config_id, tuple(alerts))


def _alert(subject, observer=_A, config_id=7, **fields):
    return m.Alert(observer, subject, m.AlertKind.REMOVE, config_id, **fields)


def test_a_batch_names_its_observer_and_view_once():
    subjects = [endpoint_for(i) for i in range(1, 4)]
    batch = _batch(_alert(s, ring_numbers=(i,)) for i, s in enumerate(subjects))
    data = codec.encode_bytes(batch)
    alone = [codec.encode_bytes(alert) for alert in batch.alerts]
    # Each alert loses its 7-byte observer and 8-byte config_id (and its
    # own two-byte header); the batch adds its config_id once.
    assert len(data) == 2 + 7 + 8 + 1 + sum(len(a) - 2 - 7 - 8 for a in alone)
    assert data[2:17] == _A_WIRE + (7).to_bytes(8, "little")
    decoded = decode_or_refuse(data)
    assert decoded == batch
    assert all(a.observer is decoded.sender for a in decoded.alerts)
    assert decode_or_refuse(codec.encode_bytes(_batch(()))) == _batch(())
    assert codec.wire_classes()["BatchedAlerts"].layout == (
        ("sender", "endpoint"),
        ("config_id", "u64"),
        ("alerts", "tuple<Alert without observer, config_id>"),
    )


def test_a_foreign_alert_in_a_batch_is_refused_not_rewritten():
    other = Endpoint("127.0.0.1", 4002)
    for foreign in (_alert(other, observer=other), _alert(other, config_id=8)):
        with pytest.raises(codec.CodecError, match="differs from its holder"):
            codec.encode_bytes(_batch((_alert(endpoint_for(1)), foreign)))


def test_a_batch_is_sized_without_what_it_hoists():
    """A batch of n alerts costs what the generic walk charged at version 4,
    less each alert's observer and config_id, plus one config_id."""
    observer = Endpoint("node-12.rack-3", 7000)
    for n in (0, 1, 5):
        alerts = [
            _alert(endpoint_for(i), observer=observer, ring_numbers=(i, i + 1))
            for i in range(n)
        ]
        version_4 = (
            network.wire_size(observer)  # the header and the sender
            + 2  # the batch
            + 2  # its alerts tuple
            + sum(network.wire_size(a) - 28 for a in alerts)
        )
        per_alert = 4 + len(observer.host) + 8
        batch = _batch(alerts, sender=observer)
        assert network.wire_size(batch) == version_4 - n * per_alert + 8


def test_only_the_batch_moved_its_simulated_size():
    sizes = {name: network.wire_size(sample_message(name)) for name in NAMES}
    assert sizes == {**VERSION_4_SIZES, "BatchedAlerts": 198 - 2 * (13 + 8) + 8}


@pytest.mark.parametrize("system", ["rapid", "rapid-c"])
def test_every_simulated_message_can_go_on_the_wire(system, monkeypatch):
    """The simulator passes message objects by reference and encodes none:
    a protocol path that batched an alert from another observer or view
    would pass every simulated test and fail only on sockets.  So tap one
    harness's fabric through a bootstrap, a join and a crash, and
    round-trip every message it was handed."""
    harness = harness_for(system, seed=1)
    fabric, sent = harness.network, []
    send, broadcast = fabric.send, fabric.broadcast

    def tap_send(src, dst, msg):
        sent.append(msg)
        send(src, dst, msg)

    def tap_broadcast(src, dsts, msg):
        sent.append(msg)
        broadcast(src, dsts, msg)

    monkeypatch.setattr(fabric, "send", tap_send)
    monkeypatch.setattr(fabric, "broadcast", tap_broadcast)
    endpoints = harness.bootstrap(16, seed_delay=2.0, stagger=1.0)
    assert harness.run_until_converged(16, timeout=120.0) is not None
    harness.add_node(endpoint_for(16), seeds=endpoints[:1])
    assert harness.run_until_converged(17, timeout=120.0) is not None
    harness.crash(endpoints[5:6])
    assert harness.run_until_converged(16, timeout=120.0) is not None
    assert harness.ledger.report()["ok"] is True
    classes = {type(msg).__name__ for msg in sent}
    assert {"BatchedAlerts", "JoinResponse", "Probe"} <= classes
    for msg in sent:
        assert codec.decode_bytes(codec.encode_bytes(msg)) == msg


# --------------------------------------------------------------- value range


def test_a_2048_member_join_response_fits_one_datagram():
    members = tuple(sorted(endpoint_for(i) for i in range(2048)))
    uuids = tuple(random.Random(7).getrandbits(64) for _ in members)
    response = m.JoinResponse(
        members[0],
        status=m.JoinStatus.SAFE_TO_JOIN,
        config_id=2**64 - 1,
        view=m.ViewSnapshot(members=members, uuids=uuids, seq=2047),
    )
    data = codec.encode_bytes(response)
    assert len(data) < 32 * 1024
    assert codec.decode_bytes(data) == response


def test_bitmaps_are_as_wide_as_the_view_and_floats_are_lossless():
    for bitmap in (0, 1, 255, 256, (1 << 2048) - 1, 1 << 4095):
        bundle = m.VoteBundle(_A, 5, ids=(2**64 - 1,), bitmaps=(bitmap,))
        assert decode_or_refuse(codec.encode_bytes(bundle)) == bundle
    request = codec.registered_classes()["TsRequest"]
    for deadline in (0.1, -0.0, 5e-324, 1.7976931348623157e308, math.inf, 12):
        decoded = decode_or_refuse(codec.encode_bytes(request(_A, 1, deadline)))
        assert decoded.deadline == deadline
        assert math.copysign(1.0, decoded.deadline) == math.copysign(1.0, deadline)
        assert type(decoded.deadline) is float


def test_cut_bodies_round_trip_where_a_vote_message_can_hold_them():
    """The exemplars are id-only (the common case); the on-request
    ``bodies`` / ``body`` fields cross the wire too."""
    cut = (m.Change(_A, m.AlertKind.JOIN, uuid=2**64 - 1), m.Change(_A, m.AlertKind.REMOVE))
    for msg in (
        m.VoteBundle(_A, 5, bodies=(cut, cut[:1])),
        m.VoteBundle(_A, 5, ids=(1, 2), bitmaps=(1, 0), bodies=(cut,)),
        m.Decision(_A, 5, cut_id=m.cut_id(cut), body=cut),
    ):
        assert decode_or_refuse(codec.encode_bytes(msg)) == msg


def test_host_names_travel_and_dotted_quads_pack_to_seven_bytes():
    for endpoint in (_A, Endpoint("node-7.rack-2.example", 65535), Endpoint("::1", 0)):
        assert decode_or_refuse(codec.encode_bytes(endpoint)) == endpoint
    assert len(codec.encode_bytes(Endpoint("255.255.255.255", 65535))) == 2 + 7
    # Not canonical dotted quads: they stay host names and stay distinct.
    for host in ("127.1", "127.000.0.1", "1.2.3.4 "):
        assert decode_or_refuse(codec.encode_bytes(Endpoint(host, 9))).host == host


def test_the_decoded_endpoint_memo_is_emptied_when_full(monkeypatch):
    """Traffic naming ever-new addresses cannot grow the memo past its
    bound, and decoding stays exact across the reset."""
    monkeypatch.setattr(codec, "_ENDPOINTS", {})
    monkeypatch.setattr(codec, "_ENDPOINTS_MAX", 4)
    sizes = []
    for port in range(6):
        endpoint = Endpoint("10.1.2.3", 7000 + port)
        assert decode_or_refuse(codec.encode_bytes(endpoint)) == endpoint
        sizes.append(len(codec._ENDPOINTS))
    assert sizes == [1, 2, 3, 4, 1, 2]


@pytest.mark.parametrize(
    "broken",
    [
        m.Probe(_A, config_id=1, seq=-1),
        m.Probe(_A, config_id=1, seq=1 << 64),
        m.Probe(_A, config_id=-1, seq=1),
        m.Probe(_A, config_id="x", seq=None),
        m.Probe("127.0.0.1:1", config_id=1, seq=1),
        m.Probe(Endpoint("", 1), config_id=1, seq=1),
        m.Probe(Endpoint("h", 65536), config_id=1, seq=1),
        m.Change(_A, kind="evict"),
        m.Phase1a(_A, 1, rank=(1, 2, 3)),
        m.VoteBundle(_A, 1, bitmaps=(-1,)),
        m.Phase2a(_A, 1, (2, 1), value=(_CID,)),  # a value is Changes
        m.Phase2b(_A, 1, (2, 1), cut_id=(m.Change(_A, m.AlertKind.JOIN),)),
        m.JoinRequest(_A, 1, 1, metadata=(("zone", 3),)),
    ],
)
def test_ill_typed_messages_fail_to_encode_with_codec_error(broken):
    with pytest.raises(codec.CodecError):
        codec.encode_bytes(broken)


def test_nan_does_not_cross_the_wire():
    request = codec.registered_classes()["TsRequest"]
    with pytest.raises(codec.CodecError):
        codec.encode_bytes(request(_A, 1, math.nan))
    nan = body("TsRequest") + _A_WIRE + b"\x01" + bytes.fromhex("000000000000f87f")
    with pytest.raises(codec.CodecError):
        codec.decode_bytes(nan)


# ------------------------------------------------------------- registration


@pytest.fixture
def scratch_registry(monkeypatch):
    """Let a test register classes without leaving them in the registry."""
    for table in ("_BY_NAME", "_BY_CLASS", "_BY_TAG"):
        monkeypatch.setattr(codec, table, dict(getattr(codec, table)))


def test_one_registration_covers_codec_sizer_and_conformance(scratch_registry):
    @dataclasses.dataclass(frozen=True)
    class Lease:
        holder: Endpoint
        term: int
        ttl: float
        renewals: tuple[int, ...] = ()
        witness: Optional[Endpoint] = None

    codec.register(Lease, tag=0xF0)
    assert Lease in network._SIZERS
    # The conformance default comes from the compiled schema, not from a guess.
    sample = sample_message("Lease")
    assert sample == Lease(Endpoint("x"), 1, 1.0)
    assert codec.decode_bytes(codec.encode_bytes(sample)) == sample
    assert codec.wire_classes()["Lease"].layout == (
        ("holder", "endpoint"),
        ("term", "varint"),
        ("ttl", "f64"),
        ("renewals", "tuple<varint>"),
        ("witness", "optional<endpoint>"),
    )
    codec.register(Lease, tag=0xF0)  # idempotent


def test_registration_refuses_what_it_cannot_put_on_the_wire(scratch_registry):
    @dataclasses.dataclass(frozen=True)
    class Loose:
        anything: object

    @dataclasses.dataclass(frozen=True)
    class Empty:
        pass

    @dataclasses.dataclass(frozen=True)
    class Fine:
        x: int

    @dataclasses.dataclass(frozen=True)
    class Orphans:
        alerts: tuple[m.BatchedAlert, ...]

    for cls, tag in (
        (Loose, 0xF1),  # no encoding for `object`
        (Orphans, 0xF1),  # hoists fields it does not carry
        (Empty, 0xF1),  # nothing to send
        (Fine, 0x03),  # Probe's tag
        (Fine, 0),  # reserved
        (Fine, 256),  # not a byte
        (m.Probe, 0xF1),  # already registered under another tag
        (int, 0xF1),  # not a dataclass
    ):
        with pytest.raises(codec.CodecError):
            codec.register(cls, tag)
    assert set(codec.registered_classes()) == set(NAMES)
