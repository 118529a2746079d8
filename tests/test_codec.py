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
from typing import Annotated, Optional

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
#: The committed version-5 vector of the BatchedAlerts exemplar: every
#: alert named its kind, and the REMOVE its zero uuid and empty metadata.
VERSION_5_BATCH = (
    "0506007f000001a10f88796a5b4c3d2e1f02007f000001a20f0103000307000000"
    "000000000000007f000001a30f000101090000000000000001047a6f6e650162"
)
#: And of the ViewSnapshot exemplar: three members at 7 B each.
VERSION_5_SNAPSHOT = (
    "050a03007f000001a10f007f000001a20f007f000001a30f030b00000000000000"
    "160000000000000021000000000000000401007f000001a20f01047a6f6e650161"
)
#: ``wire_size`` of every exemplar at wire version 5.
VERSION_5_SIZES = {
    "Alert": 108, "BatchedAlerts": 164, "Change": 57, "Decision": 61,
    "Endpoint": 33, "HttpRequest": 67, "HttpResponse": 51, "JoinRequest": 72,
    "JoinResponse": 172, "LeaveNotification": 51, "NotSerializer": 64,
    "Phase1a": 69, "Phase1b": 149, "Phase2a": 131, "Phase2b": 77,
    "PreJoinRequest": 51, "PreJoinResponse": 101, "Probe": 59, "ProbeAck": 52,
    "TsRequest": 59, "TsResponse": 59, "ViewProbe": 51, "ViewRequest": 43,
    "ViewResponse": 71, "ViewSnapshot": 135, "ViewUpdate": 105, "VoteBundle": 73,
    "VotePull": 81, "WriteAck": 59, "WriteRequest": 83,
}
#: Version 6 moved two: the batch's REMOVE alert dropped its kind, uuid and
#: metadata (18), its JOIN alert its kind (6), and the batch gained its
#: second tuple (2); a ViewUpdate gained its (empty) metadata table (2).
VERSION_6_SIZES = {**VERSION_5_SIZES, "BatchedAlerts": 142, "ViewUpdate": 107}
#: The committed version-6 vector of the BatchedAlerts exemplar: each
#: alert spelt its subject as a whole 7-byte endpoint.
VERSION_6_BATCH = (
    "0606007f000001a10f88796a5b4c3d2e1f01007f000001a30f0101090000000000000001"
    "047a6f6e65016201007f000001a20f03000307"
)
#: Version 7 moved one: each of the batch's two single-subject tuples
#: charges its subject as a column's first 6 B, not the 13 B of the
#: generic walk's 127.0.0.1 endpoint.
VERSION_7_SIZES = {**VERSION_6_SIZES, "BatchedAlerts": 128}
#: The committed version-7 vector of the BatchedAlerts exemplar: its JOIN
#: alert named one ring, its REMOVE alert three.
VERSION_7_BATCH = (
    "0706007f000001a10f88796a5b4c3d2e1f027f0000010fa30101090000000000000001"
    "047a6f6e650162027f0000010fa203000307"
)
#: Version 8 moved one: no batched alert names rings, so the exemplar
#: batch sheds the generic walk's charge for its JOIN's one ring (10 B)
#: and its REMOVE's three (26 B).
VERSION_8_SIZES = {**VERSION_7_SIZES, "BatchedAlerts": 92}
#: The committed version-8 vector of the ProbeAck exemplar: an ack named
#: its sender.
VERSION_8_ACK = "0804007f000001a10f88796a5b4c3d2e1f01"
#: Version 9 moved one: an ack names no sender, so the exemplar sheds the
#: generic walk's charge for its 127.0.0.1 endpoint (4 + 9 B).
VERSION_9_SIZES = {**VERSION_8_SIZES, "ProbeAck": 39}


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
    ack = body("ProbeAck") + _CID
    snapshot = body("ViewSnapshot")
    rest = b"\x00\x00\x00"  # no uuids, seq 0, no metadata
    batch = body("BatchedAlerts") + _A_WIRE + _CID
    subject = b"\x00\x0a\x00\x00\x01\x88\x13"  # 10.0.0.1:5000
    ten_5000 = b"\x0a\x00\x00\x01\x13\x88"  # a set's first member, 10.0.0.1:5000
    one_remove = batch + b"\x00\x02" + ten_5000  # no joins, one removal's subject
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
        # endpoint sets: 10.0.0.1:5000 then a zero delta (itself again), a
        # negative port delta (5000 then 4999 on one host), a dotted quad
        # sent plain, host names out of order or twice, an address past
        # 2**32, a port past 65535, and a first member cut short
        snapshot + b"\x04" + ten_5000 + b"\x00\x00" + rest,
        snapshot + b"\x04" + ten_5000 + b"\x00\x01" + rest,
        snapshot + b"\x03" + subject + rest,
        snapshot + b"\x05\x01b\x01\x01a\x01" + rest,  # plain, out of order: b:1, a:1
        snapshot + b"\x05\x01a\x01\x01a\x01" + rest,  # plain, a:1 twice
        snapshot + b"\x04\xff\xff\xff\xff\x00\x00\x01\x00" + rest,
        snapshot + b"\x04\x00\x00\x00\x00\xff\xff\x00\x02" + rest,
        snapshot + b"\x02\x0a\x00\x00\x01\x13",
        # a REMOVE alert with rings, a uuid, with metadata, and a JOIN alert
        # (its uuid and metadata) in ``removes``: what follows its subject
        # is left over
        one_remove + b"\x01\x00",
        one_remove + bytes((7, 0, 0, 0, 0, 0, 0, 0)),
        one_remove + b"\x01\x01a\x01b",
        one_remove + bytes((7, 0, 0, 0, 0, 0, 0, 0, 0)),
        # subject columns: a dotted quad sent plain, an address past 2**32
        # (255.255.255.255 and then one more), a port past 65535 (65535 and
        # then one more), and a first subject cut short
        batch + b"\x00\x03" + subject,
        batch + b"\x00\x04" + b"\xff" * 6 + b"\x02\x00",
        batch + b"\x00\x04" + b"\xff" * 6 + b"\x00\x02",
        batch + b"\x00\x02" + ten_5000[:5],
        b"\x0a" + probe[1:] + b"\x01",  # a future wire version
        b"\x01" + probe[1:] + b"\x01",  # retired: full-body votes
        b"\x02" + probe[1:] + b"\x01",  # retired: full-body accepts, epidemic
        # retired: delta-encoded join answers (the committed version-3
        # JoinRequest, its ring numbers and base config id included)
        bytes.fromhex(
            "0309007f000001a10f630000000000000088796a5b4c3d2e1f02010201047a6f"
            "6e6501610000000000000000"
        ),
        # retired: alerts that name their observer and view each (the
        # committed version-4 BatchedAlerts), alerts that name their kind
        # and plain member lists (the committed version-5 vectors)
        bytes.fromhex(VERSION_4_BATCH),
        bytes.fromhex(VERSION_5_BATCH),
        bytes.fromhex(VERSION_5_SNAPSHOT),
        # retired: subjects spelt whole (the committed version-6 vector),
        # and alerts that name their rings (the committed version-7 one)
        bytes.fromhex(VERSION_6_BATCH),
        bytes.fromhex(VERSION_7_BATCH),
        # retired: acks that name their sender (the committed version-8 one)
        bytes.fromhex(VERSION_8_ACK),
        HEADER + b"\x0b",  # the join answer's delta, retired with its class
        HEADER + b"\x15",  # the epidemic's envelope, retired with its class
        HEADER + b"\x16",  # and its relay bundle
        HEADER + b"\xee",  # no such class
        HEADER + b"\x00",  # tag 0 is never assigned
    ):
        with pytest.raises(codec.CodecError):
            codec.decode_bytes(data)
    assert codec.decode_bytes(probe + b"\x00") == m.Probe(_A, 0, 0)
    # The well-formed neighbours of the refused sets and alerts decode.
    ten, ten_5001 = Endpoint("10.0.0.1", 5000), Endpoint("10.0.0.1", 5001)
    for data, members in (
        (snapshot + b"\x04" + ten_5000 + b"\x00\x02", (ten, ten_5001)),
        (snapshot + b"\x02" + bytes(6), (Endpoint("0.0.0.0", 0),)),
        (snapshot + b"\x02" + b"\xff" * 6, (Endpoint("255.255.255.255", 65535),)),
        (snapshot + b"\x00", ()),
        (snapshot + b"\x05\x01a\x01\x01b\x01", (Endpoint("a", 1), Endpoint("b", 1))),
    ):
        assert decode_or_refuse(data + rest) == m.ViewSnapshot(members)
    removal = m.Alert(_A, ten, m.AlertKind.REMOVE, 0)
    decoded = decode_or_refuse(one_remove)
    assert decoded == m.BatchedAlerts(_A, 0, removes=(removal,))
    # ... and the highest address and port, and a plain column with a host name
    top = m.Alert(_A, Endpoint("255.255.255.255", 65535), m.AlertKind.REMOVE, 0)
    data = batch + b"\x00\x02" + b"\xff" * 6
    assert decode_or_refuse(data) == m.BatchedAlerts(_A, 0, removes=(top,))
    named = m.Alert(_A, Endpoint("a", 1), m.AlertKind.REMOVE, 0)
    data = batch + b"\x00\x05\x01a\x01" + subject
    assert decode_or_refuse(data) == m.BatchedAlerts(_A, 0, removes=(named, removal))


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
    alerts = tuple(alerts)
    return m.BatchedAlerts(
        sender,
        config_id,
        joins=tuple(a for a in alerts if a.kind == m.AlertKind.JOIN),
        removes=tuple(a for a in alerts if a.kind == m.AlertKind.REMOVE),
    )


def _alert(subject, observer=_A, config_id=7, kind=m.AlertKind.REMOVE, **fields):
    return m.Alert(observer, subject, kind, config_id, **fields)


def _join(subject, uuid=5, **fields):
    return _alert(subject, kind=m.AlertKind.JOIN, joiner_uuid=uuid, **fields)


def test_a_batch_names_its_observer_view_and_kinds_once():
    subjects = [endpoint_for(i) for i in range(1, 4)]
    removes = [_alert(s) for s in subjects]
    joins = [_join(endpoint_for(9), metadata=(("zone", "a"),))]
    batch = _batch(removes + joins)
    data = codec.encode_bytes(batch)
    alone = [codec.encode_bytes(alert) for alert in removes + joins]
    # Each alert loses its 7-byte observer and 8-byte config_id (and its
    # own two-byte header), its kind byte and its empty rings' count; a
    # REMOVE its 8-byte zero uuid and its empty metadata's count too.  The
    # batch adds its config_id once and a count per tuple, and sends each
    # tuple's 7-byte subjects as one column: the first in 6 B, each later
    # one here in 2 B.
    hoisted = 2 + 7 + 8 + 1 + 1
    columns = 7 * 4 - (6 + 2 + 2) - 6
    assert len(data) == (
        2 + 7 + 8 + 2 + sum(len(a) - hoisted for a in alone) - 9 * 3 - columns
    )
    assert [len(a) - hoisted - 9 for a in alone[:3]] == [7, 7, 7]  # the subject
    assert data[2:17] == _A_WIRE + (7).to_bytes(8, "little")
    decoded = decode_or_refuse(data)
    assert decoded == batch
    alerts = decoded.joins + decoded.removes
    assert all(a.observer is decoded.sender for a in alerts)
    assert decode_or_refuse(codec.encode_bytes(_batch(()))) == _batch(())
    assert codec.wire_classes()["BatchedAlerts"].layout == (
        ("sender", "endpoint"),
        ("config_id", "u64"),
        (
            "joins",
            "subject column, tuple<Alert without observer, config_id, subject; "
            "kind='join', ring_numbers=()>",
        ),
        (
            "removes",
            "subject column, tuple<Alert without observer, config_id, subject; "
            "kind='remove', ring_numbers=(), joiner_uuid=0, metadata=()>",
        ),
    )


def test_a_foreign_or_misfiled_alert_in_a_batch_is_refused_not_rewritten():
    other, ok = Endpoint("127.0.0.1", 4002), _alert(endpoint_for(1))
    for foreign in (_alert(other, observer=other), _alert(other, config_id=8)):
        with pytest.raises(codec.CodecError, match="differs from its holder"):
            codec.encode_bytes(_batch((ok, foreign)))
    for removes, joins in (
        ((ok, _alert(other, joiner_uuid=3)), ()),  # a REMOVE names a joiner
        ((ok, _alert(other, metadata=(("zone", "a"),))), ()),  # or its role
        ((ok, _join(other)), ()),  # a JOIN among the removals
        ((), (ok,)),  # a REMOVE among the joins
    ):
        with pytest.raises(codec.CodecError, match="does not hold kind="):
            codec.encode_bytes(m.BatchedAlerts(_A, 7, joins, removes))


def test_a_batched_alert_that_names_rings_is_refused_not_rewritten():
    """A receiver tallies the rings its own topology gives the observer, so
    a batch has no place for rings: one that names any is refused."""
    ok, other = _alert(endpoint_for(1)), Endpoint("127.0.0.1", 4002)
    for joins, removes in (
        ((), (ok, _alert(other, ring_numbers=(0,)))),
        ((_join(other, ring_numbers=(3, 7)),), (ok,)),
    ):
        with pytest.raises(codec.CodecError, match=r"ring_numbers=\(\)"):
            codec.encode_bytes(m.BatchedAlerts(_A, 7, joins, removes))
    # A lone Alert still carries whatever rings it names.
    alert = _alert(other, ring_numbers=(0, 3, 7))
    assert decode_or_refuse(codec.encode_bytes(alert)) == alert


def column_bytes(alerts) -> int:
    """The bytes of the codec's column of ``alerts``' subjects after its head."""
    out = bytearray()
    codec._put_column([alert.subject for alert in alerts], out)
    _, head = codec._get_uint(bytes(out), 0)
    return len(out) - head


def test_a_batch_is_sized_without_what_it_hoists():
    """A batch of alerts costs what the generic walk charged at version 4,
    less each alert's observer and config_id (version 5) and kind, and
    a REMOVE's zero uuid and empty metadata, plus one config_id and one
    more tuple (version 6); a tuple's subjects of dotted quads cost their
    column's bytes exactly instead of the generic walk's endpoints
    (version 7); and each alert less its empty rings (version 8)."""
    observer = Endpoint("node-12.rack-3", 7000)
    for n in (0, 1, 5):
        alerts = [_alert(endpoint_for(i), observer=observer) for i in range(n)] + [
            _join(endpoint_for(100 + i), observer=observer) for i in range(n // 2)
        ]
        version_4 = (
            network.wire_size(observer)  # the header and the sender
            + 2  # the batch
            + 2  # its alerts tuple
            + sum(network.wire_size(a) - 28 for a in alerts)
        )
        per_alert = 4 + len(observer.host) + 8
        version_5 = version_4 - len(alerts) * per_alert + 8
        batch = _batch(alerts, sender=observer)
        kinds = 6 * len(batch.joins) + (8 + 8 + 2) * len(batch.removes)
        version_6 = version_5 - kinds + 2
        subjects = sum(4 + len(a.subject.host) for a in alerts)
        columns = column_bytes(batch.joins) + column_bytes(batch.removes)
        version_7 = version_6 - subjects + columns
        assert network.wire_size(batch) == version_7 - 2 * len(alerts)


def test_the_batch_moved_its_simulated_size():
    sizes = {name: network.wire_size(sample_message(name)) for name in NAMES}
    assert sizes == VERSION_9_SIZES
    assert VERSION_7_SIZES["BatchedAlerts"] == 142 - 2 * (4 + len("127.0.0.1") - 6)
    assert VERSION_8_SIZES["BatchedAlerts"] == 128 - (2 + 8) - (2 + 3 * 8)
    assert VERSION_9_SIZES["ProbeAck"] == 52 - (4 + len("127.0.0.1"))


def test_an_ack_is_charged_exactly_its_datagram():
    """The version byte, the tag, the config id and the flag: the sizer's
    estimate of an ack is its encoded length plus the 28 B of IPv4 and
    UDP headers, no more."""
    for ack in (
        sample_message("ProbeAck"),
        m.ProbeAck(config_id=0),
        m.ProbeAck(config_id=2**64 - 1, bootstrapping=False),
    ):
        data = codec.encode_bytes(ack)
        assert data == body("ProbeAck") + ack.config_id.to_bytes(8, "little") + bytes(
            (ack.bootstrapping,)
        )
        assert network.wire_size(ack) == len(data) + 28 == 39


# ----------------------------------------------------------- subject columns

_TEN = Endpoint("10.0.0.1", 5000)
#: Subjects as a batch raised them: not in Endpoint order, not distinct.
RAISED = {
    "none": (),
    "one": (_TEN,),
    "two, falling": (Endpoint("10.0.0.9", 5000), _TEN),
    "a duplicate": (_TEN, Endpoint("10.0.3.4", 5000), _TEN),
    "falling address and port": tuple(
        Endpoint(f"10.0.{200 - 3 * i}.1", 9000 - 37 * i) for i in range(20)
    ),
    "far apart": tuple(
        Endpoint(("0.0.0.0", "255.255.255.255")[i % 2], (0, 65535)[i % 2])
        for i in range(6)
    ),
    "one host, base + i": tuple(Endpoint("127.0.0.1", 40000 + i) for i in range(30)),
    "one host name": (_TEN, Endpoint("db-1", 5000), _TEN),
}


@pytest.mark.parametrize("name", sorted(RAISED))
def test_a_batch_keeps_its_subjects_in_the_order_raised(name):
    """Each tuple's subjects travel as one column in the order raised (a
    receiver tallies them in that order), delta-coded when every host is a
    dotted quad and whole otherwise; the simulator charges the column
    exactly."""
    subjects = RAISED[name]
    joins = tuple(_join(s, uuid=i + 1) for i, s in enumerate(subjects))
    removes = tuple(_alert(s) for s in subjects[::-1])
    batch = m.BatchedAlerts(_A, 7, joins, removes)
    data = codec.encode_bytes(batch)
    decoded = decode_or_refuse(data)
    assert decoded == batch
    assert [a.subject for a in decoded.joins] == list(subjects)
    assert [a.joiner_uuid for a in decoded.joins] == list(range(1, len(subjects) + 1))
    plain = any(s.host == "db-1" for s in subjects)
    assert data[2 + 7 + 8] == 2 * len(subjects) + plain  # the joins' head
    whole = sum(len(codec.encode_bytes(s)) - 2 for s in subjects)
    for alerts in (joins, removes):
        if plain:
            assert network._column_size(alerts) is None
            assert column_bytes(alerts) == whole
        else:
            assert network._column_size(alerts) == column_bytes(alerts)
    assert network.wire_size(batch) >= len(data) + 28


@pytest.fixture(scope="module")
def bootstrap_batches():
    """The alert batches of a 64-member core admitting 448 joiners at once,
    as ``bootstrap_n512`` grows its cluster."""
    harness = harness_for("rapid", seed=1)
    endpoints = harness.bootstrap(64, seed_delay=5.0, stagger=8.0)
    assert harness.run_until_converged(64) is not None
    harness.run_for(2.0)
    fabric, batches = harness.network, []
    broadcast = fabric.broadcast

    def tap(src, dsts, msg):
        if type(msg) is m.BatchedAlerts:
            batches.append(msg)
        broadcast(src, dsts, msg)

    fabric.broadcast = tap
    for i in range(64, 512):
        harness.cluster.add_node(endpoint_for(i), seeds=endpoints[:1])
    assert harness.run_until_converged(512) is not None
    return batches


def test_a_bootstrap_batch_keeps_its_order_at_under_three_bytes_a_subject(
    bootstrap_batches,
):
    """A JOIN alert's subject cost 7 B at version 6; in raise order a
    mass join's subjects take about 2.8 B each (sorted they would take
    about 2.1 B, but the cut detector would tally them in another order)."""
    batches = sorted(bootstrap_batches, key=lambda b: len(b.joins))
    batch = batches[len(batches) // 2]  # about 65 JOIN alerts
    assert 60 <= len(batch.joins) <= 70 and not batch.removes
    subjects = [a.subject for a in batch.joins]
    assert subjects != sorted(subjects)
    data = codec.encode_bytes(batch)
    assert decode_or_refuse(data) == batch
    columns = [column_bytes(b.joins) for b in batches]
    assert sum(columns) < 2.9 * sum(len(b.joins) for b in batches)
    assert [network._column_size(b.joins) for b in batches] == columns
    assert all(network.wire_size(b) >= len(codec.encode_bytes(b)) + 28 for b in batches)


# ------------------------------------------------------------ endpoint sets


def _members(pattern, n):
    """``n`` members in :class:`Endpoint` order, as a view holds them."""
    make = {
        "sim": endpoint_for,  # 10.0.x.y:5000
        "live": lambda i: Endpoint("127.0.0.1", 40000 + i),  # one host, base + i
        "hosts": lambda i: Endpoint(f"node-{i}.rack-{i % 7}", 7000 + i % 3),
        # far apart, and a port that falls as often as it rises
        "spread": lambda i: Endpoint(f"10.{i % 256}.{i // 256}.1", 9000 - 37 * (i % 50)),
    }[pattern]
    return tuple(sorted(make(i) for i in range(n)))


@pytest.mark.parametrize("pattern", ["sim", "live", "hosts", "spread"])
@pytest.mark.parametrize("n", [1, 2, 512])
def test_an_endpoint_set_round_trips_in_endpoint_order(pattern, n):
    members = _members(pattern, n)
    uuids = tuple(range(n, 0, -1))
    for msg in (
        m.ViewSnapshot(members, uuids, seq=n),
        m.ViewUpdate(_A, 9, members, uuids),
    ):
        decoded = decode_or_refuse(codec.encode_bytes(msg))
        assert decoded == msg
        assert dict(zip(decoded.members, decoded.uuids)) == dict(zip(members, uuids))
    data = codec.encode_bytes(m.ViewSnapshot(members))
    size = len(data) - 2 - 3  # less the header and the three empty fields
    if pattern == "hosts":  # plain: a count and each endpoint in full
        count = 1 if 2 * n + 1 < 0x80 else 2
        assert size == count + sum(len(codec.encode_bytes(ep)) - 2 for ep in members)
    elif pattern != "spread":  # a count, the first address and port, then 2 B a member
        assert size == (1 if 2 * n < 0x80 else 2) + 6 + 2 * (n - 1)


def test_a_member_list_that_is_not_in_endpoint_order_is_refused():
    """The wire carries members in numeric order and the uuids as they
    are: only a list the decoder's sort restores can keep them aligned."""
    unsorted = (Endpoint("10.0.0.2", 1), Endpoint("10.0.0.10", 1))  # numeric order
    for members in (unsorted, (_A, _A), (Endpoint("b", 1), Endpoint("a", 1))):
        with pytest.raises(codec.CodecError, match="not sorted and distinct"):
            codec.encode_bytes(m.ViewSnapshot(members))
    # A mixed set goes plain, in Endpoint order.
    mixed = (Endpoint("10.0.0.1", 5), Endpoint("db", 5))
    data = codec.encode_bytes(m.ViewSnapshot(mixed))
    assert data[2] == 2 * 2 + 1
    assert decode_or_refuse(data).members == mixed


def test_a_join_response_prices_a_member_at_about_ten_bytes():
    """A 7-byte endpoint and an 8-byte uuid per member at version 5; the
    uuid and about 2 B at version 6."""
    for n, bound, version_5 in ((512, 5_300, 7_733), (2048, 21_000, 30_747)):
        members = _members("sim", n)
        uuids = tuple(random.Random(7).getrandbits(64) for _ in members)
        response = m.JoinResponse(
            members[0],
            status=m.JoinStatus.SAFE_TO_JOIN,
            config_id=2**64 - 1,
            view=m.ViewSnapshot(members=members, uuids=uuids, seq=n - 1),
        )
        data = codec.encode_bytes(response)
        assert len(data) + 28 <= bound < version_5
        assert codec.decode_bytes(data) == response


@pytest.mark.parametrize("system", ["rapid", "rapid-c"])
def test_every_simulated_message_can_go_on_the_wire(system, monkeypatch):
    """The simulator passes message objects by reference and encodes none:
    a protocol path that batched an alert from another observer or view
    would pass every simulated test and fail only on sockets.  So tap one
    harness's fabric through a bootstrap, a join, a crash and a mass join
    (16 -> 48 at once, whose batches hold many subjects with varied
    deltas), round-trip every message it was handed, and check that the
    simulator charged it no less than its datagram."""
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
    for i in range(17, 49):
        harness.add_node(endpoint_for(i), seeds=endpoints[:1])
    assert harness.run_until_converged(48, timeout=120.0) is not None
    assert harness.ledger.report()["ok"] is True
    classes = {type(msg).__name__ for msg in sent}
    assert {"BatchedAlerts", "JoinResponse", "Probe"} <= classes
    for msg in sent:
        data = codec.encode_bytes(msg)
        assert codec.decode_bytes(data) == msg
        # The simulator's sizer stays an upper bound on every message sent.
        assert network.wire_size(msg) >= len(data) + 28, msg
    batches = [msg.joins for msg in sent if type(msg) is m.BatchedAlerts]
    assert max(map(len, batches)) >= 8
    # ... and charges the subjects of a batch exactly their column.
    assert [network._column_size(joins) for joins in batches] == [
        column_bytes(joins) for joins in batches
    ]


# --------------------------------------------------------------- value range


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


def test_a_long_host_name_is_sized_no_less_than_its_datagram():
    """A host of 128 B or more takes a two-byte length and a port of 16384
    or more three bytes: 5 B beyond the host, where the simulator's rule
    for an endpoint charges 4 B."""
    request = codec.registered_classes()["ViewRequest"]
    for endpoint, datagram in (
        (Endpoint("n" * 200, 40000), 235),
        (Endpoint("n" * 128, 16384), 163),
        (Endpoint("n" * 127, 65535), 161),  # a one-byte length: 4 B suffice
        (Endpoint("n" * 128, 16383), 162),  # a two-byte port: 4 B suffice
    ):
        data = codec.encode_bytes(request(endpoint))
        assert len(data) + 28 == datagram
        assert network.wire_size(request(endpoint)) == datagram


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
        alerts: tuple[m.BatchedRemove, ...]

    @dataclasses.dataclass(frozen=True)
    class Single:
        sender: Endpoint
        config_id: m.U64
        alert: m.BatchedJoin

    @dataclasses.dataclass(frozen=True)
    class Ringed:
        sender: Endpoint
        config_id: m.U64
        alerts: tuple[Annotated[m.Alert, m._FROM_BATCH, (), "ring_numbers"], ...]

    for cls, tag in (
        (Loose, 0xF1),  # no encoding for `object`
        (Orphans, 0xF1),  # hoists fields it does not carry
        (Single, 0xF1),  # a subject column outside a tuple
        (Ringed, 0xF1),  # a column of what is no endpoint
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
