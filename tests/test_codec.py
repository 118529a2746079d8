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
        body("JoinRequest") + _A_WIRE + _CID + _CID + b"\x00" + huge,  # metadata
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
        body("GossipEnvelope") + _A_WIRE + b"\x01\x01\x03",  # a Probe as payload
        b"\x03" + probe[1:] + b"\x01",  # a future wire version
        b"\x01" + probe[1:] + b"\x01",  # the retired one (full-body votes)
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
        m.GossipEnvelope(_A, 1, 1),  # no payload
        m.GossipEnvelope(_A, 1, 1, payload=m.Probe(_A, 1, 1)),
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

    for cls, tag in (
        (Loose, 0xF1),  # no encoding for `object`
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
