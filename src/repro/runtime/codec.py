"""Binary wire codec for running Rapid over real sockets.

The simulator passes message objects by reference; the live asyncio runtime
serializes them.  The field annotations of a message dataclass are its wire
schema: :func:`register` reads them once and generates an encoder and a
bounds-checked decoder for the class — straight-line Python, one helper
call per scalar, the way :mod:`dataclasses` generates ``__init__`` — so
the hot path inspects no types and looks no field up by name.

A datagram is ``version (1 B) | class tag (1 B) | fields in declaration
order``; nothing names a field on the wire.  Field encodings:

=====================  ====================================================
annotation             wire form
=====================  ====================================================
``int``                unsigned LEB128 varint, below 2**64 (<= 10 B)
``U64``                8 B little-endian (``config_id``, ``uuid``)
``Bitmap``             varint byte count, then little-endian bytes
``bool``               1 B, ``0`` or ``1``
``float``              8 B IEEE-754 little-endian; NaN is refused
``str``                varint byte count, then UTF-8
``Kind`` / ``Status``  1 B index into the constants of the named class
``Endpoint``           a dotted quad packs as ``0`` + 4 B IPv4 + 2 B port
                       (7 B); any other host as ``str`` host, varint port
``EndpointSet``        varint ``2 * count + plain``, then: a set of dotted
                       quads in numeric order, the first member as 4 B
                       IPv4 + 2 B port big-endian and each other as a
                       varint address delta and a zigzag varint port
                       delta (about 2 B); any other set (``plain`` = 1)
                       as endpoints
``tuple[T, ...]``      varint element count, then the elements
``tuple[A, B]``        the parts, back to back
``Optional[T]``        1 B presence, then ``T`` if present
a registered class     its fields, back to back
a hoisting annotation  a registered class without what it hoists (below)
a tuple of a class     varint ``2 * count + plain``, then the column: of
with a column          dotted quads, the first as 4 B IPv4 + 2 B port
                       big-endian and each later one as a zigzag varint
                       address delta and a zigzag varint port delta from
                       the one before, in element order; of any other
                       hosts (``plain`` = 1), as endpoints; then each
                       element without its column field
=====================  ====================================================

A hoisting annotation, ``Annotated[C, ((field, holder_field), ...),
((field, constant), ...)]``, leaves out each ``field`` of the first tuple,
which the holding message carries once as a ``holder_field`` declared
before the elements, and each ``field`` of the second tuple, which every
element holds at ``constant``: the encoder refuses an element
whose ``field`` differs (it never rewrites one), the decoder fills the
holder's value or the constant in.  A fourth part, an ``Endpoint``
field's name, sends that field of a tuple's elements as one column
ahead of them (a hoisting annotation with a column travels only as the
element of a tuple).  A :class:`repro.core.messages.BatchedAlerts`
is the one holder: its alerts go without the observer and view it names
and without rings (a receiver derives them from its view's topology), a
JOIN alert without its kind (:data:`~repro.core.messages.BatchedJoin`)
and a REMOVE alert without its kind and its empty joiner fields
(:data:`~repro.core.messages.BatchedRemove`): its subject alone.
Each tuple's subjects travel as its column, in the order the alerts were
raised, so a receiver tallies them in that order.

A :class:`repro.core.messages.ProbeAck` names no sender: it is its
config id and its flag, and an observer credits it to the datagram's
source, which every runtime hands the handler as ``src``.

An ``EndpointSet`` (``ViewSnapshot.members``, ``ViewUpdate.members``) is
sorted and distinct in :class:`Endpoint` order both in memory and after
decoding, whatever order the wire uses, so a field aligned with it (the
``uuids``) stays aligned; the encoder refuses an unsorted one.

Every value has exactly one encoding and the decoder refuses the others
(padded varints, a dotted quad sent as a host name, a bitmap with a zero
top byte, an endpoint set out of order, or a set or a column sent plain
when every host is a dotted quad), so ``encode_bytes(decode_bytes(b)) == b`` for every ``b``
that decodes.  :func:`decode_bytes` raises :class:`CodecError` and nothing else:
truncation, trailing bytes, an unknown version or tag, an out-of-range
enum, a count that outruns the buffer and an oversized payload are all
refused before a message object exists.

All message types in :mod:`repro.core.messages` are registered here with
their tags; applications add theirs with :func:`register`, which also
gives the class its simulator sizer.  ``python -m repro.runtime.conformance
--layout`` prints the compiled layout of every registered class.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import socket
import struct
import types
import typing
from typing import Any, Callable, NamedTuple

from repro.core import messages as m
from repro.core.node_id import Endpoint
from repro.sim.network import register_message_classes

__all__ = [
    "MAX_DATAGRAM_BYTES",
    "WIRE_VERSION",
    "CodecError",
    "WireClass",
    "register",
    "registered_classes",
    "wire_classes",
    "encode_bytes",
    "decode_bytes",
]

#: Largest UDP payload an IPv4 datagram can carry (65,535 - 20 - 8).
MAX_DATAGRAM_BYTES = 65_507
#: First byte of every datagram; a format change bumps it.
WIRE_VERSION = 9


class CodecError(ValueError):
    """Raised for unknown types or malformed payloads."""


class WireClass(NamedTuple):
    """The compiled schema of one registered class."""

    name: str
    tag: int
    cls: type
    layout: tuple  # ((field name, encoding label), ...) in wire order
    enc: Callable[[Any, bytearray], None]  # appends the fields, no header
    dec: Callable[[bytes, int], tuple]  # -> (message, next position)
    sample: Any  # a small well-typed instance: the conformance default


_BY_NAME: dict[str, WireClass] = {}
_BY_CLASS: dict[type, WireClass] = {}
_BY_TAG: dict[int, WireClass] = {}

# ------------------------------------------------- helpers of generated code
#
# One ``put_<kind>(value, out)`` / ``get_<kind>(data, pos) -> (value, pos)``
# pair per scalar encoding; generated code is calls to these, laid out
# field by field.

_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _put_uint(value, out) -> None:
    if 0 <= value < 0x80:
        out.append(value)
        return
    if not 0 <= value < 1 << 64:
        raise CodecError(f"int out of varint range: {value}")
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _get_uint(data, pos):
    value = data[pos]
    if value < 0x80:
        return value, pos + 1
    value &= 0x7F
    shift = 7
    while True:
        pos += 1
        byte = data[pos]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            break
        shift += 7
        if shift > 63:
            raise CodecError("varint longer than 10 bytes")
    if byte == 0 or value >> 64:
        raise CodecError("padded or oversized varint")
    return value, pos + 1


def _put_u64(value, out) -> None:
    out += _U64.pack(value)


def _get_u64(data, pos):
    return _U64.unpack_from(data, pos)[0], pos + 8


def _put_bool(value, out) -> None:
    out.append(1 if value else 0)


def _get_bool(data, pos):
    byte = data[pos]
    if byte > 1:
        raise CodecError(f"bool byte {byte}")
    return byte == 1, pos + 1


def _put_chunk(raw, out) -> None:
    _put_uint(len(raw), out)
    out += raw


def _get_chunk(data, pos):
    """A varint byte count and that many bytes."""
    size, pos = _get_uint(data, pos)
    end = pos + size
    if end > len(data):
        raise CodecError("length runs past the end of the datagram")
    return data[pos:end], end


def _put_bitmap(value, out) -> None:
    _put_chunk(value.to_bytes((value.bit_length() + 7) >> 3, "little"), out)


def _get_bitmap(data, pos):
    raw, pos = _get_chunk(data, pos)
    if raw and not raw[-1]:
        raise CodecError("bitmap with a zero top byte")
    return int.from_bytes(raw, "little"), pos


def _put_float(value, out) -> None:
    if value != value:
        raise CodecError("NaN does not cross the wire")
    out += _F64.pack(value)


def _get_float(data, pos):
    (value,) = _F64.unpack_from(data, pos)
    if value != value:
        raise CodecError("NaN float")
    return value, pos + 8


def _put_str(value, out) -> None:
    _put_chunk(value.encode("utf-8"), out)


def _get_str(data, pos):
    raw, pos = _get_chunk(data, pos)
    return raw.decode("utf-8"), pos


def _ipv4(host: str) -> bytes | None:
    """The four address bytes of a canonical dotted quad, else ``None``."""
    try:
        packed = socket.inet_aton(host)
    except (OSError, ValueError):
        return None
    return packed if socket.inet_ntoa(packed) == host else None


def _endpoint_wire(endpoint) -> bytes:
    """Encode an endpoint and keep the bytes on it for the next send."""
    if endpoint.__class__ is not Endpoint:
        raise CodecError(f"expected an Endpoint, got {type(endpoint).__name__}")
    host, port = endpoint.host, endpoint.port
    packed = _ipv4(host)
    if packed is not None:
        wire = b"\x00" + packed + _U16.pack(port)
        key = int.from_bytes(packed, "big") << 16 | port
    elif host and 0 <= port <= 0xFFFF:
        out = bytearray()
        _put_str(host, out)
        _put_uint(port, out)
        wire, key = bytes(out), None
    else:
        raise CodecError(f"no wire form for {endpoint!r}")
    endpoint._wire, endpoint._key = wire, key
    return wire


def _put_endpoint(value, out) -> None:
    try:
        out += value._wire
    except AttributeError:
        out += _endpoint_wire(value)


#: Decoded IPv4 endpoints by their 7 wire bytes.  A cluster names the same
#: few thousand addresses in every datagram, and building an ``Endpoint``
#: costs several times a lookup.  Emptied when full, so hostile traffic
#: cannot grow it without bound.
_ENDPOINTS: dict[bytes, Endpoint] = {}
_ENDPOINTS_MAX = 1 << 14


def _get_endpoint(data, pos):
    if data[pos]:
        host, pos = _get_str(data, pos)
        port, pos = _get_uint(data, pos)
        if port > 0xFFFF or _ipv4(host) is not None:
            raise CodecError(f"non-canonical endpoint {host!r}:{port}")
        return Endpoint(host, port), pos
    wire = data[pos : pos + 7]
    endpoint = _ENDPOINTS.get(wire)
    if endpoint is None:
        if len(wire) != 7:
            raise CodecError("truncated endpoint")
        endpoint = Endpoint(socket.inet_ntoa(wire[1:5]), _U16.unpack_from(wire, 5)[0])
        endpoint._wire = wire
        endpoint._key = int.from_bytes(wire[1:5], "big") << 16 | endpoint.port
        if len(_ENDPOINTS) >= _ENDPOINTS_MAX:
            _ENDPOINTS.clear()
        _ENDPOINTS[wire] = endpoint
    return endpoint, pos + 7


def _keys(endpoints) -> list:
    """The numeric ``address << 16 | port`` of each endpoint, ``None`` for
    a host that is no dotted quad; memoised on the endpoint with its wire."""
    try:
        return [endpoint._key for endpoint in endpoints]
    except AttributeError:
        for endpoint in endpoints:
            _endpoint_wire(endpoint)
        return [endpoint._key for endpoint in endpoints]


def _put_list(endpoints, out, ordered: bool) -> None:
    """Append ``endpoints`` as varint ``2 * count + plain``, then, when every
    host is a dotted quad, the first as 4 B address and 2 B port big-endian
    and each later one as a varint address delta and a zigzag varint port
    delta from the one before it; otherwise (``plain``) the endpoints
    whole.  An ``ordered`` list (a set) goes in numeric order with a
    non-negative address delta; any other keeps its order and zigzags the
    address delta too."""
    keys = _keys(endpoints)
    if None in keys:  # a host that is no dotted quad
        _put_uint(2 * len(keys) + 1, out)
        for endpoint in endpoints:
            out += endpoint._wire
        return
    _put_uint(2 * len(keys), out)
    if not keys:
        return
    if ordered:
        keys.sort()
    last = keys[0]
    out += last.to_bytes(6, "big")
    for key in keys[1:]:
        addr_delta = (key >> 16) - (last >> 16)
        if not ordered:
            addr_delta = addr_delta << 1 if addr_delta >= 0 else ~addr_delta << 1 | 1
        port_delta = (key & 0xFFFF) - (last & 0xFFFF)
        zigzag = port_delta << 1 if port_delta >= 0 else ~port_delta << 1 | 1
        if addr_delta < 0x80 and zigzag < 0x80:
            out += bytes((addr_delta, zigzag))
        else:
            _put_uint(addr_delta, out)
            _put_uint(zigzag, out)
        last = key


def _get_list(data, pos, ordered: bool):
    """The endpoints :func:`_put_list` appended, in wire order."""
    head, pos = _get_uint(data, pos)
    count = head >> 1
    if count > len(data) - pos:
        raise CodecError(f"count {count} outruns the datagram")
    members = []
    if head & 1:
        plain = False
        for _ in range(count):
            plain = plain or data[pos] != 0
            endpoint, pos = _get_endpoint(data, pos)
            members.append(endpoint)
        if not plain:
            raise CodecError("endpoints of dotted quads sent plain")
        if ordered and not all(map(operator.lt, members, members[1:])):
            raise CodecError("endpoint set not sorted and distinct")
        return members, pos
    addr = port = 0
    for i in range(count):
        if i:
            addr_delta, zigzag = data[pos], data[pos + 1]
            if addr_delta < 0x80 and zigzag < 0x80:
                pos += 2
            else:
                addr_delta, pos = _get_uint(data, pos)
                zigzag, pos = _get_uint(data, pos)
            port_delta = -(zigzag >> 1) - 1 if zigzag & 1 else zigzag >> 1
            if ordered:
                if not addr_delta and port_delta <= 0:
                    raise CodecError("endpoint deltas not increasing")
            elif addr_delta & 1:
                addr_delta = -(addr_delta >> 1) - 1
            else:
                addr_delta >>= 1
            addr += addr_delta
            port += port_delta
            if addr >> 32 or not 0 <= port <= 0xFFFF:
                raise CodecError(f"endpoint out of range: {addr:#x}:{port}")
        else:
            first = data[pos : pos + 6]
            if len(first) != 6:
                raise CodecError("truncated first endpoint")
            pos += 6
            addr, port = divmod(int.from_bytes(first, "big"), 0x10000)
        # The 7-byte wire form: 0, the address big-endian, the port little-endian.
        wire = (addr << 16 | (port & 0xFF) << 8 | port >> 8).to_bytes(7, "big")
        members.append(_ENDPOINTS.get(wire) or _get_endpoint(wire, 0)[0])
    if ordered:
        members.sort()
    return members, pos


def _put_endpoints(value, out) -> None:
    """Append the wire form of an endpoint set (see the module docstring)."""
    if not all(map(operator.lt, value, value[1:])):
        raise CodecError("endpoint set not sorted and distinct")
    _put_list(value, out, True)


def _get_endpoints(data, pos):
    members, pos = _get_list(data, pos, True)
    return tuple(members), pos


def _put_column(value, out) -> None:
    """Append the subjects of a tuple of alerts, in the order raised."""
    _put_list(value, out, False)


def _get_column(data, pos):
    return _get_list(data, pos, False)


#: Globals of every generated function: the helpers above, then each
#: registered class with its ``enc_<Name>`` / ``dec_<Name>``, each enum's
#: tables and each union's helper pair.
_GENERATED: dict[str, Any] = {"CodecError": CodecError}
for _helper in (
    _put_uint, _get_uint, _put_u64, _get_u64, _put_bool, _get_bool,
    _put_bitmap, _get_bitmap, _put_float, _get_float, _put_str, _get_str,
    _put_endpoint, _get_endpoint, _put_endpoints, _get_endpoints,
    _put_column, _get_column,
):
    _GENERATED[_helper.__name__[1:]] = _helper
del _helper

# ----------------------------------------------------------- code generation


class _Source:
    """The body of one generated function, line by line."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._locals = 0
        self.fields: dict[str, str] = {}  # the message's fields so far -> locals

    def emit(self, depth: int, *lines: str) -> None:
        self.lines.extend("    " * depth + line for line in lines)

    def local(self) -> str:
        self._locals += 1
        return f"v{self._locals}"


class WireType(NamedTuple):
    """One field type of the schema, as two code emitters.

    ``enc(src, depth, v)`` emits statements appending local ``v`` to
    ``out``; ``dec(src, depth)`` emits statements that read from ``data``
    at ``pos``, advance ``pos``, and returns the local holding the value.
    ``label`` is the layout-table text and ``sample`` a small well-typed
    value.  ``column`` names the field of an element that its enclosing
    tuple sends as one column: ``enc`` leaves it out and ``dec`` takes
    the local holding it as a third argument.
    """

    label: str
    enc: Callable[[_Source, int, str], None]
    dec: Callable[..., str]
    sample: Any
    column: str = ""


def _call(label: str, helper: str, sample: Any) -> WireType:
    """A type whose work is done by the ``put_`` / ``get_`` helper pair."""

    def enc(src, depth, v) -> None:
        src.emit(depth, f"put_{helper}({v}, out)")

    def dec(src, depth) -> str:
        v = src.local()
        src.emit(depth, f"{v}, pos = get_{helper}(data, pos)")
        return v

    return WireType(label, enc, dec, sample)


_ENDPOINT = _call("endpoint", "endpoint", Endpoint("x"))
_ENDPOINT_LAYOUT = (("host", "str, or 0 + IPv4 4 B"), ("port", "varint, or u16"))
_SCALARS: dict[Any, WireType] = {
    int: _call("varint", "uint", 1),
    m.U64: _call("u64", "u64", 1),
    m.Bitmap: _call("bitmap", "bitmap", 1),
    bool: _call("bool", "bool", False),
    float: _call("f64", "float", 1.0),
    str: _call("str", "str", "x"),
    Endpoint: _ENDPOINT,
    m.EndpointSet: _call("endpoint set", "endpoints", ()),
}


@functools.cache
def _enum(constants: type) -> WireType:
    values = tuple(v for k, v in vars(constants).items() if not k.startswith("_"))
    name = constants.__name__
    index, table = f"{name}_index", f"{name}_values"
    _GENERATED[index] = {value: i for i, value in enumerate(values)}
    _GENERATED[table] = values

    def enc(src, depth, v) -> None:
        src.emit(depth, f"out.append({index}[{v}])")

    def dec(src, depth) -> str:
        v = src.local()
        src.emit(
            depth,
            f"{v} = data[pos]",
            f"if {v} >= {len(values)}: raise CodecError('{name} index %d' % {v})",
            f"{v} = {table}[{v}]",
            "pos += 1",
        )
        return v

    return WireType(f"enum {name}", enc, dec, values[0])


def _sequence(item: WireType) -> WireType:
    if item.column:
        return _columned(item)

    def enc(src, depth, v) -> None:
        element = src.local()
        src.emit(depth, f"put_uint(len({v}), out)", f"for {element} in {v}:")
        item.enc(src, depth + 1, element)

    def dec(src, depth) -> str:
        size, v = src.local(), src.local()
        # Every wire type takes at least one byte.
        src.emit(
            depth,
            f"{size}, pos = get_uint(data, pos)",
            f"if {size} > len(data) - pos:",
            f"    raise CodecError('count %d outruns the datagram' % {size})",
            f"{v} = []",
            f"for _ in range({size}):",
        )
        element = item.dec(src, depth + 1)
        src.emit(depth + 1, f"{v}.append({element})")
        src.emit(depth, f"{v} = tuple({v})")
        return v

    return WireType(f"tuple<{item.label}>", enc, dec, ())


def _columned(item: WireType) -> WireType:
    """A tuple whose elements' ``item.column`` endpoints travel first, as
    one endpoint column in element order (its head is the tuple's count),
    and the rest of each element after it."""
    column = item.column

    def enc(src, depth, v) -> None:
        element = src.local()
        src.emit(
            depth,
            f"put_column([{element}.{column} for {element} in {v}], out)",
            f"for {element} in {v}:",
        )
        item.enc(src, depth + 1, element)

    def dec(src, depth) -> str:
        values, value, v = src.local(), src.local(), src.local()
        src.emit(
            depth,
            f"{values}, pos = get_column(data, pos)",
            f"{v} = []",
            f"for {value} in {values}:",
        )
        element = item.dec(src, depth + 1, value)
        src.emit(depth + 1, f"{v}.append({element})")
        src.emit(depth, f"{v} = tuple({v})")
        return v

    return WireType(f"{column} column, tuple<{item.label}>", enc, dec, ())


def _record(parts: tuple) -> WireType:
    """A fixed-shape tuple: its parts back to back."""

    def enc(src, depth, v) -> None:
        names = [src.local() for _ in parts]
        src.emit(depth, f"{', '.join(names)}, = {v}")
        for part, name in zip(parts, names):
            part.enc(src, depth, name)

    def dec(src, depth) -> str:
        names = [part.dec(src, depth) for part in parts]
        v = src.local()
        src.emit(depth, f"{v} = ({', '.join(names)},)")
        return v

    label = "(" + ", ".join(part.label for part in parts) + ")"
    return WireType(label, enc, dec, tuple(part.sample for part in parts))


def _optional(item: WireType) -> WireType:
    def enc(src, depth, v) -> None:
        src.emit(depth, f"if {v} is None: out.append(0)", "else:", "    out.append(1)")
        item.enc(src, depth + 1, v)

    def dec(src, depth) -> str:
        v = src.local()
        src.emit(
            depth,
            f"{v} = data[pos]",
            "pos += 1",
            f"if {v} == 0: {v} = None",
            f"elif {v} != 1: raise CodecError('presence byte %d' % {v})",
            "else:",
        )
        src.emit(depth + 1, f"{v} = {item.dec(src, depth + 1)}")
        return v

    return WireType(f"optional<{item.label}>", enc, dec, None)


def _nested(entry: WireClass) -> WireType:
    """A registered class as a field: its fields, no tag."""
    name = entry.name

    def enc(src, depth, v) -> None:
        src.emit(depth, f"enc_{name}({v}, out)")

    def dec(src, depth) -> str:
        v = src.local()
        src.emit(depth, f"{v}, pos = dec_{name}(data, pos)")
        return v

    return WireType(name, enc, dec, entry.sample)


def _hoisted(cls: type, pairs: tuple, constants: tuple, column: str = "") -> WireType:
    """A registered class without the fields its holder carries once, the
    fields every element holds at one value and the endpoint field its
    tuple sends as a column.

    ``pairs`` are ``(field, holder_field)``: the holder's value is read
    from the local its generated function already bound it to.
    ``constants`` are ``(field, value)``, ``value`` a literal.
    """
    name = cls.__name__
    hints = typing.get_type_hints(cls, include_extras=True)
    names = tuple(f.name for f in dataclasses.fields(cls))
    if column and hints.get(column) is not Endpoint:
        raise CodecError(f"{name}.{column} is no Endpoint to send as a column")
    shared, pinned = dict(pairs), dict(constants)
    parts = tuple(
        (n, _wire_type(hints[n]))
        for n in names
        if n not in shared and n not in pinned and n != column
    )
    held = ", ".join(f"{n}={value!r}" for n, value in constants)

    def holder(src, field) -> str:
        try:
            return src.fields[field]
        except KeyError:
            raise CodecError(f"no {field} declared before the {name}s") from None

    def enc(src, depth, v) -> None:
        test = " or ".join(f"{v}.{n} != {holder(src, h)}" for n, h in pairs)
        differs = f"{name} {' or '.join(shared)} differs from its holder"
        src.emit(depth, f"if {test}: raise CodecError({differs!r})")
        test = " or ".join(f"{v}.{n} != {value!r}" for n, value in constants)
        differs = f"{name} does not hold {held}"
        src.emit(depth, f"if {test}: raise CodecError({differs!r})")
        for n, wire in parts:
            part = src.local()
            src.emit(depth, f"{part} = {v}.{n}")
            wire.enc(src, depth, part)

    def dec(src, depth, given=None) -> str:
        values = {n: wire.dec(src, depth) for n, wire in parts}
        values.update((n, holder(src, h)) for n, h in pairs)
        values.update((n, repr(value)) for n, value in constants)
        if column:
            values[column] = given
        v = src.local()
        src.emit(depth, f"{v} = {name}({', '.join(values[n] for n in names)})")
        return v

    without = ", ".join([*shared, column] if column else shared)
    label = f"{name} without {without}; {held}"
    return WireType(label, enc, dec, _BY_CLASS[cls].sample, column)


def _wire_type(annotation: Any, element: bool = False) -> WireType:
    """The wire type of one resolved field annotation (``element``: of a
    tuple's elements, the one place a column can travel)."""
    scalar = _SCALARS.get(annotation)
    if scalar is not None:
        return scalar
    if annotation in _BY_CLASS:
        return _nested(_BY_CLASS[annotation])
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Annotated and isinstance(args[1], type):
        return _enum(args[1])
    if origin is typing.Annotated and args[0] in _BY_CLASS:
        hoisted = _hoisted(*args)
        if hoisted.column and not element:
            raise CodecError(f"a {hoisted.column} column travels only in a tuple")
        return hoisted
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence(_wire_type(args[0], element=True))
    if origin is tuple and args:
        return _record(tuple(_wire_type(arg) for arg in args))
    if origin in (typing.Union, types.UnionType):
        members = tuple(arg for arg in args if arg is not type(None))
        if len(members) == 1:
            return _optional(_wire_type(members[0]))
    raise CodecError(f"no wire encoding for annotation {annotation!r}")


def _generate(cls: type, fields: tuple) -> tuple:
    """Compile ``enc_<Name>(msg, out)`` and ``dec_<Name>(data, pos)``."""
    name = cls.__name__
    _GENERATED[name] = cls
    enc, dec = _Source(), _Source()
    enc.emit(0, f"def enc_{name}(msg, out):")
    dec.emit(0, f"def dec_{name}(data, pos):")
    for field, wire in fields:
        v = enc.local()
        enc.emit(1, f"{v} = msg.{field}")
        wire.enc(enc, 1, v)
        enc.fields[field] = v
        dec.fields[field] = wire.dec(dec, 1)
    dec.emit(1, f"return {name}({', '.join(dec.fields.values())}), pos")
    source = "\n".join(enc.lines + dec.lines)
    exec(compile(source, f"<wire codec for {name}>", "exec"), _GENERATED)
    return _GENERATED[f"enc_{name}"], _GENERATED[f"dec_{name}"]


# ---------------------------------------------------------------- registry


def register(cls: type, tag: int) -> type:
    """Compile ``cls`` for wire transport under a stable one-byte ``tag``.

    The class's field annotations are its schema (see the module
    docstring); a class used as a field type must be registered before
    the class that holds it.  Registration also gives ``cls`` its
    simulator sizer, so one call covers the live and the simulated wire.
    Re-registering the same class under the same tag is a no-op.
    """
    if cls is not Endpoint and not (
        dataclasses.is_dataclass(cls) and isinstance(cls, type)
    ):
        raise CodecError(f"{cls!r} is not a dataclass")
    known = _BY_CLASS.get(cls)
    if known is not None and known.tag == tag:
        return cls
    name = cls.__name__
    if not 0 < tag < 256:
        raise CodecError(f"{name}: tag {tag} does not fit one byte")
    if known is not None or name in _BY_NAME or tag in _BY_TAG:
        raise CodecError(f"{name} / tag {tag} collides with a registered class")
    if cls is Endpoint:
        entry = WireClass(
            name, tag, cls, _ENDPOINT_LAYOUT, _put_endpoint, _get_endpoint, _ENDPOINT.sample
        )
    else:
        hints = typing.get_type_hints(cls, include_extras=True)
        declared = dataclasses.fields(cls)
        if not declared:
            raise CodecError(f"{name} has no fields to put on the wire")
        try:
            fields = tuple((f.name, _wire_type(hints[f.name])) for f in declared)
        except CodecError as exc:
            raise CodecError(f"{name}: {exc}") from None
        missing = dataclasses.MISSING
        required = {
            f.name
            for f in declared
            if f.default is missing and f.default_factory is missing
        }
        sample = cls(**{n: wire.sample for n, wire in fields if n in required})
        layout = tuple((n, wire.label) for n, wire in fields)
        entry = WireClass(name, tag, cls, layout, *_generate(cls, fields), sample)
    _BY_NAME[name] = _BY_CLASS[cls] = _BY_TAG[tag] = entry
    register_message_classes(cls)
    return cls


def registered_classes() -> dict[str, type]:
    """Snapshot of the wire registry: registered name -> dataclass.

    The conformance suite iterates this to round-trip an exemplar of
    every class and to diff the codec registry against the simulator's
    message sizer (:mod:`repro.sim.network`).
    """
    return {name: entry.cls for name, entry in _BY_NAME.items()}


def wire_classes() -> dict[str, WireClass]:
    """Snapshot of the compiled schemas: registered name -> schema."""
    return dict(_BY_NAME)


#: Tags of the protocol vocabulary.  A tag is forever: retire one with its
#: class, never reuse it.  Applications register from 0x40 upwards.
#: A class used as a field type comes before the class that holds it.
#: Retired: 0x0B, the delta-encoded join answer; 0x15 and 0x16, the
#: epidemic relay's envelope and bundle.
_CORE_TAGS = (
    (0x01, Endpoint),
    (0x02, m.Change),
    (0x03, m.Probe),
    (0x04, m.ProbeAck),
    (0x05, m.Alert),
    (0x06, m.BatchedAlerts),
    (0x07, m.PreJoinRequest),
    (0x08, m.PreJoinResponse),
    (0x09, m.JoinRequest),
    (0x0A, m.ViewSnapshot),
    (0x0C, m.JoinResponse),
    (0x0D, m.LeaveNotification),
    (0x0E, m.VoteBundle),
    (0x0F, m.VotePull),
    (0x10, m.Decision),
    (0x11, m.Phase1a),
    (0x12, m.Phase1b),
    (0x13, m.Phase2a),
    (0x14, m.Phase2b),
    (0x17, m.ViewProbe),
    (0x18, m.ViewUpdate),
)
for _tag, _cls in _CORE_TAGS:
    register(_cls, _tag)
del _tag, _cls

# ------------------------------------------------------------ entry points

#: What generated encoders raise on an ill-typed message object.
_ENCODE_ERRORS = (TypeError, AttributeError, KeyError, ValueError, OverflowError, struct.error)
#: What generated decoders raise on truncated or undecodable bytes.
_DECODE_ERRORS = (IndexError, struct.error, UnicodeDecodeError)


def encode_bytes(msg: Any) -> bytes:
    """The datagram payload for a registered message."""
    entry = _BY_CLASS.get(msg.__class__)
    if entry is None:
        raise CodecError(f"unregistered message type: {type(msg).__name__}")
    out = bytearray((WIRE_VERSION, entry.tag))
    try:
        entry.enc(msg, out)
    except CodecError as exc:
        raise CodecError(f"{entry.name}: {exc}") from None
    except _ENCODE_ERRORS as exc:
        raise CodecError(f"{entry.name}: ill-typed field ({exc!r})") from exc
    return bytes(out)


def decode_bytes(data: bytes) -> Any:
    """The message a datagram payload carries; :class:`CodecError` if none."""
    if len(data) > MAX_DATAGRAM_BYTES:
        raise CodecError(f"{len(data)} bytes exceed a UDP payload")
    try:
        if data[0] != WIRE_VERSION:
            raise CodecError(f"unknown wire version {data[0]}")
        entry = _BY_TAG.get(data[1])
        if entry is None:
            raise CodecError(f"unknown class tag {data[1]}")
        msg, pos = entry.dec(data, 2)
    except _DECODE_ERRORS as exc:
        raise CodecError(f"truncated or malformed datagram: {exc!r}") from exc
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after {entry.name}")
    return msg
