"""Simulated datagram network with fault injection and byte accounting.

The network delivers messages between registered endpoints with a sampled
one-way latency, subject to the fault rules installed (see
:mod:`repro.sim.faults`).  Every send/receive is accounted per endpoint in
a packed series of bytes per whole second, which is how the Table 2
bandwidth reproduction measures mean/p99/max KB/s per process.

Semantics are datagram-like (no connections, no delivery guarantee, no
ordering guarantee across messages — latency sampling can reorder), matching
the UDP paths Rapid uses for alert fan-outs and consensus vote counting.
"""

from __future__ import annotations

import dataclasses
import math
import socket
from array import array
from typing import Any, Callable, Optional, Sequence

from repro.core.messages import (
    AlertKind,
    BatchedAlerts,
    ViewSnapshot,
    VoteBundle,
    VotePull,
)
from repro.core.node_id import Endpoint
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.faults import Delay, Duplicate, FaultRule, Loss, Reorder
from repro.sim.rng import child_rng
from repro.sim.latency import LanLatency, LatencyModel

__all__ = ["Network", "wire_size", "register_message_classes"]

_HEADER_BYTES = 28  # IP + UDP header estimate applied to every message.


def wire_size(msg: Any) -> int:
    """The simulator's charge for one datagram: a 28-byte IP + UDP header
    plus a structural estimate of the payload.

    Every protocol is sized by the same rule, and the estimate is kept
    an upper bound on the datagram :mod:`repro.runtime.codec` writes
    (``tests/test_codec.py`` checks that for every message a simulated
    run sends).  Most parts are the generic walk: dataclasses walked
    field by field, strings and containers at their length plus two,
    numbers at 8 B and an endpoint at 4 B plus its host's length (or its
    codec form, where a host of 128 B or more makes that longer).  A vote
    bitmap is charged its byte width (no less than 8 B), and a batch's
    alerts without what the batch names once and what their tuple pins.
    One part follows the codec byte for byte: the subjects of each tuple
    of a :class:`~repro.core.messages.BatchedAlerts` whose hosts are all
    dotted quads, charged their delta-coded column (:func:`_column_size`).

    Not memoised on the message object, except for the shared
    :class:`~repro.core.messages.ViewSnapshot`: a message sent to many
    (a probe tick's one ``Probe``, an alert batch) goes through
    :meth:`Network.broadcast`, which sizes it once for all copies, and
    most other messages are sent once.
    """
    return _HEADER_BYTES + _payload_size(msg)


def _container_size(value) -> int:
    return 2 + sum(_payload_size(item) for item in value)


def _varint_size(value: int) -> int:
    """The bytes of ``value`` as an unsigned LEB128 varint."""
    return 1 if value < 0x80 else (value.bit_length() + 6) // 7


def _endpoint_size(value) -> int:
    """4 B plus the host's length, but never less than the codec's form
    of a host name: its length and its bytes, then the port, as varints
    (a host of 128 B or more with a port of 16384 or more needs 5 B)."""
    host = len(value.host)
    if host < 0x80:
        return 4 + host
    return max(4 + host, _varint_size(host) + host + _varint_size(value.port))


#: Exact-type sizing dispatch.  Message sizing walks the same dozen types
#: millions of times per run; one dict lookup replaces an isinstance
#: chain, and dataclass types get a compiled walker on first sight (see
#: :func:`_compile_sizer`).
_SIZERS: dict[type, Callable[[Any], int]] = {
    type(None): lambda value: 1,
    bool: lambda value: 1,
    int: lambda value: 8,
    float: lambda value: 8,
    str: lambda value: 2 + len(value),
    bytes: lambda value: 2 + len(value),
    Endpoint: _endpoint_size,
    tuple: _container_size,
    list: _container_size,
    set: _container_size,
    frozenset: _container_size,
    dict: lambda value: 2
    + sum(_payload_size(k) + _payload_size(v) for k, v in value.items()),
}


def _vote_bundle_size(value) -> int:
    """Size the fields a VoteBundle and a VotePull share, bitmaps by width.

    Vote bitmaps are arbitrary-precision integers — one bit per membership
    index — so at n=2000 a dense bitmap is ~250 wire bytes, not the flat 8
    the generic number rule would charge.  Delta bundles (sparse bitmaps)
    correspondingly shrink with their true bit width.  Small-cluster
    bundles (bit_length <= 64) size identically to the generic rule.  A
    cut is named by its 8-byte id, so the rest is independent of cut size.
    """
    total = 2 + _payload_size(value.sender) + 8  # fields + config_id
    total += 2 + 8 * len(value.ids)
    total += 2 + sum(max(8, (b.bit_length() + 7) // 8) for b in value.bitmaps)
    return total


# Each class adds its on-request field: the bodies shipped, the ids wanted.
_SIZERS[VoteBundle] = lambda value: (
    _vote_bundle_size(value) + _container_size(value.bodies)
)
_SIZERS[VotePull] = lambda value: _vote_bundle_size(value) + 2 + 8 * len(value.want)


#: What the generic walk charges the fields a batched alert leaves out
#: beyond its observer and view: the kind and the empty ``ring_numbers`` of
#: a JOIN (8 B); the kind, the empty ``ring_numbers``, the zero
#: ``joiner_uuid`` and the empty ``metadata`` of a REMOVE (20 B).
_JOIN_HOISTS = _SIZERS[str](AlertKind.JOIN) + _container_size(())
_REMOVE_HOISTS = (
    _SIZERS[str](AlertKind.REMOVE) + 2 * _container_size(()) + _SIZERS[int](0)
)


def _ipv4_address(host: str) -> Optional[int]:
    """The 32-bit address of a canonical dotted quad, else ``None`` (the
    codec's rule for packing a host as 4 bytes)."""
    try:
        packed = socket.inet_aton(host)
    except (OSError, ValueError):
        return None
    return int.from_bytes(packed, "big") if socket.inet_ntoa(packed) == host else None


def _zigzag_size(delta: int) -> int:
    """The bytes of ``delta`` as a zigzag varint."""
    zigzag = delta << 1 if delta >= 0 else ~delta << 1 | 1
    return 1 if zigzag < 0x80 else (zigzag.bit_length() + 6) // 7


def _column_size(alerts) -> Optional[int]:
    """What the codec's column of the subjects of a tuple of batched
    alerts takes after the tuple's count, when every host is a dotted
    quad: 6 B for the first subject, then for each later one a zigzag
    varint address delta and a zigzag varint port delta from the one
    before it, in the order the alerts were raised.  ``None`` otherwise:
    the codec then sends the subjects whole."""
    size = 0
    last = None
    for alert in alerts:
        host, port = alert.subject
        addr = _ipv4_address(host)
        if addr is None:
            return None
        if last is None:
            size = 6
        else:
            size += _zigzag_size(addr - last[0]) + _zigzag_size(port - last[1])
        last = addr, port
    return size


def _batched_alerts_size(value) -> int:
    """Size a BatchedAlerts in its wire form: the batch names its sender and
    ``config_id`` once, and each alert goes without the ``observer`` (the
    sender) and the 8-byte ``config_id`` the generic walk charges it, and
    without its kind (its tuple names it) and its empty ``ring_numbers``;
    a REMOVE alert also goes without its empty ``joiner_uuid`` and
    ``metadata``.  A tuple whose
    subjects travel as a delta-coded column (:func:`_column_size`) is
    charged that column instead of the generic walk's endpoints."""
    sender = _payload_size(value.sender)
    joins, removes = value.joins, value.removes
    hoisted = (len(joins) + len(removes)) * (sender + 8)
    hoisted += len(joins) * _JOIN_HOISTS + len(removes) * _REMOVE_HOISTS
    total = 2 + sender + 8 + _container_size(joins) + _container_size(removes) - hoisted
    for alerts in (joins, removes):
        column = _column_size(alerts)
        if column is not None:
            total += column - sum(_payload_size(alert.subject) for alert in alerts)
    return total


_SIZERS[BatchedAlerts] = _batched_alerts_size


def _view_snapshot_size(value) -> int:
    """Size a ViewSnapshot once and memoize the result on the object.

    Join responses intern one snapshot per configuration (see
    :meth:`repro.core.membership.AdmissionDesk.join_response`): during a mass
    bootstrap the same O(N)-sized snapshot is sent to every joiner admitted
    in the view, so walking its members tuple per response would make
    wire sizing the dominant cost of the join path (~10k responses × ~25 KB
    at n=1000).  The structural walk runs once per interned snapshot; every
    later response sizes in O(1) via the cached value.  Caching on the
    (frozen, shared) snapshot object keys the memo off the interned
    identity — a distinct snapshot never reuses a stale size.
    """
    cached = value.__dict__.get("_wire_size")
    if cached is None:
        cached = (
            2
            + _container_size(value.members)
            + _container_size(value.uuids)
            + 8  # seq
            + _container_size(value.metadata)
        )
        object.__setattr__(value, "_wire_size", cached)
    return cached


_SIZERS[ViewSnapshot] = _view_snapshot_size


def _payload_size(value: Any) -> int:
    sizer = _SIZERS.get(value.__class__)
    if sizer is None:
        sizer = _compile_sizer(value.__class__)
    return sizer(value)


def _compile_sizer(cls: type) -> Callable[[Any], int]:
    """Compile, register and return the field-walking sizer of a dataclass.

    Runs once per class: from :func:`register_message_classes` for the wire
    vocabulary, on first sight for the dataclasses nested inside it.  Any
    other type (subclasses of the builtins included, which exact-type
    dispatch deliberately misses) has no wire form and is refused rather
    than charged a guess.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"only dataclass message types can be sized, got {cls!r}")
    names = tuple(f.name for f in dataclasses.fields(cls))

    def sizer(v, _names=names) -> int:
        total = 2
        for name in _names:
            total += _payload_size(getattr(v, name))
        return total

    _SIZERS[cls] = sizer
    return sizer


def register_message_classes(*classes: type) -> None:
    """Pre-register exact-type sizers for dataclass message classes.

    Protocol and application modules call this at import time for their
    wire vocabularies (``HttpRequest``, ``TsRequest``, ``WriteRequest``,
    …), so ``messages.by_class`` byte accounting covers their traffic
    from the first message, with no first-encounter compilation in the
    hot send path.  Types already in the dispatch table (including ones
    with hand-tuned sizers like ``VoteBundle``) are left untouched.
    """
    for cls in classes:
        if cls not in _SIZERS:
            _compile_sizer(cls)


class Network:
    """Message fabric connecting simulated processes.

    Parameters
    ----------
    engine:
        The discrete-event engine driving delivery.
    seed:
        Root seed; latency and loss decisions derive child generators.
    latency:
        One-way delay model: :class:`LanLatency` in every run, a
        :class:`~repro.sim.latency.ConstantLatency` in tests that need
        exact timing.
    metrics:
        Registry receiving the fabric-wide ``net.*`` counters; a private
        enabled registry is created when none is supplied, so traffic
        accounting is always on.
    """

    def __init__(
        self,
        engine: Engine,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.seed = seed
        self.latency = latency or LanLatency()
        self._handlers: dict[Endpoint, Callable[[Endpoint, Any], None]] = {}
        self._crashed: set[Endpoint] = set()
        # One rule list per effect, picked by the rule's type.  Loss, delay
        # and the adversary (Duplicate, then Reorder, per message) draw
        # from three separate RNG streams: the drop loop never sees a
        # delay rule, and a jitter or adversary draw never perturbs loss
        # or latency sampling, so installing one cannot shift the
        # deterministic trace of unrelated traffic.
        self._loss_rules: list[Loss] = []
        self._delay_rules: list[Delay] = []
        self._duplicate_rules: list[Duplicate] = []
        self._reorder_rules: list[Reorder] = []
        self._rule_lists: dict[type, list] = {
            Loss: self._loss_rules,
            Delay: self._delay_rules,
            Duplicate: self._duplicate_rules,
            Reorder: self._reorder_rules,
        }
        self._latency_rng = child_rng(seed, "network", "latency")
        self._loss_rng = child_rng(seed, "network", "loss")
        self._delay_rng = child_rng(seed, "network", "delay")
        self._adversary_rng = child_rng(seed, "network", "adversary")
        #: Bytes sent / received per whole virtual second: one packed
        #: ``array('q')`` per endpoint and direction, indexed by the
        #: second (8 B per endpoint-second; seconds before the first
        #: traffic read as zero).  Touched on every send and delivery, so
        #: an update is one dict lookup and one indexed add.
        self.tx_per_second: dict[Endpoint, array] = {}
        self.rx_per_second: dict[Endpoint, array] = {}
        #: Messages accepted for transmission per message class name;
        #: deterministic, harvested into benchmark reports as
        #: ``messages.by_class``.
        self.class_counts: dict[str, int] = {}
        #: Wire bytes accepted for transmission per message class, the
        #: byte-weighted companion of :attr:`class_counts` — how wins
        #: like "join responses shrank 10x" are attributable per class.
        self.class_bytes: dict[str, int] = {}
        #: Fabricated duplicate deliveries per message class (adversary
        #: rules); the per-class companion of ``net.messages_duplicated``.
        self.duplicate_counts: dict[str, int] = {}
        #: Held-and-released (reordered) deliveries per message class;
        #: the per-class companion of ``net.messages_reordered``.
        self.reorder_counts: dict[str, int] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        net = self.metrics.scope("net")
        self._sent_counter = net.counter("messages_sent")
        self._delivered_counter = net.counter("messages_delivered")
        self._dropped_counter = net.counter("messages_dropped")
        self._tx_bytes_counter = net.counter("bytes_sent")
        self._rx_bytes_counter = net.counter("bytes_received")
        self._duplicated_counter = net.counter("messages_duplicated")
        self._reordered_counter = net.counter("messages_reordered")

    @property
    def sent_messages(self) -> int:
        """Messages accepted for transmission (before loss/crash drops)."""
        return self._sent_counter.value

    @property
    def dropped_messages(self) -> int:
        """Messages lost to crashes, fault rules, or missing handlers."""
        return self._dropped_counter.value

    @property
    def delivered_messages(self) -> int:
        """Messages handed to a live recipient handler."""
        return self._delivered_counter.value

    @property
    def sent_bytes(self) -> int:
        """Total wire bytes accepted for transmission across endpoints."""
        return self._tx_bytes_counter.value

    @property
    def received_bytes(self) -> int:
        """Total wire bytes delivered to live handlers across endpoints."""
        return self._rx_bytes_counter.value

    def rng_for(self, *scope: object):
        """A seeded RNG stream derived from this network's root seed.

        Callers needing auxiliary randomness (e.g. bootstrap stagger) get
        an independent child generator instead of borrowing the private
        loss/latency streams, so their draws never perturb fault sampling.
        """
        return child_rng(self.seed, "network", *scope)

    # ------------------------------------------------------------------ setup

    def register(
        self, addr: Endpoint, handler: Callable[[Endpoint, Any], None]
    ) -> None:
        """Attach a message handler for ``addr`` (its "socket").

        Registering does not revive a crashed endpoint: only
        :meth:`recover` does, so a process that attaches a second handler
        (an app co-hosted on a membership agent) stays down if it is down.
        """
        self._handlers[addr] = handler

    def add_rule(self, rule: FaultRule) -> None:
        """Install a fault rule on its effect's list.

        Every rule is bounded by its own window, so none is ever removed.
        """
        self._rule_lists[type(rule)].append(rule)

    # ----------------------------------------------------------------- faults

    def crash(self, addr: Endpoint) -> None:
        """Fail-stop ``addr``: it neither sends nor receives from now on."""
        self._crashed.add(addr)

    def recover(self, addr: Endpoint) -> None:
        """Undo a crash (the process resumes with whatever state it had)."""
        self._crashed.discard(addr)

    # -------------------------------------------------------------- messaging

    def send(self, src: Endpoint, dst: Endpoint, msg: Any) -> None:
        """Send ``msg`` from ``src`` to ``dst`` with loss/latency applied."""
        if src in self._crashed:
            return
        size = wire_size(msg)
        key = msg.__class__.__name__
        self._account_tx(src, key, size, 1)
        self._route(src, dst, msg, size, key)

    def broadcast(self, src: Endpoint, dsts: Sequence[Endpoint], msg: Any) -> None:
        """Fan one message out from ``src`` to every endpoint in ``dsts``.

        This is :meth:`send` in a loop: the message is sized and its
        transmit accounted once, then every copy takes the per-recipient
        path of a unicast — its own crash and drop-rule checks, its own
        latency draw, delay and adversary rules, and its own delivery
        event — drawing from the RNG streams in the order the loop would.
        """
        if src in self._crashed or not dsts:
            return
        size = wire_size(msg)
        key = msg.__class__.__name__
        self._account_tx(src, key, size, len(dsts))
        for dst in dsts:
            self._route(src, dst, msg, size, key)

    def _route(
        self, src: Endpoint, dst: Endpoint, msg: Any, size: int, key: str
    ) -> None:
        """Drop, delay and post the delivery of one copy already accounted sent."""
        if dst in self._crashed:
            self._dropped_counter.inc()
            return
        rules = self._loss_rules
        if rules:
            now = self.engine.now
            for rule in rules:
                if rule.should_drop(src, dst, now, self._loss_rng):
                    self._dropped_counter.inc()
                    return
        delay = self.latency.sample(self._latency_rng, size)
        if self._delay_rules:
            now = self.engine.now
            for rule in self._delay_rules:
                delay += rule.added_delay(src, dst, now, self._delay_rng)
        if self._duplicate_rules or self._reorder_rules:
            delay += self._apply_adversary(src, dst, msg, size, key)
        self.engine.post(delay, self._deliver, src, dst, msg, size)

    def _apply_adversary(
        self, src: Endpoint, dst: Endpoint, msg: Any, size: int, key: str
    ) -> float:
        """Run adversary rules over one (src, dst) delivery.

        Returns the extra hold delay reorder rules impose on the original
        copy, and posts fabricated duplicate deliveries directly (each with
        a fresh latency sample so copies interleave with real traffic).
        All draws come from the dedicated adversary RNG stream, so the
        loss/latency/delay draws of every message are byte-identical with
        and without an adversary installed.  Duplicates count as delivered
        (receive accounting happens in ``_deliver``), never as sent — the
        fabric fabricated them, no process paid transmit cost.
        """
        rng = self._adversary_rng
        now = self.engine.now
        for rule in self._duplicate_rules:
            copies = rule.extra_copies(src, dst, now, rng)
            if copies:
                self._duplicated_counter.inc(copies)
                self.duplicate_counts[key] = (
                    self.duplicate_counts.get(key, 0) + copies
                )
                for _ in range(copies):
                    self.engine.post(
                        self.latency.sample(rng, size),
                        self._deliver,
                        src,
                        dst,
                        msg,
                        size,
                    )
        extra = 0.0
        for rule in self._reorder_rules:
            held = rule.hold_delay(src, dst, now, rng)
            if held > 0.0:
                extra += held
                self._reordered_counter.inc()
                self.reorder_counts[key] = self.reorder_counts.get(key, 0) + 1
        return extra

    def _deliver(self, src: Endpoint, dst: Endpoint, msg: Any, size: int) -> None:
        handler = self._handlers.get(dst)
        if handler is None or dst in self._crashed:
            self._dropped_counter.inc()
            return
        second = int(self.engine.now)
        series = self.rx_per_second.get(dst)
        if series is None or len(series) <= second:
            series = _series_through(self.rx_per_second, dst, second)
        series[second] += size
        self._rx_bytes_counter.inc(size)
        self._delivered_counter.inc()
        handler(src, msg)

    def _account_tx(self, addr: Endpoint, key: str, size: int, messages: int) -> None:
        """Charge ``addr`` for sending ``messages`` copies of one message."""
        total = size * messages
        self.class_counts[key] = self.class_counts.get(key, 0) + messages
        self.class_bytes[key] = self.class_bytes.get(key, 0) + total
        second = int(self.engine.now)
        series = self.tx_per_second.get(addr)
        if series is None or len(series) <= second:
            series = _series_through(self.tx_per_second, addr, second)
        series[second] += total
        self._sent_counter.inc(messages)
        self._tx_bytes_counter.inc(total)

    # -------------------------------------------------------------- reporting

    def per_second_rates(
        self, addr: Endpoint, start: float = 0.0, end: Optional[float] = None
    ) -> tuple[list[float], list[float]]:
        """Return (tx KB/s, rx KB/s) samples for each second in the window.

        Seconds with no traffic contribute zero samples, matching how the
        paper reports utilization "per second across processes".

        The stop bound is ``ceil(end)`` so a trailing partial second still
        contributes its bucket (``int(end)`` would silently drop traffic
        sent after the last whole-second boundary).
        """
        stop = math.ceil(end if end is not None else self.engine.now)
        begin = int(start)
        return (
            _kb_per_second(self.tx_per_second.get(addr, ()), begin, stop),
            _kb_per_second(self.rx_per_second.get(addr, ()), begin, stop),
        )


def _series_through(series_map: dict, addr: Endpoint, second: int) -> array:
    """``addr``'s per-second series, zero-extended to cover ``second``."""
    series = series_map.get(addr)
    if series is None:
        series = series_map[addr] = array("q")
    series.frombytes(bytes(series.itemsize * (second + 1 - len(series))))
    return series


def _kb_per_second(series, begin: int, stop: int) -> list[float]:
    """KB in each second of ``[begin, stop)``; zero outside the series."""
    known = len(series)
    return [
        (series[s] if 0 <= s < known else 0) / 1024.0 for s in range(begin, stop)
    ]
