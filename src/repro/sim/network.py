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
from array import array
from typing import Any, Callable, Optional, Sequence

from repro.core.messages import ViewSnapshot, VoteBundle, VotePull
from repro.core.node_id import Endpoint
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.faults import FaultRule
from repro.sim.rng import child_rng
from repro.sim.latency import LanLatency, LatencyModel

__all__ = ["Network", "wire_size", "register_message_classes"]

_HEADER_BYTES = 28  # IP + UDP header estimate applied to every message.


def wire_size(msg: Any) -> int:
    """Estimate the serialized size of a message in bytes.

    A rough structural estimate is enough: the evaluation compares the
    *relative* bandwidth of protocols, and all protocols are sized by the
    same rule.  Dataclasses are walked recursively; strings count their
    length; numbers count 8 bytes.

    Deliberately *not* memoized on the message object: most traffic is
    unique (probes carry sequence numbers), so a cache would hash every
    message only to miss.  Broadcast fan-outs size their payload once in
    :meth:`Network.broadcast` instead.
    """
    return _HEADER_BYTES + _payload_size(msg)


def _container_size(value) -> int:
    return 2 + sum(_payload_size(item) for item in value)


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
    Endpoint: lambda value: 4 + len(value.host),
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
        self._rules: list[FaultRule] = []
        # Delay rules (FaultRule.adds_delay) live on their own list with
        # their own RNG stream: the drop loop never sees them and their
        # jitter draws never perturb loss sampling, so installing one
        # cannot shift the deterministic trace of unrelated traffic.
        self._delay_rules: list[FaultRule] = []
        # Adversary rules (FaultRule.mutates_delivery) duplicate and
        # reorder deliveries; they too get their own list and RNG stream
        # so installing one leaves the loss/latency/delay draws of every
        # other message byte-identical.
        self._adversary_rules: list[FaultRule] = []
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

    def add_rule(self, rule: FaultRule) -> FaultRule:
        """Install a fault rule; returns it so callers can remove it later.

        Delay rules (``rule.adds_delay``) are kept on a separate list
        consulted only when computing delivery latency; adversary rules
        (``rule.mutates_delivery``) on a third, consulted after the drop
        loop to duplicate/reorder surviving deliveries; drop rules join
        the per-message drop loop.
        """
        if rule.mutates_delivery:
            self._adversary_rules.append(rule)
        elif rule.adds_delay:
            self._delay_rules.append(rule)
        else:
            self._rules.append(rule)
        return rule

    def remove_rule(self, rule: FaultRule) -> None:
        """Uninstall a previously added fault rule."""
        if rule.mutates_delivery:
            self._adversary_rules.remove(rule)
        elif rule.adds_delay:
            self._delay_rules.remove(rule)
        else:
            self._rules.remove(rule)

    def clear_rules(self) -> None:
        """Remove every installed fault rule."""
        self._rules.clear()
        self._delay_rules.clear()
        self._adversary_rules.clear()

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
        rules = self._rules
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
        if self._adversary_rules:
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
        extra = 0.0
        rng = self._adversary_rng
        now = self.engine.now
        for rule in self._adversary_rules:
            if not rule.active(now) or not rule.matches(src, dst):
                continue
            held = rule.hold_delay(src, dst, rng)
            if held > 0.0:
                extra += held
                self._reordered_counter.inc()
                self.reorder_counts[key] = self.reorder_counts.get(key, 0) + 1
            copies = rule.extra_copies(src, dst, rng)
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
