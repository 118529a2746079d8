"""Fault-injecting, byte-accounting wire fabric for live UDP clusters.

The simulator's :class:`~repro.sim.network.Network` plays three roles the
kernel plays for a real deployment: it delivers datagrams, applies fault
rules, and keeps traffic accounting.  When the protocol runs over real
sockets those roles disappear into the OS — which is exactly what makes
the simulator's model unfalsifiable.  This module puts the two auditable
roles back as a thin layer over :class:`AsyncioRuntime`:

* :class:`LiveWire` is the shared per-cluster fabric: it holds
  :mod:`repro.sim.faults` rules (the *same* rule objects the simulator
  consumes — drop rules and delay rules split exactly like
  ``Network.add_rule``; rules that duplicate or reorder deliveries are
  refused) and the counter surface the benchmark runner harvests
  (``sent_messages``, ``sent_bytes``, ``class_counts``, ...).
  For every datagram it records both the **real** encoded size and the
  simulator's :func:`~repro.sim.network.wire_size` estimate, so a run
  yields a per-class sim-vs-real parity table for free.  Datagrams that
  failed in either direction are gauges beside them (``decode_errors``,
  ``send_errors``).
* :class:`LiveRuntime` routes ``send``/``broadcast`` through the fabric:
  matching drop rules discard the datagram before it reaches the socket,
  matching delay rules defer the ``sendto`` with ``loop.call_later`` —
  one-way extra latency, like the simulated network's delay rules.

Fault rules are applied entirely on the sender side.  Ingress rules still
match (they test ``dst``), which mirrors how the simulated network
evaluates every rule at send time; the observable semantics — who stops
hearing whom — are identical.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.node_id import Endpoint
from repro.runtime.asyncio_transport import AsyncioRuntime
from repro.runtime.codec import CodecError, decode_bytes
from repro.sim.faults import FaultRule
from repro.sim.network import _class_key, wire_size
from repro.sim.rng import child_rng

__all__ = ["UDP_OVERHEAD_BYTES", "LiveWire", "LiveRuntime"]

#: Real per-datagram header cost (IPv4 20 + UDP 8) added to payload sizes,
#: matching the simulator's ``_HEADER_BYTES`` constant so real and
#: estimated byte totals are compared on the same basis.
UDP_OVERHEAD_BYTES = 28


class LiveWire:
    """Shared fault + accounting fabric for one live cluster.

    ``clock`` is a zero-argument callable returning the harness-relative
    time used to evaluate rule activity windows (flip-flop phases, start/
    end bounds); the live harness passes its epoch-relative ``now``.  Loss
    and delay sampling use rng streams derived from ``seed`` via
    :func:`~repro.sim.rng.child_rng`, separated exactly like the simulated
    network's so installing a delay rule never perturbs drop sampling.
    """

    def __init__(self, seed: int = 0, clock=None) -> None:
        self.seed = seed
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._rules: list[FaultRule] = []
        self._delay_rules: list[FaultRule] = []
        self._loss_rng = child_rng(seed, "live", "loss")
        self._delay_rng = child_rng(seed, "live", "delay")
        self.sent_messages = 0
        self.delivered_messages = 0
        self.dropped_messages = 0
        self.sent_bytes = 0
        self.received_bytes = 0
        self.decode_errors = 0
        self.send_errors = 0
        #: Per-class datagram counts and *real* byte totals (encoded
        #: payload plus :data:`UDP_OVERHEAD_BYTES`) — the same shape as
        #: ``Network.class_counts`` / ``class_bytes``, so bench reports
        #: read identically for sim and live runs.
        self.class_counts: dict[str, int] = {}
        self.class_bytes: dict[str, int] = {}
        #: Per-class byte totals under the simulator's sizing model, for
        #: the same messages: the sim-vs-real parity comparison.
        self.class_bytes_est: dict[str, int] = {}
        #: The simulated network's message-adversary counters.  Always
        #: empty here: :meth:`add_rule` refuses the rules that fill them.
        self.duplicate_counts: dict[str, int] = {}
        self.reorder_counts: dict[str, int] = {}

    # ----------------------------------------------------------- fault rules

    def add_rule(self, rule: FaultRule) -> FaultRule:
        """Install a drop or delay rule; returns it for later removal.

        A rule that rewrites deliveries (``Duplicate``, ``Reorder``) has
        no sender-side equivalent on a real socket; it raises
        ``ValueError`` instead of sitting inert among the drop rules.
        """
        if rule.mutates_delivery:
            raise ValueError(
                f"LiveWire cannot apply {type(rule).__name__}: it drops and "
                "delays datagrams but does not duplicate or reorder them"
            )
        if rule.adds_delay:
            self._delay_rules.append(rule)
        else:
            self._rules.append(rule)
        return rule

    def remove_rule(self, rule: FaultRule) -> None:
        """Uninstall a previously added rule."""
        if rule.adds_delay:
            self._delay_rules.remove(rule)
        else:
            self._rules.remove(rule)

    def clear_rules(self) -> None:
        """Remove every installed rule."""
        self._rules.clear()
        self._delay_rules.clear()

    def rng_for(self, *scope: object):
        """A seeded RNG stream for auxiliary draws, labelled by the last
        scope element: the bootstrap stagger stays on ``("live",
        "stagger")``, the stream the parity tolerances were measured on."""
        return child_rng(self.seed, "live", scope[-1])

    def should_drop(self, src: Endpoint, dst: Endpoint) -> bool:
        """Whether any active drop rule discards a ``src -> dst`` datagram."""
        if not self._rules:
            return False
        now = self._clock()
        for rule in self._rules:
            if rule.should_drop(src, dst, now, self._loss_rng):
                return True
        return False

    def added_delay(self, src: Endpoint, dst: Endpoint) -> float:
        """Total extra one-way delay active delay rules add to a datagram."""
        if not self._delay_rules:
            return 0.0
        now = self._clock()
        extra = 0.0
        for rule in self._delay_rules:
            extra += rule.added_delay(src, dst, now, self._delay_rng)
        return extra

    # ------------------------------------------------------------ accounting

    def account_send(self, msg: Any, payload_len: int) -> None:
        """Record one outbound datagram's real and estimated sizes."""
        key = _class_key(msg)
        real = payload_len + UDP_OVERHEAD_BYTES
        self.sent_messages += 1
        self.sent_bytes += real
        self.class_counts[key] = self.class_counts.get(key, 0) + 1
        self.class_bytes[key] = self.class_bytes.get(key, 0) + real
        self.class_bytes_est[key] = self.class_bytes_est.get(key, 0) + wire_size(msg)

    def account_drop(self) -> None:
        """Record a datagram discarded by a drop rule."""
        self.dropped_messages += 1

    def account_delivery(self, payload_len: int) -> None:
        """Record one datagram handed to a receiving runtime."""
        self.delivered_messages += 1
        self.received_bytes += payload_len + UDP_OVERHEAD_BYTES

    def account_decode_error(self) -> None:
        """Record a received datagram the codec rejected."""
        self.decode_errors += 1

    def account_send_error(self) -> None:
        """Record a datagram that was too large or that the socket refused."""
        self.send_errors += 1

    # --------------------------------------------------------------- parity

    @property
    def estimated_bytes_sent(self) -> int:
        """Total bytes sent under the simulator's sizing model."""
        return sum(self.class_bytes_est.values())

    def parity_by_class(self) -> dict[str, dict]:
        """Per-class sim-vs-real byte comparison for this run's traffic.

        Returns ``{class: {"messages", "real_bytes", "estimated_bytes",
        "ratio"}}`` where ``ratio`` is real/estimated — the share of the
        simulator's structural estimate that the binary wire format really
        spends on that class's actual traffic mix.  The estimate is an
        upper bound: a ratio above 1.0 means the sizer undercounts.
        """
        rows: dict[str, dict] = {}
        for key in sorted(self.class_counts):
            real = self.class_bytes.get(key, 0)
            est = self.class_bytes_est.get(key, 0)
            rows[key] = {
                "messages": self.class_counts[key],
                "real_bytes": real,
                "estimated_bytes": est,
                "ratio": (real / est) if est else None,
            }
        return rows


class LiveRuntime(AsyncioRuntime):
    """An :class:`AsyncioRuntime` whose traffic crosses a :class:`LiveWire`.

    Every outbound datagram is accounted (real and sim-estimated bytes),
    then checked against the fabric's drop rules and deferred by its delay
    rules before reaching the socket.  Inbound datagrams are accounted on
    arrival, before decoding, so malformed traffic still shows up in the
    delivery counters (its decode failure is counted separately).
    """

    def __init__(
        self, addr: Endpoint, wire: LiveWire, seed: Optional[int] = None
    ) -> None:
        super().__init__(addr, seed=seed)
        self.wire = wire

    @property
    def crashed(self) -> bool:
        """Whether the socket is closed — fail-stop, like ``SimRuntime``."""
        return self._closed

    def crash(self) -> None:
        """Fail-stop: close the socket; pending timers are skipped."""
        self.close()

    def send(self, dst: Endpoint, msg: Any) -> None:
        if self._transport is None or self._closed:
            return
        payload = self._payload(msg)
        if payload is not None:
            self._send_payload(dst, msg, payload)

    def broadcast(self, dsts, msg: Any) -> None:
        """Unicast ``msg`` to each destination, encoding the payload once."""
        if self._transport is None or self._closed:
            return
        payload = self._payload(msg)
        if payload is not None:
            for dst in dsts:
                self._send_payload(dst, msg, payload)

    def _send_failed(self) -> None:
        super()._send_failed()
        self.wire.account_send_error()

    def _send_payload(self, dst: Endpoint, msg: Any, payload: bytes) -> None:
        wire = self.wire
        wire.account_send(msg, len(payload))
        if wire.should_drop(self.addr, dst):
            wire.account_drop()
            return
        extra = wire.added_delay(self.addr, dst)
        if extra > 0.0:
            self._loop.call_later(extra, self._deferred_sendto, payload, dst)
        else:
            self._transport.sendto(payload, (dst.host, dst.port))

    def _deferred_sendto(self, payload: bytes, dst: Endpoint) -> None:
        if self._transport is not None and not self._closed:
            self._transport.sendto(payload, (dst.host, dst.port))

    def _datagram_received(self, data: bytes, addr) -> None:
        if self._handler is None or self._closed:
            return
        self.wire.account_delivery(len(data))
        try:
            msg = decode_bytes(data)
        except CodecError:
            self.decode_errors += 1
            self.wire.account_decode_error()
            return
        self._handler(Endpoint(host=addr[0], port=addr[1]), msg)
