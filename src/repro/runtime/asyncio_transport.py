"""Live runtime: Rapid over asyncio UDP sockets.

:class:`AsyncioRuntime` implements the same :class:`~repro.runtime.base.Runtime`
interface as the simulator's :class:`~repro.sim.process.SimRuntime`, so the
protocol objects (:class:`~repro.core.membership.RapidNode`, the baselines,
the example apps) run unmodified over real networks.

One UDP socket per node, bound to the node's listen endpoint, is used for
both sending and receiving, so a peer's datagram source address equals its
listen address — the address book the protocol already uses.

Example (``examples/real_cluster.py`` boots a whole cluster through
:class:`repro.experiments.live.LiveHarness`)::

    runtime = AsyncioRuntime(Endpoint("127.0.0.1", 5001))
    await runtime.start()
    node = RapidNode(runtime, seeds=[Endpoint("127.0.0.1", 5001)])
    node.start()
"""

from __future__ import annotations

import asyncio
import random
import socket
from typing import Any, Callable, Optional

from repro.core.node_id import Endpoint
from repro.runtime.codec import (
    MAX_DATAGRAM_BYTES,
    CodecError,
    decode_bytes,
    encode_bytes,
)

__all__ = ["AsyncioRuntime", "open_local_socket"]


def open_local_socket(host: str = "127.0.0.1") -> tuple:
    """Bind a non-blocking UDP socket to an OS-assigned (ephemeral) port.

    Returns ``(sock, endpoint)`` where ``endpoint`` carries the actual
    bound port.  Pre-binding before the event loop exists lets callers
    learn every node's address up front (the seed list needs it) and
    avoids fixed-port collisions when tests run concurrently on one CI
    host; hand the socket to :meth:`AsyncioRuntime.start`.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind((host, 0))
    sock.setblocking(False)
    # Multiplexing hundreds of nodes on one event loop means a receiver
    # can lag hundreds of datagrams behind a burst (join storms, gossip
    # rounds); ask for a deep receive queue so the kernel buffers the
    # burst instead of dropping it.  The kernel silently caps this at
    # net.core.rmem_max — best effort is exactly what we want.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
    return sock, Endpoint(host, sock.getsockname()[1])


class _TimerHandle:
    """Adapter so ``loop.call_later`` handles satisfy the Runtime protocol."""

    __slots__ = ("_handle",)

    def __init__(self, handle: asyncio.TimerHandle):
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()


class _Protocol(asyncio.DatagramProtocol):
    def __init__(self, runtime: "AsyncioRuntime") -> None:
        self.runtime = runtime

    def datagram_received(self, data: bytes, addr) -> None:
        self.runtime._datagram_received(data, addr)

    def error_received(self, exc: Exception) -> None:
        # ICMP unreachable after a peer died is expected; a climbing count
        # with every peer alive is not, so it is a gauge rather than noise.
        self.runtime._send_failed()


class AsyncioRuntime:
    """Runtime backed by the asyncio event loop and a UDP socket."""

    def __init__(self, addr: Endpoint, seed: Optional[int] = None) -> None:
        self.addr = addr
        self.rng = random.Random(seed)
        #: Subtracted from ``loop.time()`` by :meth:`now`.  Harnesses that
        #: drive many runtimes set one shared epoch so protocol timestamps
        #: (and the :class:`~repro.sim.trace.ViewTrace` they feed) are
        #: small run-relative seconds, directly comparable to sim time.
        self.epoch = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._handler: Optional[Callable[[Endpoint, Any], None]] = None
        self._closed = False
        #: Received datagrams the codec refused.
        self.decode_errors = 0
        #: Datagrams that did not leave: the socket reported an error, or
        #: the encoded message exceeds one UDP payload and was dropped.
        self.send_errors = 0

    async def start(self, sock: Optional[socket.socket] = None) -> None:
        """Bind the UDP socket; must be called inside a running loop.

        ``sock`` may be a pre-bound datagram socket (see
        :func:`open_local_socket`), in which case the runtime adopts it
        instead of binding ``addr`` itself.  Re-entrant after
        :meth:`close`: starting again re-binds the address and clears the
        closed flag, which is how a harness "recovers" a live node.
        """
        self._loop = asyncio.get_running_loop()
        if sock is not None:
            self._transport, _ = await self._loop.create_datagram_endpoint(
                lambda: _Protocol(self), sock=sock
            )
        else:
            self._transport, _ = await self._loop.create_datagram_endpoint(
                lambda: _Protocol(self), local_addr=(self.addr.host, self.addr.port)
            )
        self._closed = False

    def close(self) -> None:
        self._closed = True
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # ------------------------------------------------------- runtime protocol

    def now(self) -> float:
        loop = self._loop or asyncio.get_event_loop()
        return loop.time() - self.epoch

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> _TimerHandle:
        loop = self._loop or asyncio.get_event_loop()
        return _TimerHandle(loop.call_later(delay, self._guarded, fn, args))

    def send(self, dst: Endpoint, msg: Any) -> None:
        if self._transport is None or self._closed:
            return
        payload = self._payload(msg)
        if payload is not None:
            self._transport.sendto(payload, (dst.host, dst.port))

    def broadcast(self, dsts, msg: Any) -> None:
        """Unicast ``msg`` to each destination, encoding the payload once."""
        if self._transport is None or self._closed:
            return
        payload = self._payload(msg)
        if payload is not None:
            for dst in dsts:
                self._transport.sendto(payload, (dst.host, dst.port))

    def attach(self, handler: Callable[[Endpoint, Any], None]) -> None:
        self._handler = handler

    # --------------------------------------------------------------- internal

    def _payload(self, msg: Any) -> Optional[bytes]:
        """Encode ``msg``; ``None``, counted, if no datagram can carry it."""
        payload = encode_bytes(msg)
        if len(payload) > MAX_DATAGRAM_BYTES:
            self._send_failed()
            return None
        return payload

    def _send_failed(self) -> None:
        self.send_errors += 1

    def _guarded(self, fn: Callable[..., None], args: tuple) -> None:
        if not self._closed:
            fn(*args)

    def _datagram_received(self, data: bytes, addr) -> None:
        if self._handler is None or self._closed:
            return
        try:
            msg = decode_bytes(data)
        except CodecError:
            self.decode_errors += 1
            return
        self._handler(Endpoint(host=addr[0], port=addr[1]), msg)
