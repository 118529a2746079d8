"""The runtime interface that all protocol code targets.

Protocol implementations (Rapid itself, the SWIM/ZooKeeper/Akka baselines,
the example applications) are written *sans-io*: they never touch sockets,
clocks, or threads directly.  Instead they are handed a :class:`Runtime`
that provides time, timers, messaging, and seeded randomness.

Two runtimes are provided:

* :class:`repro.sim.process.SimRuntime` — drives protocols inside the
  deterministic discrete-event simulator (used by tests and benchmarks); and
* :class:`repro.runtime.asyncio_transport.AsyncioRuntime` — drives the same
  protocol objects over real UDP sockets for small live clusters.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.core.node_id import Endpoint

__all__ = ["Runtime", "MessageHandler", "TimerHandle"]

MessageHandler = Callable[[Endpoint, Any], None]


class TimerHandle(Protocol):
    """Cancellable timer token returned by :meth:`Runtime.schedule`."""

    def cancel(self) -> None: ...


@runtime_checkable
class Runtime(Protocol):
    """Environment handed to a protocol node.

    Attributes
    ----------
    addr:
        The endpoint this node listens on.
    rng:
        A :class:`random.Random` private to this node; all protocol-level
        randomness (gossip peer choice, jitter) must come from here so that
        simulated runs are reproducible.
    """

    addr: Endpoint
    rng: random.Random

    def now(self) -> float:
        """Current time in seconds (virtual in simulation, wall-clock live)."""
        ...

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> TimerHandle:
        """Invoke ``fn(*args)`` after ``delay`` seconds; returns a handle."""
        ...

    def send(self, dst: Endpoint, msg: Any) -> None:
        """Fire-and-forget a message to ``dst`` (datagram semantics)."""
        ...

    def broadcast(self, dsts: Sequence[Endpoint], msg: Any) -> None:
        """Fan one message out to every endpoint in ``dsts``.

        ``send`` in a loop as far as the protocol can tell; a runtime may
        size, delay and account the copies as one batch.
        """
        ...
