"""Simulated runtime: binds protocol nodes to the engine and network.

:class:`SimRuntime` implements the :class:`repro.runtime.base.Runtime`
interface on top of the discrete-event engine.  One runtime is created per
simulated process; crashing the runtime silences its timers and traffic,
giving clean fail-stop semantics without tearing down protocol state (useful
when a test wants to inspect the state of a "dead" node).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.core.node_id import Endpoint
from repro.sim.engine import Engine, EventHandle
from repro.sim.network import Network
from repro.sim.rng import child_rng

__all__ = ["SimRuntime"]


class SimRuntime:
    """Per-process runtime inside the simulator.

    :meth:`attach` registers the message handler with the network, which
    calls it directly; until then the address has no listener and the
    network drops what arrives there.  Protocol nodes attach when they
    are constructed.

    Fail-stop is final: a timer that fires while the process is down is
    discarded, not deferred, so a crashed process cannot be brought back.
    Schedules that take an endpoint off the network and return it (the
    flip-flop profiles) use ``Network.crash`` / ``Network.recover``, which
    leave the process and its timers running.
    """

    def __init__(
        self,
        engine: Engine,
        network: Network,
        addr: Endpoint,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.addr = addr
        self.rng = rng if rng is not None else child_rng(seed, "process", str(addr))
        self._crashed = False
        self._handler: Optional[Callable[[Endpoint, Any], None]] = None

    # ------------------------------------------------------- runtime protocol

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.engine.now

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` virtual seconds unless crashed."""
        return self.engine.schedule(delay, self._guarded, fn, args)

    def send(self, dst: Endpoint, msg: Any) -> None:
        """Fire-and-forget ``msg`` to ``dst`` (the network drops it if this
        process has crashed)."""
        self.network.send(self.addr, dst, msg)

    def broadcast(self, dsts, msg: Any) -> None:
        """Fan ``msg`` out to every endpoint in ``dsts`` (sized and
        delayed once, see :meth:`repro.sim.network.Network.broadcast`)."""
        self.network.broadcast(self.addr, dsts, msg)

    # ----------------------------------------------------------------- wiring

    def attach(self, handler: Callable[[Endpoint, Any], None]) -> None:
        """Set the function the network calls for every inbound message.

        Attaching never revives a crashed process (the network keeps
        registration and fail-stop apart).
        """
        self._handler = handler
        self.network.register(self.addr, handler)

    @property
    def handler(self) -> Optional[Callable[[Endpoint, Any], None]]:
        """The currently attached inbound-message handler (or ``None``).

        Lets a dispatcher overlay an already-wired process — capture the
        existing handler, attach the dispatcher, and route unclaimed
        messages back to the original (see
        :meth:`repro.runtime.dispatch.TypeDispatcher.overlay`).
        """
        return self._handler

    def crash(self) -> None:
        """Fail-stop this process: timers stop firing, traffic stops."""
        self._crashed = True
        self.network.crash(self.addr)

    @property
    def crashed(self) -> bool:
        """Whether this process has fail-stopped."""
        return self._crashed

    # --------------------------------------------------------------- internal

    def _guarded(self, fn: Callable[..., None], args: tuple) -> None:
        if not self._crashed:
            fn(*args)
