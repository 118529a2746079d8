"""Message demultiplexing for co-located protocol stacks.

An application process often hosts both an application protocol and a
membership agent on the same endpoint (exactly how the paper's transactional
platform embeds Rapid).  A runtime accepts a single message handler, so
:class:`TypeDispatcher` routes inbound messages to the right stack by
message class.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.node_id import Endpoint
from repro.runtime.base import Runtime

__all__ = ["TypeDispatcher"]

Handler = Callable[[Endpoint, Any], None]


class TypeDispatcher:
    """Routes messages to handlers registered per message class.

    The fallback handler (set via :meth:`set_default`) receives anything
    unclaimed — conventionally the membership agent, whose message
    vocabulary is larger.
    """

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self._routes: dict[type, Handler] = {}
        self._default: Handler | None = None
        runtime.attach(self.dispatch)

    @classmethod
    def overlay(cls, runtime: Runtime) -> "TypeDispatcher":
        """Interpose a dispatcher on a runtime that already has a handler.

        The membership agents attach their handler at construction; to
        co-host an application on the same endpoint afterwards, the
        existing handler is captured and becomes the dispatcher's default
        route — app message classes are then claimed with :meth:`add`
        while everything else keeps flowing to the agent.  Requires a
        runtime exposing its current handler (``runtime.handler``, see
        :class:`repro.sim.process.SimRuntime`).
        """
        previous = getattr(runtime, "handler", None)
        dispatcher = cls(runtime)
        if previous is not None:
            dispatcher.set_default(previous)
        return dispatcher

    def add(self, handler: Handler, *message_types: type) -> None:
        for message_type in message_types:
            if message_type in self._routes:
                raise ValueError(f"duplicate route for {message_type.__name__}")
            self._routes[message_type] = handler

    def set_default(self, handler: Handler) -> None:
        self._default = handler

    def dispatch(self, src: Endpoint, msg: Any) -> None:
        handler = self._routes.get(type(msg), self._default)
        if handler is not None:
            handler(src, msg)
