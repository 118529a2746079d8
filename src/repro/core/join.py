"""Joiner-side join protocol (paper sections 3 and 4.1).

A joining process:

1. sends a ``PreJoinRequest`` to a seed, which answers with the current
   configuration id and the joiner's *temporary observers* — the ``K``
   processes that would precede it on each ring ("deterministically
   assigned for each joiner and configuration pair");
2. sends a ``JoinRequest`` to each temporary observer; each observer
   broadcasts a ``JOIN`` alert, so JOIN evidence reaches the cut detector
   from multiple distinct sources exactly like failure evidence does;
3. waits for a ``JoinResponse`` carrying the new configuration once the
   view change admitting it is decided.

The admitting view arrives either as a full :class:`ViewSnapshot` or — when
this process advertised a configuration it still holds from a previous
membership — as a :class:`ViewDelta` against that base; both reconstruct a
bit-identical :class:`~repro.core.configuration.Configuration`.

Retries rotate through the seed list with a jittered timeout (simultaneous
rejoiners must not re-stampede the same seed in lockstep); a
``CONFIG_CHANGED`` response restarts the handshake promptly against the new
configuration, and ``UUID_IN_USE`` mints a fresh logical identity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.messages import (
    JoinRequest,
    JoinResponse,
    JoinStatus,
    PreJoinRequest,
    PreJoinResponse,
)
from repro.core.node_id import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.configuration import Configuration
    from repro.core.membership import RapidNode

__all__ = ["JoinProtocol"]


class JoinProtocol:
    """State machine run by a joining node until it becomes a member."""

    def __init__(self, node: "RapidNode") -> None:
        self.node = node
        self.attempts = 0
        self.completed = False
        self._config_id: Optional[int] = None
        self._timeout_handle = None
        #: Logical ids this protocol instance has joined under.  If a
        #: UUID_IN_USE conflict names one of them, our own earlier
        #: attempt was admitted and only the response went missing.
        self._attempt_uuids = {node.node_id.uuid}

    # ---------------------------------------------------------------- driving

    def begin(self) -> None:
        """Start (or restart) the join handshake."""
        if self.completed:
            return
        seeds = self.node.seeds or ()
        if not seeds:
            raise RuntimeError("cannot join without seeds")
        seed = seeds[self.attempts % len(seeds)]
        self.attempts += 1
        self._config_id = None
        self.node.runtime.send(
            seed,
            PreJoinRequest(sender=self.node.addr, uuid=self.node.node_id.uuid),
        )
        self._arm_timeout(self.node.settings.join_timeout)

    def _restart(self, delay: float) -> None:
        """Abandon the current handshake attempt and retry after ``delay``.

        The in-flight configuration id is cleared immediately — not lazily
        on the next :meth:`begin` — so a straggling ``JoinResponse`` from
        the abandoned attempt cannot be mistaken for the current one.
        """
        self._config_id = None
        self._arm_timeout(delay)

    def _arm_timeout(self, delay: float) -> None:
        """(Re)arm the retry timer for ``delay`` seconds, plus jitter.

        The jitter (``settings.join_retry_jitter`` as a fraction of the
        delay, drawn from the node's deterministic per-process stream)
        de-synchronizes retries: a view change that turns away hundreds of
        waiting joiners at once must not have them all re-contact the seed
        at the same instant.
        """
        self._cancel_timeout()
        jitter = self.node.settings.join_retry_jitter
        if jitter:
            delay += self.node.runtime.rng.uniform(0.0, jitter * delay)
        self._timeout_handle = self.node.runtime.schedule(delay, self._on_timeout)

    def _cancel_timeout(self) -> None:
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None

    def _on_timeout(self) -> None:
        self._timeout_handle = None
        if not self.completed:
            self.begin()

    # --------------------------------------------------------------- messages

    def on_pre_join_response(self, msg: PreJoinResponse) -> None:
        """Phase 2: ask every temporary observer to vouch for the join."""
        if self.completed:
            return
        if msg.status == JoinStatus.UUID_IN_USE:
            if msg.conflict_uuid and msg.conflict_uuid in self._attempt_uuids:
                # The "conflicting" incarnation is one of our own earlier
                # attempts: the admission succeeded but its response never
                # reached us, and a stale view answered a retry with
                # UUID_IN_USE, re-minting our identity.  Adopt the
                # admitted id and re-request the view — minting yet
                # another identity would deadlock against our own
                # admission (it keeps acking probes, so it never fails
                # out of the view).
                self.node.node_id = NodeId(
                    endpoint=self.node.addr, uuid=msg.conflict_uuid
                )
                self._restart(min(0.5, self.node.settings.join_timeout))
                return
            # A stale incarnation of us is still in the view; retry with a
            # fresh logical identity once failure detection clears it.
            self.node.node_id = NodeId.fresh(self.node.addr)
            self._attempt_uuids.add(self.node.node_id.uuid)
            self._restart(self.node.settings.join_timeout)
            return
        if msg.status != JoinStatus.SAFE_TO_JOIN:
            self._restart(self.node.settings.join_timeout / 2)
            return
        if self._config_id == msg.config_id:
            # A duplicate SAFE_TO_JOIN for the attempt already in flight
            # (network-level duplication): re-fanning JoinRequests to
            # every observer would multiply join traffic, and re-arming
            # the timeout would push the retry deadline out indefinitely
            # under sustained duplication.  Legitimate retries come
            # through begin()/_restart, which clear the in-flight id.
            return
        self._config_id = msg.config_id
        base = self.node._delta_base
        request = JoinRequest(
            sender=self.node.addr,
            uuid=self.node.node_id.uuid,
            config_id=msg.config_id,
            metadata=self.node.metadata_tuple(),
            base_config_id=base.config_id if base is not None else 0,
        )
        seen = set()
        for observer in msg.observers:
            if observer in seen:
                continue
            seen.add(observer)
            self.node.runtime.send(observer, request)
        self._arm_timeout(self.node.settings.join_timeout)

    def on_join_response(self, msg: JoinResponse) -> None:
        """Completion: install the admitting view, or restart/retry."""
        if self.completed:
            return
        if msg.status == JoinStatus.SAFE_TO_JOIN:
            config = self._materialize(msg)
            if config is None:
                return
            if self.node.addr not in config:
                return  # stale or malformed; keep waiting
            self.completed = True
            self._cancel_timeout()
            if msg.delta is not None:
                self.node._install_joined_view(
                    config, msg.delta.metadata, msg.delta.removes, partial=True
                )
            else:
                self.node._install_joined_view(config, msg.view.metadata)
        elif msg.status == JoinStatus.CONFIG_CHANGED:
            # The view changed under us; restart quickly against the new one.
            self._restart(min(0.5, self.node.settings.join_timeout))

    # -------------------------------------------------------------- materialize

    def _materialize(self, msg: JoinResponse) -> Optional["Configuration"]:
        """Reconstruct the admitting configuration from a SAFE_TO_JOIN reply.

        Full snapshots construct it directly; deltas are applied to the
        advertised base.  A delta that cannot be applied — the base is gone,
        or the reconstruction does not hash to the response's config id —
        drops the base and restarts the handshake so the next attempt asks
        for (and gets) a full snapshot.
        """
        from repro.core.configuration import Configuration

        if msg.view is not None:
            config = Configuration(
                members=msg.view.members, uuids=msg.view.uuids, seq=msg.view.seq
            )
            if config.config_id != msg.config_id:
                return None  # corrupt or stale; keep waiting for a clean one
            return config
        if msg.delta is None:
            return None
        base = self.node._delta_base
        if base is None or base.config_id != msg.delta.base_config_id:
            self._drop_base_and_restart()
            return None
        try:
            config = base.apply_delta(msg.delta)
        except ValueError:
            self._drop_base_and_restart()
            return None
        if config.config_id != msg.config_id:
            self._drop_base_and_restart()
            return None
        return config

    def _drop_base_and_restart(self) -> None:
        """Fall back to the full-snapshot path on an unusable delta."""
        self.node._delta_base = None
        self._restart(min(0.5, self.node.settings.join_timeout))
