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

The admitting view arrives as the view's one :class:`ViewSnapshot`, for a
first-time joiner and a rejoiner alike, and is installed only if it hashes
to the response's configuration id.

Retries rotate through the seed list with a jittered timeout (simultaneous
rejoiners must not re-stampede the same seed in lockstep); a
``CONFIG_CHANGED`` response restarts the handshake promptly against the new
configuration, and ``UUID_IN_USE`` mints a fresh logical identity.

The responder side (who answers these requests, and when) is
:class:`repro.core.membership.AdmissionDesk`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.configuration import Configuration
from repro.core.messages import (
    JoinRequest,
    JoinResponse,
    JoinStatus,
    PreJoinRequest,
    PreJoinResponse,
)
from repro.core.node_id import Endpoint, NodeId
from repro.core.settings import RapidSettings
from repro.runtime.base import Runtime

__all__ = ["JoinProtocol"]

#: Fraction of a join retry delay added as uniform random jitter (drawn
#: from the process's deterministic stream), so simultaneous rejoiners do
#: not re-stampede the same seed.
JOIN_RETRY_JITTER = 0.25


class JoinProtocol:
    """State machine run by a joining process until it becomes a member.

    Parameters
    ----------
    runtime, settings:
        Messaging, timers and jitter; ``join_timeout``.
    seeds:
        Contact list, tried in rotation.
    node_id:
        The logical identity to join under; re-minted here when a view
        reports it in use, and handed back on admission.
    metadata:
        The joiner's role metadata in canonical (sorted, hashable) form.
    on_admitted:
        ``on_admitted(node_id, config, metadata)``, called once with the
        admitting view and the snapshot's metadata table.
    """

    def __init__(
        self,
        runtime: Runtime,
        settings: RapidSettings,
        seeds: Sequence[Endpoint],
        node_id: NodeId,
        metadata: tuple,
        on_admitted: Callable[..., None],
    ) -> None:
        self.runtime = runtime
        self.settings = settings
        self.seeds = seeds
        self.node_id = node_id
        self.metadata = metadata
        self._on_admitted = on_admitted
        self.attempts = 0
        self.completed = False
        self._config_id: Optional[int] = None
        self._timeout_handle = None
        #: Logical ids this protocol instance has joined under.  If a
        #: UUID_IN_USE conflict names one of them, our own earlier
        #: attempt was admitted and only the response went missing.
        self._attempt_uuids = {node_id.uuid}

    # ---------------------------------------------------------------- driving

    def begin(self) -> None:
        """Start (or restart) the join handshake."""
        if self.completed:
            return
        if not self.seeds:
            raise RuntimeError("cannot join without seeds")
        seed = self.seeds[self.attempts % len(self.seeds)]
        self.attempts += 1
        self._config_id = None
        self.runtime.send(
            seed, PreJoinRequest(sender=self.runtime.addr, uuid=self.node_id.uuid)
        )
        self._arm_timeout(self.settings.join_timeout)

    def stop(self) -> None:
        """End the handshake, admitted or abandoned by an owner that left:
        no retry is pending and whatever answer is still in flight is
        ignored."""
        self.completed = True
        self._cancel_timeout()

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

        The jitter (``JOIN_RETRY_JITTER`` as a fraction of the
        delay, drawn from the node's deterministic per-process stream)
        de-synchronizes retries: a view change that turns away hundreds of
        waiting joiners at once must not have them all re-contact the seed
        at the same instant.
        """
        self._cancel_timeout()
        delay += self.runtime.rng.uniform(0.0, JOIN_RETRY_JITTER * delay)
        self._timeout_handle = self.runtime.schedule(delay, self._on_timeout)

    def _cancel_timeout(self) -> None:
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None

    def _on_timeout(self) -> None:
        self._timeout_handle = None
        if not self.completed:
            self.begin()

    # --------------------------------------------------------------- messages

    def on_pre_join_response(self, src: Endpoint, msg: PreJoinResponse) -> None:
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
                self.node_id = NodeId(
                    endpoint=self.runtime.addr, uuid=msg.conflict_uuid
                )
                self._restart(min(0.5, self.settings.join_timeout))
                return
            # A stale incarnation of us is still in the view; retry with a
            # fresh logical identity once failure detection clears it.
            self.node_id = NodeId.fresh(self.runtime.addr)
            self._attempt_uuids.add(self.node_id.uuid)
            self._restart(self.settings.join_timeout)
            return
        if msg.status != JoinStatus.SAFE_TO_JOIN:
            self._restart(self.settings.join_timeout / 2)
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
        request = JoinRequest(
            sender=self.runtime.addr,
            uuid=self.node_id.uuid,
            config_id=msg.config_id,
            metadata=self.metadata,
        )
        for observer in dict.fromkeys(msg.observers):
            self.runtime.send(observer, request)
        self._arm_timeout(self.settings.join_timeout)

    def on_join_response(self, src: Endpoint, msg: JoinResponse) -> None:
        """Completion: hand over the admitting view, or restart/retry."""
        if self.completed:
            return
        if msg.status == JoinStatus.SAFE_TO_JOIN:
            config = self._materialize(msg)
            if config is None:
                return
            if self.runtime.addr not in config:
                return  # stale or malformed; keep waiting
            self.stop()
            self._on_admitted(self.node_id, config, msg.view.metadata)
        elif msg.status == JoinStatus.CONFIG_CHANGED:
            # The view changed under us; restart quickly against the new one.
            self._restart(min(0.5, self.settings.join_timeout))

    # -------------------------------------------------------------- materialize

    def _materialize(self, msg: JoinResponse) -> Optional[Configuration]:
        """The admitting configuration a SAFE_TO_JOIN reply carries.

        The snapshot constructs the process's one object for that content
        (see :class:`Configuration`), which is installed only if it hashes
        to the response's config id.
        """
        if msg.view is None:
            return None
        try:
            config = Configuration(
                members=msg.view.members, uuids=msg.view.uuids, seq=msg.view.seq
            )
        except ValueError:
            return None  # malformed: unsorted, duplicated or misaligned
        if config.config_id != msg.config_id:
            return None  # corrupt or stale; keep waiting for a clean one
        return config
