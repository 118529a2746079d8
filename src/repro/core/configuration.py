"""Membership configurations.

A configuration is an immutable snapshot of the membership set plus a
configuration identifier (paper section 3).  Rapid drives an immutable
*sequence* of configurations: each view change produces the next
configuration by applying a multi-process cut (joins and removals decided by
consensus) to the current one.

The identifier folds in the sorted endpoints, their logical ids, and the
sequence number, so any two processes holding the same identifier hold the
same membership view, and a rejoined process (same address, new uuid)
yields a different identifier.

**One object per view per process.**  Immutability is what makes a view
safe to share, so constructing a :class:`Configuration` *is* the lookup:
the class keeps every configuration alive in the process in one weak
table keyed by content, and hands back the instance some other node
already holds.  The N nodes of a simulated cluster therefore share one
member tuple, one member set, one index, one uuid set, one identifier
hash and one :class:`ViewSnapshot` per view instead of N; a live process
running one node sees a one-entry table.  Everything reachable from a
configuration is read-only.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from itertools import islice
from operator import lt
from typing import Iterable, Optional

from repro.core.messages import AlertKind, Proposal, ViewSnapshot
from repro.core.node_id import Endpoint, stable_hash64

__all__ = ["Configuration"]

#: ``{(seq, members, uuids): Configuration}`` for every configuration some
#: node (or message, or test) in this process still holds.  Weak, so a soak
#: run's table tracks the views still installed somewhere, not the views
#: ever decided; keyed by content rather than by ``config_id`` so that a
#: lookup costs a tuple hash, not the identifier's string digest, and a hit
#: is an exact comparison.
_HELD: "weakref.WeakValueDictionary[tuple, Configuration]" = (
    weakref.WeakValueDictionary()
)


class Configuration:
    """An immutable membership view, interned per process.

    ``members`` is always sorted and free of duplicates; ``uuids`` is
    aligned with ``members`` and holds each member's logical identifier.
    ``seq`` counts view changes since bootstrap.  Two constructions with
    equal content return the same object, so equality is identity.
    """

    members: tuple  # tuple[Endpoint, ...], strictly increasing
    uuids: tuple  # tuple[int, ...], aligned with members
    seq: int

    # ------------------------------------------------------------ construction

    def __new__(
        cls, members: Iterable[Endpoint] = (), uuids: Iterable[int] = (), seq: int = 0
    ) -> "Configuration":
        """The process's one configuration with this content.

        Content is validated once, when a view is first seen; every later
        construction of it is a table hit.
        """
        members, uuids = tuple(members), tuple(uuids)
        key = (seq, members, uuids)
        held = _HELD.get(key)
        if held is None:
            if len(members) != len(uuids):
                raise ValueError("members and uuids must be aligned")
            if not all(map(lt, members, islice(members, 1, None))):
                raise ValueError("members must be sorted and distinct")
            held = super().__new__(cls)
            held.__dict__.update(members=members, uuids=uuids, seq=seq)
            _HELD[key] = held
        return held

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Configuration is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Configuration is immutable; cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        # Copies and unpickles come back through the table too.
        return (Configuration, (self.members, self.uuids, self.seq))

    def __repr__(self) -> str:
        return f"Configuration({self.describe()})"

    @classmethod
    def bootstrap(cls, seed: Endpoint, uuid: int = 0) -> "Configuration":
        """The configuration a seed process starts with: just itself."""
        return cls(members=(seed,), uuids=(uuid,), seq=0)

    @classmethod
    def of(cls, members: Iterable[Endpoint], seq: int = 0) -> "Configuration":
        """Build a configuration with zeroed uuids (tests, baselines)."""
        ordered = tuple(sorted(members))
        return cls(members=ordered, uuids=(0,) * len(ordered), seq=seq)

    # ----------------------------------------------------------------- queries
    #
    # Derived state is built on first use and kept on the (shared)
    # instance: once per view, whoever asks first.

    @cached_property
    def config_id(self) -> int:
        """Deterministic 64-bit identifier of this view.

        Every inbound message is scoped by config id, so this is read on
        the simulator's hot path.
        """
        return stable_hash64(
            "config", self.seq, tuple(str(m) for m in self.members), self.uuids
        )

    @property
    def size(self) -> int:
        """Number of members in this view."""
        return len(self.members)

    def __contains__(self, endpoint: Endpoint) -> bool:
        return endpoint in self._members_frozen

    @cached_property
    def _members_frozen(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def _index(self) -> dict:
        return {m: i for i, m in enumerate(self.members)}

    @cached_property
    def _uuids_frozen(self) -> frozenset:
        return frozenset(self.uuids)

    def member_index(self) -> dict:
        """The ``{endpoint: position}`` map over the sorted membership.

        Shared by every consensus instance of the view; treat the
        returned dict as read-only.
        """
        return self._index

    def uuid_of(self, endpoint: Endpoint) -> Optional[int]:
        """Logical id of ``endpoint`` in this view (``None`` if absent)."""
        try:
            return self.uuids[self._index[endpoint]]
        except KeyError:
            return None

    def has_uuid(self, uuid: int) -> bool:
        """Whether any member of this view carries logical id ``uuid``."""
        return uuid in self._uuids_frozen

    # ------------------------------------------------------------- transitions

    def apply(self, proposal: Proposal) -> "Configuration":
        """Apply a decided cut and return the next configuration.

        Joins must not already be members; removals must be members.  The
        cut detector and consensus layers guarantee this for protocol-driven
        proposals; we re-validate because configuration transitions are the
        safety-critical step.
        """
        current = dict(zip(self.members, self.uuids))
        for change in proposal:
            if change.kind == AlertKind.JOIN:
                if change.endpoint in current:
                    raise ValueError(f"join of existing member {change.endpoint}")
                current[change.endpoint] = change.uuid
            elif change.kind == AlertKind.REMOVE:
                if change.endpoint not in current:
                    raise ValueError(f"removal of non-member {change.endpoint}")
                del current[change.endpoint]
            else:
                raise ValueError(f"unknown change kind {change.kind!r}")
        ordered = tuple(sorted(current))
        return Configuration(
            members=ordered,
            uuids=tuple(current[m] for m in ordered),
            seq=self.seq + 1,
        )

    def successor(self, cut: Proposal, cut_id: int) -> "Configuration":
        """:meth:`apply` for the cut consensus decided here, computed once.

        Every member of this view decides the same cut, and in one process
        they all hold this object — so the first to decide computes the
        transition and the rest reuse it instead of each sorting and
        hashing the membership.  ``cut_id`` is the id ``cut`` was decided
        under (:func:`repro.core.messages.cut_id`), trusted as consensus
        trusts it; the successor is held weakly, so keeping an old view
        alive does not keep its descendants.
        """
        memo = self.__dict__.get("_successor")
        if memo is not None and memo[0] == cut_id:
            new = memo[1]()
            if new is not None:
                return new
        new = self.apply(cut)
        self.__dict__["_successor"] = (cut_id, weakref.ref(new))
        return new

    def view_snapshot(self, metadata: tuple = ()) -> ViewSnapshot:
        """The interned join-response snapshot of this view with ``metadata``.

        One frozen :class:`ViewSnapshot` (whose wire size the simulated
        network memoizes in turn) per distinct canonical metadata table:
        responders that agree on the table — the normal case — share one
        object, and one that holds a different table answers with its own.
        """
        snapshots = self.__dict__.setdefault("_snapshots", {})
        snapshot = snapshots.get(metadata)
        if snapshot is None:
            snapshot = snapshots[metadata] = ViewSnapshot(
                members=self.members,
                uuids=self.uuids,
                seq=self.seq,
                metadata=metadata,
            )
        return snapshot

    def cut(self, proposal: Proposal) -> Proposal:
        """The process's one tuple for the cut ``proposal`` of this view.

        Canonical the way :meth:`view_snapshot` is: the first emitter's
        tuple is kept, equal content gets it back.  Cut detection agrees
        almost everywhere, so the deciders of a view vote, file and log
        one shared cut instead of a private copy each; one whose proposal
        differs holds its own.
        """
        return self.__dict__.setdefault("_cuts", {}).setdefault(proposal, proposal)

    def describe(self) -> str:
        """Human-readable one-liner for logs and examples."""
        return f"view#{self.seq} id={self.config_id & 0xFFFFFF:06x} n={self.size}"
