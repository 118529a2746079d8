"""Wire messages of the Rapid protocol.

All messages are frozen dataclasses so they are hashable, comparable, and
safe to share between simulated processes.  ``config_id`` fields scope every
message to one configuration: each configuration is logically a fresh
instance of the protocol (virtual synchrony, paper section 4), so nodes
discard messages tagged with a configuration other than their current one.

The field annotations are the wire schema: :mod:`repro.runtime.codec`
compiles each class's encoder and decoder from them, so a field's type
says exactly how it crosses a real socket (the aliases below name the
encodings that a bare ``int`` / ``str`` / ``tuple`` cannot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Optional

from repro.core.node_id import Endpoint, stable_hash64

__all__ = [
    "AlertKind",
    "Change",
    "Proposal",
    "proposal_sort_key",
    "make_proposal",
    "cut_id",
    "Alert",
    "BatchedAlerts",
    "Probe",
    "ProbeAck",
    "PreJoinRequest",
    "PreJoinResponse",
    "JoinRequest",
    "JoinResponse",
    "ViewSnapshot",
    "LeaveNotification",
    "VoteBundle",
    "VotePull",
    "Decision",
    "Phase1a",
    "Phase1b",
    "Phase2a",
    "Phase2b",
    "ViewProbe",
    "ViewUpdate",
    "JoinStatus",
]


class AlertKind:
    """Edge alert types (paper section 4.1): JOIN and REMOVE."""

    JOIN = "join"
    REMOVE = "remove"


class JoinStatus:
    """Responses a joiner may receive during the join protocol."""

    SAFE_TO_JOIN = "safe-to-join"
    CONFIG_CHANGED = "config-changed"
    UUID_IN_USE = "uuid-in-use"
    NOT_IN_RING = "not-in-ring"


#: A full-width 64-bit identifier (``config_id``, ``uuid``): 8 fixed bytes
#: on the wire.  A plain ``int`` is a small count, sent as a varint.
U64 = Annotated[int, "u64"]
#: A vote bitmap, one bit per membership index: as wide as the view.
Bitmap = Annotated[int, "bitmap"]
#: One of the :class:`AlertKind` / :class:`JoinStatus` constants: one byte.
Kind = Annotated[str, AlertKind]
Status = Annotated[str, JoinStatus]
#: Join-time application metadata, ``((key, value), ...)`` sorted by key.
Metadata = tuple[tuple[str, str], ...]
#: Metadata of several members, ``((endpoint, metadata), ...)`` by endpoint.
MetadataTable = tuple[tuple[Endpoint, Metadata], ...]
#: A whole view's members, sorted and distinct.  On the wire a set of
#: dotted quads goes in numeric order as address and port deltas (about
#: 2 B a member instead of 7); a set naming any other host goes plain.
EndpointSet = Annotated[tuple[Endpoint, ...], "endpoint set"]
#: A classical-Paxos rank, ``(round, node_index)``.
Rank = tuple[int, int]


@dataclass(frozen=True, order=True)
class Change:
    """One element of a multi-process cut: add or remove one endpoint."""

    endpoint: Endpoint
    kind: Kind
    uuid: U64 = 0  # logical id of the joiner (0 for removals)


# A consensus value: the sorted tuple of changes forming one cut.
Proposal = tuple[Change, ...]


def proposal_sort_key(change: Change) -> tuple:
    """Canonical ordering of changes within a proposal."""
    return (change.endpoint, change.kind, change.uuid)


def make_proposal(changes) -> Proposal:
    """Canonicalize an iterable of changes into a hashable proposal."""
    return tuple(sorted(changes, key=proposal_sort_key))


def cut_id(proposal: Proposal) -> int:
    """Deterministic 64-bit id of a cut: a digest of its canonical changes.

    Votes, pulls and decisions name a cut by it instead of carrying the
    changes, with the trust every message already places in ``config_id``.
    """
    return stable_hash64(
        "cut",
        tuple((c.endpoint.host, c.endpoint.port, c.kind, c.uuid) for c in proposal),
    )


# --------------------------------------------------------------- monitoring


@dataclass(frozen=True)
class Probe:
    """Edge-monitoring probe from an observer to its subject.

    A subject acks the datagram's source and reports it if the probe
    names another view, so nothing reads ``sender``.  ``seq`` is the
    observer's wheel-tick counter, shared by every probe sent in the same
    tick — one frozen message object fans out to all of the tick's
    subjects — and nothing reads it either: a subject answers with a
    :class:`ProbeAck` that does not echo it.  Both stay on the wire only
    because ``benchmarks/kernels.py`` builds probes with them, until
    ROADMAP item 7 (i) drops them.
    """

    sender: Endpoint
    config_id: U64
    seq: int


@dataclass(frozen=True)
class ProbeAck:
    """Subject's batched reply to every observer that probed it recently.

    An ack names no sender: its sender is its datagram's source, the
    subject's advertised endpoint in every runtime.  Acks ride the
    subject's own probe-wheel tick: probes received since the last tick
    are answered with *one* message fanned out to all of their sources,
    so ack content cannot be observer-specific.  An observer credits an
    ack to whatever probe it has outstanding for the source (at most one
    per subject); a stale ack that outlived its probe's expiry, or one
    from a process the observer does not watch, finds nothing outstanding
    and is ignored.

    ``bootstrapping`` is true when the ack came from a process that is
    not (yet) active in a view, which answers each probe at once.  An
    observer counts such an ack as a success only up to
    ``PROBE_BOOTSTRAP_BUDGET`` in a row per subject and as a failure past
    it, so a departed process that keeps answering fails out of the view;
    and it never reports such an ack's ``config_id`` as another view, as
    its sender watches none.
    """

    config_id: U64
    bootstrapping: bool = False


@dataclass(frozen=True)
class Alert:
    """An irrevocable edge alert broadcast by an observer about a subject.

    The cut detector tallies *rings*, not observer addresses (in small
    clusters one observer can represent several rings), and a receiver
    works out the rings on which ``observer`` precedes ``subject`` from
    its own topology of the view: an alert in a batch names none.
    Nothing reads ``ring_numbers``.  It stays only because
    ``benchmarks/kernels.py`` builds alerts with it, until ROADMAP item
    7 (c) drops it.
    """

    observer: Endpoint
    subject: Endpoint
    kind: Kind
    config_id: U64
    ring_numbers: tuple[int, ...] = ()
    joiner_uuid: U64 = 0
    metadata: Metadata = ()  # for JOIN alerts


#: What an alert inside a :class:`BatchedAlerts` leaves to its batch: each
#: alert field here is carried once, as the paired field of the batch.
_FROM_BATCH = (("observer", "sender"), ("config_id", "config_id"))
#: A JOIN alert of a batch: it goes without what the batch names, without
#: its kind and without rings (the receiver derives them from its view's
#: topology), and its subject travels in the column of its tuple's
#: subjects, in the order the alerts were raised: of dotted quads, the
#: first 6 B and each later one a zigzag address and port delta from the
#: one before (about 3 B instead of 7); of any other hosts, plain.
BatchedJoin = Annotated[
    Alert, _FROM_BATCH, (("kind", AlertKind.JOIN), ("ring_numbers", ())), "subject"
]
#: A REMOVE alert of a batch: its subject, in its tuple's column, and
#: nothing else.  A removal has no joiner, so its ``joiner_uuid`` and
#: ``metadata`` are pinned empty too.
BatchedRemove = Annotated[
    Alert,
    _FROM_BATCH,
    (
        ("kind", AlertKind.REMOVE),
        ("ring_numbers", ()),
        ("joiner_uuid", 0),
        ("metadata", ()),
    ),
    "subject",
]


@dataclass(frozen=True)
class BatchedAlerts:
    """Alerts buffered over the batching window and sent as one message.

    Invariant: every alert of a batch was raised by its ``sender`` in the
    view ``config_id`` (``alert.observer == sender`` and ``alert.config_id
    == config_id``), so the wire names the observer and the view once per
    batch; and ``joins`` holds its JOIN alerts, ``removes`` its REMOVE
    alerts, so no alert names its kind.  No alert names rings either:
    they are a function of the view, the observer and the subject.  A batch never spans two views:
    installing a view drops the alerts still buffered.
    """

    sender: Endpoint
    config_id: U64
    joins: tuple[BatchedJoin, ...] = ()
    removes: tuple[BatchedRemove, ...] = ()


# --------------------------------------------------------------------- join


@dataclass(frozen=True)
class PreJoinRequest:
    """Joiner -> seed: discover configuration and temporary observers."""

    sender: Endpoint
    uuid: U64


@dataclass(frozen=True)
class PreJoinResponse:
    """Seed -> joiner: the observers that will vouch for the join.

    On ``UUID_IN_USE``, ``conflict_uuid`` names the logical id the view
    already holds for the joiner's *own* endpoint (0 when the conflict is
    someone else holding the requested uuid).  A joiner that recognizes
    the conflicting id as one of its own earlier attempts adopts it —
    its join already succeeded and only the response was lost — instead
    of minting fresh identities against its own admission forever.
    """

    sender: Endpoint
    status: Status
    config_id: U64
    observers: tuple[Endpoint, ...] = ()
    conflict_uuid: U64 = 0


@dataclass(frozen=True)
class JoinRequest:
    """Joiner -> temporary observer: please broadcast a JOIN alert.

    The observer works out its own rings from the topology of
    ``config_id``; ``metadata`` is the joiner's role table, carried in the
    JOIN alert to every decider.
    """

    sender: Endpoint
    uuid: U64
    config_id: U64
    metadata: Metadata = ()


@dataclass(frozen=True)
class ViewSnapshot:
    """A full membership view as shipped to joiners.

    One frozen snapshot per configuration is built by a responder and
    shared by *every* ``JoinResponse`` of that view (mass bootstraps admit
    hundreds of joiners per cut): members admitted in the same decision
    share one members/uuids/metadata table instead of per-response copies,
    and the simulated network memoizes the snapshot's wire size on the
    object so sizing a response is O(1) after the first.

    ``metadata`` is the join-time application metadata table,
    ``((endpoint, ((key, value), ...)), ...)`` sorted by endpoint, holding
    only members that advertised a non-empty table.
    """

    members: EndpointSet = ()
    uuids: tuple[U64, ...] = ()  # aligned with members
    seq: int = 0
    metadata: MetadataTable = ()


@dataclass(frozen=True)
class JoinResponse:
    """Member -> joiner after the view change admitting it was decided.

    A ``SAFE_TO_JOIN`` response carries the admitting view as its
    :class:`ViewSnapshot`, the same one for a first-time joiner and a
    rejoiner; the joiner installs it only if it hashes to ``config_id``.
    CONFIG_CHANGED and other non-admission statuses carry none.
    """

    sender: Endpoint
    status: Status
    config_id: U64
    view: Optional[ViewSnapshot] = None


@dataclass(frozen=True)
class LeaveNotification:
    """Voluntarily departing node -> its observers, who then broadcast
    REMOVE alerts on its behalf (graceful leave); each observer works out
    its own rings."""

    sender: Endpoint
    config_id: U64


# ---------------------------------------------------------------- consensus


@dataclass(frozen=True)
class VoteBundle:
    """Aggregated fast-path votes, gossiped until a quorum is observed.

    ``ids`` and ``bitmaps`` are parallel tuples: ``bitmaps[i]`` is an
    integer whose set bits are the membership indices of nodes known to have
    voted for the cut whose :func:`cut_id` is ``ids[i]``.  Merging bundles
    is a bitwise OR, so the aggregate only grows — exactly the paper's
    "gossip to disseminate and aggregate a bitmap of votes for each unique
    proposal".  Every voter computed its cut itself, so naming it is enough.

    A bundle need not carry a node's whole aggregate: in gossip mode the
    sender transmits **delta bundles** holding only the bits the recipient
    has not been shown yet (see :mod:`repro.core.fast_paxos`).  OR-merge
    semantics make full and delta bundles indistinguishable to a receiver.

    ``bodies`` is empty except in the reply to a :class:`VotePull` whose
    ``want`` asked for some: the one place a vote message spells a cut out.
    """

    sender: Endpoint
    config_id: U64
    ids: tuple[U64, ...] = ()
    bitmaps: tuple[Bitmap, ...] = ()
    bodies: tuple[Proposal, ...] = ()


@dataclass(frozen=True)
class VotePull:
    """Pull-gossip digest request: "here is my aggregate — what am I missing?".

    ``ids``/``bitmaps`` carry the requester's full vote aggregate (the
    digest).  The receiver OR-merges it like any bundle — a pull is also
    information — and replies with a :class:`VoteBundle` containing
    exactly the bits the digest lacks, or a :class:`Decision` once one is
    known.  Stale nodes use this to fetch the convergence tail instead of
    sitting silent until the classical-Paxos fallback timer.  ``want``
    lists cuts the requester must decide but never computed; the reply
    carries their bodies.
    """

    sender: Endpoint
    config_id: U64
    ids: tuple[U64, ...] = ()
    bitmaps: tuple[Bitmap, ...] = ()
    want: tuple[U64, ...] = ()


@dataclass(frozen=True)
class Decision:
    """Learn message: tells a process still counting votes for
    ``config_id`` which cut closed it, so the laggard adopts the view change
    without re-counting.  ``body`` is empty unless the laggard asked for it
    (a :class:`VotePull` whose ``want`` names ``cut_id``)."""

    sender: Endpoint
    config_id: U64
    cut_id: U64
    body: Proposal = ()


@dataclass(frozen=True)
class Phase1a:
    """Classical Paxos prepare from a recovery coordinator."""

    sender: Endpoint
    config_id: U64
    rank: Rank


@dataclass(frozen=True)
class Phase1b:
    """Acceptor promise; carries the highest-rank accepted vote, which may
    be the node's fast-round vote (rank ``(1, 0)``)."""

    sender: Endpoint
    config_id: U64
    rank: Rank
    vrank: Optional[Rank] = None
    vvalue: Optional[Proposal] = None


@dataclass(frozen=True)
class Phase2a:
    """Coordinator accept-request with the value chosen by the recovery
    value-picking rule."""

    sender: Endpoint
    config_id: U64
    rank: Rank
    value: Proposal = ()


@dataclass(frozen=True)
class Phase2b:
    """Acceptor accept acknowledgement; a majority naming one cut at one
    rank decides.  The cut goes by its :func:`cut_id`, like a vote: every
    acceptor filed the body from the :class:`Phase2a`, so an all-to-all
    accept round is fixed-size datagrams however large the cut."""

    sender: Endpoint
    config_id: U64
    rank: Rank
    cut_id: U64


# ------------------------------------------------- logically centralized


@dataclass(frozen=True)
class ViewProbe:
    """Cluster member -> ensemble: "is there a view newer than mine?"."""

    sender: Endpoint
    config_id: U64


@dataclass(frozen=True)
class ViewUpdate:
    """Ensemble -> cluster member: the authoritative membership view.

    ``metadata`` is the view's role table, as in :class:`ViewSnapshot`.
    """

    sender: Endpoint
    config_id: U64
    members: EndpointSet = ()
    uuids: tuple[U64, ...] = ()
    seq: int = 0
    metadata: MetadataTable = ()
