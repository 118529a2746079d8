"""Classical single-decree Paxos — Rapid's consensus recovery path.

When the fast path of :mod:`repro.core.fast_paxos` cannot decide (conflicting
cut proposals, or too many votes lost), nodes fall back to classical Paxos
(paper section 4.3).  The subtlety is that fast-round votes count as
accepted values at rank ``(1, 0)``, so a recovery coordinator must pick its
Phase 2 value with Lamport's Fast Paxos coordinator rule rather than plain
"highest accepted value" — otherwise it could contradict a value already
chosen by a three-quarters fast quorum it cannot see in full.

Ranks are ``(round, node_index)`` pairs ordered lexicographically; the fast
round is round 1, recovery rounds start at 2.  Node index breaks ties so
two would-be coordinators never share a rank.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.messages import (
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Proposal,
)
from repro.core.node_id import Endpoint

__all__ = ["PaxosInstance", "classic_quorum_size", "fast_quorum_size", "recovery_threshold", "select_recovery_value"]


def classic_quorum_size(n: int) -> int:
    """Majority quorum for classical rounds."""
    return n // 2 + 1


def fast_quorum_size(n: int) -> int:
    """Fast Paxos quorum: ``N - floor(N/4)``, i.e. at least three quarters."""
    return n - n // 4


def recovery_threshold(n: int) -> int:
    """Minimum occurrences of a fast-round value among a classical quorum of
    Phase1b responses for that value to possibly have been fast-chosen:
    ``Qf + Qc - N``."""
    return fast_quorum_size(n) + classic_quorum_size(n) - n


def select_recovery_value(
    responses: Sequence[Phase1b],
    n: int,
    fallback: Proposal,
) -> Proposal:
    """Lamport's coordinator value-selection rule for Fast Paxos recovery.

    Given Phase1b responses from a classical quorum: restrict to responses
    carrying the maximum accepted rank.  If that rank is a classical round,
    its value is unique and must be chosen.  If it is the fast round,
    multiple values may appear; a value that occurs at least
    ``recovery_threshold(n)`` times *may* have been chosen by a fast quorum
    and must be preferred (at most one value can reach the threshold).
    Otherwise nothing was chosen and ``fallback`` is free to be proposed.
    """
    voted = [r for r in responses if r.vrank is not None]
    if not voted:
        return fallback
    max_rank = max(r.vrank for r in voted)
    candidates = [r.vvalue for r in voted if r.vrank == max_rank]
    if max_rank[0] != 1:
        # Classical round: a single value can have been accepted at this rank.
        return candidates[0]
    counts: dict[Proposal, int] = {}
    for value in candidates:
        counts[value] = counts.get(value, 0) + 1
    threshold = recovery_threshold(n)
    best = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
    if best[1] >= threshold:
        return best[0]
    return fallback


class PaxosInstance:
    """One classical Paxos instance (proposer + acceptor + learner roles).

    The instance is scoped to a single configuration: ``index`` is the
    acceptor set as the view's shared ``{endpoint: position}`` map (read
    only), ``my_index`` this node's position in it — constructing an
    instance for a non-acceptor raises ``KeyError``.  The owner wires
    ``send`` / ``broadcast`` to the transport and receives the decision via
    ``on_decide`` exactly once.

    A node's fast-round vote is registered with
    :meth:`register_fast_round_vote` so that Phase1b responses expose it.
    """

    def __init__(
        self,
        addr: Endpoint,
        index: dict,
        config_id: int,
        send: Callable[[Endpoint, object], None],
        broadcast: Callable[[object], None],
        on_decide: Callable[[Proposal], None],
    ) -> None:
        self.addr = addr
        self.n = len(index)
        self.my_index: int = index[addr]
        self.config_id = config_id
        self._send = send
        self._broadcast = broadcast
        self._on_decide = on_decide
        #: What this node proposes when a recovery finds nothing chosen:
        #: its fast-round vote, else whatever its owner sets.
        self.my_proposal: Proposal = ()
        # Acceptor state.
        self.promised_rank: tuple = (0, 0)
        self.accepted_rank: Optional[tuple] = None
        self.accepted_value: Optional[Proposal] = None
        # Coordinator state.
        self._phase1b: dict[tuple, list] = {}
        self._phase1b_senders: dict[tuple, set] = {}
        self._phase2b: dict[tuple, dict] = {}
        # Per-rank {value: acceptor count}, maintained incrementally so a
        # recovery at large N never rescans the acceptor map per message.
        self._phase2b_counts: dict[tuple, dict] = {}
        self.decided = False
        self.decision: Optional[Proposal] = None

    # -------------------------------------------------------------- fast link

    def register_fast_round_vote(self, value: Proposal) -> None:
        """Record this node's fast-path vote as an accepted value at the
        fast round's rank, as Fast Paxos requires."""
        fast_rank = (1, 0)
        if self.promised_rank < fast_rank:
            self.promised_rank = fast_rank
        if self.accepted_rank is None or self.accepted_rank < fast_rank:
            self.accepted_rank = fast_rank
            self.accepted_value = value
        if not self.my_proposal:
            self.my_proposal = value

    # ------------------------------------------------------------- coordinator

    def start_round(self, round_number: int) -> tuple:
        """Begin coordinating recovery round ``round_number`` (2 or later);
        returns the rank used."""
        rank = (round_number, self.my_index)
        self._phase1b.setdefault(rank, [])
        self._phase1b_senders.setdefault(rank, set())
        self._broadcast(Phase1a(sender=self.addr, config_id=self.config_id, rank=rank))
        return rank

    # ---------------------------------------------------------------- handlers

    def handle(self, src: Endpoint, msg: object) -> None:
        """Dispatch a Paxos message to the appropriate role handler."""
        if self.decided:
            return
        if isinstance(msg, Phase1a):
            self._on_phase1a(src, msg)
        elif isinstance(msg, Phase1b):
            self._on_phase1b(src, msg)
        elif isinstance(msg, Phase2a):
            self._on_phase2a(src, msg)
        elif isinstance(msg, Phase2b):
            self._on_phase2b(src, msg)

    def _on_phase1a(self, src: Endpoint, msg: Phase1a) -> None:
        if msg.rank > self.promised_rank:
            self.promised_rank = msg.rank
            self._send(
                src,
                Phase1b(
                    sender=self.addr,
                    config_id=self.config_id,
                    rank=msg.rank,
                    vrank=self.accepted_rank,
                    vvalue=self.accepted_value,
                ),
            )

    def _on_phase1b(self, src: Endpoint, msg: Phase1b) -> None:
        responses = self._phase1b.get(msg.rank)
        if responses is None:
            return  # not a rank we are coordinating
        senders = self._phase1b_senders[msg.rank]
        if msg.sender in senders:
            return
        senders.add(msg.sender)
        responses.append(msg)
        if len(responses) == classic_quorum_size(self.n):
            value = select_recovery_value(responses, self.n, self.my_proposal)
            self._broadcast(
                Phase2a(
                    sender=self.addr,
                    config_id=self.config_id,
                    rank=msg.rank,
                    value=value,
                )
            )

    def _on_phase2a(self, src: Endpoint, msg: Phase2a) -> None:
        if msg.rank >= self.promised_rank:
            self.promised_rank = msg.rank
            self.accepted_rank = msg.rank
            self.accepted_value = msg.value
            self._broadcast(
                Phase2b(
                    sender=self.addr,
                    config_id=self.config_id,
                    rank=msg.rank,
                    value=msg.value,
                )
            )

    def _on_phase2b(self, src: Endpoint, msg: Phase2b) -> None:
        votes = self._phase2b.setdefault(msg.rank, {})
        counts = self._phase2b_counts.setdefault(msg.rank, {})
        previous = votes.get(msg.sender)
        if previous is not None:
            if previous == msg.value:
                return  # duplicate accept; the count already includes it
            counts[previous] -= 1
        votes[msg.sender] = msg.value
        count = counts.get(msg.value, 0) + 1
        counts[msg.value] = count
        if count >= classic_quorum_size(self.n):
            self._decide(msg.value)

    def _decide(self, value: Proposal) -> None:
        # Reached once: ``handle`` drops everything after a decision.
        self.decided = True
        self.decision = value
        self._on_decide(value)
