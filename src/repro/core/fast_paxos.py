"""Leaderless view-change consensus (paper section 4.3).

The fast path is Fast Paxos with the explicit proposer removed: every
process uses its own cut-detection output as its fast-round vote.  Votes are
disseminated as bitmaps — one bit per membership index — and aggregated by
bitwise OR, so any process that observes a proposal endorsed by at least
``N - floor(N/4)`` members decides in a single message delay with no leader
and no further communication: "the VC protocol converges simply by counting
the number of identical CD proposals".

Dissemination is scale-adaptive, chosen per view by the instance's owner
(``RapidSettings.use_gossip``).  Below the gossip threshold each voter
broadcasts its aggregate once and repairs loss with periodic gossip — one
message delay in the common case, O(N) messages per voter.  At or above the
threshold the gossip counting step *is* the dissemination path, as in the
paper's large deployments: no initial broadcast storm, only periodic pushes
of **delta bundles** — each peer is
sent only the proposals/bitmap bits it has not been shown yet — to
``gossip_fanout`` random peers.  Aggregates compound bitwise-OR along the
way, so every vote reaches every node in O(log N) rounds and a view change
costs O(N · log N · fanout) VoteBundle deliveries instead of the O(N²) an
all-to-all broadcast would take.  Ticking stops once the local aggregate has
converged (no new bits learned for ``gossip_convergence_ticks`` intervals,
or a quorum reached); a straggler whose push teaches us nothing is repaired
reactively with a delta of the bits it is missing.

Push gossip alone leaves a convergence *tail*: a node that is missing bits
but has nothing new to push goes silent and can only wait for a random
push to find it (or, worst case, the classical-Paxos fallback timer).  The
**pull-gossip round** closes it: a stale tick sends a
:class:`~repro.core.messages.VotePull` digest (the node's full aggregate)
to ``gossip_pull_fanout`` random peers, and the receiver — after OR-merging
the digest like any bundle — replies with exactly the bits the digest
lacks, or the :class:`~repro.core.messages.Decision` once one is known.
After local convergence an undecided node drops to a slow pull heartbeat
(``RapidSettings.pull_interval``) instead of going fully quiet.  Pulls ride
the gossip counting step, so they run exactly when it does.

Quorum counting is incremental: each proposal's endorsement count is
maintained as bits are merged (``new = bitmap & ~old``), so a quorum check
is O(changed bits) per merge rather than an O(N-bit) popcount scan of every
bitmap on every message.

Because cut detection agrees almost everywhere, the fast path is the common
case.  If votes conflict or too many are lost, a staggered timeout sends
nodes into the classical Paxos recovery path (:mod:`repro.core.paxos`),
seeded with their fast-round votes so the recovery cannot contradict a
fast-quorum decision.

Laggards whose vote messages were lost are repaired reactively: a process
that keeps gossiping votes for a configuration its peers already moved past
receives a :class:`~repro.core.messages.Decision` learn message back (see
``RapidNode._on_consensus``), which this instance adopts directly.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.broadcaster import make_fanout
from repro.core.messages import (
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Proposal,
    VoteBundle,
    VotePull,
)
from repro.core.node_id import Endpoint
from repro.core.paxos import PaxosInstance, fast_quorum_size
from repro.core.settings import RapidSettings
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.runtime.base import Runtime

__all__ = ["DecisionLog", "FastPaxos"]


class DecisionLog:
    """The cuts that closed a process's recent configurations.

    One link per decided view change, ``{old_config_id: (new_config_id,
    body)}``, oldest first.  It serves both readers of "what came after
    configuration X": laggard repair hands a process still deciding X the
    :class:`~repro.core.messages.Decision` that closed it, and a rejoiner's
    :class:`~repro.core.messages.ViewDelta` is composed by walking the
    links from its advertised base.  A link is O(cut) bytes, so the log
    reaches ``DEPTH`` view changes back — far further than whole
    configurations could be kept.
    """

    DEPTH = 32

    def __init__(self) -> None:
        self.links: dict[int, tuple] = {}

    def record(self, old_id: int, new_id: int, body: Proposal) -> None:
        """Append the link ``old_id -> new_id``; the oldest falls off."""
        self.links[old_id] = (new_id, body)
        if len(self.links) > self.DEPTH:
            del self.links[next(iter(self.links))]

    def learn(self, sender: Endpoint, config_id: int) -> Optional[Decision]:
        """The learn message that closed ``config_id``, if still held."""
        link = self.links.get(config_id)
        if link is None:
            return None
        return Decision(sender=sender, config_id=config_id, value=link[1])


class FastPaxos:
    """One consensus instance, scoped to a single configuration.

    Parameters
    ----------
    runtime:
        Timers and addressing.
    members:
        The acceptor set (the current configuration's membership).
    config_id:
        Identifier of the configuration this instance decides for.
    broadcast:
        Cluster-wide dissemination callable (alert broadcaster is reused).
    on_decide:
        Invoked exactly once with the decided proposal.
    gossip:
        Whether this view disseminates votes by gossip (delta bundles and
        pulls, no initial broadcast storm) rather than one aggregate
        broadcast per voter.
    metrics:
        Registry receiving ``consensus.*`` counters and the decision
        latency histogram (virtual time; disabled by default).
    index:
        Optional pre-built ``{endpoint: position}`` map over ``members``
        (e.g. :meth:`repro.core.configuration.Configuration.member_index`).
        Sharing it avoids rebuilding an O(N) dict per node per view
        change; treated as read-only.
    """

    def __init__(
        self,
        runtime: Runtime,
        members: Sequence[Endpoint],
        config_id: int,
        settings: RapidSettings,
        broadcast: Callable[[object], None],
        on_decide: Callable[[Proposal], None],
        gossip: bool,
        metrics: Optional[MetricsRegistry] = None,
        index: Optional[dict] = None,
    ) -> None:
        self.runtime = runtime
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._voted_at: Optional[float] = None
        self.members = tuple(members)
        self.n = len(self.members)
        self.config_id = config_id
        self.settings = settings
        self._broadcast = broadcast
        self._on_decide = on_decide
        self._index = index if index is not None else {
            m: i for i, m in enumerate(self.members)
        }
        self._peers = tuple(m for m in self.members if m != runtime.addr)
        self._fanout = make_fanout(runtime)
        self.my_vote: Optional[Proposal] = None
        self.votes: dict[Proposal, int] = {}
        # Incremental popcounts of `votes` bitmaps: maintained by _merge so
        # quorum checks never rescan an N-bit bitmap.
        self._counts: dict[Proposal, int] = {}
        self.gossip_mode = gossip
        # Per-peer dissemination ledger (gossip mode): bits each peer has
        # been shown by us or has shown us, so pushes carry only deltas.
        self._shown: dict[Endpoint, dict[Proposal, int]] = {}
        self._stale_ticks = 0
        self._learned_since_tick = False
        self._m_bundles_tx = self.metrics.counter("consensus.vote_bundles_sent")
        self._m_bundles_rx = self.metrics.counter("consensus.vote_bundles_received")
        self._m_pulls_tx = self.metrics.counter("consensus.vote_pulls_sent")
        self._m_pull_replies = self.metrics.counter("consensus.vote_pull_replies")
        self.decided = False
        self.decision: Optional[Proposal] = None
        self._fallback_timer = None
        self._gossip_timer = None
        self._fallback_attempts = 0
        self.used_fallback = False
        self.paxos = PaxosInstance(
            addr=runtime.addr,
            members=self.members,
            config_id=config_id,
            send=runtime.send,
            broadcast=broadcast,
            on_decide=self._decide,
        )

    # ---------------------------------------------------------------- voting

    @property
    def fast_quorum(self) -> int:
        """Votes required to decide in the fast round: N - floor(N/4)."""
        return fast_quorum_size(self.n)

    def propose(self, proposal: Proposal) -> None:
        """Cast this node's fast-round vote (its CD output).

        Votes are irrevocable within a configuration; repeat calls with a
        different proposal are ignored, mirroring the irrevocability of the
        alerts beneath them.
        """
        if self.decided or self.my_vote is not None:
            return
        if self.runtime.addr not in self._index:
            return  # joiners do not vote
        self.my_vote = proposal
        self._voted_at = self.runtime.now()
        self.metrics.counter("consensus.votes_cast").inc()
        self.paxos.register_fast_round_vote(proposal)
        self._merge(proposal, 1 << self._index[self.runtime.addr])
        if self.gossip_mode:
            # No broadcast storm at scale: push a first round of deltas
            # now, then let the gossip ticks carry the counting step.
            self._push_deltas()
        else:
            self._send_aggregate()
        self._arm_fallback()
        self._arm_gossip()
        self._check_quorum()

    # -------------------------------------------------------------- messages

    def handle(self, src: Endpoint, msg: object) -> None:
        """Feed a consensus-related message into this instance."""
        if isinstance(msg, VoteBundle):
            self._on_votes(msg)
        elif isinstance(msg, VotePull):
            if msg.config_id == self.config_id:
                self._on_pull(msg)
        elif isinstance(msg, Decision):
            if msg.config_id == self.config_id:
                self._decide(msg.value)
        elif isinstance(msg, (Phase1a, Phase1b, Phase2a, Phase2b)):
            if msg.config_id == self.config_id:
                self.used_fallback = True
                self.paxos.handle(src, msg)

    def _on_votes(self, msg: VoteBundle) -> None:
        if msg.config_id != self.config_id:
            return
        if msg.sender != self.runtime.addr:
            # Own broadcasts are delivered locally too; only bundles that
            # crossed the wire count, so tx and rx stay reconcilable.
            self._m_bundles_rx.inc()
        if self.decided:
            if self.gossip_mode and msg.sender != self.runtime.addr:
                # A peer still gossiping votes for a round we decided is a
                # straggler; hand it the decision directly (the same learn
                # message RapidNode uses to repair laggards of *past*
                # configurations).  One small reply per incoming bundle,
                # and the sender stops gossiping the moment it adopts it.
                self.runtime.send(
                    msg.sender,
                    Decision(
                        sender=self.runtime.addr,
                        config_id=self.config_id,
                        value=self.decision,
                    ),
                )
            return
        learned = 0
        if self.gossip_mode:
            # Whatever the sender shows us, it evidently has: fold it into
            # the per-peer ledger so we never push those bits back.
            shown = self._shown.get(msg.sender)
            if shown is None:
                shown = self._shown[msg.sender] = {}
            for proposal, bitmap in zip(msg.proposals, msg.bitmaps):
                learned |= self._merge(proposal, bitmap)
                shown[proposal] = shown.get(proposal, 0) | bitmap
        else:
            for proposal, bitmap in zip(msg.proposals, msg.bitmaps):
                learned |= self._merge(proposal, bitmap)
        if learned:
            self._learned_since_tick = True
            self._stale_ticks = 0
        self._arm_fallback()
        self._arm_gossip()
        self._check_quorum()
        if self.gossip_mode and not self.decided and not learned:
            # The sender is behind us (its push taught us nothing).  Repair
            # it reactively with exactly the bits it is missing; the ledger
            # update above makes this a one-shot reply, not a ping-pong.
            reply = self._delta_for(msg.sender)
            if reply is not None:
                self.runtime.send(msg.sender, reply)
                self._m_bundles_tx.inc()

    def _on_pull(self, msg: VotePull) -> None:
        """Serve a pull: merge the digest, reply with the bits it lacks.

        A digest is also information — the requester's whole aggregate —
        so it is OR-merged like any bundle and folded into the per-peer
        ledger before computing the reply delta.  A decided node replies
        with the decision instead (the requester is by definition
        behind).
        """
        if self.decided:
            self.runtime.send(
                msg.sender,
                Decision(
                    sender=self.runtime.addr,
                    config_id=self.config_id,
                    value=self.decision,
                ),
            )
            return
        shown = self._shown.get(msg.sender)
        if shown is None:
            shown = self._shown[msg.sender] = {}
        learned = 0
        for proposal, bitmap in zip(msg.proposals, msg.bitmaps):
            learned |= self._merge(proposal, bitmap)
            shown[proposal] = shown.get(proposal, 0) | bitmap
        if learned:
            self._learned_since_tick = True
            self._stale_ticks = 0
        reply = self._delta_for(msg.sender)
        if reply is not None:
            self.runtime.send(msg.sender, reply)
            self._m_bundles_tx.inc()
            self._m_pull_replies.inc()
        self._arm_fallback()
        self._arm_gossip()
        self._check_quorum()

    def _merge(self, proposal: Proposal, bitmap: int) -> int:
        """OR ``bitmap`` into the aggregate; returns the newly set bits.

        The endorsement count is maintained incrementally from the new
        bits, so callers (and :meth:`_check_quorum`) never popcount a full
        N-bit bitmap on the hot path.
        """
        old = self.votes.get(proposal, 0)
        new = bitmap & ~old
        if new:
            self.votes[proposal] = old | bitmap
            self._counts[proposal] = self._counts.get(proposal, 0) + new.bit_count()
        return new

    def _check_quorum(self) -> None:
        if self.decided:
            return
        quorum = self.fast_quorum
        for proposal, count in self._counts.items():
            if count >= quorum:
                self._decide(proposal)
                return

    # ------------------------------------------------------------ fallback

    def _arm_fallback(self) -> None:
        if self.decided or self._fallback_timer is not None:
            return
        rank_index = self._index.get(self.runtime.addr, self.n)
        delay = (
            self.settings.consensus_fallback_timeout
            + self.settings.consensus_rank_delay * rank_index
        )
        self._fallback_timer = self.runtime.schedule(delay, self._fallback)

    def _fallback(self) -> None:
        """Fast path timed out: coordinate a classical recovery round."""
        self._fallback_timer = None
        if self.decided or self.runtime.addr not in self._index:
            return
        self.used_fallback = True
        self._fallback_attempts += 1
        self.metrics.counter("consensus.fallback_rounds").inc()
        if not self.paxos.my_proposal:
            fallback_value = self._most_endorsed()
            if fallback_value is None:
                self._fallback_timer = self.runtime.schedule(
                    self.settings.consensus_fallback_timeout, self._fallback
                )
                return
            self.paxos.my_proposal = fallback_value
        self.paxos.start_round(1 + self._fallback_attempts)
        self._fallback_timer = self.runtime.schedule(
            self.settings.consensus_fallback_timeout
            + self.settings.consensus_rank_delay * self._index.get(self.runtime.addr, 0),
            self._fallback,
        )

    def _most_endorsed(self) -> Optional[Proposal]:
        if not self._counts:
            return None
        return max(self._counts.items(), key=lambda kv: (kv[1], kv[0]))[0]

    # --------------------------------------------------------------- gossip

    def _arm_gossip(self) -> None:
        """Periodically push votes to a few random peers until the round
        decides; this is the paper's gossip-based counting step.  In gossip
        mode it is the *primary* dissemination path (delta bundles); in
        unicast mode it only repairs vote loss under UDP semantics."""
        if self.decided or self._gossip_timer is not None:
            return
        self._gossip_timer = self.runtime.schedule(
            self.settings.gossip_interval, self._gossip_tick
        )

    def _gossip_tick(self) -> None:
        self._gossip_timer = None
        if self.decided or not self.votes:
            return
        if self.gossip_mode:
            if self._learned_since_tick:
                self._learned_since_tick = False
                self._stale_ticks = 0
            else:
                self._stale_ticks += 1
                # A quiet interval means pushes stopped teaching us;
                # actively fetch what we might be missing.
                self._send_pulls()
                if self._stale_ticks >= self.settings.gossip_convergence_ticks:
                    # Converged: nothing new learned for k intervals.  Push
                    # gossip goes quiet — an incoming bundle with new bits
                    # re-arms it — but an undecided node keeps a slow pull
                    # heartbeat so the tail is fetched rather than waited
                    # out until the fallback timer.
                    self._gossip_timer = self.runtime.schedule(
                        self.settings.pull_interval(), self._gossip_tick
                    )
                    return
            self._push_deltas()
        else:
            bundle = self._aggregate()
            peers = self._peers
            if peers:
                count = min(self.settings.gossip_fanout, len(peers))
                self._fanout(self.runtime.rng.sample(peers, count), bundle)
                self._m_bundles_tx.inc(count)
        self._gossip_timer = self.runtime.schedule(
            self.settings.gossip_interval, self._gossip_tick
        )

    def _push_deltas(self) -> None:
        """Send each of ``gossip_fanout`` random peers the bits it lacks."""
        peers = self._peers
        if not peers:
            return
        count = min(self.settings.gossip_fanout, len(peers))
        send = self.runtime.send
        for peer in self.runtime.rng.sample(peers, count):
            bundle = self._delta_for(peer)
            if bundle is not None:
                send(peer, bundle)
                self._m_bundles_tx.inc()

    def _send_pulls(self) -> None:
        """Send our aggregate as a digest to ``gossip_pull_fanout`` peers.

        The digest doubles as a push (receivers merge it), so the bits it
        carries are optimistically marked shown for each pulled peer —
        the same at-most-once bookkeeping ``_delta_for`` applies to
        pushes; a lost datagram is repaired through other partners.
        """
        peers = self._peers
        if not peers or not self.votes:
            return
        count = min(self.settings.gossip_pull_fanout, len(peers))
        digest = VotePull(
            sender=self.runtime.addr,
            config_id=self.config_id,
            proposals=tuple(self.votes.keys()),
            bitmaps=tuple(self.votes.values()),
        )
        for peer in self.runtime.rng.sample(peers, count):
            shown = self._shown.get(peer)
            if shown is None:
                shown = self._shown[peer] = {}
            for proposal, bitmap in zip(digest.proposals, digest.bitmaps):
                shown[proposal] = shown.get(proposal, 0) | bitmap
            self.runtime.send(peer, digest)
        self._m_pulls_tx.inc(count)

    def _delta_for(self, peer: Endpoint) -> Optional[VoteBundle]:
        """Bundle of vote bits ``peer`` has not been shown, or ``None``.

        Marks the bits as shown optimistically; if the datagram is lost the
        peer still converges through other gossip partners.
        """
        shown = self._shown.get(peer)
        if shown is None:
            shown = self._shown[peer] = {}
        proposals = []
        deltas = []
        for proposal, bitmap in self.votes.items():
            new = bitmap & ~shown.get(proposal, 0)
            if new:
                proposals.append(proposal)
                deltas.append(new)
                shown[proposal] = shown.get(proposal, 0) | bitmap
        if not proposals:
            return None
        return VoteBundle(
            sender=self.runtime.addr,
            config_id=self.config_id,
            proposals=tuple(proposals),
            bitmaps=tuple(deltas),
        )

    def _aggregate(self) -> VoteBundle:
        proposals = tuple(self.votes.keys())
        return VoteBundle(
            sender=self.runtime.addr,
            config_id=self.config_id,
            proposals=proposals,
            bitmaps=tuple(self.votes[p] for p in proposals),
        )

    def _send_aggregate(self) -> None:
        self._m_bundles_tx.inc(len(self._peers))
        self._broadcast(self._aggregate())

    # --------------------------------------------------------------- decide

    def _decide(self, value: Proposal) -> None:
        if self.decided:
            return
        self.decided = True
        self.decision = value
        if self.metrics.enabled:
            path = "fallback" if self.used_fallback else "fast_path"
            self.metrics.counter(f"consensus.decisions_{path}").inc()
            if self._voted_at is not None:
                self.metrics.histogram("consensus.decision_latency_s").observe(
                    self.runtime.now() - self._voted_at
                )
        self.cancel_timers()
        self._on_decide(value)

    def cancel_timers(self) -> None:
        """Stop fallback/gossip activity (called on decide and teardown)."""
        if self._fallback_timer is not None:
            self._fallback_timer.cancel()
            self._fallback_timer = None
        if self._gossip_timer is not None:
            self._gossip_timer.cancel()
            self._gossip_timer = None
