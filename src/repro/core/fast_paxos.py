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
broadcasts its aggregate once — one message delay in the common case, O(N)
messages per voter, and every member counts every vote, so nobody needs to
be told the outcome; loss is repaired by the pull round below, the one tail
every view runs.  At or above the threshold the gossip counting step *is*
the dissemination path, as in the paper's large deployments: no initial
broadcast storm, only periodic pushes of **delta bundles** — each peer is
sent only the cut ids/bitmap bits it has not been shown yet — to
``gossip_fanout`` random peers.  Aggregates compound bitwise-OR along the
way, so every vote reaches every node in O(log N) rounds and a view change
costs O(N · log N · fanout) VoteBundle deliveries instead of the O(N²) an
all-to-all broadcast would take.  Pushing stops once the local aggregate
has converged (no new bits learned for ``GOSSIP_CONVERGENCE_TICKS``
intervals, or a quorum reached); a straggler whose push teaches us nothing
is repaired reactively with a delta of the bits it is missing.  Here a
voter's first tick falls at a random phase of the interval: every copy
of an alert batch draws its own LAN latency, so a view's voters
typically vote within a millisecond or two of each other, and ticks one
whole interval after the vote would make them count in near lock-step
rounds (measured when a fan-out still reached every member at one instant,
n=1000 under ``flip_flop``: the median decision then came 0.44 s later than
with de-phased ticks).

Either way a voter is left with a convergence *tail*: a node that is
missing bits — a unicast vote lost, or nothing new left to push — can only
wait for a random push to find it (or, worst case, the classical-Paxos
fallback timer).  The **pull round** closes it, by one rule in every view:
a tick that learned no new bit sends a
:class:`~repro.core.messages.VotePull` digest (the node's full aggregate)
to ``GOSSIP_PULL_FANOUT`` random peers, and the receiver — after OR-merging
the digest like any bundle — replies with exactly the bits the digest
lacks, or the :class:`~repro.core.messages.Decision` once it has moved on.
After ``GOSSIP_CONVERGENCE_TICKS`` such ticks an undecided node drops to a
slow pull heartbeat, one pull per convergence window (``gossip_interval ×
GOSSIP_CONVERGENCE_TICKS``), instead of going fully quiet.  A view whose
votes split cannot be repaired by pulling at all — the classical round
decides it — so its voters wait for the fallback timer at that pace.

Quorum counting is incremental: each proposal's endorsement count is
maintained as bits are merged (``new = bitmap & ~old``), so a quorum check
is O(changed bits) per merge rather than an O(N-bit) popcount scan of every
bitmap on every message.

Votes name a cut by its 64-bit :func:`~repro.core.messages.cut_id`; its
*body* (the changes) stays home.  Every voter computed the body itself, so a
vote is a few dozen bytes however large the cut, and merging hashes an
``int``.  A body crosses the wire only on request: a node that counts a
quorum for (or is handed a ``Decision`` naming) a cut it never computed sends
one voter a ``VotePull`` whose ``want`` names the id, asks another on every
gossip tick until answered — the fallback timer stays armed meanwhile — and
installs only a body that hashes back to that id.

Because cut detection agrees almost everywhere, the fast path is the common
case.  If votes conflict or too many are lost, a timeout staggered by
``CONSENSUS_RANK_DELAY`` per membership index sends nodes into the
classical Paxos recovery path (:mod:`repro.core.paxos`), seeded with their
fast-round votes so the recovery cannot contradict a fast-quorum decision.
Its rounds leave by the owner's ``broadcast``, one unicast fan-out in every
view, gossip or not.  ``Phase2a`` and ``Phase1b`` carry a whole cut, one
coordinator's worth per round; the all-to-all ``Phase2b`` names it by id,
so a majority counted for a cut this node never held is a ``want`` like
any other.

Laggards whose vote messages were lost are repaired with a
:class:`~repro.core.messages.Decision` learn message, which this instance
adopts directly.  An instance never sends one: its owner replaces or stops
it the moment it decides, so everything naming a decided view reaches
``ViewChanger.repair``, which answers from the ``DecisionLog`` — every
pull, but a pushed ``VoteBundle`` only in a gossip view: there a push from
a process still voting means it is behind, while in a unicast view it is
the broadcast of a voter that counts every other vote itself — its own
stale tick pulls if it really lags.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.broadcaster import Peers
from repro.core.messages import (
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Proposal,
    VoteBundle,
    VotePull,
    cut_id,
)
from repro.core.node_id import Endpoint
from repro.core.paxos import PaxosInstance, fast_quorum_size
from repro.core.settings import RapidSettings
from repro.obs.metrics import MetricsRegistry
from repro.runtime.base import Runtime

__all__ = ["DecisionLog", "FastPaxos"]

#: Always-reported counters, in the order ``FastPaxos.__init__`` unpacks them.
_COUNTERS = (
    "consensus.vote_bundles_sent",
    "consensus.vote_bundles_received",
    "consensus.vote_pulls_sent",
    "consensus.vote_pull_replies",
    "consensus.body_pulls_sent",
    "consensus.bodies_sent",
    "consensus.bodies_rejected",
    "consensus.wants_unanswered",
)

#: Consecutive gossip intervals without a new vote bit after which the
#: aggregate counts as converged: an undecided instance drops from one pull
#: per interval to one per ``gossip_interval * GOSSIP_CONVERGENCE_TICKS``
#: (and a gossip view stops pushing) until a bundle teaches it new bits.
GOSSIP_CONVERGENCE_TICKS = 5

#: Seconds between the fallback timers of consecutive membership indices:
#: index ``i`` first coordinates a recovery ``consensus_fallback_timeout +
#: CONSENSUS_RANK_DELAY * i`` after it voted, so recoveries rarely duel.
CONSENSUS_RANK_DELAY = 1.0

#: Peers sent a pull digest per stale gossip tick (and per heartbeat after
#: local convergence); each replies with exactly the vote bits the digest
#: lacks, or the decision once known.
GOSSIP_PULL_FANOUT = 1


class DecisionLog(dict):
    """The cuts that closed a process's recent configurations.

    ``{old_config_id: (new_config_id, cut_id, body, gossip)}``, oldest
    first, one link per decided view change; ``gossip`` is whether the
    closed view disseminated its votes by gossip.  Laggard repair
    (:meth:`repro.core.membership.ViewChanger.repair`) is its one reader:
    it answers with the :class:`~repro.core.messages.Decision` that closed
    a past view.  A link is O(cut) bytes, so it reaches further back than
    whole configurations could be kept.
    """

    DEPTH = 32

    def record(
        self, old_id: int, new_id: int, cid: int, body: Proposal, gossip: bool
    ) -> None:
        """Append the link ``old_id -> new_id``; the oldest falls off."""
        self[old_id] = (new_id, cid, body, gossip)
        if len(self) > self.DEPTH:
            del self[next(iter(self))]


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
        Cluster-wide dissemination callable (the node's
        ``Broadcaster.broadcast``, one unicast fan-out): unicast-view
        aggregates and classical rounds.
    on_decide:
        Invoked exactly once with the decided proposal.
    gossip:
        Whether this view disseminates votes by gossip (delta bundles, no
        initial broadcast storm) rather than one aggregate broadcast per
        voter.  Both pull by the same rule.
    metrics:
        Registry receiving ``consensus.*`` counters and the decision
        latency histogram (virtual time; a private one by default).
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
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._voted_at: Optional[float] = None
        self.members = tuple(members)
        self.n = len(self.members)
        #: Votes required to decide in the fast round: N - floor(N/4).
        self.fast_quorum = fast_quorum_size(self.n)
        self.config_id = config_id
        self.settings = settings
        self._broadcast = broadcast
        self._on_decide = on_decide
        self._index = index if index is not None else {
            m: i for i, m in enumerate(self.members)
        }
        self._peers = Peers(self.members, runtime.addr, self._index)
        self.my_vote: Optional[Proposal] = None
        #: The vote aggregate: one bitmap of voters per cut id.
        self.votes: dict[int, int] = {}
        # Incremental popcounts of `votes` bitmaps: maintained by _merge so
        # quorum checks never rescan an N-bit bitmap.
        self._counts: dict[int, int] = {}
        #: Bodies of the cuts this node can spell out, by id: its own
        #: vote, values met in classical rounds, bodies it asked for.
        self._bodies: dict[int, Proposal] = {}
        #: Id of the cut known to be chosen whose body is still missing,
        #: and the last process that told us so (it holds the body).
        self._want: Optional[int] = None
        self._want_from: Optional[Endpoint] = None
        self.gossip_mode = gossip
        # Per-peer dissemination ledger (gossip mode): bits each peer has
        # been shown by us or has shown us, so pushes carry only deltas.
        self._shown: dict[Endpoint, dict[int, int]] = {}
        self._stale_ticks = 0
        self._learned_since_tick = False
        (
            self._m_bundles_tx,
            self._m_bundles_rx,
            self._m_pulls_tx,
            self._m_pull_replies,
            self._m_body_pulls,
            self._m_bodies_tx,
            self._m_bodies_rejected,
            self._m_wants_unanswered,
        ) = self.instruments(self.metrics)
        self.decided = False
        self.decision: Optional[Proposal] = None
        self.decision_id = 0
        self._fallback_timer = None
        self._gossip_timer = None
        self._fallback_attempts = 0
        self.used_fallback = False
        # Only an acceptor has an instance (``KeyError`` otherwise); its
        # position there is also its vote bit and its fallback stagger.
        self.paxos = PaxosInstance(
            addr=runtime.addr,
            index=self._index,
            config_id=config_id,
            send=runtime.send,
            broadcast=broadcast,
        )

    @staticmethod
    def instruments(metrics: MetricsRegistry) -> tuple:
        """The counters every instance reports, resolved from ``metrics``."""
        return tuple(map(metrics.counter, _COUNTERS))

    # ---------------------------------------------------------------- voting

    def propose(self, proposal: Proposal) -> None:
        """Cast this node's fast-round vote (its CD output).

        Votes are irrevocable within a configuration; repeat calls with a
        different proposal are ignored, mirroring the irrevocability of the
        alerts beneath them.
        """
        if self.decided or self.my_vote is not None:
            return
        cid = self._hold(proposal)
        if self.decided:
            return  # it was the body a counted quorum was waiting for
        self.my_vote = proposal
        self._voted_at = self.runtime.now()
        self.metrics.counter("consensus.votes_cast").inc()
        self.paxos.register_fast_round_vote(proposal)
        self._merge(cid, 1 << self.paxos.my_index)
        if self.gossip_mode:
            # No broadcast storm at scale: push a first round of deltas
            # now, then let the gossip ticks carry the counting step.
            self._push_deltas()
        else:
            self._send_aggregate()
        self._arm_fallback()
        self._arm_gossip(first=True)
        self._check_quorum()

    # -------------------------------------------------------------- messages

    def handle(self, src: Endpoint, msg: object) -> None:
        """Feed a consensus message of this instance's configuration.

        The owner scopes every message before it gets here
        (:meth:`repro.core.membership.ViewChanger.on_consensus`), so a
        message naming another configuration never reaches an instance,
        and replaces or stops the instance as it decides, so a decided
        one hears nothing: a view's decision is answered from the owner's
        :class:`DecisionLog` alone.
        """
        if isinstance(msg, VoteBundle):
            self._on_votes(msg)
        elif isinstance(msg, VotePull):
            self._on_pull(msg)
        elif isinstance(msg, Decision):
            self._on_decision(msg)
        elif isinstance(msg, (Phase1a, Phase1b, Phase2a, Phase2b)):
            self.used_fallback = True
            # Classical rounds carry whole values; file them, so a
            # quorum counted for a cut we never computed can decide.
            if isinstance(msg, Phase1b) and msg.vvalue:
                self._hold(msg.vvalue)
            elif isinstance(msg, Phase2a):
                self._hold(msg.value)
            paxos = self.paxos
            if not paxos.decided:
                paxos.handle(src, msg)
                if paxos.decided:
                    # The accept that completed the majority came from
                    # an acceptor that filed the body from Phase2a.
                    self._want_from = msg.sender
                    self._chosen(paxos.decision)

    def _on_votes(self, msg: VoteBundle) -> None:
        if msg.sender != self.runtime.addr:
            # Own broadcasts are delivered locally too; only bundles that
            # crossed the wire count, so tx and rx stay reconcilable.
            self._m_bundles_rx.inc()
        for body in msg.bodies:
            cid = cut_id(body)
            if cid == self._want:
                self._decide(body, cid)
                return
            self._m_bodies_rejected.inc()  # not one we asked for
        learned = self._absorb(msg)
        self._arm_fallback()
        self._arm_gossip()
        self._check_quorum()
        if self.gossip_mode and not self.decided and not learned:
            # The sender is behind us (its push taught us nothing).  Repair
            # it reactively with exactly the bits it is missing; the ledger
            # update above makes this a one-shot reply, not a ping-pong.
            reply = self._delta_for(self._ledger(msg.sender))
            if reply is not None:
                self.runtime.send(msg.sender, reply)
                self._m_bundles_tx.inc()

    def _on_pull(self, msg: VotePull) -> None:
        """Serve a pull: merge the digest, reply with the bits it lacks.

        A digest is also information — the requester's whole aggregate —
        so it is absorbed like any bundle before computing the reply
        delta: against the requester's ledger row in a gossip view, which
        the digest has just joined, and against the digest itself in a
        unicast view, which keeps no rows.  The reply carries the bodies
        ``msg.want`` names, as far as this node holds them.
        """
        self._absorb(msg)
        if self.gossip_mode:
            shown = self._ledger(msg.sender)
        else:
            shown = dict(zip(msg.ids, msg.bitmaps))
        reply = self._delta_for(shown, msg.want)
        if reply is not None:
            self.runtime.send(msg.sender, reply)
            self._m_bundles_tx.inc()
            self._m_pull_replies.inc()
        self._arm_fallback()
        self._arm_gossip()
        self._check_quorum()

    def _on_decision(self, msg: Decision) -> None:
        """Adopt a decision we can spell out; ask for the body otherwise."""
        if msg.body:
            if cut_id(msg.body) != msg.cut_id:
                self._m_bodies_rejected.inc()
                return
            self._bodies[msg.cut_id] = msg.body
        self._want_from = msg.sender
        self._chosen(msg.cut_id)

    def _absorb(self, msg) -> int:
        """OR a peer's bitmaps into the aggregate; returns the new bits.

        Whatever the sender shows us, it evidently has: in gossip mode the
        bits also go into its row of the dissemination ledger, so we never
        push them back (a unicast view pushes no deltas, and a row per
        peer per node is megabytes it would never read; only the peers it
        pulls get one, see :meth:`_send_pulls`).
        """
        shown = self._ledger(msg.sender) if self.gossip_mode else None
        learned = 0
        for cid, bitmap in zip(msg.ids, msg.bitmaps):
            learned |= self._merge(cid, bitmap)
            if shown is not None:
                shown[cid] = shown.get(cid, 0) | bitmap
        if learned:
            self._learned_since_tick = True
            self._stale_ticks = 0
        return learned

    def _ledger(self, peer: Endpoint) -> dict:
        """Bits ``peer`` has been shown by us or has shown us, per cut."""
        shown = self._shown.get(peer)
        if shown is None:
            shown = self._shown[peer] = {}
        return shown

    def _merge(self, cid: int, bitmap: int) -> int:
        """OR ``bitmap`` into cut ``cid``'s aggregate; returns the new bits.

        The endorsement count is maintained incrementally from the new
        bits, so callers (and :meth:`_check_quorum`) never popcount a full
        N-bit bitmap on the hot path.
        """
        old = self.votes.get(cid, 0)
        new = bitmap & ~old
        if new:
            self.votes[cid] = old | bitmap
            self._counts[cid] = self._counts.get(cid, 0) + new.bit_count()
        return new

    def _check_quorum(self) -> None:
        if self.decided:
            return
        quorum = self.fast_quorum
        for cid, count in self._counts.items():
            if count >= quorum:
                self._chosen(cid)
                return

    # ---------------------------------------------------------------- bodies

    def _hold(self, body: Proposal) -> int:
        """File ``body`` under its id, deciding if it is the one awaited."""
        cid = cut_id(body)
        self._bodies[cid] = body
        if cid == self._want:
            self._decide(body, cid)
        return cid

    def _chosen(self, cid: int) -> None:
        """Cut ``cid`` is the decision: adopt it, or fetch its body first."""
        body = self._bodies.get(cid)
        if body is not None:
            self._decide(body, cid)
        elif self._want != cid:
            self._want = cid
            self._pull_body()
            self._arm_fallback()
            self._arm_gossip()

    def _pull_body(self) -> None:
        """Ask one holder of the wanted cut's body for it.

        Any voter of the cut holds it; one is drawn at random, so the
        retry on the next gossip tick reaches another.  With no voter on
        record (the id came in a ``Decision`` or a ``Phase2b`` majority) its
        sender is asked.
        """
        bits = self.votes.get(self._want, 0) & ~(1 << self.paxos.my_index)
        voters = [m for i, m in enumerate(self.members) if bits >> i & 1]
        holder = self.runtime.rng.choice(voters) if voters else self._want_from
        if holder is not None:
            self.runtime.send(
                holder, VotePull(self.runtime.addr, self.config_id, want=(self._want,))
            )
            self._m_body_pulls.inc()

    # ------------------------------------------------------------ fallback

    def _arm_fallback(self) -> None:
        if self.decided or self._fallback_timer is not None:
            return
        delay = (
            self.settings.consensus_fallback_timeout
            + CONSENSUS_RANK_DELAY * self.paxos.my_index
        )
        self._fallback_timer = self.runtime.schedule(delay, self._fallback)

    def _fallback(self) -> None:
        """Fast path timed out: coordinate a classical recovery round.

        Only the timer runs this, and deciding cancels the timer, so the
        instance is undecided here.
        """
        self._fallback_timer = None
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
            + CONSENSUS_RANK_DELAY * self.paxos.my_index,
            self._fallback,
        )

    def _most_endorsed(self) -> Optional[Proposal]:
        """The most voted-for cut among those whose body this node holds."""
        held = [
            (count, self._bodies[cid])
            for cid, count in self._counts.items()
            if cid in self._bodies
        ]
        return max(held)[1] if held else None

    # --------------------------------------------------------------- gossip

    def _arm_gossip(self, first: bool = False) -> None:
        """Periodically exchange votes with a few random peers until the
        round decides; this is the paper's gossip-based counting step.  In
        gossip mode it is the *primary* dissemination path (delta
        bundles); in every view it repairs vote loss under UDP semantics,
        by pulling.

        ``first`` marks the arming at this node's own vote; that tick
        falls at a random phase of the interval (see the module docstring
        on lock-step counting).  In a unicast view the vote's broadcast,
        delivered here too, has already armed a whole-interval tick."""
        if self.decided or self._gossip_timer is not None:
            return
        delay = self.settings.gossip_interval
        if first:
            delay = self.runtime.rng.uniform(0, delay)
        self._gossip_timer = self.runtime.schedule(delay, self._gossip_tick)

    def _gossip_tick(self) -> None:
        """One gossip interval of an undecided instance (deciding cancels
        the timer that runs this)."""
        self._gossip_timer = None
        if self._want is not None:
            self._pull_body()  # the last one went unanswered: try another
        if not self.votes:
            if self._want is not None:
                self._arm_gossip()
            return
        if self._learned_since_tick:
            self._learned_since_tick = False
            self._stale_ticks = 0
        else:
            self._stale_ticks += 1
            # A quiet interval means votes stopped teaching us; actively
            # fetch what we might be missing.
            self._send_pulls()
            if self._stale_ticks >= GOSSIP_CONVERGENCE_TICKS:
                # Converged: nothing new learned for k intervals.  Push
                # gossip goes quiet — an incoming bundle with new bits
                # re-arms it — but an undecided node keeps a slow pull
                # heartbeat so the tail is fetched rather than waited
                # out until the fallback timer.
                self._gossip_timer = self.runtime.schedule(
                    self.settings.gossip_interval * GOSSIP_CONVERGENCE_TICKS,
                    self._gossip_tick,
                )
                return
        if self.gossip_mode:
            self._push_deltas()
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
            bundle = self._delta_for(self._ledger(peer))
            if bundle is not None:
                send(peer, bundle)
                self._m_bundles_tx.inc()

    def _send_pulls(self) -> None:
        """Send our aggregate as a digest to ``GOSSIP_PULL_FANOUT`` peers
        (from a gossip tick, which has established there are votes to show).

        The digest doubles as a push (receivers merge it), so the bits it
        carries are optimistically marked shown for each pulled peer —
        the same at-most-once bookkeeping ``_delta_for`` applies to
        pushes; a lost datagram is repaired through other partners.  A
        unicast view pushes no deltas, so there the marks cost one ledger
        row per pulled peer and nothing reads them.
        """
        peers = self._peers
        count = min(GOSSIP_PULL_FANOUT, len(peers))
        digest = self._aggregate(VotePull)
        for peer in self.runtime.rng.sample(peers, count):
            shown = self._ledger(peer)
            for cid, bitmap in zip(digest.ids, digest.bitmaps):
                shown[cid] = shown.get(cid, 0) | bitmap
            self.runtime.send(peer, digest)
        self._m_pulls_tx.inc(count)

    def _delta_for(self, shown: dict, want: tuple = ()) -> Optional[VoteBundle]:
        """Bundle of the vote bits a peer has not been ``shown``, or ``None``.

        ``shown`` is what the peer holds per cut (its ledger row, or the
        digest it pulled with).  Marks the bits as shown optimistically;
        if the datagram is lost the peer still converges through other
        gossip partners.  ``want`` is the peer's request for bodies: those
        held here ride along.
        """
        ids = []
        deltas = []
        for cid, bitmap in self.votes.items():
            new = bitmap & ~shown.get(cid, 0)
            if new:
                ids.append(cid)
                deltas.append(new)
                shown[cid] = shown.get(cid, 0) | bitmap
        bodies = ()
        if want:
            bodies = tuple(self._bodies[cid] for cid in want if cid in self._bodies)
            self._m_bodies_tx.inc(len(bodies))
            self._m_wants_unanswered.inc(len(want) - len(bodies))
        if not ids and not bodies:
            return None
        return VoteBundle(
            sender=self.runtime.addr,
            config_id=self.config_id,
            ids=tuple(ids),
            bitmaps=tuple(deltas),
            bodies=bodies,
        )

    def _aggregate(self, kind: type = VoteBundle):
        """The whole vote aggregate as a push (``VoteBundle``) or as a
        pull digest (``VotePull``)."""
        return kind(
            sender=self.runtime.addr,
            config_id=self.config_id,
            ids=tuple(self.votes.keys()),
            bitmaps=tuple(self.votes.values()),
        )

    def _send_aggregate(self) -> None:
        self._m_bundles_tx.inc(len(self._peers))
        self._broadcast(self._aggregate())

    # --------------------------------------------------------------- decide

    def _decide(self, value: Proposal, cid: Optional[int] = None) -> None:
        if self.decided:
            return
        self.decided = True
        self.decision = value
        self.decision_id = cid if cid is not None else cut_id(value)
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
