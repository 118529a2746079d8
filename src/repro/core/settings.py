"""Tunable parameters of the Rapid protocol.

Defaults follow the paper's evaluation setup (section 7): ``K=10, H=9, L=3``
for the cut-detection watermarks, an edge failure detector that declares a
subject unreachable when at least 40% of the last 10 probes failed, and a
Fast Paxos quorum of three quarters of the membership.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

__all__ = ["RapidSettings"]


@dataclass
class RapidSettings:
    """Configuration knobs for a Rapid node.

    Attributes
    ----------
    k:
        Number of pseudo-random rings; each process has ``k`` observers and
        ``k`` subjects (paper section 4.1).
    h:
        High watermark: a subject with at least ``h`` distinct observer
        reports is in *stable* report mode.
    l:
        Low watermark: fewer than ``l`` reports is noise; between ``l`` and
        ``h`` is the *unstable* region that blocks proposals.
    probe_interval:
        Seconds between edge-monitoring probes to each subject.  Every
        subject is probed exactly once per interval; *when* within the
        interval is decided by the probe wheel, which strides subjects
        over ``min(2, k)`` sub-intervals (see
        :class:`~repro.core.membership.EdgeMonitor`).
    probe_timeout:
        Seconds an observer waits before counting a probe as failed.
        Expiry is checked on wheel ticks, so the effective timeout is
        ``probe_timeout`` rounded up to the next wheel sub-interval (at
        most half a ``probe_interval`` late).  Batched acks ride the same
        tick, so ``probe_interval / 2 + 2 * RTT < probe_timeout`` must
        hold or acks arrive after their probe expired.
    failure_threshold / detector_window:
        The default edge detector marks an edge faulty when
        ``failure_threshold`` of the last ``detector_window`` probes failed
        (40% of 10, per the paper's implementation section).
    probe_bootstrap_budget:
        Consecutive *bootstrapping* probe acks an observer tolerates per
        subject (per view) before treating further ones as probe
        failures — the reference implementation's "has bootstrapped"
        rule.  A live joiner answers bootstrapping acks only for the
        short window between its admission being decided and its view
        install, well under the budget; a process that answers
        bootstrapping indefinitely is a departed member whose graceful
        leave was lost (or a rejoiner's stale incarnation) and must fail
        out of the view rather than linger forever.
    batching_window:
        Alerts are buffered this many seconds and broadcast as one batched
        message, like the reference implementation.
    consensus_fallback_timeout:
        Base seconds to wait for a fast-path decision before falling back to
        classical Paxos.
    consensus_rank_delay:
        Extra per-rank stagger before a node tries to coordinate a classical
        round, so that the lowest-ranked live node usually runs it alone.
    reinforcement_timeout:
        Seconds a subject may linger in the unstable region before its
        observers echo REMOVE alerts (section 4.2, "reinforcements").
    reannounce_interval:
        Seconds without a view change before a node re-broadcasts its
        alerted-but-unremoved subjects.  A minority partition announces
        its unreachable subjects once but can never reach consensus on
        removing them; after the partition heals, the re-broadcast is what
        reaches the majority — whose members have moved past the stranded
        configuration and answer with the cached removal Decision, letting
        the stranded members learn they were kicked and rejoin.
    gossip_interval / gossip_fanout:
        Parameters of the epidemic broadcast used for alert dissemination
        and consensus vote counting when gossip is active (views of at
        least ``gossip_threshold`` members).  In smaller views they are
        the period and fan-out of the pull an undecided voter sends.
    gossip_relay_window:
        Epidemic *relay batching*: a node buffers envelopes it owes a
        forward for this many seconds and relays them as one bundle to
        one random peer sample.  Broadcast storms (mass bootstraps emit
        dozens of alert broadcasts per second, each relayed once by
        every node) collapse k per-envelope fan-outs into one; the cost
        is up to this much added latency per relay hop.  ``0`` disables
        batching (immediate per-envelope relays).
    gossip_threshold:
        View size at which dissemination switches from unicast broadcast
        — one message delay, O(N) messages per broadcast — to epidemic
        gossip, for both alerts and consensus vote counting (see
        :meth:`use_gossip`).  ``1`` gossips at any size; a threshold above
        the largest view never does.
    gossip_convergence_ticks:
        Consensus vote gossip stops ticking after this many consecutive
        intervals without learning a new vote bit (the aggregate has
        converged); any later bundle that teaches new bits re-arms it.
    gossip_pull_fanout:
        Peers sent a pull digest per stale gossip tick (and per heartbeat
        tick after local convergence, see :meth:`pull_interval`).  In
        gossip mode a node whose push tick learned nothing sends a digest
        of its aggregate to this many random peers; a peer replies with
        exactly the vote bits the digest is missing (or the decision,
        once known).  This closes the convergence tail push-only gossip
        leaves: a straggler that has nothing new to *push* would
        otherwise sit silent until the classical-Paxos fallback timer.
    join_timeout:
        Seconds a joiner waits for a join to complete before retrying.
        Retries are jittered by up to ``join_retry_jitter`` of the delay
        so simultaneous rejoiners do not re-stampede the same seed.
    join_retry_jitter:
        Fraction of a join retry delay added as uniform random jitter
        (per-node deterministic in the simulator).  ``0`` disables it.
    view_probe_interval:
        Rapid-C only: how often cluster members poll the ensemble for view
        updates (the paper uses 5 seconds to mirror its ZooKeeper setup).
    """

    k: int = 10
    h: int = 9
    l: int = 3

    probe_interval: float = 1.0
    probe_timeout: float = 1.0
    failure_threshold: float = 0.4
    detector_window: int = 10
    probe_bootstrap_budget: int = 15

    batching_window: float = 0.1

    consensus_fallback_timeout: float = 8.0
    consensus_rank_delay: float = 1.0

    reinforcement_timeout: float = 10.0
    reannounce_interval: float = 30.0

    gossip_interval: float = 0.2
    gossip_fanout: int = 8
    gossip_relay_window: float = 0.05
    gossip_threshold: int = 128
    gossip_convergence_ticks: int = 5
    gossip_pull_fanout: int = 1

    join_timeout: float = 5.0
    join_retry_jitter: float = 0.25
    view_probe_interval: float = 5.0

    def __post_init__(self) -> None:
        if not (1 <= self.l <= self.h <= self.k):
            raise ValueError(
                f"watermarks must satisfy 1 <= L <= H <= K, "
                f"got K={self.k}, H={self.h}, L={self.l}"
            )
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.gossip_threshold < 1:
            raise ValueError("gossip_threshold must be positive")
        if self.gossip_convergence_ticks < 1:
            raise ValueError("gossip_convergence_ticks must be positive")
        if self.probe_bootstrap_budget < 1:
            raise ValueError("probe_bootstrap_budget must be positive")
        if self.gossip_pull_fanout < 1:
            raise ValueError("gossip_pull_fanout must be positive")
        if self.gossip_relay_window < 0:
            raise ValueError("gossip_relay_window must be >= 0 (0 = immediate)")
        if self.join_retry_jitter < 0:
            raise ValueError("join_retry_jitter must be >= 0 (0 = none)")

    @classmethod
    def from_overrides(cls, overrides: Mapping) -> "RapidSettings":
        """Defaults with the named fields replaced, from a plain mapping.

        The door for field dicts that arrive from outside the program —
        benchmark specs, sweep grids, CLI JSON.  A name that is not a
        field (a typo, or a knob a stale grid still passes) raises
        ``ValueError`` naming it and listing the valid ones.
        """
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(overrides) - set(known))
        if unknown:
            raise ValueError(
                f"unknown RapidSettings field(s) {unknown}; "
                f"valid fields: {known}"
            )
        return cls(**overrides)

    def use_gossip(self, n: int) -> bool:
        """Whether a view of ``n`` members disseminates by gossip.

        The one definition of the switch: a node evaluates it once per
        installed view and hands the answer to both its alert broadcaster
        and its consensus instance (which also pulls exactly when it
        gossips).
        """
        return n >= self.gossip_threshold

    def pull_interval(self) -> float:
        """Period of the post-convergence pull heartbeat.

        An undecided node whose push gossip went quiet keeps pulling once
        per convergence window.
        """
        return self.gossip_interval * self.gossip_convergence_ticks
