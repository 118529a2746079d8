"""Tunable parameters of the Rapid protocol.

Defaults follow the paper's evaluation setup (section 7): ``K=10, H=9, L=3``
for the cut-detection watermarks.  A value of the paper's implementation
that nobody sets to a second value — the 40%-of-the-last-10-probes edge
detector, the reinforcement timeout, Rapid-C's 5 s view probe — is not a
field here but a constant of the one module that reads it.
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
    batching_window:
        Alerts are buffered this many seconds and broadcast as one batched
        message, like the reference implementation.
    consensus_fallback_timeout:
        Base seconds to wait for a fast-path decision before falling back to
        classical Paxos; each membership index waits
        :data:`~repro.core.fast_paxos.CONSENSUS_RANK_DELAY` longer than the
        one before, so the lowest-ranked live node usually runs it alone.
    gossip_interval / gossip_fanout:
        ``gossip_interval`` is the tick of an undecided voter in every
        view: a tick that learned no vote bit pulls
        :data:`~repro.core.fast_paxos.GOSSIP_PULL_FANOUT` peers, and after
        :data:`~repro.core.fast_paxos.GOSSIP_CONVERGENCE_TICKS` such ticks
        the voter pulls once per that many intervals.  When gossip is
        active (views of at least ``gossip_threshold`` members) each tick
        also pushes deltas to ``gossip_fanout`` peers, its one reader.
    gossip_threshold:
        View size at which votes switch from one aggregate broadcast per
        voter — one message delay, O(N) messages per voter — to delta
        gossip (see :meth:`use_gossip`).  ``1`` gossips at any size; a
        threshold above the largest view never does.  Alert batches and
        classical rounds are unicast to every member at every size.
    join_timeout:
        Seconds a joiner waits for a join to complete before retrying.
    """

    k: int = 10
    h: int = 9
    l: int = 3

    probe_interval: float = 1.0
    probe_timeout: float = 1.0

    batching_window: float = 0.1

    consensus_fallback_timeout: float = 8.0

    gossip_interval: float = 0.2
    gossip_fanout: int = 8
    gossip_threshold: int = 128

    join_timeout: float = 5.0

    def __post_init__(self) -> None:
        if not (1 <= self.l <= self.h <= self.k):
            raise ValueError(
                f"watermarks must satisfy 1 <= L <= H <= K, "
                f"got K={self.k}, H={self.h}, L={self.l}"
            )
        if self.gossip_threshold < 1:
            raise ValueError("gossip_threshold must be positive")

    @classmethod
    def from_overrides(cls, overrides: Mapping) -> "RapidSettings":
        """Defaults with the named fields replaced, from a plain mapping.

        The door for field dicts that arrive from outside the program —
        benchmark specs and grids, CLI JSON.  A name that is not a
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
        installed view and hands the answer to its consensus instance,
        which then counts votes by delta gossip rather than one aggregate
        broadcast per voter.  Nothing else reads it: alert batches and
        classical rounds are unicast to every member at every size.
        """
        return n >= self.gossip_threshold
