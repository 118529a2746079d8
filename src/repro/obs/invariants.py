"""Runtime safety-invariant monitor for membership view changes.

The paper's headline guarantee is *strong consistency* (sections 2 and 4.3):
every process observes the same totally-ordered sequence of membership
views.  The stability scorecard (:mod:`repro.obs.scorecard`) measures flaps
and evictions — liveness-flavored claims — but nothing in the repo checked
the consistency claims mechanically.  :class:`ViewLedger` closes that gap:
every harness (simulated and live) feeds it one observation per installed
view per node, and it continuously asserts four safety properties:

**monotonicity**
    A process's installed configuration sequence numbers strictly increase
    (paper section 4.3: views are totally ordered at every process).
**agreement**
    All processes reporting the same configuration id hold byte-identical
    membership — the id is a content hash, so a mismatch means the hash
    broke or two different views collided (virtual synchrony, section 2).
**no-fork / virtual synchrony**
    Every process's configuration chain is a contiguous subsequence of one
    global chain: no two distinct configurations may occupy the same
    sequence number, and a process may skip a configuration only if it was
    not a member of it (it was partitioned out and re-admitted later).
    Membership here is per *incarnation* (endpoint plus logical id): a
    process that left gracefully stops installing views but stays listed
    until its removal is decided, and the fresh identity it rejoins under
    owes nothing for the views its previous one sat out.
**no disjoint majorities**
    No two configurations with *disjoint* memberships are ever concurrently
    installed by a majority of their respective members — the classic
    split-brain that consensus-per-view-change rules out (section 4.3).

A failed check raises :class:`InvariantViolation` carrying a minimal repro
trace: the experiment seed, the virtual time, the offending process(es),
and the most recent view-change observations.  The ledger raises at
observation time, so a violation aborts the experiment at the exact event
that caused it rather than being discovered post-hoc.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

__all__ = ["InvariantViolation", "ViewLedger"]


@dataclass(frozen=True)
class _Observation:
    """One recorded view installation (the ledger's trace unit)."""

    time: float
    endpoint: object
    config_id: int
    seq: int
    size: int


class InvariantViolation(AssertionError):
    """A membership safety property failed, with a minimal repro trace.

    Attributes
    ----------
    prop:
        Which property broke: ``monotonicity``, ``agreement``, ``fork``,
        or ``split_brain``.
    seed:
        The experiment's root seed, when the harness provided one —
        together with the scenario parameters it reproduces the run.
    time:
        Virtual time of the offending observation.
    nodes:
        The offending endpoint(s).
    trace:
        The most recent view-change observations (bounded), ending with
        the one that tripped the check.
    """

    def __init__(
        self,
        prop: str,
        detail: str,
        *,
        seed: Optional[int] = None,
        time: float = 0.0,
        nodes: tuple = (),
        trace: tuple = (),
    ) -> None:
        self.prop = prop
        self.detail = detail
        self.seed = seed
        self.time = time
        self.nodes = nodes
        self.trace = trace
        lines = [
            f"membership invariant violated: {prop}",
            f"  {detail}",
            f"  seed={seed} time={time:.3f} nodes={[str(n) for n in nodes]}",
        ]
        if trace:
            lines.append("  recent view changes (time endpoint seq config_id size):")
            lines.extend(
                f"    {o.time:10.3f} {o.endpoint} seq={o.seq} "
                f"cfg={o.config_id} n={o.size}"
                for o in trace
            )
        super().__init__("\n".join(lines))


class ViewLedger:
    """Cross-process ledger of installed views, asserting safety on feed.

    Parameters
    ----------
    seed:
        Experiment root seed, embedded in violation reports so a failure
        message alone is enough to re-run the offending case.
    allow_member_gaps:
        Relax the contiguity leg of the no-fork check: a process may skip
        configurations it *was* a member of.  Required for logically
        centralized mode (Rapid-C), where ``ViewUpdate`` pushes are
        last-write-wins and a slow member legitimately jumps several
        sequence numbers at once.  Agreement, monotonicity, same-seq fork
        detection, and the split-brain check stay fully enforced.
    trace_depth:
        How many recent observations a violation report carries.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        allow_member_gaps: bool = False,
        trace_depth: int = 12,
    ) -> None:
        self.seed = seed
        self.allow_member_gaps = allow_member_gaps
        self.records = 0
        #: endpoint -> (seq, config_id) of its latest installed view.
        self._last: dict = {}
        #: config_id -> (seq, members tuple) — the agreement ground truth.
        self._configs: dict[int, tuple] = {}
        #: seq -> config_id — the single global chain (fork detection).
        self._chain: dict[int, int] = {}
        #: seq -> {member: logical id} for the membership-gap check.
        self._members_at: dict[int, dict] = {}
        #: config_id -> set of endpoints currently on that view.
        self._holders: dict[int, set] = {}
        self._trace: deque = deque(maxlen=trace_depth)

    # ---------------------------------------------------------------- feeding

    def observe(
        self,
        time: float,
        endpoint,
        config_id: int,
        seq: int,
        members: tuple,
        size: Optional[int] = None,
        uuids: tuple = (),
    ) -> None:
        """Record one view installation and assert every safety property.

        ``uuids`` are the members' logical ids, aligned with ``members``;
        feeds that omit them treat every endpoint as one incarnation.
        Raises :class:`InvariantViolation` on the first property that
        fails; the ledger state up to the offending observation is kept,
        so post-mortem inspection sees exactly what the monitor saw.
        """
        obs = _Observation(
            time, endpoint, config_id, seq, size if size is not None else len(members)
        )
        self._trace.append(obs)
        self.records += 1

        known = self._configs.get(config_id)
        if known is None:
            self._configs[config_id] = (seq, members)
        elif known[0] != seq or known[1] != members:
            self._fail(
                "agreement",
                f"config id {config_id} reported with two different contents: "
                f"seq={known[0]}/n={len(known[1])} vs seq={seq}/n={len(members)}",
                obs,
            )

        prev = self._last.get(endpoint)
        if prev is not None and seq <= prev[0]:
            self._fail(
                "monotonicity",
                f"{endpoint} installed seq={seq} (cfg={config_id}) after "
                f"seq={prev[0]} (cfg={prev[1]})",
                obs,
            )

        chained = self._chain.get(seq)
        if chained is None:
            self._chain[seq] = config_id
            self._members_at[seq] = (
                dict(zip(members, uuids)) if uuids else dict.fromkeys(members, 0)
            )
        elif chained != config_id:
            self._fail(
                "fork",
                f"two distinct configurations occupy seq={seq}: "
                f"cfg={chained} vs cfg={config_id}",
                obs,
            )

        if prev is not None and not self.allow_member_gaps:
            members_at = self._members_at
            incarnation = members_at[seq].get(endpoint, 0)
            # Contiguity binds one incarnation's chain.  An install under
            # a new logical id starts a fresh chain: the previous identity
            # left (or was kicked) and, though listed until its removal
            # was decided, had stopped installing views.
            if members_at[prev[0]].get(endpoint, 0) == incarnation:
                for skipped in range(prev[0] + 1, seq):
                    between = members_at.get(skipped)
                    if between is not None and between.get(endpoint) == incarnation:
                        self._fail(
                            "fork",
                            f"{endpoint} jumped seq={prev[0]} -> seq={seq}, "
                            f"skipping seq={skipped} of which it was a member "
                            f"(its chain is not a contiguous subsequence)",
                            obs,
                        )

        self._last[endpoint] = (seq, config_id)
        if prev is not None:
            old_holders = self._holders.get(prev[1])
            if old_holders is not None:
                old_holders.discard(endpoint)
                if not old_holders:
                    del self._holders[prev[1]]
        self._holders.setdefault(config_id, set()).add(endpoint)
        self._check_split_brain(config_id, obs)

    def _check_split_brain(self, config_id: int, obs: _Observation) -> None:
        """No two disjoint-membership views may both hold own-majorities.

        Only the just-updated configuration can newly complete a majority,
        so the scan compares it against every other currently-held view.
        Normal transitions share members between consecutive views, so the
        disjointness requirement keeps this from false-positives during
        ordinary reconfiguration; two *disjoint* majority views mean two
        sides both believe they are the cluster.
        """
        members = self._configs[config_id][1]
        holders = self._holders[config_id]
        if len(holders) * 2 <= len(members):
            return
        member_set = self._members_at[self._configs[config_id][0]]
        for other_id, other_holders in self._holders.items():
            if other_id == config_id:
                continue
            other_seq, other_members = self._configs[other_id]
            if len(other_holders) * 2 <= len(other_members):
                continue
            if member_set.keys().isdisjoint(other_members):
                self._fail(
                    "split_brain",
                    f"disjoint views cfg={config_id} "
                    f"(n={len(members)}, {len(holders)} holders) and "
                    f"cfg={other_id} (n={len(other_members)}, "
                    f"{len(other_holders)} holders) each hold a majority "
                    f"of their own membership",
                    obs,
                    nodes=(obs.endpoint, *sorted(other_holders, key=str)[:3]),
                )

    def _fail(self, prop: str, detail: str, obs: _Observation, nodes: tuple = ()) -> None:
        raise InvariantViolation(
            prop,
            detail,
            seed=self.seed,
            time=obs.time,
            nodes=nodes or (obs.endpoint,),
            trace=tuple(self._trace),
        )

    # ---------------------------------------------------------------- queries

    @property
    def nodes(self) -> int:
        """Number of distinct processes that reported at least one view."""
        return len(self._last)

    @property
    def configs(self) -> int:
        """Number of distinct configurations observed."""
        return len(self._configs)

    @property
    def max_seq(self) -> int:
        """Highest configuration sequence number observed."""
        return max(self._chain) if self._chain else 0

    def chain(self) -> list:
        """The global configuration chain as ``(seq, config_id)`` pairs."""
        return sorted(self._chain.items())

    def view_changes_of(self, endpoint) -> Optional[tuple]:
        """Latest ``(seq, config_id)`` a process installed, if any."""
        return self._last.get(endpoint)

    def report(self) -> dict:
        """Flat scalar summary for benchmark / sweep result rows.

        ``checked`` is the observation count; ``ok`` is always True here
        because a violation raises instead of being tallied — a report
        therefore certifies that every recorded view change passed.
        """
        return {
            "checked": self.records,
            "nodes": self.nodes,
            "configs": self.configs,
            "max_seq": self.max_seq,
            "ok": True,
        }
