"""The dict-of-dicts cut detector of commit ``7d6f010``, kept as a reference.

``src/repro/core/cut_detector.py`` was rebuilt on ring bitmasks, one ingest
path and an implicit-alert pass that runs only after a tally reaches ``L``;
this is the implementation it replaced, verbatim but for the class name
(and ``KRingTopology.observer_row``, deleted with this last caller, spelled
``observers_of``):
one ``{ring: observer}`` dict per subject, the implicit pass attempted on
every alert, and — the one behaviour the rebuild changed on purpose — the
whole stable set returned again by every later alert that leaves nothing
unstable.  ``tests/test_cut_detector.py`` runs both over seeded random alert
streams and requires the same answers.  Not imported by ``src/``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import Alert, AlertKind, Change, Proposal, make_proposal
from repro.core.node_id import Endpoint
from repro.core.ring import KRingTopology

__all__ = ["ReferenceCutDetector"]


class ReferenceCutDetector:
    """Tallies edge alerts into a stable multi-process cut proposal.

    Parameters
    ----------
    k, h, l:
        Ring count and the high/low watermarks, ``1 <= L <= H <= K``.
    topology:
        The monitoring topology of the current configuration; used to
        resolve ring numbers to observers for the implicit-alert rule.
    """

    def __init__(self, k: int, h: int, l: int, topology: Optional[KRingTopology] = None) -> None:
        if not (1 <= l <= h <= k):
            raise ValueError(f"need 1 <= L <= H <= K, got K={k} H={h} L={l}")
        self.k = k
        self.h = h
        self.l = l
        self.topology = topology
        # subject -> ring number -> observer that reported on that ring.
        self._reports: dict[Endpoint, dict[int, Endpoint]] = {}
        # subject -> (kind, joiner uuid) from the first alert about it.
        self._kinds: dict[Endpoint, tuple] = {}
        # subject -> time of first alert (drives reinforcement timeouts).
        self._first_seen: dict[Endpoint, float] = {}
        # Subjects already emitted in a proposal (awaiting consensus); they
        # no longer count as unstable and are not re-proposed.
        self._proposed: set = set()
        # Incremental aggregation-rule state, so the per-alert check is
        # O(1) instead of a scan over every reported subject: the number
        # of subjects at/above the high watermark, the number of
        # *unproposed* subjects in the blocking region [L, H), and the
        # number of REMOVE-kind subjects (when zero — e.g. during mass
        # bootstraps — the implicit-alert rule cannot apply and is
        # skipped wholesale).
        self._stable_count = 0
        self._unstable_count = 0
        self._remove_count = 0

    # ---------------------------------------------------------------- feeding

    def receive_alert(self, alert: Alert, now: float = 0.0) -> Optional[Proposal]:
        """Ingest one alert; returns a cut proposal when one stabilizes.

        Alerts are idempotent: a duplicate (same subject, same ring) does
        not move the tally.  Conflicting kinds for the same subject are
        impossible in the protocol (JOIN alerts are only about non-members,
        REMOVE only about members); if one arrives anyway it is ignored.
        """
        subject = alert.subject
        if subject in self._proposed:
            return None
        kind = self._kinds.get(subject)
        if kind is None:
            self._kinds[subject] = (alert.kind, alert.joiner_uuid)
            self._first_seen[subject] = now
            if alert.kind == AlertKind.REMOVE:
                self._remove_count += 1
        elif kind[0] != alert.kind:
            return None  # conflicting kind: drop (cannot happen in-protocol)
        rings = self._reports.get(subject)
        if rings is None:
            rings = self._reports[subject] = {}
        before = len(rings)
        k = self.k
        for ring in alert.ring_numbers:
            if 0 <= ring < k:
                rings.setdefault(ring, alert.observer)
        after = len(rings)
        if after != before:
            self._rezone(before, after)
        return self.check_proposal(now)

    def check_proposal(self, now: float = 0.0) -> Optional[Proposal]:
        """Re-evaluate the aggregation rule (after implicit alerts etc.)."""
        self._apply_implicit_alerts()
        if self._stable_count == 0 or self._unstable_count > 0:
            return None
        h = self.h
        stable = [s for s, rings in self._reports.items() if len(rings) >= h]
        self._proposed.update(stable)
        return make_proposal(
            Change(endpoint=s, kind=self._kinds[s][0], uuid=self._kinds[s][1])
            for s in stable
        )

    def _rezone(self, before: int, after: int) -> None:
        """Maintain the stable/unstable counters across a tally change.

        Only unproposed subjects ever change tally (proposed subjects are
        filtered at ingest and are past ``H`` for the implicit rule), so
        the blocking-region count needs no membership test here.
        """
        if before < self.l:
            if after >= self.h:
                self._stable_count += 1
            elif after >= self.l:
                self._unstable_count += 1
        elif before < self.h:
            if after >= self.h:
                self._unstable_count -= 1
                self._stable_count += 1

    # ------------------------------------------------------- implicit alerts

    def _apply_implicit_alerts(self) -> None:
        """Paper section 4.2: if observer ``o`` of an unstable subject ``s``
        is itself failing (unstable, stable, or already proposed for
        removal), count an implicit alert from ``o`` about ``s``."""
        if self.topology is None or self._unstable_count == 0:
            return
        if self._remove_count == 0:
            # No REMOVE-kind subject has ever been reported, so no
            # observer can qualify as failing — common during mass
            # bootstraps, where every subject is a joiner.
            return
        h = self.h
        l = self.l
        topology = self.topology
        for subject, rings in self._reports.items():
            before = len(rings)
            if not (l <= before < h):
                continue
            for ring, observer in enumerate(topology.observers_of(subject)):
                if ring in rings:
                    continue
                if self._failing(observer):
                    rings[ring] = observer
            after = len(rings)
            if after != before:
                self._rezone(before, after)

    def _failing(self, endpoint: Endpoint) -> bool:
        if endpoint in self._proposed and self._kinds.get(endpoint, ("",))[0] == AlertKind.REMOVE:
            return True
        kind = self._kinds.get(endpoint)
        if kind is None or kind[0] != AlertKind.REMOVE:
            return False
        return self._tally(endpoint) >= self.l

    # ---------------------------------------------------------------- queries

    def _tally(self, subject: Endpoint) -> int:
        return len(self._reports.get(subject, ()))

    def unstable_subjects(self) -> list:
        """Subjects in the blocking region ``L <= tally < H``."""
        return [
            s
            for s in self._reports
            if self.l <= self._tally(s) < self.h and s not in self._proposed
        ]

    def first_seen(self, subject: Endpoint) -> Optional[float]:
        """Time of the first alert about ``subject`` (for reinforcement)."""
        return self._first_seen.get(subject)

    def kind_of(self, subject: Endpoint) -> Optional[str]:
        """The alert kind (JOIN/REMOVE) first reported for ``subject``."""
        entry = self._kinds.get(subject)
        return entry[0] if entry else None
