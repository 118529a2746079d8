"""Almost-everywhere multi-process cut detection (paper section 4.2).

Every process ingests broadcast edge alerts and tallies, per subject, how
many *distinct rings* have reported it.  Two watermarks split subjects into
modes:

* ``tally >= H``     — **stable** report mode: high-fidelity signal, the
  subject belongs in the next cut;
* ``L <= tally < H`` — **unstable**: some evidence, not yet conclusive;
* ``tally < L``      — noise.

The single aggregation rule (the paper's key insight) is: *delay proposing a
configuration change until at least one subject is stable and no subject is
unstable*.  When that condition holds, the proposal is the set of all
stable subjects — a multi-process cut — and with high probability every
correct process converges to the identical proposal ("almost-everywhere
agreement", analyzed in paper section 8.2 and measured in Figure 11).

Two liveness aids keep subjects from lingering in the unstable region:

* **implicit alerts** — if an observer ``o`` of an unstable subject ``s``
  is itself unstable (or already stable/proposed), an implicit alert from
  ``o`` about ``s`` is applied: faulty observers cannot be expected to
  report their subjects;
* **reinforcement** — handled by the membership layer: after a timeout,
  every observer of a still-unstable subject echoes the alert (see
  :meth:`repro.core.membership.ViewChanger.overdue`); the detector
  exposes the timestamps needed to drive it.

State is O(1) machine words per subject — one ``int`` of ring bits, a
reference to the first alert about it (whose kind and joiner uuid are the
subject's) and the time of that alert — plus four counters per detector;
no container is allocated per subject.  *Which* observer reported a ring is
not kept: the tally counts rings, the implicit rule asks the topology who
observes a ring, and nothing else ever read it.  All of it is reset
wholesale after each configuration change by discarding the instance.

No alert names its rings: an alert counts on the rings its observer holds
for its subject in this view's topology (:meth:`KRingTopology.ring_masks`),
so an alert from a process that observes the subject on no ring counts
for nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import Alert, AlertKind, Change, Proposal, make_proposal
from repro.core.node_id import Endpoint
from repro.core.ring import KRingTopology

__all__ = ["MultiNodeCutDetector"]


class MultiNodeCutDetector:
    """Tallies edge alerts into a stable multi-process cut proposal.

    Parameters
    ----------
    k, h, l:
        Ring count and the high/low watermarks, ``1 <= L <= H <= K``.
    topology:
        The monitoring topology of the current configuration: which rings
        an alert counts on, and who observes a ring for the implicit-alert
        rule.  ``None`` only for an empty view, whose first member is
        vouched for by one process as all ``K`` observers at once: there
        every alert counts on every ring.
    """

    def __init__(self, k: int, h: int, l: int, topology: Optional[KRingTopology] = None) -> None:
        if not (1 <= l <= h <= k):
            raise ValueError(f"need 1 <= L <= H <= K, got K={k} H={h} L={l}")
        self.k = k
        self.h = h
        self.l = l
        self.topology = topology
        # subject -> bitmask, in first-report order: bit r (r < K) is set
        # once ring r has reported the subject, so the tally is the
        # popcount; bit K marks a subject already emitted in a proposal
        # (awaiting consensus), which no longer counts as unstable and
        # takes no further alerts.  A proposed subject is past H, so the
        # extra bit never moves a popcount across a watermark.
        self._reports: dict[Endpoint, int] = {}
        # subject -> the first alert about it: its kind and joiner uuid
        # are the subject's (the alert object is shared by every receiver
        # of the batch it came in).
        self._first: dict[Endpoint, Alert] = {}
        # subject -> time of first alert (drives reinforcement timeouts).
        self._first_seen: dict[Endpoint, float] = {}
        # Incremental aggregation-rule state, so the per-alert check is
        # O(1) instead of a scan over every reported subject: the number
        # of *unproposed* subjects at/above the high watermark and in the
        # blocking region [L, H), and the number of REMOVE-kind subjects
        # (when zero — e.g. during mass bootstraps — the implicit-alert
        # rule cannot apply and is skipped wholesale).
        self._stable_count = 0
        self._unstable_count = 0
        self._remove_count = 0
        # Whether some tally has reached L since the last implicit-alert
        # pass: the only event that gives a pass work (see there).
        self._crossed_low = False

    # ---------------------------------------------------------------- feeding

    def receive_alert(self, alert: Alert, now: float = 0.0) -> Optional[Proposal]:
        """Ingest one alert; returns a cut proposal when one stabilizes.

        The proposal is every stable subject, returned by the alert that
        leaves no subject unstable and at least one stable subject not
        proposed before.

        The alert counts on the rings its observer holds for the subject
        in the topology, whatever it names.  Alerts are idempotent: a
        duplicate (same subject, same observer) does not move the tally.
        Conflicting kinds for the same subject are impossible in the
        protocol (JOIN alerts are only about non-members, REMOVE only about
        members); if one arrives anyway it is ignored.  An alert from a
        process that observes the subject on no ring is ignored too: it
        does not even register the subject.
        """
        subject = alert.subject
        reports = self._reports
        before = reports.get(subject)
        if before is not None and (
            before >> self.k or self._first[subject].kind != alert.kind
        ):
            return None  # already proposed, or a conflicting kind
        topology = self.topology
        if topology is None:
            rings = (1 << self.k) - 1
        else:
            try:  # the topology's memo, shared by every decider of the view
                rings = topology.masks[subject][alert.observer]
            except KeyError:  # the view's first alert about it, or a stranger's
                rings = topology.ring_masks(subject).get(alert.observer, 0)
        if not rings:
            return None  # not an observer of the subject
        if before is None:
            before = 0
            self._first[subject] = alert
            self._first_seen[subject] = now
            if alert.kind == AlertKind.REMOVE:
                self._remove_count += 1
        after = before | rings
        if after != before:
            reports[subject] = after
            # Move the subject between zones.  Only unproposed subjects
            # ever change tally, so the blocking-region count needs no
            # membership test.
            low, high = self.l, self.h
            was, tally = before.bit_count(), after.bit_count()
            if was < low:
                if tally >= low:
                    self._crossed_low = True
                    if tally >= high:
                        self._stable_count += 1
                    else:
                        self._unstable_count += 1
            elif was < high <= tally:
                self._unstable_count -= 1
                self._stable_count += 1
        if (
            self._crossed_low
            and self._unstable_count
            and self._remove_count
            and topology is not None
        ):
            self._apply_implicit_alerts()
        if self._stable_count == 0 or self._unstable_count:
            return None
        # Every stable subject, the ones proposed before included — but
        # only when there is a new one among them: consensus takes one
        # vote per view, so repeating a cut tells it nothing.
        self._stable_count = 0
        high = self.h
        first = self._first
        stable = [s for s, rings in reports.items() if rings.bit_count() >= high]
        proposed = 1 << self.k
        for s in stable:
            reports[s] |= proposed
        return make_proposal(
            Change(endpoint=s, kind=first[s].kind, uuid=first[s].joiner_uuid)
            for s in stable
        )

    # ------------------------------------------------------- implicit alerts

    def _apply_implicit_alerts(self) -> None:
        """Paper section 4.2: if observer ``o`` of an unstable subject ``s``
        is itself failing (a REMOVE-kind subject at or past ``L``, proposed
        or not), count an implicit alert from ``o`` about ``s``.

        A pass only lifts subjects that are already at or past ``L``, so
        it makes nobody newly failing and nobody newly blocked: run twice
        in a row, the second pass finds nothing.  New work appears only
        when a tally reaches ``L`` — a new failing observer, or a new
        blocked subject to check against the failing ones — so the caller
        runs a pass only after such a crossing, and a crossing seen while
        no pass can apply (nothing blocked, no REMOVE-kind subject) stays
        on record for the first pass that can.  (Without that gate a
        detector scans every reported subject on every alert of a failure
        wave.)
        """
        self._crossed_low = False
        topology = self.topology
        h = self.h
        l = self.l
        reports = self._reports
        first = self._first
        for subject, before in reports.items():
            if not (l <= before.bit_count() < h):
                continue
            after = before
            for ring, observer in enumerate(topology.observers_of(subject)):
                if after >> ring & 1:
                    continue
                seen = reports.get(observer)
                if (
                    seen is not None
                    and seen.bit_count() >= l
                    and first[observer].kind == AlertKind.REMOVE
                ):
                    after |= 1 << ring
            if after != before:
                reports[subject] = after
                if after.bit_count() >= h:
                    self._unstable_count -= 1
                    self._stable_count += 1

    # ---------------------------------------------------------------- queries

    def unstable_subjects(self) -> list:
        """Subjects in the blocking region ``L <= tally < H``, in the order
        they were first reported."""
        l, h = self.l, self.h
        return [s for s, rings in self._reports.items() if l <= rings.bit_count() < h]

    def first_seen(self, subject: Endpoint) -> Optional[float]:
        """Time of the first alert about ``subject`` (for reinforcement)."""
        return self._first_seen.get(subject)

    def kind_of(self, subject: Endpoint) -> Optional[str]:
        """The alert kind (JOIN/REMOVE) first reported for ``subject``."""
        alert = self._first.get(subject)
        return alert.kind if alert is not None else None
