"""Ground-truth-aware stability metrics for adversarial experiments.

The paper's stability claim (Figures 9–12) is qualitative in most
reproductions — "Rapid holds its view, SWIM flaps".  The
:class:`StabilityScorecard` makes it a number.  It knows which processes
the fault profile actually afflicted (the ground truth a real deployment
lacks) and samples every healthy process's membership view each virtual
second after fault onset, scoring:

* **healthy-node evictions** — false positives: a non-faulty process
  vanishing from another healthy process's view;
* **detection latency** — virtual seconds from fault onset until every
  faulty process is absent from every healthy view (for profiles where
  eviction is the correct outcome);
* **membership flaps** — an (observer, subject) pair toggling again after
  its first removal: the subject reappearing, or being re-removed after a
  reappearance.  A service that evicts cleanly scores zero;
* **view changes** — how often any healthy observer's view content
  changed, bounding churn.

Sampling is identity-aware: agents whose ``view()`` returns a cached tuple
(Rapid's config members, SWIM's view cache) skip the set-diff entirely on
quiet seconds, so the scorecard adds negligible cost at n=1000.  When a
sample finds a new view, the member set is built once per view *object*
and shared by every observer that reports that object: in a Rapid
cluster every observer holds the same interned ``Configuration.members``
tuple, so the scorecard holds one set per view and per sample that first
saw it, not one per observer.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from repro.core.node_id import Endpoint

__all__ = ["StabilityScorecard"]

#: Sampling period in virtual seconds.
SAMPLE_INTERVAL = 1.0


class StabilityScorecard:
    """Samples healthy processes' views and scores membership stability.

    Parameters
    ----------
    engine:
        The discrete-event engine (supplies virtual time + scheduling).
    views:
        Mapping of endpoint to a zero-argument callable returning that
        process's current membership view (an iterable of endpoints).
        Only *healthy* observers should be included — the scorecard
        judges the service from the perspective of correct processes.
    faulty:
        Ground-truth set of afflicted processes.
    fault_start:
        Virtual time of fault onset; the baseline snapshot and the first
        sample are taken there.
    crashed:
        Optional predicate excluding observers that are currently
        fail-stopped (their frozen views would otherwise read as stale).
    """

    def __init__(
        self,
        engine,
        views: Mapping[Endpoint, Callable[[], Iterable[Endpoint]]],
        faulty: Iterable[Endpoint],
        fault_start: float,
        crashed: Optional[Callable[[Endpoint], bool]] = None,
    ) -> None:
        self.engine = engine
        self.views = dict(views)
        self.faulty = frozenset(faulty)
        self.fault_start = fault_start
        self._crashed = crashed or (lambda ep: False)
        self._prev_raw: dict[Endpoint, tuple] = {}
        self._prev_set: dict[Endpoint, frozenset] = {}
        self._has_faulty: dict[Endpoint, bool] = {}
        self._removed_pairs: set[tuple] = set()
        self._started = False
        #: Distinct healthy subjects evicted from any healthy view.
        self.healthy_evicted: set[Endpoint] = set()
        #: Individual (observer, subject) healthy-removal events.
        self.healthy_eviction_events = 0
        #: (observer, subject) toggles after the pair's first removal.
        self.flap_events = 0
        #: Samples where some observer's view content changed.
        self.view_change_events = 0
        #: First sample time with every faulty subject gone everywhere.
        self.faulty_detected_at: Optional[float] = None

    # ------------------------------------------------------------- driving

    def start(self) -> None:
        """Schedule the baseline snapshot at ``fault_start``."""
        if self._started:
            return
        self._started = True
        self.engine.schedule_at(self.fault_start, self._sample)

    def _observers(self):
        crashed = self._crashed
        return [(ep, fn) for ep, fn in self.views.items() if not crashed(ep)]

    def _sample(self) -> None:
        now = self.engine.now
        faulty = self.faulty
        # This sample's member sets, by id of the view object each was
        # built from; that object stays in _prev_raw for the rest of the
        # sample, so its id cannot be reused before the sample ends.
        sets: dict[int, frozenset] = {}
        for ep, view_fn in self._observers():
            raw = tuple(view_fn())
            prev_raw = self._prev_raw.get(ep)
            if prev_raw is not None and (raw is prev_raw or raw == prev_raw):
                continue
            view = sets.get(id(raw))
            if view is None:
                view = sets[id(raw)] = frozenset(raw)
            self._prev_raw[ep] = raw
            prev = self._prev_set.get(ep)
            self._prev_set[ep] = view
            self._has_faulty[ep] = not faulty.isdisjoint(view)
            if prev is None:
                continue
            removed = prev - view
            added = view - prev
            if not removed and not added:
                continue
            self.view_change_events += 1
            for subject in removed:
                pair = (ep, subject)
                if pair in self._removed_pairs:
                    self.flap_events += 1
                else:
                    self._removed_pairs.add(pair)
                    if subject not in faulty:
                        self.healthy_eviction_events += 1
                        self.healthy_evicted.add(subject)
            for subject in added:
                if (ep, subject) in self._removed_pairs:
                    self.flap_events += 1
        if (
            faulty
            and self.faulty_detected_at is None
            and not any(self._has_faulty.values())
            and self._has_faulty
        ):
            self.faulty_detected_at = now
        self.engine.schedule(SAMPLE_INTERVAL, self._sample)

    # ------------------------------------------------------------ reporting

    def faulty_absent_everywhere(self) -> bool:
        """Whether the last samples show no faulty subject in any view."""
        if not self._has_faulty:
            return False
        return not any(self._has_faulty.values())

    def report(self, end: Optional[float] = None) -> dict:
        """Flat metric dict for result rows (scalars only)."""
        end = self.engine.now if end is None else end
        observed = max(end - self.fault_start, 0.0)
        observers = max(len(self.views), 1)
        detection = (
            self.faulty_detected_at - self.fault_start
            if self.faulty_detected_at is not None
            else None
        )
        return {
            "fault_start": self.fault_start,
            "observed_s": observed,
            "observers": len(self.views),
            "faulty_count": len(self.faulty),
            "healthy_evicted_nodes": len(self.healthy_evicted),
            "healthy_eviction_events": self.healthy_eviction_events,
            "flap_events": self.flap_events,
            "flap_rate": self.flap_events / observed if observed else 0.0,
            "flaps_per_observer": self.flap_events / observers,
            "view_change_events": self.view_change_events,
            "view_changes_per_observer": self.view_change_events / observers,
            "detection_latency": detection,
            "faulty_removed": bool(self.faulty) and self.faulty_absent_everywhere(),
        }
