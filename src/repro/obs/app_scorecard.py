"""Application SLO scorecard: what end users felt during the experiment.

The membership-level :class:`~repro.obs.scorecard.StabilityScorecard`
scores the *detector*; this scorecard scores the *service built on it* —
the paper's Figures 12/13 argument that membership instability surfaces
as failover storms and latency cliffs in application traffic.  Apps
report into one shared :class:`AppScorecard`:

* the load source registers every **offered** request (open loop: offered
  load doesn't shrink when the system stalls);
* :class:`~repro.apps.resilience.ResilientCall` reports attempt-level
  events — retries, hedges, per-attempt timeouts;
* terminal outcomes (success with latency-from-intended-time, error,
  deadline exceeded) are reported once per logical request;
* :class:`~repro.apps.resilience.BreakerBoard` transitions and app events
  like LB reloads and serializer failovers land as counters.

:meth:`report` flattens to scalars (bench result keys, one CSV row each);
:meth:`latency_series` and :meth:`goodput_series` provide the per-second
series ``repro.bench --timeseries`` exports.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.analysis.stats import percentile

__all__ = ["AppScorecard"]


class AppScorecard:
    """Counters plus an (intended-time, latency) log for one experiment.

    ``fault_start`` splits the latency log into a pre-fault baseline and
    the post-fault window the paper's figures plot; pass ``None`` for
    fault-free runs (everything lands in the "pre" bucket).
    """

    def __init__(self, fault_start: Optional[float] = None) -> None:
        self.fault_start = fault_start
        #: Logical requests offered by the load sources.
        self.offered = 0
        #: Logical requests that completed successfully.
        self.completed = 0
        #: Logical requests that ended in an application error.  No app of
        #: this tier answers with one, so this stays 0; the report keeps
        #: the column.
        self.errors = 0
        #: Logical requests abandoned at their deadline.
        self.deadline_exceeded = 0
        #: Logical requests that exhausted max_attempts without an answer.
        self.exhausted = 0
        #: Retry transmissions (beyond each request's first attempt).
        self.retries = 0
        #: Hedged (duplicate) transmissions.
        self.hedges = 0
        #: Individual attempt timeouts (a request may have several).
        self.attempt_timeouts = 0
        #: Circuit-breaker transitions into OPEN.
        self.breaker_opens = 0
        #: Circuit-breaker transitions back to CLOSED.
        self.breaker_closes = 0
        #: App-level reconfiguration events (LB reloads, serializer
        #: failovers) — the storms of Figures 12/13.
        self.reconfigurations = 0
        #: (intended_time, latency) per successful request.
        self._latencies: list[tuple[float, float]] = []

    # ----------------------------------------------------------- recording

    def record_offered(self) -> None:
        """One logical request entered the system."""
        self.offered += 1

    def record_success(self, intended: float, latency: float) -> None:
        """One logical request completed; latency is from intended time."""
        self.completed += 1
        self._latencies.append((intended, latency))

    def record_deadline(self) -> None:
        """One logical request was abandoned at its deadline."""
        self.deadline_exceeded += 1

    def record_exhausted(self) -> None:
        """One logical request ran out of attempts."""
        self.exhausted += 1

    def record_retry(self) -> None:
        """One retry transmission left a client."""
        self.retries += 1

    def record_hedge(self) -> None:
        """One hedged transmission left a client."""
        self.hedges += 1

    def record_attempt_timeout(self) -> None:
        """One attempt timed out (the request may still succeed)."""
        self.attempt_timeouts += 1

    def record_breaker(self, dst, old: str, new: str) -> None:
        """Breaker transition hook (matches BreakerBoard.on_transition)."""
        if new == "open":
            self.breaker_opens += 1
        elif new == "closed" and old != "closed":
            self.breaker_closes += 1

    def record_reconfiguration(self) -> None:
        """One app-level reconfiguration (reload / failover) happened."""
        self.reconfigurations += 1

    # ----------------------------------------------------------- reporting

    def _window(self, post: bool) -> list:
        """Latencies of requests intended before (or from) ``fault_start``,
        which :meth:`report` has checked is set."""
        cut = self.fault_start
        if post:
            return [lat for t, lat in self._latencies if t >= cut]
        return [lat for t, lat in self._latencies if t < cut]

    @staticmethod
    def _tail(latencies: list) -> dict:
        if not latencies:
            return {"p50": None, "p99": None, "p999": None, "max": None}
        return {
            "p50": percentile(latencies, 50),
            "p99": percentile(latencies, 99),
            "p999": percentile(latencies, 99.9),
            "max": max(latencies),
        }

    def report(self, start: float, end: float) -> dict:
        """Flat scalar dict: goodput, outcome counts, tails, breaker/app churn.

        ``start``/``end`` bound the offered window (goodput denominators);
        latency tails are reported overall and, when ``fault_start`` is
        set, split into pre-/post-fault windows.
        """
        window = max(end - start, 1e-9)
        offered = self.offered
        overall = [lat for _, lat in self._latencies]
        tails = self._tail(overall)
        row = {
            "offered": offered,
            "completed": self.completed,
            "errors": self.errors,
            "deadline_exceeded": self.deadline_exceeded,
            "exhausted": self.exhausted,
            "goodput_rps": self.completed / window,
            "success_rate": self.completed / offered if offered else 0.0,
            "retries": self.retries,
            "retries_per_request": self.retries / offered if offered else 0.0,
            "hedges": self.hedges,
            "hedge_rate": self.hedges / offered if offered else 0.0,
            "attempt_timeouts": self.attempt_timeouts,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
            "reconfigurations": self.reconfigurations,
            "latency_p50": tails["p50"],
            "latency_p99": tails["p99"],
            "latency_p999": tails["p999"],
            "latency_max": tails["max"],
        }
        if self.fault_start is not None:
            pre = self._tail(self._window(post=False))
            post = self._tail(self._window(post=True))
            row.update(
                {
                    "latency_p99_pre_fault": pre["p99"],
                    "latency_p99_post_fault": post["p99"],
                    "latency_p999_post_fault": post["p999"],
                    "latency_max_post_fault": post["max"],
                }
            )
        return row

    # -------------------------------------------------------------- series

    def latency_series(self, start: float, end: float, bucket: float = 1.0) -> list:
        """Per-bucket latency tail: (bucket_start, p50, p99, max) tuples.

        Buckets are keyed by each request's *intended* arrival time, so a
        stall shows up in the second the user experienced it rather than
        the second the response finally arrived.  Empty buckets yield
        ``None`` tails — a visible service hole, not a dropped row.
        """
        n_buckets = int(math.ceil((end - start) / bucket))
        grouped: dict[int, list] = {}
        for t, lat in self._latencies:
            if t < start or t >= end:
                continue
            grouped.setdefault(int((t - start) / bucket), []).append(lat)
        series = []
        for i in range(n_buckets):
            latencies = grouped.get(i)
            if latencies:
                series.append(
                    (
                        start + i * bucket,
                        percentile(latencies, 50),
                        percentile(latencies, 99),
                        max(latencies),
                    )
                )
            else:
                series.append((start + i * bucket, None, None, None))
        return series

    def goodput_series(self, start: float, end: float, bucket: float = 1.0) -> list:
        """Per-bucket completions/s as (bucket_start, goodput) tuples."""
        n_buckets = int(math.ceil((end - start) / bucket))
        counts = [0] * n_buckets
        for t, _ in self._latencies:
            if t < start or t >= end:
                continue
            counts[int((t - start) / bucket)] += 1
        return [
            (start + i * bucket, counts[i] / bucket) for i in range(n_buckets)
        ]
