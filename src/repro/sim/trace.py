"""Experiment traces: membership-view timeseries and view-change logs.

The paper's figures plot, for every process, the cluster size that process
believes in at every second (Figures 1, 7, 8, 9, 10) and count distinct
sizes reported during bootstrap (Table 1).  :class:`ViewTrace` captures
exactly those observations; protocol nodes call :meth:`ViewTrace.record`
from a one-second tick, and analysis code reads the aggregates back.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.node_id import Endpoint

__all__ = ["ViewTrace", "ViewChangeEventLog", "ViewChangeRecord"]


@dataclass
class ViewChangeRecord:
    """One installed view change at one process.

    ``seq`` and ``members`` (the configuration sequence number and the
    full membership tuple) are recorded when the protocol provides them;
    they feed the safety-invariant monitor
    (:class:`repro.obs.invariants.ViewLedger`).
    """

    time: float
    endpoint: Endpoint
    config_id: int
    size: int
    joins: int
    removes: int
    seq: int = 0
    members: tuple = ()


class ViewTrace:
    """Per-process, per-second record of believed cluster size."""

    def __init__(self) -> None:
        self.samples: dict[Endpoint, list[tuple[float, int, int]]] = defaultdict(list)

    def record(self, endpoint: Endpoint, time: float, size: int, config_id: int = 0) -> None:
        """Log that ``endpoint`` saw a cluster of ``size`` at ``time``."""
        self.samples[endpoint].append((time, size, config_id))

    # ---------------------------------------------------------------- queries

    def first_time_at_size(self, endpoint: Endpoint, size: int) -> Optional[float]:
        """Earliest time ``endpoint`` reported exactly ``size`` members."""
        for t, s, _ in self.samples.get(endpoint, ()):
            if s == size:
                return t
        return None

    def convergence_time(self, nodes: Iterable[Endpoint], size: int) -> Optional[float]:
        """Time for *all* ``nodes`` to report ``size`` (max of first-times).

        This is the paper's bootstrap-latency metric: "the time taken for
        all processes to converge to a cluster size of N".  Returns ``None``
        if any node never converged.
        """
        worst = 0.0
        for node in nodes:
            t = self.first_time_at_size(node, size)
            if t is None:
                return None
            worst = max(worst, t)
        return worst

    def per_node_convergence(
        self, nodes: Iterable[Endpoint], size: int
    ) -> dict[Endpoint, Optional[float]]:
        """First time each node reported ``size`` (for ECDFs, Figure 6)."""
        return {node: self.first_time_at_size(node, size) for node in nodes}

    def unique_sizes(self, nodes: Optional[Iterable[Endpoint]] = None) -> set[int]:
        """Distinct cluster sizes ever reported (Table 1's metric)."""
        keys = list(nodes) if nodes is not None else list(self.samples)
        out: set[int] = set()
        for node in keys:
            out.update(s for _, s, _ in self.samples.get(node, ()))
        return out

    def sizes_at(self, time: float, nodes: Optional[Iterable[Endpoint]] = None) -> list[int]:
        """Most recent size reported by each node at or before ``time``."""
        keys = list(nodes) if nodes is not None else list(self.samples)
        out = []
        for node in keys:
            last = None
            for t, s, _ in self.samples.get(node, ()):
                if t > time:
                    break
                last = s
            if last is not None:
                out.append(last)
        return out

    def series(self, endpoint: Endpoint) -> list[tuple[float, int]]:
        """(time, size) samples for a single node."""
        return [(t, s) for t, s, _ in self.samples.get(endpoint, ())]

    def aggregate_series(
        self, nodes: Optional[Iterable[Endpoint]] = None, step: float = 1.0
    ) -> list[tuple[float, int, int, int]]:
        """Downsampled (time, min, median, max) across nodes per time step.

        This is the textual analogue of the scatter plots in Figures 1 and
        7-10: at each step we report the spread of views across the cluster.
        A wide min-max spread means inconsistent views; a changing median
        means instability.
        """
        keys = set(nodes) if nodes is not None else set(self.samples)
        by_step: dict[int, list[int]] = defaultdict(list)
        for node in keys:
            for t, s, _ in self.samples.get(node, ()):
                by_step[int(t / step)].append(s)
        out = []
        for bucket in sorted(by_step):
            values = sorted(by_step[bucket])
            out.append(
                (
                    bucket * step,
                    values[0],
                    values[len(values) // 2],
                    values[-1],
                )
            )
        return out


@dataclass
class ViewChangeEventLog:
    """Every view-change installation across the cluster, in time order.

    When a :class:`~repro.obs.invariants.ViewLedger` is attached (the
    ``ledger`` field), every record carrying configuration contents is
    fed to it synchronously, so safety violations surface at the exact
    event that caused them.
    """

    records: list[ViewChangeRecord] = field(default_factory=list)
    ledger: object = None

    def record(
        self,
        time: float,
        endpoint: Endpoint,
        config_id: int,
        size: int,
        joins: int = 0,
        removes: int = 0,
        seq: int = 0,
        members: tuple = (),
        uuids: tuple = (),
    ) -> None:
        """Append one view-change installation to the log.

        ``uuids`` (the members' logical ids) are not kept in the record;
        they only let the ledger tell a rejoined process's incarnations
        apart.
        """
        self.records.append(
            ViewChangeRecord(
                time, endpoint, config_id, size, joins, removes, seq, members
            )
        )
        if self.ledger is not None and members:
            self.ledger.observe(time, endpoint, config_id, seq, members, size, uuids)

    def distinct_configurations(self) -> list[int]:
        """Config ids in order of first installation anywhere."""
        seen: list[int] = []
        for rec in self.records:
            if rec.config_id not in seen:
                seen.append(rec.config_id)
        return seen

    def installations_of(self, config_id: int) -> list[ViewChangeRecord]:
        """Every process's installation record for one configuration."""
        return [r for r in self.records if r.config_id == config_id]

    def view_change_count(self, endpoint: Endpoint) -> int:
        """Number of view changes a single process went through."""
        return sum(1 for r in self.records if r.endpoint == endpoint)
