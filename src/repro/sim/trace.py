"""Experiment trace: what every process reported and installed, in one object.

The paper's figures plot, for every process, the cluster size that process
believes in at every second (Figures 1, 7, 8, 9, 10) and count distinct
sizes reported during bootstrap (Table 1).  :class:`ViewTrace` holds those
per-second ``samples`` — the cluster driver
(:class:`~repro.sim.cluster.SimCluster`) takes them for every live process
at once, from outside the protocol — next to the ``records`` of every view
installation (:meth:`ViewTrace.record`, fed by the view-change callback the
driver hands each Rapid process), which it also hands to the run's
:class:`~repro.obs.invariants.ViewLedger`.  Analysis code reads the
aggregates back.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.node_id import Endpoint

__all__ = ["ViewTrace", "ViewChangeRecord"]


@dataclass
class ViewChangeRecord:
    """One installed view change at one process.

    ``seq`` and ``members`` (the configuration sequence number and the
    full membership tuple, the view's own interned tuple) are what the
    safety-invariant monitor (:class:`repro.obs.invariants.ViewLedger`)
    is fed beside it.
    """

    time: float
    endpoint: Endpoint
    config_id: int
    size: int
    seq: int
    members: tuple


class ViewTrace:
    """One run's view observations: per-second sizes and view installations.

    When a :class:`~repro.obs.invariants.ViewLedger` is attached, every
    installation is fed to it synchronously, so safety violations surface
    at the exact event that caused them.
    """

    def __init__(self, ledger=None) -> None:
        self.ledger = ledger
        #: ``{endpoint: [(time, size), ...]}``, one per driver sample at
        #: which the process was up and reported a view.
        self.samples: dict[Endpoint, list[tuple[float, int]]] = defaultdict(list)
        #: Every view installation across the cluster, in time order.
        self.records: list[ViewChangeRecord] = []

    def sample_all(self, time: float, sizes: Iterable[tuple[Endpoint, int]]) -> None:
        """Log that each ``(endpoint, size)`` of ``sizes`` saw a cluster of
        ``size`` at ``time``.

        The processes reporting one size at one instant share one
        ``(time, size)`` tuple: a sample costs each of them a list slot.
        """
        samples = self.samples
        shared: dict[int, tuple[float, int]] = {}
        for endpoint, size in sizes:
            entry = shared.get(size)
            if entry is None:
                entry = shared[size] = (time, size)
            samples[endpoint].append(entry)

    def record(self, time: float, endpoint: Endpoint, config) -> None:
        """Log that ``endpoint`` installed the configuration ``config``.

        The members' logical ids (``config.uuids``) are not kept in the
        record; they only let the ledger tell a rejoined process's
        incarnations apart.
        """
        r = ViewChangeRecord(
            time, endpoint, config.config_id, config.size, config.seq, config.members
        )
        self.records.append(r)
        if self.ledger is not None:
            self.ledger.observe(
                time, endpoint, r.config_id, r.seq, r.members, r.size, config.uuids
            )

    # ---------------------------------------------------------------- queries

    def per_node_convergence(
        self, nodes: Iterable[Endpoint], size: int
    ) -> dict[Endpoint, Optional[float]]:
        """First time each node reported exactly ``size`` (for ECDFs, Figure 6).

        The maximum over ``nodes`` is the paper's bootstrap-latency metric,
        "the time taken for all processes to converge to a cluster size of
        N"; a ``None`` entry is a node that never did.
        """
        return {
            node: next(
                (t for t, s in self.samples.get(node, ()) if s == size), None
            )
            for node in nodes
        }

    def unique_sizes(self, nodes: Optional[Iterable[Endpoint]] = None) -> set[int]:
        """Distinct cluster sizes ever reported (Table 1's metric)."""
        keys = list(nodes) if nodes is not None else list(self.samples)
        out: set[int] = set()
        for node in keys:
            out.update(s for _, s in self.samples.get(node, ()))
        return out

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
            for t, s in self.samples.get(node, ()):
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
