"""The K-ring expander monitoring topology (paper section 4.1).

Rapid arranges the membership set into ``K`` pseudo-random rings.  Each ring
is the full membership ordered by a per-ring hash of the member's address.
A pair ``(o, s)`` is an observer/subject edge when ``o`` immediately
precedes ``s`` on some ring.  Every process therefore has exactly ``K``
observers and ``K`` subjects (counted with multiplicity — in small clusters
the same process can precede a subject on several rings, which is why alert
messages carry ring numbers rather than just observer addresses).

The union of the rings is a random ``2K``-regular multigraph, which is a
good expander with high probability [Friedman-Kahn-Szemerédi, STOC'89] —
the property the paper's section 8 analysis rests on.

The topology is **deterministic over the membership set**: every process
that installs the same configuration computes identical rings without any
coordination.  Because all processes in a simulation share configurations,
topologies are memoized per ``(config_id, k)``.
"""

from __future__ import annotations

import bisect
import functools
from collections import OrderedDict
from typing import Iterable

from repro.core.configuration import Configuration
from repro.core.node_id import Endpoint, stable_hash64

__all__ = ["KRingTopology"]


@functools.lru_cache(maxsize=1 << 17)
def _ring_key(ring: int, endpoint: Endpoint) -> int:
    # Memoized: consecutive configurations share almost all members, so a
    # topology rebuild after a view change only hashes the new joiners.
    return stable_hash64("ring", ring, str(endpoint))


class KRingTopology:
    """Observer/subject relationships for one membership set.

    Parameters
    ----------
    members:
        The membership set (any order; rings impose their own orders).
    k:
        Number of rings.
    """

    def __init__(self, members: Iterable[Endpoint], k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.members: tuple = tuple(sorted(set(members)))
        if not self.members:
            raise ValueError("topology requires at least one member")
        # Per ring: endpoints sorted by their ring key, plus the key list
        # (for bisect-based insertion of prospective joiners).
        self._rings: list[list[Endpoint]] = []
        self._keys: list[list[int]] = []
        # Per-member neighbor rows, indexed by ring number: the protocol
        # layer asks "who observes s?" / "whom does o monitor?" on every
        # alert and probe tick, so both directions are precomputed here in
        # the same O(NK) pass that builds the rings.
        observers: dict[Endpoint, list] = {m: [None] * k for m in self.members}
        subjects: dict[Endpoint, list] = {m: [None] * k for m in self.members}
        for ring in range(k):
            keyed = sorted(
                ((_ring_key(ring, m), m) for m in self.members),
                key=lambda pair: (pair[0], str(pair[1])),
            )
            order = [m for _, m in keyed]
            self._rings.append(order)
            self._keys.append([key for key, _ in keyed])
            n = len(order)
            for i, member in enumerate(order):
                successor = order[(i + 1) % n]
                subjects[member][ring] = successor
                observers[successor][ring] = member
        self._observer_rows: dict[Endpoint, tuple] = {
            m: tuple(row) for m, row in observers.items()
        }
        self._subject_rows: dict[Endpoint, tuple] = {
            m: tuple(row) for m, row in subjects.items()
        }

    # ------------------------------------------------------------------ cache

    # Deliberately still a bounded strong LRU, not a weak table like
    # ``Configuration``'s.  A topology is already one per view — every
    # node installing a view gets it from here — and the key is the
    # config *id*, so the cache keeps no Configuration alive.  Held
    # weakly it would save nothing per member, and a laggard installing a
    # view its peers have already left would pay the O(NK log N) rebuild
    # the cache exists to share.
    _cache: "OrderedDict[tuple, KRingTopology]" = OrderedDict()
    _CACHE_SIZE = 128

    @classmethod
    def for_configuration(cls, config: Configuration, k: int) -> "KRingTopology":
        """Memoized constructor; all nodes sharing a view share a topology."""
        key = (config.config_id, k)
        topo = cls._cache.get(key)
        if topo is None:
            topo = cls(config.members, k)
            cls._cache[key] = topo
            if len(cls._cache) > cls._CACHE_SIZE:
                cls._cache.popitem(last=False)
        else:
            cls._cache.move_to_end(key)
        return topo

    # ---------------------------------------------------------------- queries

    def observers_of(self, subject: Endpoint) -> list:
        """The ``K`` observers of ``subject`` (one per ring, duplicates kept).

        For a prospective member (not in the configuration) this returns the
        *expected* observers — the processes that would precede it on each
        ring — which is exactly the set of temporary observers the join
        protocol assigns (paper section 4.1, "Joins").
        """
        row = self._observer_rows.get(subject)
        if row is not None:
            return list(row)
        return [self._expected_observer(ring, subject) for ring in range(self.k)]

    def subjects_of(self, observer: Endpoint) -> list:
        """The ``K`` subjects monitored by ``observer``."""
        row = self._subject_rows.get(observer)
        if row is None:
            raise KeyError(f"{observer} is not a member")
        return list(row)

    def observer_rings(self, observer: Endpoint, subject: Endpoint) -> list:
        """Ring numbers on which ``observer`` is the observer of ``subject``.

        Alert messages carry these so the cut detector can tally distinct
        rings even when one process observes a subject on several rings.
        """
        row = self._observer_rows.get(subject)
        if row is not None:
            return [ring for ring, obs in enumerate(row) if obs == observer]
        return [
            ring
            for ring in range(self.k)
            if self._expected_observer(ring, subject) == observer
        ]

    def unique_observers_of(self, subject: Endpoint) -> list:
        """Deduplicated observers, order-preserving by ring number."""
        return list(dict.fromkeys(self.observers_of(subject)))

    # --------------------------------------------------------------- internal

    def _expected_observer(self, ring: int, joiner: Endpoint) -> Endpoint:
        """Who would precede the non-member ``joiner`` on ``ring``."""
        idx = bisect.bisect_left(self._keys[ring], _ring_key(ring, joiner))
        # Index -1 wraps: a key below every member's follows the last one.
        return self._rings[ring][idx - 1]
