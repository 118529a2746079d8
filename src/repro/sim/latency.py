"""Network latency models.

The simulated network asks a latency model for a one-way delay per message.
Models are pure given an RNG, so experiments stay reproducible.

Every simulated run uses :class:`LanLatency`, a lognormal fit loosely
matching intra-datacenter RTTs (median a few hundred microseconds, with a
tail), plus a per-byte serialization cost so that large messages (e.g. full
membership list reads from the ZooKeeper baseline) cost proportionally
more.  Its fit is three module constants.  :class:`ConstantLatency` is for
tests that need exact timing, passed to
:class:`~repro.sim.network.Network` directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol

__all__ = ["LatencyModel", "ConstantLatency", "LanLatency"]


class LatencyModel(Protocol):
    """Interface: one-way message delay in seconds."""

    def sample(self, rng: random.Random, size_bytes: int) -> float:
        """One-way delay (seconds) for a message of ``size_bytes``."""


@dataclass
class ConstantLatency(LatencyModel):
    """Fixed delay; useful in unit tests where timing must be exact."""

    delay: float = 0.001

    def sample(self, rng: random.Random, size_bytes: int) -> float:
        """The fixed delay, regardless of size or randomness."""
        return self.delay


#: Median one-way propagation delay of :class:`LanLatency` (seconds).
MEDIAN = 0.0005
#: Its tail: a sigma of 0.6 gives a p99 roughly 4x the median.
SIGMA = 0.6
#: NIC/stack serialization rate: at 1 Gbps a 1 KB message adds ~8
#: microseconds, while a 100 KB membership snapshot adds ~0.8 ms.
BYTES_PER_SECOND = 125_000_000.0
_LOG_MEDIAN = math.log(MEDIAN)


class LanLatency(LatencyModel):
    """Lognormal LAN delay (``MEDIAN``, ``SIGMA``) plus a per-byte
    transmission cost (``BYTES_PER_SECOND``)."""

    def sample(self, rng: random.Random, size_bytes: int) -> float:
        """Lognormal propagation delay plus size-proportional transmission."""
        # exp(gauss(mu, sigma)) is the same lognormal distribution as
        # rng.lognormvariate(mu, sigma), but gauss() amortizes one pair of
        # uniforms over two samples where normalvariate() runs a rejection
        # loop — measurably cheaper on the per-message hot path.
        propagation = math.exp(rng.gauss(_LOG_MEDIAN, SIGMA))
        transmission = size_bytes / BYTES_PER_SECOND
        return propagation + transmission
