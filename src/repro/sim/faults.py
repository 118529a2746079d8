"""Fault injection rules for the simulated network.

The paper's evaluation (section 7) exercises membership services with faults
that are *not* clean crashes: one-way connectivity loss implemented with
iptables INPUT-chain drops, sustained high packet loss on a subset of
processes, flip-flopping reachability, and packet blackholes between
specific pairs.  Every one of them is a drop, a delay, a duplicate or a
reorder applied to a set of links, so a rule here is three things:

* a **scope** — the links it covers: packets from ``src`` to ``dst``
  (``None`` means any node), and the reverse direction too when
  ``both_ways`` is set;
* a **window** — ``[start, end)``, optionally flip-flopping with
  ``period_on``/``period_off``, which composes the "20 seconds on / 20
  seconds off" scenario of Figure 9 directly;
* one **effect** — its class: :class:`Loss`, :class:`Delay`,
  :class:`Duplicate` or :class:`Reorder`.

Every scope the profiles use is one of: a process's ingress (``dst=X``)
or egress (``src=X``), a whole process (``src=X, both_ways=True``), a
link or blackhole (``src={a}, dst={b}, both_ways=True``), a partition
(``src=A, dst=B``, ``both_ways`` unless one-way), and everything (no
scope: ambient loss, the message adversary).

:class:`repro.sim.network.Network` keeps one rule list per effect, picked
by the rule's type.  Loss, delay and the message adversary (duplicate,
reorder) draw from three separate RNG streams, so installing a rule of
one never perturbs the draws of another.

Process schedules are :class:`ScheduledAction` steps the experiment
layer applies; correlated failures pick their processes with
:func:`rack_members`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.node_id import Endpoint

__all__ = [
    "FaultRule",
    "Loss",
    "Delay",
    "Duplicate",
    "Reorder",
    "ScheduledAction",
    "rack_members",
]


@dataclass(kw_only=True)
class FaultRule:
    """Base class: a scope and a window; subclasses add the effect.

    ``src``/``dst`` bound which packets match (``None``: any node);
    ``both_ways`` also matches the reverse direction.  ``start``/``end``
    bound when the rule can be active.  If ``period_on`` and
    ``period_off`` are set, the rule alternates: active for ``period_on``
    seconds, inactive for ``period_off``, starting at ``start``.
    """

    src: Optional[frozenset[Endpoint]] = None
    dst: Optional[frozenset[Endpoint]] = None
    both_ways: bool = False
    start: float = 0.0
    end: float = math.inf
    period_on: Optional[float] = None
    period_off: Optional[float] = None

    def __post_init__(self) -> None:
        """Reject windows, periods and effect values that cannot mean anything.

        ``period_on`` with ``period_off`` unset used to silently mean
        "always on", and a zero-length cycle divided by zero inside
        :meth:`active`; both are configuration mistakes, so they fail here
        at construction time, as do a probability outside ``[0, 1]`` and a
        negative delay or jitter.
        """
        if self.end < self.start:
            raise ValueError(
                f"fault window is empty: end={self.end} < start={self.start}"
            )
        if self.period_on is not None or self.period_off is not None:
            if self.period_on is None or self.period_off is None:
                raise ValueError(
                    "flip-flop rules need both period_on and period_off; "
                    "leave both unset for an always-on rule"
                )
            if self.period_on <= 0.0 or self.period_off <= 0.0:
                raise ValueError(
                    "flip-flop periods must be positive: "
                    f"period_on={self.period_on}, period_off={self.period_off}"
                )
        p = getattr(self, "probability", None)
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be within [0, 1], got {p}")
        for name in ("delay", "jitter"):
            value = getattr(self, name, 0.0)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def active(self, now: float) -> bool:
        """Whether the rule's window (and flip-flop phase) covers ``now``."""
        if not (self.start <= now < self.end):
            return False
        if self.period_on is None:
            return True
        cycle = self.period_on + self.period_off
        phase = (now - self.start) % cycle
        return phase < self.period_on

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """Whether the rule's scope covers a ``src -> dst`` packet."""
        s, d = self.src, self.dst
        if (s is None or src in s) and (d is None or dst in d):
            return True
        return self.both_ways and (s is None or dst in s) and (d is None or src in d)


@dataclass(kw_only=True)
class Loss(FaultRule):
    """Drop matching packets with probability ``probability``.

    Scoped to a process's ingress this is the iptables INPUT-chain drop of
    the paper's Figure 9: the afflicted node can still transmit, which is
    how ZooKeeper clients keep their sessions alive by sending heartbeats
    they can never hear answers to.  Scoped to one pair at probability 1.0
    it is the packet blackhole of Figure 12, modelled after the blackholes
    observed by Pingmesh [Guo et al., SIGCOMM'15].
    """

    probability: float = 1.0

    def should_drop(
        self, src: Endpoint, dst: Endpoint, now: float, rng: random.Random
    ) -> bool:
        """True when this rule decides to drop the packet.

        Probabilities of exactly 0 and 1 decide without a draw, so a clean
        partition consumes nothing from the loss stream.
        """
        if not self.active(now) or not self.matches(src, dst):
            return False
        p = self.probability
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return rng.random() < p


@dataclass(kw_only=True)
class Delay(FaultRule):
    """Slow matching packets by ``delay`` plus up to ``jitter`` seconds.

    This is how slow and GC-stalled processes are modelled: the process is
    alive and eventually answers, but its probes/acks arrive past the
    detector timeout.  Scoped to a process in both directions, a round
    trip through it gains ``2 * delay``.  Delays never drop.
    """

    delay: float = 0.0
    jitter: float = 0.0

    def added_delay(
        self, src: Endpoint, dst: Endpoint, now: float, rng: random.Random
    ) -> float:
        """The configured delay (plus jitter) for matching packets."""
        if not self.active(now) or not self.matches(src, dst):
            return 0.0
        if self.jitter:
            return self.delay + rng.random() * self.jitter
        return self.delay


@dataclass(kw_only=True)
class Duplicate(FaultRule):
    """Redeliver matching messages with probability ``probability``.

    The simulated network otherwise delivers every surviving message
    exactly once — better behaved than the UDP paths the real runtime
    uses.  Each of the ``copies`` potential duplicates is an independent
    coin flip; every fabricated copy is delivered with a *fresh* latency
    sample (drawn from the adversary stream), so duplicates arrive at a
    different time than the original — often later, sometimes earlier.
    Duplicates are accounted per message class
    (``Network.duplicate_counts``) and in ``net.messages_duplicated``;
    they count as delivered, never as sent.
    """

    probability: float = 0.0
    copies: int = 1

    def __post_init__(self) -> None:
        """Validate the window plus a positive copy bound."""
        super().__post_init__()
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")

    def extra_copies(
        self, src: Endpoint, dst: Endpoint, now: float, rng: random.Random
    ) -> int:
        """How many duplicate deliveries to fabricate for this message."""
        p = self.probability
        if p <= 0.0 or not self.active(now) or not self.matches(src, dst):
            return 0
        return sum(rng.random() < p for _ in range(self.copies))


@dataclass(kw_only=True)
class Reorder(FaultRule):
    """Hold-and-release: delay matching messages with probability ``p``.

    A held message gains ``delay`` plus up to ``jitter`` extra seconds,
    sampled per message from the adversary stream.  Because only *some*
    messages on a pair are held while later sends arrive on their normal
    latency, arrival order on that pair inverts — the reordering UDP
    exhibits under bursty queueing, amplified far past what plain latency
    jitter produces.  Reordered deliveries are accounted per message
    class (``Network.reorder_counts``) and in ``net.messages_reordered``.
    """

    probability: float = 0.0
    delay: float = 0.5
    jitter: float = 0.5

    def hold_delay(
        self, src: Endpoint, dst: Endpoint, now: float, rng: random.Random
    ) -> float:
        """The sampled hold-back for this message (0.0 = not held)."""
        p = self.probability
        if p <= 0.0 or not self.active(now) or not self.matches(src, dst):
            return 0.0
        if rng.random() >= p:
            return 0.0
        if self.jitter:
            return self.delay + rng.random() * self.jitter
        return self.delay


# benchmarks/kernels.py (frozen) builds its ruled-send kernel through these
# two names; nothing else may.  ROADMAP item 7 deletes them.
def EgressLoss(nodes: frozenset[Endpoint]) -> Loss:
    """Drop everything ``nodes`` send."""
    return Loss(src=nodes)


def IngressDelay(nodes: frozenset[Endpoint], delay: float) -> Delay:
    """Delay everything sent to ``nodes`` by ``delay`` seconds."""
    return Delay(dst=nodes, delay=delay)


# ---------------------------------------------------------- process schedules


@dataclass(frozen=True)
class ScheduledAction:
    """One timed step of a process-fault or churn schedule.

    ``action`` is one of ``"netdown"``/``"netup"`` (network-level crash and
    recovery via ``Network.crash``/``recover`` — the process keeps running
    but is unreachable, and resumes participating on recovery),
    ``"crash"`` (fail-stop through the runtime: timers die with the
    process), ``"join"`` (start a new process at each endpoint, seeded
    with the cluster's first member), or ``"leave"``/``"rejoin"`` (a
    member's graceful departure, and its return under a fresh identity).
    The experiment layer translates actions into engine events.
    """

    time: float
    action: str
    nodes: tuple[Endpoint, ...]

    _ACTIONS = ("netdown", "netup", "crash", "join", "leave", "rejoin")

    def __post_init__(self) -> None:
        """Reject unknown action verbs at construction time."""
        if self.action not in self._ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r}; choose from {self._ACTIONS}"
            )


def rack_members(
    nodes: Iterable[Endpoint], racks: int, rack: int
) -> frozenset[Endpoint]:
    """The endpoints of ``rack`` when ``nodes`` are striped over ``racks``.

    Endpoints go to racks round-robin (index mod racks), so every rack
    holds a representative slice of the ring and a correlated rack fault
    hits subjects spread across the expander-graph monitoring topology —
    the hard case for cut detection.
    """
    if racks < 1:
        raise ValueError(f"racks must be >= 1, got {racks}")
    return frozenset(ep for i, ep in enumerate(nodes) if i % racks == rack)
