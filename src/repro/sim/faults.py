"""Fault injection rules for the simulated network.

The paper's evaluation (section 7) exercises membership services with faults
that are *not* clean crashes: one-way connectivity loss implemented with
iptables INPUT-chain drops, sustained high packet loss on a subset of
processes, flip-flopping reachability, and packet blackholes between
specific pairs.  Each scenario maps to a rule here.

A rule is consulted by :class:`repro.sim.network.Network` for every message;
any matching rule may drop the packet.  Rules carry an optional activity
window ``[start, end)`` and may flip-flop with a period, which composes the
"20 seconds on / 20 seconds off" scenario of Figure 9 directly.

Two fault families extend the drop rules:

* :class:`DelayFault` rules add *delivery latency* instead of dropping —
  modelling slow or GC-stalled processes that answer late but never die.
  The network consults them separately from drop rules (see
  ``Network._delay_rules``) so installing one never perturbs loss sampling.
* Process *schedules* (:class:`ScheduledAction`, :class:`FlipFlopCrash`,
  :class:`CrashSchedule`) describe crash/recover and join/leave/rejoin
  timelines that the experiment layer applies through
  ``Network.crash``/``recover``, the fail-stop runtime crash, or the
  harness's node API.  A network-level crash silences a process while
  its timers keep running, so it resumes participating on recovery —
  exactly the paper's flip-flopping-node scenario.

Correlated failures are expressed with the rack helpers:
:func:`rack_assignment` maps endpoints onto racks and whole racks can then
be crashed or partitioned as a unit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.node_id import Endpoint

__all__ = [
    "FaultRule",
    "IngressLoss",
    "EgressLoss",
    "PairLoss",
    "Blackhole",
    "Partition",
    "AmbientLoss",
    "DelayFault",
    "IngressDelay",
    "EgressDelay",
    "ProcessDelay",
    "LinkDelay",
    "AdversaryRule",
    "Duplicate",
    "Reorder",
    "ScheduledAction",
    "FlipFlopCrash",
    "CrashSchedule",
    "rack_assignment",
    "rack_members",
    "endpoints",
]


@dataclass
class FaultRule:
    """Base class: a window-scoped, optionally flip-flopping drop rule.

    ``start``/``end`` bound when the rule can be active.  If ``period_on``
    and ``period_off`` are set, the rule alternates: active for
    ``period_on`` seconds, inactive for ``period_off``, starting at
    ``start``.  Subclasses override :meth:`matches`.

    ``label`` names the rule for reports; :attr:`kind` falls back to the
    class name, so e.g. a :func:`Blackhole`-constructed :class:`PairLoss`
    stays distinguishable from a plain lossy pair.
    """

    start: float = 0.0
    end: float = math.inf
    period_on: Optional[float] = None
    period_off: Optional[float] = None
    label: Optional[str] = None

    #: Class-level marker: True for rules that add delivery latency
    #: (:class:`DelayFault`) rather than dropping packets.  The network
    #: keys its rule bookkeeping off this flag.
    adds_delay = False

    #: Class-level marker: True for message-level adversary rules
    #: (:class:`AdversaryRule`) that duplicate or reorder deliveries
    #: instead of dropping or delaying deterministically.  Like delay
    #: rules, the network keeps them on a separate list with a dedicated
    #: RNG stream, so installing one never perturbs loss or latency
    #: sampling of unrelated traffic.
    mutates_delivery = False

    def __post_init__(self) -> None:
        """Reject windows and flip-flop periods that cannot mean anything.

        ``period_on`` with ``period_off`` unset used to silently mean
        "always on", and a zero-length cycle divided by zero inside
        :meth:`active`; both are configuration mistakes, so they fail here
        at construction time.
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

    @property
    def kind(self) -> str:
        """Report label for this rule (``label`` or the class name)."""
        return self.label or type(self).__name__

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
        """Whether this rule applies to a ``src -> dst`` packet."""
        raise NotImplementedError

    def drop_probability(self, src: Endpoint, dst: Endpoint) -> float:
        """Probability of dropping a matching packet (0.0 to 1.0)."""
        raise NotImplementedError

    def should_drop(
        self, src: Endpoint, dst: Endpoint, now: float, rng: random.Random
    ) -> bool:
        """True when this rule decides to drop the packet."""
        if not self.active(now) or not self.matches(src, dst):
            return False
        p = self.drop_probability(src, dst)
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return rng.random() < p

    def added_delay(
        self, src: Endpoint, dst: Endpoint, now: float, rng: random.Random
    ) -> float:
        """Extra one-way delivery delay this rule adds to a packet."""
        return 0.0


@dataclass
class IngressLoss(FaultRule):
    """Drop packets *arriving at* the given nodes (iptables INPUT style).

    The afflicted node can still transmit — exactly the asymmetry of the
    paper's Figure 9 experiment, where ZooKeeper clients keep their sessions
    alive by sending heartbeats they can never hear answers to.
    """

    nodes: frozenset[Endpoint] = field(default_factory=frozenset)
    probability: float = 1.0

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """Packets destined for an afflicted node match."""
        return dst in self.nodes

    def drop_probability(self, src: Endpoint, dst: Endpoint) -> float:
        """The configured loss probability."""
        return self.probability


@dataclass
class EgressLoss(FaultRule):
    """Drop packets *leaving* the given nodes (iptables OUTPUT style)."""

    nodes: frozenset[Endpoint] = field(default_factory=frozenset)
    probability: float = 1.0

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """Packets originating at an afflicted node match."""
        return src in self.nodes

    def drop_probability(self, src: Endpoint, dst: Endpoint) -> float:
        """The configured loss probability."""
        return self.probability


@dataclass
class PairLoss(FaultRule):
    """Lossy link between two specific endpoints, optionally one-way."""

    a: Endpoint = Endpoint("unset")
    b: Endpoint = Endpoint("unset")
    probability: float = 1.0
    bidirectional: bool = True

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """The ``a -> b`` direction matches; ``b -> a`` if bidirectional."""
        if src == self.a and dst == self.b:
            return True
        return self.bidirectional and src == self.b and dst == self.a

    def drop_probability(self, src: Endpoint, dst: Endpoint) -> float:
        """The configured loss probability."""
        return self.probability


def Blackhole(a: Endpoint, b: Endpoint, **kwargs) -> PairLoss:
    """A packet blackhole between ``a`` and ``b`` (drops everything).

    This mirrors the fault injected in the paper's transactional-platform
    experiment (Figure 12), modeled after the blackholes observed by
    Pingmesh [Guo et al., SIGCOMM'15].  The returned rule is labelled
    ``"Blackhole"`` so reports can tell it apart from a plain
    :class:`PairLoss`.
    """
    kwargs.setdefault("label", "Blackhole")
    return PairLoss(a=a, b=b, probability=1.0, bidirectional=True, **kwargs)


@dataclass
class Partition(FaultRule):
    """Drop traffic between two groups of nodes.

    With ``one_way=True`` only ``group_a -> group_b`` traffic is dropped,
    producing an asymmetric partition.  ``probability`` below 1.0 yields a
    lossy/partial partition (a congested or flapping inter-group path)
    instead of a clean split.
    """

    group_a: frozenset[Endpoint] = field(default_factory=frozenset)
    group_b: frozenset[Endpoint] = field(default_factory=frozenset)
    one_way: bool = False
    probability: float = 1.0

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """Cross-group traffic matches (one direction if ``one_way``)."""
        if src in self.group_a and dst in self.group_b:
            return True
        if not self.one_way and src in self.group_b and dst in self.group_a:
            return True
        return False

    def drop_probability(self, src: Endpoint, dst: Endpoint) -> float:
        """The configured loss probability (1.0 = clean partition)."""
        return self.probability


@dataclass
class AmbientLoss(FaultRule):
    """Uniform background packet loss on every link."""

    probability: float = 0.0

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """Every link matches."""
        return True

    def drop_probability(self, src: Endpoint, dst: Endpoint) -> float:
        """The configured loss probability."""
        return self.probability


# --------------------------------------------------------------- delay rules


@dataclass
class DelayFault(FaultRule):
    """Base for rules that slow delivery instead of dropping.

    Matching packets arrive ``delay`` (plus up to ``jitter``) seconds late.
    This is how slow and GC-stalled processes are modelled: the process is
    alive and eventually answers, but its probes/acks arrive past the
    detector timeout.  Delay rules never drop and never consume the
    network's loss RNG — the network keeps them on a separate rule list so
    installing one cannot perturb drop sampling.
    """

    delay: float = 0.0
    jitter: float = 0.0

    adds_delay = True

    def __post_init__(self) -> None:
        """Validate the window plus non-negative delay/jitter."""
        super().__post_init__()
        if self.delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def drop_probability(self, src: Endpoint, dst: Endpoint) -> float:
        """Delay rules never drop."""
        return 0.0

    def added_delay(
        self, src: Endpoint, dst: Endpoint, now: float, rng: random.Random
    ) -> float:
        """The configured delay (plus jitter) for matching packets."""
        if not self.active(now) or not self.matches(src, dst):
            return 0.0
        if self.jitter:
            return self.delay + rng.random() * self.jitter
        return self.delay


@dataclass
class IngressDelay(DelayFault):
    """Delay packets *arriving at* the given nodes."""

    nodes: frozenset[Endpoint] = field(default_factory=frozenset)

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """Packets destined for an afflicted node match."""
        return dst in self.nodes


@dataclass
class EgressDelay(DelayFault):
    """Delay packets *leaving* the given nodes."""

    nodes: frozenset[Endpoint] = field(default_factory=frozenset)

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """Packets originating at an afflicted node match."""
        return src in self.nodes


@dataclass
class ProcessDelay(DelayFault):
    """Delay traffic in *both* directions of the given nodes.

    Models a paused-but-alive process (long GC pause, CPU starvation):
    probes reach it late and its acks return late, so a round trip through
    an afflicted node gains ``2 * delay``.
    """

    nodes: frozenset[Endpoint] = field(default_factory=frozenset)

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """Traffic entering or leaving an afflicted node matches."""
        return src in self.nodes or dst in self.nodes


@dataclass
class LinkDelay(DelayFault):
    """Delay traffic on one specific link, optionally one-way."""

    a: Endpoint = Endpoint("unset")
    b: Endpoint = Endpoint("unset")
    bidirectional: bool = True

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """The ``a -> b`` direction matches; ``b -> a`` if bidirectional."""
        if src == self.a and dst == self.b:
            return True
        return self.bidirectional and src == self.b and dst == self.a


# ------------------------------------------------------------ adversary rules


@dataclass
class AdversaryRule(FaultRule):
    """Base for message-level adversary rules: UDP misbehaviour, not loss.

    The simulated network otherwise delivers every surviving message
    exactly once, with one sampled latency — better behaved than the UDP
    paths the real runtime uses.  Adversary rules close that gap:
    :class:`Duplicate` redelivers matching messages and :class:`Reorder`
    holds them back, both probabilistically from the network's dedicated
    adversary RNG stream.  ``nodes`` scopes a rule to traffic touching
    the given endpoints (either direction); empty means all traffic.
    """

    nodes: frozenset[Endpoint] = field(default_factory=frozenset)
    probability: float = 0.0

    mutates_delivery = True

    def matches(self, src: Endpoint, dst: Endpoint) -> bool:
        """All traffic, or traffic touching one of the scoped nodes."""
        if not self.nodes:
            return True
        return src in self.nodes or dst in self.nodes

    def drop_probability(self, src: Endpoint, dst: Endpoint) -> float:
        """Adversary rules never drop."""
        return 0.0

    def extra_copies(self, src: Endpoint, dst: Endpoint, rng: random.Random) -> int:
        """How many duplicate deliveries to fabricate for this message."""
        return 0

    def hold_delay(self, src: Endpoint, dst: Endpoint, rng: random.Random) -> float:
        """Extra hold-back delay before releasing this message."""
        return 0.0


@dataclass
class Duplicate(AdversaryRule):
    """Redeliver matching messages with probability ``probability``.

    Each of the ``copies`` potential duplicates is an independent coin
    flip; every fabricated copy is delivered with a *fresh* latency
    sample (drawn from the adversary stream), so duplicates arrive at a
    different time than the original — often later, sometimes earlier.
    Duplicates are accounted per message class
    (``Network.duplicate_counts``) and in ``net.messages_duplicated``;
    they count as delivered, never as sent.
    """

    copies: int = 1

    def __post_init__(self) -> None:
        """Validate the window plus a positive copy bound."""
        super().__post_init__()
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")

    def extra_copies(self, src: Endpoint, dst: Endpoint, rng: random.Random) -> int:
        """Independent coin flip per potential copy."""
        p = self.probability
        if p <= 0.0:
            return 0
        count = 0
        for _ in range(self.copies):
            if rng.random() < p:
                count += 1
        return count


@dataclass
class Reorder(AdversaryRule):
    """Hold-and-release: delay matching messages with probability ``p``.

    A held message gains ``delay`` plus up to ``jitter`` extra seconds,
    sampled per message from the adversary stream.  Because only *some*
    messages on a pair are held while later sends arrive on their normal
    latency, arrival order on that pair inverts — the reordering UDP
    exhibits under bursty queueing, amplified far past what plain latency
    jitter produces.  Reordered deliveries are accounted per message
    class (``Network.reorder_counts``) and in ``net.messages_reordered``.
    """

    delay: float = 0.5
    jitter: float = 0.5

    def __post_init__(self) -> None:
        """Validate the window plus non-negative hold parameters."""
        super().__post_init__()
        if self.delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def hold_delay(self, src: Endpoint, dst: Endpoint, rng: random.Random) -> float:
        """The sampled hold-back for this message (0.0 = not held)."""
        p = self.probability
        if p <= 0.0 or rng.random() >= p:
            return 0.0
        if self.jitter:
            return self.delay + rng.random() * self.jitter
        return self.delay


# ---------------------------------------------------------- crash schedules


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


@dataclass(frozen=True)
class FlipFlopCrash:
    """A crash/recover loop: down ``down_for`` s, up ``up_for`` s, repeated.

    Compiles to network-level ``netdown``/``netup`` pairs so the afflicted
    processes stay alive (timers running) and rejoin the conversation each
    time they recover — the repeated-failure scenario the paper uses to
    show view-change counts staying bounded.
    """

    nodes: tuple[Endpoint, ...] = ()
    start: float = 0.0
    down_for: float = 10.0
    up_for: float = 10.0
    cycles: int = 3

    def __post_init__(self) -> None:
        """Validate periods and cycle count."""
        if self.down_for <= 0.0 or self.up_for <= 0.0:
            raise ValueError(
                f"flip-flop periods must be positive: "
                f"down_for={self.down_for}, up_for={self.up_for}"
            )
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")

    def schedule(self) -> tuple[ScheduledAction, ...]:
        """Expand the loop into a flat, time-ordered action sequence."""
        actions = []
        period = self.down_for + self.up_for
        for k in range(self.cycles):
            t = self.start + k * period
            actions.append(ScheduledAction(t, "netdown", self.nodes))
            actions.append(ScheduledAction(t + self.down_for, "netup", self.nodes))
        return tuple(actions)


@dataclass(frozen=True)
class CrashSchedule:
    """Fail-stop the given processes at one instant (no recovery)."""

    nodes: tuple[Endpoint, ...] = ()
    at: float = 0.0

    def schedule(self) -> tuple[ScheduledAction, ...]:
        """The single fail-stop action."""
        return (ScheduledAction(self.at, "crash", self.nodes),)


# ----------------------------------------------------------- rack helpers


def rack_assignment(
    nodes: Iterable[Endpoint], racks: int
) -> dict[Endpoint, int]:
    """Assign endpoints to ``racks`` racks round-robin (index mod racks).

    The striped layout means every rack holds a representative slice of
    the ring, so correlated rack faults hit subjects spread across the
    expander-graph monitoring topology — the hard case for cut detection.
    """
    if racks < 1:
        raise ValueError(f"racks must be >= 1, got {racks}")
    return {ep: i % racks for i, ep in enumerate(nodes)}


def rack_members(
    assignment: dict[Endpoint, int], rack: int
) -> frozenset[Endpoint]:
    """The endpoints a rack-assignment map places in ``rack``."""
    return frozenset(ep for ep, r in assignment.items() if r == rack)


def endpoints(nodes: Iterable[Endpoint]) -> frozenset[Endpoint]:
    """Convenience: freeze an iterable of endpoints for rule construction."""
    return frozenset(nodes)
