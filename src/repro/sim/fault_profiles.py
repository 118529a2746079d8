"""Declarative, named fault profiles mapping onto the paper's scenarios.

A :class:`FaultProfile` is a named recipe — "flip-flopping one-way loss on
1% of processes", "whole-rack crash" — that :func:`compile_profile` turns
into concrete network rules (:mod:`repro.sim.faults`) plus timed process
actions, deterministically from a seed.  The adversary experiment
(:func:`repro.experiments.scenarios.adversary_experiment`) and the
experiment runner's grids (:mod:`repro.bench`) select scenarios by profile
name, so every "what happens when…?" question is a registry entry rather
than bespoke driver code.

Paper mapping (section 7):

=====================  =====================================================
profile                paper condition
=====================  =====================================================
``ingress_loss``       Fig. 9/10 family — sustained one-way (INPUT-chain)
                       loss on a slice of nodes
``flip_flop``          Fig. 9 — one-way INPUT drops on a slice of nodes,
                       flip-flopping 20 s on / 20 s off
``egress_loss``        Fig. 10 — sustained OUTPUT-chain loss on a slice of
                       nodes
``asymmetric_ingress`` Fig. 9 steady state — 100% one-way ingress drops on a
                       slice of nodes
``blackhole``          Fig. 12 — packet blackhole between one pair of
                       processes
``slow_process``       accrual-detector probe — paused-but-alive processes
                       acking below the detector timeout; a stable service
                       must not evict them
``stalled_process``    accrual-detector probe — GC-stalled processes whose
                       acks arrive past the detector timeout; they must be
                       evicted
``flip_flop_crash``    Fig. 9, process-level — repeated crash/recover of the
                       same nodes (network-level) on a slice of nodes
``rack_crash``         §7.2 correlated failures — fail-stop of one whole rack
``rack_partition``     §7.2 correlated failures — one rack split from the
                       rest of the cluster
``network_flap``       global flap composite — cluster-wide loss bursts
                       (on/off), then quiet; a stable service rides them out
                       without evictions
``partition_minority`` §7.2 partitions — minority slice split off, never
                       healed; the majority must evict it without split-brain
``partition_heal``     §7.2 partitions — minority split for a bounded window,
                       then healed; kicked members rejoin through the join
                       protocol
``partition_flap``     §7.2 partitions — minority split flapping on/off; the
                       majority must converge despite the flapping
``dup_reorder``        safety adversary — cluster-wide duplicate + reorder;
                       a correct service rides it out with zero evictions
=====================  =====================================================

Faulty-node selection draws from a child RNG scoped by profile name, so the
same (profile, seed, cluster) triple always afflicts the same processes —
the property the runner's determinism hash relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.node_id import Endpoint
from repro.sim.faults import (
    Delay,
    Duplicate,
    FaultRule,
    Loss,
    Reorder,
    ScheduledAction,
    rack_members,
)
from repro.sim.rng import child_rng

__all__ = [
    "FaultProfile",
    "CompiledProfile",
    "PROFILES",
    "compile_profile",
    "profile_names",
]


@dataclass(frozen=True)
class CompiledProfile:
    """A profile instantiated against a concrete cluster.

    ``rules`` go to ``Network.add_rule``; ``actions`` are timed
    crash/recover steps for the experiment layer to schedule; ``faulty``
    is the ground-truth set of afflicted processes the stability scorecard
    judges evictions against.  ``expect_eviction`` states whether a correct
    membership service should remove the faulty set (False for conditions
    a stable service must *ride out*, like sub-threshold delays or global
    flaps).
    """

    name: str
    rules: tuple[FaultRule, ...]
    actions: tuple[ScheduledAction, ...]
    faulty: frozenset[Endpoint]
    expect_eviction: bool


@dataclass(frozen=True)
class FaultProfile:
    """Registry entry: the eviction verdict, the knobs and a builder closure.

    ``build(nodes, fault_start, params, rng)`` returns
    ``(rules, actions, faulty)``; defaults document the tunable knobs and
    gate which overrides :func:`compile_profile` accepts.
    """

    name: str
    expect_eviction: bool
    defaults: dict
    build: Callable


def _pick_faulty(nodes: Sequence[Endpoint], fraction: float, rng) -> frozenset:
    """Sample ``fraction`` of the cluster (at least one, never the seed).

    Index 0 is the bootstrap seed; keeping it healthy means rejoin paths
    stay comparable across systems.
    """
    pool = list(nodes[1:]) if len(nodes) > 1 else list(nodes)
    count = min(len(pool), max(1, int(len(nodes) * fraction)))
    return frozenset(rng.sample(pool, count))


def _window(params: dict, start: float) -> dict:
    """The rule window a profile's params describe, from ``start`` on.

    ``duration`` bounds it; ``period_on``/``period_off`` make it flip-flop.
    """
    window = {"start": start}
    if "duration" in params:
        window["end"] = start + params["duration"]
    if "period_on" in params:
        window.update(period_on=params["period_on"], period_off=params["period_off"])
    return window


def _on_slice(make: Callable) -> Callable:
    """Builder of the rule ``make(slice, params, window)`` over a sampled
    ``fraction`` of the cluster, the slice being the faulty set."""

    def build(nodes, fault_start, params, rng):
        faulty = _pick_faulty(nodes, params["fraction"], rng)
        return (make(faulty, params, _window(params, fault_start)),), (), faulty

    return build


_build_ingress = _on_slice(lambda s, p, w: Loss(dst=s, probability=p["loss"], **w))
_build_egress = _on_slice(lambda s, p, w: Loss(src=s, probability=p["loss"], **w))
_build_asymmetric_ingress = _on_slice(lambda s, p, w: Loss(dst=s, probability=1.0, **w))
_build_process_delay = _on_slice(
    lambda s, p, w: Delay(
        src=s, both_ways=True, delay=p["delay"], jitter=p["jitter"], **w
    )
)


def _build_blackhole(nodes, fault_start, params, rng):
    if params.get("pair") == "edge":
        # Deterministic pair spanning the address range: lowest vs
        # highest.  The app experiments use this to put the blackhole on
        # the paper's Figure 12 edge — the transaction serializer (the
        # lowest-addressed member) against one far data server.
        a, b = nodes[0], nodes[-1]
    else:
        pool = list(nodes[1:]) if len(nodes) > 2 else list(nodes)
        a, b = rng.sample(pool, 2)
    rule = Loss(
        src=frozenset({a}), dst=frozenset({b}), both_ways=True, start=fault_start
    )
    return (rule,), (), frozenset((a, b))


def _build_flip_flop_crash(nodes, fault_start, params, rng):
    # Network-level netdown/netup pairs: the afflicted processes stay alive
    # (timers running) and rejoin the conversation each time they recover.
    down_for, up_for, cycles = params["down_for"], params["up_for"], params["cycles"]
    if down_for <= 0.0 or up_for <= 0.0:
        raise ValueError(
            f"flip-flop periods must be positive: "
            f"down_for={down_for}, up_for={up_for}"
        )
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    faulty = _pick_faulty(nodes, params["fraction"], rng)
    down = tuple(sorted(faulty))
    actions = []
    for k in range(cycles):
        t = fault_start + k * (down_for + up_for)
        actions.append(ScheduledAction(t, "netdown", down))
        actions.append(ScheduledAction(t + down_for, "netup", down))
    return (), tuple(actions), faulty


def _build_rack_crash(nodes, fault_start, params, rng):
    faulty = rack_members(nodes, params["racks"], params["rack"])
    return (), (ScheduledAction(fault_start, "crash", tuple(sorted(faulty))),), faulty


def _build_partition(nodes, fault_start, params, rng):
    """A slice split from the rest of the cluster, for the params' window.

    The slice is one rack of ``racks`` if the profile has racks, else a
    sampled ``fraction``; the split is one-way (slice to rest) if
    ``one_way``.
    """
    if "racks" in params:
        split = rack_members(nodes, params["racks"], params["rack"])
    else:
        split = _pick_faulty(nodes, params["fraction"], rng)
    rule = Loss(
        src=split,
        dst=frozenset(nodes) - split,
        both_ways=not params.get("one_way", False),
        probability=params["loss"],
        **_window(params, fault_start),
    )
    return (rule,), (), split


def _build_dup_reorder(nodes, fault_start, params, rng):
    p = params["probability"]
    duplicate = Duplicate(probability=p, copies=params["copies"], start=fault_start)
    reorder = Reorder(
        probability=p, delay=params["delay"], jitter=params["jitter"], start=fault_start
    )
    return (duplicate, reorder), (), frozenset()


def _build_network_flap(nodes, fault_start, params, rng):
    rule = Loss(probability=params["loss"], **_window(params, fault_start))
    return (rule,), (), frozenset()


PROFILES: dict[str, FaultProfile] = {
    p.name: p
    for p in (
        FaultProfile(
            name="ingress_loss",
            expect_eviction=True,
            defaults={"fraction": 0.01, "loss": 0.8},
            build=_build_ingress,
        ),
        FaultProfile(
            name="flip_flop",
            expect_eviction=True,
            defaults={
                "fraction": 0.01,
                "loss": 1.0,
                "period_on": 20.0,
                "period_off": 20.0,
            },
            build=_build_ingress,
        ),
        FaultProfile(
            name="egress_loss",
            expect_eviction=True,
            defaults={"fraction": 0.01, "loss": 0.8},
            build=_build_egress,
        ),
        FaultProfile(
            name="asymmetric_ingress",
            expect_eviction=True,
            defaults={"fraction": 0.01},
            build=_build_asymmetric_ingress,
        ),
        FaultProfile(
            name="blackhole",
            expect_eviction=False,
            defaults={"pair": "random"},
            build=_build_blackhole,
        ),
        FaultProfile(
            name="slow_process",
            expect_eviction=False,
            defaults={"fraction": 0.01, "delay": 0.25, "jitter": 0.0},
            build=_build_process_delay,
        ),
        FaultProfile(
            name="stalled_process",
            expect_eviction=True,
            defaults={"fraction": 0.01, "delay": 2.5, "jitter": 0.0},
            build=_build_process_delay,
        ),
        FaultProfile(
            name="flip_flop_crash",
            expect_eviction=True,
            defaults={
                "fraction": 0.01,
                "down_for": 10.0,
                "up_for": 10.0,
                "cycles": 3,
            },
            build=_build_flip_flop_crash,
        ),
        FaultProfile(
            name="rack_crash",
            expect_eviction=True,
            defaults={"racks": 8, "rack": 1},
            build=_build_rack_crash,
        ),
        FaultProfile(
            name="rack_partition",
            expect_eviction=True,
            defaults={"racks": 8, "rack": 1, "loss": 1.0, "one_way": False},
            build=_build_partition,
        ),
        FaultProfile(
            name="partition_minority",
            expect_eviction=True,
            defaults={"fraction": 0.2, "loss": 1.0},
            build=_build_partition,
        ),
        FaultProfile(
            name="partition_heal",
            expect_eviction=True,
            defaults={"fraction": 0.2, "loss": 1.0, "duration": 60.0},
            build=_build_partition,
        ),
        FaultProfile(
            name="partition_flap",
            expect_eviction=True,
            defaults={
                "fraction": 0.2,
                "loss": 1.0,
                "period_on": 15.0,
                "period_off": 15.0,
            },
            build=_build_partition,
        ),
        FaultProfile(
            name="dup_reorder",
            expect_eviction=False,
            defaults={
                "probability": 0.2,
                "copies": 1,
                "delay": 0.2,
                "jitter": 0.3,
            },
            build=_build_dup_reorder,
        ),
        FaultProfile(
            name="network_flap",
            expect_eviction=False,
            defaults={"loss": 1.0, "period_on": 2.0, "period_off": 8.0},
            build=_build_network_flap,
        ),
    )
}


def profile_names() -> tuple[str, ...]:
    """Registered profile names, sorted for stable CLI listings."""
    return tuple(sorted(PROFILES))


def compile_profile(
    name: str,
    nodes: Sequence[Endpoint],
    seed: int,
    fault_start: float,
    overrides: Mapping | None = None,
) -> CompiledProfile:
    """Instantiate a named profile against a concrete cluster.

    ``overrides`` must be a subset of the profile's default params —
    unknown keys fail loudly so grids cannot silently typo a knob.
    Faulty-node choice derives from ``child_rng(seed, "fault-profile",
    name)``: same inputs, same afflicted nodes, byte-identical runs.
    """
    try:
        profile = PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; choose from {profile_names()}"
        )
    params = dict(profile.defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(
                f"profile {name!r} has no parameter {key!r}; "
                f"valid: {sorted(params) or '(none)'}"
            )
        params[key] = value
    rng = child_rng(seed, "fault-profile", name)
    rules, actions, faulty = profile.build(tuple(nodes), fault_start, params, rng)
    return CompiledProfile(
        name=name,
        rules=tuple(rules),
        actions=tuple(sorted(actions, key=lambda a: a.time)),
        faulty=frozenset(faulty),
        expect_eviction=profile.expect_eviction,
    )
