"""Soak: one virtual hour of background churn, per-view state checked as
it goes (``pytest --slow tests/test_soak.py -s`` prints the checkpoints).

A 64-member Rapid cluster takes a join, a graceful leave (the process
exits two seconds later), another join and a crash, one every 30 virtual
seconds, for an hour.  Every ten virtual minutes the test reads what a
long run would attribute its memory slope to: the traced heap after a
collection, the engine's pending events, the live ``FastPaxos``
instances and the shared topology table.  Two things are asserted at
every checkpoint: the table holds exactly the topologies some process
still holds (a view nobody holds is freed), and every live ``FastPaxos``
instance is some process's current one, counted before any collection
(a replaced round is freed by reference counting).
"""

import gc
import random
import tracemalloc

import pytest

from repro.core.fast_paxos import FastPaxos
from repro.core.ring import KRingTopology
from repro.experiments.harness import RapidHarness
from repro.sim.cluster import endpoint_for

pytestmark = pytest.mark.slow

CHECKPOINT = 600.0
STEP = 30.0
HOUR = 3600.0


def held_topologies(harness) -> set:
    """``id`` of every topology some process's edge monitor, decider or
    admission desk holds (a departed process keeps its last view's)."""
    held = set()
    for agent in harness.agents.values():
        detector = agent.decider.cut_detector
        for topology in (
            agent.topology,
            agent.desk.topology,
            detector.topology if detector is not None else None,
        ):
            if topology is not None:
                held.add(id(topology))
    return held


def churn_step(harness, kind: str, members: list, rng: random.Random) -> None:
    """Apply one churn event to the running cluster."""
    if kind == "join":
        joiner = endpoint_for(len(harness.agents))
        harness.add_node(joiner, seeds=(members[0],))
        members.append(joiner)
        return
    departing = rng.choice(members[1:])
    members.remove(departing)
    if kind == "leave":
        harness.agents[departing].leave()
        harness.engine.schedule(2.0, harness.crash, [departing])
    else:
        harness.crash([departing])


def test_an_hour_of_churn_keeps_only_what_live_views_hold():
    gc.collect()
    # Topologies another test's harness still holds are not this run's.
    elsewhere = set(KRingTopology._cache.keys())
    tracemalloc.start()
    try:
        harness = RapidHarness(seed=1)
        members = list(harness.bootstrap(64, seed_delay=2.0, stagger=8.0))
        assert harness.run_until_converged(64, timeout=120.0) is not None
        rng = random.Random(1)
        kinds = ("join", "leave", "join", "crash")
        steps = 0
        while harness.engine.now < HOUR:
            checkpoint = (harness.engine.now // CHECKPOINT + 1) * CHECKPOINT
            while harness.engine.now + STEP <= checkpoint:
                harness.run_for(STEP / 2)
                churn_step(harness, kinds[steps % len(kinds)], members, rng)
                steps += 1
                harness.run_for(STEP / 2)
            harness.run_for(checkpoint - harness.engine.now)
            agents = harness.agents.values()
            current = sum(agent.decider.consensus is not None for agent in agents)
            ours = {id(runtime) for runtime in harness.runtimes.values()}
            rounds = sum(
                isinstance(obj, FastPaxos) and id(obj.runtime) in ours
                for obj in gc.get_objects()
            )
            gc.collect()
            heap, _ = tracemalloc.get_traced_memory()
            table = [t for key, t in KRingTopology._cache.items() if key not in elsewhere]
            print(
                f"t={checkpoint:.0f}s heap={heap / 1e6:.2f}MB "
                f"pending={harness.engine.pending} rounds={rounds} "
                f"topologies={len(table)} processes={len(agents)}"
            )
            assert {id(topology) for topology in table} == held_topologies(harness)
            assert rounds == current
            assert harness.ledger.report()["ok"] is True
    finally:
        tracemalloc.stop()
