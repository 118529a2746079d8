"""The harness contract: one script, every system, both clocks.

The paper's evaluation (section 7) puts every membership system through
one procedure; :class:`repro.sim.cluster.SimCluster` is that procedure.
This drives the same short script through every ``SYSTEMS`` entry in the
simulator — and, under ``--live``, through real UDP sockets — and reads
the results back through the contract alone: ``trace``, ``ledger``,
``agents[ep].view()``, ``live_endpoints()``.
"""

import pytest

from repro.core.settings import RapidSettings
from repro.experiments.harness import SYSTEMS, harness_for
from repro.sim.cluster import endpoint_for

from test_live import FAST


@pytest.fixture(params=[*sorted(SYSTEMS), pytest.param("live", marks=pytest.mark.live)])
def cluster(request):
    """``(harness, late)``: a fresh harness and an unused address for a late joiner."""
    if request.param != "live":
        yield harness_for(request.param, seed=3), endpoint_for(8)
        return
    from repro.experiments.live import LiveHarness
    from repro.runtime.asyncio_transport import open_local_socket

    sock, late = open_local_socket()  # learn a free port; the harness binds it itself
    sock.close()
    with LiveHarness(seed=3, settings=RapidSettings(**FAST)) as harness:
        yield harness, late


def test_one_script_drives_every_system(cluster):
    harness, late = cluster
    endpoints = harness.bootstrap(8, seed_delay=2.0, stagger=1.0)
    assert harness.run_until_converged(8, timeout=120.0) is not None
    harness.run_for(5.0)  # steady state before the fault
    victim = endpoints[3]
    harness.crash([victim])
    assert harness.run_until_converged(7, timeout=120.0) is not None
    harness.run_for(2.0)  # let the per-second reports see the final view
    survivors = [ep for ep in endpoints if ep != victim]
    assert harness.live_endpoints() == survivors
    assert all(set(harness.agents[ep].view()) == set(survivors) for ep in survivors)
    assert {8, 7} <= harness.trace.unique_sizes(survivors)
    assert harness.ledger is None or harness.ledger.report()["ok"] is True
    # A late joiner is a live process like any other (the harness
    # look-alikes used to disagree: 8 endpoints, 9 view sizes).
    harness.add_node(late, seeds=(endpoints[0],))
    live = [ep for ep, runtime in harness.runtimes.items() if not runtime.crashed]
    assert harness.live_endpoints() == live and len(live) == 8


def test_a_process_crashed_before_its_deferred_start_stays_down(cluster):
    harness, late = cluster
    endpoints = harness.bootstrap(4, seed_delay=1.0)
    started = []
    agent = harness.add_node(late, start_at=harness.engine.now + 0.5, seeds=endpoints[:1])
    agent.start = lambda: started.append(late)
    harness.crash([late])
    harness.run_for(1.0)
    assert started == [] and late not in harness.live_endpoints()
