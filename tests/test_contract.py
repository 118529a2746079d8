"""The harness contract: one script, every system, both clocks.

The paper's evaluation (section 7) puts every membership system through
one procedure; :class:`repro.sim.cluster.SimCluster` is that procedure.
This drives the same short script through every ``SYSTEMS`` entry in the
simulator — and, under ``--live``, through real UDP sockets — and reads
the results back through the contract alone: ``trace``, ``ledger``,
``agents[ep].view()``, ``live_endpoints()``.  What ``trace`` holds is
observed from outside the systems: the driver samples every live view
itself, and a Rapid process reports its installs through the paper's
view-change callback.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.core.centralized import CentralizedClusterNode
from repro.core.membership import ClusterMember, EdgeMonitor, RapidNode
from repro.core.settings import RapidSettings
from repro.experiments.harness import SYSTEMS, harness_for
from repro.sim.cluster import SimCluster, endpoint_for

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
    harness.run_for(2.0)  # hold the final view for two more samples
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


def _sample_times(harness) -> list:
    return sorted({t for samples in harness.trace.samples.values() for t, _ in samples})


def test_the_driver_samples_every_live_view_at_once(cluster):
    """One sampler for every system: each sample logs every live process
    that reports a view, all at one instant, and a crashed one no more."""
    harness, _ = cluster
    endpoints = harness.bootstrap(8, seed_delay=2.0, stagger=1.0)
    converged = harness.run_until_converged(8, timeout=120.0)
    assert converged is not None
    victim = endpoints[3]
    harness.crash([victim])
    crashed_at = harness.engine.now
    assert harness.run_until_converged(7, timeout=120.0) is not None
    harness.run_for(2.0)
    trace = harness.trace
    samples = trace.samples
    assert max(t for t, _ in samples[victim]) <= crashed_at
    survivors = [ep for ep in endpoints if ep != victim]
    # Every survivor was logged at the converged sample and at each one
    # after it, with the size it reported then.
    after = [t for t in _sample_times(harness) if t >= converged]
    assert len(after) >= 3
    for ep in survivors:
        logged = dict(samples[ep])
        assert set(after) <= set(logged) and logged[converged] == 8
        assert logged[after[-1]] == harness.agents[ep].view_size == 7
    first = trace.per_node_convergence(endpoints, 8)
    assert all(t is not None and t <= converged for t in first.values())
    assert trace.per_node_convergence([victim], 7) == {victim: None}
    assert trace.aggregate_series(survivors)[-1][1:] == (7, 7, 7)


def test_a_driver_without_a_system_makes_no_agent():
    with pytest.raises(NotImplementedError):
        SimCluster(seed=1).add_node(endpoint_for(0))


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_no_harness_takes_a_latency_model_or_a_baseline_config(system):
    """No harness takes a latency model or a baseline config: every run
    uses the one simulated network and each baseline's stock timers, and
    an unknown system is refused with the known ones listed."""
    for knob in ("latency", "config"):
        with pytest.raises(TypeError):
            harness_for(system, seed=1, **{knob: None})
    with pytest.raises(ValueError, match="choose from"):
        harness_for(system + "-x", seed=1)


@pytest.mark.parametrize("system", ["rapid", "memberlist"])
def test_sampling_is_observe_only(system):
    """Driving through the driver or running the engine directly gives the
    same run: the sampler puts no event on the engine and sends nothing.
    It samples only at whole ``sample_interval`` multiples it runs the
    clock to, skipping one the clock already passed."""
    driven, direct = harness_for(system, seed=3), harness_for(system, seed=3)
    for harness in (driven, direct):
        harness.bootstrap(8, seed_delay=2.0, stagger=1.0)
    driven.engine.run(until=2.5)
    driven.run_for(17.5)
    direct.engine.run(until=20.0)

    def run(harness):
        return (
            harness.engine.events_processed,
            harness.engine.pending_live,
            harness.network.sent_messages,
            # Logical ids, hence config ids, are fresh per harness.
            [(r.time, r.endpoint, r.seq, r.size) for r in harness.trace.records],
        )

    assert run(driven) == run(direct)
    assert _sample_times(driven) == [float(t) for t in range(3, 21)]
    assert not direct.trace.samples


@pytest.mark.parametrize("system", ["rapid", "rapid-c"])
def test_installs_reach_the_trace_and_the_callers_callback(system):
    """A Rapid process reports each view it installs through the paper's
    view-change callback; the harness records it (feeding the ledger) and
    still calls the callback the caller passed."""
    harness = harness_for(system, seed=3)
    events = []
    harness.bootstrap(4, seed_delay=1.0, on_view_change=events.append)
    assert harness.run_until_converged(4, timeout=60.0) is not None
    assert events and [
        (r.time, r.config_id, r.members) for r in harness.trace.records
    ] == [(e.time, e.configuration.config_id, e.configuration.members) for e in events]
    assert harness.ledger.report()["checked"] == len(events)


#: What a system under test must not import: the simulator, the drivers,
#: the measurement front ends.
_OUTSIDE = ("repro.sim", "repro.experiments", "repro.bench")


def test_no_system_under_test_knows_it_is_in_an_experiment():
    """Rapid's stack, its detectors and the baselines import nothing from
    the experiment side, and no protocol part takes a recorder."""
    src = Path(repro.__file__).parent
    for package in ("core", "detectors", "baselines"):
        for path in sorted((src / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                assert not any(n.startswith(_OUTSIDE) for n in names), (path, names)
    for cls in (EdgeMonitor, ClusterMember, RapidNode, CentralizedClusterNode):
        params = inspect.signature(cls).parameters
        assert not {"trace", "on_sample"} & set(params), cls
