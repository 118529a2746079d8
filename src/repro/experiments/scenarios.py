"""Experiment scenarios reproducing each table and figure of the paper.

Every function is deterministic given its ``seed`` and returns a plain dict
of results; the benchmark runner (``python -m repro.bench``, see
:mod:`repro.bench`) calls these and renders paper-shaped tables, and the
test suite asserts the qualitative claims (who wins, who is stable, who
flaps).

Cluster sizes default to scaled-down values (the paper ran 1000-2000
processes on 100 VMs; pure-Python simulation of the full size is possible
but slow).  Scale via the ``n`` arguments or the benchmark CLI's
``--scale`` flag.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.stats import summarize
from repro.apps.resilience import ViewWatcher
from repro.apps.service_discovery import (
    Backend,
    LoadBalancer,
    ServiceDiscoveryConfig,
    WorkloadGenerator,
)
from repro.apps.txn_platform import DataServer, TxnClient, TxnPlatformConfig
from repro.core.cut_detector import MultiNodeCutDetector
from repro.core.events import NodeStatus
from repro.core.messages import Alert, AlertKind
from repro.core.node_id import Endpoint
from repro.core.ring import KRingTopology
from repro.experiments.harness import SYSTEMS, RapidHarness, harness_for
from repro.experiments.live import live_bootstrap_experiment
from repro.obs.app_scorecard import AppScorecard
from repro.obs.scorecard import StabilityScorecard
from repro.runtime.dispatch import TypeDispatcher
from repro.sim.cluster import endpoint_for
from repro.sim.fault_profiles import compile_profile
from repro.sim.faults import ScheduledAction
from repro.sim.process import SimRuntime
from repro.sim.rng import child_rng

__all__ = [
    "bootstrap_experiment",
    "crash_experiment",
    "join_churn_experiment",
    "adversary_experiment",
    "partition_heal_experiment",
    "sensitivity_experiment",
    "txn_platform_experiment",
    "service_discovery_experiment",
    "bandwidth_stats",
    "install_profile",
    "SCENARIO_FUNCTIONS",
    "scenario_function",
]


def _settled(
    system: str,
    n: int,
    seed: int,
    settle_timeout: float,
    harness_kwargs: dict,
    rest: float = 5.0,
) -> tuple:
    """A steady ``n``-process cluster: ``(harness, endpoints, settled)``.

    The preamble every fault scenario shares: one seed process, the rest
    five seconds later spread over one second, run until all report
    ``n`` (``settled`` says whether they did within ``settle_timeout``),
    then ``rest`` quiet seconds before anything is injected.
    """
    harness = harness_for(system, seed=seed, **harness_kwargs)
    endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=1.0)
    settled = harness.run_until_converged(n, timeout=settle_timeout)
    harness.run_for(rest)
    return harness, endpoints, settled is not None


def _require_rapid(scenario: str, system: str, needs: str) -> None:
    """Reject a baseline for a scenario that drives Rapid's node API."""
    if system in SYSTEMS and not issubclass(SYSTEMS[system], RapidHarness):
        raise ValueError(
            f"{scenario} requires a Rapid harness, not {system!r} ({needs})"
        )


# --------------------------------------------------------- the one install
# path: fault rules, then timed process actions, then the scorecard


def _apply_action(harness, action) -> None:
    """Execute one scheduled fault or churn action against a harness."""
    verb = action.action
    if verb == "crash":
        harness.crash(action.nodes)
        return
    for ep in action.nodes:
        if verb == "netdown":
            harness.network.crash(ep)
        elif verb == "netup":
            harness.network.recover(ep)
        elif verb == "join":
            harness.add_node(ep, seeds=(harness.endpoints[0],))
        elif verb == "leave":
            harness.agents[ep].leave()
        else:  # rejoin
            harness.agents[ep].rejoin()


def _schedule(harness, actions) -> None:
    """Put each :class:`~repro.sim.faults.ScheduledAction` on the clock."""
    for action in actions:
        harness.engine.schedule_at(action.time, _apply_action, harness, action)


def install_profile(
    harness,
    endpoints: Sequence[Endpoint],
    profile: str,
    seed: int,
    fault_start: float,
    profile_overrides: Optional[dict] = None,
) -> tuple:
    """Compile and install a fault profile: ``(compiled, healthy, scorecard)``.

    The one fault-install path of every profile-driven scenario: network
    rules installed, process actions scheduled, and a membership
    :class:`~repro.obs.scorecard.StabilityScorecard` started over the
    ``healthy`` observers (the endpoints the profile leaves alone).
    """
    compiled = compile_profile(
        profile, endpoints, seed, fault_start, overrides=profile_overrides
    )
    for rule in compiled.rules:
        harness.network.add_rule(rule)
    _schedule(harness, compiled.actions)
    healthy = [ep for ep in endpoints if ep not in compiled.faulty]
    scorecard = StabilityScorecard(
        engine=harness.engine,
        views={ep: harness.agents[ep].view for ep in healthy},
        faulty=compiled.faulty,
        fault_start=fault_start,
        crashed=lambda ep: harness.runtimes[ep].crashed,
    )
    scorecard.start()
    return compiled, healthy, scorecard


# ------------------------------------------------------------- Figures 5-7,
# Table 1: bootstrap


def bootstrap_experiment(
    system: str,
    n: int,
    seed: int = 0,
    timeout: float = 600.0,
    seed_delay: float = 10.0,
    stagger: float = 2.0,
    **harness_kwargs,
) -> dict:
    """Bootstrap ``n`` processes and measure convergence.

    Returns convergence time (all processes report ``n``; the paper's
    Figure 5 metric), per-node first-report times (Figure 6 ECDF), the
    distinct cluster sizes reported (Table 1), and the aggregate view
    timeseries (Figure 7).
    """
    harness = harness_for(system, seed=seed, **harness_kwargs)
    endpoints = harness.bootstrap(n, seed_delay=seed_delay, stagger=stagger)
    convergence = harness.run_until_converged(n, timeout=timeout)
    # Hold the converged view for two more samples.
    harness.run_for(2.0)
    trace = harness.trace
    return {
        "system": system,
        "n": n,
        "convergence_time": convergence,
        "per_node_times": trace.per_node_convergence(endpoints, n),
        "unique_sizes": trace.unique_sizes(endpoints),
        "timeseries": trace.aggregate_series(endpoints, step=5.0),
        "harness": harness,
    }


# ----------------------------------------------------------------- Figure 8,
# Table 2: crash faults


def crash_experiment(
    system: str,
    n: int,
    failures: int = 10,
    seed: int = 0,
    settle_timeout: float = 600.0,
    observe_for: float = 120.0,
    **harness_kwargs,
) -> dict:
    """Bootstrap, then crash ``failures`` processes simultaneously.

    Reports the view-size timeseries around the crash (Figure 8), the time
    for all survivors to converge to ``n - failures``; Table 2's per-process
    bandwidth summaries are :func:`bandwidth_stats` over the returned harness.
    """
    harness, endpoints, _ = _settled(
        system, n, seed, settle_timeout, harness_kwargs, rest=10.0
    )
    crash_time = harness.engine.now
    victims = endpoints[n // 2 : n // 2 + failures]
    harness.crash(victims)
    removal_time = harness.run_until_converged(
        n - failures, timeout=observe_for
    )
    harness.run_for(5.0)
    survivors = [ep for ep in endpoints if ep not in set(victims)]
    sizes_during = harness.trace.unique_sizes(survivors)
    return {
        "system": system,
        "n": n,
        "failures": failures,
        "crash_time": crash_time,
        "removal_time": (removal_time - crash_time) if removal_time else None,
        "sizes_reported_by_survivors": sizes_during,
        "intermediate_sizes": sorted(
            s for s in sizes_during if n - failures < s < n
        ),
        "timeseries": harness.trace.aggregate_series(survivors, step=5.0),
        "harness": harness,
    }


# ------------------------------------------------------------- join churn:
# late joins and rejoins against a steady cluster (join-path benchmarks)

#: Seconds over which join_churn's joins and leaves start, seconds from a
#: leave to its rejoin, and the deadline for re-converging afterwards.
_CHURN_WINDOW = 5.0
_REJOIN_DELAY = 8.0
_CHURN_TIMEOUT = 180.0


def join_churn_experiment(
    system: str,
    n: int,
    joiners: int = 8,
    rejoins: int = 0,
    seed: int = 0,
    settle_timeout: float = 600.0,
    **harness_kwargs,
) -> dict:
    """Bootstrap ``n`` processes, then churn the membership via the join path.

    After the cluster reaches a steady state, ``joiners`` fresh processes
    start staggered over ``_CHURN_WINDOW`` seconds, and ``rejoins`` existing
    members gracefully leave (staggered over the same window) and rejoin
    ``_REJOIN_DELAY`` seconds later with fresh logical identities.  This is
    the join-dissemination workload: joiners and rejoiners alike are
    answered with the view's snapshot (deduplicated to the designated
    observer), and rejoins add the UUID_IN_USE retry when a rejoin races
    its own removal.

    Requires a Rapid harness (node-level ``leave``/``rejoin`` and late
    ``add_node``).  Returns the time for the cluster to re-converge to
    ``n + joiners`` members and the join-path traffic totals
    (message/byte counts of the ``PreJoin*``/``Join*`` classes).
    """
    _require_rapid(
        "join_churn", system, "needs node-level leave/rejoin and late add_node"
    )
    harness, endpoints, _ = _settled(system, n, seed, settle_timeout, harness_kwargs)
    churn_start = harness.engine.now
    rng = harness.network.rng_for("join_churn")
    actions = []
    for ep in endpoints[1 : 1 + max(0, min(rejoins, n - 1))]:
        leave_at = churn_start + rng.random() * _CHURN_WINDOW
        actions += [
            ScheduledAction(leave_at, "leave", (ep,)),
            ScheduledAction(leave_at + _REJOIN_DELAY, "rejoin", (ep,)),
        ]
    for i in range(joiners):
        join_at = churn_start + rng.random() * _CHURN_WINDOW
        actions.append(ScheduledAction(join_at, "join", (endpoint_for(n + i),)))
    _schedule(harness, actions)
    converged_at = harness.run_until_converged(n + joiners, timeout=_CHURN_TIMEOUT)
    harness.run_for(2.0)
    network = harness.network
    join_messages = sum(
        count
        for key, count in network.class_counts.items()
        if key.startswith(("PreJoin", "Join"))
    )
    join_bytes = sum(
        total
        for key, total in network.class_bytes.items()
        if key.startswith(("PreJoin", "Join"))
    )
    return {
        "system": system,
        "n": n,
        "joiners": joiners,
        "rejoins": rejoins,
        "churn_start": churn_start,
        "churn_convergence": (
            converged_at - churn_start if converged_at is not None else None
        ),
        "join_messages": join_messages,
        "join_bytes": join_bytes,
        "timeseries": harness.trace.aggregate_series(list(harness.agents), step=5.0),
        "harness": harness,
    }


def bandwidth_stats(harness, endpoints: Sequence[Endpoint], start: float = 0.0) -> dict:
    """Table 2: mean/p99/max of per-second KB/s across processes."""
    tx_all: list[float] = []
    rx_all: list[float] = []
    for ep in endpoints:
        tx, rx = harness.network.per_second_rates(ep, start=start)
        tx_all.extend(tx)
        rx_all.extend(rx)
    return {"tx": summarize(tx_all), "rx": summarize(rx_all)}


# -------------------------------------------------- Figures 1, 9-12 matrix:
# named fault profiles scored against ground truth


def adversary_experiment(
    system: str,
    n: int,
    profile: str = "flip_flop",
    seed: int = 0,
    fault_at: float = 30.0,
    observe_for: float = 120.0,
    settle_timeout: float = 600.0,
    profile_overrides: Optional[dict] = None,
    **harness_kwargs,
) -> dict:
    """Run a named fault profile against a system and score stability.

    Bootstraps ``n`` processes, compiles ``profile`` (see
    :mod:`repro.sim.fault_profiles`) against the cluster at
    ``now + fault_at``, installs its rules and schedules its crash/recover
    actions, and samples every healthy process's view through a
    :class:`~repro.obs.scorecard.StabilityScorecard` for ``observe_for``
    seconds.  The returned dict is flat scalars (sweep-CSV friendly) plus
    the usual ``timeseries``/``harness`` keys.  Figure 1 is
    ``profile="ingress_loss"``, Figure 9 ``"flip_flop"`` and Figure 10
    ``"egress_loss"``.
    """
    harness, endpoints, settled = _settled(
        system, n, seed, settle_timeout, harness_kwargs
    )
    fault_start = harness.engine.now + fault_at
    compiled, healthy, scorecard = install_profile(
        harness, endpoints, profile, seed, fault_start, profile_overrides
    )
    harness.run_for(fault_at + observe_for)
    report = {
        "system": system,
        "n": n,
        "profile": profile,
        "expect_eviction": compiled.expect_eviction,
        "faulty": sorted(str(e) for e in compiled.faulty),
        "settled": settled,
        **scorecard.report(),
        "timeseries": harness.trace.aggregate_series(healthy, step=5.0),
        "harness": harness,
    }
    if harness.ledger is not None:  # installs carry config ids only where checked
        report["configs_post_fault"] = len(
            {r.config_id for r in harness.trace.records if r.time >= fault_start}
        )
    return report


# ------------------------------------------------------- partition and heal:
# no split-brain while split, rejoin after

#: Seconds partition_heal watches the healed cluster for re-convergence, and
#: the period at which it rejoins minority members that learned of their
#: removal.
_HEAL_OBSERVE = 240.0
_REJOIN_POLL = 5.0


def partition_heal_experiment(
    system: str,
    n: int,
    fraction: float = 0.2,
    partition_for: float = 60.0,
    seed: int = 0,
    fault_at: float = 10.0,
    settle_timeout: float = 600.0,
    **harness_kwargs,
) -> dict:
    """Split off a minority slice, hold the partition, heal, and rejoin.

    Installs the ``partition_heal`` fault profile (a bounded-window
    :class:`~repro.sim.faults.Partition` between a ``fraction`` minority and
    the rest) against a settled cluster and asserts the safety story end to
    end: during the partition the minority — below the classical majority,
    let alone Rapid's fast-path quorum — must make **zero** view progress
    (no split-brain, checked both by counting its view installs and by the
    always-on :class:`~repro.obs.invariants.ViewLedger`), while the majority
    reconfigures it out.  After the window closes, the minority members'
    probes name the configuration the majority closed, and the majority
    members they probe answer with the logged Decision that removed them
    (:meth:`~repro.core.membership.ViewChanger.repair`); as each one
    reaches ``KICKED`` the experiment calls
    :meth:`~repro.core.membership.RapidNode.rejoin`, whose join is answered
    with the view's snapshot, back to a full ``n``-member view.

    Requires a Rapid harness (node-level status/rejoin and the trace's
    install records).  Returns flat scalars — minority install count during
    the partition, whether the majority converged while split, rejoin and
    re-convergence progress, the ledger's check count, and the scorecard's
    healthy evictions and detection latency — plus the usual
    ``timeseries``/``harness`` payloads.
    """
    _require_rapid(
        "partition_heal", system, "needs node-level status/rejoin and install records"
    )
    harness, endpoints, settled = _settled(
        system, n, seed, settle_timeout, harness_kwargs
    )
    fault_start = harness.engine.now + fault_at
    compiled, majority, scorecard = install_profile(
        harness, endpoints, "partition_heal", seed, fault_start,
        {"fraction": fraction, "duration": partition_for},
    )
    minority = compiled.faulty
    heal_time = fault_start + partition_for
    harness.run_for(fault_at + partition_for)
    minority_installs = sum(
        1
        for record in harness.trace.records
        if record.endpoint in minority and record.time >= fault_start
    )
    majority_sizes = {len(harness.agents[ep].view()) for ep in majority}
    majority_converged = majority_sizes == {n - len(minority)}
    rejoined: set = set()
    reconverged_at = None
    deadline = harness.engine.now + _HEAL_OBSERVE
    while harness.engine.now < deadline:
        harness.run_for(_REJOIN_POLL)
        for ep in sorted(minority):  # a set's order follows the hash seed
            node = harness.agents[ep]
            if ep not in rejoined and node.status in (
                NodeStatus.KICKED,
                NodeStatus.LEFT,
            ):
                rejoined.add(ep)
                node.rejoin()
        if len(rejoined) == len(minority) and harness.converged(n):
            reconverged_at = harness.engine.now
            break
    harness.run_for(2.0)
    card = scorecard.report()
    return {
        "system": system,
        "n": n,
        "minority": len(minority),
        "fault_start": fault_start,
        "heal_time": heal_time,
        "settled": settled,
        "minority_installs_during_partition": minority_installs,
        "majority_converged_during_partition": majority_converged,
        "rejoined": len(rejoined),
        "reconverge_time": (
            reconverged_at - heal_time if reconverged_at is not None else None
        ),
        "invariant_checks": harness.ledger.records,
        # The minority is meant to come back, so the scorecard's flap and
        # removal verdicts say nothing here; its safety numbers do.
        "healthy_evicted_nodes": card["healthy_evicted_nodes"],
        "detection_latency": card["detection_latency"],
        "timeseries": harness.trace.aggregate_series(list(endpoints), step=5.0),
        "harness": harness,
    }


# ---------------------------------------------------------------- Figure 11:
# K, H, L sensitivity of almost-everywhere agreement


def sensitivity_experiment(
    k: int = 10,
    h_values: Iterable[int] = (6, 7, 8, 9),
    l_values: Iterable[int] = (1, 2, 3, 4),
    f_values: Iterable[int] = (2, 4, 8, 16),
    n: int = 1000,
    repetitions: int = 20,
    observers_sampled: int = 250,
    seed: int = 0,
) -> dict:
    """Figure 11: conflict probability of the CD scheme.

    Follows the paper's methodology directly: pick ``F`` random processes to
    fail, generate the alerts their observers would broadcast, deliver them
    to each (sampled) process in a uniform random order, and count processes
    whose first proposal does not contain the full failed set.

    Returns ``{(h, l, f): conflict_rate_percent}``.
    """
    rng = child_rng(seed, "sensitivity")
    members = [endpoint_for(i) for i in range(n)]
    topology = KRingTopology(members, k)
    results: dict[tuple, float] = {}
    for h in h_values:
        for l in l_values:
            if not (1 <= l <= h <= k):
                continue
            for f in f_values:
                conflicts = 0
                trials = 0
                for rep in range(repetitions):
                    failed = rng.sample(members, f)
                    failed_set = frozenset(failed)
                    alerts = _alerts_for_failures(topology, failed, k)
                    sample = min(observers_sampled, n)
                    for _ in range(sample):
                        order = alerts[:]
                        rng.shuffle(order)
                        detector = MultiNodeCutDetector(k, h, l, topology)
                        first_proposal = None
                        for alert in order:
                            proposal = detector.receive_alert(alert)
                            if proposal and first_proposal is None:
                                first_proposal = proposal
                                break
                        trials += 1
                        if first_proposal is not None:
                            proposed = {c.endpoint for c in first_proposal}
                            if not failed_set <= proposed:
                                conflicts += 1
                results[(h, l, f)] = 100.0 * conflicts / max(trials, 1)
    return {"k": k, "n": n, "conflict_rates": results}


def _alerts_for_failures(
    topology: KRingTopology, failed: Sequence[Endpoint], k: int
) -> list:
    alerts = []
    for subject in failed:
        by_observer: dict[Endpoint, list] = {}
        for ring, observer in enumerate(topology.observers_of(subject)):
            by_observer.setdefault(observer, []).append(ring)
        for observer, rings in by_observer.items():
            alerts.append(
                Alert(
                    observer=observer,
                    subject=subject,
                    kind=AlertKind.REMOVE,
                    config_id=0,
                    ring_numbers=tuple(rings),
                )
            )
    return alerts


# -------------------------------------------------------- Figures 12/13:
# application tier served through churn


def _app_experiment(
    system: str,
    n: int,
    profile: Optional[str],
    seed: int,
    fault_at: float,
    observe_for: float,
    settle_timeout: float,
    profile_overrides: Optional[dict],
    harness_kwargs: dict,
    deploy: Callable,
    drain: float,
) -> dict:
    """Serve an application through a fault profile; the flat result row.

    The skeleton under both app experiments: settle the cluster, let
    ``deploy(harness, endpoints, stats)`` co-host the app tier on it —
    returning the load ``sources`` to start for the workload's duration,
    the (already started) view ``watchers``, and a callable giving the
    app's own result keys — strike with ``profile`` ``fault_at`` seconds
    in, run the workload out plus ``drain`` seconds of in-flight requests,
    and assemble app SLO scalars, ``mem_``-prefixed membership stability
    metrics and the series payloads behind ``repro.bench --timeseries``.
    """
    harness, endpoints, settled = _settled(
        system, n, seed, settle_timeout, harness_kwargs
    )
    start = harness.engine.now
    duration = fault_at + observe_for
    fault_start = start + fault_at if profile is not None else None
    stats = AppScorecard(fault_start=fault_start)
    sources, watchers, app_result = deploy(harness, endpoints, stats)
    for source in sources:
        source.start(duration)
    compiled = mem_card = None
    healthy: Sequence[Endpoint] = endpoints
    if profile is not None:
        compiled, healthy, mem_card = install_profile(
            harness, endpoints, profile, seed, fault_start, profile_overrides
        )
    harness.run_for(duration + drain + 1.0)
    for worker in (*sources, *watchers):
        worker.stop()
    end = start + duration
    result = {
        "system": system,
        "n": n,
        "profile": profile or "none",
        "settled": settled,
        **app_result(),
        **stats.report(start, end),
        "harness": harness,
        "timeseries": harness.trace.aggregate_series(list(healthy), step=5.0),
        "app_latency_series": stats.latency_series(start, end),
        "app_goodput_series": stats.goodput_series(start, end),
    }
    if compiled is not None:
        result["expect_eviction"] = compiled.expect_eviction
        result["faulty"] = sorted(str(e) for e in compiled.faulty)
        result.update(
            {f"mem_{key}": value for key, value in mem_card.report().items()}
        )
    return result


def service_discovery_experiment(
    system: str,
    n: int,
    profile: Optional[str] = None,
    seed: int = 0,
    fault_at: float = 10.0,
    observe_for: float = 40.0,
    settle_timeout: float = 600.0,
    profile_overrides: Optional[dict] = None,
    app_config=None,
    **harness_kwargs,
) -> dict:
    """Figure 13 end-to-end: LB + backend fleet served through a fault profile.

    The load balancer lives on the first member (co-hosted with its
    membership agent via :meth:`TypeDispatcher.overlay
    <repro.runtime.dispatch.TypeDispatcher.overlay>`), every other member
    is a backend, and an external generator offers open-loop load for
    ``fault_at + observe_for`` seconds.  ``profile`` (any
    :mod:`repro.sim.fault_profiles` name, or ``None`` for a fault-free
    run) strikes ``fault_at`` seconds into the workload.  Works against
    every system in :data:`~repro.experiments.harness.SYSTEMS`, which is
    the paper's comparison: SWIM-style piecemeal updates trigger a reload
    storm, Rapid takes one reload.

    Returns flat scalars from the app SLO scorecard (goodput, retry and
    hedge counts, breaker churn, p50/p99/p999 latency with pre/post-fault
    splits), ``reloads``, membership stability metrics prefixed ``mem_``,
    and the ``app_latency_series``/``app_goodput_series`` payloads behind
    ``repro.bench --timeseries``.
    """
    if isinstance(app_config, dict):
        app_config = ServiceDiscoveryConfig(**app_config)
    config = app_config or ServiceDiscoveryConfig()

    def deploy(harness, endpoints, stats):
        lb_ep = endpoints[0]
        lb = LoadBalancer(
            TypeDispatcher.overlay(harness.runtimes[lb_ep]),
            endpoints[1:],
            stats,
            config,
        )
        for ep in endpoints[1:]:
            Backend(TypeDispatcher.overlay(harness.runtimes[ep]), config)
        watcher = ViewWatcher(
            harness.runtimes[lb_ep],
            harness.agents[lb_ep].view,
            lb.on_view_change,
            interval=0.25,
        )
        watcher.start()
        generator = WorkloadGenerator(
            SimRuntime(
                harness.engine, harness.network, Endpoint("10.254.1.2", 9999), seed=seed
            ),
            lb_ep,
            stats,
            config,
        )
        return [generator], [watcher], lambda: {"reloads": lb.reloads}

    return _app_experiment(
        system, n, profile, seed, fault_at, observe_for, settle_timeout,
        profile_overrides, harness_kwargs,
        deploy, config.request_deadline,
    )


#: External clients offering the txn platform's load.
_TXN_CLIENTS = 2


def txn_platform_experiment(
    system: str,
    n: int,
    profile: Optional[str] = None,
    seed: int = 0,
    fault_at: float = 10.0,
    observe_for: float = 40.0,
    settle_timeout: float = 600.0,
    profile_overrides: Optional[dict] = None,
    app_config=None,
    **harness_kwargs,
) -> dict:
    """Figure 12 end-to-end: txn platform served through a fault profile.

    Every member is a :class:`~repro.apps.txn_platform.DataServer`
    (co-hosted with its membership agent); ``_TXN_CLIENTS`` external
    clients offer open-loop transactions for ``fault_at + observe_for`` seconds.
    ``profile="blackhole"`` defaults its pair to ``"edge"`` — the
    serializer (lowest-addressed member) against the highest-addressed
    one, the paper's Figure 12 fault — unless the caller overrides
    ``pair`` explicitly.

    Returns the app SLO scorecard scalars plus ``failovers`` (the max any
    server observed), membership metrics prefixed ``mem_``, and the
    timeseries payloads behind ``repro.bench --timeseries``.
    """
    if isinstance(app_config, dict):
        app_config = TxnPlatformConfig(**app_config)
    config = app_config or TxnPlatformConfig()
    if profile == "blackhole" and "pair" not in (profile_overrides or {}):
        profile_overrides = {**(profile_overrides or {}), "pair": "edge"}

    def deploy(harness, endpoints, stats):
        servers = []
        watchers = []
        for ep in endpoints:
            server = DataServer(
                TypeDispatcher.overlay(harness.runtimes[ep]),
                endpoints,
                config,
                stats=stats,
            )
            watcher = ViewWatcher(
                harness.runtimes[ep],
                harness.agents[ep].view,
                server.on_view_change,
                interval=0.5,
            )
            watcher.start()
            servers.append(server)
            watchers.append(watcher)
        clients = [
            TxnClient(
                SimRuntime(
                    harness.engine,
                    harness.network,
                    Endpoint(f"10.254.0.{i + 1}", 7000),
                    seed=seed,
                ),
                endpoints,
                stats,
                config,
            )
            for i in range(_TXN_CLIENTS)
        ]
        return clients, watchers, lambda: {
            "failovers": max(s.failovers_observed for s in servers)
        }

    return _app_experiment(
        system, n, profile, seed, fault_at, observe_for, settle_timeout,
        profile_overrides, harness_kwargs,
        deploy, config.txn_deadline,
    )


#: Harness-driven scenarios addressable by name — the dispatch table shared
#: by the benchmark runner (:mod:`repro.bench`) and the sweep harness
#: (:mod:`repro.sweep`).  Every entry takes ``(system, n, seed=..., **params)``
#: and returns a result dict carrying a ``"harness"`` key.
SCENARIO_FUNCTIONS = {
    "bootstrap": bootstrap_experiment,
    "crash": crash_experiment,
    "join_churn": join_churn_experiment,
    "adversary": adversary_experiment,
    "partition_heal": partition_heal_experiment,
    "service_discovery": service_discovery_experiment,
    "txn_platform": txn_platform_experiment,
    "live_bootstrap": live_bootstrap_experiment,
}


def scenario_function(scenario: str) -> Callable[..., dict]:
    """The :data:`SCENARIO_FUNCTIONS` entry for ``scenario``; an unknown
    name raises ``ValueError`` listing the known ones."""
    try:
        return SCENARIO_FUNCTIONS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIO_FUNCTIONS)}"
        ) from None
