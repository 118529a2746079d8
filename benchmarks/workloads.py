"""The four benchmark workloads.

Each workload splits one repetition into three calls so the runner can
time them apart: ``setup(seed)`` builds every piece of state from the seed
and returns it, ``run(state)`` is the timed region, and ``finish(state)``
reads the results back, checks them and releases what ``setup`` opened.
Everything returned by ``finish`` is a virtual-time quantity or a count,
so it is identical for a given seed; host time is the runner's business.

Only public API of ``repro`` is driven (``harness_for`` and the harness
surface, ``cluster.add_node``/``event_log``, ``network.class_counts``/
``per_second_rates``, ``metrics.snapshot()``, ``ledger.report()``, the
``apps`` classes, ``runtime.codec``, ``runtime.asyncio_transport`` and
``runtime.conformance.sample_message``).  The drivers are composed here
rather than called through ``repro.experiments.scenarios`` because the
scenario functions run set-up and measured phase in one call.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.analysis.stats import percentile
from repro.apps.resilience import ViewWatcher
from repro.apps.service_discovery import (
    Backend,
    LoadBalancer,
    ServiceDiscoveryConfig,
    WorkloadGenerator,
)
from repro.core.node_id import Endpoint
from repro.experiments.harness import harness_for
from repro.obs.app_scorecard import AppScorecard
from repro.obs.scorecard import StabilityScorecard
from repro.runtime import codec
from repro.runtime.asyncio_transport import AsyncioRuntime, open_local_socket
from repro.runtime.conformance import sample_message
from repro.runtime.dispatch import TypeDispatcher
from repro.runtime.live_net import UDP_OVERHEAD_BYTES
from repro.sim.cluster import endpoint_for
from repro.sim.fault_profiles import compile_profile
from repro.sim.process import SimRuntime

#: Message classes whose per-class send counts are per-layer metrics.
MESSAGE_CLASSES = (
    "Probe",
    "ProbeAck",
    "BatchedAlerts",
    "VoteBundle",
    "GossipBundle",
    "Decision",
    "JoinRequest",
    "JoinResponse",
)

#: ``harness.metrics`` counters reported as deltas over the timed region.
_COUNTERS = {
    "sim.network.msgs_sent": "net.messages_sent",
    "sim.network.msgs_dropped": "net.messages_dropped",
    "core.membership.probes_sent": "cluster.probes_sent",
    "core.membership.alerts_enqueued": "cluster.alerts_enqueued",
    "core.membership.alerts_received": "cluster.alerts_received",
    "core.membership.view_installs": "cluster.view_changes",
    "core.fast_paxos.votes_cast": "consensus.votes_cast",
    "core.fast_paxos.vote_bundles_sent": "consensus.vote_bundles_sent",
    "core.fast_paxos.fallback_rounds": "consensus.fallback_rounds",
}


@dataclass
class Outcome:
    """What one repetition produced, all of it deterministic in the seed."""

    #: End-to-end and per-layer numbers keyed by metric name.
    exact: dict
    #: Work units of the timed region (engine events, or datagrams handled).
    events: int
    attempted: int
    failed: int
    #: Human-readable correctness failures; empty means the outputs are right.
    problems: list = field(default_factory=list)


def ledger_problems(report: dict) -> list:
    """Correctness gate on a ``ViewLedger.report()``."""
    if report.get("ok") is not True:
        return [f"safety ledger did not certify the run: {report}"]
    return []


# ---------------------------------------------------------------- simulator


class _Region:
    """Counter baselines taken where a simulated timed region starts."""

    def __init__(self, harness) -> None:
        self.harness = harness
        self.start = harness.engine.now
        self.events = harness.engine.events_processed
        self.counters = harness.metrics.snapshot()
        self.class_counts = dict(harness.network.class_counts)
        self.installs = len(harness.cluster.event_log.records)
        self.checked = harness.ledger.report()["checked"]

    def installs_since(self) -> list:
        """View installations recorded since the region started."""
        return self.harness.cluster.event_log.records[self.installs :]

    def measure(self, n: int, observers, converged_at, origin: float) -> dict:
        """Exact metrics and counters of the region that just ended.

        ``observers`` are the endpoints whose bandwidth Table 2 would
        report (the processes still correct at the end); ``converged_at``
        is the virtual time the last of them installed the target view and
        ``origin`` the instant convergence is measured from.
        """
        harness = self.harness
        network = harness.network
        now = harness.engine.now
        after = harness.metrics.snapshot()
        before = self.counters

        def delta(name: str) -> int:
            return after.get(name, 0) - before.get(name, 0)

        exact = {name: delta(source) for name, source in _COUNTERS.items()}
        sent = exact["sim.network.msgs_sent"]
        exact["sim.network.drop_ratio"] = (
            exact["sim.network.msgs_dropped"] / sent if sent else 0.0
        )
        for cls in MESSAGE_CLASSES:
            exact[f"sim.network.msgs.{cls}"] = network.class_counts.get(
                cls, 0
            ) - self.class_counts.get(cls, 0)
        exact["sim.engine.events"] = harness.engine.events_processed - self.events
        exact["obs.invariants.checked"] = (
            harness.ledger.report()["checked"] - self.checked
        )
        fast = delta("consensus.decisions_fast_path")
        decided = fast + delta("consensus.decisions_fallback")
        exact["core.fast_paxos.fast_path_ratio"] = fast / decided if decided else 0.0
        # Histograms keep no samples, so the two tails cover the whole
        # repetition (set-up included), not only the timed region.
        exact["core.membership.cut_detection_p99_virtual_s"] = after.get(
            "cluster.cut_detection_latency_s", {}
        ).get("p99", 0.0)
        exact["core.fast_paxos.decision_p99_virtual_s"] = after.get(
            "consensus.decision_latency_s", {}
        ).get("p99", 0.0)

        tx_rates: list = []
        for ep in observers:
            tx_rates.extend(network.per_second_rates(ep, self.start, now)[0])
        exact["sim.network.tx_kbps_p99"] = percentile(tx_rates, 99)
        exact["core.membership.view_changes"] = len(
            {record.config_id for record in self.installs_since()}
        )
        exact["core.membership.converge_virtual_s"] = (
            converged_at - origin if converged_at is not None else 0.0
        )
        exact["msgs_per_node"] = sent / n
        exact["wire_bytes_per_msg"] = delta("net.bytes_sent") / sent
        return exact


def _last_install(records, holders, accept) -> float | None:
    """Virtual time the last of ``holders`` installed an accepted view.

    ``None`` when some holder never installed one.  Install times come
    from the event log, so they are exact rather than rounded up to the
    one-second convergence poll.
    """
    installed: dict = {}
    for record in records:
        if record.endpoint in holders and accept(record):
            installed.setdefault(record.endpoint, record.time)
    if len(installed) < len(holders):
        return None
    return max(installed.values())


def _one_view_outcome(region: _Region, n: int, holders: list) -> Outcome:
    """Outcome of a region that must leave ``holders``, and only them, in one view."""
    harness = region.harness
    expected = tuple(sorted(holders))
    converged_at = _last_install(
        region.installs_since(), frozenset(holders), lambda r: r.size == len(holders)
    )
    exact = region.measure(n, holders, converged_at, region.start)
    agents = harness.agents
    failed = sum(1 for ep in holders if agents[ep].membership != expected)
    problems = ledger_problems(harness.ledger.report())
    if failed:
        problems.append(
            f"{failed} of {len(holders)} processes do not hold exactly the expected view"
        )
    return Outcome(exact, exact["sim.engine.events"], len(holders), failed, problems)


def _mass_join(harness, endpoints: list, n: int) -> list:
    """Start processes up to ``n`` at the same instant; run until they are in.

    Against a converged core of 64 the whole batch is admitted in one view
    change on every seed tried.  Spreading the starts over a second or two
    lets the cut detector settle between arrivals on some seeds, which
    splits the batch over several views at several times the cost.
    """
    joiners = [endpoint_for(i) for i in range(len(endpoints), n)]
    for ep in joiners:
        harness.cluster.add_node(ep, seeds=(endpoints[0],))
    harness.endpoints = endpoints + joiners
    harness.run_until_converged(n)
    harness.run_for(2.0)
    return harness.endpoints


def steady_cluster(seed: int, n: int, core: int):
    """A converged ``n``-member Rapid cluster whose cost barely depends on the seed.

    The paper's bootstrap — one seed process, everyone else two seconds
    later — is chaotic at these sizes: the 2-member configuration falls
    back to classical Paxos on a quarter of seeds and the cluster forms in
    3 to 13 view changes, so the same call costs 0.9-8.5 s of host time at
    n=512 depending on the seed.  A benchmark has to agree with itself
    across seeds, so the cluster is grown the steady way instead: a
    ``core`` trickling in over 8 virtual seconds (about 40 small view
    changes), then everyone else at once.
    """
    harness = harness_for("rapid", seed=seed)
    endpoints = harness.bootstrap(core, seed_delay=5.0, stagger=8.0)
    harness.run_until_converged(core)
    harness.run_for(2.0)
    if n > core:
        endpoints = _mass_join(harness, endpoints, n)
    return harness, endpoints


class _SimWorkload:
    core = 64
    #: ``(seed, n, core) -> (harness, endpoints)``; the tests swap in the
    #: scenario functions' single-seed bootstrap to compare drivers.
    cluster = staticmethod(steady_cluster)


class BootstrapN512(_SimWorkload):
    """448 processes join a converged 64-member cluster at once.

    Stands in for the paper's bootstrap (Fig. 5-7, Table 1): the join
    protocol, one 512-member view installation with its K-ring rebuild,
    and one full consensus dissemination — without the single-seed
    ladder's chaos (see :func:`steady_cluster`).
    """

    name = "bootstrap_n512"
    n = 512

    def setup(self, seed: int):
        harness, endpoints = self.cluster(seed, self.core, self.core)
        return SimpleNamespace(
            harness=harness, endpoints=endpoints, region=_Region(harness)
        )

    def run(self, state) -> None:
        state.endpoints = _mass_join(state.harness, state.endpoints, self.n)

    def finish(self, state) -> Outcome:
        return _one_view_outcome(state.region, self.n, state.endpoints)


class CrashN256(_SimWorkload):
    """8 of 256 processes fail-stop at once (paper Fig. 8, Table 2).

    The timed region is ``crash_experiment``'s: crash, run until the
    survivors agree, five more seconds.
    """

    name = "crash_n256"
    n = 256
    failures = 8

    def setup(self, seed: int):
        harness, endpoints = self.cluster(seed, self.n, self.core)
        harness.run_for(10.0)  # steady state before the fault
        victims = endpoints[self.n // 2 : self.n // 2 + self.failures]
        return SimpleNamespace(
            harness=harness,
            victims=victims,
            survivors=[ep for ep in endpoints if ep not in victims],
            region=_Region(harness),
        )

    def run(self, state) -> None:
        harness = state.harness
        harness.crash(state.victims)
        harness.run_until_converged(self.n - self.failures, timeout=120.0)
        harness.run_for(5.0)

    def finish(self, state) -> Outcome:
        return _one_view_outcome(state.region, self.n, state.survivors)


class _Latencies(AppScorecard):
    """App scorecard that also keeps every successful request's latency."""

    def __init__(self, fault_start: float) -> None:
        super().__init__(fault_start=fault_start)
        self.latencies: list = []

    def record_success(self, intended: float, latency: float) -> None:
        super().record_success(intended, latency)
        self.latencies.append(latency)


class FlipflopAppN256(_SimWorkload):
    """Service discovery served through flip-flopping one-way loss.

    From a converged cluster on, driven as ``service_discovery_experiment(
    "rapid", 256, profile="flip_flop")`` drives it: the load balancer on the first
    member, every other member a backend, an external open-loop generator
    at 200 requests/s (fixed schedule, 4 s deadline, latency from the
    scheduled arrival), the fault striking 10 s in.  Load is offered for 30
    virtual seconds, not the experiment's default 50: the faulty processes
    are gone about 7 s after the fault starts and stay gone, so the last 20
    seconds would only repeat the steady state at a third of the cost.
    """

    name = "flipflop_app_n256"
    n = 256
    fault_at = 10.0
    observe_for = 20.0

    def setup(self, seed: int):
        config = ServiceDiscoveryConfig()
        harness, endpoints = self.cluster(seed, self.n, self.core)
        start = harness.engine.now
        fault_start = start + self.fault_at
        stats = _Latencies(fault_start)
        lb_ep = endpoints[0]
        lb = LoadBalancer(
            TypeDispatcher.overlay(harness.runtimes[lb_ep]), endpoints[1:], stats, config
        )
        for ep in endpoints[1:]:
            Backend(TypeDispatcher.overlay(harness.runtimes[ep]), config)
        agents = harness.agents
        watcher = ViewWatcher(
            harness.runtimes[lb_ep],
            lambda: agents[lb_ep].membership,
            lb.on_view_change,
            interval=0.25,
        )
        generator = WorkloadGenerator(
            SimRuntime(
                harness.engine, harness.network, Endpoint("10.254.1.2", 9999), seed=seed
            ),
            lb_ep,
            stats,
            config,
        )
        compiled = compile_profile("flip_flop", endpoints, seed, fault_start)
        healthy = [ep for ep in endpoints if ep not in compiled.faulty]
        scorecard = StabilityScorecard(
            engine=harness.engine,
            views={ep: (lambda ep=ep: agents[ep].membership) for ep in healthy},
            faulty=compiled.faulty,
            fault_start=fault_start,
            crashed=lambda ep: harness.runtimes[ep].crashed,
        )
        return SimpleNamespace(
            harness=harness,
            config=config,
            stats=stats,
            lb=lb,
            watcher=watcher,
            generator=generator,
            compiled=compiled,
            healthy=healthy,
            scorecard=scorecard,
            fault_start=fault_start,
            region=_Region(harness),
        )

    def run(self, state) -> None:
        harness = state.harness
        duration = self.fault_at + self.observe_for
        state.watcher.start()
        state.generator.start(duration)
        for rule in state.compiled.rules:
            harness.network.add_rule(rule)
        state.scorecard.start()
        harness.run_for(duration + state.config.request_deadline + 1.0)
        state.generator.stop()
        state.watcher.stop()

    def finish(self, state) -> Outcome:
        harness, region, stats = state.harness, state.region, state.stats
        faulty = state.compiled.faulty
        healthy = state.healthy
        converged_at = _last_install(
            region.installs_since(),
            frozenset(healthy),
            lambda r: r.size == len(healthy) and faulty.isdisjoint(r.members),
        )
        exact = region.measure(self.n, healthy, converged_at, state.fault_start)
        duration = self.fault_at + self.observe_for
        report = stats.report(region.start, region.start + duration)
        missed = stats.offered - stats.completed
        deadline = state.config.request_deadline
        exact["apps.goodput_rps"] = report["goodput_rps"]
        # A request that failed or ran past its deadline counts as having
        # taken the whole deadline.
        exact["apps.p99_virtual_ms"] = 1000.0 * percentile(
            stats.latencies + [deadline] * missed, 99
        )
        exact["apps.retries"] = stats.retries
        exact["apps.hedges"] = stats.hedges
        exact["apps.breaker_opens"] = stats.breaker_opens
        exact["apps.reloads"] = state.lb.reloads
        evicted = state.scorecard.report()["healthy_evicted_nodes"]
        problems = ledger_problems(harness.ledger.report())
        if evicted:
            problems.append(f"{evicted} healthy processes were evicted")
        if converged_at is None:
            problems.append("the faulty processes were never removed everywhere")
        if missed:
            problems.append(f"{missed} of {stats.offered} requests missed the deadline")
        return Outcome(
            exact, exact["sim.engine.events"], stats.offered, missed + evicted, problems
        )


# ------------------------------------------------------------ live loopback


class WireLoopback:
    """Closed-loop echo of real datagrams between two live runtimes.

    A sends a corpus message to B, B's handler sends what it decoded
    straight back, and A sends the next one when an echo arrives — 16
    outstanding, 20 000 round trips, one event loop, one thread.  Only
    ``runtime.codec`` and the asyncio transport run; the traffic crosses
    the host's loopback interface, not a link.
    """

    name = "wire_loopback"
    n = 2
    corpus_size = 512
    round_trips = 20_000
    window = 16
    timeout_s = 60.0

    def corpus(self, seed: int) -> list:
        """Every registered wire class equally often, in seeded order.

        ``corpus_size // classes`` copies of each class's conformance
        exemplar plus a seeded draw for the remainder, shuffled by the
        seed: the mix a codec change is judged on stays the same from
        seed to seed while the order the messages meet the codec does not.
        """
        rng = random.Random(seed)
        names = sorted(codec.registered_classes())
        picks = names * (self.corpus_size // len(names))
        picks += rng.sample(names, self.corpus_size - len(picks))
        rng.shuffle(picks)
        return [sample_message(name) for name in picks]

    def setup(self, seed: int):
        corpus = self.corpus(seed)
        encoded = [codec.encode_bytes(msg) for msg in corpus]
        sizes = [len(data) + UDP_OVERHEAD_BYTES for data in encoded]
        # B echoes by re-encoding what it decoded, so counting the echo at
        # the size of the original needs the codec to be canonical.
        canonical = all(
            codec.encode_bytes(codec.decode_bytes(data)) == data for data in encoded
        )
        loop = asyncio.new_event_loop()
        sock_a, ep_a = open_local_socket()
        sock_b, ep_b = open_local_socket()
        a = AsyncioRuntime(ep_a, seed=seed)
        b = AsyncioRuntime(ep_b, seed=seed)
        loop.run_until_complete(a.start(sock=sock_a))
        loop.run_until_complete(b.start(sock=sock_b))
        state = SimpleNamespace(
            loop=loop, a=a, b=b, corpus=corpus, sizes=sizes, canonical=canonical,
            sent=0, echoed=0, mismatched=0, handled=0, bytes=0,
        )
        b.attach(lambda src, msg: self._echo(state, src, msg))
        return state

    @staticmethod
    def _echo(state, src, msg) -> None:
        state.handled += 1
        state.b.send(src, msg)

    def run(self, state) -> None:
        state.loop.run_until_complete(self._drive(state))

    async def _drive(self, state) -> None:
        a, corpus, sizes = state.a, state.corpus, state.sizes
        target = state.b.addr
        total = self.round_trips
        done = state.loop.create_future()

        def send_next() -> None:
            index = state.sent % len(corpus)
            state.sent += 1
            state.bytes += sizes[index]
            a.send(target, corpus[index])

        def on_echo(src, msg) -> None:
            # UDP over loopback keeps order with one sender, so echo k
            # answers send k.
            if msg != corpus[state.echoed % len(corpus)]:
                state.mismatched += 1
            state.echoed += 1
            state.handled += 1
            if state.sent < total:
                send_next()
            elif state.echoed == total and not done.done():
                done.set_result(None)

        a.attach(on_echo)
        for _ in range(min(self.window, total)):
            send_next()
        try:
            await asyncio.wait_for(done, self.timeout_s)
        except asyncio.TimeoutError:
            pass  # a lost datagram stalls a closed loop; finish() counts it

    def finish(self, state) -> Outcome:
        state.a.close()
        state.b.close()
        # Let the transports' close callbacks run before the loop goes.
        state.loop.run_until_complete(asyncio.sleep(0))
        state.loop.close()
        decode_errors = state.a.decode_errors + state.b.decode_errors
        datagrams = state.sent + state.echoed
        failed = (state.sent - state.echoed) + state.mismatched
        problems = []
        if failed:
            problems.append(
                f"{state.sent - state.echoed} datagrams were not echoed and "
                f"{state.mismatched} came back different"
            )
        if decode_errors:
            problems.append(f"{decode_errors} datagrams failed to decode")
        if not state.canonical:
            problems.append("the codec re-encodes a decoded message differently")
        exact = {
            "msgs_per_node": datagrams / self.n,
            # The echo carries the same bytes back (the codec is canonical).
            "wire_bytes_per_msg": state.bytes / state.sent,
            "runtime.transport.decode_errors": decode_errors,
        }
        return Outcome(exact, state.handled, state.sent, failed + decode_errors, problems)


WORKLOADS = {
    w.name: w for w in (BootstrapN512(), CrashN256(), FlipflopAppN256(), WireLoopback())
}
