"""Declarative benchmark specifications.

A :class:`BenchSpec` names one measured run: scenario × system × cluster
size × seed × fault profile.  Suites are functions from a scale factor to
a list of specs, so ``--scale 4`` grows every cluster without editing the
suite definitions.

The ``quick`` suite is the regression gate: it must stay cheap enough to
run in CI on every change.  The ``full`` suite approaches the paper's
operating points and is meant for dedicated benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.experiments.scenarios import scenario_function

__all__ = ["BenchSpec", "SUITES", "suite_specs"]


def _format_param(value) -> str:
    """Stable, filename-friendly rendering of one param value.

    Dict-valued params (e.g. ``settings`` overrides) are flattened to
    ``key:value`` pairs in sorted order so case names stay deterministic
    and greppable.
    """
    if isinstance(value, dict):
        return "+".join(f"{k}:{value[k]}" for k in sorted(value))
    return str(value)


@dataclass
class BenchSpec:
    """One benchmark case.

    Parameters
    ----------
    scenario:
        A key of :data:`repro.experiments.scenarios.SCENARIO_FUNCTIONS`,
        the scenario function the case runs.
    system:
        Harness name from :data:`repro.experiments.harness.SYSTEMS`.
    n:
        Cluster size (scaled by the suite's ``--scale`` factor).
    seed:
        Root seed; every random stream of the run derives from it.
    params:
        Extra keyword arguments for the scenario function (fault profile:
        failure counts, profile names, observation windows).
    """

    scenario: str
    system: str
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        scenario_function(self.scenario)  # raises on an unknown name

    @property
    def name(self) -> str:
        tags = "".join(
            f"/{k}={_format_param(v)}"
            for k, v in sorted(self.params.items())
            if not k.endswith("timeout")
        )
        return f"{self.scenario}/{self.system}/n{self.n}/s{self.seed}{tags}"

    def scaled(self, factor: float) -> "BenchSpec":
        """Scale the cluster size (and cap fault counts to stay sensible)."""
        if factor == 1.0:
            return self
        n = max(4, int(round(self.n * factor)))
        params = dict(self.params)
        for count_param in ("failures", "joiners", "rejoins"):
            if count_param in params:
                params[count_param] = max(1, min(params[count_param], n // 4))
        return replace(self, n=n, params=params)


def quick_suite() -> list:
    """CI-sized regression suite: every scenario, seconds of wall time."""
    return [
        BenchSpec("bootstrap", "rapid", 16, seed=1),
        BenchSpec("bootstrap", "rapid-c", 16, seed=1),
        BenchSpec("bootstrap", "memberlist", 16, seed=1),
        BenchSpec("crash", "rapid", 16, seed=1, params={"failures": 3}),
        # Consensus-heavy gate for the gossip dissemination path: forcing
        # gossip mode at small N exercises delta vote bundles, vote pulls
        # and the convergence stop on every CI run.
        BenchSpec(
            "crash",
            "rapid",
            24,
            seed=2,
            params={"failures": 6, "settings": {"gossip_threshold": 1}},
        ),
        BenchSpec("crash", "memberlist", 16, seed=1, params={"failures": 3}),
        # Join-dissemination gate: staggered late joins plus graceful
        # leave/rejoin churn, so the CI run exercises single-responder
        # dedup, snapshot answers to joiners and rejoiners alike, and the
        # UUID_IN_USE retry on every change (Join* traffic shows up in
        # messages.by_class).
        BenchSpec(
            "join_churn",
            "rapid",
            24,
            seed=1,
            params={"joiners": 6, "rejoins": 4},
        ),
        BenchSpec(
            "adversary",
            "rapid",
            16,
            seed=1,
            params={"profile": "egress_loss", "observe_for": 60.0},
        ),
        # Message-adversary gate: duplicated and reordered (but never
        # dropped) traffic on every CI run.  The handlers must be
        # idempotent under redelivery and tolerant of overtaking, the
        # ViewLedger must stay clean, and the duplicate/reorder counters
        # surface in messages.by_class so the adversary's pressure is
        # visible in the report.
        BenchSpec(
            "adversary",
            "rapid",
            24,
            seed=1,
            params={"profile": "dup_reorder", "fault_at": 5.0, "observe_for": 30.0},
        ),
        # App-tier gate: serve open-loop traffic through a fault on every
        # CI run, exercising the resilience tier (retries, hedging,
        # breakers, deadline propagation) and the app SLO scorecard.
        BenchSpec(
            "service_discovery",
            "rapid",
            8,
            seed=1,
            params={"profile": "flip_flop", "fault_at": 5.0, "observe_for": 15.0},
        ),
        BenchSpec(
            "txn_platform",
            "rapid",
            8,
            seed=1,
            params={"profile": "blackhole", "fault_at": 5.0, "observe_for": 15.0},
        ),
    ]


def full_suite() -> list:
    """Paper-shaped suite: larger clusters, more systems, repeated seeds.

    Covers the paper's full operating range (section 7 runs 1000-2000
    processes): the simulator hot-path overhaul made n=1000 a matter of
    seconds, and gossip-counted consensus dissemination carries the suite
    to the n=2000 end point (minutes of wall time, not hours).
    """
    specs: list = []
    for seed in (1, 2, 3):
        specs.append(BenchSpec("bootstrap", "rapid", 32, seed=seed))
    specs += [
        BenchSpec("bootstrap", "rapid", 64, seed=1),
        BenchSpec("bootstrap", "rapid", 256, seed=1),
        BenchSpec("bootstrap", "rapid", 512, seed=1),
        BenchSpec("bootstrap", "rapid", 1000, seed=1),
        BenchSpec("bootstrap", "rapid", 2000, seed=1),
        BenchSpec("crash", "rapid", 256, seed=1, params={"failures": 8}),
        BenchSpec("crash", "rapid", 512, seed=1, params={"failures": 16}),
        BenchSpec("crash", "rapid", 1000, seed=1, params={"failures": 16}),
        BenchSpec("crash", "rapid", 2000, seed=1, params={"failures": 16}),
        # Join-path end point: rapid staggered joins and rejoins against a
        # steady n=1000 cluster — the deduplicated snapshot dissemination
        # workload at the paper's operating scale.
        BenchSpec(
            "join_churn",
            "rapid",
            1000,
            seed=1,
            params={"joiners": 50, "rejoins": 10},
        ),
        # Probe-heavy end point: a long lossy steady state at n=2000, where
        # edge monitoring (not consensus) dominates the event budget — the
        # probe wheel's target workload.  20 lossy processes (1%), 80%
        # egress loss, 90 s observed after the fault.
        BenchSpec(
            "adversary",
            "rapid",
            2000,
            seed=1,
            params={"profile": "egress_loss", "observe_for": 90.0},
        ),
        # Stability-under-adversity end points: the Figure 9 flip-flop
        # profile and its steady asymmetric variant at the paper's n=1000
        # operating point.  The scorecard scalars (healthy evictions, flap
        # rate, detection latency) land in result.* so BENCH_full tracks
        # the stability claim over time.
        BenchSpec(
            "adversary",
            "rapid",
            1000,
            seed=1,
            params={"profile": "flip_flop", "observe_for": 90.0},
        ),
        BenchSpec(
            "adversary",
            "rapid",
            1000,
            seed=1,
            params={"profile": "asymmetric_ingress", "observe_for": 90.0},
        ),
        # Partition-and-heal end point at the paper's n=1000 operating
        # point: the minority slice must make zero view progress while
        # split (no split-brain; the always-on ViewLedger enforces it),
        # the majority reconfigures it out, and after the heal every
        # minority member rejoins through the join protocol.  CI boxes this
        # case with `timeout` (see ci.yml).
        BenchSpec(
            "partition_heal",
            "rapid",
            1000,
            seed=1,
            params={"fraction": 0.1, "partition_for": 60.0},
        ),
        # Served-traffic end points (Figures 12-13): application workloads at
        # the paper's n=1000 operating point, under the flip-flop and
        # blackhole profiles, for Rapid and the akka gossip baseline.  The
        # app scorecard scalars (goodput, tail latency pre/post fault,
        # reloads/failovers, retries per request) land in result.* so the
        # end-to-end gap is tracked over time like the membership-level
        # stability claims above.
        BenchSpec(
            "service_discovery", "rapid", 1000, seed=1,
            params={"profile": "flip_flop"},
        ),
        BenchSpec(
            "service_discovery", "rapid", 1000, seed=1,
            params={"profile": "blackhole"},
        ),
        BenchSpec(
            "txn_platform", "rapid", 1000, seed=1,
            params={"profile": "flip_flop"},
        ),
        BenchSpec(
            "txn_platform", "rapid", 1000, seed=1,
            params={"profile": "blackhole"},
        ),
        BenchSpec(
            "service_discovery", "akka", 1000, seed=1,
            params={"profile": "flip_flop"},
        ),
        BenchSpec(
            "service_discovery", "akka", 1000, seed=1,
            params={"profile": "blackhole"},
        ),
        BenchSpec(
            "txn_platform", "akka", 1000, seed=1,
            params={"profile": "flip_flop"},
        ),
        BenchSpec(
            "txn_platform", "akka", 1000, seed=1,
            params={"profile": "blackhole"},
        ),
        BenchSpec("bootstrap", "rapid-c", 32, seed=1),
        BenchSpec("bootstrap", "memberlist", 32, seed=1),
        BenchSpec("bootstrap", "zookeeper", 32, seed=1),
        BenchSpec("bootstrap", "akka", 32, seed=1),
        BenchSpec("crash", "rapid", 32, seed=1, params={"failures": 8}),
        BenchSpec("crash", "memberlist", 32, seed=1, params={"failures": 8}),
        BenchSpec(
            "adversary", "rapid", 32, seed=1, params={"profile": "egress_loss"}
        ),
        BenchSpec(
            "adversary", "rapid", 32, seed=1, params={"profile": "ingress_loss"}
        ),
        BenchSpec(
            "adversary", "memberlist", 32, seed=1, params={"profile": "egress_loss"}
        ),
    ]
    return specs


def live_suite() -> list:
    """Real-runtime suite: localhost UDP clusters on one event loop.

    Kept out of ``quick``/``full`` because its measurements are wall-clock
    and machine-local — never part of a determinism gate.  The n=150 case
    is the acceptance bar for the live runtime: a real 150-node loopback
    cluster must bootstrap and converge, and its recorded wire bytes are
    compared against the simulator's sized estimate for the same traffic
    (``result.sim_estimate_ratio``).
    """
    return [
        BenchSpec("live_bootstrap", "rapid", 50, seed=1),
        BenchSpec("live_bootstrap", "rapid", 150, seed=1),
    ]


SUITES: dict[str, Callable[[], list]] = {
    "quick": quick_suite,
    "full": full_suite,
    "live": live_suite,
}


def suite_specs(suite: str, scale: float = 1.0) -> list:
    """Resolve a suite name to its (scaled) spec list."""
    try:
        factory = SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [spec.scaled(scale) for spec in factory()]
