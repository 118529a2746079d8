"""Declarative benchmark specifications: one point type, one grid grammar.

A :class:`BenchSpec` names one measured run: scenario × system × cluster
size × seed, plus the keyword params of the scenario call (a fault
``profile`` is one of them).  Specs are written as grids, the cartesian
product of value lists, in one grammar whether they come from a named
suite (:data:`SUITES`) or from ``python -m repro.bench --grid SPEC``:

* compact string — ``scenario=adversary;systems=rapid,memberlist;``
  ``profiles=flip_flop,slow_process;n=24;seeds=1,2`` (axes separated by
  ``;``, values by ``,``; ints/floats/bools are auto-typed, so a float
  param is written ``5.0``);
* JSON object — the same axes as a dict, with proper lists
  (``{"systems": ["rapid"], "settings": {"k": 8, "h": 7}}``; a
  dict-valued key is one param, never an axis);
* JSON list — several blocks (objects or compact strings), expanded in
  turn and concatenated (ragged grids: different windows per system, say).

``--grid`` accepts any of these inline or a path to a ``.json`` file; a
suite is a Python list of blocks.

Axes: ``scenario``, ``system``, ``profile``, ``n`` and ``seed`` (or their
plurals ``scenarios`` ... ``ns``, ``seeds``) nest in that order; every
other key is a keyword param of the scenario call, and a list-valued one
is swept like an axis.  A ``profile`` reaches only the scenarios whose
function takes one (read from its signature), and expansion drops the
duplicates a profile axis crossed with other scenarios would make.

The ``quick`` suite is the regression gate: it must stay cheap enough to
run in CI on every change.  The ``full`` suite approaches the paper's
operating points and is meant for dedicated benchmark runs.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.core.settings import RapidSettings
from repro.experiments.scenarios import scenario_function

__all__ = ["BenchSpec", "SUITES", "parse_grid", "suite_specs"]

#: Grid axes, in the order expansion nests them; any other key is a param.
_AXES = ("scenario", "system", "profile", "n", "seed")

#: Axis values a block leaves out (no profile: the scenario's own default).
_DEFAULTS = {
    "scenario": ["adversary"],
    "system": ["rapid"],
    "profile": [None],
    "n": [24],
    "seed": [1],
}


def _profile_param(scenario: str):
    """The scenario function's ``profile`` parameter, or ``None`` if it
    takes none; an unknown scenario raises ``ValueError``."""
    return inspect.signature(scenario_function(scenario)).parameters.get("profile")


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
        Cluster size (scaled by the ``--scale`` factor).
    seed:
        Root seed; every random stream of the run derives from it.
    params:
        Extra keyword arguments for the scenario function (fault profile,
        failure counts, observation windows, ``settings`` overrides).
    """

    scenario: str
    system: str
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Grid mistakes are usage errors, caught before any case runs.
        _profile_param(self.scenario)  # raises on an unknown scenario
        settings = self.params.get("settings")
        if isinstance(settings, Mapping):
            RapidSettings.from_overrides(settings)  # raises on an unknown field

    @property
    def name(self) -> str:
        tags = ""
        for key, value in sorted(self.params.items()):
            if isinstance(value, Mapping):
                # ``settings`` overrides: sorted key:value pairs, so names
                # stay deterministic and greppable.
                value = "+".join(f"{k}:{value[k]}" for k in sorted(value))
            tags += f"/{key}={value}"
        return f"{self.scenario}/{self.system}/n{self.n}/s{self.seed}{tags}"

    @property
    def profile(self) -> str:
        """The fault profile the run uses: its ``profile`` param, else the
        scenario's default; ``-`` when there is none."""
        param = _profile_param(self.scenario)
        profile = self.params.get("profile", None if param is None else param.default)
        return "-" if profile is None else str(profile)

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


def _parse_scalar(token: str):
    """Best-effort typing of one compact-string value."""
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_compact(spec: str) -> dict:
    grid: dict = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(
                f"bad grid clause {clause!r}: expected key=value[,value...]"
            )
        key, _, values = clause.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"bad grid clause {clause!r}: empty key")
        grid[key] = [_parse_scalar(v.strip()) for v in values.split(",")]
    if not grid:
        raise ValueError(f"empty grid spec {spec!r}")
    return grid


def _expand(block: Mapping) -> list:
    """Cartesian-product one grid block into :class:`BenchSpec` runs."""
    axes = dict(_DEFAULTS)
    extras: dict = {}
    for key, value in block.items():
        values = list(value) if isinstance(value, (list, tuple)) else [value]
        axis = key[:-1] if key[:-1] in _AXES else key  # plurals: seeds=, ns=
        if axis in _AXES:
            axes[axis] = values
        else:
            # A dict-valued param (settings, app_config) is one argument.
            extras[key] = [value] if isinstance(value, Mapping) else values
    keys = sorted(extras)
    specs = []
    for scenario, system, profile, n, seed in itertools.product(
        *(axes[axis] for axis in _AXES)
    ):
        takes_profile = profile is not None and _profile_param(scenario) is not None
        for combo in itertools.product(*(extras[key] for key in keys)):
            params = dict(zip(keys, combo))
            if takes_profile:
                params["profile"] = profile
            specs.append(BenchSpec(str(scenario), str(system), int(n), int(seed), params))
    return specs


def parse_grid(spec) -> list:
    """Expand a grid into its :class:`BenchSpec` list, first-seen order.

    ``spec`` is a compact string, JSON text, the path of a ``.json`` file,
    one block mapping, or a list of blocks (a suite).  A malformed spec,
    an unknown scenario or an unknown ``settings`` field raises
    ``ValueError``.
    """
    if isinstance(spec, str):
        text = spec.strip()
        if text.endswith(".json") or os.path.isfile(text):
            with open(text, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        elif text.startswith(("{", "[")):
            spec = json.loads(text)
        else:
            spec = _parse_compact(text)
    expanded: list = []
    for block in spec if isinstance(spec, list) else [spec]:
        if isinstance(block, str):
            expanded += parse_grid(block)
        elif isinstance(block, Mapping):
            expanded += _expand(block)
        else:
            raise ValueError(f"grid block must be an object, got {block!r}")
    specs: list = []
    for point in expanded:  # a spec holds a dict, so no set: list dedupe
        if point not in specs:
            specs.append(point)
    return specs


#: CI-sized regression suite: every scenario, seconds of wall time.
QUICK = [
    "scenario=bootstrap;systems=rapid,rapid-c,memberlist;n=16;seed=1",
    "scenario=crash;system=rapid;n=16;seed=1;failures=3",
    # Consensus-heavy gate for the gossip dissemination path: forcing
    # gossip mode at small N exercises delta vote bundles, vote pulls
    # and the convergence stop on every CI run.
    {
        "scenario": "crash",
        "system": "rapid",
        "n": 24,
        "seed": 2,
        "failures": 6,
        "settings": {"gossip_threshold": 1},
    },
    "scenario=crash;system=memberlist;n=16;seed=1;failures=3",
    # Join-dissemination gate: staggered late joins plus graceful
    # leave/rejoin churn, so the CI run exercises single-responder
    # dedup, snapshot answers to joiners and rejoiners alike, and the
    # UUID_IN_USE retry on every change (Join* traffic shows up in
    # messages.by_class).
    "scenario=join_churn;system=rapid;n=24;seed=1;joiners=6;rejoins=4",
    "scenario=adversary;system=rapid;n=16;seed=1;profile=egress_loss;"
    "observe_for=60.0",
    # Message-adversary gate: duplicated and reordered (but never
    # dropped) traffic on every CI run.  The handlers must be
    # idempotent under redelivery and tolerant of overtaking, the
    # ViewLedger must stay clean, and the duplicate/reorder counters
    # surface in messages.by_class so the adversary's pressure is
    # visible in the report.
    "scenario=adversary;system=rapid;n=24;seed=1;profile=dup_reorder;"
    "fault_at=5.0;observe_for=30.0",
    # App-tier gate: serve open-loop traffic through a fault on every
    # CI run, exercising the resilience tier (retries, hedging,
    # breakers, deadline propagation) and the app SLO scorecard.
    "scenario=service_discovery;system=rapid;n=8;seed=1;profile=flip_flop;"
    "fault_at=5.0;observe_for=15.0",
    "scenario=txn_platform;system=rapid;n=8;seed=1;profile=blackhole;"
    "fault_at=5.0;observe_for=15.0",
]

#: Paper-shaped suite: larger clusters, more systems, repeated seeds.
#: Covers the paper's full operating range (section 7 runs 1000-2000
#: processes): the simulator hot-path overhaul made n=1000 a matter of
#: seconds, and gossip-counted consensus dissemination carries the suite
#: to the n=2000 end point (minutes of wall time, not hours).
FULL = [
    "scenario=bootstrap;system=rapid;n=32;seeds=1,2,3",
    "scenario=bootstrap;system=rapid;ns=64,256,512,1000,2000;seed=1",
    "scenario=crash;system=rapid;n=256;seed=1;failures=8",
    "scenario=crash;system=rapid;ns=512,1000,2000;seed=1;failures=16",
    # Join-path end point: rapid staggered joins and rejoins against a
    # steady n=1000 cluster — the deduplicated snapshot dissemination
    # workload at the paper's operating scale.
    "scenario=join_churn;system=rapid;n=1000;seed=1;joiners=50;rejoins=10",
    # Probe-heavy end point: a long lossy steady state at n=2000, where
    # edge monitoring (not consensus) dominates the event budget — the
    # probe wheel's target workload.  20 lossy processes (1%), 80%
    # egress loss, 90 s observed after the fault.
    "scenario=adversary;system=rapid;n=2000;seed=1;profile=egress_loss;"
    "observe_for=90.0",
    # Stability-under-adversity end points: the Figure 9 flip-flop
    # profile and its steady asymmetric variant at the paper's n=1000
    # operating point.  The scorecard scalars (healthy evictions, flap
    # rate, detection latency) land in result.* so BENCH_full tracks
    # the stability claim over time.
    "scenario=adversary;system=rapid;n=1000;seed=1;"
    "profiles=flip_flop,asymmetric_ingress;observe_for=90.0",
    # Partition-and-heal end point at the paper's n=1000 operating
    # point: the minority slice must make zero view progress while
    # split (no split-brain; the always-on ViewLedger enforces it),
    # the majority reconfigures it out, and after the heal every
    # minority member rejoins through the join protocol.  CI boxes this
    # case with `timeout` (see ci.yml).
    "scenario=partition_heal;system=rapid;n=1000;seed=1;fraction=0.1;"
    "partition_for=60.0",
    # Served-traffic end points (Figures 12-13): application workloads at
    # the paper's n=1000 operating point, under the flip-flop and
    # blackhole profiles, for Rapid and the akka gossip baseline.  The
    # app scorecard scalars (goodput, tail latency pre/post fault,
    # reloads/failovers, retries per request) land in result.* so the
    # end-to-end gap is tracked over time like the membership-level
    # stability claims above.
    "scenarios=service_discovery,txn_platform;system=rapid;n=1000;seed=1;"
    "profiles=flip_flop,blackhole",
    "scenarios=service_discovery,txn_platform;system=akka;n=1000;seed=1;"
    "profiles=flip_flop,blackhole",
    "scenario=bootstrap;systems=rapid-c,memberlist,zookeeper,akka;n=32;seed=1",
    "scenario=crash;systems=rapid,memberlist;n=32;seed=1;failures=8",
    "scenario=adversary;system=rapid;n=32;seed=1;profiles=egress_loss,ingress_loss",
    "scenario=adversary;system=memberlist;n=32;seed=1;profile=egress_loss",
]

#: Real-runtime suite: localhost UDP clusters on one event loop.  Kept out
#: of ``quick``/``full`` because its measurements are wall-clock and
#: machine-local — never part of a determinism gate.  The n=150 case is
#: the acceptance bar for the live runtime: a real 150-node loopback
#: cluster must bootstrap and converge, and its recorded wire bytes are
#: compared against the simulator's sized estimate for the same traffic
#: (``result.sim_estimate_ratio``).
LIVE = ["scenario=live_bootstrap;system=rapid;ns=50,150;seed=1"]

SUITES: dict[str, list] = {"quick": QUICK, "full": FULL, "live": LIVE}


def suite_specs(suite: str, scale: float = 1.0) -> list:
    """Expand a named suite into its (scaled) spec list."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [spec.scaled(scale) for spec in parse_grid(SUITES[suite])]
