"""Layer ↔ source-file map and the folding of a profile into layers.

The per-layer attribution has one outside vantage: the interpreter's
profile hook (``cProfile``), switched on by the benchmark around the timed
region.  Layers re-enter each other inside ``Engine.run`` and most protocol
work (probe ticks, batch flushes, gossip ticks) runs in engine-dispatched
private callbacks, so wrappers on public methods would leave it
unattributed; the hook sees every call.  Each frame's self time and call
count fold into the layer that owns its source file.
"""

from __future__ import annotations

import os

#: Reported layers, in the order README.md documents them.
LAYERS = (
    "sim.engine",
    "sim.network",
    "sim.faults",
    "sim.cluster",
    "core.membership",
    "core.cut_detector",
    "core.fast_paxos",
    "core.broadcaster",
    "core.join",
    "core.configuration",
    "apps",
    "runtime.codec",
    "runtime.transport",
    "obs.metrics",
    "obs.invariants",
    "obs.trace",
    "other",
)

#: Path under ``src/repro`` → layer.  A key ending in ``/`` assigns a whole
#: package; a file key wins over its package.  Every module must resolve
#: here (``benchmarks/tests/test_benchmark_layers.py``), so a new module is a
#: deliberate assignment, never a silent ``other``.
SOURCE_LAYERS = {
    "__init__.py": "other",
    "sim/__init__.py": "other",
    "sim/engine.py": "sim.engine",
    "sim/network.py": "sim.network",
    "sim/latency.py": "sim.network",
    "sim/faults.py": "sim.faults",
    "sim/fault_profiles.py": "sim.faults",
    "sim/cluster.py": "sim.cluster",
    "sim/process.py": "sim.cluster",
    "sim/rng.py": "sim.cluster",
    "sim/trace.py": "obs.trace",
    "experiments/__init__.py": "other",
    "experiments/harness.py": "sim.cluster",
    "experiments/scenarios.py": "other",
    "experiments/live.py": "runtime.transport",
    "core/__init__.py": "other",
    "core/membership.py": "core.membership",
    "core/settings.py": "core.membership",
    "core/events.py": "core.membership",
    "detectors/": "core.membership",
    "core/cut_detector.py": "core.cut_detector",
    "core/fast_paxos.py": "core.fast_paxos",
    "core/paxos.py": "core.fast_paxos",
    "core/centralized.py": "core.fast_paxos",
    "core/broadcaster.py": "core.broadcaster",
    "core/join.py": "core.join",
    "core/configuration.py": "core.configuration",
    "core/ring.py": "core.configuration",
    "core/node_id.py": "core.configuration",
    "core/messages.py": "core.configuration",
    "apps/": "apps",
    "runtime/__init__.py": "other",
    "runtime/base.py": "runtime.transport",
    "runtime/dispatch.py": "sim.cluster",
    "runtime/codec.py": "runtime.codec",
    "runtime/conformance.py": "runtime.codec",
    "runtime/asyncio_transport.py": "runtime.transport",
    "runtime/live_net.py": "runtime.transport",
    "obs/__init__.py": "other",
    "obs/metrics.py": "obs.metrics",
    "obs/invariants.py": "obs.invariants",
    "obs/scorecard.py": "obs.trace",
    "obs/app_scorecard.py": "obs.trace",
    # Packages no workload runs: offline analysis, the comparison
    # baselines, and the in-tree regression suite and sweep CLIs.
    "analysis/": "other",
    "baselines/": "other",
    "bench/": "other",
    "sweep/": "other",
}

#: Standard-library code that *is* a layer's work: the JSON codec's
#: encoder/decoder, and the event loop and sockets under the transport.
_STDLIB_LAYERS = (
    (os.sep + "json" + os.sep, "runtime.codec"),
    (os.sep + "asyncio" + os.sep, "runtime.transport"),
    (os.sep + "selectors.py", "runtime.transport"),
    (os.sep + "socket.py", "runtime.transport"),
)

_PACKAGE = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_source(relative: str) -> str | None:
    """Layer of a module path relative to ``src/repro`` (``/``-separated)."""
    layer = SOURCE_LAYERS.get(relative)
    if layer is None:
        layer = SOURCE_LAYERS.get(relative.rsplit("/", 1)[0] + "/")
    return layer


def _layer_of_code(code) -> str | None:
    """Layer owning a profiled code object; ``None`` charges its caller.

    Builtins (reported as strings) and unlisted standard-library frames —
    ``random.gauss``, ``heapq``, dataclass plumbing — have no layer of
    their own: they work for whoever called them.
    """
    if isinstance(code, str):
        return None
    filename = code.co_filename
    _, package, relative = filename.rpartition(_PACKAGE)
    if package:
        return layer_of_source(relative.replace(os.sep, "/")) or "other"
    for marker, layer in _STDLIB_LAYERS:
        if marker in filename:
            return layer
    return None


def fold(entries) -> dict:
    """Fold ``cProfile.Profile.getstats()`` into ``{layer: [self_s, calls]}``.

    A frame with a layer contributes its own self time and call count.  A
    frame without one is split over the layers it worked for, in
    proportion to the time each caller spent in it (the profiler's caller
    table); callers without a layer pass their own split on, so a chain
    like ``dict.get`` → dataclass ``__hash__`` → ``hash`` still lands on
    the layer that did the lookup.  What no layered caller accounts for
    (the benchmark's own frames) lands in ``other``.
    """
    own = {entry.code: _layer_of_code(entry.code) for entry in entries}
    callers: dict = {}
    for entry in entries:
        for callee in entry.calls or ():
            if own.get(callee.code) is None:
                callers.setdefault(callee.code, []).append((entry.code, callee.totaltime))
    split: dict = {}
    for _ in range(4):  # deep enough for builtin → generated method → builtin
        for code, incoming in callers.items():
            mix: dict = {}
            for caller, seconds in incoming:
                layer = own[caller]
                shares = {layer: 1.0} if layer else split.get(caller, {})
                for name, share in shares.items():
                    mix[name] = mix.get(name, 0.0) + share * seconds
            total = sum(mix.values())
            split[code] = {name: value / total for name, value in mix.items()} if total else {}

    folded = {layer: [0.0, 0] for layer in LAYERS}
    for entry in entries:
        layer = own[entry.code]
        if layer is not None:
            folded[layer][0] += entry.inlinetime
            folded[layer][1] += entry.callcount
            continue
        shares = split.get(entry.code) or {"other": 1.0}
        for name, share in shares.items():
            folded[name][0] += share * entry.inlinetime
    return folded
