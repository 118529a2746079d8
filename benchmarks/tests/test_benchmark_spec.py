"""BENCHMARK.json and what run.py emits agree, name for name."""

import json
import re

import pytest

import kernels
import layers
import run
import workloads
from repro.experiments.harness import harness_for

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def single_seed_cluster(settle: float):
    """The scenario functions' cluster: one seed process, the rest 5 s later."""

    def build(seed, n, core):
        harness = harness_for("rapid", seed=seed)
        endpoints = harness.bootstrap(n, seed_delay=5.0, stagger=1.0)
        harness.run_until_converged(n)
        harness.run_for(settle)
        return harness, endpoints

    return build


def small(name, settle: float = 2.0):
    """A workload instance scaled down to run in well under a second.

    Small clusters come from the single-seed bootstrap: the steady way of
    growing one needs a core of 64.
    """
    workload = type(workloads.WORKLOADS[name])()
    workload.cluster = single_seed_cluster(settle)
    if name == "bootstrap_n512":
        workload.core, workload.n = 8, 32
    elif name == "crash_n256":
        workload.n, workload.failures = 32, 2
    elif name == "flipflop_app_n256":
        workload.n, workload.fault_at, workload.observe_for = 32, 2.0, 4.0
    else:
        workload.round_trips, workload.timeout_s = 200, 10.0
    return workload


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_schema(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert 2 <= len(spec["workloads"]) <= 8 and len(spec["per_layer"]) <= 128
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_measured_and_never_zero(spec, name):
    try:
        outcome, metrics, problems, raw = run.end_to_end(small(name), 3, 0.0)
    except OSError as exc:  # no loopback sockets in this sandbox
        pytest.skip(str(exc))
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value in metrics.values())
    assert raw["repetitions"] >= run.MIN_REPETITIONS
    json.dumps(raw)


def test_every_per_layer_metric_is_emitted(spec, monkeypatch):
    monkeypatch.setattr(kernels, "ROUNDS", 1)
    names = [m["name"] for m in spec["per_layer"]]
    outcome, metrics, problems, raw = run.traced(
        small("crash_n256"), 3, 0.0, names, layers, kernels
    )
    assert set(metrics) == set(names)
    assert not problems
    # What the issue predicts for a crash: join and the live path stay idle.
    for idle in ("core.join", "apps", "runtime.codec", "runtime.transport"):
        assert metrics[f"{idle}.calls"] == 0
    assert metrics["core.cut_detector.calls"] > 0
    assert metrics["trace.overhead_x"] > 1
