"""From a converged cluster on, the benchmark's copied drivers match the
scenario functions; and a wrong output fails loudly."""

import json

import pytest

import run
import workloads
from repro.experiments.scenarios import crash_experiment, service_discovery_experiment
from test_benchmark_spec import small

SEED = 5


def drive(workload):
    state = workload.setup(SEED)
    workload.run(state)
    return state, workload.finish(state)


def totals(harness):
    return (
        harness.engine.now,
        harness.engine.events_processed,
        harness.network.sent_messages,
        harness.network.sent_bytes,
    )


def test_crash_driver_matches_crash_experiment():
    state, outcome = drive(small("crash_n256", settle=0.0))
    reference = crash_experiment("rapid", 32, failures=2, seed=SEED)
    assert totals(state.harness) == totals(reference["harness"])
    assert not outcome.failed and not outcome.problems
    # The experiment rounds up to its one-second convergence poll.
    converged = outcome.exact["core.membership.converge_virtual_s"]
    assert 0 <= reference["removal_time"] - converged < 1.0


def test_flipflop_driver_matches_service_discovery_experiment():
    workload = small("flipflop_app_n256", settle=5.0)
    state, outcome = drive(workload)
    reference = service_discovery_experiment(
        "rapid", 32, profile="flip_flop", seed=SEED,
        fault_at=workload.fault_at, observe_for=workload.observe_for,
    )
    assert totals(state.harness) == totals(reference["harness"])
    assert outcome.exact["apps.goodput_rps"] == reference["goodput_rps"]
    assert outcome.exact["apps.reloads"] == reference["reloads"]
    assert outcome.exact["apps.hedges"] == reference["hedges"]
    assert outcome.attempted == reference["offered"]
    if not outcome.failed:
        assert outcome.exact["apps.p99_virtual_ms"] == pytest.approx(
            1000.0 * reference["latency_p99"]
        )


def test_uncertified_ledger_is_a_problem():
    assert workloads.ledger_problems({"checked": 9, "ok": False})
    assert not workloads.ledger_problems({"checked": 9, "ok": True})


def test_incorrect_output_fails_the_run(monkeypatch, capsys):
    forked = small("crash_n256")
    honest = forked.finish

    def finish(state):
        outcome = honest(state)
        outcome.problems += workloads.ledger_problems({"ok": False})
        outcome.failed += 1
        return outcome

    forked.finish = finish
    monkeypatch.setitem(workloads.WORKLOADS, "crash_n256", forked)
    assert run.main(["--workload", "crash_n256", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_unechoed_datagram_counts_as_failed():
    class Lossy(type(workloads.WORKLOADS["wire_loopback"])):
        round_trips, timeout_s = 50, 0.5

        @staticmethod
        def _echo(state, src, msg):
            state.handled += 1
            if state.handled != 10:
                state.b.send(src, msg)

    workload = Lossy()
    try:
        state = workload.setup(SEED)
    except OSError as exc:  # no loopback sockets in this sandbox
        pytest.skip(str(exc))
    workload.run(state)
    outcome = workload.finish(state)
    assert outcome.failed >= 1 and outcome.problems
