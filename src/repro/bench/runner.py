"""Benchmark execution, measurement capture, and BENCH_*.json output.

:class:`BenchRunner` executes :class:`~repro.bench.specs.BenchSpec` cases
through the experiment scenario functions and harvests what the run
replays from its seed: virtual duration, events processed, the network's
``net.*`` counters, and the full metrics snapshot of the harness
registry.  Host time and memory are measured by ``benchmarks/``, not
here.  A case whose scenario raises (a safety
:class:`~repro.obs.invariants.InvariantViolation` included) is recorded
in band: its record carries the case's identity and an ``error`` field
instead of measurements.

The report schema (``repro.bench/v3``)::

    {
      "schema": "repro.bench/v3",
      "suite": "quick",                 # "grid" for a --grid run
      "scale": 1.0,
      "config": {"python": ..., "platform": ..., "git": ...},
      "cases": [
        {
          "name": "bootstrap/rapid/n16/s1",
          "scenario": ..., "system": ..., "n": ..., "seed": ..., "params": {...},
          "virtual_s": 15.0,
          "events_processed": 5921,
          "events_per_virtual_s": 394.7,
          "messages": {"sent": ..., "delivered": ..., "dropped": ...,
                        "bytes_sent": ..., "bytes_received": ...},
          "metrics": {<registry snapshot: counters, gauges,
                       histogram quantile summaries>},
          "result": {<scenario scalars: convergence_time, ...>},
          "invariants": {"checked": 412, "nodes": 16, "configs": 4,
                         "max_seq": 4, "ok": true}  # ViewLedger summary
                                        # (absent for harnesses without a
                                        # ledger)
        },
        {"name": ..., ..., "params": {...}, "error": "<Type>: <message>"},
        ...                             # (the error record of a case that raised)
      ]
    }

Every case field is derived from virtual time and counters, so two
same-seed simulator runs produce identical cases — the property the
regression tests and ``python -m repro.bench compare`` pin.

The long-format CSV (``scenario,profile,system,n,seed,metric,value``) is
a projection of the records (:func:`case_rows`): one row per scalar
result, plus the ledger's ``invariant_checks``, or one ``error`` row.
Its sha256 is the run's determinism fingerprint.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import subprocess
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.report import render_table
from repro.bench.specs import BenchSpec
from repro.experiments.scenarios import scenario_function

__all__ = [
    "BenchRunner",
    "CaseResult",
    "CSV_HEADER",
    "case_rows",
    "render_csv",
    "csv_hash",
    "write_report",
    "render_report",
    "write_timeseries_csv",
]

SCHEMA = "repro.bench/v3"

# Result keys that are either unserializable or too bulky for BENCH files.
_RESULT_EXCLUDE = {
    "harness",
    "timeseries",
    "per_node_times",
    "app_latency_series",
    "app_goodput_series",
}

CSV_HEADER = "scenario,profile,system,n,seed,metric,value"

#: Result keys that repeat a CSV row's identity columns.
_IDENTITY_KEYS = frozenset({"system", "n", "profile"})


@dataclass
class CaseResult:
    """One case's record: its measurements, or the error its scenario raised."""

    spec: BenchSpec
    virtual_s: float = 0.0
    events_processed: int = 0
    messages: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    #: :meth:`~repro.obs.invariants.ViewLedger.report` summary of the
    #: harness's safety-invariant ledger: how many view installations were
    #: checked (each one passed, or the case would have aborted with an
    #: ``InvariantViolation``).  ``None`` when the harness has no ledger
    #: (baseline agent systems).
    invariants: Optional[dict] = None
    #: Plot-ready series harvested from the scenario outcome (the
    #: Figure 5-10 inputs: the view-size timeseries and the per-node
    #: convergence times).  Kept off the JSON report — bulky and already
    #: derivable — and exported on demand via :func:`write_timeseries_csv`
    #: (``python -m repro.bench --timeseries out.csv``).
    series: dict = field(default_factory=dict)
    #: ``"<exception type>: <message>"`` when the scenario raised; the
    #: record then carries no measurements.  Scenario exceptions derive
    #: from the simulation, so an error record replays like any other.
    error: Optional[str] = None

    def to_json(self) -> dict:
        payload = {
            "name": self.spec.name,
            "scenario": self.spec.scenario,
            "system": self.spec.system,
            "n": self.spec.n,
            "seed": self.spec.seed,
            "params": dict(self.spec.params),
        }
        if self.error is not None:
            payload["error"] = self.error
            return payload
        payload.update({
            "virtual_s": self.virtual_s,
            "events_processed": self.events_processed,
            "events_per_virtual_s": (
                self.events_processed / self.virtual_s if self.virtual_s > 0 else 0.0
            ),
            "messages": self.messages,
            "metrics": self.metrics,
            "result": self.result,
        })
        if self.invariants is not None:
            payload["invariants"] = self.invariants
        return payload


class BenchRunner:
    """Executes benchmark specs and assembles the report.

    ``log`` is the progress sink (``None`` silences it).  Each case's
    ``invariants`` block is the harness's
    :class:`~repro.obs.invariants.ViewLedger` summary; the safety checks
    themselves run inside the harness and abort a violating case, which
    :meth:`run` records as an error case before going on to the next.
    """

    def __init__(self, log: Optional[Callable[[str], None]] = print) -> None:
        self._log = log or (lambda message: None)

    # -------------------------------------------------------------- execution

    def run_case(self, spec: BenchSpec) -> CaseResult:
        """Execute one spec and harvest its measurements."""
        run = scenario_function(spec.scenario)
        outcome = run(spec.system, spec.n, seed=spec.seed, **dict(spec.params))
        harness = outcome["harness"]
        engine = harness.engine
        network = harness.network
        ledger = harness.ledger
        return CaseResult(
            spec=spec,
            virtual_s=engine.now,
            events_processed=engine.events_processed,
            messages={
                "sent": network.sent_messages,
                "delivered": network.delivered_messages,
                "dropped": network.dropped_messages,
                "bytes_sent": network.sent_bytes,
                "bytes_received": network.received_bytes,
                # Per-message-class breakdown (deterministic): what the
                # traffic *is* — message and wire-byte totals per class —
                # so wins like "3x fewer probe events" or "join responses
                # shrank 10x" are attributable from the report alone.
                # Classes touched by a message adversary additionally
                # carry "duplicates"/"reordered" counts (absent otherwise,
                # so reports without an adversary keep their exact shape).
                "by_class": {
                    key: _class_row(
                        count,
                        network.class_bytes.get(key, 0),
                        network.duplicate_counts.get(key, 0),
                        network.reorder_counts.get(key, 0),
                    )
                    for key, count in sorted(network.class_counts.items())
                },
            },
            metrics=harness.metrics.snapshot(),
            result=_scalars(outcome),
            invariants=None if ledger is None else ledger.report(),
            series=_series(outcome),
        )

    def run(self, specs: Iterable[BenchSpec]) -> list:
        results = []
        for spec in specs:
            self._log(f"running {spec.name} ...")
            try:
                case = self.run_case(spec)
            except Exception as exc:
                case = CaseResult(spec, error=f"{type(exc).__name__}: {exc}")
                self._log(f"  ERROR {traceback.format_exc()}")
            else:
                self._log(
                    f"  {case.virtual_s:.0f}s virtual, {case.events_processed} events"
                )
            results.append(case)
        return results


def _class_row(count: int, byte_total: int, duplicates: int, reordered: int) -> dict:
    """One ``messages.by_class`` entry; adversary counts only when nonzero."""
    row = {"messages": count, "bytes": byte_total}
    if duplicates:
        row["duplicates"] = duplicates
    if reordered:
        row["reordered"] = reordered
    return row


# ------------------------------------------------------------------ reporting


def build_report(suite: str, scale: float, cases: Sequence[CaseResult]) -> dict:
    return {
        "schema": SCHEMA,
        "suite": suite,
        "scale": scale,
        "config": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git": _git_describe(),
        },
        "cases": [case.to_json() for case in cases],
    }


def write_report(report: dict, path: str) -> Path:
    """Serialize a report to ``path`` (e.g. ``BENCH_quick.json``)."""
    out = Path(path).resolve()
    out.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return out


def render_report(cases: Sequence[CaseResult]) -> str:
    """The paper-shaped ASCII summary of a benchmark run."""
    rows = []
    for case in cases:
        if case.error is not None:
            rows.append([case.spec.name, "-", "-", "-", "-", "-", case.error])
            continue
        msgs = case.messages
        rows.append(
            [
                case.spec.name,
                f"{case.virtual_s:.0f}",
                case.events_processed,
                msgs["sent"],
                msgs["dropped"],
                f"{msgs['bytes_sent'] / 1024.0:.0f}",
                _headline(case),
            ]
        )
    return render_table(
        [
            "case",
            "virt_s",
            "events",
            "msgs",
            "dropped",
            "KB tx",
            "outcome",
        ],
        rows,
        title="benchmark summary",
    )


def _headline(case: CaseResult) -> str:
    result = case.result
    if case.spec.scenario == "bootstrap":
        t = result.get("convergence_time")
        return f"converged@{t:.1f}s" if t is not None else "no convergence"
    if case.spec.scenario == "crash":
        t = result.get("removal_time")
        return f"removed@{t:.1f}s" if t is not None else "not removed"
    if case.spec.scenario == "join_churn":
        t = result.get("churn_convergence")
        return f"churned@{t:.1f}s" if t is not None else "no convergence"
    if case.spec.scenario == "adversary":
        return (
            f"evictions={result.get('healthy_evicted_nodes')}"
            f" flaps={result.get('flap_events')}"
            f" removed={result.get('faulty_removed')}"
        )
    if case.spec.scenario == "partition_heal":
        t = result.get("reconverge_time")
        healed = f"reconverged@{t:.1f}s" if t is not None else "no reconvergence"
        return (
            f"rejoined={result.get('rejoined')}/{result.get('minority')}"
            f" splits={result.get('minority_installs_during_partition')}"
            f" {healed}"
        )
    if case.spec.scenario in ("service_discovery", "txn_platform"):
        p99 = result.get("latency_p99")
        return (
            f"goodput={result.get('goodput_rps')}"
            f" ok={result.get('success_rate')}"
            f" p99={p99 if p99 is None else format(p99, '.3f')}"
        )
    return ""


def _series(outcome: dict) -> dict:
    """Harvest the plot-ready series a scenario outcome carries.

    ``timeseries`` is the per-step ``(time, min, median, max)`` view-size
    aggregate (Figures 1, 7-10); ``per_node_times`` maps endpoints to
    first-convergence times (the Figure 6 ECDF input).
    """
    series: dict = {}
    timeseries = outcome.get("timeseries")
    if timeseries:
        series["view_size"] = [tuple(row) for row in timeseries]
    per_node = outcome.get("per_node_times")
    if per_node:
        series["node_convergence"] = {
            str(ep): t for ep, t in sorted(per_node.items())
        }
    app_latency = outcome.get("app_latency_series")
    if app_latency:
        series["app_latency"] = [tuple(row) for row in app_latency]
    app_goodput = outcome.get("app_goodput_series")
    if app_goodput:
        series["app_goodput"] = [tuple(row) for row in app_goodput]
    return series


def write_timeseries_csv(cases: Sequence[CaseResult], path: str) -> Path:
    """Write the Figure 5-10 series of every case as long-format CSV.

    Columns are ``case, series, time, value``:

    * ``view_size_min`` / ``view_size_med`` / ``view_size_max`` — the
      per-step spread of believed cluster sizes (Figures 1 and 7-10);
    * ``node_convergence_ecdf`` — ``time`` is a node's first convergence
      time, ``value`` the cumulative fraction of nodes converged by then
      (Figure 6; the maximum ``time`` is the Figure 5 bootstrap latency);
    * ``app_latency_p50`` / ``app_latency_p99`` / ``app_latency_max`` —
      per-bucket request latency through the run, keyed by *intended*
      arrival time (Figures 12/13; empty buckets are skipped);
    * ``app_goodput`` — per-bucket completed requests per second.

    Rows are emitted in case order, then time order — deterministic for
    same-seed runs, and directly consumable by any plotting tool.
    """
    out = Path(path)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "series", "time", "value"])
        for case in cases:
            name = case.spec.name
            for t, lo, med, hi in case.series.get("view_size", ()):
                writer.writerow([name, "view_size_min", t, lo])
                writer.writerow([name, "view_size_med", t, med])
                writer.writerow([name, "view_size_max", t, hi])
            times = sorted(
                t
                for t in case.series.get("node_convergence", {}).values()
                if t is not None
            )
            for i, t in enumerate(times):
                writer.writerow(
                    [name, "node_convergence_ecdf", t, (i + 1) / len(times)]
                )
            for t, p50, p99, mx in case.series.get("app_latency", ()):
                if p50 is None:
                    continue
                writer.writerow([name, "app_latency_p50", t, p50])
                writer.writerow([name, "app_latency_p99", t, p99])
                writer.writerow([name, "app_latency_max", t, mx])
            for t, rps in case.series.get("app_goodput", ()):
                writer.writerow([name, "app_goodput", t, rps])
    return out


def _is_scalar(value) -> bool:
    return isinstance(value, (int, float, bool, str)) or value is None


def _scalars(outcome: dict) -> dict:
    """Scenario results filtered down to JSON-friendly facts: scalars, short
    lists of scalars, and tables of scalar rows (``{row: {column: value}}``,
    e.g. a live run's per-class ``wire_parity``)."""
    kept: dict = {}
    for key, value in outcome.items():
        if key in _RESULT_EXCLUDE:
            continue
        if _is_scalar(value):
            kept[key] = value
        elif isinstance(value, (list, tuple, set, frozenset)):
            items = sorted(value) if isinstance(value, (set, frozenset)) else list(value)
            if len(items) <= 16 and all(
                isinstance(item, (int, float, bool, str)) for item in items
            ):
                kept[key] = items
        elif isinstance(value, dict) and all(
            isinstance(row, dict) and all(map(_is_scalar, row.values()))
            for row in value.values()
        ):
            kept[key] = {name: dict(row) for name, row in value.items()}
    return kept


def _format_value(value) -> Optional[str]:
    """Canonical CSV rendering of one scalar result, or None to skip it.

    Bools become 0/1, None becomes ``NA`` (ran, no measurement — e.g.
    detection latency when nothing was evicted); floats use ``repr`` for
    shortest-roundtrip stability.  Strings, lists and tables are skipped.
    """
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return None


def case_rows(case: CaseResult) -> list:
    """One record's long-format rows, in sorted metric order.

    A failed case is a single ``error=1`` row keyed like every other
    metric, so a consumer sees *that* the point ran and failed.  A case
    with a ledger also reports how many view installations it checked
    (``invariant_checks``) unless the scenario already did.
    """
    spec = case.spec
    identity = (spec.scenario, spec.profile, spec.system, str(spec.n), str(spec.seed))
    if case.error is not None:
        return [(*identity, "error", "1")]
    values = dict(case.result)
    if case.invariants is not None:
        values.setdefault("invariant_checks", case.invariants["checked"])
    rows = []
    for metric in sorted(values):
        rendered = _format_value(values[metric])
        if rendered is not None and metric not in _IDENTITY_KEYS:
            rows.append((*identity, metric, rendered))
    return rows


def render_csv(cases: Iterable[CaseResult]) -> str:
    """The long-format CSV text of the cases (header first, LF endings)."""
    lines = [CSV_HEADER]
    lines.extend(",".join(row) for case in cases for row in case_rows(case))
    return "\n".join(lines) + "\n"


def csv_hash(cases: Iterable[CaseResult]) -> str:
    """sha256 over :func:`render_csv`: the determinism fingerprint."""
    return hashlib.sha256(render_csv(cases).encode("utf-8")).hexdigest()


def _git(*args: str, cwd=None, index=None) -> Optional[str]:
    """Output of one git command, or ``None`` if it fails or git is absent.

    ``index`` names a scratch index file to run against instead of the
    checkout's own.
    """
    env = None if index is None else {**os.environ, "GIT_INDEX_FILE": str(index)}
    try:
        return subprocess.run(
            ["git", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _git_describe(cwd=None) -> Optional[str]:
    """The ``config.git`` stamp: the commit, and the source tree if it moved.

    ``<HEAD>`` when ``src/`` is exactly what HEAD recorded, else
    ``<HEAD>+src:<tree>``: the commit the work started from plus the git
    tree hash of ``src/`` as it stands on disk — what ``git rev-parse
    <commit>:src`` prints for whichever commit later records this code,
    however it is squashed — so a baseline taken before committing names
    the code that produced it instead of a scratch commit or ``-dirty``.
    """
    root = _git("rev-parse", "--show-toplevel", cwd=cwd)
    with tempfile.TemporaryDirectory() as scratch:
        index = Path(scratch) / "index"
        _git("read-tree", "HEAD", cwd=root, index=index)
        _git("add", "-A", "src", cwd=root, index=index)
        tree = _git("write-tree", "--prefix=src/", cwd=root, index=index)
    head = _git("rev-parse", "--short", "HEAD", cwd=root)
    if head is None or tree is None:
        return None
    if tree == _git("rev-parse", "HEAD:src", cwd=root):
        return head
    return f"{head}+src:{tree[:12]}"
