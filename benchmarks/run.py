"""The repo benchmark: one command, every metric by name, outputs checked.

    python3 benchmarks/run.py                       # all four workloads
    python3 benchmarks/run.py --workload crash_n256 --seed 7
    python3 benchmarks/run.py --traced --out raw.json

With ``--workload`` the workload runs in this process (re-executed once
with ``PYTHONHASHSEED=0``); without it each workload runs in a fresh child
process, one at a time.  A workload is a stream of identical repetitions,
each rebuilding its state from the seed, for ``--seconds`` seconds (at
least three).  Host times are the median of the repetitions after the
first, which is warm-up.  Deterministic metrics come from the first
repetition and must be equal in all of them.

``--trace 1`` (or ``--traced``) reports the per-layer metrics instead: the
layer kernels, plain repetitions for half the time, and one repetition
under the profile hook.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only if every output checked out.  ``BENCHMARK.json`` names every metric
with its unit, direction and bound; ``README.md`` defines them.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPETITIONS = 3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_benchmark():
    """Import the workload modules (needs ``src/repro`` next to us)."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import kernels
    import layers
    import workloads

    return workloads, layers, kernels


# ------------------------------------------------------------- measuring


def repeat(workload, seed: int, seconds: float, minimum: int = MIN_REPETITIONS):
    """Repeat the workload until another repetition would overrun.

    Returns the first repetition's outcome, the ``(setup_s, wall_s)`` of
    every repetition and the correctness problems found.
    """
    times: list = []
    first = None
    problems: list = []
    started = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        t1 = time.perf_counter()
        workload.run(state)
        t2 = time.perf_counter()
        outcome = workload.finish(state)
        times.append((t1 - t0, t2 - t1))
        if first is None:
            first = outcome
            problems.extend(outcome.problems)
        elif outcome != first:
            problems.append(
                f"repetition {len(times)} differs from the first for the same seed"
            )
        elapsed = time.perf_counter() - started
        if len(times) >= minimum and elapsed + elapsed / len(times) > seconds:
            return first, times, problems


def host_time(values: list) -> float:
    """The reported host time of identical repetitions.

    The first repetition warms the process up and is left out; the rest
    are summarised by their median.
    """
    return statistics.median(values[1:])


def _spread(values: list) -> dict:
    """Every repetition's time plus summaries, for the raw output."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "each": values,
        "min": min(values),
        "median": statistics.median(values),
        "iqr": q3 - q1,
    }


def _raw(outcome, times: list) -> dict:
    return {
        "repetitions": len(times),
        "setup_s": _spread([setup for setup, _ in times]),
        "wall_s": _spread([wall for _, wall in times]),
        "exact": outcome.exact,
    }


def end_to_end(workload, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics plus the raw repetition times."""
    outcome, times, problems = repeat(workload, seed, seconds)
    metrics = {
        "setup_s": host_time([setup for setup, _ in times]),
        # Linux reports ru_maxrss in KiB.  The process is fresh, so this
        # is this workload's peak, not a suite-wide high-water mark.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "msgs_per_node": outcome.exact["msgs_per_node"],
        "wire_bytes_per_msg": outcome.exact["wire_bytes_per_msg"],
    }
    return outcome, metrics, problems, _raw(outcome, times)


def traced(workload, seed: int, seconds: float, names: list, layers, kernels):
    """Traced run: the per-layer metrics named in ``BENCHMARK.json``.

    Kernels first (a cluster left on the heap would slow their garbage
    collections), then plain repetitions for half of ``seconds`` — they
    give the whole-run host time — then one repetition under the profile
    hook.
    """
    metrics = kernels.run_kernels()
    plain, times, problems = repeat(workload, seed, seconds / 2, minimum=2)
    plain_wall = host_time([wall for _, wall in times])

    gc.collect()
    state = workload.setup(seed)
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    workload.run(state)
    profile.disable()
    traced_wall = time.perf_counter() - t0
    outcome = workload.finish(state)
    if outcome != plain:
        problems.append("the traced repetition differs from the untraced ones")

    folded = layers.fold(profile.getstats())
    for layer, (self_s, calls) in folded.items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = calls
    metrics["run.wall_s"] = plain_wall
    metrics["run.events_per_wall_s"] = plain.events / plain_wall
    metrics["trace.overhead_x"] = traced_wall / plain_wall
    # A counter a workload does not report belongs to a layer it left idle.
    for name in names:
        metrics.setdefault(name, outcome.exact.get(name, 0))
    other = folded["other"][0] / traced_wall
    if other >= 0.05:
        print(
            f"warning: {other:.1%} of the traced wall time is in no layer",
            file=sys.stderr,
        )
    raw = _raw(plain, times)
    raw.update(traced_wall_s=traced_wall, other_share=other)
    return outcome, metrics, problems, raw


# -------------------------------------------------------------- reporting


def provenance() -> dict:
    """Where and on what the numbers were taken."""

    def git(*args) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": (git("rev-parse", "HEAD") or "unknown").strip(),
        "dirty": bool(status.strip()) if status is not None else None,
    }


def refuse_tracked_out(path: str, where: dict) -> None:
    """Numbers from a dirty tree must not overwrite a committed file."""
    if not where["dirty"]:
        return
    tracked = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "--error-unmatch", os.path.abspath(path)],
        capture_output=True,
    )
    if tracked.returncode == 0:
        sys.exit(f"refusing to write {path}: it is tracked and the tree is dirty")


def run_workload(args, spec: dict) -> tuple:
    """Run one workload here; returns ``(result, raw)``."""
    try:
        workloads, layers, kernels = _import_benchmark()
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT}/src: {exc}", file=sys.stderr)
        sys.exit(2)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        declared = spec["per_layer"]
        outcome, metrics, problems, raw = traced(
            workload, args.seed, args.seconds,
            [m["name"] for m in declared], layers, kernels,
        )
    else:
        declared = spec["end_to_end"]
        outcome, metrics, problems, raw = end_to_end(workload, args.seed, args.seconds)
    print(f"# {args.workload} seed={args.seed} trace={int(args.trace)}")
    reported = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = metrics[name]
        reported[name] = {"value": value, "unit": unit}
        print(f"{name:48s} {value:>16.6g} {unit:8s} ({metric['better']} is better)")
    if not args.trace:
        wall = host_time(raw["wall_s"]["each"])
        print(f"{'(run.wall_s, informational)':48s} {wall:>16.6g} s")
        print(f"{'(run.events_per_wall_s, informational)':48s} {outcome.events / wall:>16.6g} 1/s")
    print(f"{'ops_attempted':48s} {outcome.attempted:>16d} count")
    print(f"{'ops_failed':48s} {outcome.failed:>16d} count")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": reported,
    }
    raw.update(workload=args.workload, seed=args.seed, problems=problems)
    return result, raw


def run_suite(args, spec: dict) -> tuple:
    """Run every workload in a fresh child process, one at a time."""
    results, raws = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(args.trace)), "--raw",
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or len(lines) < 2:
            print(child.stdout, end="")
            sys.exit(f"{workload}: child exited with code {child.returncode}, no result")
        *shown, raw, result = lines
        print("\n".join(shown), flush=True)
        results[workload] = json.loads(result)
        raws[workload] = json.loads(raw)
    return results, raws


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--out", help="write the raw measurements to this JSON file")
    parser.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload and argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing must be the same in every run, or dict and set
        # layouts (hence timings) would differ from process to process.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )

    where = provenance() if args.out else None
    if args.out:
        refuse_tracked_out(args.out, where)

    if args.workload is None:
        results, raws = run_suite(args, spec)
        ok = all(result["correct"] for result in results.values())
        final = None
    else:
        final, raw = run_workload(args, spec)
        results, raws = {args.workload: final}, {args.workload: raw}
        ok = final["correct"]

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"provenance": where, "results": results, "raw": raws}, fh, indent=1)
    if final is not None:
        if args.raw:
            print(json.dumps(raws[args.workload]))
        print(json.dumps(final))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
