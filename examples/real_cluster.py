#!/usr/bin/env python
"""Boot a real Rapid cluster on localhost UDP sockets.

Runs ``n`` protocol nodes — each with its own UDP socket — multiplexed
on one asyncio event loop (a ``repro.experiments.live.LiveHarness``),
waits for every node to report the full cluster size, then prints a
small convergence report and (optionally) keeps the cluster running so
you can watch steady-state probe traffic.

Usage::

    PYTHONPATH=src python examples/real_cluster.py --nodes 32
    PYTHONPATH=src python examples/real_cluster.py --nodes 8 --base-port 5000
    PYTHONPATH=src python examples/real_cluster.py --nodes 16 --hold 10

By default nodes bind OS-assigned ephemeral ports so concurrent runs
never collide; ``--base-port`` pins the classic ``base+i`` layout
instead.  Large clusters (say 100+) should use the low-rate live
settings profile (``--profile live``): at faster rates a join storm on
one shared event loop occasionally tips into a consensus-fallback storm
that never converges (see ``repro.experiments.live`` for the numbers).
"""

import argparse
import sys
import time

from repro.core.settings import RapidSettings
from repro.experiments.live import LIVE_SETTINGS, LiveHarness

#: Tight timers for small clusters, where wall seconds are expensive.
FAST_SETTINGS = dict(
    probe_interval=0.2,
    probe_timeout=0.2,
    batching_window=0.05,
    join_timeout=1.0,
    consensus_fallback_timeout=2.0,
    gossip_interval=0.05,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--nodes", type=int, default=16, help="cluster size (default 16)"
    )
    parser.add_argument(
        "--base-port",
        type=int,
        default=None,
        help="first UDP port; omitted = OS-assigned ephemeral ports",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="seconds to wait for full convergence (default 60)",
    )
    parser.add_argument(
        "--hold",
        type=float,
        default=0.0,
        help="keep the converged cluster running this many seconds",
    )
    parser.add_argument(
        "--profile",
        choices=("fast", "live"),
        default="fast",
        help="timer profile: 'fast' (small clusters) or 'live' "
        "(the low-rate profile big clusters need)",
    )
    args = parser.parse_args(argv)

    settings = RapidSettings(
        **(LIVE_SETTINGS if args.profile == "live" else FAST_SETTINGS)
    )
    started = time.perf_counter()
    with LiveHarness(settings=settings, base_port=args.base_port) as harness:
        harness.bootstrap(args.nodes, seed_delay=0.2)
        if harness.run_until_converged(args.nodes, timeout=args.timeout) is None:
            print(
                f"FAILED: cluster did not converge to {args.nodes} nodes",
                file=sys.stderr,
            )
            return 1
        elapsed = time.perf_counter() - started
        ports = [ep.port for ep in harness.endpoints]
        print(
            f"converged: {args.nodes} nodes in {elapsed:.2f}s "
            f"(ports {min(ports)}..{max(ports)})"
        )
        sizes = sorted({node.size for node in harness.agents.values()})
        print(f"view sizes: {sizes}")
        if args.hold > 0:
            print(f"holding for {args.hold:.0f}s of steady state ...")
            harness.run_for(args.hold)
            print("still converged:", harness.converged(args.nodes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
