"""Experiment drivers reproducing the paper's evaluation (section 7)."""

from repro.experiments.harness import SYSTEMS, harness_for
from repro.experiments.scenarios import (
    bandwidth_stats,
    bootstrap_experiment,
    crash_experiment,
    sensitivity_experiment,
    service_discovery_experiment,
    txn_platform_experiment,
)

__all__ = [
    "SYSTEMS",
    "harness_for",
    "bandwidth_stats",
    "bootstrap_experiment",
    "crash_experiment",
    "sensitivity_experiment",
    "service_discovery_experiment",
    "txn_platform_experiment",
]
