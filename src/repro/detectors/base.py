"""Pluggable edge failure detection (paper section 4.1, "Pluggable
edge-monitor").

A monitoring edge between an observer and its subject is a pluggable
component in Rapid.  The membership layer drives the probe loop (send probe,
await ack or timeout) and feeds outcomes into a detector; the detector
decides when the edge should be declared faulty.  Implementations here:

* :class:`~repro.detectors.ping_timeout.PingTimeoutDetector` — the default
  from the paper's implementation section: faulty when >= 40% of the last
  10 probes failed;
* :class:`~repro.detectors.phi_accrual.PhiAccrualDetector` — the
  phi-accrual detector of Hayashibara et al., as used by Akka and Cassandra.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["EdgeFailureDetector", "DetectorFactory"]


class EdgeFailureDetector:
    """Interface for per-edge failure detection.

    One instance monitors exactly one (observer, subject) edge within one
    configuration.  Instances are discarded on view changes.
    """

    def on_probe_success(self, now: float, rtt: float) -> None:
        """A probe was acknowledged within the timeout."""
        raise NotImplementedError

    def on_probe_failure(self, now: float) -> None:
        """A probe timed out (or a transport error was observed)."""
        raise NotImplementedError

    def failed(self) -> bool:
        """True once the detector considers the edge faulty.

        Once an observer announces a REMOVE alert the verdict is irrevocable
        for the current configuration, so detectors only need to latch; the
        membership layer stops consulting the detector after the alert.
        """
        raise NotImplementedError


# A factory receives no arguments and returns a fresh detector; the
# membership service instantiates one per subject per configuration.
DetectorFactory = Callable[[], EdgeFailureDetector]
