"""Pluggable edge failure detectors for Rapid's monitoring overlay."""

from repro.detectors.base import DetectorFactory, EdgeFailureDetector
from repro.detectors.ping_timeout import PingTimeoutDetector
from repro.detectors.phi_accrual import PhiAccrualDetector, phi

__all__ = [
    "EdgeFailureDetector",
    "DetectorFactory",
    "PingTimeoutDetector",
    "PhiAccrualDetector",
    "phi",
]
