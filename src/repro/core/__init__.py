"""Rapid's core protocol: rings, cut detection, consensus, membership."""

from repro.core.configuration import Configuration
from repro.core.cut_detector import MultiNodeCutDetector
from repro.core.events import NodeStatus, ViewChangeEvent
from repro.core.membership import RapidNode
from repro.core.node_id import Endpoint, NodeId
from repro.core.ring import KRingTopology
from repro.core.settings import RapidSettings

__all__ = [
    "Configuration",
    "MultiNodeCutDetector",
    "NodeStatus",
    "ViewChangeEvent",
    "RapidNode",
    "Endpoint",
    "NodeId",
    "KRingTopology",
    "RapidSettings",
]
