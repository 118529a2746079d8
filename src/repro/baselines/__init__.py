"""Baseline membership systems the paper compares against."""

from repro.baselines.common import MembershipAgent
from repro.baselines.swim import SwimNode
from repro.baselines.zookeeper import ZkClient, ZkServer, build_ensemble
from repro.baselines.akka import AkkaNode
from repro.baselines.gossip_fd import GossipFdNode

__all__ = [
    "MembershipAgent",
    "SwimNode",
    "ZkClient",
    "ZkServer",
    "build_ensemble",
    "AkkaNode",
    "GossipFdNode",
]
