"""Baseline membership systems the paper compares against."""

from repro.baselines.common import MembershipAgent
from repro.baselines.swim import SwimConfig, SwimNode
from repro.baselines.zookeeper import ZkClient, ZkConfig, ZkServer, build_ensemble
from repro.baselines.akka import AkkaConfig, AkkaNode
from repro.baselines.gossip_fd import GossipFdConfig, GossipFdNode

__all__ = [
    "MembershipAgent",
    "SwimConfig",
    "SwimNode",
    "ZkClient",
    "ZkConfig",
    "ZkServer",
    "build_ensemble",
    "AkkaConfig",
    "AkkaNode",
    "GossipFdConfig",
    "GossipFdNode",
]
