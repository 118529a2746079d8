"""repro — a reproduction of "Stable and Consistent Membership at Scale
with Rapid" (Suresh et al., USENIX ATC 2018).

Public API
----------
The primary entry points re-exported here:

* :class:`~repro.core.membership.RapidNode` — a decentralized membership
  service node (monitoring overlay + multi-process cut detection +
  leaderless view-change consensus);
* :class:`~repro.core.centralized.EnsembleNode` /
  :class:`~repro.core.centralized.CentralizedClusterNode` — the logically
  centralized ("Rapid-C") deployment mode;
* :class:`~repro.core.settings.RapidSettings` — protocol parameters
  (``K``, ``H``, ``L``, detector knobs, consensus timeouts);
* :class:`~repro.core.node_id.Endpoint` — process addresses;
* :class:`~repro.core.events.ViewChangeEvent` — the view-change callback
  payload;
* :func:`repro.experiments.harness.harness_for` — a simulated deployment
  of any system under test, driven through the one harness contract of
  :class:`~repro.sim.cluster.SimCluster`.

See ``README.md`` for a quickstart and ``docs/ARCHITECTURE.md`` for the
system map.
"""

from repro.core.configuration import Configuration
from repro.core.events import NodeStatus, ViewChangeEvent
from repro.core.membership import RapidNode
from repro.core.centralized import CentralizedClusterNode, EnsembleNode
from repro.core.node_id import Endpoint, NodeId
from repro.core.settings import RapidSettings

__version__ = "1.0.0"

__all__ = [
    "Configuration",
    "NodeStatus",
    "ViewChangeEvent",
    "RapidNode",
    "CentralizedClusterNode",
    "EnsembleNode",
    "Endpoint",
    "NodeId",
    "RapidSettings",
    "__version__",
]
