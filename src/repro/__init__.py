"""Flower: a data analytics flow elasticity manager.

A faithful reproduction of *Flower* (Khoshkbarforoushha, Ranjan, Wang,
Friedrich — PVLDB 10(12), 2017): holistic elasticity management for
three-layer data analytics flows (ingestion → analytics → storage),
with workload dependency analysis (linear regression), resource share
analysis (NSGA-II under budget + dependency constraints), adaptive
provisioning controllers with gain memory, and cross-platform
monitoring — all running on a deterministic simulation of the cloud
services the paper's demo used (Kinesis, Storm-on-EC2, DynamoDB,
CloudWatch).

Quickstart::

    from repro import FlowBuilder, LayerKind
    from repro.workload import DiurnalRate

    manager = (
        FlowBuilder("click-stream", seed=7)
        .workload(DiurnalRate(mean=800, amplitude=500))
        .control_all(style="adaptive", reference=60.0)
        .build()
    )
    result = manager.run(6 * 3600)
    print(result.dashboard())
"""

from repro.core import (
    DEFAULT_REFERENCE,
    FleetFlowSpec,
    FleetRunResult,
    FlowBuilder,
    FlowElasticityManager,
    FlowRunResult,
    FlowSpec,
    FlowerError,
    LayerControlConfig,
    LayerKind,
    LayerSpec,
    RegionFleetManager,
    ServiceCapacities,
    clickstream_flow_spec,
    make_controller,
)
from repro.observability import FlightRecorder

# Imported after repro.core: the chaos package reaches into the cloud
# services, whose modules import repro.core.errors — importing chaos
# first would re-enter a partially initialized repro.cloud.
from repro.chaos import ChaosSchedule, FaultKind, FaultSpec

__version__ = "1.0.0"

__all__ = [
    "FlowBuilder",
    "FlowElasticityManager",
    "FlowRunResult",
    "ServiceCapacities",
    "FleetFlowSpec",
    "RegionFleetManager",
    "FleetRunResult",
    "LayerControlConfig",
    "make_controller",
    "DEFAULT_REFERENCE",
    "FlowSpec",
    "LayerSpec",
    "LayerKind",
    "clickstream_flow_spec",
    "FlightRecorder",
    "FlowerError",
    "ChaosSchedule",
    "FaultKind",
    "FaultSpec",
    "__version__",
]
