"""Flower's core: flow model, builder, configuration and manager."""

from repro.core.builder import FlowBuilder
from repro.core.config import (
    DEFAULT_REFERENCE,
    LayerControlConfig,
    make_controller,
)
from repro.core.errors import (
    CapacityError,
    ConfigurationError,
    ControlError,
    FlowerError,
    MonitoringError,
    OptimizationError,
    RegionCapacityError,
    RegressionError,
    ServiceError,
    SimulationError,
    ThrottlingError,
)
from repro.core.fleet import (
    CoordinationRecord,
    FleetCoordinator,
    FleetFlowSpec,
    FleetRunResult,
    RegionFleetManager,
)
from repro.core.flow import FlowSpec, LayerKind, LayerSpec, clickstream_flow_spec
from repro.core.manager import (
    FlowElasticityManager,
    FlowRunResult,
    ServiceCapacities,
)

__all__ = [
    "FlowBuilder",
    "FlowElasticityManager",
    "FlowRunResult",
    "ServiceCapacities",
    "LayerControlConfig",
    "make_controller",
    "DEFAULT_REFERENCE",
    "FlowSpec",
    "LayerSpec",
    "LayerKind",
    "clickstream_flow_spec",
    "FlowerError",
    "ConfigurationError",
    "SimulationError",
    "ServiceError",
    "CapacityError",
    "RegionCapacityError",
    "ThrottlingError",
    "FleetFlowSpec",
    "FleetCoordinator",
    "CoordinationRecord",
    "RegionFleetManager",
    "FleetRunResult",
    "OptimizationError",
    "RegressionError",
    "ControlError",
    "MonitoringError",
]
