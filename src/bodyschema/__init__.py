"""Recovering an open-chain robot's body topology from on-body inertial
sensing and joint encoders: per-sensor pose learning, dependency-matrix
extraction, tree/matrix equivalence machinery, and repair of partial or
contradictory matrices."""

from .chain import Joint, RobotSpec, Trajectory
from .correction import CorrectionResult
from .errors import (
    BodySchemaError,
    DegenerateSensorError,
    NotATreeError,
    NotCompletableError,
    SchemaError,
    TrainingDivergedError,
)
from .extraction import ClusterResult
from .pipeline import ExperimentManifest, RunReport, run_pipeline
from .pose_net import PoseNet, SensorDataset, TrainConfig, TrainResult
from .topology import ConditionReport, DependencyMatrix, OutTree

__all__ = [
    "BodySchemaError",
    "ClusterResult",
    "ConditionReport",
    "CorrectionResult",
    "DegenerateSensorError",
    "DependencyMatrix",
    "ExperimentManifest",
    "Joint",
    "NotATreeError",
    "NotCompletableError",
    "OutTree",
    "PoseNet",
    "RobotSpec",
    "RunReport",
    "SchemaError",
    "SensorDataset",
    "TrainConfig",
    "TrainResult",
    "Trajectory",
    "run_pipeline",
]

__version__ = "0.1.0"
