"""Cycle and energy simulation: OOO host model, memory calibration over the
host L1 and the banked L2, CGRA offload execution, and the Table V system
configuration."""

from .config import (
    CGRAConfig,
    CacheConfig,
    DEFAULT_CONFIG,
    EnergyConfig,
    HostConfig,
    MemoryHierarchyConfig,
    OffloadConfig,
    SystemConfig,
)
from .cache import (
    BankedL2,
    Cache,
    MemorySystem,
    StreamProfile,
    profile_stream_dual,
)
from .core_ooo import OOOModel, OOOResult
from .energy import EnergyBreakdown, EnergyModel
from .memo import Calibration, SimulationMemo
from .offload import EventOracleSimulator, OffloadOutcome, OffloadSimulator
from .trace_kernels import (
    ChargeCensus,
    RLETrace,
    census_from_events,
    census_from_segments,
    run_length_encode,
)

__all__ = [
    "BankedL2",
    "CGRAConfig",
    "Cache",
    "CacheConfig",
    "Calibration",
    "ChargeCensus",
    "DEFAULT_CONFIG",
    "EnergyBreakdown",
    "EnergyConfig",
    "EnergyModel",
    "EventOracleSimulator",
    "HostConfig",
    "MemoryHierarchyConfig",
    "MemorySystem",
    "OffloadConfig",
    "OffloadOutcome",
    "OffloadSimulator",
    "OOOModel",
    "OOOResult",
    "RLETrace",
    "SimulationMemo",
    "StreamProfile",
    "SystemConfig",
    "census_from_events",
    "census_from_segments",
    "profile_stream_dual",
    "run_length_encode",
]
