"""Parallel treecode: the plan-unit executor, w-block partitioning and
the machine model."""

from .executors import (
    ENV_WORKERS,
    ParallelResult,
    evaluate_plan_parallel,
    resolve_workers,
)
from .machine import MachineModel, SimulationResult, schedule_blocks, simulate
from .partition import BlockProfile, make_blocks, profile_blocks

__all__ = [
    "make_blocks",
    "profile_blocks",
    "BlockProfile",
    "evaluate_plan_parallel",
    "resolve_workers",
    "ENV_WORKERS",
    "ParallelResult",
    "MachineModel",
    "SimulationResult",
    "simulate",
    "schedule_blocks",
]
