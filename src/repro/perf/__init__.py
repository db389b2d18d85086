"""Performance layer: compiled evaluation plans and fast scatter.

``scatter_add`` is imported eagerly (it is dependency-free and used by
the core evaluator); the plan compiler is exposed lazily via module
``__getattr__`` because :mod:`repro.perf.plan` imports
:mod:`repro.core.treecode`, which itself imports this package — the
deferral breaks the cycle.
"""

from __future__ import annotations

from .scatter import scatter_add

__all__ = [
    "scatter_add",
    "CompiledPlan",
    "compile_plan",
    "DEFAULT_MEMORY_BUDGET",
    "ClusterPlan",
]

_PLAN_SYMBOLS = {"CompiledPlan", "compile_plan", "DEFAULT_MEMORY_BUDGET"}
_CLUSTER_SYMBOLS = {"ClusterPlan"}


def __getattr__(name: str):
    if name in _PLAN_SYMBOLS:
        from . import plan

        return getattr(plan, name)
    if name in _CLUSTER_SYMBOLS:
        from . import cluster

        return getattr(cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
