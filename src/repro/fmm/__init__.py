"""Fast Multipole Method extension: the cluster plan under the V-list
criterion over a uniform-depth octree, with per-level degrees."""

from .engine import FMMStats, UniformFMM, level_degrees

__all__ = ["UniformFMM", "FMMStats", "level_degrees"]
