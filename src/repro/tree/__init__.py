"""Spatial data structures: Morton/Hilbert keys and the adaptive octree."""

from .dualtree import BoxMAC, BoxPairs, VList, dual_traverse
from .hilbert import hilbert_key, hilbert_order
from .morton import morton_key
from .octree import Octree, build_octree

__all__ = [
    "morton_key",
    "hilbert_key",
    "hilbert_order",
    "Octree",
    "build_octree",
    "BoxPairs",
    "BoxMAC",
    "VList",
    "dual_traverse",
]
