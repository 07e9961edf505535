"""aqpath: augmented-cube topology, maximum three-terminal path systems,
and the exact machinery to check them."""

from .construct import ConstructionError, DPathFamily, TraceEntry, construct, target_count
from .cube import AdjListView, AugmentedCube, ResourceGuard, RestrictedView
from .flow import Insufficient, connectivity, disjoint_paths, fan, min_vertex_cut
from .oracle import (
    WitnessReport,
    brute_small,
    common_neighbors,
    cube_upper_bound,
    max_common,
    max_dpaths,
    pi3_exact,
    regular_upper_bound,
    witness_triple,
)
from .packing import Budget, SearchBudgetExceeded, pack_segments
from .verify import Violation, ViolationKind, check_family, check_path

__all__ = [
    "AdjListView",
    "AugmentedCube",
    "Budget",
    "ConstructionError",
    "DPathFamily",
    "Insufficient",
    "ResourceGuard",
    "RestrictedView",
    "SearchBudgetExceeded",
    "TraceEntry",
    "Violation",
    "ViolationKind",
    "WitnessReport",
    "brute_small",
    "check_family",
    "check_path",
    "common_neighbors",
    "connectivity",
    "construct",
    "cube_upper_bound",
    "disjoint_paths",
    "fan",
    "max_common",
    "max_dpaths",
    "min_vertex_cut",
    "pack_segments",
    "pi3_exact",
    "regular_upper_bound",
    "target_count",
    "witness_triple",
]
