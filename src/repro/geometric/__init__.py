"""Geometric Markovian evolving graphs: lattice walkers + radius graphs."""

from repro.geometric.cells import CellPartition, CellStatistics, cell_count
from repro.geometric.connectivity import (
    ComponentReport,
    component_report,
    is_geometric_connected,
)
from repro.geometric.kernels import GeometricBatchedDynamics
from repro.geometric.lattice import Lattice, disc_offsets
from repro.geometric.meg import GeometricMEG, GeometricSnapshot
from repro.geometric.neighbors import (
    batched_within_radius,
    brute_force_within_radius,
    lattice_within_radius,
    radius_degrees,
    radius_edges,
    within_radius_of_members,
)
from repro.geometric.walk import WalkerPopulation

__all__ = [
    "Lattice",
    "disc_offsets",
    "WalkerPopulation",
    "GeometricMEG",
    "GeometricSnapshot",
    "CellPartition",
    "ComponentReport",
    "component_report",
    "is_geometric_connected",
    "CellStatistics",
    "cell_count",
    "within_radius_of_members",
    "batched_within_radius",
    "lattice_within_radius",
    "radius_edges",
    "radius_degrees",
    "brute_force_within_radius",
    "GeometricBatchedDynamics",
]
