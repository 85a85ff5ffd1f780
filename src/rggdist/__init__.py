"""Distributions, connectivity, and entropy of random geometric graphs
whose nodes are uniform in a disk.

The package computes the exact outcome distribution of two- and
three-node graphs by quadrature against closed-form distance densities,
estimates arbitrary-size graphs by Monte Carlo, and chains per-edge
entropy bounds to larger graphs.  Every closed form has an independent
sampling or quadrature oracle next to it.
"""

from .bounds import BoundChain, BoundEntry, bound_chain, shearer_factor
from .connection import (
    ConnectionModel,
    ExponentialSoft,
    HardDisk,
    Tabulated,
    parse_model,
)
from .distances import (
    JointPdfCase,
    classify_triple,
    enclosing_diameter_pdf,
    joint_pdf3,
    joint_pdf3_cell_masses,
    joint_pdf3_values,
    joint_pdf3_via_conditioning_many,
    pair_pdf,
)
from .errors import AccuracyError, DomainError, UnsupportedError
from .geometry import (
    DiskDomain,
    TriangleQuantities,
    TriangleSides,
    pair_count,
    sample_points_in_disk,
    triangle_quantities,
)
from .graphdist import (
    GraphPmf,
    connected_outcome_mask,
    entropy_bits,
    entropy_error_bound,
    exact_pmf,
    pmf_n2,
    pmf_n3,
    prob_complete,
    prob_connected,
    relabel_orbit_map,
)
from .montecarlo import (
    EntropyEstimate,
    Histogram3,
    McSettings,
    distance_histogram3,
    estimate_entropy,
    estimate_entropy_sweep,
    estimate_pmf,
    estimate_pmf_sweep,
    substream,
)
from .quadrature import QuadratureSettings, integrate_many

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BoundChain",
    "BoundEntry",
    "ConnectionModel",
    "DiskDomain",
    "DomainError",
    "EntropyEstimate",
    "ExponentialSoft",
    "GraphPmf",
    "HardDisk",
    "Histogram3",
    "JointPdfCase",
    "McSettings",
    "QuadratureSettings",
    "Tabulated",
    "TriangleQuantities",
    "TriangleSides",
    "UnsupportedError",
    "bound_chain",
    "classify_triple",
    "connected_outcome_mask",
    "distance_histogram3",
    "enclosing_diameter_pdf",
    "entropy_bits",
    "entropy_error_bound",
    "estimate_entropy",
    "estimate_entropy_sweep",
    "estimate_pmf",
    "estimate_pmf_sweep",
    "exact_pmf",
    "integrate_many",
    "joint_pdf3",
    "joint_pdf3_cell_masses",
    "joint_pdf3_values",
    "joint_pdf3_via_conditioning_many",
    "pair_count",
    "pair_pdf",
    "parse_model",
    "pmf_n2",
    "pmf_n3",
    "prob_complete",
    "prob_connected",
    "relabel_orbit_map",
    "sample_points_in_disk",
    "shearer_factor",
    "substream",
    "triangle_quantities",
]
