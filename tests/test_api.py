"""The public API: exactly the names users call, nothing test-only."""

import importlib

import pytest

import rggdist

PUBLIC = [
    "AccuracyError", "BoundChain", "BoundEntry", "ConnectionModel", "DiskDomain",
    "DomainError", "EntropyEstimate", "ExponentialSoft", "GraphPmf", "HardDisk",
    "Histogram3", "JointPdfCase", "McSettings", "QuadratureSettings",
    "Tabulated", "TriangleQuantities", "TriangleSides", "UnsupportedError",
    "bound_chain", "classify_triple", "connected_outcome_mask", "distance_histogram3",
    "enclosing_diameter_pdf", "entropy_bits", "entropy_error_bound", "estimate_entropy",
    "estimate_entropy_sweep", "estimate_pmf", "estimate_pmf_sweep", "exact_pmf",
    "integrate_many", "joint_pdf3", "joint_pdf3_cell_masses",
    "joint_pdf3_values", "joint_pdf3_via_conditioning_many", "pair_count", "pair_pdf",
    "parse_model", "pmf_n2", "pmf_n3", "prob_complete", "prob_connected",
    "relabel_orbit_map", "sample_points_in_disk", "shearer_factor", "substream",
    "triangle_quantities",
]

# Reference code that only tests call (it lives in tests/helpers.py), and
# ``phi``, which has no checked wrapper: its tests run ``_phi_clipped``.
TEST_ONLY = [
    "EdgeVector", "pair_index", "pair_from_index", "connect_prob",
    "conditional_joint_pdf3", "joint_pdf3_via_conditioning", "marginal_pair_density",
    "pair_pdf_on_circle", "angle_pdf_trapezoid", "enclosing_diameter_cdf", "phi",
]

# Gone with the second quadrature entry: ``integrate_many`` is the only one.
REMOVED = ["integrate", "QuadratureResult"]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 47
    assert sorted(rggdist.__all__) == sorted(PUBLIC)


def test_every_name_resolves_and_star_import_works():
    for name in rggdist.__all__:
        assert getattr(rggdist, name) is not None
    namespace = {}
    exec("from rggdist import *", namespace)
    assert set(PUBLIC) <= set(namespace)


@pytest.mark.parametrize(
    "module", ["rggdist", "rggdist.graphdist", "rggdist.geometry",
               "rggdist.connection", "rggdist.distances", "rggdist.quadrature"]
)
def test_test_only_code_is_not_in_the_package(module):
    mod = importlib.import_module(module)
    assert [name for name in TEST_ONLY + REMOVED if hasattr(mod, name)] == []
