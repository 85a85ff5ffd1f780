"""Exact graph pmf, entropy, and connectivity events."""

import math

import numpy as np
import pytest

from rggdist import (
    DiskDomain,
    DomainError,
    ExponentialSoft,
    GraphPmf,
    HardDisk,
    UnsupportedError,
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
from rggdist import graphdist
from rggdist.quadrature import QuadratureSettings

from helpers import (
    EdgeVector,
    orbit_representative,
    outcome_is_connected,
    pmf_fit,
    sample_pmf,
)

DOMAIN = DiskDomain(1.0)


class TestEdgeVector:
    def test_roundtrip_small(self):
        for n in (2, 3, 4, 5):
            m = n * (n - 1) // 2
            for code in range(1 << m):
                assert EdgeVector.from_int(n, code).encode() == code

    def test_roundtrip_n8(self):
        rng = np.random.default_rng(1)
        m = 28
        for code in rng.integers(0, 1 << m, size=200):
            assert EdgeVector.from_int(8, int(code)).encode() == int(code)

    def test_edge_lookup(self):
        ev = EdgeVector(n=3, bits=(1, 0, 1))
        assert ev.edge(1, 2) == 1
        assert ev.edge(1, 3) == 0
        assert ev.edge(2, 3) == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            EdgeVector(n=3, bits=(1, 0))
        with pytest.raises(DomainError):
            EdgeVector(n=3, bits=(1, 0, 2))


class TestPmfN2:
    def test_full_range(self):
        pmf = pmf_n2(HardDisk(r0=1.0), DOMAIN)
        assert pmf.probs[1] == pytest.approx(1.0, abs=1e-9)

    def test_zero_range(self):
        pmf = pmf_n2(HardDisk(r0=0.0), DOMAIN)
        assert pmf.probs[1] == 0.0
        assert pmf.probs[0] == 1.0

    def test_sums_to_one_exactly(self):
        for model in (HardDisk(r0=0.5), ExponentialSoft(r0=0.4, beta=2.0)):
            pmf = pmf_n2(model, DOMAIN)
            assert float(np.sum(pmf.probs)) == 1.0

    def test_monte_carlo_cross_check(self):
        model = HardDisk(r0=0.5)
        pmf = pmf_n2(model, DOMAIN)
        samples = 10_000_000
        est = sample_pmf(2, model, seed=101, samples=samples)
        assert pmf_fit(est, pmf)["pass"]


class TestPmfN3:
    def test_full_range_point_mass(self):
        pmf = pmf_n3(HardDisk(r0=1.0), DOMAIN)
        assert pmf.probs[-1] == pytest.approx(1.0, abs=1e-3)
        assert np.all(pmf.probs[:-1] <= 1e-3)

    def test_zero_range_point_mass(self):
        pmf = pmf_n3(HardDisk(r0=0.0), DOMAIN)
        assert pmf.probs[0] == 1.0
        assert np.all(pmf.probs[1:] == 0.0)

    def test_sums_to_one_exactly(self):
        for model in (
            HardDisk(r0=0.4),
            HardDisk(r0=0.85),
            ExponentialSoft(r0=0.3, beta=2.0),
        ):
            pmf = pmf_n3(model, DOMAIN)
            assert float(np.sum(pmf.probs)) == pytest.approx(1.0, abs=1e-12)

    def test_relabeling_symmetry_exact(self):
        pmf = pmf_n3(HardDisk(r0=0.4), DOMAIN)
        orbits = relabel_orbit_map(3)
        for rep in np.unique(orbits):
            members = pmf.probs[orbits == rep]
            assert np.all(members == members[0])

    def test_monte_carlo_cross_check_hard(self):
        model = HardDisk(r0=0.4)
        pmf = pmf_n3(model, DOMAIN)
        samples = 10_000_000
        est = sample_pmf(3, model, seed=202, samples=samples)
        assert pmf_fit(est, pmf, slack=pmf.error_estimate / 8)["pass"]

    def test_monte_carlo_cross_check_soft(self):
        model = ExponentialSoft(r0=0.3, beta=2.0)
        pmf = pmf_n3(model, DOMAIN)
        samples = 1_000_000
        est = sample_pmf(3, model, seed=303, samples=samples)
        assert pmf_fit(est, pmf, slack=pmf.error_estimate / 8)["pass"]

    def test_monte_carlo_cross_check_tabulated(self):
        from rggdist import Tabulated

        model = Tabulated(knots=((0.0, 1.0), (0.3, 0.7), (0.6, 0.1), (1.0, 0.0)))
        pmf = pmf_n3(model, DOMAIN)
        samples = 1_000_000
        est = sample_pmf(3, model, seed=307, samples=samples)
        assert pmf_fit(est, pmf, slack=pmf.error_estimate / 8)["pass"]
        pmf2 = pmf_n2(model, DOMAIN)
        est2 = sample_pmf(2, model, seed=308, samples=samples)
        assert pmf_fit(est2, pmf2)["pass"]

    def test_tight_tolerance_settings(self):
        quad = QuadratureSettings(abs_tol=1e-6, rel_tol=0.0, max_subdivisions=800)
        pmf = pmf_n3(HardDisk(r0=0.4), DOMAIN, quad)
        default = pmf_n3(HardDisk(r0=0.4), DOMAIN)
        assert pmf.error_estimate < default.error_estimate
        assert np.all(np.abs(pmf.probs - default.probs) <= default.error_estimate)

    def test_relative_tolerance_alone_refused(self):
        # Only abs_tol sets the entry tolerance: settings that leave it at
        # zero are refused rather than replaced by the default.
        quad = QuadratureSettings(abs_tol=0.0, rel_tol=1e-9)
        with pytest.raises(DomainError, match="abs_tol"):
            pmf_n3(HardDisk(r0=0.4), DOMAIN, quad)


class TestExactPmfDispatch:
    def test_dispatch(self):
        assert exact_pmf(2, HardDisk(r0=0.5), DOMAIN).n == 2
        assert exact_pmf(3, HardDisk(r0=0.5), DOMAIN).n == 3

    @pytest.mark.parametrize("n", [4, 5, 10])
    def test_refuses_larger_graphs(self, n):
        with pytest.raises(UnsupportedError):
            exact_pmf(n, HardDisk(r0=0.5), DOMAIN)


class TestEntropy:
    def test_point_mass(self):
        pmf = GraphPmf(n=2, probs=np.array([1.0, 0.0]), method="quadrature", error_estimate=0.0)
        assert entropy_bits(pmf) == 0.0

    def test_uniform_three_nodes(self):
        pmf = GraphPmf(
            n=3, probs=np.full(8, 0.125), method="quadrature", error_estimate=0.0
        )
        assert entropy_bits(pmf) == pytest.approx(3.0, abs=1e-14)

    def test_fair_edge(self):
        pmf = GraphPmf(n=2, probs=np.array([0.5, 0.5]), method="quadrature", error_estimate=0.0)
        assert entropy_bits(pmf) == pytest.approx(1.0, abs=1e-14)

    def test_range(self):
        for r0 in (0.2, 0.5, 0.8):
            pmf = pmf_n3(HardDisk(r0=r0), DOMAIN)
            h = entropy_bits(pmf)
            assert 0.0 <= h <= 3.0
            assert entropy_error_bound(pmf) >= 0.0

    def test_zero_iff_point_mass(self):
        pmf = pmf_n3(HardDisk(r0=0.0), DOMAIN)
        assert entropy_bits(pmf) == 0.0
        pmf = pmf_n3(HardDisk(r0=0.4), DOMAIN)
        assert entropy_bits(pmf) > 1e-9


class TestConnectivityEvents:
    def test_three_node_classification(self):
        mask = connected_outcome_mask(3)
        # Codes: bit0 = (1,2), bit1 = (1,3), bit2 = (2,3).
        assert not mask[0b000]
        assert not mask[0b001]  # single edge leaves a node isolated
        assert not mask[0b010]
        assert not mask[0b100]
        assert mask[0b011]
        assert mask[0b101]
        assert mask[0b110]
        assert mask[0b111]

    def test_connected_counts(self):
        # Labelled connected graphs on n = 2..6 nodes (OEIS A001187); the
        # bitwise reach sets agree with a graph search on every outcome.
        for n, count in zip(range(2, 7), (1, 4, 38, 728, 26704)):
            mask = connected_outcome_mask(n)
            assert mask.shape == (1 << (n * (n - 1) // 2),)
            assert int(mask.sum()) == count
            if n <= 5:
                assert mask.tolist() == [outcome_is_connected(n, c) for c in range(len(mask))]

    def test_mask_built_once_and_read_only(self, monkeypatch):
        builds = []
        real = graphdist._outcome_edge_bits

        def counting(n):
            builds.append(n)
            return real(n)

        monkeypatch.setattr(graphdist, "_outcome_edge_bits", counting)
        graphdist._connected_mask.cache_clear()
        first = connected_outcome_mask(4)
        second = connected_outcome_mask(4)
        assert builds == [4]
        assert second is first
        with pytest.raises(ValueError):
            first[0] = True
        graphdist._connected_mask.cache_clear()

    def test_four_term_sum(self):
        pmf = pmf_n3(HardDisk(r0=0.6), DOMAIN)
        explicit = float(
            pmf.probs[0b011] + pmf.probs[0b101] + pmf.probs[0b110] + pmf.probs[0b111]
        )
        assert prob_connected(pmf) == pytest.approx(explicit, abs=1e-15)

    def test_full_range_connected(self):
        pmf = pmf_n3(HardDisk(r0=1.0), DOMAIN)
        assert prob_connected(pmf) == pytest.approx(1.0, abs=1e-3)

    def test_complete_below_connected(self):
        for r0 in (0.2, 0.5, 0.8):
            pmf = pmf_n3(HardDisk(r0=r0), DOMAIN)
            assert prob_complete(pmf) <= prob_connected(pmf) <= 1.0


class TestOrbits:
    def test_orbit_counts(self):
        # Unlabeled graphs on n = 2..6 vertices (OEIS A000088); the bitwise
        # relabeling agrees with a per-outcome loop over all permutations.
        for n, count in zip(range(2, 7), (2, 4, 11, 34, 156)):
            orbits = relabel_orbit_map(n)
            assert len(np.unique(orbits)) == count
            if n <= 4:
                assert orbits.tolist() == [orbit_representative(n, c) for c in range(len(orbits))]

    def test_orbit_invariance_under_all_permutations(self):
        orbits = relabel_orbit_map(3)
        # Explicit check: single-edge outcomes fall in one orbit.
        assert orbits[0b001] == orbits[0b010] == orbits[0b100]
        assert orbits[0b011] == orbits[0b101] == orbits[0b110]

    def test_four_node_estimates_symmetric_within_noise(self):
        samples = 400_000
        est = sample_pmf(4, HardDisk(r0=0.5), seed=606, samples=samples)
        orbits = relabel_orbit_map(4)
        for rep in np.unique(orbits):
            members = est.probs[orbits == rep]
            p = float(np.mean(members))
            spread = float(np.max(members) - np.min(members))
            assert spread <= 6 * math.sqrt(max(p * (1 - p), 1e-12) / samples) + 5 / samples


class TestGraphPmfValidation:
    def test_wrong_length(self):
        with pytest.raises(DomainError):
            GraphPmf(n=3, probs=np.ones(4) / 4, method="quadrature", error_estimate=0.0)

    def test_bad_probabilities(self):
        with pytest.raises(DomainError):
            GraphPmf(
                n=2, probs=np.array([-0.5, 1.5]), method="quadrature", error_estimate=0.0
            )

    def test_bad_method(self):
        with pytest.raises(DomainError):
            GraphPmf(n=2, probs=np.array([0.5, 0.5]), method="magic", error_estimate=0.0)
