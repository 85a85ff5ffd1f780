"""Geometric primitives: phi, triangle quantities, disk sampling, pair codec."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rggdist import (
    DiskDomain,
    DomainError,
    TriangleSides,
    pair_count,
    sample_points_in_disk,
    triangle_quantities,
)
from rggdist.geometry import _disk_map, _phi_clipped
from rggdist.montecarlo import substream

from helpers import pair_from_index, pair_index, sample_point_in_disk

lengths = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


class TestPhi:
    # ``_phi_clipped``, the phi every density kernel runs.

    def test_endpoint_values(self):
        assert _phi_clipped(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert _phi_clipped(1.0) == 0.0
        assert _phi_clipped(0.5) == pytest.approx(math.pi / 3 - math.sqrt(3) / 4, abs=1e-15)

    def test_nonincreasing(self):
        xs = np.linspace(0.0, 1.0, 501)
        vals = _phi_clipped(xs)
        assert np.all(np.diff(vals) <= 1e-15)
        assert vals.min() >= 0.0
        assert vals.max() <= math.pi / 2 + 1e-15

    def test_roundoff_clamp(self):
        assert _phi_clipped(1.0 + 1e-13) == 0.0
        assert _phi_clipped(-1e-13) == pytest.approx(math.pi / 2, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_pairs(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert _phi_clipped(lo) >= _phi_clipped(hi) - 1e-12


class TestTriangleQuantities:
    def test_right_triangle(self):
        tq = triangle_quantities(TriangleSides(3, 4, 5))
        assert tq.q == pytest.approx(576.0, rel=1e-14)
        assert tq.longest == 5.0
        assert tq.circumdiameter == pytest.approx(5.0, rel=1e-14)
        assert not tq.obtuse

    def test_equilateral(self):
        r = 0.7
        tq = triangle_quantities(TriangleSides(r, r, r))
        assert tq.circumdiameter == pytest.approx(2 * r / math.sqrt(3), rel=1e-14)
        assert not tq.obtuse

    def test_collinear_degenerate(self):
        tq = triangle_quantities(TriangleSides(1, 1, 2))
        assert tq.q == 0.0
        assert tq.circumdiameter is None

    @given(lengths, lengths, lengths)
    @settings(max_examples=200)
    def test_product_form_matches_quartic(self, a, b, c):
        tq = triangle_quantities(TriangleSides(a, b, c))
        quartic = (
            2 * a * a * b * b + 2 * a * a * c * c + 2 * b * b * c * c
            - a**4 - b**4 - c**4
        )
        scale = max(a, b, c) ** 4
        assert tq.q == pytest.approx(quartic, abs=1e-12 * scale)

    @given(lengths, lengths, lengths)
    @settings(max_examples=200)
    def test_permutation_symmetry_exact(self, a, b, c):
        import itertools

        base = triangle_quantities(TriangleSides(a, b, c))
        for perm in itertools.permutations((a, b, c)):
            tq = triangle_quantities(TriangleSides(*perm))
            assert tq.q == base.q
            assert tq.longest == base.longest
            assert tq.circumdiameter == base.circumdiameter

    @given(lengths, lengths)
    @settings(max_examples=200)
    def test_circumdiameter_at_least_longest(self, a, b):
        # Force a valid triangle: third side strictly inside the interval.
        c = 0.5 * (abs(a - b) + (a + b))
        tq = triangle_quantities(TriangleSides(a, b, c))
        if tq.circumdiameter is not None:
            assert tq.circumdiameter >= tq.longest * (1 - 1e-12)

    def test_obtuse_flag(self):
        assert triangle_quantities(TriangleSides(0.5, 0.5, 0.9)).obtuse
        assert not triangle_quantities(TriangleSides(0.5, 0.5, 0.5)).obtuse

    @pytest.mark.parametrize("bad", [(-1, 1, 1), (float("nan"), 1, 1), (float("inf"), 1, 1)])
    def test_side_validation(self, bad):
        with pytest.raises(DomainError):
            TriangleSides(*bad)


class TestDiskDomain:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), "one"])
    def test_invalid_diameter(self, bad):
        with pytest.raises(DomainError):
            DiskDomain(bad)

    def test_radius(self):
        assert DiskDomain(2.0).radius == 1.0


class TestDiskSampler:
    def test_support(self):
        domain = DiskDomain(1.0)
        rng = substream(11, 0)
        pts = sample_points_in_disk(domain, rng, 20_000)
        assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 0.25 + 1e-15)
        p = sample_point_in_disk(domain, substream(11, 0))
        assert p.x**2 + p.y**2 <= 0.25

    def test_radius_cdf_quarter(self):
        # P(|Z| <= D/4) = (2 * (D/4) / D)**2 = 1/4
        domain = DiskDomain(1.0)
        rng = substream(12, 0)
        n = 1_000_000
        pts = sample_points_in_disk(domain, rng, n)
        frac = np.mean(np.hypot(pts[:, 0], pts[:, 1]) <= 0.25)
        se = math.sqrt(0.25 * 0.75 / n)
        assert abs(frac - 0.25) <= 3 * se

    def test_coordinate_means(self):
        domain = DiskDomain(1.0)
        rng = substream(13, 0)
        n = 1_000_000
        pts = sample_points_in_disk(domain, rng, n)
        # Var(x) = R**2 / 4 for a uniform disk of radius R.
        se = math.sqrt(0.25**2 / 4 / n)
        assert abs(pts[:, 0].mean()) <= 3 * se
        assert abs(pts[:, 1].mean()) <= 3 * se

    def test_radius_squared_chi2(self):
        from scipy import stats

        domain = DiskDomain(1.0)
        rng = substream(14, 0)
        n = 100_000
        pts = sample_points_in_disk(domain, rng, n)
        rsq = pts[:, 0] ** 2 + pts[:, 1] ** 2
        counts, _ = np.histogram(rsq, bins=20, range=(0.0, 0.25))
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.001

    @pytest.mark.parametrize("diameter", [1.0, 7.4])
    def test_half_angle_map_accuracy(self, diameter):
        # The tan half-angle map against r*cos(2*pi*v) and r*sin(2*pi*v),
        # on the circle of radius R: at the quarter turns, just below half
        # a turn and a whole one (where tan(pi*v) is largest and smallest),
        # and at 200k uniform draws.
        R = DiskDomain(diameter).radius
        eps = np.finfo(float).eps
        quarters = [0.0, 0.25, 0.5, 0.75, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)]
        v = np.concatenate([quarters, substream(16, 0).random(200_000)])
        x, y = np.empty_like(v), np.empty_like(v)
        _disk_map(np.full_like(v, R), v.copy(), x, y)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
        assert np.max(np.abs(x - R * np.cos(2.0 * math.pi * v))) <= 4 * eps * R
        assert np.max(np.abs(y - R * np.sin(2.0 * math.pi * v))) <= 4 * eps * R
        assert np.all(x * x + y * y <= R * R * (1.0 + 4 * eps))

    def test_deterministic(self):
        domain = DiskDomain(1.0)
        a = sample_points_in_disk(domain, substream(5, 0), 100)
        b = sample_points_in_disk(domain, substream(5, 0), 100)
        assert np.array_equal(a, b)


class TestPairCodec:
    @pytest.mark.parametrize(
        "i,j,n,expected", [(1, 2, 3, 0), (2, 3, 3, 2), (4, 5, 5, 9), (1, 3, 3, 1)]
    )
    def test_examples(self, i, j, n, expected):
        assert pair_index(i, j, n) == expected

    def test_bijection_up_to_ten(self):
        for n in range(2, 11):
            seen = []
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    k = pair_index(i, j, n)
                    assert pair_from_index(k, n) == (i, j)
                    seen.append(k)
            assert sorted(seen) == list(range(pair_count(n)))

    @pytest.mark.parametrize("i,j,n", [(2, 2, 3), (3, 2, 3), (0, 1, 3), (1, 4, 3)])
    def test_invalid_pairs(self, i, j, n):
        with pytest.raises(DomainError):
            pair_index(i, j, n)

    def test_non_integer(self):
        with pytest.raises(DomainError):
            pair_index(1.0, 2, 3)
