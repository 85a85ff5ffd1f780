"""Distance densities: closed forms against sampling and quadrature oracles."""

import itertools
import math

import numpy as np
import pytest

from rggdist import (
    DiskDomain,
    DomainError,
    JointPdfCase,
    TriangleSides,
    classify_triple,
    enclosing_diameter_pdf,
    joint_pdf3,
    joint_pdf3_cell_masses,
    joint_pdf3_values,
    joint_pdf3_via_conditioning_many,
    pair_pdf,
    sample_points_in_disk,
)
from rggdist import HardDisk, distances, pmf_n3
from rggdist.distances import _inner_lines, _per_cell_line_integrals
from rggdist.montecarlo import _count_fit, substream
from rggdist.quadrature import QuadratureSettings, integrate_many

from helpers import (
    _density_inscribed,
    _density_obtuse_extra,
    _density_outscribed,
    angle_pdf_trapezoid,
    cell_masses_reference,
    conditional_joint_pdf3,
    enclosing_diameter_cdf,
    joint_pdf3_via_conditioning,
    marginal_pair_density,
    obtuse_boundary_triples,
    pair_pdf_on_circle,
    right_triangles,
    valid_triple_grid,
)

DOMAIN = DiskDomain(1.0)
TIGHT = QuadratureSettings(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=200)


class TestPairPdf:
    def test_support_edges(self):
        assert pair_pdf(0.0, DOMAIN) == 0.0
        assert pair_pdf(1.0, DOMAIN) == 0.0
        assert pair_pdf(1.5, DOMAIN) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            pair_pdf(-0.1, DOMAIN)
        with pytest.raises(DomainError):
            pair_pdf(float("nan"), DOMAIN)

    def test_normalization(self):
        values, _ = integrate_many(lambda r, _: pair_pdf(r, DOMAIN), [(0.0, 1.0)], TIGHT)
        assert values[0] == pytest.approx(1.0, abs=1e-9)

    def test_histogram_oracle(self):
        # Ten million sampled pairs in fifty bins against their integrated
        # masses, judged by the rule of ``validate pair``.
        n = 10_000_000
        nbins = 50
        rng = substream(20260809, 0)
        counts = np.zeros(nbins, dtype=np.int64)
        done = 0
        while done < n:
            c = min(n - done, 1 << 19)
            p1 = sample_points_in_disk(DOMAIN, rng, c)
            p2 = sample_points_in_disk(DOMAIN, rng, c)
            r = np.hypot(p1[:, 0] - p2[:, 0], p1[:, 1] - p2[:, 1])
            idx = np.minimum((r * nbins).astype(np.int64), nbins - 1)
            counts += np.bincount(idx, minlength=nbins)
            done += c
        edges = np.linspace(0.0, 1.0, nbins + 1)
        masses, _ = integrate_many(
            lambda r, which: pair_pdf(r, DOMAIN),
            [(edges[i], edges[i + 1]) for i in range(nbins)],
            TIGHT,
        )
        assert _count_fit(counts, masses, n)["pass"]


class TestPairPdfOnCircle:
    def test_support_edges(self):
        assert pair_pdf_on_circle(0.0, 1.0) == 0.0
        assert pair_pdf_on_circle(1.0, 1.0) == 0.0
        assert pair_pdf_on_circle(1.2, 1.0) == 0.0

    def test_normalization(self):
        values, _ = integrate_many(lambda r, _: pair_pdf_on_circle(r, 0.8), [(0.0, 0.8)], TIGHT)
        assert values[0] == pytest.approx(1.0, abs=1e-9)

    def test_invalid_scale(self):
        with pytest.raises(DomainError):
            pair_pdf_on_circle(0.1, 0.0)


class TestTrapezoidAngle:
    def test_flat_top_value(self):
        assert angle_pdf_trapezoid(0.0, math.pi / 4, math.pi / 4) == pytest.approx(
            2.0 / math.pi, rel=1e-14
        )

    def test_support_boundary(self):
        assert angle_pdf_trapezoid(math.pi / 2, math.pi / 4, math.pi / 4) == 0.0
        assert angle_pdf_trapezoid(0.9 * math.pi, math.pi / 4, math.pi / 4) == 0.0

    def test_even(self):
        for theta in (0.1, 0.4, 0.8, 1.2):
            assert angle_pdf_trapezoid(theta, 0.6, 0.3) == angle_pdf_trapezoid(
                -theta, 0.6, 0.3
            )

    def test_normalization(self):
        for ha, hb in [(0.3, 0.3), (0.7, 0.2), (1.2, 1.0)]:
            values, _ = integrate_many(
                lambda t, _: angle_pdf_trapezoid(t, ha, hb),
                [(-math.pi, math.pi)],
                TIGHT,
            )
            assert values[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, math.pi / 2, -0.1, 2.0])
    def test_half_range_validation(self, bad):
        with pytest.raises(DomainError):
            angle_pdf_trapezoid(0.1, bad, 0.4)

    def test_theta_validation(self):
        with pytest.raises(DomainError):
            angle_pdf_trapezoid(math.pi, 0.4, 0.4)


class TestEnclosingDiameter:
    def test_values(self):
        assert enclosing_diameter_pdf(1.0, DOMAIN) == pytest.approx(6.0)
        assert enclosing_diameter_pdf(0.0, DOMAIN) == 0.0
        assert enclosing_diameter_cdf(0.5, DOMAIN) == pytest.approx(0.5**6)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            enclosing_diameter_pdf(1.1, DOMAIN)
        with pytest.raises(DomainError):
            enclosing_diameter_pdf(-0.1, DOMAIN)

    def test_sampling_oracle(self):
        # Empirical CDF at s = 0.5 of the largest of three enclosing
        # diameters (twice the radius of each sampled point).
        n = 1_000_000
        rng = substream(77, 0)
        radii = np.empty((n, 3))
        for k in range(3):
            pts = sample_points_in_disk(DOMAIN, rng, n)
            radii[:, k] = np.hypot(pts[:, 0], pts[:, 1])
        sbar = 2.0 * radii.max(axis=1)
        frac = np.mean(sbar <= 0.5)
        p = enclosing_diameter_cdf(0.5, DOMAIN)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(frac - p) <= 3 * se


class TestJointPdf3:
    def test_zero_outside_triangle_support(self):
        sides = TriangleSides(0.3, 0.3, 0.9)
        assert joint_pdf3(sides, DOMAIN) == 0.0
        assert classify_triple(sides, DOMAIN) is JointPdfCase.ZERO

    def test_zero_for_acute_with_large_circumcircle(self):
        # Equilateral with circumdiameter 2r/sqrt(3) > D but longest side <= D.
        sides = TriangleSides(0.9, 0.9, 0.9)
        assert joint_pdf3(sides, DOMAIN) == 0.0
        assert classify_triple(sides, DOMAIN) is JointPdfCase.ZERO

    def test_zero_beyond_disk(self):
        assert joint_pdf3(TriangleSides(1.2, 1.0, 0.5), DOMAIN) == 0.0

    def test_case_tags(self):
        assert classify_triple(TriangleSides(0.5, 0.5, 0.5), DOMAIN) is JointPdfCase.ACUTE_INSCRIBED
        assert classify_triple(TriangleSides(0.5, 0.5, 0.9), DOMAIN) is JointPdfCase.OBTUSE_OUTSCRIBED
        assert classify_triple(TriangleSides(0.5, 0.5, 0.75), DOMAIN) is JointPdfCase.OBTUSE_INSCRIBED

    def test_permutation_symmetry_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(0.05, 0.95, size=2)
            c = rng.uniform(abs(a - b), min(a + b, 1.0))
            vals = {
                joint_pdf3(TriangleSides(*perm), DOMAIN)
                for perm in itertools.permutations((a, b, c))
            }
            assert len(vals) == 1

    def test_scale_covariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = rng.uniform(0.05, 0.9, size=2)
            c = rng.uniform(abs(a - b) * 1.01, min(a + b, 1.0) * 0.99)
            lam = rng.uniform(0.2, 5.0)
            base = joint_pdf3(TriangleSides(a, b, c), DOMAIN)
            scaled = joint_pdf3(
                TriangleSides(lam * a, lam * b, lam * c), DiskDomain(lam)
            )
            assert scaled == pytest.approx(base / lam**3, rel=1e-12, abs=1e-300)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.1, 0.9, 50)
        b = rng.uniform(0.1, 0.9, 50)
        c = rng.uniform(0.0, 1.0, 50)
        vals = joint_pdf3_values(a, b, c, DOMAIN)
        for k in range(50):
            assert vals[k] == joint_pdf3(TriangleSides(a[k], b[k], c[k]), DOMAIN)

    def test_monte_carlo_bin_oracle(self):
        # Empirical density of sampled side-length triples in a small box
        # around the equilateral triple, against the closed form.
        n = 30_000_000
        half = 0.01
        center = 0.5
        rng = substream(90210, 0)
        hits = 0
        done = 0
        while done < n:
            c = min(n - done, 1 << 19)
            pts = sample_points_in_disk(DOMAIN, rng, 3 * c).reshape(3, c, 2)
            r12 = np.hypot(*(pts[0] - pts[1]).T)
            r13 = np.hypot(*(pts[0] - pts[2]).T)
            r23 = np.hypot(*(pts[1] - pts[2]).T)
            inside = (
                (np.abs(r12 - center) <= half)
                & (np.abs(r13 - center) <= half)
                & (np.abs(r23 - center) <= half)
            )
            hits += int(np.count_nonzero(inside))
            done += c
        vol = (2 * half) ** 3
        density = hits / (n * vol)
        exact = joint_pdf3(TriangleSides(center, center, center), DOMAIN)
        se = math.sqrt(exact / (n * vol))  # Poisson noise of the bin count
        assert abs(density - exact) <= max(0.02 * exact, 3.5 * se)


class TestBranchBoundaries:
    def test_obtuse_branches_agree_at_circumdiameter_equal_to_disk(self):
        rng = np.random.default_rng(31)
        for trip in obtuse_boundary_triples(100, rng):
            a, b, c = sorted(trip)
            inscribed = _density_inscribed(a, b, c, 1.0, 1.0) + _density_obtuse_extra(
                c, 1.0, 1.0
            )
            outscribed = _density_outscribed(c, 1.0, 1.0)
            assert inscribed == pytest.approx(outscribed, rel=1e-9)

    def test_branches_agree_at_right_triangles(self):
        rng = np.random.default_rng(32)
        for trip in right_triangles(100, rng):
            a, b, c = sorted(trip)
            d = c  # circumdiameter of a right triangle is its hypotenuse
            acute_side = _density_inscribed(a, b, c, d, 1.0)
            obtuse_side = acute_side + _density_obtuse_extra(c, d, 1.0)
            assert obtuse_side == pytest.approx(acute_side, rel=1e-9)


class TestConditionalDensity:
    def test_zero_when_longest_exceeds_scale(self):
        assert conditional_joint_pdf3(TriangleSides(0.5, 0.5, 0.7), 0.6) == 0.0

    def test_zero_for_acute_with_large_circumcircle(self):
        # d = 2r/sqrt(3) = 0.577 > s = 0.55 >= rbar, acute: impossible.
        assert conditional_joint_pdf3(TriangleSides(0.5, 0.5, 0.5), 0.55) == 0.0

    def test_positive_inside_support(self):
        assert conditional_joint_pdf3(TriangleSides(0.4, 0.4, 0.4), 0.9) > 0.0

    def test_scale_validation(self):
        with pytest.raises(DomainError):
            conditional_joint_pdf3(TriangleSides(0.4, 0.4, 0.4), 0.0)

    def test_conditioning_integral_reproduces_joint(self):
        sides = TriangleSides(0.4, 0.4, 0.4)
        target = joint_pdf3(sides, DOMAIN)

        def integrand(svals, _):
            dens = np.array(
                [conditional_joint_pdf3(sides, float(s)) for s in svals]
            )
            return dens * enclosing_diameter_pdf(svals, DOMAIN)

        d = 0.8 / math.sqrt(3.0)
        values, _ = integrate_many(
            integrand,
            [(0.4, 1.0)],
            QuadratureSettings(abs_tol=0.0, rel_tol=1e-9, max_subdivisions=300),
            [[d]],
        )
        assert values[0] == pytest.approx(target, rel=1e-6)


class TestViaConditioning:
    def test_zero_outside_support(self):
        assert joint_pdf3_via_conditioning(TriangleSides(0.3, 0.3, 0.9), DOMAIN) == 0.0

    @pytest.mark.parametrize(
        "trip", [(0.5, 0.5, 0.5), (0.9, 0.5, 0.5), (0.3, 0.5, 0.7), (0.2, 0.85, 0.9)]
    )
    def test_matches_closed_form(self, trip):
        sides = TriangleSides(*trip)
        direct = joint_pdf3(sides, DOMAIN)
        via = joint_pdf3_via_conditioning(sides, DOMAIN)
        assert via == pytest.approx(direct, rel=1e-6)

    def test_batch_grid(self):
        triples = valid_triple_grid(per_axis=5)
        direct = joint_pdf3_values(triples[:, 0], triples[:, 1], triples[:, 2], DOMAIN)
        via, _ = joint_pdf3_via_conditioning_many(
            triples[:, 0], triples[:, 1], triples[:, 2], DOMAIN
        )
        rel = np.abs(via - direct) / np.maximum(np.abs(direct), 1e-12)
        assert np.max(rel) <= 1e-6

    def test_non_convergence_raises_with_estimate(self):
        from rggdist import AccuracyError

        starved = QuadratureSettings(abs_tol=0.0, rel_tol=1e-13, max_subdivisions=2)
        with pytest.raises(AccuracyError) as excinfo:
            joint_pdf3_via_conditioning(TriangleSides(0.5, 0.5, 0.9), DOMAIN, starved)
        assert excinfo.value.error_estimate is not None


class TestLineIntegrals:
    def test_per_cell_sums_match_whole_lines(self):
        # The two reductions of the line integrator: per-cell pieces summed
        # over the cells give the whole-line integral, within the sum of
        # the two line tolerances.
        rng = np.random.default_rng(3)
        p = np.concatenate([rng.uniform(0.01, 0.99, 40), [0.5, 0.3, 0.7071, 0.9]])
        q = np.concatenate([rng.uniform(0.01, 0.99, 40), [0.5, 0.4, 0.7071, 0.2]])
        cells = _per_cell_line_integrals(p, q, np.linspace(0.0, 1.0, 21), 1.0, 0.0)
        whole = _inner_lines(p, q, 0.0, 1.0, 1.0, line_tol=1e-11)[0][:, 0]
        assert np.all(whole > 0.0)
        assert np.max(np.abs(cells.sum(axis=1) - whole)) <= 1e-9 + 1e-11

    @pytest.mark.parametrize(
        "p, q, end",
        [(0.9, 0.2, "low"), (0.3, 0.4, "high"), (0.45, 0.05, "low"), (0.45, 0.05, "high")],
    )
    def test_breaks_near_degenerate_ends(self, p, q, end):
        # A break just inside a degenerate end (|p - q| or p + q, where the
        # density blows up like 1/sqrt) leaves a sliver piece between them.
        # Its nodes must neither drop the sliver's mass nor hide the loss
        # from the error estimate: the line with the break equals the line
        # without it within the line budget and both reported errors.
        line_tol = 1e-11
        whole, whole_err = _inner_lines([p], [q], 0.0, 1.0, 1.0, line_tol=line_tol)
        for offset in (0.0, 1e-16, 1e-15, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
            brk = abs(p - q) + offset if end == "low" else p + q - offset
            value, err = _inner_lines(
                [p], [q], 0.0, 1.0, 1.0, extra_breaks=(brk,), line_tol=line_tol
            )
            assert abs(value[0] - whole[0]) <= line_tol + err[0] + whole_err[0], offset

    def test_lines_converge_at_tight_tolerance(self, monkeypatch):
        # With one cosine map per line, the third-side lines of a tight
        # exact pmf meet their budgets (a line that cannot raises) in a few
        # pieces: 5.6 per line, where a map per piece took 45 per line.
        counts = []
        bisect = distances._bisect

        def counting_bisect(rule, lo, hi, owner, count, *args):
            lo, hi, owner, val, err = bisect(rule, lo, hi, owner, count, *args)
            counts.append((count, len(lo)))
            return lo, hi, owner, val, err

        monkeypatch.setattr(distances, "_bisect", counting_bisect)
        pmf_n3(HardDisk(r0=0.4), DOMAIN, QuadratureSettings(abs_tol=1e-8))
        lines, pieces = np.sum(counts, axis=0)
        assert pieces <= 8 * lines

    def test_a_line_past_six_rounds_meets_its_budget(self):
        # The worst third-side line of the 41-edge cell grid needs more
        # than six rounds of bisection; it still meets its budget.
        _, errors = _inner_lines(
            [0.6011727519257668], [6.356119241058547e-06], 0.0, 1.0, 1.0,
            extra_breaks=np.linspace(0.0, 1.0, 41)[1:-1], line_tol=1e-9,
        )
        assert errors[0] <= 1e-9

    @pytest.mark.parametrize(
        "diameter, edges",
        [
            (1.0, [0.0, 0.05, 0.3, 0.31, 0.7, 1.0, 1.2]),
            (1.6, [0.1, 0.15, 0.4, 0.45, 0.9, 1.3, 1.6]),
        ],
    )
    def test_cell_masses_match_the_loop_reference(self, diameter, edges):
        # The middle-axis pieces come from one sorted union of grid edges
        # and kink candidates; the per-cell loop gives the same bytes, also
        # on non-uniform grids that do not start at 0.
        domain = DiskDomain(diameter)
        masses = joint_pdf3_cell_masses(domain, edges)
        assert masses.tobytes() == cell_masses_reference(domain, edges).tobytes()

    @pytest.mark.parametrize(
        "diameter, edges",
        [
            (1.0, np.linspace(0.0, 1.0, 6)),
            (1.0, np.linspace(0.0, 1.0, 21)),
            (1.0, [0.0, 0.05, 0.3, 0.31, 0.7, 1.0, 1.2]),
            (1.6, [0.1, 0.15, 0.4, 0.45, 0.9, 1.3, 1.6]),
        ],
    )
    def test_cell_masses_are_symmetric_in_the_three_axes(self, diameter, edges):
        # The density is symmetric in its three sides and the grid is the
        # same on every axis, so each cell holds the mass of its sorted
        # index triple: the masses equal every transpose byte for byte.
        masses = joint_pdf3_cell_masses(DiskDomain(diameter), edges)
        for axes in itertools.permutations(range(3)):
            assert masses.transpose(axes).tobytes() == masses.tobytes()

    def test_cell_masses_on_a_grid_above_zero(self):
        # No third-side mass below the grid's first edge is lumped into the
        # first cell: the masses equal the block of the same grid with 0
        # prepended, byte for byte.
        domain = DiskDomain(1.6)
        edges = np.array([0.1, 0.15, 0.4, 0.45, 0.9, 1.3, 1.6])
        masses = joint_pdf3_cell_masses(domain, edges)
        from_zero = joint_pdf3_cell_masses(domain, np.concatenate([[0.0], edges]))
        assert masses.tobytes() == np.ascontiguousarray(from_zero[1:, 1:, 1:]).tobytes()

    def test_cell_masses_against_a_ten_point_reference(self):
        # Integrating each sorted cell whole costs the fixed 5-point outer
        # rules no accuracy: the bound is the deviation of all 1,000 cells
        # integrated, 1.73e-7, rounded up.  Cutting the diagonal cells at
        # q = p instead gives 4.7e-6.
        edges = np.linspace(0.0, 1.0, 11)
        masses = joint_pdf3_cell_masses(DOMAIN, edges)
        reference = cell_masses_reference(DOMAIN, edges, gauss_order=10)
        assert np.max(np.abs(masses - reference)) <= 1.75e-7


class TestMarginal:
    def test_reproduces_pair_density(self):
        pts = np.array([0.15, 0.4, 0.75])
        marg = marginal_pair_density(pts, DOMAIN, abs_tol=1e-7)
        exact = pair_pdf(pts, DOMAIN)
        assert np.max(np.abs(marg - exact)) <= 1e-6
