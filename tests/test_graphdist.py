"""Exact graph pmf, entropy, and connectivity events."""

import math
import tracemalloc

import numpy as np
import pytest

from rggdist import (
    AccuracyError,
    DiskDomain,
    DomainError,
    ExponentialSoft,
    GraphPmf,
    HardDisk,
    Tabulated,
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
from rggdist.distances import _coverage_moment, _inner_lines, _LineStats, _longest_side_moment
from rggdist.quadrature import QuadratureSettings

from helpers import (
    EdgeVector,
    full_cube_m3,
    orbit_representative,
    outcome_is_connected,
    pmf_fit,
    sample_pmf,
    triple_m2,
)

DOMAIN = DiskDomain(1.0)

# The pinned table of tests/test_exact_pins.py: a breakpoint at every knot.
TABLE = Tabulated(((0.0, 0.9), (0.25, 0.7), (0.5, 0.2), (0.8, 0.0), (1.0, 0.0)))


def pmfs_n3(models, quad=None):
    """The exact three-node pmfs of ``models`` from the one exact entry."""
    return graphdist._exact_pmfs({3}, models, DOMAIN, quad)[3]


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

    @pytest.mark.parametrize("model", [
        HardDisk(r0=0.0), HardDisk(r0=0.4), HardDisk(r0=1.0), HardDisk(r0=2.0),
        ExponentialSoft(r0=0.3, beta=2.0), TABLE,
    ], ids=["hard0", "hard0.4", "hardD", "hard2D", "exp", "table"])
    def test_one_assembly(self, model):
        # The two-node pmf is the inclusion-exclusion of the three-node one
        # at k = 1: a Bernoulli edge, whose entry errors sum to the total.
        pmf = pmf_n2(model, DOMAIN)
        p1 = min(max(pmf.ingredients["m1"], 0.0), 1.0)
        assert pmf.probs.tobytes() == np.array([1.0 - p1, p1]).tobytes()
        assert sum(pmf.ingredients["entry_errors"]) == pmf.error_estimate
        # The bound chain's G2 pmf, built from the M1 of its three-node pmf.
        [pmf2] = graphdist._exact_pmfs({2, 3}, [model], DOMAIN)[2]
        assert pmf2.probs.tobytes() == pmf.probs.tobytes()
        assert pmf2.error_estimate == pmf.error_estimate


class TestExactPmfs:
    @pytest.mark.parametrize("quad", [
        None, QuadratureSettings(abs_tol=1e-6, rel_tol=0.0, max_subdivisions=600),
    ], ids=["default", "abs_tol=1e-6"])
    def test_two_node_pmfs_are_pmf_n2s(self, quad):
        models = [HardDisk(r0=0.0), HardDisk(r0=0.4), ExponentialSoft(r0=0.3, beta=2.0), TABLE]
        pmfs = graphdist._exact_pmfs({2, 3}, models, DOMAIN, quad)
        assert sorted(pmfs) == [2, 3]
        for model, pmf2 in zip(models, pmfs[2]):
            lone = pmf_n2(model, DOMAIN, quad)
            assert pmf2.probs.tobytes() == lone.probs.tobytes()
            assert pmf2.ingredients == lone.ingredients

    @pytest.mark.parametrize("sizes", [{4}, {3, 4}, {1, 2}], ids=["4", "3,4", "1,2"])
    def test_other_sizes_refused_before_any_integral(self, monkeypatch, sizes):
        def fail(*args):
            raise AssertionError("integral computed before the node counts were checked")

        for name in ("_pair_connect_prob", "_coverage_moment", "_longest_side_moment"):
            monkeypatch.setattr(graphdist, name, fail)
        with pytest.raises(UnsupportedError, match=r"only available for n in \(2, 3\)"):
            graphdist._exact_pmfs(sizes, [HardDisk(r0=0.4)], DOMAIN)


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


# Models of the M3 oracle test, by id: hard disks (the pass's cumulative
# distribution function), soft models that weight every axis, and the table,
# whose knots split every axis.
M3_MODELS = {
    **{str(r0): HardDisk(r0=r0) for r0 in (0.2, 0.4, 0.6, 0.9)},
    **{f"exp-{r0}": ExponentialSoft(r0=r0, beta=2.0) for r0 in (0.05, 0.3, 0.8)},
    "table": TABLE,
}


class TestMomentOracles:
    """M2 from the coverage function and M3 from one pass over the longest
    side, against the triple integrals they replace."""

    @pytest.mark.parametrize(
        "model",
        [HardDisk(r0=r0) for r0 in (0.2, 0.4, 0.6, 0.9)] + [ExponentialSoft(r0=0.3, beta=2.0), TABLE],
        ids=str,
    )
    def test_coverage_m2_matches_triple_integral(self, model):
        axis = graphdist._edge_axis(model, DOMAIN.diameter)
        oracle, oracle_err = triple_m2(DOMAIN, *axis, 1e-9)
        value, err = _coverage_moment(DOMAIN, *axis, 1e-9, 1000)
        assert abs(value - oracle) <= err + oracle_err
        # The default pmf's M2 lies within its own estimate of the oracle.
        pmf = pmf_n3(model, DOMAIN)
        assert abs(pmf.ingredients["m2"] - oracle) <= pmf.ingredients["e2"]

    @pytest.mark.parametrize("key", M3_MODELS)
    def test_longest_side_m3_matches_full_cube(self, key):
        model = M3_MODELS[key]
        hi, weight, breaks = graphdist._edge_axis(model, DOMAIN.diameter)
        oracle, oracle_err = full_cube_m3(DOMAIN, hi, weight, breaks, 1e-8)
        (value,), (err,) = _longest_side_moment(DOMAIN, [hi], weight, breaks, 1e-8, 1000)
        assert abs(value - oracle) <= err + oracle_err
        # The default pmf's M3 lies within its own estimate of the oracle,
        # from fewer third-side lines than the full cube at its tolerance
        # (the table's pass with its q axis unsplit takes 8,700, the cube 6,570).
        pmf = pmf_n3(model, DOMAIN)
        assert abs(pmf.ingredients["m3"] - oracle) <= pmf.ingredients["e3"]
        cube = _LineStats()
        full_cube_m3(DOMAIN, hi, weight, breaks, graphdist.DEFAULT_PMF_ENTRY_TOL / 4, 400, cube)
        assert pmf.ingredients["lines"] < cube.lines

    def test_sweep_rows_match_lone_pmfs(self):
        # Each row of a 40-point sweep shares one longest-side pass; a lone
        # pmf_n3 makes its own.  M1 and M2 are per model and equal bytes.
        grid = np.linspace(0.0, 1.0, 40)
        sweep = pmfs_n3([HardDisk(r0=float(r0)) for r0 in grid])
        for r0, row in zip(grid, sweep):
            lone = pmf_n3(HardDisk(r0=float(r0)), DOMAIN)
            for key in ("m1", "e1", "m2", "e2"):
                assert row.ingredients[key] == lone.ingredients[key]
            m3_gap = abs(row.ingredients["m3"] - lone.ingredients["m3"])
            assert m3_gap <= row.ingredients["e3"] + lone.ingredients["e3"]
            gap = np.abs(row.probs - lone.probs)
            assert np.all(gap <= row.error_estimate + lone.error_estimate)


class TestPmfN3Many:
    def test_zero_range_rows_are_point_masses(self):
        rows = pmfs_n3([HardDisk(r0=0.0), HardDisk(r0=0.4), HardDisk(r0=0.0)])
        for row in (rows[0], rows[2]):
            assert row.probs.tolist() == [1.0] + [0.0] * 7
            assert row.ingredients["m3"] == 0.0 and row.ingredients["e3"] == 0.0
        assert rows[1].probs.tobytes() == pmf_n3(HardDisk(r0=0.4), DOMAIN).probs.tobytes()

    def test_ranges_beyond_the_diameter_share_the_last_cut(self):
        rows = pmfs_n3([HardDisk(r0=1.5), HardDisk(r0=1.0)])
        assert rows[0].probs.tobytes() == rows[1].probs.tobytes()
        m3, e3 = rows[0].ingredients["m3"], rows[0].ingredients["e3"]
        assert abs(m3 - 1.0) <= e3
        assert rows[0].probs[-1] == pytest.approx(1.0, abs=1e-3)

    def test_duplicate_and_unsorted_ranges(self):
        # The pass is cut at the set of ranges, whatever their order.
        shuffled = pmfs_n3([HardDisk(r0=r0) for r0 in (0.6, 0.2, 0.6, 0.4)])
        ordered = pmfs_n3([HardDisk(r0=r0) for r0 in (0.2, 0.4, 0.6)])
        for row, k in zip(shuffled, (2, 0, 2, 1)):
            assert row.probs.tobytes() == ordered[k].probs.tobytes()
            assert row.error_estimate == ordered[k].error_estimate

    def test_mixed_hard_and_weighted_models(self):
        exp = ExponentialSoft(r0=0.3, beta=2.0)
        mixed = pmfs_n3([HardDisk(r0=0.4), exp, HardDisk(r0=0.2), TABLE])
        hard = pmfs_n3([HardDisk(r0=0.4), HardDisk(r0=0.2)])
        assert mixed[0].probs.tobytes() == hard[0].probs.tobytes()
        assert mixed[2].probs.tobytes() == hard[1].probs.tobytes()
        for row, model in ((mixed[1], exp), (mixed[3], TABLE)):
            lone = pmf_n3(model, DOMAIN)
            assert row.probs.tobytes() == lone.probs.tobytes()
            assert row.ingredients == lone.ingredients

    @pytest.mark.parametrize("models", [
        [HardDisk(r0=float(r0)) for r0 in np.linspace(0.0, 1.0, 8)],
        [HardDisk(r0=0.4), ExponentialSoft(r0=0.3, beta=2.0)],
    ], ids=["hard", "mixed"])
    def test_starved_settings_raise_instead_of_a_partial_table(self, models):
        quad = QuadratureSettings(abs_tol=1e-10, rel_tol=0.0, max_subdivisions=1)
        with pytest.raises(AccuracyError):
            pmfs_n3(models, quad)

    def test_ingredients_carry_estimates_and_line_counts(self):
        for model in (HardDisk(r0=0.4), ExponentialSoft(r0=0.3, beta=2.0)):
            pmf = pmf_n3(model, DOMAIN, QuadratureSettings(abs_tol=1e-8))
            ing = pmf.ingredients
            assert {"m1", "m2", "m3", "e1", "e2", "e3"} <= set(ing)
            errs = ing["entry_errors"]
            assert isinstance(errs, tuple) and len(errs) == 8
            assert sum(errs) == pytest.approx(pmf.error_estimate, rel=1e-12)
            assert ing["lines"] > 0

    def test_lines_above_budget_raise_and_name_the_worst(self):
        # A budget no line can meet: the lines fail loudly, naming the
        # worst line above its budget, with one estimate per line.
        p, q = np.random.default_rng(5).uniform(0.0, 1.0, (2, 200))
        with pytest.raises(AccuracyError) as excinfo:
            _inner_lines(p, q, 0.0, 1.0, 1.0, line_tol=1e-16)
        values, errors = excinfo.value.value, excinfo.value.error_estimate
        assert errors.shape == (200,)
        over = errors > np.maximum(1e-16, 1e-13 * np.abs(values))
        worst = np.argmax(np.where(over, errors, -np.inf))
        assert f"p={float(p[worst])!r}, q={float(q[worst])!r}" in str(excinfo.value)
        # The counts are those of this one batch of lines, and say so.
        assert f"{np.count_nonzero(over)} of a batch of 200 third-side lines" in str(excinfo.value)

    def test_entries_outside_unit_interval_raise_arrays_by_edge_count(self, monkeypatch):
        # An M2 far off its true value (0.9 where a hard disk of range 0.3
        # has about 0.077) puts the one-edge class at about -1.48: the pmf
        # is refused, and the error carries the class values and estimates
        # as arrays indexed by edge count, the shape every AccuracyError has.
        monkeypatch.setattr(graphdist, "_coverage_moment", lambda *args: (0.9, 1e-12))
        with pytest.raises(AccuracyError, match="left \\[0, 1\\]") as excinfo:
            pmf_n3(HardDisk(r0=0.3), DOMAIN)
        value, error = excinfo.value.value, excinfo.value.error_estimate
        for payload in (value, error):
            assert isinstance(payload, np.ndarray)
            assert payload.dtype == np.float64
            assert payload.shape == (4,)
        assert value[1] < -1.0 < 1.0 < value[0]


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

    def test_error_bound_covers_the_extreme_vertices(self):
        # Hard and soft pmfs for n = 2 and 3 at two tolerances: moving every
        # entry to the same end of its error interval changes the entropy
        # by no more than the bound, which is the per-entry supremum.  The
        # Monte Carlo-like pmf has one error for both entries, and its
        # first entry's interval holds 1/e, where -x*log2(x) peaks.
        r0s = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.97, 1.0)
        pmfs = [GraphPmf(n=2, probs=np.array([0.37, 0.63]), method="monte_carlo",
                         error_estimate=0.02)]
        for quad in (None, QuadratureSettings(abs_tol=1e-6, rel_tol=0.0, max_subdivisions=600)):
            for models in ([HardDisk(r0=r0) for r0 in r0s],
                           [ExponentialSoft(r0=r0, beta=2.0) for r0 in r0s]):
                pmfs += pmfs_n3(models, quad)
                pmfs += [pmf_n2(model, DOMAIN, quad) for model in models]
        assert len(pmfs) == 73

        def terms(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(x > 0.0, -x * np.log2(x), 0.0)

        for pmf in pmfs:
            p = pmf.probs
            e = np.asarray(pmf.ingredients.get("entry_errors", pmf.error_estimate))
            lo, hi = np.maximum(p - e, 0.0), np.minimum(p + e, 1.0)
            bound = entropy_error_bound(pmf)
            # Two sums of at most 3 bits each round by well under 1e-14.
            for vertex in (lo, hi):
                assert abs(np.sum(terms(vertex)) - np.sum(terms(p))) <= bound + 1e-14
            grid = lo + (hi - lo) * np.linspace(0.0, 1.0, 2001)[:, None]
            change = terms(grid) - terms(p)
            rise, fall = np.sum(change.max(axis=0)), np.sum(-change.min(axis=0))
            assert bound == pytest.approx(max(rise, fall), rel=1e-6, abs=1e-14)

    @pytest.mark.parametrize("model", [
        HardDisk(r0=0.4), HardDisk(r0=0.9), ExponentialSoft(r0=0.3, beta=2.0), TABLE,
    ], ids=["hard0.4", "hard0.9", "exp", "table"])
    def test_error_bound_covers_a_tighter_tolerance(self, model):
        tight = pmf_n3(model, DOMAIN, QuadratureSettings(abs_tol=1e-9, rel_tol=0.0,
                                                         max_subdivisions=600))
        default = pmf_n3(model, DOMAIN)
        gap = abs(entropy_bits(tight) - entropy_bits(default))
        assert gap <= entropy_error_bound(tight) + entropy_error_bound(default)

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

    def test_mask_built_once_and_read_only(self):
        # The mask and the orbit map are read off one outcome table.
        graphdist._outcomes.cache_clear()
        mask, orbits = connected_outcome_mask(4), relabel_orbit_map(4)
        assert graphdist._outcomes.cache_info().misses == 1
        assert connected_outcome_mask(4) is mask
        assert relabel_orbit_map(4) is orbits
        edges = graphdist._outcomes(4).edges
        assert edges.tolist() == [bin(code).count("1") for code in range(64)]
        for vector in graphdist._outcomes(4):
            with pytest.raises(ValueError):
                vector[0] = vector[0]

    @pytest.mark.parametrize("reader", [connected_outcome_mask, relabel_orbit_map])
    @pytest.mark.parametrize("n, error", [(7, UnsupportedError), (40, UnsupportedError),
                                          (1, DomainError)])
    def test_table_size_refused_before_allocation(self, reader, n, error):
        tracemalloc.start()
        try:
            with pytest.raises(error):
                reader(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the n=7 codes alone would take 16 MiB

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
