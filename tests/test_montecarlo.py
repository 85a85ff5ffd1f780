"""Monte Carlo estimators: determinism, convergence, and cross-checks."""

import itertools
import math
import threading
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from rggdist import (
    DiskDomain,
    DomainError,
    HardDisk,
    ExponentialSoft,
    McSettings,
    UnsupportedError,
    distance_histogram3,
    entropy_bits,
    estimate_entropy,
    estimate_entropy_sweep,
    estimate_pmf,
    estimate_pmf_sweep,
    pair_pdf,
    pmf_n3,
    prob_complete,
    prob_connected,
)
from rggdist import montecarlo
from rggdist.montecarlo import (
    _count_fit,
    _distance_counts,
    _distance_sq_chunks,
    _Encoder,
    _entropy_estimate,
    _outcome_counts,
    substream,
)
from rggdist.quadrature import QuadratureSettings, integrate_many

from helpers import bootstrap_entropy, distance_sq_blocks_reference, sample_graph

DOMAIN = DiskDomain(1.0)


def hard_disks(r0_values):
    return [HardDisk(r0=float(r0)) for r0 in r0_values]


def traced_peak(fn):
    """Peak traced allocation, in bytes, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _entropy_bits_from_counts(counts, total, bias_correction):
    """The library's entropy of a count table, without its error."""
    return _entropy_estimate(counts, total, bias_correction).bits


def pair_bin_masses(nbins=50):
    """Closed-form masses of ``validate pair``'s distance bins."""
    edges = np.linspace(0.0, 1.0, nbins + 1)
    masses, _ = integrate_many(
        lambda r, which: pair_pdf(r, DOMAIN),
        list(zip(edges[:-1], edges[1:])),
        QuadratureSettings(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=200),
    )
    return masses


class TestCountFit:
    @pytest.mark.parametrize("table", ["pair bins", "expected 0.01 to 1e5"])
    def test_false_alarm_rate(self, monkeypatch, table):
        # Multinomial tables drawn from the closed form itself fail at most
        # at the stated family-wise rate, within 4 standard errors of the
        # rate's estimate.
        alpha, draws = 0.01, 20_000
        monkeypatch.setattr(montecarlo, "FIT_ALPHA", alpha)
        if table == "pair bins":
            samples, masses = 2_000_000, pair_bin_masses()
        else:
            expected = np.geomspace(0.01, 1e5, 50)
            samples, masses = round(float(np.sum(expected))), expected
        probs = masses / np.sum(masses)
        tables = np.random.default_rng(17).multinomial(samples, probs, size=draws)
        fails = sum(not _count_fit(counts, probs, samples)["pass"] for counts in tables)
        assert fails / draws <= alpha + 4.0 * math.sqrt(alpha * (1.0 - alpha) / draws)

    def test_bonferroni_bound_over_entries_of_positive_mass(self):
        fit = _count_fit([0, 600, 400], [0.0, 0.6, 0.4], 1000)
        assert fit["pass"] and "detail" not in fit
        assert (fit["entries_checked"], fit["worst_z"]) == (2, 0.0)
        assert fit["alpha"] == montecarlo.FIT_ALPHA
        assert fit["z_crit"] == NormalDist().inv_cdf(1.0 - montecarlo.FIT_ALPHA / 4)

    def test_all_counts_in_one_entry(self):
        fit = _count_fit([1000, 0, 0], [1.0, 0.0, 0.0], 1000)
        assert fit["pass"] and fit["worst_z"] == 0.0

    def test_count_where_closed_form_has_no_mass(self):
        fit = _count_fit([999, 1], [1.0, 0.0], 1000)
        assert not fit["pass"] and fit["worst_z"] == math.inf

    def test_slack_moves_expected_counts(self):
        # 700 counts against 600 expected at N = 1000 score |z| = 6.6; a
        # closed form that may be off by 0.09 leaves 10 of the 100 counts
        # (|z| = 0.7).
        counts, probs = [700, 300], [0.6, 0.4]
        assert not _count_fit(counts, probs, 1000)["pass"]
        assert _count_fit(counts, probs, 1000, slack=0.09)["pass"]

    def test_thin_table_fails(self):
        fit = _count_fit([5, 4], [0.5, 0.5], 9)
        assert not fit["pass"] and fit["detail"] == "no expected count reaches 10; take more samples"


class TestMcSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(samples=0, seed=1),
            dict(samples=10, seed=-1),
            dict(samples=10, seed=2**64),
            dict(samples=10, seed=1, workers=0),
            dict(samples=10, seed=1, workers=montecarlo.MAX_WORKERS + 1),
            dict(samples=True, seed=1),
            dict(samples=10, seed=False),
            dict(samples=10, seed=1, workers=True),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            McSettings(**kwargs)


class TestSampleGraph:
    def test_extreme_ranges(self):
        rng = substream(8, 0)
        for _ in range(20):
            ev = sample_graph(4, HardDisk(r0=1.0), DOMAIN, rng)
            assert all(b == 1 for b in ev.bits)
            ev = sample_graph(4, HardDisk(r0=0.0), DOMAIN, rng)
            assert all(b == 0 for b in ev.bits)

    def test_all_ones_frequency_matches_quadrature(self):
        model = HardDisk(r0=0.4)
        pmf = pmf_n3(model, DOMAIN)
        rng = substream(9, 0)
        n = 20_000
        hits = sum(
            1
            for _ in range(n)
            if sample_graph(3, model, DOMAIN, rng).encode() == 0b111
        )
        p = pmf.probs[-1]
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 4 * se


class TestEstimatePmf:
    def test_deterministic(self):
        mc = McSettings(samples=200_000, seed=5, workers=1)
        a = estimate_pmf(3, HardDisk(r0=0.4), DOMAIN, mc)
        b = estimate_pmf(3, HardDisk(r0=0.4), DOMAIN, mc)
        assert np.array_equal(a.probs, b.probs)
        assert a.error_estimate == b.error_estimate

    def test_deterministic_with_workers(self):
        mc = McSettings(samples=200_000, seed=5, workers=4)
        a = estimate_pmf(3, HardDisk(r0=0.4), DOMAIN, mc)
        b = estimate_pmf(3, HardDisk(r0=0.4), DOMAIN, mc)
        assert np.array_equal(a.probs, b.probs)

    def test_normalized_exactly(self):
        mc = McSettings(samples=123_457, seed=6)
        pmf = estimate_pmf(3, ExponentialSoft(r0=0.4, beta=2.0), DOMAIN, mc)
        assert float(np.sum(pmf.probs * mc.samples)) == mc.samples

    def test_point_mass_full_range(self):
        mc = McSettings(samples=50_000, seed=7)
        pmf = estimate_pmf(5, HardDisk(r0=1.0), DOMAIN, mc)
        assert pmf.probs[-1] == 1.0

    def test_outcome_space_limit(self):
        with pytest.raises(UnsupportedError):
            estimate_pmf(7, HardDisk(r0=0.5), DOMAIN, McSettings(samples=10, seed=1))

    def test_standard_error_scaling(self):
        # Doubling the sample count should shrink the leading standard
        # error by about 1/sqrt(2).
        model = HardDisk(r0=0.4)
        e1 = estimate_pmf(3, model, DOMAIN, McSettings(samples=200_000, seed=11))
        e2 = estimate_pmf(3, model, DOMAIN, McSettings(samples=400_000, seed=12))
        ratio = e2.error_estimate / e1.error_estimate
        target = 1.0 / math.sqrt(2.0)
        assert abs(ratio - target) <= 0.2 * target

    def test_worker_split_covers_all_samples(self):
        mc = McSettings(samples=100_001, seed=13, workers=3)
        pmf = estimate_pmf(2, HardDisk(r0=0.5), DOMAIN, mc)
        assert float(np.sum(pmf.probs * mc.samples)) == mc.samples

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        # ``workers`` stays the logical split: 64 substreams and shares,
        # run on at most ``os.cpu_count()`` threads, the calling one
        # included.  The thread is a serial stand-in, so no thread starts.
        started = []

        class SerialThread:
            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                started.append(self)
                self.target(*self.args)

            def join(self):
                pass

        monkeypatch.setattr(montecarlo, "Thread", SerialThread)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        model = HardDisk(r0=0.4)
        mc = McSettings(samples=10_007, seed=15, workers=64)
        probs = estimate_pmf(3, model, DOMAIN, mc).probs
        assert len(started) == 1  # and the calling thread: two in all
        expected = np.zeros(8, dtype=np.int64)
        base, extra = divmod(mc.samples, mc.workers)
        for w in range(mc.workers):
            share = base + (1 if w < extra else 0)
            for dist_sq in _distance_sq_chunks(3, DOMAIN, substream(mc.seed, w), share):
                codes = (dist_sq < model.r0**2).astype(np.int64) @ np.array([1, 2, 4])
                expected += np.bincount(codes, minlength=8)
        assert np.rint(probs * mc.samples).astype(np.int64).tolist() == expected.tolist()

    def test_worker_error_stops_other_threads(self, monkeypatch):
        # Worker 1 of 16 fails, first on the second of four threads, once
        # every thread has started its first worker.  The other three
        # wait until the failure is flagged, and then no thread starts
        # another worker: 4 of 16 run, all threads have ended, and the
        # error reaches the caller.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        events = []

        def recorded_event():
            events.append(threading.Event())
            return events[-1]

        monkeypatch.setattr(montecarlo, "Event", recorded_event)
        failing = substream(3, 1).bit_generator.state
        ran, started = [], threading.Barrier(4, timeout=30)

        def work(rng, count):
            ran.append(count)
            started.wait()
            if rng.bit_generator.state == failing:
                raise UnsupportedError("worker failed")
            assert events[0].wait(timeout=30)
            return np.zeros(2, dtype=np.int64)

        threads = threading.active_count()
        with pytest.raises(UnsupportedError, match="worker failed"):
            montecarlo._fan_out(McSettings(samples=160, seed=3, workers=16), work)
        assert len(ran) == 4
        assert threading.active_count() == threads

    def test_peak_memory_bounded(self):
        # One worker, 64 full blocks of six-node point sets with per-edge
        # uniforms: each block's arrays are reused for the next, so no
        # array of the whole share (its uniforms alone would be
        # 2 x 2**19 x 6 doubles, 48 MiB) is held; TestConstantMemory
        # bounds the same run tighter.
        mc = McSettings(samples=2**19, seed=1, workers=1)
        tracemalloc.start()
        try:
            estimate_pmf(6, ExponentialSoft(r0=0.3, beta=2.0), DOMAIN, mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2**20

    def test_peak_memory_independent_of_workers(self, monkeypatch):
        # 256 substreams on two threads: each worker's 2**15-entry table
        # (256 KiB) is folded into its thread's running total, instead
        # of all 256 tables (64 MiB) being held until the end.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        mc = McSettings(samples=5000, seed=1, workers=256)
        assert traced_peak(lambda: estimate_pmf(6, HardDisk(r0=0.4), DOMAIN, mc)) < 8 * 2**20

    def test_worker_counts_statistically_equivalent(self):
        # The split changes which substream produces which sample, not the
        # estimator's distribution: estimates from 1 and 4 workers agree
        # within independent-sampling noise.
        model = HardDisk(r0=0.4)
        samples = 400_000
        one = estimate_pmf(3, model, DOMAIN, McSettings(samples=samples, seed=14, workers=1))
        four = estimate_pmf(3, model, DOMAIN, McSettings(samples=samples, seed=14, workers=4))
        se = np.sqrt(one.probs * (1 - one.probs) / samples)
        assert np.all(np.abs(one.probs - four.probs) <= 5 * np.sqrt(2) * se + 5 / samples)


class TestEstimateEntropy:
    def test_degenerate_cases_exact_zero(self):
        mc = McSettings(samples=10_000, seed=3)
        for r0 in (0.0, 1.0):
            est = estimate_entropy(3, HardDisk(r0=r0), DOMAIN, mc)
            assert est == (0.0, 0.0)

    def test_matches_quadrature_entropy(self):
        model = HardDisk(r0=0.4)
        exact = entropy_bits(pmf_n3(model, DOMAIN))
        est = estimate_entropy(
            3, model, DOMAIN, McSettings(samples=10_000_000, seed=404)
        )
        assert abs(est.bits - exact) <= max(3 * est.std_error, 0.01)

    def test_miller_madow_formula(self):
        counts = np.array([5, 3, 2, 0])
        total = 10
        p = np.array([0.5, 0.3, 0.2])
        plugin = -float(np.sum(p * np.log2(p)))
        assert _entropy_bits_from_counts(counts, total, False) == pytest.approx(plugin)
        corrected = plugin + (3 - 1) / (2 * total * math.log(2))
        assert _entropy_bits_from_counts(counts, total, True) == pytest.approx(corrected)

    def test_bias_correction_flag(self):
        model = HardDisk(r0=0.4)
        mc = McSettings(samples=100_000, seed=5)
        with_mm = estimate_entropy(3, model, DOMAIN, mc)
        without = estimate_entropy(3, model, DOMAIN, mc, bias_correction=False)
        gap = (8 - 1) / (2 * mc.samples * math.log(2))
        assert with_mm.bits - without.bits == pytest.approx(gap, abs=1e-12)

    def test_deterministic(self):
        mc = McSettings(samples=100_000, seed=21, workers=2)
        a = estimate_entropy(4, HardDisk(r0=0.5), DOMAIN, mc)
        b = estimate_entropy(4, HardDisk(r0=0.5), DOMAIN, mc)
        assert a == b


class TestEntropyStandardError:
    """The closed-form standard error against a multinomial bootstrap and
    against the spread of independent runs."""

    MODELS = [HardDisk(r0=0.5), HardDisk(r0=0.1), ExponentialSoft(r0=0.3, beta=2.0)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_bootstrap(self, n):
        # A 2000-resample bootstrap has a relative spread of about 1.6%,
        # so 8% is about five of its deviations.
        samples = 100_000
        counts = _outcome_counts(n, self.MODELS, DOMAIN, McSettings(samples=samples, seed=61))
        for k, row in enumerate(counts):
            est = _entropy_estimate(row, samples, True)
            bits, se = bootstrap_entropy(row, samples, True, 2000, substream(62, 3 * n + k))
            assert est.bits == bits
            assert abs(est.std_error / se - 1.0) <= 0.08

    @pytest.mark.parametrize(
        "model", [HardDisk(r0=0.5), ExponentialSoft(r0=0.3, beta=2.0)], ids=["hard", "exp"]
    )
    def test_seed_spread(self, model):
        # If the estimates of independent seeds are normal with deviation
        # std_error, 199 times their sample variance over the mean squared
        # std_error is chi-square with 199 degrees of freedom.  The check
        # fails outside its two-sided alpha = 1e-4 quantiles, so a correct
        # error fails it with probability about 1e-4 per model.
        seeds = 200
        estimates = [
            estimate_entropy(4, model, DOMAIN, McSettings(samples=20_000, seed=seed))
            for seed in range(seeds)
        ]
        bits = np.array([e.bits for e in estimates])
        variance = np.mean([e.std_error**2 for e in estimates])
        statistic = (seeds - 1) * np.var(bits, ddof=1) / variance
        lo, hi = stats.chi2.ppf([0.5e-4, 1.0 - 0.5e-4], seeds - 1)
        assert lo <= statistic <= hi

    def test_equal_counts_positive(self):
        # Both outcomes equally often: the first-order term is 0 and the
        # second-order one, 1 / (2 N**2 ln**2 2), remains.
        for bias_correction in (True, False):
            est = _entropy_estimate(np.array([5, 0, 5, 0]), 10, bias_correction)
            assert est.std_error > 0.0
            assert est.std_error == pytest.approx(1.0 / (10 * math.sqrt(2.0) * math.log(2.0)))


class TestEntropySweepShared:
    def test_matches_pointwise_estimates(self):
        grid = [0.3, 0.6]
        mc = McSettings(samples=300_000, seed=31)
        sweep = estimate_entropy_sweep(3, hard_disks(grid), DOMAIN, mc)
        for r0, est in zip(grid, sweep):
            solo = estimate_entropy(
                3, HardDisk(r0=r0), DOMAIN, McSettings(samples=300_000, seed=77)
            )
            tol = 5 * math.hypot(est.std_error, solo.std_error)
            assert abs(est.bits - solo.bits) <= tol

    def test_endpoints_exact_zero(self):
        sweep = estimate_entropy_sweep(
            4, hard_disks([0.0, 1.0]), DOMAIN, McSettings(samples=50_000, seed=32)
        )
        assert sweep[0] == (0.0, 0.0)
        assert sweep[1] == (0.0, 0.0)

    def test_deterministic(self):
        grid = np.linspace(0.2, 0.8, 4)
        mc = McSettings(samples=100_000, seed=33, workers=2)
        a = estimate_entropy_sweep(5, hard_disks(grid), DOMAIN, mc)
        b = estimate_entropy_sweep(5, hard_disks(grid), DOMAIN, mc)
        assert a == b


class TestSharedPoolSweeps:
    """Every model of a list is counted on one shared pool; each row is the
    single-model estimate at the same settings."""

    GRID = [0.0, 0.15, 0.3, 0.45, 0.7, 1.0]
    LISTS = {
        "hard": hard_disks(GRID),
        "exp": [ExponentialSoft(r0=r0, beta=2.0) for r0 in GRID[1:]],
    }

    @staticmethod
    def assert_same_pmf(a, b):
        assert a.probs.tobytes() == b.probs.tobytes()
        assert (a.n, a.method, a.error_estimate, a.ingredients) == (
            b.n, b.method, b.error_estimate, b.ingredients
        )

    @pytest.mark.parametrize("kind", ["hard", "exp"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_rows_equal_single_model_pmf(self, n, workers, kind):
        models = self.LISTS[kind]
        mc = McSettings(samples=10_007, seed=51, workers=workers)
        sweep = estimate_pmf_sweep(n, models, DOMAIN, mc)
        assert len(sweep) == len(models)
        for model, pmf in zip(models, sweep):
            self.assert_same_pmf(pmf, estimate_pmf(n, model, DOMAIN, mc))

    @pytest.mark.parametrize("kind", ["hard", "exp"])
    def test_rows_equal_single_model_pmf_across_chunks(self, kind):
        # One worker's share is 65 full blocks and a short one; the soft
        # list draws its per-edge uniforms between blocks.
        models = self.LISTS[kind][1:4]
        mc = McSettings(samples=2**19 + 2**13 + 7, seed=52, workers=1)
        for model, pmf in zip(models, estimate_pmf_sweep(3, models, DOMAIN, mc)):
            self.assert_same_pmf(pmf, estimate_pmf(3, model, DOMAIN, mc))

    def test_hard_pool_draws_no_edge_uniforms(self):
        # Thresholding the bare point stream gives the counts, over 65 full
        # blocks and a short one: no per-edge uniform shifts the next block.
        models = self.LISTS["hard"][1:4]
        samples = 2**19 + 2**13 + 7
        mc = McSettings(samples=samples, seed=52, workers=1)
        expected = np.zeros((len(models), 8), dtype=np.int64)
        for dist_sq in _distance_sq_chunks(3, DOMAIN, substream(52, 0), samples):
            for row, model in zip(expected, models):
                codes = (dist_sq < model.r0**2).astype(np.int64) @ [1, 2, 4]
                row += np.bincount(codes, minlength=8)
        sweep = estimate_pmf_sweep(3, models, DOMAIN, mc)
        counts = [np.rint(pmf.probs * samples).astype(np.int64).tolist() for pmf in sweep]
        assert counts == expected.tolist()

    @pytest.mark.parametrize("kind", ["hard", "exp"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_first_entropy_row_equals_single_model(self, kind, workers):
        # Row 0 is the estimate of the first model alone;
        # test_entropy_rows_equal_single_model checks every row.
        models = self.LISTS[kind][1:]
        mc = McSettings(samples=20_011, seed=53, workers=workers)
        sweep = estimate_entropy_sweep(4, models, DOMAIN, mc)
        assert sweep[0] == estimate_entropy(4, models[0], DOMAIN, mc)

    @pytest.mark.parametrize("kind", ["hard", "exp"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_entropy_rows_equal_single_model(self, kind, workers):
        # The standard errors draw nothing, so no row's error depends on
        # the rows before it; the hard list's end points are degenerate.
        models = self.LISTS[kind]
        mc = McSettings(samples=20_011, seed=53, workers=workers)
        sweep = estimate_entropy_sweep(4, models, DOMAIN, mc)
        assert sweep == [estimate_entropy(4, model, DOMAIN, mc) for model in models]

    def test_hard_connectivity_monotone_on_shared_pool(self):
        # Each sampled graph only gains edges as r0 grows, so on a shared
        # pool the connected and complete counts never decrease.
        samples = 20_000
        mc = McSettings(samples=samples, seed=54, workers=2)
        sweep = estimate_pmf_sweep(5, hard_disks(np.linspace(0.0, 1.0, 21)), DOMAIN, mc)
        for prob in (prob_connected, prob_complete):
            counts = [int(np.rint(prob(pmf) * samples)) for pmf in sweep]
            assert counts[0] == 0 and counts[-1] == samples
            assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_wide_sweep_peak_memory(self, monkeypatch):
        # 256 tables of 2**15 entries are 64 MiB per worker.  Two running
        # workers hold 128 MiB; the first part becomes the total instead of
        # being copied into a third table (about 193 MiB).
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        models = hard_disks(np.linspace(0.0, 1.0, 256))
        mc = McSettings(samples=20_000, seed=1, workers=2)
        sweep = []
        peak = traced_peak(lambda: sweep.extend(estimate_pmf_sweep(6, models, DOMAIN, mc)))
        assert peak < 165 * 2**20
        for model, pmf in zip(models, sweep, strict=True):
            self.assert_same_pmf(pmf, estimate_pmf(6, model, DOMAIN, mc))

    def test_empty_list_refused(self):
        with pytest.raises(DomainError):
            estimate_pmf_sweep(3, [], DOMAIN, McSettings(samples=10, seed=1))

    @pytest.mark.parametrize("estimator", [estimate_pmf_sweep, estimate_entropy_sweep])
    def test_table_too_large_refused_before_sampling(self, monkeypatch, estimator):
        # 257 tables of 2**15 entries at n=6 exceed 2**23 entries (64 MiB).
        def fan_out(*args):
            raise AssertionError("sampled before refusing the table")

        monkeypatch.setattr(montecarlo, "_fan_out", fan_out)
        assert montecarlo.MAX_TABLE_ENTRIES == 2**23
        models = hard_disks(np.linspace(0.0, 1.0, 257))
        with pytest.raises(UnsupportedError, match="outcome tables"):
            estimator(6, models, DOMAIN, McSettings(samples=10, seed=1))

    def test_table_limit_counts_entries(self, monkeypatch):
        # Two 8-entry tables at n=3 fit a 16-entry limit; three do not.
        monkeypatch.setattr(montecarlo, "MAX_TABLE_ENTRIES", 16)
        mc = McSettings(samples=100, seed=1)
        assert len(estimate_pmf_sweep(3, hard_disks([0.2, 0.5]), DOMAIN, mc)) == 2
        with pytest.raises(UnsupportedError):
            estimate_pmf_sweep(3, hard_disks([0.2, 0.5, 0.8]), DOMAIN, mc)


class TestDistanceHistogram:
    def test_total_and_shape(self):
        mc = McSettings(samples=100_000, seed=41)
        hist = distance_histogram3(DOMAIN, mc, bins=10)
        assert int(hist.counts.sum()) == mc.samples
        assert hist.counts.shape == (10, 10, 10)
        assert hist.bin_edges[0] == 0.0 and hist.bin_edges[-1] == 1.0

    def test_mass_respects_triangle_support(self):
        # Cells whose closure cannot contain a valid triangle stay empty:
        # the smallest third side in the cell exceeding the largest
        # possible sum of the other two.
        mc = McSettings(samples=200_000, seed=42)
        bins = 10
        hist = distance_histogram3(DOMAIN, mc, bins=bins)
        edges = hist.bin_edges
        lo = edges[:-1]
        hi = edges[1:]
        for axis in range(3):
            other = [ax for ax in range(3) if ax != axis]
            grid = np.indices((bins, bins, bins))
            impossible = lo[grid[axis]] >= hi[grid[other[0]]] + hi[grid[other[1]]]
            assert hist.counts[impossible].sum() == 0

    def test_too_many_bins_refused_before_sampling(self, monkeypatch):
        # 204**3 cells (8.49M) exceed 2**23 entries; 203**3 would fit.
        def fan_out(*args):
            raise AssertionError("sampled before refusing the grid")

        monkeypatch.setattr(montecarlo, "_fan_out", fan_out)
        with pytest.raises(UnsupportedError, match="cells"):
            distance_histogram3(DOMAIN, McSettings(samples=10, seed=1), bins=204)

    def test_one_worker_holds_one_table(self):
        # 128**3 int64 counts are 16 MiB.  Counting each block in place
        # keeps the peak near one table; adding a full-size bincount per
        # block held two (34 MiB).
        table = 8 * 128**3
        peak = traced_peak(
            lambda: distance_histogram3(DOMAIN, McSettings(samples=16_384, seed=5), bins=128)
        )
        assert peak < 1.5 * table

    def test_determinism_across_runs(self):
        mc = McSettings(samples=60_000, seed=44, workers=3)
        a = distance_histogram3(DOMAIN, mc, bins=6)
        b = distance_histogram3(DOMAIN, mc, bins=6)
        assert np.array_equal(a.counts, b.counts)

    def test_density_helper(self):
        mc = McSettings(samples=80_000, seed=45)
        hist = distance_histogram3(DOMAIN, mc, bins=5)
        dens = hist.density()
        width = 0.2
        assert dens.sum() * width**3 == pytest.approx(1.0, rel=1e-12)

    def test_bins_validation(self):
        with pytest.raises(DomainError):
            distance_histogram3(DOMAIN, McSettings(samples=10, seed=1), bins=1)


class TestPinnedStreams:
    """Outputs pinned to recorded values: any change of the stream layout
    (draw order, block size, worker split) fails here."""

    # Each share ends in a short block: about 174,763 sets at 3 workers,
    # 2**19 + 3 at one.
    SAMPLES = 2**19 + 3

    @pytest.mark.parametrize(
        "model, counts",
        [
            (HardDisk(r0=0.4), [88397, 90621, 90782, 30570, 90890, 30893, 30890, 71248]),
            (
                ExponentialSoft(r0=0.3, beta=2.0),
                [227445, 76204, 75651, 18145, 76320, 18248, 18368, 13910],
            ),
        ],
    )
    def test_pmf_counts(self, model, counts):
        mc = McSettings(samples=self.SAMPLES, seed=2024, workers=3)
        probs = estimate_pmf(3, model, DOMAIN, mc).probs
        assert np.rint(probs * self.SAMPLES).astype(int).tolist() == counts

    def test_pmf_counts_across_chunk_boundary(self):
        # One worker draws 64 full blocks and a 3-set one; the per-edge
        # uniforms of the soft model interleave with the blocks.
        mc = McSettings(samples=self.SAMPLES, seed=2024, workers=1)
        probs = estimate_pmf(3, ExponentialSoft(r0=0.3, beta=2.0), DOMAIN, mc).probs
        assert np.rint(probs * self.SAMPLES).astype(int).tolist() == [
            228127, 75950, 76156, 18117, 76195, 17883, 18180, 13683,
        ]

    def test_entropy_sweep(self):
        mc = McSettings(samples=50_000, seed=2024, workers=3)
        est = estimate_entropy_sweep(3, hard_disks([0.2, 0.5]), DOMAIN, mc)
        expected = [
            (1.673315057901992, 0.006874962176984385),
            (2.840056292067135, 0.003123207423293667),
        ]
        for (bits, se), (want_bits, want_se) in zip(est, expected):
            assert bits == pytest.approx(want_bits, rel=1e-12)
            assert se == pytest.approx(want_se, rel=1e-9)

    def test_histogram_counts(self):
        mc = McSettings(samples=self.SAMPLES, seed=2024, workers=3)
        hist = distance_histogram3(DOMAIN, mc, bins=2)
        assert hist.counts.ravel().tolist() == [
            144160, 46992, 46806, 69266, 47124, 69269, 69567, 31107,
        ]


class TestConstantMemory:
    @pytest.mark.parametrize("estimator", [estimate_pmf, estimate_entropy])
    def test_full_chunk_n6_soft(self, estimator):
        # One worker, 2**19 six-node point sets (64 full blocks) with
        # per-edge uniforms, plus the closed-form error for the entropy: a
        # worker holds block-sized arrays and its 2**15-entry table, the
        # error a few arrays over the observed outcomes, and nothing holds
        # the 48 MiB of uniforms of the whole share.
        mc = McSettings(samples=2**19, seed=1, workers=1)
        model = ExponentialSoft(r0=0.3, beta=2.0)
        assert traced_peak(lambda: estimator(6, model, DOMAIN, mc)) < 16 * 2**20


def check_against_block_reference(monkeypatch, n, count, block, soft, offset=0):
    """``_distance_sq_chunks`` against the row-major reference of the
    block-major stream layout, byte for byte, both generators having
    given ``offset`` words first; with ``soft`` the caller draws one
    uniform per pair after each block, as the soft model does."""
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    rng, ref_rng = substream(77, 1), substream(77, 1)
    rng.bit_generator.random_raw(offset)
    ref_rng.bit_generator.random_raw(offset)
    got = _distance_sq_chunks(n, DOMAIN, rng, count)
    want = distance_sq_blocks_reference(n, DOMAIN, ref_rng, count, block)
    rows = 0
    for a, b in itertools.zip_longest(got, want):
        assert a is not None and b is not None
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
        if soft:
            assert rng.random(a.shape).tobytes() == ref_rng.random(b.shape).tobytes()
        rows += len(a)
    assert rows == count
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBlockMajorStream:
    """The sampler on a fresh substream."""

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("block", [2, 3, 11])
    @pytest.mark.parametrize("n, count", [(2, 1), (2, 17), (2, 23), (3, 23), (6, 13)])
    def test_matches_reference(self, monkeypatch, n, count, block, soft):
        # Blocks that do not divide the count leave a short last block.
        check_against_block_reference(monkeypatch, n, count, block, soft)


class TestOffsetReads:
    """The sampler reads its generator in order from wherever it stands:
    started ``offset`` words into the substream, it still equals the
    reference that draws each block's uniforms as whole arrays."""

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("offset, block", [(7, 3), (5, 11), (9, 2)])
    @pytest.mark.parametrize("n, count", [(2, 17), (3, 23), (6, 13)])
    def test_matches_whole_chunk_reference(self, monkeypatch, n, count, offset, block, soft):
        check_against_block_reference(monkeypatch, n, count, block, soft, offset)


class TestPairDistances:
    """The pair histogram that ``validate pair`` bins, from the n=2 sampler
    through ``_distance_counts``, against the binning loop it replaced
    run on the reference distances, at ``bins`` cells."""

    @pytest.mark.parametrize("bins, block", [(7, 3), (5, 11), (9, 2)])
    @pytest.mark.parametrize("count", [1, 17, 23])
    def test_matches_whole_chunk_reference(self, monkeypatch, count, bins, block):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        mc = McSettings(samples=count, seed=78, workers=1)
        got = _distance_counts(2, DOMAIN, mc, bins)
        D = DOMAIN.diameter
        want = np.zeros(bins, dtype=np.int64)
        for dist_sq in distance_sq_blocks_reference(2, DOMAIN, substream(78, 0), count, block):
            r = np.sqrt(dist_sq[:, 0])
            idx = np.minimum((r / D * bins).astype(np.int64), bins - 1)
            want += np.bincount(idx, minlength=bins)
        assert got.tolist() == want.tolist()


class TestEncoder:
    """The float64 outcome encoder equals the integer product it replaced."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m", range(1, 21))
    def test_matches_integer_product(self, m, order):
        # Random rows, then an all-zero and an all-one row (code 2**m - 1).
        bits = substream(m, 0).integers(0, 2, size=(300, m)).astype(float)
        bits[-2] = 0.0
        bits[-1] = 1.0
        bits = np.asarray(bits, order=order)
        pows = np.int64(1) << np.arange(m, dtype=np.int64)
        codes = _Encoder(m, 300).codes(bits)
        assert codes.dtype == np.int64
        assert codes.tolist() == (bits.astype(np.int64) @ pows).tolist()
        assert codes[-2:].tolist() == [0, 2**m - 1]

    def test_pair_major_rows_of_a_wider_buffer(self):
        # A short last block: the rows fill part of the encoder's buffer.
        m = 20
        bits = substream(21, 0).integers(0, 2, size=(37, m)).astype(float)
        encoder = _Encoder(m, 64)
        view = encoder.bits(len(bits))
        np.copyto(view, bits)
        pows = np.int64(1) << np.arange(m, dtype=np.int64)
        assert encoder.codes(view).tolist() == (bits.astype(np.int64) @ pows).tolist()
