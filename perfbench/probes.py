"""Direct timings of public rggdist calls, one or two per layer.

Each probe names the end-to-end metrics it should move (``workloads.PROBES``).
Inputs come from the workload seed, except the ``validate condpdf`` grid,
which is fixed so that the panel count repeats exactly.  Counts are taken
from outside the library: a counting ``ExponentialSoft`` subclass counts
the points passed to ``probability``, and a counting integrand counts the
points given to ``integrate_many``.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc

import numpy as np

import rggdist
from rggdist import distances as distances_module

# Labelled connected graphs on six nodes (OEIS A001187).
CONNECTED_GRAPHS_6 = 26704
# Nodes of the Gauss-Kronrod rule every integrate_many panel is evaluated on.
POINTS_PER_PANEL = 15
MC_SAMPLES = 500_000
PDF3_POINTS = 1_000_000



class CountingExponentialSoft(rggdist.ExponentialSoft):
    """ExponentialSoft that counts the distances passed to ``probability``."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "points", 0)

    def probability(self, r):
        object.__setattr__(self, "points", self.points + int(np.size(r)))
        return super().probability(r)


def _timed(fn, repeats: int):
    """Median wall time of ``repeats`` calls and the last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _condpdf_triples(D: float) -> np.ndarray:
    """The 1000 triples of ``rggdist validate condpdf``."""
    triples = []
    for a in np.linspace(0.1, 0.9, 10) * D:
        for b in np.linspace(0.1, 0.9, 10) * D:
            lo, hi = abs(a - b), min(a + b, D)
            margin = 0.04 * (hi - lo)
            for c in np.linspace(lo + margin, hi - margin, 10):
                triples.append((a, b, c))
    return np.asarray(triples)


class _Failures(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _pmf_matches(pmf, probs_ref) -> bool:
    return all(
        abs(p - v) <= pmf.error_estimate + err + 1e-11 for p, (v, err) in zip(pmf.probs, probs_ref)
    )


def run_probes(seed: int, workers: int, reference: dict) -> dict:
    domain = rggdist.DiskDomain(1.0)
    rng = np.random.default_rng(seed)
    metrics: dict[str, float] = {}
    failures = _Failures()
    attempted = 0

    # distances: the closed-form kernel on seeded triples covering all four cases.
    attempted += 1
    sides = rng.uniform(0.0, domain.diameter, size=(PDF3_POINTS, 3))
    seconds, values = _timed(
        lambda: rggdist.joint_pdf3_values(sides[:, 0], sides[:, 1], sides[:, 2], domain), 5
    )
    metrics["distances.pdf3_ns_per_point"] = seconds / PDF3_POINTS * 1e9
    cases = {rggdist.classify_triple(rggdist.TriangleSides(*row), domain) for row in sides[:4000]}
    failures.expect(cases == set(rggdist.JointPdfCase), f"pdf3 probe covers only {cases}")
    failures.expect(bool(np.all(np.isfinite(values) & (values >= 0))), "pdf3 values not finite")

    # distances: per-cell masses of validate pdf3's 20**3 grid.
    attempted += 1
    start = time.perf_counter()
    masses = rggdist.joint_pdf3_cell_masses(domain, np.linspace(0.0, domain.diameter, 21))
    metrics["distances.cell_masses_s"] = time.perf_counter() - start
    failures.expect(abs(float(masses.sum()) - 1.0) < 1e-4, f"cell masses sum to {masses.sum()!r}")

    # quadrature: validate condpdf's 1000 lockstep integrals, counted from outside.
    attempted += 1
    triples = _condpdf_triples(domain.diameter)
    real_integrate_many = distances_module.integrate_many
    tally = {"points": 0, "seconds": 0.0}

    def counting_integrate_many(f, *args, **kwargs):
        def counting_integrand(x, which):
            tally["points"] += len(x)
            return f(x, which)

        start = time.perf_counter()
        try:
            return real_integrate_many(counting_integrand, *args, **kwargs)
        finally:
            tally["seconds"] += time.perf_counter() - start

    distances_module.integrate_many = counting_integrate_many
    try:
        runs = []
        for _ in range(3):
            tally.update(points=0, seconds=0.0)
            via, _ = rggdist.joint_pdf3_via_conditioning_many(
                triples[:, 0], triples[:, 1], triples[:, 2], domain
            )
            runs.append(dict(tally))
    finally:
        distances_module.integrate_many = real_integrate_many
    panels = runs[0]["points"] // POINTS_PER_PANEL
    metrics["quadrature.panels"] = panels
    metrics["quadrature.us_per_panel"] = (
        statistics.median(r["seconds"] for r in runs) / max(panels, 1) * 1e6
    )
    direct = rggdist.joint_pdf3_values(triples[:, 0], triples[:, 1], triples[:, 2], domain)
    rel = np.abs(via - direct) / np.maximum(np.abs(direct), 1e-12)
    failures.expect(panels > 0, "integrate_many was not reached through rggdist.distances")
    failures.expect(len({r["points"] for r in runs}) == 1, "condpdf panel count is not repeatable")
    failures.expect(bool(np.all(rel <= 1e-6)), f"condpdf worst rel dev {rel.max()!r}")

    # graphdist: the nested n=3 pmf, hard and soft, at abs_tol 1e-6.
    attempted += 2
    tight = rggdist.QuadratureSettings(abs_tol=1e-6, rel_tol=0.0, max_subdivisions=600)
    seconds, pmf = _timed(lambda: rggdist.pmf_n3(rggdist.HardDisk(0.4), domain, tight), 3)
    metrics["graphdist.pmf_n3_s"] = seconds
    failures.expect(_pmf_matches(pmf, _probs(reference["pmf-hard"])), "hard pmf_n3 off reference")
    counts = []
    for _ in range(2):
        counting = CountingExponentialSoft(r0=0.3, beta=2.0)
        pmf = rggdist.pmf_n3(counting, domain, tight)
        counts.append(counting.points)
    metrics["graphdist.pmf_n3_prob_points"] = counts[0]
    failures.expect(counts[0] == counts[1], f"probability point counts differ: {counts}")
    failures.expect(_pmf_matches(pmf, _probs(reference["pmf-exp"])), "soft pmf_n3 off reference")

    # graphdist: the connectivity mask over all 2**15 outcomes of n=6.
    attempted += 1
    seconds, mask = _timed(lambda: rggdist.connected_outcome_mask(6), 3)
    metrics["graphdist.connected_mask_s"] = seconds
    failures.expect(int(mask.sum()) == CONNECTED_GRAPHS_6, f"{int(mask.sum())} connected outcomes")

    # montecarlo: n=6 outcome counting, hard and soft, one worker and several.
    attempted += 4
    hard, soft = rggdist.HardDisk(0.4), rggdist.ExponentialSoft(0.3, 2.0)
    one = rggdist.McSettings(samples=MC_SAMPLES, seed=seed, workers=1)
    many = rggdist.McSettings(samples=MC_SAMPLES, seed=seed, workers=workers)
    t_hard, pmf_hard = _timed(lambda: rggdist.estimate_pmf(6, hard, domain, one), 3)
    t_soft, pmf_soft = _timed(lambda: rggdist.estimate_pmf(6, soft, domain, one), 3)
    t_many, pmf_many = _timed(lambda: rggdist.estimate_pmf(6, hard, domain, many), 3)
    t_entropy, est = _timed(lambda: rggdist.estimate_entropy(6, hard, domain, one), 3)
    metrics["montecarlo.pmf_ns_per_sample"] = t_hard / MC_SAMPLES * 1e9
    metrics["montecarlo.soft_ns_per_sample"] = t_soft / MC_SAMPLES * 1e9
    metrics["montecarlo.bootstrap_s"] = t_entropy - t_hard
    metrics["montecarlo.speedup_2w"] = t_hard / t_many
    for name, pmf in (("hard", pmf_hard), ("soft", pmf_soft), ("split", pmf_many)):
        failures.expect(math.isclose(float(pmf.probs.sum()), 1.0, abs_tol=1e-9), f"{name} pmf sum")
    failures.expect(est.std_error > 0.0, "bootstrap std_error is not positive")

    attempted += 1
    tracemalloc.start()
    try:
        rggdist.estimate_entropy(6, hard, domain, one)
        metrics["montecarlo.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    # montecarlo and geometry: the n=3 histogram sampler and the disk sampler.
    attempted += 2
    settings = rggdist.McSettings(samples=MC_SAMPLES, seed=seed, workers=1)
    seconds, hist = _timed(lambda: rggdist.distance_histogram3(domain, settings, bins=20), 3)
    metrics["montecarlo.hist3_ns_per_sample"] = seconds / MC_SAMPLES * 1e9
    failures.expect(int(hist.counts.sum()) == MC_SAMPLES, "histogram lost samples")
    seconds, points = _timed(
        lambda: rggdist.sample_points_in_disk(domain, rggdist.substream(seed, 0), PDF3_POINTS), 5
    )
    metrics["geometry.sample_ns_per_point"] = seconds / PDF3_POINTS * 1e9
    failures.expect(
        bool(np.all(np.hypot(points[:, 0], points[:, 1]) <= domain.radius)), "sample off the disk"
    )

    return {"metrics": metrics, "attempted": attempted, "failures": list(failures)}


def _probs(ref: dict) -> list:
    return [ref[f"probs.{i}"] for i in range(8)]
