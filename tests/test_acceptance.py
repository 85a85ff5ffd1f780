"""Acceptance suite.

One test per release criterion; each prints a PASS/FAIL line so the
whole gate can be read off a verbose run:

    python3 -m pytest tests/test_acceptance.py -v -s

The heavy Monte Carlo fixtures use fixed seeds and two workers; every
criterion states its tolerance inline, and every sampled table is judged
against its closed form by ``rggdist.montecarlo._count_fit``, the rule
``rggdist validate`` uses.
"""

import time

import numpy as np
import pytest

from rggdist import (
    DiskDomain,
    HardDisk,
    McSettings,
    distance_histogram3,
    entropy_bits,
    entropy_error_bound,
    estimate_entropy,
    estimate_entropy_sweep,
    joint_pdf3_cell_masses,
    joint_pdf3_values,
    joint_pdf3_via_conditioning_many,
    pair_pdf,
    pmf_n2,
    pmf_n3,
    prob_complete,
    prob_connected,
    relabel_orbit_map,
    shearer_factor,
)
from rggdist.montecarlo import _count_fit

from helpers import (
    _density_inscribed,
    _density_obtuse_extra,
    _density_outscribed,
    full_cube_m3,
    marginal_pair_density,
    obtuse_boundary_triples,
    pmf_fit,
    right_triangles,
    run_cli_process,
    sample_pmf,
    valid_triple_grid,
)

DOMAIN = DiskDomain(1.0)
SEED = 20260809
SWEEP_POINTS = 40


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def sweep_pmfs():
    """Exact three-node pmfs over the 40-point hard-disk range grid."""
    grid = np.linspace(0.0, 1.0, SWEEP_POINTS)
    return grid, [pmf_n3(HardDisk(r0=float(r0)), DOMAIN) for r0 in grid]


def test_01_joint_density_normalizes():
    start = time.monotonic()
    value, est = full_cube_m3(DOMAIN, 1.0, None, (), 1e-5, 400)
    elapsed = time.monotonic() - start
    dev = abs(value - 1.0)
    report(
        1,
        "joint-density normalization",
        dev <= 1e-3 and elapsed <= 120.0,
        f"|integral-1|={dev:.2e} tol=1e-3, {elapsed:.1f}s of 120s",
    )


def test_02_joint_density_histogram_oracle():
    start = time.monotonic()
    samples = 10_000_000
    hist = distance_histogram3(
        DOMAIN, McSettings(samples=samples, seed=SEED, workers=2), bins=20
    )
    fit = _count_fit(hist.counts, joint_pdf3_cell_masses(DOMAIN, hist.bin_edges), samples)
    elapsed = time.monotonic() - start
    report(
        2,
        "joint-density histogram oracle",
        fit["pass"] and elapsed <= 300.0,
        f"{fit['entries_checked']} cells of positive mass, worst |z|={fit['worst_z']:.2f} "
        f"<= {fit['z_crit']:.2f} (family-wise alpha {fit['alpha']:g}), {elapsed:.1f}s of 300s",
    )


def test_03_conditional_reconstruction_matches_closed_form():
    start = time.monotonic()
    triples = valid_triple_grid(per_axis=10)
    direct = joint_pdf3_values(triples[:, 0], triples[:, 1], triples[:, 2], DOMAIN)
    via, _ = joint_pdf3_via_conditioning_many(
        triples[:, 0], triples[:, 1], triples[:, 2], DOMAIN
    )
    rel = np.abs(via - direct) / np.maximum(np.abs(direct), 1e-12)
    worst = float(np.max(rel))
    elapsed = time.monotonic() - start
    report(
        3,
        "conditional-construction consistency",
        worst <= 1e-6 and elapsed <= 120.0,
        f"{len(triples)} grid triples, worst rel dev={worst:.2e} tol=1e-6, "
        f"{elapsed:.1f}s of 120s",
    )


def test_04_marginal_reproduces_pair_density():
    pts = np.linspace(0.05, 0.95, 20)
    marg = marginal_pair_density(pts, DOMAIN, abs_tol=1e-6)
    exact = pair_pdf(pts, DOMAIN)
    worst = float(np.max(np.abs(marg - exact)))
    report(
        4,
        "marginal consistency",
        worst <= 1e-3,
        f"20 grid points, worst abs dev={worst:.2e} tol=1e-3",
    )


def test_05_case_boundary_continuity():
    rng = np.random.default_rng(SEED)
    worst_obtuse = 0.0
    for trip in obtuse_boundary_triples(100, rng):
        a, b, c = sorted(trip)
        inscribed = _density_inscribed(a, b, c, 1.0, 1.0) + _density_obtuse_extra(
            c, 1.0, 1.0
        )
        outscribed = _density_outscribed(c, 1.0, 1.0)
        worst_obtuse = max(worst_obtuse, abs(inscribed - outscribed) / outscribed)
    worst_right = 0.0
    for trip in right_triangles(100, rng):
        a, b, c = sorted(trip)
        base = _density_inscribed(a, b, c, c, 1.0)
        with_extra = base + _density_obtuse_extra(c, c, 1.0)
        worst_right = max(worst_right, abs(with_extra - base) / base)
    ok = worst_obtuse <= 1e-9 and worst_right <= 1e-9
    report(
        5,
        "case-boundary continuity",
        ok,
        f"100+100 boundary triples, worst rel devs {worst_obtuse:.2e} (circum=disk) "
        f"and {worst_right:.2e} (right triangles), tol=1e-9",
    )


def test_06_connectivity_sweep_properties(sweep_pmfs):
    grid, pmfs = sweep_pmfs
    p_conn = np.array([prob_connected(p) for p in pmfs])
    p_comp = np.array([prob_complete(p) for p in pmfs])
    errs = np.array([p.error_estimate for p in pmfs])

    ok_order = bool(np.all(p_comp <= p_conn + 1e-12))
    slack = 1e-6 + 2 * (errs[1:] + errs[:-1])
    ok_monotone = bool(
        np.all(np.diff(p_conn) >= -slack) and np.all(np.diff(p_comp) >= -slack)
    )
    ok_endpoints = (
        p_conn[0] <= 1e-3
        and p_comp[0] <= 1e-3
        and abs(p_conn[-1] - 1.0) <= 1e-3
        and abs(p_comp[-1] - 1.0) <= 1e-3
    )

    fits = [
        pmf_fit(
            sample_pmf(3, HardDisk(r0=float(r0)), seed=SEED + idx, samples=1_000_000, workers=2),
            pmf,
            slack=pmf.error_estimate / 8,
        )
        for idx, (r0, pmf) in enumerate(zip(grid, pmfs))
    ]
    ok_mc = all(fit["pass"] for fit in fits)

    report(
        6,
        "connectivity sweep reproduction",
        ok_order and ok_monotone and ok_endpoints and ok_mc,
        f"40 points: completeness<=connectedness {ok_order}, monotone {ok_monotone}, "
        f"endpoints {ok_endpoints}, MC tables passing {sum(f['pass'] for f in fits)} of 40 "
        f"(worst |z|={max(f['worst_z'] for f in fits):.2f}, "
        f"family-wise alpha {fits[0]['alpha']:g} each)",
    )


def test_07_entropy_sweep_with_bounds(sweep_pmfs):
    start = time.monotonic()
    grid, pmfs = sweep_pmfs
    h3 = np.array([entropy_bits(p) for p in pmfs])
    h3_err = np.array([entropy_error_bound(p) for p in pmfs])
    h2 = np.array(
        [entropy_bits(pmf_n2(HardDisk(r0=float(r0)), DOMAIN)) for r0 in grid]
    )
    estimates = estimate_entropy_sweep(
        5, [HardDisk(r0=float(r0)) for r0 in grid], DOMAIN,
        McSettings(samples=10_000_000, seed=SEED, workers=2),
    )
    h5 = np.array([e.bits for e in estimates])
    se5 = np.array([e.std_error for e in estimates])

    factor53 = float(shearer_factor(5, 3))
    factor52 = float(shearer_factor(5, 2))
    bound3 = factor53 * h3
    bound2 = factor52 * h2
    ok_chain5 = bool(np.all(h5 <= bound3 + 3 * se5 + factor53 * h3_err + 1e-12))
    ok_chain32 = bool(np.all(bound3 <= bound2 + factor53 * h3_err + 1e-9))
    ok_below_ten = bool(np.all(h5 < 10.0))
    ok_endpoints = h5[0] == 0.0 and h5[-1] == 0.0
    elapsed = time.monotonic() - start
    report(
        7,
        "entropy sweep with bound chain",
        ok_chain5 and ok_chain32 and ok_below_ten and ok_endpoints and elapsed <= 900.0,
        f"H5<= (10/3)H3 {ok_chain5}, (10/3)H3<=10*H2 {ok_chain32}, "
        f"max H5={np.max(h5):.3f}<10 bits, endpoints zero {ok_endpoints}, "
        f"{elapsed:.1f}s of 900s",
    )


def test_08_per_edge_entropy_monotone():
    r0s = (0.2, 0.4, 0.6, 0.8)
    samples = 10_000_000
    worst_margin = -np.inf
    details = []
    for idx, r0 in enumerate(r0s):
        model = HardDisk(r0=r0)
        p2 = pmf_n2(model, DOMAIN)
        p3 = pmf_n3(model, DOMAIN)
        per_edge = {
            2: entropy_bits(p2),
            3: entropy_bits(p3) / 3.0,
        }
        tol = {
            2: entropy_error_bound(p2),
            3: entropy_error_bound(p3) / 3.0,
        }
        for n in (4, 5):
            est = estimate_entropy(
                n, model, DOMAIN,
                McSettings(samples=samples, seed=SEED + 100 * idx + n, workers=2),
            )
            edges = n * (n - 1) // 2
            per_edge[n] = est.bits / edges
            tol[n] = 3 * est.std_error / edges
        for small, large in ((2, 3), (3, 4), (4, 5)):
            margin = per_edge[large] - per_edge[small] - (tol[small] + tol[large])
            worst_margin = max(worst_margin, margin)
        details.append(
            "r0=%.1f: " % r0
            + " >= ".join(f"{per_edge[n]:.4f}" for n in (2, 3, 4, 5))
        )
    report(
        8,
        "per-edge entropy nonincreasing",
        worst_margin <= 0.0,
        f"worst violation margin {worst_margin:.2e} (<=0); " + "; ".join(details),
    )


def test_09_pmf_sanity_all_models():
    from rggdist import ExponentialSoft, Tabulated

    models = [
        HardDisk(r0=0.3),
        HardDisk(r0=0.5),
        HardDisk(r0=0.7),
        ExponentialSoft(r0=0.3, beta=2.0),
        Tabulated(knots=((0.0, 1.0), (0.4, 0.6), (1.0, 0.0))),
    ]
    orbits = relabel_orbit_map(3)
    worst_sum = 0.0
    worst_asym = 0.0
    for model in models:
        pmf = pmf_n3(model, DOMAIN)
        worst_sum = max(worst_sum, abs(float(np.sum(pmf.probs)) - 1.0))
        for rep in np.unique(orbits):
            members = pmf.probs[orbits == rep]
            worst_asym = max(worst_asym, float(np.max(members) - np.min(members)))
        pmf2 = pmf_n2(model, DOMAIN)
        worst_sum = max(worst_sum, abs(float(np.sum(pmf2.probs)) - 1.0))
    report(
        9,
        "pmf sanity",
        worst_sum <= 1e-6 and worst_asym <= 1e-6,
        f"{len(models)} models: worst |sum-1|={worst_sum:.2e} tol=1e-6, "
        f"worst relabeling asymmetry={worst_asym:.2e}",
    )


def test_10_cli_byte_determinism():
    commands = [
        ("pdf3", "--r12", "0.5", "--r13", "0.6", "--r23", "0.7"),
        ("pairpdf", "--r", "0.37"),
        ("pmf", "--n", "3", "--model", "hard:r0=0.4"),
        ("entropy", "--n", "2", "--model", "exp:r0=0.4,beta=2"),
        ("entropy-mc", "--n", "5", "--model", "hard:r0=0.4",
         "--samples", "40000", "--seed", "3", "--workers", "2"),
        ("bounds", "--n", "5", "--model", "hard:r0=0.4"),
        ("sweep-connectivity", "--steps", "4", "--abs-tol", "1e-4", "--seed", "5"),
        ("sweep-entropy", "--n", "5", "--mc", "--samples", "30000",
         "--steps", "4", "--seed", "6"),
        ("validate", "condpdf", "--seed", "7"),
    ]
    failures = []
    for argv in commands:
        runs = [run_cli_process(*argv) for _ in range(2)]
        if runs[0].stdout != runs[1].stdout or runs[0].returncode != runs[1].returncode:
            failures.append(argv[0])
        elif runs[0].returncode != 0 or not runs[0].stdout:
            failures.append(f"{argv[0]} (exit {runs[0].returncode})")
    report(
        10,
        "CLI determinism",
        not failures,
        f"{len(commands)} commands run twice byte-identically"
        + (f"; failures: {failures}" if failures else ""),
    )
