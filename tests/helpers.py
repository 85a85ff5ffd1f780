"""Shared oracle helpers for the test suite, including reference code
only tests use: iterated n-d quadrature, scalar samplers, the row-major
Monte Carlo point generator, the multinomial entropy bootstrap, loop
versions of the outcome-table maps and of the per-cell density masses,
and the sort-and-mask form of the
closed-form density kernels with their per-branch terms.

Also here, because only tests call them: the 1-based pair codec
(``pair_index``, ``pair_from_index``), the ``EdgeVector`` edge-indicator
record, the scalar ``connect_prob``, the paper's lemmas behind the
conditional density (``pair_pdf_on_circle``, ``angle_pdf_trapezoid``,
``enclosing_diameter_cdf``), the scalar conditional density
``conditional_joint_pdf3`` and density oracle
``joint_pdf3_via_conditioning`` (thin wrappers over the library's batch
forms), ``marginal_pair_density``, the double integral of the joint
density that must reproduce the two-point density, and the two moment
oracles of the exact pmf: ``triple_m2``, M2 as a triple integral of the
joint density, and ``full_cube_m3``, M3 of any model over the full cube of
its three edge axes.  ``pieces_reference`` is the per-interval loop that
cut integrals at their breakpoints, and ``same_rounding`` marks the byte
pins that hold only where numpy's transcendental functions round as
where they were recorded."""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from itertools import permutations, product
from typing import NamedTuple

import numpy as np
import pytest

import rggdist
from rggdist import (
    DiskDomain,
    DomainError,
    McSettings,
    QuadratureSettings,
    TriangleSides,
    estimate_pmf,
    joint_pdf3_via_conditioning_many,
    pair_count,
)
from rggdist.distances import (
    _VIA_CONDITIONING_SETTINGS,
    _as_length_array,
    _cond_pdf3_batch,
    _inner_lines,
    _per_cell_line_integrals,
)
from rggdist.geometry import DEGENERATE_Q_EPS, pair_array
from rggdist.montecarlo import _count_fit
from rggdist.quadrature import integrate_many


# ---------------------------------------------------------------------------
# the rounding the byte pins were recorded with
# ---------------------------------------------------------------------------

def rounding_fingerprint():
    x = np.linspace(0.0, 1.0, 1001)
    digest = hashlib.sha256()
    for arr in (np.arccos(x), np.exp(-x), np.cos(np.pi * x), np.sin(np.pi * x)):
        digest.update(arr.tobytes())
    return digest.hexdigest()


RECORDED_FINGERPRINT = "628dae195863577d6ca36033966855ca3e3a2a25548970f67f935030cd7a6cbd"
same_rounding = pytest.mark.skipif(
    rounding_fingerprint() != RECORDED_FINGERPRINT,
    reason="arccos, exp, cos or sin round differently here than where the pins were recorded",
)


# ---------------------------------------------------------------------------
# pair codec, edge vectors and scalar connection probability
# ---------------------------------------------------------------------------

def pair_index(i: int, j: int, n: int) -> int:
    """Slot of the pair (i, j), 1 <= i < j <= n, in lexicographic order.

    (1,2) -> 0, (1,3) -> 1, ..., (1,n) -> n-2, (2,3) -> n-1, ...
    """
    if not (isinstance(i, int) and isinstance(j, int) and isinstance(n, int)):
        raise DomainError("pair_index arguments must be integers")
    if not (1 <= i < j <= n):
        raise DomainError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def pair_from_index(k: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`."""
    if not (isinstance(k, int) and isinstance(n, int)):
        raise DomainError("pair_from_index arguments must be integers")
    if not (0 <= k < pair_count(n)):
        raise DomainError(f"index {k} out of range for n={n}")
    i = 1
    offset = 0
    while k >= offset + (n - i):
        offset += n - i
        i += 1
    j = i + 1 + (k - offset)
    return i, j


@dataclass(frozen=True)
class EdgeVector:
    """Edge indicators of a realized graph, in pair-slot order."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"need at least two nodes, got n={self.n}")
        bits = tuple(int(b) for b in self.bits)
        if len(bits) != pair_count(self.n):
            raise DomainError(
                f"expected {pair_count(self.n)} edge bits for n={self.n}, got {len(bits)}"
            )
        if any(b not in (0, 1) for b in bits):
            raise DomainError("edge bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def encode(self) -> int:
        """Integer whose k-th bit is the k-th pair slot."""
        code = 0
        for k, b in enumerate(self.bits):
            code |= b << k
        return code

    @classmethod
    def from_int(cls, n: int, code: int) -> "EdgeVector":
        m = pair_count(n)
        if not (0 <= code < (1 << m)):
            raise DomainError(f"code {code} out of range for n={n}")
        return cls(n=n, bits=tuple((code >> k) & 1 for k in range(m)))

    def edge(self, i: int, j: int) -> int:
        return self.bits[pair_index(i, j, self.n)]


def connect_prob(model, r: float) -> float:
    """Connection probability at distance ``r`` (r >= 0)."""
    rf = float(r)
    if not math.isfinite(rf) or rf < 0:
        raise DomainError(f"distance must be a finite nonnegative length, got {r!r}")
    return float(model.probability(rf))


# ---------------------------------------------------------------------------
# the paper's lemmas behind the conditional density
# ---------------------------------------------------------------------------

def pair_pdf_on_circle(r, s):
    """Density of the distance from a point on a circle of diameter ``s``
    to a uniform point inside it: ``(8r / (pi*s**2)) * arccos(r/s)`` on
    [0, s], zero beyond."""
    if not (np.isscalar(s) and math.isfinite(float(s)) and float(s) > 0):
        raise DomainError(f"s must be a positive length, got {s!r}")
    s = float(s)
    arr = _as_length_array("r", r)
    inside = arr <= s
    ratio = np.clip(np.where(inside, arr / s, 1.0), 0.0, 1.0)
    out = np.where(inside, 8.0 * arr / (math.pi * s * s) * np.arccos(ratio), 0.0)
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


def angle_pdf_trapezoid(theta, half_range_a, half_range_b):
    """Density of the difference of two independent uniform angles.

    The two angles are uniform on ``(-half_range_a, half_range_a)`` and
    ``(-half_range_b, half_range_b)`` with both half-ranges in
    (0, pi/2); the difference has the trapezoidal density

    * ``1 / (2*max(ha, hb))``            for |theta| <= |ha - hb|,
    * ``(ha + hb - |theta|)/(4*ha*hb)``  for |ha - hb| <= |theta| < ha + hb,
    * 0                                  for ha + hb <= |theta| < pi.
    """
    ha = float(half_range_a)
    hb = float(half_range_b)
    for name, h in (("half_range_a", ha), ("half_range_b", hb)):
        if not math.isfinite(h) or not (0.0 < h < 0.5 * math.pi):
            raise DomainError(f"{name} must lie in (0, pi/2), got {h!r}")
    arr = np.abs(np.asarray(theta, dtype=float))
    if np.any(~np.isfinite(arr)) or np.any(arr >= math.pi):
        raise DomainError(f"theta must satisfy |theta| < pi, got {theta!r}")
    lo = abs(ha - hb)
    hi = ha + hb
    out = np.where(
        arr <= lo,
        1.0 / (2.0 * max(ha, hb)),
        np.where(arr < hi, (hi - arr) / (4.0 * ha * hb), 0.0),
    )
    if np.isscalar(theta) or arr.ndim == 0:
        return float(out)
    return out


def enclosing_diameter_cdf(s, domain: DiskDomain):
    """Distribution function matching ``enclosing_diameter_pdf``: (s/D)**6."""
    arr = np.asarray(s, dtype=float)
    D = domain.diameter
    if np.any(~np.isfinite(arr)) or np.any(arr < 0) or np.any(arr > D):
        raise DomainError(f"s must lie in [0, D], got {s!r}")
    out = (arr / D) ** 6
    if np.isscalar(s) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# scalar density oracles over the library's batch forms
# ---------------------------------------------------------------------------

def conditional_joint_pdf3(sides: TriangleSides, s: float) -> float:
    """Joint density of the three distances conditioned on the enclosing
    concentric-circle diameter being ``s`` (one point is then on that
    circle).  Zero when the longest side exceeds ``s``."""
    sf = float(s)
    if not math.isfinite(sf) or sf <= 0:
        raise DomainError(f"s must be a positive length, got {s!r}")
    val = _cond_pdf3_batch(
        np.float64(sides.r12), np.float64(sides.r13), np.float64(sides.r23), sf
    )
    return float(val)


def joint_pdf3_via_conditioning(
    sides: TriangleSides,
    domain: DiskDomain,
    settings: QuadratureSettings = _VIA_CONDITIONING_SETTINGS,
) -> float:
    """One triple of ``joint_pdf3_via_conditioning_many``: the joint
    density reconstructed from the conditional one.  Raises
    ``AccuracyError`` if the quadrature cannot converge."""
    values, _ = joint_pdf3_via_conditioning_many(
        [sides.r12], [sides.r13], [sides.r23], domain, settings
    )
    return float(values[0])


def marginal_pair_density(r12_values, domain: DiskDomain, abs_tol: float = 1e-6):
    """Double integral of the joint density over the other two sides.

    Should reproduce ``pair_pdf`` at each requested first-side value.
    Returns an array.
    """
    p_arr = _as_length_array("r12", r12_values).ravel()
    D = domain.diameter
    tol_mid = 0.5 * abs_tol
    tol_inner = 0.1 * abs_tol / D

    def mid_integrand(q_flat, own):
        pp = p_arr[own]
        vals, _ = _inner_lines(pp, q_flat, 0.0, D, D, line_tol=tol_inner)
        return vals[:, 0]

    settings = QuadratureSettings(abs_tol=tol_mid, rel_tol=0.0, max_subdivisions=400)
    breaks = [tuple(x for x in (pv, D - pv) if 0.0 < x < D) for pv in p_arr]
    values, _ = integrate_many(
        mid_integrand, [(0.0, D)] * len(p_arr), settings, breakpoints=breaks
    )
    return values


def triple_m2(domain: DiskDomain, hi, weight, breaks, abs_tol, max_subdivisions=1000):
    """``E[p(R12) p(R13)]`` as the triple integral of the joint density:
    sides 12 and 13 run over [0, hi] times ``weight`` (``None`` for 1),
    split at ``breaks``, and the third side, no edge, over [0, D]
    unweighted and unsplit.  The oracle of the coverage-function M2.
    Returns (value, error estimate), the estimate including the inner
    levels' budgets."""
    D = domain.diameter
    if hi <= 0.0:
        return 0.0, 0.0
    tol_inner = 0.05 * abs_tol / (hi * hi)
    mid_settings = QuadratureSettings(
        abs_tol=0.25 * abs_tol / hi, rel_tol=0.0, max_subdivisions=max_subdivisions
    )

    def outer_integrand(p_batch, _):
        def mid_integrand(q_flat, own):
            vals = _inner_lines(p_batch[own], q_flat, 0.0, D, D, line_tol=tol_inner)[0][:, 0]
            return vals if weight is None else vals * weight(q_flat)

        mid_vals, _ = integrate_many(
            mid_integrand, [(0.0, hi)] * len(p_batch), mid_settings,
            breakpoints=[(pv, D - pv) + tuple(breaks) for pv in p_batch],
        )
        return mid_vals if weight is None else mid_vals * weight(p_batch)

    outer_settings = QuadratureSettings(
        abs_tol=0.5 * abs_tol, rel_tol=0.0, max_subdivisions=max_subdivisions
    )
    values, errors = integrate_many(outer_integrand, [(0.0, hi)], outer_settings, [breaks])
    return float(values[0]), float(errors[0]) + 0.3 * abs_tol


def full_cube_m3(domain: DiskDomain, hi, weight, breaks, abs_tol, max_subdivisions=1000):
    """``M3 = E[p(R12) p(R13) p(R23)]`` as the integral of the joint density
    over the full cube of three edge axes, the oracle of the longest-side
    pass.  Every side runs over [0, hi] times ``weight`` (``None`` for 1)
    and splits at ``breaks``; the middle axis also splits where the third
    side's interval ``[|p - q|, min(p + q, hi, D)]`` kinks.  Returns
    (value, error estimate, third-side lines), the estimate including the
    inner levels' budgets."""
    D = domain.diameter
    if hi <= 0.0:
        return 0.0, 0.0, 0
    tol_inner = 0.05 * abs_tol / (hi * hi)
    mid_settings = QuadratureSettings(
        abs_tol=0.25 * abs_tol / hi, rel_tol=0.0, max_subdivisions=max_subdivisions
    )

    lines = 0

    def outer_integrand(p_batch, _):
        def mid_integrand(q_flat, own):
            nonlocal lines
            lines += len(q_flat)
            vals = _inner_lines(
                p_batch[own], q_flat, 0.0, hi, D,
                weights=(weight,), extra_breaks=breaks, line_tol=tol_inner,
            )[0][:, 0]
            return vals if weight is None else vals * weight(q_flat)

        mid_vals, _ = integrate_many(
            mid_integrand, [(0.0, hi)] * len(p_batch), mid_settings,
            breakpoints=[(pv, hi - pv, D - pv) + tuple(breaks) for pv in p_batch],
        )
        return mid_vals if weight is None else mid_vals * weight(p_batch)

    outer_settings = QuadratureSettings(
        abs_tol=0.5 * abs_tol, rel_tol=0.0, max_subdivisions=max_subdivisions
    )
    values, errors = integrate_many(outer_integrand, [(0.0, hi)], outer_settings, [breaks])
    return float(values[0]), float(errors[0]) + 0.3 * abs_tol, lines


def cell_masses_reference(domain: DiskDomain, edges, gauss_order=5):
    """Loop form of :func:`rggdist.joint_pdf3_cell_masses`: for the p nodes
    of cell i the middle axis is cut cell by cell over the cells j >= i, at
    the grid edges and at the kink candidates inside each cell, each
    third-side line starts at the lower edge of its q cell, and every cell
    (i, j, k) is then copied from the sorted one, with the same arithmetic
    otherwise."""
    edges = np.asarray(edges, dtype=float)
    D = domain.diameter
    nb = len(edges) - 1
    nodes, weights = np.polynomial.legendre.leggauss(gauss_order)
    u01 = 0.5 * (nodes + 1.0)
    w01 = 0.5 * weights
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    p_pts = mid[:, None] + half[:, None] * nodes[None, :]
    p_wts = half[:, None] * weights[None, :]
    sorted_masses = np.zeros((nb, nb, nb))
    for i in range(nb):
        for u in range(gauss_order):
            pv = float(p_pts[i, u])
            cand = np.concatenate([pv - edges, pv + edges, edges - pv, [pv]])
            cand = np.unique(cand[(cand > edges[0]) & (cand < edges[-1])])
            piece_lo, piece_hi, piece_j = [], [], []
            for j in range(i, nb):
                qa, qb = edges[j], edges[j + 1]
                inner = cand[(cand > qa) & (cand < qb)]
                qedges = np.concatenate([[qa], inner, [qb]])
                for lo, hi in zip(qedges[:-1], qedges[1:]):
                    piece_lo.append(lo)
                    piece_hi.append(hi)
                    piece_j.append(j)
            piece_lo, piece_hi = np.asarray(piece_lo), np.asarray(piece_hi)
            ph = 0.5 * (piece_hi - piece_lo)
            pm = 0.5 * (piece_hi + piece_lo)
            qs = pm[:, None] - ph[:, None] * np.cos(math.pi * u01[None, :])
            wq = ph[:, None] * math.pi * np.sin(math.pi * u01[None, :]) * w01[None, :]
            q_flat = qs.ravel()
            line_j = np.repeat(piece_j, gauss_order)
            per_cell = _per_cell_line_integrals(
                np.full(len(q_flat), pv), q_flat, edges, D, edges[line_j]
            )
            rows = np.zeros((nb, nb))
            np.add.at(rows, line_j, per_cell * wq.ravel()[:, None])
            sorted_masses[i] += p_wts[i, u] * rows
    masses = np.empty((nb, nb, nb))
    for cell in product(range(nb), repeat=3):
        masses[cell] = sorted_masses[tuple(sorted(cell))]
    return masses


def obtuse_boundary_triples(count, rng, diameter=1.0):
    """Random obtuse triangles whose circumscribed-circle diameter equals
    the disk diameter exactly.

    Built by inscribing: pick interior angles summing to pi with one angle
    obtuse; the side opposite angle t has length diameter * sin(t).
    """
    triples = []
    while len(triples) < count:
        t1 = rng.uniform(0.5 * np.pi + 0.05, np.pi - 0.2)
        rest = np.pi - t1
        t2 = rng.uniform(0.1 * rest, 0.9 * rest)
        t3 = rest - t2
        if min(t2, t3) < 0.05:
            continue
        triples.append(tuple(diameter * np.sin(t) for t in (t1, t2, t3)))
    return triples


def right_triangles(count, rng, diameter=1.0):
    """Random right triangles with hypotenuse below the disk diameter.

    The circumscribed-circle diameter of a right triangle is its
    hypotenuse, so these sit exactly on the acute/obtuse case boundary.
    """
    triples = []
    while len(triples) < count:
        hyp = rng.uniform(0.3, 0.95) * diameter
        ang = rng.uniform(0.15, np.pi / 2 - 0.15)
        a = hyp * np.sin(ang)
        b = hyp * np.cos(ang)
        triples.append((a, b, hyp))
    return triples


def valid_triple_grid(diameter=1.0, per_axis=10, margin_frac=0.04):
    """Deterministic grid of triples satisfying the triangle inequalities.

    For each (r12, r13) on a grid, the third side runs over a grid of the
    admissible interval shrunk by a small margin, keeping all points
    strictly inside the support.
    """
    grid = np.linspace(0.1, 0.9, per_axis) * diameter
    triples = []
    for a in grid:
        for b in grid:
            lo, hi = abs(a - b), min(a + b, diameter)
            margin = margin_frac * (hi - lo)
            for c in np.linspace(lo + margin, hi - margin, per_axis):
                triples.append((a, b, c))
    return np.asarray(triples)


def pmf_fit(est, exact, slack=0.0):
    """``montecarlo._count_fit`` of a sampled pmf against an exact one,
    its counts recovered from the outcome frequencies."""
    samples = est.ingredients["samples"]
    return _count_fit(np.rint(est.probs * samples), exact.probs, samples, slack)


def sample_pmf(n, model, seed, samples, workers=1, diameter=1.0):
    return estimate_pmf(
        n, model, DiskDomain(diameter), McSettings(samples=samples, seed=seed, workers=workers)
    )


def disk_map_reference(rho, v):
    """Coordinates of the points at radii ``rho`` and angles ``2*pi*v``
    through the tan half-angle map, as allocating expressions that take
    the sampler's IEEE operations in its order."""
    s = np.tan(math.pi * v)
    s2 = s * s
    t = s2 + 1.0
    return rho * ((1.0 - s2) / t), rho * ((s + s) / t)


def distance_sq_blocks_reference(n, domain, rng, count, block):
    """Row-major form of ``montecarlo._distance_sq_chunks``: per block of
    at most ``block`` sets, draw the radial uniforms ``rng.random((rows,
    n))``, then the angular ones, and yield the block's squared pair
    distances.  Defines the block-major stream layout the sampler must
    reproduce."""
    pairs = pair_array(n)
    for start in range(0, count, block):
        rows = min(block, count - start)
        rho = domain.radius * np.sqrt(rng.random((rows, n)))
        xs, ys = disk_map_reference(rho, rng.random((rows, n)))
        dx = xs[:, pairs[:, 0]] - xs[:, pairs[:, 1]]
        dy = ys[:, pairs[:, 0]] - ys[:, pairs[:, 1]]
        yield dx * dx + dy * dy


def miller_madow_bits(counts, total, bias_correction=True):
    """Plug-in entropy in bits of a count table of ``total`` samples, plus
    the Miller-Madow correction ``(K - 1) / (2 N ln 2)`` when asked; 0 for
    a table with at most one observed outcome."""
    nz = counts[counts > 0]
    if len(nz) <= 1:
        return 0.0
    p = nz / total
    h = float(-np.sum(p * np.log2(p)))
    if bias_correction:
        h += (len(nz) - 1) / (2.0 * total * math.log(2.0))
    return h


def bootstrap_entropy(counts, total, bias_correction, resamples, rng):
    """Entropy of a count table and its multinomial-bootstrap standard
    error: the sample deviation of the entropies of ``resamples`` tables of
    ``total`` draws from the observed frequencies.  The oracle for the
    closed-form error of ``estimate_entropy``."""
    nz = counts[counts > 0]
    h = miller_madow_bits(counts, total, bias_correction)
    rows = rng.multinomial(total, nz / total, size=resamples)
    hs = [miller_madow_bits(row, total, bias_correction) for row in rows]
    return h, float(np.std(hs, ddof=1))


def run_cli_process(*argv):
    """Run ``python -m rggdist ARGV`` in a fresh interpreter that imports
    the same rggdist as the test process; returns the completed process."""
    return run_python_process("-m", "rggdist", *argv)


def run_python_process(*args):
    """Run ``python ARGS`` in a fresh interpreter that imports the same
    rggdist as the test process; returns the completed process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rggdist.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        timeout=600,
        env=dict(os.environ, PYTHONPATH=path),
    )


def pieces_reference(lo, hi, breaks):
    """Intervals ``[lo[i], hi[i]]`` cut at the points of row ``i`` of
    ``breaks``, one interval at a time: (lo, hi, owner) lists.  An interval
    with ``hi <= lo`` has no pieces; a point counts only strictly inside
    its interval (so NaN never does), and a repeated one only once."""
    pieces = ([], [], [])
    for idx, (a, b) in enumerate(zip(lo, hi)):
        a, b = float(a), float(b)
        if b <= a:
            continue
        edges = [a, *sorted(float(x) for x in breaks[idx] if a < x < b), b]
        for x, y in zip(edges[:-1], edges[1:]):
            if y > x:
                for out, v in zip(pieces, (x, y, idx)):
                    out.append(v)
    return pieces


class NdIntegral(NamedTuple):
    value: float
    error_estimate: float


def integrate_nd(f, box, settings):
    """Iterated adaptive integration of ``f`` over an axis-aligned box.

    ``f`` receives an array of shape ``(npoints, ndim)``.  Axes are
    integrated as nested 1-d integrals, last axis innermost, every level
    refined in lockstep by ``integrate_many``; inner levels run to a
    quarter of the budget of the level above, and the reported error
    estimate includes that budget.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]

    def level(prefixes, axis, lvl):
        """Integrate out axes ``axis:`` for every prefix row."""
        if axis == len(box) - 1:
            def g(x, which):
                return np.asarray(f(np.column_stack((prefixes[which], x))), dtype=float)
        else:
            width = max(box[axis][1] - box[axis][0], 1.0)
            inner = QuadratureSettings(
                abs_tol=lvl.abs_tol * 0.25 / width, rel_tol=lvl.rel_tol * 0.25,
                max_subdivisions=lvl.max_subdivisions,
            )

            def g(x, which):
                return level(np.column_stack((prefixes[which], x)), axis + 1, inner)[0]

        return integrate_many(g, [box[axis]] * len(prefixes), lvl)

    values, errors = level(np.empty((1, 0)), 0, settings)
    budget = (settings.abs_tol + settings.rel_tol * abs(values[0])) / 3.0
    return NdIntegral(float(values[0]), float(errors[0]) + budget)


class Point2D(NamedTuple):
    x: float
    y: float


def sample_point_in_disk(domain, rng):
    """One point uniform over the disk: radius ``R*sqrt(u)`` from the
    first draw, a uniform angle from the second."""
    u = rng.random()
    v = rng.random()
    rho = domain.radius * math.sqrt(u)
    ang = 2.0 * math.pi * v
    return Point2D(rho * math.cos(ang), rho * math.sin(ang))


def sample_edge(model, r, rng):
    """One Bernoulli edge indicator; always consumes exactly one draw."""
    return int(rng.random() < connect_prob(model, r))


def sample_graph(n, model, domain, rng):
    """One realized graph: n uniform points, one Bernoulli draw per pair."""
    u = rng.random(n)
    v = rng.random(n)
    xs, ys = disk_map_reference(domain.radius * np.sqrt(u), v)
    bits = [
        sample_edge(model, math.hypot(xs[i] - xs[j], ys[i] - ys[j]), rng)
        for i, j in pair_array(n)
    ]
    return EdgeVector(n=n, bits=tuple(bits))


def outcome_is_connected(n, code):
    """Grow the component of node 0 over the edges of ``code`` until it
    stops changing."""
    edges = [(i, j) for k, (i, j) in enumerate(pair_array(n)) if (code >> k) & 1]
    seen, size = {0}, 0
    while len(seen) != size:
        size = len(seen)
        seen |= {b for i, j in edges for a, b in ((i, j), (j, i)) if a in seen}
    return len(seen) == n


def orbit_representative(n, code):
    """Smallest code among the images of ``code`` under all relabelings."""
    pairs = [(int(i), int(j)) for i, j in pair_array(n)]
    present = [p for k, p in enumerate(pairs) if (code >> k) & 1]
    return min(
        sum(1 << pairs.index(tuple(sorted((perm[i], perm[j])))) for i, j in present)
        for perm in permutations(range(n))
    )


# ---------------------------------------------------------------------------
# reference density kernels: sort each triple, evaluate every branch on the
# masked support, scatter back; the library kernels must match bit for bit
# ---------------------------------------------------------------------------

_PI2 = math.pi * math.pi


def phi_reference(x):
    """Allocating ``arccos(x) - x*sqrt(1 - x**2)`` on x clipped to [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return np.arccos(x) - x * np.sqrt(1.0 - x * x)


def _density_inscribed(a, b, c, d, D):
    """Common part of the two d <= D branches; sides sorted ascending."""
    d2D2 = (d / D) ** 2
    s_outer = phi_reference(a / D) + phi_reference(b / D) + phi_reference(c / D)
    s_inner = phi_reference(a / d) + phi_reference(b / d) + phi_reference(c / d)
    return (
        64.0
        * d
        / (_PI2 * D**4)
        * (s_outer - d2D2 * s_inner - 0.5 * math.pi * (1.0 - d2D2))
    )


def _density_obtuse_extra(c, d, D):
    """Term added to the inscribed density when the triangle is obtuse."""
    return 64.0 * d / (_PI2 * D**4) * 2.0 * (d / D) ** 2 * phi_reference(c / d)


def _density_outscribed(c, d, D):
    """Obtuse branch for d > D: only the longest side matters."""
    return 128.0 * d / (_PI2 * D**4) * phi_reference(c / D)


def sorted_sides_reference(r12, r13, r23):
    """Broadcast, flatten and ``np.sort`` the sides per triple; returns
    (a, b, c, Q, broadcast shape)."""
    triples = np.stack(np.broadcast_arrays(
        np.asarray(r12, float), np.asarray(r13, float), np.asarray(r23, float)
    ), axis=-1)
    shape = triples.shape[:-1]
    triples = triples.reshape(-1, 3)
    triples.sort(axis=1)
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    q = (a + b + c) * (b + c - a) * (a + c - b) * (a + b - c)
    return a, b, c, q, shape


def pdf3_batch_reference(r12, r13, r23, D, with_case=False):
    """Four-branch joint density evaluated on the gathered support only."""
    a, b, c, q, shape = sorted_sides_reference(r12, r13, r23)
    valid = (c > 0.0) & (c <= D) & (q > DEGENERATE_Q_EPS * (c * c) ** 2)

    out = np.zeros(len(a))
    codes = np.zeros(len(a), dtype=np.uint8)
    if np.any(valid):
        va, vb, vc, vq = a[valid], b[valid], c[valid], q[valid]
        d = 2.0 * va * vb * vc / np.sqrt(vq)
        obtuse = vc * vc > va * va + vb * vb
        inscribed = d <= D
        base = _density_inscribed(va, vb, vc, d, D)
        vals = np.where(
            inscribed,
            base + np.where(obtuse, _density_obtuse_extra(vc, d, D), 0.0),
            np.where(obtuse, _density_outscribed(vc, d, D), 0.0),
        )
        out[valid] = np.maximum(vals, 0.0)
        vcodes = np.where(
            inscribed,
            np.where(obtuse, 1, 2),
            np.where(obtuse, 3, 0),
        ).astype(np.uint8)
        codes[valid] = vcodes

    out = out.reshape(shape)
    codes = codes.reshape(shape)
    if with_case:
        return out, codes
    return out


def cond_pdf3_batch_reference(r12, r13, r23, s):
    """Conditional joint density given the enclosing diameter s, evaluated
    on the gathered support only."""
    a, b, c, q, shape = sorted_sides_reference(r12, r13, r23)
    s_arr = np.broadcast_to(np.asarray(s, float), shape).reshape(-1)
    valid = (c > 0.0) & (c <= s_arr) & (q > DEGENERATE_Q_EPS * (c * c) ** 2)

    out = np.zeros(len(a))
    if np.any(valid):
        va, vb, vc, vq, vs = a[valid], b[valid], c[valid], q[valid], s_arr[valid]
        d = 2.0 * va * vb * vc / np.sqrt(vq)
        obtuse = vc * vc > va * va + vb * vb
        acos_sum = (
            np.arccos(np.clip(va / vs, 0.0, 1.0))
            + np.arccos(np.clip(vb / vs, 0.0, 1.0))
            + np.arccos(np.clip(vc / vs, 0.0, 1.0))
        )
        pref = 64.0 * d / (3.0 * _PI2 * vs**4)
        vals = np.where(
            d <= vs,
            pref * (acos_sum - 0.5 * math.pi),
            np.where(obtuse, 2.0 * pref * np.arccos(np.clip(vc / vs, 0.0, 1.0)), 0.0),
        )
        out[valid] = np.maximum(vals, 0.0)
    return out.reshape(shape)
