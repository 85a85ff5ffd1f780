"""Exact graph distributions for two and three nodes, and derived quantities.

The random graph is encoded as a vector of edge indicators in pair-slot
order (see :func:`rggdist.geometry.pair_array`); an outcome is the integer
whose k-th bit is the k-th indicator.  The pmf over all outcomes is
computed by quadrature for n = 2 and n = 3; for larger n no closed form
of the joint distance density exists and :func:`exact_pmf` refuses with
:class:`UnsupportedError` (the Monte Carlo estimators cover that case).

Per-outcome facts come from one cached, read-only table per n
(:func:`_outcomes`); a table of more than ``2**MAX_OUTCOME_BITS`` codes
(n >= 7) is refused with :class:`UnsupportedError` before anything is
allocated.

Both exact pmfs are assembled by one inclusion-exclusion
(:func:`_pmf_from_moments`) from the product moments of the edges,

    M1 = E[p(R12)],  M2 = E[p(R12) p(R13)],  M3 = E[p(R12) p(R13) p(R23)],

M1 alone for n = 2 and all three for n = 3; the joint density is
exchangeable in its three arguments, so these three numbers determine
everything.  Two consequences are used deliberately: the probabilities
sum to one up to floating-point rounding (not up to quadrature error),
and outcomes related by a node relabeling get exactly equal
probabilities.  M1 reduces to a
one-dimensional integral against the two-point density, and M2 to one
over the coverage function of one node (a lens area for a hard disk).
M3 of every model comes from one pass over the longest side of the
triangle, with the edge's connection probability as the weight of all
three axes; a hard disk's M3 is then the distribution function of the
longest side, so :func:`_exact_pmfs`, the one exact entry behind
:func:`exact_pmf` and every command, reads every hard disk's M3 from one
shared pass.  Near-zero entries may come out epsilon-negative from
quadrature noise; they are clipped to zero and the deficit is folded into
the largest entry, which keeps the exact unit total while staying inside
the per-entry error estimates.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .connection import ConnectionModel, HardDisk
from .distances import (
    _coverage_moment,
    _LineStats,
    _longest_side_moment,
    pair_pdf,
)
from .errors import AccuracyError, DomainError, UnsupportedError
from .geometry import DiskDomain, pair_array, pair_count
from .quadrature import QuadratureSettings, integrate_many

# Absolute tolerance per pmf entry used when no settings are supplied.
DEFAULT_PMF_ENTRY_TOL = 1e-4

# Largest number of edge slots of an outcome table (2**20 codes, n <= 6).
MAX_OUTCOME_BITS = 20


@dataclass(frozen=True)
class GraphPmf:
    """Distribution over all edge-vector outcomes for n nodes."""

    n: int
    probs: np.ndarray
    method: str
    error_estimate: float
    ingredients: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        m = pair_count(self.n)
        if probs.shape != (1 << m,):
            raise DomainError(
                f"expected {1 << m} outcome probabilities for n={self.n}, got {probs.shape}"
            )
        if np.any(probs < -1e-9) or np.any(probs > 1.0 + 1e-9):
            raise DomainError("probabilities must lie in [0, 1]")
        if self.method not in ("quadrature", "monte_carlo"):
            raise DomainError(f"unknown method {self.method!r}")
        object.__setattr__(self, "probs", probs)


def _edge_axis(model, D):
    """How an edge's distance axis is integrated: (upper end, weight,
    breakpoints).

    A hard disk's indicator truncates the axis at ``min(r0, D)`` and leaves
    no weight; any other model weights [0, D] by its connection
    probability.  The breakpoints are the model's strictly inside the
    axis, so a hard disk has none.
    """
    if isinstance(model, HardDisk):
        hi, weight = min(model.r0, D), None
    else:
        hi, weight = D, model.probability
    return hi, weight, tuple(b for b in model.breakpoints() if 0.0 < b < hi)


def _pair_connect_prob(model, domain, settings) -> tuple[float, float]:
    """P(edge) for one pair: integral of pair density times connection prob."""
    hi, weight, breaks = _edge_axis(model, domain.diameter)
    if hi <= 0.0:
        return 0.0, 0.0

    def integrand(r, _):
        vals = pair_pdf(r, domain)
        return vals if weight is None else vals * weight(r)

    values, errors = integrate_many(integrand, [(0.0, hi)], settings, [breaks])
    return float(values[0]), float(errors[0])


_PAIR_SETTINGS = QuadratureSettings(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=400)


def pmf_n2(
    model: ConnectionModel, domain: DiskDomain, quad: QuadratureSettings | None = None
) -> GraphPmf:
    """Exact two-node pmf: a single Bernoulli edge of probability M1.

    ``ingredients`` holds ``m1``, its error estimate ``e1`` and the
    per-entry estimates ``entry_errors``, as :func:`pmf_n3` reports them.
    """
    return exact_pmf(2, model, domain, quad)


def pmf_n3(
    model: ConnectionModel, domain: DiskDomain, quad: QuadratureSettings | None = None
) -> GraphPmf:
    """Exact three-node pmf over the eight edge-vector outcomes.

    The per-entry absolute tolerance is ``quad.abs_tol`` (default
    ``DEFAULT_PMF_ENTRY_TOL``); ``quad.rel_tol`` is unused, so settings
    with ``abs_tol == 0`` are refused.  The reported ``error_estimate`` is
    the sum of the per-entry estimates.  Entries are clipped to [0, 1];
    clipping never exceeds the per-entry estimate.

    Every edge axis is set up by one rule (:func:`_edge_axis`): a hard
    disk truncates it at ``min(r0, D)``, any other model weights it by its
    connection probability, and it splits at the model's breakpoints.
    M1 is the two-node edge probability at :func:`pmf_n2`'s default
    settings.  M2 comes from the coverage function of one node (a lens
    area for a hard disk), with no three-distance density.  M3 integrates
    the joint density times the three edges' weights over the region
    where a chosen side is the longest, three times, in one pass over that
    side; for a hard disk it is the distribution function of the longest
    side at ``min(r0, D)``.
    ``ingredients`` holds the moments, their error estimates ``e1``,
    ``e2``, ``e3``, the per-entry estimates ``entry_errors`` (a tuple in
    outcome order, summing to ``error_estimate``), and the number of
    third-side ``lines`` behind M3, each of which met its budget (a line
    that cannot raises :class:`AccuracyError`).

    This is the one-model case of :func:`_exact_pmfs`, where every hard
    disk's M3 comes from one pass over the longest side cut at all their
    ranges.  A row of such a sweep can therefore differ from a lone
    ``pmf_n3`` at its range, within their error estimates, and its line
    counts are those of the whole pass.
    """
    return exact_pmf(3, model, domain, quad)


def _exact_pmfs(sizes, models, domain: DiskDomain, quad: QuadratureSettings | None = None):
    """``{n: [exact n-node pmf of each model, in order]}`` for each node
    count n in ``sizes`` (see :func:`pmf_n2` and :func:`pmf_n3`); refuses
    any n other than 2 and 3.

    Every M3 comes from one longest-side pass
    (:func:`rggdist.distances._longest_side_moment`).  The hard disks share
    one pass, cut at every truncation ``min(r0, D)``; every other model
    has its own, cut at D.  The three-node M1 is integrated at
    ``_PAIR_SETTINGS``, so without ``quad`` the two-node pmfs reuse it;
    otherwise their M1 is integrated at ``quad``, or at ``_PAIR_SETTINGS``
    without it.  Raises on the first integral that cannot converge,
    returning no partial table.
    """
    for n in sizes:
        if n not in (2, 3):
            raise UnsupportedError(
                f"exact pmf is only available for n in (2, 3); got n={n}. "
                "Use the Monte Carlo estimator for larger graphs."
            )
    pmfs = {}
    if 3 in sizes:
        if quad is not None and quad.abs_tol == 0:
            raise DomainError("pmf_n3 needs a positive abs_tol; rel_tol is unused")
        entry_tol = quad.abs_tol if quad is not None else DEFAULT_PMF_ENTRY_TOL
        max_sub = quad.max_subdivisions if quad is not None else 400
        moment_tol = entry_tol / 4.0

        axes = [_edge_axis(model, domain.diameter) for model in models]
        # One pass per group: all hard disks together, each weighted model alone.
        groups = {}
        for k, (_, weight, _) in enumerate(axes):
            groups.setdefault(-1 if weight is None else k, []).append(k)
        m3s = {}
        for group in groups.values():
            stats = _LineStats()
            _, weight, breaks = axes[group[0]]
            values, errors = _longest_side_moment(
                domain, [axes[k][0] for k in group], weight, breaks, moment_tol, max_sub, stats
            )
            m3s.update((k, (float(v), float(e), stats)) for k, v, e in zip(group, values, errors))
        pmfs[3] = []
        for k, (model, axis) in enumerate(zip(models, axes)):
            m1, e1 = _pair_connect_prob(model, domain, _PAIR_SETTINGS)
            m2, e2 = _coverage_moment(domain, *axis, moment_tol, max_sub)
            m3, e3, stats = m3s[k]
            pmfs[3].append(_pmf_from_moments(3, (m1, m2, m3), (e1, e2, e3), stats))
    if 2 in sizes:
        if 3 in sizes and quad is None:
            m1s = [(pmf.ingredients["m1"], pmf.ingredients["e1"]) for pmf in pmfs[3]]
        else:
            m1s = [_pair_connect_prob(model, domain, quad or _PAIR_SETTINGS) for model in models]
        pmfs[2] = [_pmf_from_moments(2, (m1,), (e1,)) for m1, e1 in m1s]
    return pmfs


def _pmf_from_moments(n, moments, errors, stats=None) -> GraphPmf:
    """The n-node pmf (n = 2 or 3) from its k = ``pair_count(n)`` edge
    moments M1..Mk and their error estimates; ``stats`` (n = 3) counts the
    third-side lines behind Mk."""
    k = pair_count(n)
    m, e = (1.0, *moments), (0.0, *errors)
    # Inclusion-exclusion over the number of present edges: an outcome of
    # weight w has probability sum_{j>=w} (-1)**(j-w) C(k-w, j-w) M_j, with
    # M0 = 1.  Exchangeability of the distance density makes all outcomes
    # of equal weight identical.
    by_weight, err_by_weight = {}, {}
    for w in range(k, -1, -1):
        by_weight[w], err_by_weight[w] = m[w], e[w]
        for j in range(w + 1, k + 1):
            c = math.comb(k - w, j - w)
            by_weight[w] += (-1) ** (j - w) * c * m[j]
            err_by_weight[w] += c * e[j]
    edges = _outcomes(n).edges
    multiplicity = np.bincount(edges)
    class_values = np.array([by_weight[w] for w in range(k + 1)])
    class_errs = np.array([err_by_weight[w] for w in range(k + 1)])
    if np.any((class_values < -class_errs - 1e-9) | (class_values > 1.0 + class_errs + 1e-9)):
        raise AccuracyError(
            f"{n}-node pmf entries left [0, 1] beyond their error estimates; "
            "tighten the quadrature settings",
            value=class_values,
            error_estimate=class_errs,
        )
    # Quadrature noise can push near-zero classes epsilon-negative; clip
    # them and fold the (sub-error-estimate) deficit into the largest
    # class, so the table remains an exact, exactly exchangeable
    # distribution.
    by_weight = {w: min(max(v, 0.0), 1.0) for w, v in by_weight.items()}
    total = sum(v * multiplicity[w] for w, v in by_weight.items())
    w_star = max(by_weight, key=lambda w: by_weight[w])
    by_weight[w_star] -= (total - 1.0) / multiplicity[w_star]

    probs = np.array([by_weight[w] for w in range(k + 1)])[edges]
    entry_errs = class_errs[edges]
    ingredients = {f"m{j}": m[j] for j in range(1, k + 1)}
    ingredients.update((f"e{j}", e[j]) for j in range(1, k + 1))
    ingredients["entry_errors"] = tuple(entry_errs.tolist())
    if stats is not None:
        ingredients["lines"] = stats.lines
    return GraphPmf(
        n=n, probs=probs, method="quadrature",
        error_estimate=float(np.sum(entry_errs)), ingredients=ingredients,
    )


def exact_pmf(
    n: int, model: ConnectionModel, domain: DiskDomain, quad: QuadratureSettings | None = None
) -> GraphPmf:
    """The exact n-node pmf (:func:`pmf_n2`, :func:`pmf_n3`); refuses n >= 4.

    No closed form of the joint distance density is known beyond three
    nodes; use :func:`rggdist.montecarlo.estimate_pmf` instead.
    """
    return _exact_pmfs({n}, [model], domain, quad)[n][0]


def entropy_bits(pmf: GraphPmf) -> float:
    """Shannon entropy of the outcome distribution, in bits."""
    p = pmf.probs
    mask = p > 0.0
    # + 0.0 turns the -0.0 of a point mass into +0.0
    return float(-np.sum(p[mask] * np.log2(p[mask]))) + 0.0


def _entropy_terms(x):
    """``-x*log2(x)`` elementwise, 0 at x <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, -x * np.log2(x), 0.0)


def entropy_error_bound(pmf: GraphPmf) -> float:
    """The largest change of the entropy, in bits, when each entry p_i
    moves anywhere in ``[max(0, p_i - e_i), min(1, p_i + e_i)]``.

    ``e_i`` is the entry's own error estimate (``entry_errors`` of an
    exact pmf), or ``error_estimate`` for every entry of a pmf without
    them.  The entropy is a sum of the concave ``-x*log2(x)`` over the
    entries, so each entry's largest decrease lies at an end of its
    interval and its largest increase at the point of the interval
    nearest 1/e, its maximum.  Returns the larger of the summed increases
    and the summed decreases.
    """
    p = pmf.probs
    e = np.asarray(pmf.ingredients.get("entry_errors", pmf.error_estimate), dtype=float)
    lo, hi = np.maximum(p - e, 0.0), np.minimum(p + e, 1.0)
    h = _entropy_terms(p)
    rise = _entropy_terms(np.clip(1.0 / math.e, lo, hi)) - h
    fall = h - np.minimum(_entropy_terms(lo), _entropy_terms(hi))
    return float(max(np.sum(rise), np.sum(fall)))


def _outcome_slots(n: int) -> int:
    """Edge slots of an n-node outcome; refuses n < 2 and tables of more
    than ``2**MAX_OUTCOME_BITS`` entries before anything is allocated."""
    if n < 2:
        raise DomainError(f"need at least two nodes, got n={n}")
    m = pair_count(n)
    if m > MAX_OUTCOME_BITS:
        raise UnsupportedError(
            f"outcome table for n={n} has 2**{m} entries; "
            f"only up to 2**{MAX_OUTCOME_BITS} is supported"
        )
    return m


_Outcomes = namedtuple("_Outcomes", "edges connected orbit")


@functools.lru_cache(maxsize=None)
def _outcomes(n: int) -> _Outcomes:
    """Read-only vectors over all n-node outcome codes: edge count,
    connectedness, and the smallest code in the relabeling orbit."""
    m = _outcome_slots(n)
    pairs = pair_array(n)
    codes = np.arange(1 << m, dtype=np.int64)
    bits = [(codes & (1 << k)) != 0 for k in range(m)]
    # Bit set of the nodes reached from node 0, for every outcome at once.
    # Each pass over the edges extends every path by at least one hop, and
    # a shortest path has at most n - 1 hops.
    reach = np.ones(len(codes), dtype=np.int64)
    for _ in range(n - 1):
        for bit, (i, j) in zip(bits, pairs):
            reach |= bit * ((((reach >> i) & 1) << j) | (((reach >> j) & 1) << i))
    slot = {(int(i), int(j)): k for k, (i, j) in enumerate(pairs)}

    def relabeled(perm):
        image_slots = (slot[tuple(sorted((perm[i], perm[j])))] for i, j in pairs)
        return sum(np.left_shift(bit, s, dtype=np.int64) for bit, s in zip(bits, image_slots))

    # Swapping nodes 0 and 1 and rotating all n nodes generate every
    # relabeling, so the smallest code spreads along their maps to the
    # whole orbit.
    swap = relabeled((1, 0, *range(2, n)))
    rotate = relabeled((*range(1, n), 0))
    orbit, previous = codes, None
    while not np.array_equal(orbit, previous):
        orbit, previous = np.minimum(orbit, np.minimum(orbit[swap], orbit[rotate])), orbit
    table = _Outcomes(sum(bits, np.zeros_like(codes)), reach == (1 << n) - 1, orbit)
    for vector in table:
        vector.flags.writeable = False
    return table


def connected_outcome_mask(n: int) -> np.ndarray:
    """Boolean mask over all outcomes: is the decoded graph connected?
    Built once per ``n`` and shared between calls, so it is read-only."""
    return _outcomes(n).connected


def prob_connected(pmf: GraphPmf) -> float:
    """Probability that the realized graph is connected."""
    mask = connected_outcome_mask(pmf.n)
    return float(np.sum(pmf.probs[mask]))


def prob_complete(pmf: GraphPmf) -> float:
    """Probability that every edge is present."""
    return float(pmf.probs[-1])


def relabel_orbit_map(n: int) -> np.ndarray:
    """Canonical orbit representative of each outcome under node relabeling.

    Two outcomes share a representative exactly when some permutation of
    the node labels maps one edge set onto the other; the representative
    is the smallest code in the orbit.  Built once per ``n`` and shared
    between calls, so it is read-only.
    """
    return _outcomes(n).orbit
