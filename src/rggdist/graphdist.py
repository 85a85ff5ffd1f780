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
probabilities.  This module only assembles pmfs: the moments are
integrated in :mod:`rggdist.distances`, behind one entry
(:func:`rggdist.distances._edge_moments`), which :func:`_exact_pmfs`, the
one exact entry behind :func:`exact_pmf` and every command, calls once.
Near-zero entries may come out epsilon-negative from
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

from .connection import ConnectionModel
from .distances import _edge_moments
from .errors import AccuracyError, DomainError, UnsupportedError
from .geometry import DiskDomain, pair_array, pair_count
from .quadrature import QuadratureSettings

# Settings of the exact pmfs when none are given: the tolerance per pmf
# entry and the bisections per integral.  ``--abs-tol`` replaces the first.
DEFAULT_PMF_SETTINGS = QuadratureSettings(abs_tol=1e-4, rel_tol=0.0, max_subdivisions=600)

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


def pmf_n2(
    model: ConnectionModel, domain: DiskDomain, quad: QuadratureSettings | None = None
) -> GraphPmf:
    """Exact two-node pmf: a single Bernoulli edge of probability M1.

    ``quad`` is read as by :func:`pmf_n3`, whose M1 this is at any
    settings.  ``ingredients`` holds ``m1``, its error estimate ``e1`` and
    the per-entry estimates ``entry_errors``, as :func:`pmf_n3` reports them.
    """
    return exact_pmf(2, model, domain, quad)


def pmf_n3(
    model: ConnectionModel, domain: DiskDomain, quad: QuadratureSettings | None = None
) -> GraphPmf:
    """Exact three-node pmf over the eight edge-vector outcomes.

    The per-entry absolute tolerance is ``quad.abs_tol`` (default
    ``DEFAULT_PMF_SETTINGS``), and ``quad.max_subdivisions`` caps each
    integral's bisections; ``quad.rel_tol`` is unused, so settings with
    ``abs_tol == 0`` are refused.  The reported ``error_estimate`` is
    the sum of the per-entry estimates.  Entries are clipped to [0, 1];
    clipping never exceeds the per-entry estimate.

    The moments come from :func:`rggdist.distances._edge_moments`: M1 at
    tight pair settings whatever ``quad`` says, so it is :func:`pmf_n2`'s,
    and M2 and M3 each to a quarter of the entry tolerance.
    ``ingredients`` holds the moments, their error estimates ``e1``,
    ``e2``, ``e3``, the per-entry estimates ``entry_errors`` (a tuple in
    outcome order, summing to ``error_estimate``), and the number of
    third-side ``lines`` behind M3, each of which met its budget (a line
    that cannot raises :class:`AccuracyError`).

    This is the one-model case of :func:`_exact_pmfs`, where every
    model's M3 comes from one pass over the longest side in which each
    model is a column, cut at all their ranges and breakpoints.  A row of
    such a sweep, hard or weighted, can therefore differ from a lone
    ``pmf_n3`` of its model, within their error estimates, and its
    ``lines`` count the whole pass's lines.  Its M1 and M2 are those of
    the lone ``pmf_n3``, byte for byte.
    """
    return exact_pmf(3, model, domain, quad)


def _exact_pmfs(sizes, models, domain: DiskDomain, quad: QuadratureSettings | None = None):
    """``{n: [exact n-node pmf of each model, in order]}`` for each node
    count n in ``sizes`` (see :func:`pmf_n2` and :func:`pmf_n3`), from one
    call of :func:`rggdist.distances._edge_moments`.  Refuses any n other
    than 2 and 3, and ``abs_tol == 0``, before any integral; raises on the
    first integral that cannot converge, returning no partial table.
    """
    for n in sizes:
        if n not in (2, 3):
            raise UnsupportedError(
                f"exact pmf is only available for n in (2, 3); got n={n}. "
                "Use the Monte Carlo estimator for larger graphs."
            )
    quad = DEFAULT_PMF_SETTINGS if quad is None else quad
    if quad.abs_tol == 0:
        raise DomainError("exact pmfs need a positive abs_tol; rel_tol is unused")
    if not sizes:
        return {}
    k = max(pair_count(n) for n in sizes)
    rows = _edge_moments(models, domain, k, quad.abs_tol / 4.0, quad.max_subdivisions)
    return {n: [_pmf_from_moments(n, *row) for row in rows] for n in sorted(sizes, reverse=True)}


def _pmf_from_moments(n, moments, errors, lines) -> GraphPmf:
    """The n-node pmf (n = 2 or 3) from the first k = ``pair_count(n)`` of
    the edge moments M1, M2, ... and their error estimates; ``lines``
    counts the third-side lines behind M3."""
    k = pair_count(n)
    m, e = (1.0, *moments[:k]), (0.0, *errors[:k])
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
    if k == 3:
        ingredients["lines"] = lines
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
