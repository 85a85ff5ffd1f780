"""Deterministic one-dimensional adaptive Gauss-Kronrod quadrature.

The building block is a 15-point Kronrod rule with its embedded 7-point
Gauss rule; the difference of the two estimates on a panel is the panel's
error estimate.  Each panel adds its 15 weighted node values in node
order, without BLAS (:func:`_gk15_sums`), so its sums depend only on its
own integrand values, not on its batch or the BLAS threads.  Supplied
breakpoints, a NaN-padded ``(k, j)`` array for k intervals, become initial
panel edges (:func:`_pieces` cuts every adaptive integral at them), which
restores fast convergence on piecewise-smooth integrands.

One bisection loop (:func:`_bisect`) refines every adaptive integral:
the lockstep integrals of :func:`integrate_many` and the third-side lines
of :mod:`rggdist.distances`.  Each round it sums every integral's panels
with ``np.bincount`` and bisects, in one batch, the panels of every
integral above its error budget whose error exceeds their share of it.
There is no heap and no recombination pass: an integral's panels stay in
one order whatever shares the batch, so identical inputs give
bit-identical results.  It is also the one stop rule: each integral,
not the batch, has a cap on its bisections, and one still above its
budget when they run out raises the one :class:`AccuracyError`.

:func:`integrate_many` is the one entry point: a lone integral is the
case of one interval and one row of breakpoints.  Integrands are
evaluated in batches of abscissae.  Multi-dimensional integrals are built
by nesting :func:`integrate_many` calls, as the density integrators in
:mod:`rggdist.distances` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError

# 15-point Kronrod nodes on [-1, 1] (positive half; the rule is symmetric)
# with their weights, and the weights of the embedded 7-point Gauss rule,
# which lives on nodes 1, 3, 5, 7 of the positive half.
_XGK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG_HALF = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _build_rule():
    xs = [-x for x in _XGK_HALF[:-1]] + [0.0] + [x for x in reversed(_XGK_HALF[:-1])]
    wk = list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1]))
    # Gauss nodes sit at indices 1, 3, 5, 7, 9, 11, 13 of the sorted rule.
    wg = [0.0] * 15
    gauss_weights = list(_WG_HALF[:3]) + [_WG_HALF[3]] + list(reversed(_WG_HALF[:3]))
    for idx, w in zip(range(1, 14, 2), gauss_weights):
        wg[idx] = w
    return np.asarray(xs), np.asarray(wk), np.asarray(wg)


GK15_NODES, GK15_WEIGHTS, G7_WEIGHTS = _build_rule()

# Node-major like the integrand values: column 0 weighs the Kronrod sum,
# column 1 the Kronrod minus Gauss difference.
_RULE_WEIGHTS = np.stack([GK15_WEIGHTS, GK15_WEIGHTS - G7_WEIGHTS], axis=1)[..., None]


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and refinement budget for :func:`integrate_many`.

    ``max_subdivisions``, an ``int`` (a bool is refused), bounds the
    number of panel bisections per integral.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise DomainError("tolerances must be finite")
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise DomainError("at least one of abs_tol, rel_tol must be positive")
        if type(self.max_subdivisions) is not int or self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be a positive integer, got {self.max_subdivisions!r}"
            )


def _gk15_sums(vals, scale, terms=None):
    """Kronrod values and |Kronrod - Gauss| errors of panels with node-major
    integrand values ``vals`` (15, panels), times ``scale`` (the Jacobian
    of mapping [-1, 1] onto each panel); ``terms`` is an optional buffer.

    The weighted values are added in node order: numpy reduces the leading
    axis of a C-ordered ``(15, 2, panels)`` array row by row, elementwise.
    The axis of the two sums keeps it so for one panel, where numpy would
    sum a lone reduction axis pairwise.
    """
    terms = np.multiply(_RULE_WEIGHTS, vals[:, None], out=terms)
    sums = np.add.reduce(terms, axis=0)
    sums *= scale
    return sums[0], np.abs(sums[1])


def _panel_batch(f, owners, los, his):
    """Evaluate the embedded rule on a batch of panels in one integrand call.

    Returns per-panel Kronrod values and |Kronrod - Gauss| error estimates.
    """
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    pts = mid + half * GK15_NODES[:, None]  # node-major: (15, panels)
    vals = np.asarray(f(pts.ravel(), np.tile(owners, len(GK15_NODES))), dtype=float)
    return _gk15_sums(vals.reshape(pts.shape), half)


def _bisect(rule, lo, hi, owner, count, budget_of, max_splits):
    """Refine the pieces ``[lo, hi]`` of ``count`` integrals by bisection.

    ``owner`` holds each piece's integral and ``rule(lo, hi, owner)``
    returns the pieces' values and error estimates.  Each round sums every
    integral's pieces with ``np.bincount``; an integral whose error exceeds
    ``budget_of(values)`` bisects each piece whose error exceeds that budget
    divided by its piece count.  ``max_splits`` caps each integral's
    bisections: one that would pass it bisects only as many of those
    pieces as it has bisections left, largest error first.  Kept pieces
    come first, then the new lower halves, then the upper halves, so each
    integral's pieces come in the same order whatever shares the batch.

    Returns the pieces as (lo, hi, owner, value, error) arrays once every
    integral meets its budget.  Raises :class:`AccuracyError`, carrying
    every integral's value and error estimate, once those above it have
    no bisections left.
    """
    val, err = rule(lo, hi, owner)
    splits = np.zeros(count, dtype=np.int64)
    while True:
        values = np.bincount(owner, weights=val, minlength=count)
        errors = np.bincount(owner, weights=err, minlength=count)
        budget = budget_of(values)
        over = errors > budget
        if not np.any(over):
            return lo, hi, owner, val, err
        npieces = np.bincount(owner, minlength=count)
        split = over[owner] & (err > budget[owner] / np.maximum(npieces[owner], 1))
        # Rank each integral's wanted pieces, largest error first (ties in
        # piece order), and keep the ranks below its bisections left.
        wanted = np.flatnonzero(split)
        wanted = wanted[np.lexsort((-err[wanted], owner[wanted]))]
        own = owner[wanted]
        rank = np.arange(len(wanted)) - np.searchsorted(own, own)
        split[wanted[rank >= max_splits - splits[own]]] = False
        if not np.any(split):
            raise AccuracyError(
                f"{np.count_nonzero(over)} of {count} integrals did not converge within "
                f"{max_splits} subdivisions (worst error estimate {errors[over].max():.3e})",
                value=values,
                error_estimate=errors,
            )
        splits += np.bincount(owner[split], minlength=count)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_own = np.concatenate([owner[split], owner[split]])
        new_val, new_err = rule(new_lo, new_hi, new_own)
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        owner = np.concatenate([owner[~split], new_own])
        val = np.concatenate([val[~split], new_val])
        err = np.concatenate([err[~split], new_err])


def _pieces(lo, hi, breaks):
    """Intervals ``[lo[i], hi[i]]`` cut at the points in row i of the
    ``(k, j)`` array ``breaks``: (lo, hi, owner) arrays of the pieces,
    interval by interval, ascending within each.  Points not strictly
    inside their interval (NaN padding too), repeated points and intervals
    with ``hi <= lo`` make no piece."""
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    # A point outside its interval moves onto the upper end: an empty piece.
    cuts = np.where((breaks > lo) & (breaks < hi), breaks, hi)
    edges = np.sort(np.concatenate([lo, cuts, hi], axis=1), axis=1)
    owner = np.repeat(np.arange(len(lo)), edges.shape[1] - 1)
    piece_lo, piece_hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    keep = (piece_hi > piece_lo) & (hi > lo)[owner, 0]
    return piece_lo[keep], piece_hi[keep], owner[keep]


def integrate_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    intervals: np.ndarray,
    settings: QuadratureSettings = QuadratureSettings(),
    breakpoints: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptively integrate many 1-d integrals in lockstep.

    ``intervals`` holds the k integrals' ends, shape ``(k, 2)``, and
    ``breakpoints``, if given, the points :func:`_pieces` cuts them at,
    shape ``(k, j)``, NaN-padded.  ``f(x, which)`` receives a flat batch of
    abscissae together with the index of the integral each abscissa
    belongs to and must return the integrand values.  Every round of
    :func:`_bisect` evaluates the bisected panels of all integrals in one
    call of ``f``; each integral is the ``np.bincount`` sum of its panels.
    Returns (values, error_estimates) arrays.

    Raises :class:`DomainError` for misshapen (ragged) input or non-finite
    ends, and (from :func:`_bisect`) :class:`AccuracyError`, carrying the
    values and estimates, if any integral would need more than
    ``max_subdivisions`` bisections to meet ``max(abs_tol, rel_tol * |value|)``.
    """
    m = len(intervals)
    try:
        ends = np.asarray(intervals, dtype=float).reshape(m, 2)
        breaks = np.asarray(np.zeros((m, 0)) if breakpoints is None else breakpoints, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"intervals must be (k, 2) ends and breakpoints (k, j): {exc}") from None
    if breaks.ndim != 2 or len(breaks) != m:
        raise DomainError(f"breakpoints must have shape ({m}, j), got {breaks.shape}")
    if not np.isfinite(ends).all():
        raise DomainError(f"interval ends must be finite, got {ends[~np.isfinite(ends)][0]}")
    init_lo, init_hi, init_owner = _pieces(ends[:, 0], ends[:, 1], breaks)
    if not len(init_owner):
        return np.zeros(m), np.zeros(m)

    _, _, owner, val, err = _bisect(
        lambda lo, hi, own: _panel_batch(f, own, lo, hi),
        init_lo, init_hi, init_owner, m,
        lambda v: np.maximum(settings.abs_tol, settings.rel_tol * np.abs(v)),
        settings.max_subdivisions,
    )
    totals = np.bincount(owner, weights=val, minlength=m)
    return totals, np.bincount(owner, weights=err, minlength=m)
