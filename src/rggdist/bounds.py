"""Upper bounds on graph entropy from entropies of smaller graphs.

Subadditivity of joint entropy over the m-node subsets of an n-node graph
(with every pair covered equally often, and all subset entropies equal by
exchangeability) gives

    H(G_n) / (n*(n-1))  <=  H(G_m) / (m*(m-1))      for 2 <= m < n,

i.e. the per-edge entropy is nonincreasing in the number of nodes.
Chaining the inequality over consecutive m yields a family of upper
bounds on H(G_n), each computable from a smaller graph; larger m gives a
tighter bound when the entropies are exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DomainError

# Slack, in bits per edge, before supplied entropies count as non-monotonic.
_MONOTONIC_TOLERANCE_BITS = 1e-9


def shearer_factor(n: int, m: int) -> Fraction:
    """Exact rational factor ``n*(n-1) / (m*(m-1))`` with 2 <= m < n.

    Equals C(n, m) / C(n-2, m-2): the number of m-subsets over the number
    of them containing a fixed pair.
    """
    if not (isinstance(n, int) and isinstance(m, int)):
        raise DomainError("shearer_factor arguments must be integers")
    if m < 2 or m >= n:
        raise DomainError(f"need 2 <= m < n, got n={n}, m={m}")
    return Fraction(n * (n - 1), m * (m - 1))


@dataclass(frozen=True)
class BoundEntry:
    m: int
    h_m_bits: float
    bound_on_h_n_bits: float
    provenance: str


@dataclass(frozen=True)
class BoundChain:
    """Upper bounds on H(G_n) derived from smaller-graph entropies.

    Entries are ordered by decreasing m (tightest candidate first when the
    inputs are exact).  ``monotonic`` records whether the supplied values
    respect the per-edge inequality; a violation beyond tolerance also
    emits a warning, since it indicates numerical error upstream, but is
    not an error: estimates may legitimately wobble.
    """

    n: int
    entries: tuple[BoundEntry, ...]
    tightest_bound_bits: float
    monotonic: bool


def _check_chain_n(n) -> None:
    """Refuse a node count that no bound chain covers."""
    if not isinstance(n, int) or n < 3:
        raise DomainError(f"n must be an integer >= 3, got {n!r}")


def bound_chain(
    n: int,
    h_values: Mapping[int, float],
    provenance: Mapping[int, str] | None = None,
) -> BoundChain:
    """Build the chain of upper bounds on H(G_n) from given H(G_m) values.

    ``h_values`` maps m to an entropy in bits and must contain m=2; any
    other m with 2 <= m < n is used as well.  Factors stay exact rationals
    until the final multiplication.
    """
    _check_chain_n(n)
    if 2 not in h_values:
        raise DomainError("h_values must contain the two-node entropy (m=2)")
    for m, h in h_values.items():
        if not isinstance(m, int) or not (2 <= m < n):
            raise DomainError(f"h_values key {m!r} must be an integer in [2, n)")
        if not math.isfinite(float(h)) or float(h) < 0:
            raise DomainError(f"entropy for m={m} must be finite and nonnegative")

    provenance = dict(provenance or {})
    ms = sorted(h_values, reverse=True)
    entries = tuple(
        BoundEntry(
            m=m,
            h_m_bits=float(h_values[m]),
            bound_on_h_n_bits=float(shearer_factor(n, m) * Fraction(float(h_values[m]))),
            provenance=provenance.get(m, "unspecified"),
        )
        for m in ms
    )

    monotonic = True
    ascending = sorted(h_values)
    for small, large in zip(ascending, ascending[1:]):
        per_edge_small = h_values[small] / (small * (small - 1) / 2)
        per_edge_large = h_values[large] / (large * (large - 1) / 2)
        if per_edge_large > per_edge_small + _MONOTONIC_TOLERANCE_BITS:
            monotonic = False
            warnings.warn(
                f"per-edge entropy increases from m={small} to m={large} "
                f"({per_edge_small:.6g} -> {per_edge_large:.6g} bits/edge); "
                "the supplied entropies are numerically inconsistent",
                stacklevel=2,
            )
    tightest = min(e.bound_on_h_n_bits for e in entries)
    return BoundChain(n=n, entries=entries, tightest_bound_bits=tightest, monotonic=monotonic)
