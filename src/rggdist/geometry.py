"""Geometric and combinatorial primitives shared by the whole package.

Everything here is a pure function of its inputs: the circular-segment
function ``phi`` of the density kernels, triangle quantities derived
from three side lengths (the quartic positivity form, the
circumscribed-circle diameter, the obtuseness test), uniform sampling
inside a disk, and the node pairs of an edge vector in slot order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# Relative threshold below which Q is treated as degenerate (collinear
# points): Q <= eps * (rbar*rbar)**2 means the circumdiameter is undefined.
DEGENERATE_Q_EPS = 1e-14


@dataclass(frozen=True)
class DiskDomain:
    """Disk of the given diameter centered at the origin.

    Node locations are assumed independent and uniform over the disk, so the
    diameter is the only free parameter of the spatial model.
    """

    diameter: float = 1.0

    def __post_init__(self):
        d = self.diameter
        if not isinstance(d, (int, float)) or isinstance(d, bool):
            raise DomainError(f"diameter must be a real number, got {d!r}")
        d = float(d)
        if not math.isfinite(d) or d <= 0.0:
            raise DomainError(f"diameter must be positive and finite, got {d}")
        object.__setattr__(self, "diameter", d)

    @property
    def radius(self) -> float:
        return 0.5 * self.diameter


def _validate_length(name, value):
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise DomainError(f"{name} must be a finite nonnegative length, got {value!r}")
    return v


@dataclass(frozen=True)
class TriangleSides:
    """Three candidate inter-node distances.

    The lengths need not satisfy the triangle inequalities; whether they do
    is exactly what :func:`triangle_quantities` reports via the sign of Q.
    """

    r12: float
    r13: float
    r23: float

    def __post_init__(self):
        object.__setattr__(self, "r12", _validate_length("r12", self.r12))
        object.__setattr__(self, "r13", _validate_length("r13", self.r13))
        object.__setattr__(self, "r23", _validate_length("r23", self.r23))

    def sorted(self) -> tuple[float, float, float]:
        """Side lengths in ascending order."""
        a, b, c = sorted((self.r12, self.r13, self.r23))
        return a, b, c


class TriangleQuantities(NamedTuple):
    q: float
    longest: float
    circumdiameter: float | None
    obtuse: bool


def _phi_clipped(x, out=None, tmp=None):
    # phi(x) = arccos(x) - x*sqrt(1 - x**2) with x clamped to [0, 1]: twice
    # the area of the circular segment of a unit circle cut off by a chord
    # at distance x from the centre, falling from pi/2 to 0.  The density
    # kernels' hot path.  Works in two buffers, ``out`` (the clipped copy
    # of x, which may be x itself) and ``tmp``, both arrays of the shape of
    # x.  Either one left out is allocated, as an array so that 0-d and
    # scalar input work too (numpy scalars take no ``out=``).  Returns
    # ``out``.
    if out is None:
        out = np.empty(np.shape(x))
    if tmp is None:
        tmp = np.empty(np.shape(x))
    np.clip(x, 0.0, 1.0, out=out)
    x = out
    t = np.multiply(x, x, out=tmp)
    np.subtract(1.0, t, out=t)
    np.sqrt(t, out=t)
    np.multiply(x, t, out=t)
    np.arccos(x, out=x)
    return np.subtract(x, t, out=x)


def triangle_quantities(sides: TriangleSides) -> TriangleQuantities:
    """Quartic form Q, longest side, circumdiameter, and obtuseness.

    Q is computed in the factored form
    ``(a+b+c) * (-a+b+c) * (a-b+c) * (a+b-c)``, which avoids the
    catastrophic cancellation of the quartic expansion near collinear
    triples and is positive exactly when the triangle inequalities hold
    (it equals 16 times the squared triangle area).

    The circumdiameter ``2*a*b*c / sqrt(Q)`` is reported as ``None`` when
    ``Q <= DEGENERATE_Q_EPS * (longest*longest)**2``, the rule of the
    density kernels; the triple is then treated as degenerate.  The
    obtuseness flag compares the squared longest side with the sum of the
    other two squares and is reported regardless of degeneracy.
    """
    a, b, c = sides.sorted()
    q = (a + b + c) * (b + c - a) * (a + c - b) * (a + b - c)
    c2 = c * c
    obtuse = c2 > a * a + b * b
    if q <= DEGENERATE_Q_EPS * (c2 * c2) or c == 0.0:
        return TriangleQuantities(q=q, longest=c, circumdiameter=None, obtuse=obtuse)
    d = 2.0 * a * b * c / math.sqrt(q)
    return TriangleQuantities(q=q, longest=c, circumdiameter=d, obtuse=obtuse)


def _disk_map(r, v, x, y):
    """Points at radii ``r`` and angles ``2*pi*v`` into ``x`` and ``y``,
    through the tan half-angle map; ``v`` is overwritten.

    With ``s = tan(pi*v)``, the point is ``x = r*(1 - s**2)/(1 + s**2)``,
    ``y = r*2*s/(1 + s**2)``: its angle ``2*atan(s)`` equals ``2*pi*v``
    mod ``2*pi``, so uniform ``v`` in [0, 1) gives an exactly uniform
    angle, and ``tan(pi*v)`` is finite there.  The map needs no ``cos`` or
    ``sin``: numpy evaluates those through scalar libm, at five to ten
    times the cost of its vectorised ``tan`` on an AVX-512 host.  All four
    arrays broadcast to the shape of ``x``.
    """
    s = np.tan(np.multiply(math.pi, v, out=v), out=v)
    np.multiply(s, s, out=x)
    np.add(x, 1.0, out=y)
    np.subtract(1.0, x, out=x)
    np.divide(x, y, out=x)
    np.divide(np.add(s, s, out=s), y, out=y)
    np.multiply(r, x, out=x)
    np.multiply(r, y, out=y)


def sample_points_in_disk(domain: DiskDomain, rng: np.random.Generator, count: int) -> np.ndarray:
    """Vectorized disk sampler; returns an array of shape ``(count, 2)``.

    Draw order is one block of radii followed by one block of angles, so a
    given (generator state, count) pair always yields the same points.
    Angles go through the half-angle map of :func:`_disk_map`.
    """
    if count < 0:
        raise DomainError(f"count must be nonnegative, got {count}")
    u = rng.random(count)
    v = rng.random(count)
    rho = domain.radius * np.sqrt(u)
    x, y = np.empty(count), np.empty(count)
    _disk_map(rho, v, x, y)
    return np.column_stack((x, y))


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_array(n: int) -> np.ndarray:
    """All pairs in slot order as a 0-based integer array of shape (m, 2)."""
    if n < 2:
        raise DomainError(f"need at least two nodes, got n={n}")
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    return np.asarray(pairs, dtype=np.intp)
