"""Closed-form distance densities for uniform points in a disk.

Covers the density of the distance between two uniform points, the joint
density of the three pairwise distances among three uniform points, and
the conditional form behind it: the density of the smallest concentric
circle enclosing all three points, and the conditional joint density
given that diameter.  Integrating the conditional form against the
enclosing-diameter density reproduces the closed form exactly, which
makes :func:`joint_pdf3_via_conditioning_many` an independent numerical
oracle for :func:`joint_pdf3`.  The paper's lemmas behind the
conditional form, the distance density from a point on a circle and the
trapezoidal angle density, live with the tests as reference code.

The joint density splits into four cases.  Writing ``rbar`` for the
longest side and ``d`` for the circumscribed-circle diameter
``2*r12*r13*r23/sqrt(Q)``:

* obtuse triangle (``2*rbar**2 > sum of squares``) with ``d <= D``,
* acute-or-right triangle with ``d <= D``,
* obtuse triangle with ``d > D`` (the enclosing circle is the one whose
  diameter is the longest side, so the triple is still realizable),
* acute triangle with ``d > D``: density zero, because the minimal
  enclosing circle of an acute triangle is its circumcircle.

The density is continuous across the case boundaries but its gradient is
not, and it blows up like ``1/sqrt(Q)`` toward degenerate (collinear)
triples; that rim is integrable.  The rim lies at the two ends ``|p-q|``
and ``p+q`` of every third-side line.  The line integrator below
therefore maps each whole line once through a cosine substitution whose
Jacobian vanishes at both ends and absorbs the rim singularity, and cuts
the substituted line at the analytic case-boundary points, which keeps
every piece smooth however finely it is bisected.  A line meets its
budget within ``_LINE_MAX_SPLITS`` bisections, or the computation raises
:class:`AccuracyError` naming the line's p and q.

The exact three-node pmf needs two product moments,
``M2 = E[p(R12) p(R13)]`` and ``M3 = E[p(R12) p(R13) p(R23)]``, with every
edge axis set up by one rule that the caller derives from the connection
model (:func:`rggdist.graphdist._edge_axis`): a hard disk truncates it at
``min(r0, D)``, any other model weights [0, D] by its connection
probability, and it splits at the model's breakpoints.

* M2 needs no three-distance density.  Given node 1 at distance rho from
  the centre, nodes 2 and 3 connect to it independently with probability
  ``g(rho)``, the coverage function, so ``M2 = E[g**2]``
  (:func:`_coverage_moment`).  For a hard disk ``g`` is a lens area in
  closed form (:func:`_lens_area`); otherwise it is a one-dimensional
  integral over the circles about node 1 (:func:`_arc_integrals`).
* M3 of every model is one pass over the longest side
  (:func:`_longest_side_moment`): the density is symmetric in its three
  sides, so M3 is three times its integral over the region where a chosen
  side is the longest, with the edge weight on all three axes.  For a
  hard disk that is the distribution function of the longest side at
  ``min(r0, D)``; one pass, cut at every range a sweep asks for, reads M3
  at each from the cumulative panel sums.

Both closed-form kernels (:func:`_pdf3_batch` and the conditional
:func:`_cond_pdf3_batch`) run in one straight-line pass.  A 3-element
min/max network sorts the sides of every triple; each phi (or arccos)
term is evaluated once on every triple and shared by the branches that
use it; a masked select (``np.where``, or ``np.copyto`` in place) picks
the branch; and a final masked select zeroes the triples outside the
support instead of gathering the support first.  Every formula keeps its
operation order, so the values are bit-identical to evaluating each
branch on the gathered support.

Memory: the line integrator (:func:`_line_segments`) evaluates the
density ``_LINE_BLOCK`` (1024) pieces at a time, 15,360 points, and sums
each block's GK15 rules (:func:`rggdist.quadrature._gk15_sums`) right
after evaluating it, so it keeps no integrand values beyond the block.
Every block runs in one :class:`_Workspace` of preallocated buffers: nine
float and four bool arrays for the kernel, the block's abscissae and its
weighted rule terms, about 1.5 MiB per thread in all.
Each thread keeps its own workspace (``threading.local``) and reuses it
across blocks, refinement rounds and calls, so the integrator allocates
nothing of block size.  A kernel result computed in a workspace is a view into it and
stays valid only until the next kernel call on that thread.  Without a
workspace (``joint_pdf3_values`` and the scalar entry points) the kernel
allocates its buffers per call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AccuracyError, DomainError
from .geometry import (
    DEGENERATE_Q_EPS,
    DiskDomain,
    TriangleSides,
    _phi_clipped,
)
from .quadrature import (
    GK15_NODES,
    QuadratureSettings,
    _bisect,
    _gk15_sums,
    _panel_batch,
    _pieces,
    integrate_many,
)

_PI2 = math.pi * math.pi

_NODES = len(GK15_NODES)

# How close, in u, the line integrator's nodes may come to a degenerate
# end of a third-side line (see :func:`_line_segments`).  Near such an end
# the density is ``A/sqrt(s) + B + O(sqrt(s))`` in the distance s from it,
# and ``s = (b - a)*sin(pi*u/2)**2``, so the substituted integrand is
# ``h(u) = pi*A*sqrt(b - a) + O(u)``: it tends to a constant.  Nodes held
# at u = eps in place of u < eps therefore move the integral by at most
# ``max|h'|*eps**2/2``: about 1e-12 at eps = 1e-5 on the lines of the
# end-break test, and already 4.8e-11 at 1e-4.  Nearer the end, s falls
# toward the spacing of the floats there (about 1e-16): at u = 1e-5, s
# is 2.5e-10*(b - a), a relative rounding of 4e-7/(b - a); at u = 1e-6
# the rounding shows in the line values (3.5e-11); and with no clamp a
# node can round onto the end itself, where the kernel reads
# Q <= DEGENERATE_Q_EPS*c**4 and returns 0, so a sliver piece at the end
# loses its mass (up to 1e-7) and reports an error of 0.
_END_CLAMP_U = 1e-5

# Bisections each third-side line may make: the benchmark and CI commands
# need at most 5, ``--abs-tol 1e-10`` 13 and the 41-edge cell grid 22.
_LINE_MAX_SPLITS = 64

# Pieces (lines of 15 GK15 nodes) per density-kernel block of the line
# integrator: 1024 keeps each workspace buffer at 15,360 doubles (120 KiB),
# under glibc's default 128 KiB mmap threshold.
_LINE_BLOCK = 1024


class JointPdfCase(Enum):
    """Which branch of the three-distance joint density applied."""

    OBTUSE_INSCRIBED = "obtuse_inscribed"
    ACUTE_INSCRIBED = "acute_inscribed"
    OBTUSE_OUTSCRIBED = "obtuse_outscribed"
    ZERO = "zero"


_CASE_BY_CODE = {
    0: JointPdfCase.ZERO,
    1: JointPdfCase.OBTUSE_INSCRIBED,
    2: JointPdfCase.ACUTE_INSCRIBED,
    3: JointPdfCase.OBTUSE_OUTSCRIBED,
}


def _as_length_array(name, value):
    arr = np.asarray(value, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError(f"{name} must be finite and nonnegative, got {value!r}")
    return arr


# ---------------------------------------------------------------------------
# two-point density
# ---------------------------------------------------------------------------

def pair_pdf(r, domain: DiskDomain):
    """Density of the distance between two uniform points in the disk.

    ``(16*r / (pi*D**2)) * phi(r/D)`` on [0, D], zero beyond D.  Accepts
    scalars or arrays; negative or non-finite distances raise.
    """
    arr = _as_length_array("r", r)
    D = domain.diameter
    inside = arr <= D
    out = np.where(inside, 16.0 * arr / (math.pi * D * D) * _phi_clipped(arr / D), 0.0)
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# three-point joint density (closed form)
# ---------------------------------------------------------------------------

# Float and bool buffers one :func:`_pdf3_batch` call draws.
_KERNEL_FLOATS = 9
_KERNEL_FLAGS = 4


class _Workspace:
    """One thread's preallocated buffers for the line integrator.

    ``floats``/``flags`` serve the density kernel (see :func:`_buffers`),
    ``nodes`` and ``terms`` hold a block's third sides and weighted rule
    terms (and, until the rule sums, the substitution's Jacobian);
    :func:`_line_segments` sums each block before the next.
    """

    def __init__(self, lines):
        self.lines = lines
        self.floats = [np.empty(lines * _NODES) for _ in range(_KERNEL_FLOATS)]
        self.flags = [np.empty(lines * _NODES, bool) for _ in range(_KERNEL_FLAGS)]
        self.nodes = np.empty(lines * _NODES)
        self.terms = np.empty(lines * _NODES * 2)


_local = threading.local()


def _workspace():
    """This thread's workspace, rebuilt only if ``_LINE_BLOCK`` changed."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.lines != _LINE_BLOCK:
        ws = _local.workspace = _Workspace(_LINE_BLOCK)
    return ws


def _buffers(ws, n):
    """Source of ``n``-element scratch arrays for one kernel call.

    ``take()`` returns a float buffer and ``take(bool)`` a flag buffer:
    fresh arrays without a workspace, else the workspace's buffers in
    turn, so results live in the workspace until its next kernel call.
    """
    if ws is None:
        return lambda dtype=float: np.empty(n, dtype)
    pools = {float: iter(ws.floats), bool: iter(ws.flags)}
    return lambda dtype=float: next(pools[dtype])[:n]


def _sorted_sides(r12, r13, r23, ws=None):
    """Sides sorted ascending per triple by a min/max network, broadcast
    and flattened, so that densities built on them are exactly
    permutation invariant.  Returns (a, b, c, Q, broadcast shape, take),
    where ``take`` hands out the call's further buffers (:func:`_buffers`)."""
    x = np.asarray(r12, float)
    y = np.asarray(r13, float)
    z = np.asarray(r23, float)
    shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
    take = _buffers(ws, math.prod(shape))
    a, b, c, q, t = (take() for _ in range(5))
    lo = np.minimum(x, y, out=q.reshape(shape))
    hi = np.maximum(x, y, out=t.reshape(shape))
    np.minimum(lo, z, out=a.reshape(shape))
    np.maximum(hi, z, out=c.reshape(shape))
    np.maximum(lo, np.minimum(hi, z, out=b.reshape(shape)), out=b.reshape(shape))
    # Q = (a+b+c) * (b+c-a) * (a+c-b) * (a+b-c), left to right, in two buffers.
    np.add(a, b, out=q)
    q += c
    np.add(b, c, out=t)
    t -= a
    q *= t
    q *= np.subtract(np.add(a, c, out=t), b, out=t)
    q *= np.subtract(np.add(a, b, out=t), c, out=t)
    return a, b, c, q, shape, take


def _pdf3_batch(r12, r13, r23, D, with_case=False, ws=None):
    """Four-branch evaluation in one pass; assumes inputs already validated.

    Every quantity is computed on every triple: the circumdiameter, the
    obtuse and inscribed flags, and the six phi terms ``phi(a/D)``,
    ``phi(b/D)``, ``phi(c/D)``, ``phi(a/d)``, ``phi(b/d)``, ``phi(c/d)``,
    each once (the obtuse extra term reuses ``phi(c/d)``, the outscribed
    branch ``phi(c/D)``).  ``np.where`` picks the branch (as in-place
    ``np.copyto``), and a final one zeroes the triples outside the
    support, whose NaN and infinite intermediates are never read.  Each
    formula keeps the operation order of its closed form, so the values
    do not depend on which triples share the batch.  Every temporary is
    written through ``out=`` into the call's buffers (:func:`_buffers`):
    fresh arrays, or with a :class:`_Workspace` ``ws`` its preallocated
    ones, and then the result is a view into ``ws`` that the next call
    overwrites.  With ``with_case`` also returns uint8 case codes (0
    outside the support).
    """
    a, b, c, q, shape, take = _sorted_sides(r12, r13, r23, ws)
    d, s_outer, s_inner, tmp = take(), take(), take(), take()
    valid, obtuse, inscribed, flag = take(bool), take(bool), take(bool), take(bool)
    scale = _PI2 * D**4
    with np.errstate(all="ignore"):
        # valid = (c > 0) & (c <= D) & (q > DEGENERATE_Q_EPS * (c*c)**2)
        np.greater(c, 0.0, out=valid)
        valid &= np.less_equal(c, D, out=flag)
        c4 = np.multiply(c, c, out=tmp)
        np.square(c4, out=c4)
        valid &= np.greater(q, np.multiply(DEGENERATE_Q_EPS, c4, out=c4), out=flag)
        # obtuse = c*c > a*a + b*b
        sum_sq = np.multiply(a, a, out=s_outer)
        sum_sq += np.multiply(b, b, out=s_inner)
        np.greater(np.multiply(c, c, out=tmp), sum_sq, out=obtuse)
        np.multiply(2.0, a, out=d)
        d *= b
        d *= c
        d /= np.sqrt(q, out=q)
        np.less_equal(d, D, out=inscribed)

        # The six phi terms, each once; q holds the ratios, a and b take
        # phi(c/D) and phi(c/d) once their own terms are done.
        _phi_clipped(np.divide(a, D, out=q), out=s_outer, tmp=tmp)
        _phi_clipped(np.divide(a, d, out=q), out=s_inner, tmp=tmp)
        s_outer += _phi_clipped(np.divide(b, D, out=q), out=q, tmp=tmp)
        s_inner += _phi_clipped(np.divide(b, d, out=q), out=q, tmp=tmp)
        phi_cD = _phi_clipped(np.divide(c, D, out=q), out=a, tmp=tmp)
        phi_cd = _phi_clipped(np.divide(c, d, out=q), out=b, tmp=tmp)
        s_outer += phi_cD
        s_inner += phi_cd

        # Obtuse, d > D: (128*d / (pi**2 * D**4)) * phi(c/D).
        outscribed = phi_cD
        outscribed *= np.divide(np.multiply(d, 128.0, out=q), scale, out=q)

        # d <= D: pref * (s_outer - d2D2*s_inner - pi/2*(1 - d2D2)), plus
        # pref * 2 * d2D2 * phi(c/d) where obtuse.
        d2D2 = np.divide(d, D, out=q)
        d2D2 *= d2D2
        pref = np.divide(np.multiply(d, 64.0, out=c), scale, out=c)
        s_inner *= d2D2
        s_outer -= s_inner
        half_pi_term = np.subtract(1.0, d2D2, out=s_inner)
        half_pi_term *= 0.5 * math.pi
        s_outer -= half_pi_term
        inscribed_vals = np.multiply(s_outer, pref, out=s_outer)
        obtuse_extra = np.multiply(pref, 2.0, out=s_inner)
        obtuse_extra *= d2D2
        obtuse_extra *= phi_cd
        np.copyto(obtuse_extra, 0.0, where=np.logical_not(obtuse, out=flag))
        inscribed_vals += obtuse_extra

        vals = outscribed
        np.copyto(vals, 0.0, where=flag)
        np.copyto(vals, inscribed_vals, where=inscribed)
        np.maximum(vals, 0.0, out=vals)
        np.copyto(vals, 0.0, where=np.logical_not(valid, out=flag))
    out = vals.reshape(shape)
    if with_case:
        codes = np.where(
            valid,
            np.where(inscribed, np.where(obtuse, 1, 2), np.where(obtuse, 3, 0)),
            0,
        ).astype(np.uint8)
        return out, codes.reshape(shape)
    return out


def joint_pdf3(sides: TriangleSides, domain: DiskDomain) -> float:
    """Joint density of the three pairwise distances at the given triple.

    Returns 0 outside the support (triangle inequalities violated, or the
    longest side exceeding the disk diameter, or the acute/outscribed
    case).  Exactly symmetric in the three side lengths.
    """
    val = _pdf3_batch(
        np.float64(sides.r12), np.float64(sides.r13), np.float64(sides.r23), domain.diameter
    )
    return float(val)


def classify_triple(sides: TriangleSides, domain: DiskDomain) -> JointPdfCase:
    """Which case of the joint density applies at this triple."""
    _, code = _pdf3_batch(
        np.float64(sides.r12), np.float64(sides.r13), np.float64(sides.r23),
        domain.diameter, with_case=True,
    )
    return _CASE_BY_CODE[int(code)]


def joint_pdf3_values(r12, r13, r23, domain: DiskDomain) -> np.ndarray:
    """Vectorized :func:`joint_pdf3` over broadcastable arrays."""
    a = _as_length_array("r12", r12)
    b = _as_length_array("r13", r13)
    c = _as_length_array("r23", r23)
    return _pdf3_batch(a, b, c, domain.diameter)


# ---------------------------------------------------------------------------
# conditional form (given the enclosing diameter s)
# ---------------------------------------------------------------------------

def enclosing_diameter_pdf(s, domain: DiskDomain):
    """Density of the smallest concentric-circle diameter enclosing three
    uniform points: ``6*s**5 / D**6`` on [0, D]."""
    arr = np.asarray(s, dtype=float)
    D = domain.diameter
    if np.any(~np.isfinite(arr)) or np.any(arr < 0) or np.any(arr > D):
        raise DomainError(f"s must lie in [0, D], got {s!r}")
    out = 6.0 * arr**5 / D**6
    if np.isscalar(s) or arr.ndim == 0:
        return float(out)
    return out


def _cond_pdf3_batch(r12, r13, r23, s):
    """Conditional joint density given the enclosing diameter equals s.

    Three branches: ``d <= s`` uses the sum of arccos(r/s) minus pi/2;
    ``d > s`` is possible only for obtuse triangles (the vertex at the
    obtuse angle cannot lie on the circle), and acute triples with
    ``d > s`` have density zero.  One pass like :func:`_pdf3_batch`:
    ``arccos(c/s)`` is computed once and shared by both branches, and the
    triples outside the support are zeroed at the end.
    """
    a, b, c, q, shape, _ = _sorted_sides(r12, r13, r23)
    # Contiguous, so that ``s**4`` runs the same numpy loop on every element.
    s_arr = np.ascontiguousarray(np.broadcast_to(np.asarray(s, float), shape)).reshape(-1)
    with np.errstate(all="ignore"):
        valid = (c > 0.0) & (c <= s_arr) & (q > DEGENERATE_Q_EPS * (c * c) ** 2)
        d = 2.0 * a * b * c / np.sqrt(q)
        obtuse = c * c > a * a + b * b
        acos_c = np.arccos(np.clip(c / s_arr, 0.0, 1.0))
        acos_sum = (
            np.arccos(np.clip(a / s_arr, 0.0, 1.0))
            + np.arccos(np.clip(b / s_arr, 0.0, 1.0))
            + acos_c
        )
        pref = 64.0 * d / (3.0 * _PI2 * s_arr**4)
        vals = np.where(
            d <= s_arr,
            pref * (acos_sum - 0.5 * math.pi),
            np.where(obtuse, 2.0 * pref * acos_c, 0.0),
        )
        out = np.where(valid, np.maximum(vals, 0.0), 0.0)
    return out.reshape(shape)


_VIA_CONDITIONING_SETTINGS = QuadratureSettings(
    abs_tol=0.0, rel_tol=1e-9, max_subdivisions=300
)


def joint_pdf3_via_conditioning_many(
    r12, r13, r23, domain: DiskDomain,
    settings: QuadratureSettings = _VIA_CONDITIONING_SETTINGS,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint density at each triple, reconstructed by integrating the
    conditional density against the enclosing-diameter density.

    Mathematically identical to :func:`joint_pdf3_values`; computed by
    adaptive quadrature over the diameter, with each interval split at the
    circumdiameter where the conditional density changes branch, and all
    triples integrated in lockstep.  Serves as an independent oracle for
    the closed form.  Returns (values, error estimates); raises
    :class:`AccuracyError` if the quadrature cannot converge.
    """
    r12 = _as_length_array("r12", r12).ravel()
    r13 = _as_length_array("r13", r13).ravel()
    r23 = _as_length_array("r23", r23).ravel()
    if not (len(r12) == len(r13) == len(r23)):
        raise DomainError("r12, r13, r23 must have equal lengths")
    a, b, c, q, _, _ = _sorted_sides(r12, r13, r23)
    # [c, D] cut at the circumdiameter d; empty if c > D, and [c, 0] for a
    # degenerate triple, whose d is infinite or NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 2.0 * a * b * c / np.sqrt(q)
    hi = np.where(q > DEGENERATE_Q_EPS * (c * c) ** 2, domain.diameter, 0.0)

    def integrand(s, which):
        conditional = _cond_pdf3_batch(r12[which], r13[which], r23[which], s)
        return conditional * enclosing_diameter_pdf(s, domain)

    return integrate_many(integrand, np.column_stack([c, hi]), settings, d[:, None])


# ---------------------------------------------------------------------------
# integration engine for the joint density
# ---------------------------------------------------------------------------

def _inner_breakpoint_candidates(p, q, D):
    """Interior points where the joint density changes branch along the
    third-side axis, for fixed first two sides p, q.

    Right-angle crossings sit at ``sqrt(|p**2 - q**2|)`` and
    ``sqrt(p**2 + q**2)``; the circumdiameter equals D at the roots of a
    quadratic in the squared third side.
    """
    p2 = p * p
    q2 = q * q
    m2 = np.maximum(p2, q2)
    n2 = np.minimum(p2, q2)
    right_lo = np.sqrt(np.maximum(m2 - n2, 0.0))
    right_hi = np.sqrt(m2 + n2)

    A = D * D
    B = 2.0 * A * (p2 + q2) - 4.0 * p2 * q2
    C = A * (p2 - q2) ** 2
    disc = B * B - 4.0 * A * C
    has_roots = disc > 0.0
    sq = np.sqrt(np.maximum(disc, 0.0))
    u_minus = np.maximum((B - sq) / (2.0 * A), 0.0)
    u_plus = np.maximum((B + sq) / (2.0 * A), 0.0)
    t_d_lo = np.where(has_roots, np.sqrt(u_minus), 0.0)
    t_d_hi = np.where(has_roots, np.sqrt(u_plus), 0.0)
    return np.stack([right_lo, right_hi, t_d_lo, t_d_hi], axis=-1)


def _u_of_t(t, a, span):
    """``arccos(1 - 2*clip((t - a)/span, 0, 1))/pi``: the points ``t``, shape
    ``(k, j)``, in u on the k lines ``a + span*(1 - cos(pi*u))/2``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.clip((t - a[:, None]) / span[:, None], 0.0, 1.0)
    return np.arccos(np.subtract(1.0, 2.0 * frac, out=frac), out=frac) / math.pi


def _line_segments(p, q, a, b, D, breaks, weight, line_tol):
    """Refined pieces of the third-side integrals of the joint density.

    One line per (p, q) pair, integrated over [a, b]; a line with
    ``a >= b`` is empty and gets no pieces.  Each whole line is mapped
    once, by ``t = a + (b - a)*(1 - cos(pi*u))/2`` for u in [0, 1], whose
    Jacobian ``(b - a)*(pi/2)*sin(pi*u)`` vanishes like ``sqrt(t - a)``
    and ``sqrt(b - t)`` at the two ends and therefore cancels the
    ``1/sqrt`` blow-up of the density at a degenerate end (``a <= |p-q|``
    or ``b >= p+q``) on every piece, however small.  The case-boundary
    points and the per-line ``breaks`` (shape ``(k, j)``) are mapped into
    u (:func:`_u_of_t`) and cut the line into smooth pieces, which the
    plain GK15 rule integrates in u.  At a
    degenerate end the nodes keep ``_END_CLAMP_U`` away from it.  The
    pieces of lines above the per-line budget
    ``max(line_tol, 1e-13*|line value|)`` are bisected in u by
    :func:`rggdist.quadrature._bisect` for up to ``_LINE_MAX_SPLITS``
    bisections, the one cap of every line, those of M3 and of the cell
    masses alike.  Returns the pieces as (u-lo, u-hi, owning line, value,
    error estimate) arrays; a line that needs more bisections raises
    :class:`AccuracyError` naming the worst such line's p and q.
    """
    k = len(p)
    span = np.maximum(b - a, 0.0)
    cands = np.concatenate([_inner_breakpoint_candidates(p, q, D), breaks], axis=1)
    # Each line runs over u in [0, 1], or [0, 0] if it is empty.
    seg_lo, seg_hi, owner = _pieces(np.zeros(k), np.sign(span), _u_of_t(cands, a, span))
    # The nodes' range in u: [_END_CLAMP_U, 1 - _END_CLAMP_U] at degenerate ends.
    u_min = np.where(a <= np.abs(p - q), _END_CLAMP_U, 0.0)
    u_max = np.where(b >= p + q, 1.0 - _END_CLAMP_U, 1.0)
    half_span = 0.5 * span
    ws = _workspace()

    def eval_pieces(u_lo, u_hi, own):
        # Node-major (15, pieces) blocks.  The Jacobian splits: sin(pi*u)
        # at the nodes, and (b - a)*pi/2 times the piece's half-width in u
        # scales the sums.
        half = 0.5 * (u_hi - u_lo)
        mid = 0.5 * (u_hi + u_lo)
        scale = half * span[own] * (0.5 * math.pi)
        p_own, q_own = p[own], q[own]
        a_own, half_span_own = a[own], half_span[own]
        u_min_own, u_max_own = u_min[own], u_max[own]
        val, err = np.empty((2, len(u_lo)))
        for lo in range(0, len(u_lo), _LINE_BLOCK):
            blk = slice(lo, lo + _LINE_BLOCK)
            m = len(val[blk])
            # pi*u, then t = a + (b-a)*(1 - cos)/2 in ``nodes``, then
            # sin(pi*u) in place.  The angle and sine borrow the first half
            # of ``terms``, which the rule sums fill only after the sine
            # has been applied.
            angle = ws.terms[: _NODES * m].reshape(_NODES, m)
            np.multiply(GK15_NODES[:, None], half[blk], out=angle)
            angle += mid[blk]
            np.clip(angle, u_min_own[blk], u_max_own[blk], out=angle)
            angle *= math.pi
            t = ws.nodes[: _NODES * m].reshape(_NODES, m)
            np.cos(angle, out=t)
            np.subtract(1.0, t, out=t)
            t *= half_span_own[blk]
            t += a_own[blk]
            jacobian = np.sin(angle, out=angle)
            g = _pdf3_batch(p_own[None, blk], q_own[None, blk], t, D, ws=ws)
            if weight is not None:
                g *= weight(t)
            g *= jacobian
            terms = ws.terms[: 2 * _NODES * m].reshape(_NODES, 2, m)
            val[blk], err[blk] = _gk15_sums(g, scale[blk], terms)
        return val, err

    def budget_of(v):
        return np.maximum(line_tol, 1e-13 * np.abs(v))

    try:
        return _bisect(eval_pieces, seg_lo, seg_hi, owner, k, budget_of, _LINE_MAX_SPLITS)
    except AccuracyError as exc:
        err = exc.error_estimate
        over = err > budget_of(exc.value)
        worst = np.argmax(np.where(over, err, -np.inf))
        msg = (
            f"{np.count_nonzero(over)} of a batch of {k} third-side lines did not converge "
            f"within {_LINE_MAX_SPLITS} bisections (worst error estimate {err[worst]:.3e}, "
            f"at p={float(p[worst])!r}, q={float(q[worst])!r})"
        )
        raise AccuracyError(msg, exc.value, err) from None


@dataclass
class _LineStats:
    """The number of third-side lines one computation integrated."""

    lines: int = 0


def _inner_lines(p, q, lo, hi, D, weight=None, extra_breaks=(), line_tol=1e-11, stats=None):
    """Integrals over the third side t of joint density times weight.

    One line per (p, q) pair, integrated over [lo, hi] intersected with
    the triangle-inequality interval and [0, D], by :func:`_line_segments`
    (one cosine map per line, cut at the case boundaries and at
    ``extra_breaks``).  Returns (values, error_estimates); a
    :class:`_LineStats` ``stats`` counts the lines.
    """
    p = np.asarray(p, float).ravel()
    q = np.asarray(q, float).ravel()
    k = len(p)
    lo = np.broadcast_to(np.asarray(lo, float), (k,))
    hi = np.broadcast_to(np.asarray(hi, float), (k,))
    a = np.maximum(lo, np.abs(p - q))
    b = np.minimum(np.minimum(hi, p + q), D)
    breaks = np.broadcast_to(np.asarray(extra_breaks, float), (k, len(extra_breaks)))
    _, _, owner, seg_val, seg_err = _line_segments(p, q, a, b, D, breaks, weight, line_tol)
    if stats is not None:
        stats.lines += k
    values = np.bincount(owner, weights=seg_val, minlength=k)
    errors = np.bincount(owner, weights=seg_err, minlength=k)
    return values, errors


def _longest_side_moment(domain, his, weight, breaks, abs_tol, max_subdivisions, stats=None):
    """``M3 = E[p(R12) p(R13) p(R23)]`` at every edge-axis end ``h`` in
    ``his``, from one pass over the longest side.

    The joint density is symmetric in its three sides, so with c the
    longest side ``M3(h) = 3*int_0^h w(c) int_0^c w(q) int_{c-q}^c f(c, q,
    t) w(t) dt dq dc``, where ``w`` is the edge's ``weight`` (``None`` for
    1).  A hard disk is the case ``w = 1`` up to ``h = min(r0, D)``, where
    M3 is the distribution function of the longest side.  The innermost
    axis is :func:`_inner_lines` (whose lines ``stats`` counts), the middle
    one runs in lockstep across the outer nodes, and ``breaks`` split all
    three.  The outer c axis starts from panels cut at every requested
    ``h`` and at ``breaks``, and is refined by
    :func:`rggdist.quadrature._bisect` as one integral, so the panels'
    cumulative sums give M3 at every ``h`` and every point's cumulative
    error stays within the one outer budget.  Returns (values, error
    estimates) in the order of ``his``; each estimate adds the budgets
    allotted to the inner levels.  Raises :class:`AccuracyError` if an
    integral of any of the three axes would pass its bisection cap.
    """
    D = domain.diameter
    his = np.asarray(his, float)
    values, errors = np.zeros(len(his)), np.zeros(len(his))
    top = float(np.max(his, initial=0.0))
    if top <= 0.0:
        return values, errors
    axis = np.zeros(1), np.full(1, top)
    _, cuts, _ = _pieces(*axis, his[None])  # the distinct positive ends, ascending
    tol_inner = 0.05 * abs_tol / (1.5 * top * top)
    mid_settings = QuadratureSettings(
        abs_tol=0.25 * abs_tol / (3.0 * top), rel_tol=0.0, max_subdivisions=max_subdivisions
    )

    def longest_side_pdf(c, _):
        def mid_integrand(q_flat, own):
            vals, _ = _inner_lines(
                c[own], q_flat, 0.0, c[own], D,
                weight=weight, extra_breaks=breaks, line_tol=tol_inner, stats=stats,
            )
            return vals if weight is None else vals * weight(q_flat)

        mid_vals, _ = integrate_many(mid_integrand, np.column_stack([np.zeros(len(c)), c]),
                                     mid_settings, np.broadcast_to(breaks, (len(c), len(breaks))))
        return 3.0 * mid_vals if weight is None else 3.0 * mid_vals * weight(c)

    def panels(lo, hi, own):
        # One outer panel (15 longest sides) at a time: every panel of a
        # 40-point sweep at once held 5 MiB of line pieces.
        sums = [_panel_batch(longest_side_pdf, own[k : k + 1], lo[k : k + 1], hi[k : k + 1])
                for k in range(len(lo))]
        return tuple(np.concatenate(part) for part in zip(*sums))

    lo, hi, _, val, err = _bisect(
        panels, *_pieces(*axis, np.concatenate([his, breaks])[None]), 1,
        lambda v: np.full(1, 0.5 * abs_tol), max_subdivisions,
    )
    cell = np.searchsorted(cuts, 0.5 * (lo + hi))
    cum_val = np.cumsum(np.bincount(cell, weights=val, minlength=len(cuts)))
    cum_err = np.cumsum(np.bincount(cell, weights=err, minlength=len(cuts)))
    pos = his > 0.0
    at = np.searchsorted(cuts, his[pos])
    values[pos] = cum_val[at]
    errors[pos] = cum_err[at] + 0.3 * abs_tol
    return values, errors


# ---------------------------------------------------------------------------
# the coverage function: M2 without the three-distance density
# ---------------------------------------------------------------------------

def _lens_area(rho, r, R):
    """Area of the disk of radius ``r`` about a point at distance ``rho``
    from the centre of the disk of radius ``R``, inside that disk."""
    rho = np.asarray(rho, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.clip((rho * rho + r * r - R * R) / (2.0 * rho * r), -1.0, 1.0)
        y = np.clip((rho * rho + R * R - r * r) / (2.0 * rho * R), -1.0, 1.0)
        kite = (r + R - rho) * (rho + r - R) * (rho - r + R) * (rho + r + R)
        area = r * r * np.arccos(x) + R * R * np.arccos(y) - 0.5 * np.sqrt(np.maximum(kite, 0.0))
    area = np.where(r <= R - rho, math.pi * r * r, area)
    return np.where(r >= R + rho, math.pi * R * R, area)


def _arc_integrals(rho, R, weight, breaks, settings):
    """``int weight(t)*L(rho, t) dt`` at each ``rho``, where ``L`` is the
    arc of the circle of radius t about a point at distance ``rho`` from
    the centre that lies inside the disk of radius ``R``.

    ``L`` is ``2*pi*t`` up to ``t = R - rho``, integrated directly; beyond
    it is ``2*t*arccos((rho**2 + t**2 - R**2)/(2*rho*t))`` up to ``R + rho``,
    with a square-root end on either side, so that part is integrated in
    u through ``t = R - rho + rho*(1 - cos(pi*u))``, whose Jacobian absorbs
    both ends, with ``breaks`` mapped into u.  A weighted edge axis runs
    over [0, D], which holds every such circle.
    """
    k = len(rho)
    a = R - rho
    breaks = np.broadcast_to(breaks, (k, len(breaks)))
    # t over [0, a], then u over [0, 1] (empty at rho = 0).
    ends = np.column_stack([np.zeros(2 * k), np.concatenate([a, np.where(rho > 0.0, 1.0, 0.0)])])

    def integrand(x, which):
        arc = which >= k
        j = np.where(arc, which - k, which)
        r = rho[j]
        angle = math.pi * x
        t = np.where(arc, a[j] + r * (1.0 - np.cos(angle)), x)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_arc = np.clip((r * r + t * t - R * R) / (2.0 * r * t), -1.0, 1.0)
            arc_len = 2.0 * t * np.arccos(cos_arc) * (math.pi * r * np.sin(angle))
        return weight(t) * np.where(arc, arc_len, 2.0 * math.pi * t)

    values, _ = integrate_many(
        integrand, ends, settings, np.concatenate([breaks, _u_of_t(breaks, a, 2.0 * rho)])
    )
    return values[:k] + values[k:]


def _coverage_moment(domain, hi, weight, breaks, abs_tol, max_subdivisions):
    """``E[p(R12) p(R13)]`` from the coverage function of one node.

    Given node 1 at distance rho from the centre, the other two connect to
    it independently with probability ``g(rho)``, the integral of the
    edge's weight over the disk about node 1 (for a hard disk, the lens
    area of radii R and ``hi`` at distance rho; otherwise
    :func:`_arc_integrals`) divided by the disk's area.  So the moment is
    ``int_0^R g(rho)**2 * 2*rho/R**2 d rho``, split where ``g`` kinks: at
    ``|R - b|`` for b in ``hi`` and ``breaks``.  ``g`` is at most 1, so an
    error of e in ``g`` moves the moment by at most 2e.  Returns (value,
    error estimate); the estimate includes the budget allotted to ``g``.
    """
    R = 0.5 * domain.diameter
    if hi <= 0.0:
        return 0.0, 0.0
    area = math.pi * R * R
    if weight is None:
        g_tol = 0.0

        def coverage(rho):
            return _lens_area(rho, hi, R) / area
    else:
        g_tol = 0.125 * abs_tol
        inner = QuadratureSettings(
            abs_tol=g_tol * area, rel_tol=0.0, max_subdivisions=max_subdivisions
        )

        def coverage(rho):
            return _arc_integrals(rho, R, weight, breaks, inner) / area

    def integrand(rho, _):
        g = coverage(rho)
        return g * g * (2.0 / (R * R)) * rho

    outer = QuadratureSettings(
        abs_tol=0.5 * abs_tol, rel_tol=0.0, max_subdivisions=max_subdivisions
    )
    values, errors = integrate_many(
        integrand, [(0.0, R)], outer, [[abs(R - b) for b in (hi, *breaks)]]
    )
    return float(values[0]), float(errors[0]) + 2.0 * g_tol


# joint_pdf3_cell_masses: Gauss nodes per cell on the first axis, and the
# per-line error budget of the third-side integrals.
_CELL_GAUSS_ORDER = 5
_CELL_LINE_TOL = 1e-9


def _per_cell_line_integrals(p, q, edges, D, start):
    """Third-side integrals of the joint density bucketed per grid cell.

    Like :func:`_inner_lines`, over ``[max(start, |p-q|), min(p+q, D)]``
    within the grid, but with the grid edges added as breaks (mapped into
    u like the case boundaries), each line's budget ``_CELL_LINE_TOL``,
    and each segment's contribution accumulated into the cell holding its
    midpoint in t.  Returns an array of shape ``(len(p), len(edges) - 1)``.
    """
    p = np.asarray(p, float).ravel()
    q = np.asarray(q, float).ravel()
    k = len(p)
    nb = len(edges) - 1
    grid = np.broadcast_to(edges[1:-1], (k, nb - 1))
    a, b = np.maximum(start, np.abs(p - q)), np.minimum(p + q, min(edges[-1], D))
    u_lo, u_hi, owner, seg_val, _ = _line_segments(p, q, a, b, D, grid, None, _CELL_LINE_TOL)
    half_span = 0.5 * np.maximum(b - a, 0.0)
    t_lo, t_hi = (a[owner] + half_span[owner] * (1.0 - np.cos(math.pi * u)) for u in (u_lo, u_hi))
    cell = np.clip(np.searchsorted(edges, 0.5 * (t_lo + t_hi), side="right") - 1, 0, nb - 1)
    out = np.zeros((k, nb))
    np.add.at(out, (owner, cell), seg_val)
    return out


def joint_pdf3_cell_masses(domain: DiskDomain, edges) -> np.ndarray:
    """Probability mass of the joint density in every cell of a cubic grid.

    The density is symmetric in its three sides and the grid is the same
    on all three axes, so only the cells (i, j, k) with i <= j <= k are
    integrated; every other cell takes the mass of the cell its sorted
    index triple names, and the masses are symmetric under all six axis
    permutations by construction.  Each integrated cell is integrated
    whole.  The first axis uses a per-cell Gauss rule, its kinks having
    been smoothed by the inner integrations.  For the nodes p of cell i
    the middle axis runs over the cells j >= i only; it is split exactly
    at the grid edges and where the admissible third-side interval
    crosses one (the per-cell mass has square-root edges there), and each
    of its pieces is mapped through its own cosine substitution
    ``q = mid - half*cos(pi*u)`` under a 5-point Gauss rule.  The third
    axis is integrated by :func:`_per_cell_line_integrals`, one
    cosine-mapped line per (p, q) cut at the grid edges and bucketed per
    cell, each line starting at the lower edge of its q piece's cell (or
    at ``|p - q|`` if that is higher), so it covers the cells k >= j
    only.  Used to build expected histogram counts for Monte Carlo
    validation.

    It reports no error estimate.  Its lines meet their budget, but the
    two outer Gauss rules are fixed, so the masses of a full grid over
    [0, D] sum to 1 only to within 7.5e-7 at 20 cells per axis and
    1.8e-5 at 5.  That is a little further than the same rules integrated
    over every cell (5.3e-7 and 8.8e-6), which leave the masses
    asymmetric by up to 2.3e-8 and 2.5e-6.  ``validate pdf3`` takes them
    as exact.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("edges must be a strictly increasing 1-d grid")
    D = domain.diameter
    nb = len(edges) - 1
    nodes, weights = np.polynomial.legendre.leggauss(_CELL_GAUSS_ORDER)
    u01 = 0.5 * (nodes + 1.0)
    w01 = 0.5 * weights

    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    p_pts = mid[:, None] + half[:, None] * nodes[None, :]
    p_wts = half[:, None] * weights[None, :]

    masses = np.zeros((nb, nb, nb))
    for i in range(nb):
        for u in range(_CELL_GAUSS_ORDER):
            pv = float(p_pts[i, u])
            # Cut the middle axis, from cell i on, at the grid edges and where
            # |p - q| or p + q crosses one: the per-cell mass has square-root
            # kinks there.
            cand = np.concatenate([edges, pv - edges, pv + edges, edges - pv, [pv]])
            piece_lo, piece_hi, _ = _pieces(edges[i : i + 1], edges[-1:], cand[None])
            piece_j = np.searchsorted(edges, piece_lo, side="right") - 1

            ph = 0.5 * (piece_hi - piece_lo)
            pm = 0.5 * (piece_hi + piece_lo)
            qs = pm[:, None] - ph[:, None] * np.cos(math.pi * u01[None, :])
            wq = ph[:, None] * math.pi * np.sin(math.pi * u01[None, :]) * w01[None, :]

            line_j = np.repeat(piece_j, _CELL_GAUSS_ORDER)
            q_flat = qs.ravel()
            per_cell = _per_cell_line_integrals(
                np.full(len(q_flat), pv), q_flat, edges, D, edges[line_j]
            )
            weighted = per_cell * wq.ravel()[:, None]
            rows = np.zeros((nb, nb))
            np.add.at(rows, line_j, weighted)
            masses[i] += p_wts[i, u] * rows
    # Every cell takes the mass of its sorted index triple.
    return masses[tuple(np.sort(np.indices((nb, nb, nb)), axis=0))]
