"""Sampling-based estimators for graphs of any size.

These are the universal cross-checks for every closed form in the
package: empirical outcome tables, entropy with bias correction, distance
histograms, and the one rule that judges a sampled table against a
closed form (:func:`_count_fit`).

Reproducibility: all randomness comes from PCG64DXSM streams (O'Neill,
"PCG: A family of simple fast space-efficient statistically good
algorithms for random number generation", HMC-CS-2014-0905, with the
DXSM output function).  Worker ``w`` of a run seeded with ``seed`` uses
the stream ``PCG64DXSM(seed).jumped(w)``: ``w`` jumps of about
``0.618 * 2**128`` draws each along the one period of ``2**128``, so any
two of the ``MAX_WORKERS`` worker streams start at least ``2**116`` draws
apart and cannot overlap in any feasible run, and a fixed
(samples, seed, workers) triple gives bit-identical results no matter how
the work is scheduled.  Entropy standard errors are closed forms of the
counts and draw nothing.  The generator name is recorded in every
estimate so outputs are auditable.

Sweeps: :func:`estimate_pmf_sweep` and :func:`estimate_entropy_sweep`
count a list of connection models on one shared pool of point sets, in
one table of at most ``MAX_TABLE_ENTRIES`` entries (a larger one, like a
distance histogram of more cells, is refused before anything is
allocated).  Row k equals the single-model estimate of ``models[k]`` at
the same settings.

Memory: a worker's stream is block-major.  Each block of at most
``_BLOCK`` point sets takes its radial uniforms ``(rows, n)``, then its
angular ones, then whatever the caller draws for that block (the soft
model's per-edge uniforms), all from the worker's own generator in order.
A worker therefore holds a few block-sized arrays and its outcome table,
and ``_BLOCK`` is part of the stream: changing it changes every output.
The block arrays are allocated once per worker and reused for every
block, so the hot loop neither allocates nor page-faults them afresh:
uniforms are drawn into them in place, the angle map works in the
coordinate buffers, and a soft model writes its edge probabilities over
the block's distances (one per-worker scratch for a list of models), so
no block makes a soft temporary.  The pair stage is pair-major
(coordinates ``(n, block)``, squared distances ``(m, block)``), so each
pair is a difference of two contiguous rows and each block is yielded as
a ``(rows, m)`` view that is valid until the next block.  Outcome codes
are ``bits @ 2**arange(m)`` taken in float64 (:class:`_Encoder`): every
partial sum is an integer below ``2**graphdist.MAX_OUTCOME_BITS``, far
below ``2**53``, so the product is exact in any summation order and does not
depend on the BLAS or its threads.  Threads are capped at
``os.cpu_count()`` and each folds its workers' results into its own
running total, so peak memory grows with the cores in use, not with
``workers`` (at most ``MAX_WORKERS``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from threading import Event, Thread
from typing import NamedTuple

import numpy as np

from .connection import ConnectionModel, HardDisk
from .errors import DomainError, UnsupportedError
from .geometry import DiskDomain, _disk_map, pair_array
from .graphdist import GraphPmf, _outcome_slots

RNG_NAME = "pcg64dxsm"

# Point sets per block of the stream layout (see the module docstring):
# changing it changes every output.  Small enough for the pair stage's
# temporaries to stay in cache, large enough to amortise numpy's per-call
# overhead.
_BLOCK = 1 << 13

# Largest count table of one call: outcome entries over all its models, or
# the cells of a distance histogram (int64: 64 MiB, or 256 models at n=6).
MAX_TABLE_ENTRIES = 1 << 23

# Largest worker split (substreams) of one run.
MAX_WORKERS = 1024

# Family-wise false-alarm rate of :func:`_count_fit`.
FIT_ALPHA = 1e-4


@dataclass(frozen=True)
class McSettings:
    """Sample count, seed, and worker split of one Monte Carlo run; each is
    an ``int`` (a bool is refused)."""

    samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if type(self.samples) is not int or self.samples < 1:
            raise DomainError(f"samples must be a positive integer, got {self.samples!r}")
        if type(self.seed) is not int or not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if type(self.workers) is not int or self.workers < 1:
            raise DomainError(f"workers must be a positive integer, got {self.workers!r}")
        if self.workers > MAX_WORKERS:
            raise DomainError(f"workers must be at most {MAX_WORKERS}, got {self.workers}")


class EntropyEstimate(NamedTuple):
    bits: float
    std_error: float


@dataclass(frozen=True)
class Histogram3:
    """Raw counts of sampled distance triples on a cubic grid over [0, D]."""

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int

    def density(self) -> np.ndarray:
        """Per-cell density estimate: count / (total * cell volume)."""
        width = float(self.bin_edges[1] - self.bin_edges[0])
        return self.counts / (self.total * width**3)


def _count_fit(counts, probs, samples, slack=0.0) -> dict:
    """Bonferroni test, at family-wise rate ``FIT_ALPHA``, of a table of
    ``samples`` multinomial counts against the closed form ``probs``.

    Each expected count e = probs * samples first moves toward its count c
    by at most ``slack * samples``, the closed form's deterministic error
    (``slack`` is one number, or an array of one per entry).
    Its |z| is the root of the binomial deviance of c against e, near
    normal even for small e (0 where c = e, infinite where c differs from
    an e of 0 or N).  The table passes when its largest e reaches 10 and
    its largest |z| is at most the normal quantile at
    ``1 - FIT_ALPHA / (2K)``, K the entries of positive e.
    """
    c = np.ravel(counts).astype(np.float64)
    e = np.clip(np.ravel(probs) * samples, 0.0, samples)
    e += np.clip(c - e, -slack * samples, slack * samples)
    deviance = np.where(c == e, 0.0, np.inf)
    inside = (e > 0.0) & (e < samples)
    x, m = np.stack([c, samples - c])[:, inside], np.stack([e, samples - e])[:, inside]
    deviance[inside] = 2.0 * np.sum(x * np.log(np.maximum(x, 1.0) / m), axis=0)
    checked = int(np.count_nonzero(e > 0.0))
    z_crit = NormalDist().inv_cdf(1.0 - FIT_ALPHA / (2 * max(checked, 1)))
    worst_z = math.sqrt(max(float(np.max(deviance, initial=0.0)), 0.0))
    fit = {"pass": worst_z <= z_crit, "alpha": FIT_ALPHA, "entries_checked": checked,
           "z_crit": z_crit, "worst_z": worst_z}
    if np.max(e, initial=0.0) < 10.0:
        fit.update({"pass": False, "detail": "no expected count reaches 10; take more samples"})
    return fit


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent PCG64DXSM stream number ``index`` of the given seed."""
    return np.random.Generator(np.random.PCG64DXSM(seed).jumped(index))


def _fan_out(mc: McSettings, work):
    """Sum of ``work(substream(mc.seed, w), share_w)`` over the workers.

    Worker ``w`` gets its own substream and its share of ``mc.samples``.
    At most ``os.cpu_count()`` threads run the workers, the last on this
    thread and each other one on a thread of its own: thread t runs
    workers t, t + T, ... in turn and folds each part into its own running
    total, the first part being that total, so at most one table per
    thread is held besides the part in progress.  The parts are integer
    counts, so their sum does not depend on the order of the additions or
    on scheduling.  This is the package's one place that starts threads.

    Once a worker fails, or the wait for the threads is interrupted, each
    thread ends after the worker it is running.  All threads have finished
    when this returns or raises, and the error raised is that of the
    lowest-numbered thread that failed.
    """
    base, extra = divmod(mc.samples, mc.workers)
    shares = [base + (1 if w < extra else 0) for w in range(mc.workers)]
    threads = min(mc.workers, os.cpu_count() or 1)
    stop = Event()
    totals, errors = [None] * threads, [None] * threads

    def run(t):
        try:
            for w in range(t, mc.workers, threads):
                if stop.is_set():
                    break
                part = work(substream(mc.seed, w), shares[w])
                if totals[t] is None:
                    totals[t] = part
                else:
                    totals[t] += part
        except BaseException as exc:
            errors[t] = exc
            stop.set()

    others = [Thread(target=run, args=(t,)) for t in range(threads - 1)]
    for thread in others:
        thread.start()
    run(threads - 1)
    try:
        for thread in others:
            thread.join()
    except BaseException:
        stop.set()
        for thread in others:
            thread.join()
        raise
    for error in errors:
        if error is not None:
            raise error
    total = totals[0]
    for part in totals[1:]:
        total += part
    return total


def _distance_sq_chunks(n, domain, rng, count):
    """Squared pair distances of ``count`` sampled point sets, one block of
    at most ``_BLOCK`` sets at a time.

    The stream is block-major: each block of ``rows`` sets draws its radial
    uniforms ``(rows, n)`` from ``rng``, then its angular ones, and the
    caller may draw from ``rng`` after each step; those draws follow the
    block's uniforms.  Squared form so that hard-disk thresholding can
    skip the square root.

    The point of radial uniform u and angular uniform v is
    ``r = R*sqrt(u)`` times ``((1 - s**2)/(1 + s**2), 2*s/(1 + s**2))``
    with ``s = tan(pi*v)``, the tan half-angle map of :func:`_disk_map`.
    Its angle is exactly uniform.  Its coordinates lie within
    ``4*eps*R`` of ``r*cos(2*pi*v)`` and ``r*sin(2*pi*v)`` (at most about
    ``eps*R`` over 2M draws), and ``x**2 + y**2 <= R**2 * (1 + 4*eps)``.
    The map runs in the coordinate buffers, its ``tan`` in place on the
    contiguous angular uniforms.  ``np.tan``, like ``np.exp``, rounds
    through numpy's AVX-512 loop on hosts where one exists and through
    libm elsewhere, so the last bits of a stream may differ between hosts
    (never between runs on one host).

    The block buffers are allocated once per call and are pair-major:
    coordinates are stored ``(n, block)`` and differences ``(m, block)``,
    so pair (i, j) is the row difference ``x[i] - x[j]`` of contiguous
    rows, written slot by slot in the lexicographic order of
    :func:`pair_array`.  Every element is the same IEEE operation on the
    same operands as the row-major form, so the values are bit-identical.
    Each step yields a ``(rows, m)`` view of a reused buffer: it is valid
    until the next step, which rewrites it, so the caller may overwrite it
    in place and must copy it to keep it.
    """
    m = len(pair_array(n))
    width = min(_BLOCK, count)
    rho, ang = np.empty((width, n)), np.empty((width, n))
    xs, ys = np.empty((n, width)), np.empty((n, width))
    dx, dy = np.empty((m, width)), np.empty((m, width))
    for b in range(0, count, _BLOCK):
        rows = min(_BLOCK, count - b)
        r, v = rng.random(out=rho[:rows]), rng.random(out=ang[:rows])
        np.multiply(domain.radius, np.sqrt(r, out=r), out=r)
        x, y = xs[:, :rows], ys[:, :rows]
        _disk_map(r.T, v.T, x, y)
        ddx, ddy = dx[:, :rows], dy[:, :rows]
        slot = 0
        for i in range(n - 1):
            k = n - 1 - i
            np.subtract(x[i], x[i + 1:], out=ddx[slot:slot + k])
            np.subtract(y[i], y[i + 1:], out=ddy[slot:slot + k])
            slot += k
        np.multiply(ddx, ddx, out=ddx)
        np.multiply(ddy, ddy, out=ddy)
        yield np.add(ddx, ddy, out=ddx).T


class _Encoder:
    """Outcome codes of 0/1 edge rows through buffers reused block after
    block.

    The caller writes a block's edge indicators as float64 0/1 values into
    ``bits(rows)``, a ``(rows, m)`` view of a pair-major ``(m, width)``
    buffer; ``codes(bits)`` returns ``bits @ 2**arange(m)`` as int64.  The
    product runs in float64 as one matrix-vector product, and it is exact
    in any summation order: every partial sum is an integer below
    ``2**m <= 2**MAX_OUTCOME_BITS``, far below ``2**53``.  So the codes
    equal the integer product whatever the BLAS and its thread count do.
    """

    def __init__(self, m, width):
        self.pows = np.ldexp(1.0, np.arange(m))
        self._bits = np.empty((m, width))
        self._sums = np.empty(width)
        self._codes = np.empty(width, dtype=np.int64)

    def bits(self, rows):
        return self._bits[:, :rows].T

    def codes(self, bits):
        rows = len(bits)
        sums = np.matmul(bits, self.pows, out=self._sums[:rows])
        codes = self._codes[:rows]
        np.copyto(codes, sums, casting="unsafe")
        return codes


def _outcome_bits(n: int, tables: int = 1) -> int:
    """Number of edge slots of an n-node outcome, refused when one table
    would exceed ``2**MAX_OUTCOME_BITS`` entries (:mod:`graphdist`) or
    ``tables`` of them together ``MAX_TABLE_ENTRIES``."""
    m = _outcome_slots(n)
    if tables << m > MAX_TABLE_ENTRIES:
        raise UnsupportedError(
            f"{tables} outcome tables of 2**{m} entries exceed "
            f"{MAX_TABLE_ENTRIES} entries; use fewer models or grid points"
        )
    return m


def _outcome_counts(n, models, domain, mc: McSettings) -> np.ndarray:
    """``(len(models), 2**m)`` outcome counts of every model on one shared
    pool of ``mc.samples`` point sets; row k equals the count of
    ``[models[k]]`` alone.  All-hard-disk lists threshold the squared
    distances and draw nothing more; other lists draw one uniform per edge
    and set, once for all models, and compare it with each probability.
    A single soft model writes its probabilities over the distances; a
    list writes them into one scratch laid out like the distances.
    """
    if not models:
        raise DomainError("need at least one connection model")
    m = _outcome_bits(n, len(models))
    hard = all(isinstance(model, HardDisk) for model in models)

    def work(rng, count):
        counts = np.zeros((len(models), 1 << m), dtype=np.int64)
        width = min(_BLOCK, count)
        encoder = _Encoder(m, width)
        if not hard:
            # Row-major like the stream's per-edge uniforms: comparing into
            # the pair-major encoder buffer instead is four times slower.  A
            # single model needs no uniform or distance twice, so it
            # compares in place.
            uniforms = np.empty((width, m))
            one = len(models) == 1
            soft_bits = uniforms if one else np.empty((width, m))
            probs = None if one else np.empty((m, width)).T
        for dist_sq in _distance_sq_chunks(n, domain, rng, count):
            rows = len(dist_sq)
            if hard:
                bits = encoder.bits(rows)
            else:
                # Drawn once per block for all models.
                u = rng.random(out=uniforms[:rows])
                r = np.sqrt(dist_sq, out=dist_sq)
                bits = soft_bits[:rows]
                p = r if one else probs[:rows]
            for k, model in enumerate(models):
                if hard:
                    # The indicator can be evaluated exactly on squared
                    # distances; no per-edge uniforms are consumed.
                    np.less(dist_sq, model.r0 * model.r0, out=bits)
                else:
                    np.less(u, model.probability(r, out=p), out=bits)
                # Counted in place: no per-block table of 2**m entries.
                np.add.at(counts[k], encoder.codes(bits), 1)
        return counts

    return _fan_out(mc, work)


def estimate_pmf_sweep(
    n: int, models, domain: DiskDomain, mc: McSettings
) -> list[GraphPmf]:
    """Empirical outcome distributions of several connection models from
    one shared pool of sampled point sets.

    Each model gets a full ``mc.samples``-sample estimate, with common
    random numbers across the list; entry k equals
    ``estimate_pmf(n, models[k], domain, mc)`` byte for byte.
    """
    ingredients = {"samples": mc.samples, "seed": mc.seed, "workers": mc.workers, "rng": RNG_NAME}
    pmfs = []
    for row in _outcome_counts(n, list(models), domain, mc):
        probs = row / mc.samples
        se = np.sqrt(probs * (1.0 - probs) / mc.samples)
        pmfs.append(GraphPmf(n=n, probs=probs, method="monte_carlo",
                             error_estimate=float(np.max(se)), ingredients=dict(ingredients)))
    return pmfs


def estimate_pmf(
    n: int, model: ConnectionModel, domain: DiskDomain, mc: McSettings
) -> GraphPmf:
    """Empirical outcome distribution from ``mc.samples`` sampled graphs.

    Probabilities are exact outcome frequencies (they sum to one by
    construction); the error estimate is the largest per-entry binomial
    standard error.
    """
    return estimate_pmf_sweep(n, [model], domain, mc)[0]


def _entropy_estimate(counts, total, bias_correction) -> EntropyEstimate:
    """Miller-Madow entropy of an outcome table and its closed-form
    standard error (see :func:`estimate_entropy`); a degenerate table
    returns exactly (0, 0).

    The delta-method sum is centred on the plug-in entropy, so nothing
    cancels, and taken by ``np.sum``, so its bytes do not depend on the
    BLAS.  The second-order term ``correction / (N ln 2)`` keeps the
    error positive for K >= 2 even where the first is 0 (equal counts).
    """
    nz = counts[counts > 0]
    if len(nz) <= 1:
        return EntropyEstimate(0.0, 0.0)
    p = nz / total
    log_p = np.log2(p)
    plugin = float(-np.sum(p * log_p))
    ln2 = math.log(2.0)
    correction = (len(nz) - 1) / (2.0 * total * ln2)
    spread = np.subtract(-plugin, log_p, out=log_p)
    variance = float(np.sum(p * spread * spread)) / total + correction / (total * ln2)
    h = plugin + correction if bias_correction else plugin
    return EntropyEstimate(h, math.sqrt(variance))


def estimate_entropy_sweep(
    n: int,
    models,
    domain: DiskDomain,
    mc: McSettings,
    bias_correction: bool = True,
) -> list[EntropyEstimate]:
    """Entropy estimates of several connection models from one shared pool
    of sampled point sets (see :func:`estimate_pmf_sweep`).

    Each model gets a full ``mc.samples``-sample estimate; the estimates
    are correlated across the list and identically distributed to
    independent runs, and entry k equals :func:`estimate_entropy` of
    ``models[k]`` at the same settings: the Miller-Madow entropy with the
    closed-form standard error given there (delta method plus Harris's
    second-order term), a sampling error that excludes the bias.
    """
    counts = _outcome_counts(n, list(models), domain, mc)
    return [_entropy_estimate(row, mc.samples, bias_correction) for row in counts]


def estimate_entropy(
    n: int,
    model: ConnectionModel,
    domain: DiskDomain,
    mc: McSettings,
    bias_correction: bool = True,
) -> EntropyEstimate:
    """Outcome entropy in bits with Miller-Madow bias correction.

    The correction adds ``(K - 1) / (2 N ln 2)`` bits to the plug-in
    entropy ``H = -sum p log2 p`` of the K observed outcome frequencies p
    of N samples (Miller 1955); disable it with ``bias_correction=False``.
    The standard error is
    ``sqrt(sum p (-log2 p - H)**2 / N + (K - 1) / (2 N**2 ln**2 2))``:
    the delta-method variance of the plug-in entropy and the second-order
    term of Harris (1975), "The statistical estimation of entropy in the
    non-parametric case".  It is a sampling error only and does not cover
    the estimator's bias, which can be far larger: at n=6 and 1e5 samples
    the estimate reads 0.066 (hard r0=0.5) and 0.098 bits (exp r0=0.3,
    beta=2) below the 8M-sample value.  A degenerate table returns
    exactly (0, 0).
    """
    return estimate_entropy_sweep(n, [model], domain, mc, bias_correction)[0]


def _distance_counts(n, domain, mc: McSettings, bins) -> np.ndarray:
    """Flat counts of the m pair distances of sampled n-point sets on a
    grid of ``bins`` cells per axis over [0, D], axis k being pair k of
    :func:`pair_array` (the last axis varies fastest).  Grids of more than
    ``MAX_TABLE_ENTRIES`` cells are refused before anything is allocated.
    """
    m = len(pair_array(n))
    if bins**m > MAX_TABLE_ENTRIES:
        raise UnsupportedError(
            f"a grid of {bins}**{m} cells exceeds {MAX_TABLE_ENTRIES} entries; use fewer bins"
        )
    D = domain.diameter

    def work(rng, count):
        counts = np.zeros(bins**m, dtype=np.int64)
        cells = np.empty((m, min(_BLOCK, count)), dtype=np.int64)
        for dist_sq in _distance_sq_chunks(n, domain, rng, count):
            dists = np.sqrt(dist_sq, out=dist_sq)
            np.multiply(np.divide(dists, D, out=dists), bins, out=dists)
            idx = cells[:, :len(dists)]
            np.copyto(idx, dists.T, casting="unsafe")
            np.minimum(idx, bins - 1, out=idx)
            flat = idx[0]
            for k in range(1, m):
                flat *= bins
                flat += idx[k]
            np.add.at(counts, flat, 1)
        return counts

    return _fan_out(mc, work)


def distance_histogram3(domain: DiskDomain, mc: McSettings, bins: int = 20) -> Histogram3:
    """Histogram of the three pairwise distances of sampled point triples.

    Cells are raw (r12, r13, r23) coordinates, so that the permutation
    symmetry of the joint density is itself testable.  At most
    ``MAX_TABLE_ENTRIES`` cells (``bins <= 203``) are allowed.
    """
    if bins < 2:
        raise DomainError(f"need at least 2 bins per axis, got {bins}")
    counts = _distance_counts(3, domain, mc, bins)
    return Histogram3(
        bin_edges=np.linspace(0.0, domain.diameter, bins + 1),
        counts=counts.reshape(bins, bins, bins),
        total=mc.samples,
    )
