"""Pins of the exact (quadrature) outputs, plus the memory and the
empty-interval behaviour of the line integrator behind them.

The two-node pins were recorded before the pair probability and the
product moments began to share one edge-axis rule.  The cell-mass and
line pins were recorded when the line integrator began to map each
third-side line once through one cosine substitution.  The three-node
pmf pins were recorded when M2 began to come from the coverage function
and a hard disk's M3 from the pass over the longest side; the weighted
models' M3 (their last entry) kept its bytes then.  The weighted models'
pins were re-recorded when their M3 moved to the same longest-side pass,
with the edge weight on all three axes; the hard disks' pins kept their
bytes.  The table's pins were re-recorded when that pass began to split
its middle axis also where a line's lower end crosses a breakpoint; each
entry moved by less than its own error estimate (at most 3.2e-8 at the
default settings and 2.9e-9 at 1e-6).  Any later change of the integrators must reproduce them
exactly.  No pinned value passes through BLAS, so they do not depend on
the BLAS library or its thread count.  They do depend on how numpy's
``arccos``/``exp`` and the ``cos``/``sin`` of the line substitution
round, which varies with the CPU's SIMD features (with numpy's AVX-512
loops disabled both the pins and the rounding fingerprint change), so
the byte pins run only where ``helpers.same_rounding`` finds the
fingerprint recorded with them.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from rggdist import (
    DiskDomain,
    ExponentialSoft,
    HardDisk,
    QuadratureSettings,
    Tabulated,
    pmf_n2,
    pmf_n3,
)
from rggdist import distances, graphdist
from rggdist.distances import _inner_lines, joint_pdf3_cell_masses

from helpers import same_rounding

DOMAIN = DiskDomain(1.0)


PMF_PINS = {
    ("hard", None): (
        ["0x1.58e1cbbc423eap-3", "0x1.63077ccb03a5ap-3", "0x1.63077ccb03a5ap-3",
         "0x1.e07b861efefa8p-5", "0x1.63077ccb03a5ap-3", "0x1.e07b861efefa8p-5",
         "0x1.e07b861efefa8p-5", "0x1.15ab194b7394ap-3"],
        "0x1.35852bb26bee8p-14",
    ),
    ("hard", 1e-6): (
        ["0x1.58e1c95af8dd4p-3", "0x1.63077e60f22d0p-3", "0x1.63077e60f22d0p-3",
         "0x1.e07b82f4b0458p-5", "0x1.63077e60f22d0p-3", "0x1.e07b82f4b0458p-5",
         "0x1.e07b82f4b0458p-5", "0x1.15ab194aac67cp-3"],
        "0x1.1d714578194eep-20",
    ),
    ("exp", None): (
        ["0x1.bcc7fdcd7f0b6p-2", "0x1.28b42e394ba9ep-3", "0x1.28b42e394ba9ep-3",
         "0x1.1dfc860795f18p-5", "0x1.28b42e394ba9ep-3", "0x1.1dfc860795f18p-5",
         "0x1.1dfc860795f18p-5", "0x1.aeb0a99b73b3cp-6"],
        "0x1.1d3a2b991c248p-13",
    ),
    ("exp", 1e-6): (
        ["0x1.bcc7fdcd52034p-2", "0x1.28b42e397cca9p-3", "0x1.28b42e397cca9p-3",
         "0x1.1dfc8607752d6p-5", "0x1.28b42e397cca9p-3", "0x1.1dfc8607752d6p-5",
         "0x1.1dfc8607752d6p-5", "0x1.aeb0a99a6dbe8p-6"],
        "0x1.6c348515a1832p-20",
    ),
    ("table", None): (
        ["0x1.062810317e4d6p-2", "0x1.37eea88cc8a1ap-3", "0x1.37eea88cc8a1ap-3",
         "0x1.2eae5240056d0p-4", "0x1.37eea88cc8a1ap-3", "0x1.2eae5240056d0p-4",
         "0x1.2eae5240056d0p-4", "0x1.0bbcd52d42ba4p-4"],
        "0x1.1b21e13058320p-13",
    ),
    ("table", 1e-6): (
        ["0x1.0628103226049p-2", "0x1.37eea88b75074p-3", "0x1.37eea88b75074p-3",
         "0x1.2eae5242b4f9cp-4", "0x1.37eea88b75074p-3", "0x1.2eae5242b4f9cp-4",
         "0x1.2eae5242b4f9cp-4", "0x1.0bbcd52a8ad58p-4"],
        "0x1.6c89f868d5babp-20",
    ),
}
# Two-node pmfs (probs, error estimate) at the default settings.
PMF_N2_PINS = {
    "hard": (["0x1.25c3e9b682522p-1", "0x1.b4782c92fb5bcp-2"], "0x1.4000000000000p-50"),
    "exp": (["0x1.849dde63deb9cp-1", "0x1.ed88867085191p-3"], "0x1.781ca39cd3d3ap-38"),
    "table": (["0x1.44e126a724251p-1", "0x1.763db2b1b7b5ep-2"], "0x1.86a71b6000001p-43"),
}
# The table has a breakpoint at every knot inside the disk, so it pins the
# breakpoint handling of every edge axis.
MODELS = {
    "hard": HardDisk(r0=0.4),
    "exp": ExponentialSoft(r0=0.3, beta=2.0),
    "table": Tabulated(((0.0, 0.9), (0.25, 0.7), (0.5, 0.2), (0.8, 0.0), (1.0, 0.0))),
}


@same_rounding
class TestExactOutputPins:
    @pytest.mark.parametrize("key", sorted(PMF_PINS, key=str))
    def test_pmf_n3(self, key):
        kind, abs_tol = key
        quad = None if abs_tol is None else QuadratureSettings(abs_tol=abs_tol)
        pmf = pmf_n3(MODELS[kind], DOMAIN, quad)
        probs, error = PMF_PINS[key]
        assert [float(x).hex() for x in pmf.probs] == probs
        assert float(pmf.error_estimate).hex() == error

    @pytest.mark.parametrize("kind", sorted(PMF_N2_PINS))
    def test_pmf_n2(self, kind):
        pmf = pmf_n2(MODELS[kind], DOMAIN)
        probs, error = PMF_N2_PINS[kind]
        assert [float(x).hex() for x in pmf.probs] == probs
        assert float(pmf.error_estimate).hex() == error

    def test_cell_masses(self):
        masses = joint_pdf3_cell_masses(DOMAIN, np.linspace(0.0, 1.0, 6))
        assert masses.dtype == np.float64 and masses.shape == (5, 5, 5)
        assert (
            hashlib.sha256(masses.tobytes()).hexdigest()
            == "0ced734eefc4dd16203c4f8fdd2b7043726bba360f2f6a4e65c949a2703d4ef2"
        )

    def test_inner_lines(self):
        # The per-line values and error estimates of 300 random lines, with
        # a weight and one extra break.
        p, q = np.random.default_rng(7).uniform(0.0, 1.0, (2, 300))
        values, errors = _inner_lines(
            p, q, 0.0, 1.0, 1.0, weights=(MODELS["exp"].probability,), extra_breaks=(0.45,)
        )
        assert (
            hashlib.sha256(values.tobytes() + errors.tobytes()).hexdigest()
            == "31b79f7620294a61fe40eeb43391ab1618a6866c662e3a30a3a0d0e5cb91847f"
        )


class TestEmptyLines:
    def test_empty_lines_integrate_to_zero(self, monkeypatch):
        seen = []
        kernel = distances._pdf3_batch

        def recording_kernel(r12, r13, r23, *args, **kwargs):
            seen.append(np.ravel(r12) + np.ravel(r13))  # the (1, k) rows p and q
            return kernel(r12, r13, r23, *args, **kwargs)

        monkeypatch.setattr(distances, "_pdf3_batch", recording_kernel)
        values, errors = _inner_lines([0.1, 0.2, 0.3], [0.2, 0.1, 0.4], 0.5, 1.0, 1.0)
        assert np.all(np.concatenate(seen) >= 0.5)
        assert values[:2].tolist() == [[0.0], [0.0]] and errors[:2].tolist() == [[0.0], [0.0]]
        assert values[2, 0] > 0.0


class TestLineIntegratorMemory:
    def test_peak_memory_after_warm_up(self):
        # The kernel blocks run in a reused per-thread workspace, so a
        # repeated call allocates nothing of block size.  Before blocking
        # this peak was 9.3 MiB; it is about 1.2 MiB now.
        model = ExponentialSoft(r0=0.3, beta=2.0)
        quad = QuadratureSettings(abs_tol=1e-6)
        pmf_n3(model, DOMAIN, quad)
        tracemalloc.start()
        try:
            pmf_n3(model, DOMAIN, quad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_shared_pass_peak_memory_after_warm_up(self):
        # The 40 models of an exp sweep are the columns of one pass; each
        # kernel block weighs them one at a time in the workspace, so only
        # the per-(piece, column) sums grow with the columns, and those of
        # at most ``_LINE_CELLS`` lines times columns at a time (about
        # 0.6 MiB here).
        models = [ExponentialSoft(r0=float(r0), beta=2.0) for r0 in np.linspace(0.05, 1.0, 40)]
        graphdist._exact_pmfs({3}, models, DOMAIN)
        tracemalloc.start()
        try:
            graphdist._exact_pmfs({3}, models, DOMAIN)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
