"""Pins of the exact (quadrature) outputs, plus the memory and the
empty-interval behaviour of the line integrator behind them.

The pinned exponential three-node pmf bytes were recorded when
``integrate_many`` began to refine with the line integrator's bisection
loop; the line-integrator pins held through that change.  The two-node
pins were recorded before the pair probability and the product moments
began to share one edge-axis rule.  The hard and tabulated three-node
pins were recorded when the second moment's third side, which is no
edge, stopped splitting at the model's breakpoints.  Any later change
of the integrators must reproduce them exactly.  No pinned value
passes through BLAS, so they do not depend on the BLAS library or
its thread count.  They do depend on how numpy's ``arccos``/``exp``
round, which varies with the CPU's SIMD features (with numpy's AVX-512
loops disabled both the pins and the fingerprint below change), so the
byte pins run only where that fingerprint matches the one recorded with
them.
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
from rggdist import distances
from rggdist.distances import _inner_lines, joint_pdf3_cell_masses

DOMAIN = DiskDomain(1.0)


def rounding_fingerprint():
    x = np.linspace(0.0, 1.0, 1001)
    digest = hashlib.sha256()
    for arr in (np.arccos(x), np.exp(-x)):
        digest.update(arr.tobytes())
    return digest.hexdigest()


RECORDED_FINGERPRINT = "a21dd5cfb22ca985c01836054fb3fc49064db27009464839cb02f9eefe912746"
same_rounding = pytest.mark.skipif(
    rounding_fingerprint() != RECORDED_FINGERPRINT,
    reason="arccos or exp round differently here than where the pins were recorded",
)

PMF_PINS = {
    ("hard", None): (
        ["0x1.58e1e434a4f03p-3", "0x1.630763916818fp-3", "0x1.630763916818fp-3",
         "0x1.e07bee0a50998p-5", "0x1.630763916818fp-3", "0x1.e07bee0a50998p-5",
         "0x1.e07bee0a50998p-5", "0x1.15aafe8f6651dp-3"],
        "0x1.3af010318312ep-13",
    ),
    ("hard", 1e-6): (
        ["0x1.58e1c994a7b36p-3", "0x1.63077e212257ep-3", "0x1.63077e212257ep-3",
         "0x1.e07b840c73958p-5", "0x1.63077e212257ep-3", "0x1.e07b840c73958p-5",
         "0x1.e07b840c73958p-5", "0x1.15ab18fe9a94ep-3"],
        "0x1.a4793337e4abap-20",
    ),
    ("exp", None): (
        ["0x1.bcc7fdd0831d5p-2", "0x1.28b42e360761dp-3", "0x1.28b42e360761dp-3",
         "0x1.1dfc860997a22p-5", "0x1.28b42e360761dp-3", "0x1.1dfc860997a22p-5",
         "0x1.1dfc860997a22p-5", "0x1.aeb0a9ad8f313p-6"],
        "0x1.d344b3ba7cbdcp-13",
    ),
    ("exp", 1e-6): (
        ["0x1.bcc7fdce3b256p-2", "0x1.28b42e3850031p-3", "0x1.28b42e3850031p-3",
         "0x1.1dfc860992582p-5", "0x1.28b42e3850031p-3", "0x1.1dfc860992582p-5",
         "0x1.1dfc860992582p-5", "0x1.aeb0a99b5f4f9p-6"],
        "0x1.99a7eb063b338p-20",
    ),
    ("table", None): (
        ["0x1.062811c6f71c9p-2", "0x1.37eea562e075cp-3", "0x1.37eea562e075cp-3",
         "0x1.2eae5891c2dfdp-4", "0x1.37eea562e075cp-3", "0x1.2eae5891c2dfdp-4",
         "0x1.2eae5891c2dfdp-4", "0x1.0bbccedd982c5p-4"],
        "0x1.3ae92cd9e5beep-13",
    ),
    ("table", 1e-6): (
        ["0x1.0628103d5a6ffp-2", "0x1.37eea8755a490p-3", "0x1.37eea8755a490p-3",
         "0x1.2eae526e4e451p-4", "0x1.37eea8755a490p-3", "0x1.2eae526e4e451p-4",
         "0x1.2eae526e4e451p-4", "0x1.0bbcd4ff8dbb5p-4"],
        "0x1.948c3cca48364p-20",
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
            == "ff87574b0a73f9d5519c8c3cdfe4341469206e63035c22230f3d32606903086f"
        )

    def test_inner_lines(self):
        # The per-line values and error estimates of 300 random lines, with
        # a weight and one extra break.
        p, q = np.random.default_rng(7).uniform(0.0, 1.0, (2, 300))
        values, errors = _inner_lines(
            p, q, 0.0, 1.0, 1.0, weight=MODELS["exp"].probability, extra_breaks=(0.45,)
        )
        assert (
            hashlib.sha256(values.tobytes() + errors.tobytes()).hexdigest()
            == "ec20e124dc01b11751017a8973becf7caa5a6a04f8781e1e4fbd1515b97a1997"
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
        assert values[:2].tolist() == [0.0, 0.0] and errors[:2].tolist() == [0.0, 0.0]
        assert values[2] > 0.0


class TestLineIntegratorMemory:
    def test_peak_memory_after_warm_up(self):
        # The kernel blocks run in a reused per-thread workspace, so a
        # repeated call allocates nothing of block size.  Before blocking
        # this peak was 9.3 MiB; it is about 1.5 MiB now.
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
