"""Pins of the exact (quadrature) outputs, plus the memory and the
empty-interval behaviour of the line integrator behind them.

The pinned bytes were recorded before the line integrator evaluated its
density kernel in blocks; any change of the integrator must reproduce
them exactly.  They depend on how numpy's ``arccos``/``exp`` and BLAS's
matrix-vector product round, which varies with the CPU's SIMD features
(with numpy's AVX-512 loops disabled both the pins and the fingerprint
below change), so the byte pins run only where that fingerprint matches
the one recorded with them.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from rggdist import DiskDomain, ExponentialSoft, HardDisk, QuadratureSettings, pmf_n3
from rggdist import distances
from rggdist.distances import _inner_lines, joint_pdf3_cell_masses, triple_product_integral
from rggdist.quadrature import GK15_WEIGHTS01

DOMAIN = DiskDomain(1.0)


def rounding_fingerprint():
    x = np.linspace(0.0, 1.0, 1001)
    # Seven rows: BLAS sums the first four and the last three with
    # different kernels.
    rows = np.sin(np.arange(7 * 15.0)).reshape(7, 15)
    digest = hashlib.sha256()
    for arr in (np.arccos(x), np.exp(-x), rows @ GK15_WEIGHTS01):
        digest.update(arr.tobytes())
    return digest.hexdigest()


RECORDED_FINGERPRINT = "fe043d32c7b65489de3d29b6ee6bdadff07c701bf7c71c812dc2f6530933f626"
same_rounding = pytest.mark.skipif(
    rounding_fingerprint() != RECORDED_FINGERPRINT,
    reason="arccos, exp or the BLAS row sums round differently here than where the pins were recorded",
)

PMF_PINS = {
    ("hard", None): (
        ["0x1.58e1e438c0e04p-3", "0x1.6307638eaace4p-3", "0x1.6307638eaace4p-3",
         "0x1.e07bee0fcb2f0p-5", "0x1.6307638eaace4p-3", "0x1.e07bee0fcb2f0p-5",
         "0x1.e07bee0fcb2f0p-5", "0x1.15aafe8f6651cp-3"],
        "0x1.3af0447603dc2p-13",
    ),
    ("hard", 1e-6): (
        ["0x1.58e1c994a5badp-3", "0x1.63077e2124c41p-3", "0x1.63077e2124c41p-3",
         "0x1.e07b840c68168p-5", "0x1.63077e2124c41p-3", "0x1.e07b840c68168p-5",
         "0x1.e07b840c68168p-5", "0x1.15ab18fe9de83p-3"],
        "0x1.a4793aa5cf198p-20",
    ),
    ("exp", None): (
        ["0x1.bcc7fdd0831d4p-2", "0x1.28b42e360761ep-3", "0x1.28b42e360761ep-3",
         "0x1.1dfc860997a24p-5", "0x1.28b42e360761ep-3", "0x1.1dfc860997a24p-5",
         "0x1.1dfc860997a24p-5", "0x1.aeb0a9ad8f313p-6"],
        "0x1.d344b3ba7b114p-13",
    ),
    ("exp", 1e-6): (
        ["0x1.bcc7fdce40b1dp-2", "0x1.28b42e384a6a0p-3", "0x1.28b42e384a6a0p-3",
         "0x1.1dfc860992bcap-5", "0x1.28b42e384a6a0p-3", "0x1.1dfc860992bcap-5",
         "0x1.1dfc860992bcap-5", "0x1.aeb0a99b8a866p-6"],
        "0x1.99a7c6633dafep-20",
    ),
}
MODELS = {"hard": HardDisk(r0=0.4), "exp": ExponentialSoft(r0=0.3, beta=2.0)}

# box12 = box13 = (0, 0.3), box23 = (0.5, D): lines with p + q < 0.5 have
# an empty third-side interval.
SPLIT_BOX = dict(box12=(0.0, 0.3), box13=(0.0, 0.3), box23=(0.5, None))


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

    def test_cell_masses(self):
        masses = joint_pdf3_cell_masses(DOMAIN, np.linspace(0.0, 1.0, 6))
        assert masses.dtype == np.float64 and masses.shape == (5, 5, 5)
        assert (
            hashlib.sha256(masses.tobytes()).hexdigest()
            == "0f643f9b64f4fc20860366ae114a71a6e6ba25b06ecc7482ba91b1be3f05505f"
        )

    def test_empty_lines_keep_value(self):
        value, error = triple_product_integral(DOMAIN, **SPLIT_BOX)
        assert float(value).hex() == "0x1.cad670ec33fa2p-10"
        assert float(error).hex() == "0x1.9f95f929a3e9cp-22"


class TestEmptyLines:
    @staticmethod
    def record_kernel_lines(monkeypatch):
        seen = []
        kernel = distances._pdf3_batch

        def recording_kernel(r12, r13, r23, *args, **kwargs):
            seen.append(np.ravel(r12) + np.ravel(r13))  # the (k, 1) columns p and q
            return kernel(r12, r13, r23, *args, **kwargs)

        monkeypatch.setattr(distances, "_pdf3_batch", recording_kernel)
        return seen

    def test_kernel_skips_empty_lines(self, monkeypatch):
        seen = self.record_kernel_lines(monkeypatch)
        triple_product_integral(DOMAIN, **SPLIT_BOX)
        p_plus_q = np.concatenate(seen)
        assert len(p_plus_q) > 0
        # A line is empty exactly when p + q < 0.5, the box23 lower bound.
        assert np.all(p_plus_q >= 0.5)

    def test_empty_lines_integrate_to_zero(self, monkeypatch):
        seen = self.record_kernel_lines(monkeypatch)
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
