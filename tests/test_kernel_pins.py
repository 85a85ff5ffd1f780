"""Bit-for-bit pins of the single-pass density kernels against the
sort-and-mask reference kernels in ``helpers``: values and case codes
must be equal byte for byte, with the same dtype and shape.  The blocked
line integrator is pinned the same way: its results must not depend on
the block size, on what an earlier call left in the workspace, or on
another thread using the integrator at the same time."""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rggdist import (
    DiskDomain,
    ExponentialSoft,
    HardDisk,
    joint_pdf3_via_conditioning_many,
    pmf_n3,
)
from rggdist import distances
from rggdist.distances import (
    _cond_pdf3_batch,
    _inner_lines,
    _pdf3_batch,
    _per_cell_line_integrals,
    _Workspace,
)
from rggdist.geometry import _phi_clipped

from helpers import (
    cond_pdf3_batch_reference,
    obtuse_boundary_triples,
    pdf3_batch_reference,
    phi_reference,
    right_triangles,
    same_rounding,
    valid_triple_grid,
)

lengths = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
diameters = st.sampled_from([1.0, 0.7, 2.5]) | st.floats(min_value=0.05, max_value=5.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
PERMUTATIONS = ([0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0])


def assert_identical(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.dtype == ref.dtype
    assert new.shape == ref.shape
    # Bytes, not values: equal values could still differ in the sign of zero.
    assert new.tobytes() == ref.tobytes()


def assert_pdf3_pinned(r12, r13, r23, D):
    assert_identical(_pdf3_batch(r12, r13, r23, D), pdf3_batch_reference(r12, r13, r23, D))
    vals, codes = _pdf3_batch(r12, r13, r23, D, with_case=True)
    ref_vals, ref_codes = pdf3_batch_reference(r12, r13, r23, D, with_case=True)
    assert_identical(vals, ref_vals)
    assert_identical(codes, ref_codes)


def with_edge_rows(triples, D):
    """The triples plus, for each, a collinear row, a row with a zero side
    and a row whose longest side exceeds D, in all six orders."""
    x, y, _ = triples.T
    extra = np.concatenate([
        triples,
        np.column_stack([x, y, x + y]),
        np.column_stack([x, y, np.zeros_like(x)]),
        np.column_stack([x, y, np.full_like(x, 1.5 * D)]),
        [[0.0, 0.0, 0.0]],
    ])
    return np.concatenate([extra[:, perm] for perm in PERMUTATIONS])


class TestPdf3Pins:
    @given(st.lists(st.tuples(lengths, lengths, lengths), min_size=1, max_size=40), diameters)
    @settings(max_examples=200)
    def test_random_triples(self, triples, D):
        rows = with_edge_rows(np.asarray(triples, float) * D, D)
        assert_pdf3_pinned(rows[:, 0], rows[:, 1], rows[:, 2], D)

    @given(seeds, diameters)
    def test_case_boundary_families(self, seed, D):
        rng = np.random.default_rng(seed)
        for family in (obtuse_boundary_triples, right_triangles):
            rows = np.asarray(family(20, rng, diameter=D))
            for perm in PERMUTATIONS:
                assert_pdf3_pinned(rows[:, perm[0]], rows[:, perm[1]], rows[:, perm[2]], D)

    @given(st.integers(min_value=1, max_value=12), diameters, st.data())
    def test_broadcast_shapes(self, k, D, data):
        # The line integrator's layout: (k, 1) sides against (k, 15) nodes.
        column = hnp.arrays(np.float64, (k, 1), elements=lengths)
        p, q = data.draw(column) * D, data.draw(column) * D
        t = data.draw(hnp.arrays(np.float64, (k, 15), elements=lengths)) * D
        assert_pdf3_pinned(p, q, t, D)
        assert_pdf3_pinned(t, p, q, D)
        assert_pdf3_pinned(p, t, p, D)

    @given(lengths, lengths, lengths, diameters)
    @settings(max_examples=200)
    def test_zero_dimensional(self, x, y, z, D):
        assert_pdf3_pinned(np.float64(x), np.float64(y), np.float64(z), D)
        assert_pdf3_pinned(np.float64(x), np.float64(y), np.float64(x + y), D)


class TestCondPdf3Pins:
    @given(
        st.lists(st.tuples(lengths, lengths, lengths, lengths), min_size=1, max_size=40)
    )
    @settings(max_examples=200)
    def test_random_triples_and_scales(self, rows):
        arr = np.asarray(rows, float)
        sides = with_edge_rows(arr[:, :3], 1.0)
        s = np.resize(arr[:, 3] + 1e-3, len(sides))
        r12, r13, r23 = sides.T
        assert_identical(
            _cond_pdf3_batch(r12, r13, r23, s), cond_pdf3_batch_reference(r12, r13, r23, s)
        )
        assert_identical(
            _cond_pdf3_batch(r12, r13, r23, s[0]),
            cond_pdf3_batch_reference(r12, r13, r23, s[0]),
        )

    @given(lengths, lengths, lengths, st.floats(min_value=1e-3, max_value=3.0))
    def test_zero_dimensional(self, x, y, z, s):
        args = (np.float64(x), np.float64(y), np.float64(z), s)
        assert_identical(_cond_pdf3_batch(*args), cond_pdf3_batch_reference(*args))


    @same_rounding
    def test_conditioning_oracle_digest(self):
        # The values and errors of the oracle on the 1000 triples of
        # ``validate condpdf``, recorded when each triple still went
        # through ``triangle_quantities`` and a loop of its own cut the
        # intervals.
        r12, r13, r23 = valid_triple_grid().T
        values, errors = joint_pdf3_via_conditioning_many(r12, r13, r23, DiskDomain(1.0))
        assert (
            hashlib.sha256(values.tobytes() + errors.tobytes()).hexdigest()
            == "0faa9d89df0735866197b208c7e0a68e45d93f0ea47e7b9e6d7ac06e7c361db2"
        )


class TestPhiPins:
    @given(hnp.arrays(np.float64, st.integers(0, 50), elements=st.floats(-0.5, 1.5)))
    def test_arrays(self, x):
        assert_identical(_phi_clipped(x), phi_reference(x))

    @given(st.floats(min_value=-0.5, max_value=1.5))
    def test_scalars(self, x):
        assert_identical(_phi_clipped(x), phi_reference(x))
        assert_identical(_phi_clipped(np.float64(x)), phi_reference(np.float64(x)))
        assert_identical(_phi_clipped(np.asarray(x)), phi_reference(np.asarray(x)))


class TestBlockedLinePins:
    @given(st.integers(1, 12), st.integers(1, 12), diameters, st.data())
    def test_workspace_kernel_line_layout(self, k1, k2, D, data):
        # Two calls in a row through one workspace, the second smaller
        # than the first, so that stale buffer contents would show.
        ws = _Workspace(12)
        for k in (max(k1, k2), min(k1, k2)):
            column = hnp.arrays(np.float64, (k, 1), elements=lengths)
            p, q = data.draw(column) * D, data.draw(column) * D
            t = data.draw(hnp.arrays(np.float64, (k, 15), elements=lengths)) * D
            ref_vals, ref_codes = pdf3_batch_reference(p, q, t, D, with_case=True)
            assert_identical(_pdf3_batch(p, q, t, D, ws=ws).copy(), ref_vals)
            vals, codes = _pdf3_batch(p, q, t, D, with_case=True, ws=ws)
            assert_identical(vals, ref_vals)
            assert_identical(codes, ref_codes)

    @staticmethod
    def line_results():
        rng = np.random.default_rng(11)
        p, q = rng.uniform(0.0, 1.0, (2, 40))
        weight = ExponentialSoft(r0=0.3, beta=2.0).probability
        inner = _inner_lines(p, q, 0.0, 1.0, 1.0, weights=(weight,), extra_breaks=(0.3,))
        cells = _per_cell_line_integrals(p, q, np.linspace(0.0, 1.0, 6), 1.0, 0.0)
        return inner, cells

    @pytest.mark.parametrize("block", [1, 7, 8192])
    def test_results_do_not_depend_on_block_size(self, block, monkeypatch):
        (values, errors), cells = self.line_results()
        monkeypatch.setattr(distances, "_LINE_BLOCK", block)
        kernel_lines = []

        def recording_kernel(r12, r13, r23, *args, **kwargs):
            kernel_lines.append(np.shape(r23)[-1])  # node-major (15, pieces)
            return _pdf3_batch(r12, r13, r23, *args, **kwargs)

        monkeypatch.setattr(distances, "_pdf3_batch", recording_kernel)
        (b_values, b_errors), b_cells = self.line_results()
        assert max(kernel_lines) == block if block < 8192 else max(kernel_lines) < block
        assert_identical(b_values, values)
        assert_identical(b_errors, errors)
        assert_identical(b_cells, cells)

    def test_lines_do_not_depend_on_the_batch(self):
        # A line's value and error come from its own pieces, each summed
        # in a fixed node order: alone, in a batch of 300 and permuted,
        # the bytes are the same.
        rng = np.random.default_rng(29)
        p, q = rng.uniform(0.0, 1.0, (2, 300))
        weight = ExponentialSoft(r0=0.3, beta=2.0).probability

        def lines(pp, qq):
            return _inner_lines(pp, qq, 0.0, 1.0, 1.0, weights=(weight,), line_tol=1e-10)

        values, errors = lines(p, q)
        order = rng.permutation(len(p))
        p_values, p_errors = lines(p[order], q[order])
        assert_identical(p_values, values[order])
        assert_identical(p_errors, errors[order])
        alone = [lines(p[k : k + 1], q[k : k + 1]) for k in range(len(p))]
        assert_identical(np.concatenate([v for v, _ in alone]), values)
        assert_identical(np.concatenate([e for _, e in alone]), errors)

    def test_concurrent_threads_match_serial(self):
        # More threads than cores and a short switch interval, so that the
        # threads interleave inside the kernel; a workspace shared between
        # threads would mix their buffers.
        domain = DiskDomain(1.0)
        models = [HardDisk(r0=0.4), ExponentialSoft(r0=0.3, beta=2.0)] * 3
        serial = [pmf_n3(m, domain) for m in models]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(models)) as pool:
                futures = [pool.submit(pmf_n3, m, domain) for m in models]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert_identical(b.probs, a.probs)
            assert float(b.error_estimate).hex() == float(a.error_estimate).hex()
