"""Adaptive quadrature: exactness, determinism, breakpoints, failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rggdist import AccuracyError, DiskDomain, DomainError, pair_pdf
from rggdist.distances import joint_pdf3_values
from rggdist.quadrature import (
    _RULE_WEIGHTS,
    QuadratureSettings,
    _gk15_sums,
    _pieces,
    integrate_many,
)

from helpers import integrate_nd, pieces_reference

TIGHT = QuadratureSettings(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=50)


def test_settings_validation():
    with pytest.raises(DomainError):
        QuadratureSettings(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSettings(abs_tol=-1.0)
    for bad in (0, True, 2.5):
        with pytest.raises(DomainError):
            QuadratureSettings(max_subdivisions=bad)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            QuadratureSettings(abs_tol=bad)
        with pytest.raises(DomainError):
            QuadratureSettings(rel_tol=bad)


def test_unit_cube():
    res = integrate_nd(lambda p: np.ones(len(p)), [(0, 1), (0, 1), (0, 1)], TIGHT)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_pair_pdf_normalizes():
    domain = DiskDomain(1.0)
    values, _ = integrate_many(lambda r, _: pair_pdf(r, domain), [(0.0, 1.0)], TIGHT)
    assert values[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("deg", [0, 1, 2, 3])
def test_polynomial_exact_single_panel_1d(deg):
    one_panel = QuadratureSettings(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=1)
    values, _ = integrate_many(lambda x, _: x**deg, [(0.0, 1.0)], one_panel)
    assert values[0] == pytest.approx(1.0 / (deg + 1), abs=1e-14)


def test_two_dimensional_box():
    settings = QuadratureSettings(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=100)
    res = integrate_nd(
        lambda p: np.exp(p[:, 0]) * np.sin(p[:, 1]), [(0, 1), (0, np.pi)], settings
    )
    assert res.value == pytest.approx(2.0 * (np.e - 1.0), rel=1e-9)


@pytest.mark.parametrize("degs", [(0, 0, 0), (1, 2, 3), (3, 3, 3), (2, 0, 1)])
def test_polynomial_exact_per_axis_3d(degs):
    a, b, c = degs
    settings = QuadratureSettings(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=4)
    res = integrate_nd(
        lambda p: p[:, 0] ** a * p[:, 1] ** b * p[:, 2] ** c,
        [(0, 1), (0, 1), (0, 1)],
        settings,
    )
    exact = 1.0 / ((a + 1) * (b + 1) * (c + 1))
    assert res.value == pytest.approx(exact, abs=1e-12)


def test_deterministic_bit_identical():
    f = lambda x, _: np.sin(13.0 * x) * np.exp(x)
    v1, e1 = integrate_many(f, [(0.0, 1.0)], TIGHT)
    v2, e2 = integrate_many(f, [(0.0, 1.0)], TIGHT)
    assert v1[0] == v2[0]
    assert e1[0] == e2[0]


def test_refinement_monotonicity():
    f = lambda x, _: np.sin(7.0 * x) + np.exp(-x)
    prev = None
    for tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        _, errors = integrate_many(f, [(0.0, 3.0)], QuadratureSettings(abs_tol=tol, rel_tol=0.0))
        if prev is not None:
            assert errors[0] <= prev + 1e-16
        prev = errors[0]


def test_breakpoint_handles_kink():
    settings = QuadratureSettings(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=2)
    values, _ = integrate_many(lambda x, _: np.abs(x - 0.3), [(0.0, 1.0)], settings, [[0.3]])
    assert values[0] == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.7**2, abs=1e-14)


def test_accuracy_error_carries_best_value():
    settings = QuadratureSettings(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=4)
    with pytest.raises(AccuracyError) as excinfo:
        integrate_many(
            lambda x, _: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-300), [(0.0, 1.0)], settings
        )
    err = excinfo.value
    assert err.value is not None
    assert err.error_estimate is not None
    # True integral is 2*(sqrt(0.7) + sqrt(0.3)) ~ 2.769; the carried value
    # should already be in the neighbourhood.
    assert abs(float(err.value[0]) - 2.769) < 0.5


def test_integrate_many_lockstep():
    intervals = [(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (0.0, 0.5), (1.0, 0.0)]
    values, errors = integrate_many(
        lambda x, which: x ** (which + 1), intervals, TIGHT
    )
    assert values[0] == pytest.approx(0.5, abs=1e-12)
    assert values[1] == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert values[2] == 0.0  # empty interval
    assert values[3] == pytest.approx(0.5**5 / 5.0, abs=1e-14)
    assert values[4] == 0.0  # reversed interval: empty
    assert np.all(errors >= 0.0)


def test_gk15_sums_are_one_fixed_sequence_of_roundings():
    # Each panel's sums equal the same float64 operations done one scalar
    # at a time (weigh, add in node order, scale), whether the panel is
    # summed alone, in a pair or in a batch of 300.  Alone, numpy would
    # sum a lone reduction axis pairwise.
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((15, 300)) * 10.0 ** rng.integers(-3, 4, (15, 300))
    scale = rng.uniform(0.1, 2.0, 300)
    w = _RULE_WEIGHTS[:, :, 0].tolist()
    expected = []
    for i in range(300):
        v = vals[:, i].tolist()
        sums = [w[0][c] * v[0] for c in range(2)]
        for j in range(1, 15):
            sums = [sums[c] + w[j][c] * v[j] for c in range(2)]
        expected.append((sums[0] * scale[i], abs(sums[1] * scale[i])))
    batches = [slice(0, 300)] + [slice(i, i + 1) for i in range(300)]
    batches += [slice(i, i + 2) for i in range(0, 300, 2)]
    for batch in batches:
        kron, err = _gk15_sums(vals[:, batch], scale[batch])
        got = [(k.hex(), e.hex()) for k, e in zip(kron, err)]
        assert got == [(k.hex(), e.hex()) for k, e in expected[batch]]


def test_integrate_many_lockstep_integral_equals_it_alone():
    # A panel's rule sums use only its own integrand values, so each of 200
    # integrals refined in lockstep gives the bytes it gives alone.
    rates = np.linspace(0.5, 20.0, 200)

    def integrand(params):
        return lambda x, which: np.exp(-params[which] * x) * np.cos(params[which] * x)

    settings = QuadratureSettings(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=50)
    intervals = [(0.0, 1.0 + 0.01 * k) for k in range(len(rates))]
    values, errors = integrate_many(integrand(rates), intervals, settings)
    for k in range(len(rates)):
        value, error = integrate_many(integrand(rates[k : k + 1]), intervals[k : k + 1], settings)
        assert (value[0].hex(), error[0].hex()) == (values[k].hex(), errors[k].hex())


def test_work_cap_stops_only_the_failing_integral():
    # A singular integrand cannot converge within 4 bisections; it spends
    # all of them and raises, and the smooth integral beside it keeps the
    # bytes it gets alone.  Its third round wants two bisections with one
    # left, and spends it on the larger-error piece, [0.25, 0.5].
    settings = QuadratureSettings(max_subdivisions=4)
    seen, singular = [], []

    def integrand(x, which):
        seen.append(np.bincount(which, minlength=2))
        singular.append(x[which == 0])
        return np.where(which == 0, 1.0 / np.sqrt(np.abs(x - 0.3)), np.exp(5.0 * x))

    with pytest.raises(AccuracyError) as excinfo:
        integrate_many(integrand, [(0.0, 1.0), (0.0, 1.0)], settings)
    panels = np.sum(seen, axis=0) // 15
    assert panels[0] == 1 + 2 * settings.max_subdivisions
    assert 0.25 < singular[-1].min() and singular[-1].max() < 0.5
    alone, _ = integrate_many(lambda x, which: np.exp(5.0 * x), [(0.0, 1.0)], settings)
    assert excinfo.value.value[1].hex() == alone[0].hex()


def test_integrate_many_per_interval_breakpoints():
    values, _ = integrate_many(
        lambda x, which: np.abs(x - 0.25 * (which + 1)),
        [(0.0, 1.0), (0.0, 1.0)],
        QuadratureSettings(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3),
        breakpoints=[(0.25,), (0.5,)],
    )
    assert values[0] == pytest.approx(0.5 * 0.25**2 + 0.5 * 0.75**2, abs=1e-13)
    assert values[1] == pytest.approx(0.25, abs=1e-13)


# Ends and points from a few shared values, so that points land on the
# ends, repeat and fall outside, and intervals come out empty or inverted.
ends = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(-2.0, 2.0, allow_nan=False)


@given(st.lists(st.tuples(ends, ends, st.lists(ends | st.just(math.nan), max_size=6)), max_size=8))
def test_pieces_match_the_per_interval_loop(rows):
    lo = np.array([row[0] for row in rows])
    hi = np.array([row[1] for row in rows])
    breaks = np.full((len(rows), max((len(row[2]) for row in rows), default=0)), math.nan)
    for i, row in enumerate(rows):
        breaks[i, : len(row[2])] = row[2]
    got = _pieces(lo, hi, breaks)
    want = pieces_reference(lo, hi, breaks)
    assert [part.tolist() for part in got] == list(want)
    # NaN padding and extra columns change nothing.
    padded = np.concatenate([breaks, np.full((len(rows), 2), math.nan), breaks], axis=1)
    assert [part.tolist() for part in _pieces(lo, hi, padded)] == list(want)


@pytest.mark.parametrize(
    "intervals, breakpoints",
    [
        ([(0.0, 1.0), (0.0, 1.0)], [(0.5,), (0.2, 0.3)]),  # ragged rows
        ([(0.0, 1.0), (0.0, 1.0)], [(0.5,), None]),  # a None row
        ([(0.0, 1.0), (0.0, 1.0)], [None, None]),
        ([(0.0, 1.0), (0.0, 1.0)], [0.5, 0.3]),  # a point per interval, not (k, j)
        ([(0.0, 1.0), (0.0, 1.0)], [(0.5,)]),  # one row for two intervals
        ([(0.0, 1.0, 2.0)], None),  # three ends
        ([(0.0, 1.0), (0.0,)], None),  # ragged ends
        ([(0.0, 1.0), (0.0, math.inf)], None),  # non-finite ends
        ([(math.nan, 1.0)], None),
    ],
)
def test_integrate_many_refuses_misshapen_input(intervals, breakpoints):
    with pytest.raises(DomainError):
        integrate_many(lambda x, which: x, intervals, TIGHT, breakpoints)


def test_joint_density_normalization_generic_path():
    # The three-distance joint density has an integrable blow-up toward
    # collinear triples; the iterated adaptive path must still reach 1e-3.
    domain = DiskDomain(1.0)
    res = integrate_nd(
        lambda pts: joint_pdf3_values(pts[:, 0], pts[:, 1], pts[:, 2], domain),
        [(0, 1), (0, 1), (0, 1)],
        QuadratureSettings(abs_tol=1e-3, rel_tol=0.0, max_subdivisions=2000),
    )
    assert res.value == pytest.approx(1.0, abs=1e-3)
