"""Connection models: definitions, parsing, and sampling behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rggdist import (
    DomainError,
    ExponentialSoft,
    HardDisk,
    Tabulated,
    parse_model,
)
from rggdist.montecarlo import substream

from helpers import connect_prob, sample_edge


class TestHardDisk:
    def test_indicator(self):
        m = HardDisk(r0=0.3)
        assert connect_prob(m, 0.2) == 1.0
        assert connect_prob(m, 0.3) == 0.0  # boundary does not connect
        assert connect_prob(m, 0.5) == 0.0

    def test_negative_distance(self):
        with pytest.raises(DomainError):
            connect_prob(HardDisk(r0=0.3), -0.1)

    def test_nonincreasing(self):
        m = HardDisk(r0=0.4)
        rs = np.linspace(0, 1, 101)
        ps = m.probability(rs)
        assert np.all(np.diff(ps) <= 0.0)


class TestExponentialSoft:
    def test_at_zero(self):
        assert connect_prob(ExponentialSoft(r0=1.0, beta=2.0), 0.0) == 1.0

    def test_value(self):
        m = ExponentialSoft(r0=0.5, beta=2.0)
        assert connect_prob(m, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_strictly_decreasing(self):
        m = ExponentialSoft(r0=0.3, beta=1.5)
        rs = np.linspace(0.01, 1, 100)
        assert np.all(np.diff(m.probability(rs)) < 0.0)

    @pytest.mark.parametrize("kwargs", [dict(r0=0.0, beta=1), dict(r0=1, beta=0.0)])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            ExponentialSoft(**kwargs)


class TestTabulated:
    def test_interpolation_and_clamping(self):
        m = Tabulated(knots=((0.0, 1.0), (0.5, 0.4), (1.0, 0.0)))
        assert connect_prob(m, 0.25) == pytest.approx(0.7)
        assert connect_prob(m, 2.0) == 0.0  # clamped to the last value
        assert m.probability(np.array([0.0, 0.5, 1.0])).tolist() == [1.0, 0.4, 0.0]

    def test_validation(self):
        with pytest.raises(DomainError):
            Tabulated(knots=((0.0, 1.0),))
        with pytest.raises(DomainError):
            Tabulated(knots=((0.5, 1.0), (0.5, 0.0)))
        with pytest.raises(DomainError):
            Tabulated(knots=((0.0, 1.2), (1.0, 0.0)))

    def test_breakpoints(self):
        m = Tabulated(knots=((0.0, 1.0), (0.3, 0.5), (1.0, 0.0)))
        assert m.breakpoints() == (0.0, 0.3, 1.0)

    def test_equality_uses_the_knots_alone(self):
        # The knot arrays probability() interpolates in are built once and
        # are not fields: models with equal knots are equal and hash alike.
        a = Tabulated(knots=((0, 1), (0.3, 0.5), (1, 0)))
        b = Tabulated(knots=((0.0, 1.0), (0.3, 0.5), (1.0, 0.0)))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != Tabulated(knots=((0.0, 1.0), (0.3, 0.6), (1.0, 0.0)))
        r = np.array([0.1, 0.3, 0.65])
        assert a.probability(r).tobytes() == np.interp(r, [0.0, 0.3, 1.0], [1.0, 0.5, 0.0]).tobytes()


@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=1e-3, max_value=3.0),
    st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=200)
def test_probability_always_in_unit_interval(r, r0, beta):
    for model in (HardDisk(r0=r0), ExponentialSoft(r0=r0, beta=beta)):
        p = connect_prob(model, r)
        assert 0.0 <= p <= 1.0


class TestSampleEdge:
    def test_deterministic_extremes(self):
        rng = substream(3, 0)
        assert all(sample_edge(HardDisk(r0=0.3), 0.1, rng) == 1 for _ in range(50))
        assert all(sample_edge(HardDisk(r0=0.3), 0.5, rng) == 0 for _ in range(50))

    def test_bernoulli_mean(self):
        # Mean of one million draws at p = exp(-1).
        model = ExponentialSoft(r0=1.0, beta=2.0)
        rng = substream(4, 0)
        n = 1_000_000
        hits = np.count_nonzero(rng.random(n) < connect_prob(model, 1.0))
        p = math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * se

    def test_consumes_one_draw(self):
        model = ExponentialSoft(r0=1.0, beta=2.0)
        rng_a = substream(9, 0)
        for _ in range(7):
            sample_edge(model, 0.4, rng_a)
        rng_b = substream(9, 0)
        rng_b.random(7)
        assert rng_a.random() == rng_b.random()


class TestProbabilityOut:
    """``probability(r, out=...)`` gives the bytes of ``probability(r)``."""

    MODELS = [
        HardDisk(r0=0.3),
        ExponentialSoft(r0=0.3, beta=1.5),
        ExponentialSoft(r0=0.3, beta=2.0),
        ExponentialSoft(r0=0.3, beta=3.0),
        Tabulated(knots=((0.0, 0.9), (0.25, 0.7), (0.5, 0.2), (0.8, 0.0))),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.spec_string())
    def test_byte_identical(self, model):
        # Distances laid out like a sampler block: a (rows, m) view of a
        # pair-major buffer, with r0, 0 and the diameter among them.
        r = np.sqrt(substream(17, 0).random((15, 1001))).T
        r[:3, 0] = (0.3, 0.0, 1.0)
        want = model.probability(r)
        scratch = np.empty((15, 1001)).T
        assert model.probability(r, out=scratch) is scratch
        assert scratch.tobytes() == want.tobytes()
        assert model.probability(r, out=r) is r
        assert r.tobytes() == want.tobytes()


class TestParseModel:
    def test_hard(self):
        m = parse_model("hard:r0=0.3")
        assert isinstance(m, HardDisk) and m.r0 == 0.3
        assert m.spec_string() == "hard:r0=0.3"

    def test_exp(self):
        m = parse_model("exp:r0=0.3,beta=2")
        assert isinstance(m, ExponentialSoft)
        assert (m.r0, m.beta) == (0.3, 2.0)

    @pytest.mark.parametrize(
        "model",
        [
            HardDisk(r0=0.123456789),
            HardDisk(r0=1 / 3),
            ExponentialSoft(r0=0.123456789, beta=2.0),
            ExponentialSoft(r0=1 / 3, beta=2.5),
            Tabulated(((0, 0.9), (0.25, 0.7), (0.5, 0.2), (0.8, 0), (1, 0))),
            Tabulated(((0, 1), (1 / 3, 0.5), (1, 0))),
        ],
    )
    def test_spec_string_round_trips(self, model):
        # Six significant digits would name a different model.
        assert parse_model(model.spec_string()) == model

    def test_table(self, tmp_path):
        path = tmp_path / "knots.csv"
        path.write_text("r,p\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
        m = parse_model(f"table:@{path}")
        assert isinstance(m, Tabulated)
        assert connect_prob(m, 0.25) == pytest.approx(0.75)

    def test_table_requires_header(self, tmp_path):
        path = tmp_path / "knots.csv"
        path.write_text("0.0,1.0\n1.0,0.0\n")
        with pytest.raises(DomainError):
            parse_model(f"table:@{path}")

    @pytest.mark.parametrize(
        "bad",
        ["hard", "hard:r0=x", "hard:r1=0.3", "exp:r0=0.3", "nope:r0=1", "table:file.csv",
         "table:", "table:0:1;1", "table:0:1;1:0:0", "table:0:x;1:0", "table:0:1;0:0",
         "hard:r0=0.3,r0=0.9", "exp:r0=0.3,beta=2,beta=3"],
    )
    def test_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_model(bad)
