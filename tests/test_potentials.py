import numpy as np
import pytest

from snlpscale import (
    BivariatePotential,
    UnivariatePotential,
    parse_bivariate,
    parse_g,
    parse_univariate,
)


class TestUnivariate:
    def test_eval_and_bound_check(self):
        f = UnivariatePotential(lambda x: 0.5 * (x > 0.5), bound=0.5)
        assert f(0.4) == 0.0
        assert f(0.6) == 0.5
        bad = UnivariatePotential(lambda x: x, bound=0.5)
        with pytest.raises(ValueError):
            bad.eval_array(np.array([0.2, 0.9]))

    def test_negative_values_rejected(self):
        f = UnivariatePotential(lambda x: -0.1 + 0.0 * x, bound=1.0)
        with pytest.raises(ValueError):
            f(0.3)

    def test_scalar_only_callable(self):
        def scalar(x):
            if isinstance(x, np.ndarray):
                raise TypeError
            return 0.25
        f = UnivariatePotential(scalar, bound=0.25)
        assert np.allclose(f.eval_array(np.linspace(0, 1, 5)), 0.25)


class TestBivariate:
    def test_frozen_slice(self):
        F = BivariatePotential(lambda s, x: 0.4 * (s - x), bound=2.0)
        f1 = F.frozen(1.0)
        assert f1(0.5) == pytest.approx(0.2)
        assert f1.bound == 2.0

    def test_lift_from_univariate(self):
        f = UnivariatePotential(lambda x: 0.5 * (x > 0.0), bound=0.5)
        F = BivariatePotential.from_univariate(f)
        assert F(17.0, 0.5) == f(0.5)
        assert F(-3.0, -0.5) == 0.0

    def test_pairs_bound_check(self):
        F = BivariatePotential(lambda s, x: s - x, bound=0.5)
        with pytest.raises(ValueError):
            F.eval_pairs(np.array([2.0]), np.array([0.0]))

    def test_nan_values_rejected(self):
        f = UnivariatePotential(lambda x: np.where(x > 0.5, np.nan, 0.1), bound=1.0)
        with pytest.raises(ValueError, match="nan"):
            f.eval_array(np.array([0.2, 0.9]))
        F = BivariatePotential(lambda s, x: np.where(x > 0.5, np.nan, 0.1), bound=1.0)
        with pytest.raises(ValueError, match="nan"):
            F.eval_pairs(np.array([1.0, 1.0]), np.array([0.2, 0.9]))

    def test_empty_arrays_pass(self):
        F = BivariatePotential(lambda s, x: 0.1 + 0.0 * x, bound=1.0)
        assert F.eval_pairs(np.empty(0), np.empty(0)).size == 0


class TestSelectors:
    def test_const(self):
        F = parse_bivariate("const:0.5", 1.0)
        assert F(1.0, 0.3) == 0.5
        assert F.bound == 0.5

    def test_reflected(self):
        F = parse_bivariate("reflected:0.4", 1.0)
        assert F(1.0, 0.5) == pytest.approx(0.2)
        assert F(0.5, 0.5) == 0.0

    def test_indicator(self):
        F = parse_bivariate("indicator:0.5,0.25", 1.0)
        assert F(1.0, 0.5) == 0.5
        assert F(1.0, 0.8) == 0.0

    def test_level(self):
        F = parse_bivariate("level:0.5,0.5", 1.0)
        assert F(2.0, 0.6) == 0.5
        assert F(2.0, 0.4) == 0.0
        f = parse_univariate("level:0.5,0.5")
        assert f(0.6) == 0.5

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_bivariate("const:0.5,1", 1.0)
        with pytest.raises(ValueError):
            parse_bivariate("mystery:1", 1.0)
        with pytest.raises(ValueError):
            parse_bivariate("const:abc", 1.0)
        with pytest.raises(ValueError):
            parse_univariate("reflected:0.4")

    def test_g_weights(self):
        z = np.array([0.5, 1.0])
        assert np.allclose(parse_g("one")(z), 1.0)
        assert np.allclose(parse_g("identity")(z), z)
        assert np.allclose(parse_g("const:2.5")(z), 2.5)
        with pytest.raises(ValueError):
            parse_g("quadratic")
