import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    def test_eval_and_bound_check(self):
        F = BivariatePotential(lambda s, x: 0.5 * (x > 0.5), bound=0.5)
        assert F(1.0, 0.4) == 0.0
        assert F(1.0, 0.6) == 0.5
        bad = BivariatePotential(lambda s, x: x, bound=0.5)
        with pytest.raises(ValueError):
            bad.eval_pairs(np.ones(2), np.array([0.2, 0.9]))

    def test_negative_values_rejected(self):
        F = BivariatePotential(lambda s, x: -0.1 + 0.0 * x, bound=1.0)
        with pytest.raises(ValueError):
            F(1.0, 0.3)

    def test_scalar_only_callable(self):
        # the solvers pass (rows, nodes) blocks; a callable of floats alone is
        # then applied point by point
        def scalar(s, x):
            if isinstance(x, np.ndarray):
                raise TypeError
            return 0.25
        F = BivariatePotential(scalar, bound=0.25)
        x = np.linspace(0, 1, 10).reshape(2, 5)
        assert np.allclose(F.eval_pairs(np.ones_like(x), x), 0.25)

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

    def test_blocks_report_the_value_out_of_range(self):
        # the path engine evaluates (steps, paths) blocks
        F = BivariatePotential(lambda s, x: s - x, bound=0.5)
        s = np.ones((3, 4))
        x = np.full((3, 4), 0.75)
        x[2, 1] = -1.0
        assert F.eval_pairs(s[:2], x[:2]).shape == (2, 4)
        with pytest.raises(ValueError, match="value 2.0 outside"):
            F.eval_pairs(s, x)

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
        assert f(0.6, 0.6) == 0.5

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_bivariate("const:0.5,1", 1.0)
        with pytest.raises(ValueError):
            parse_bivariate("mystery:1", 1.0)
        with pytest.raises(ValueError):
            parse_bivariate("const:abc", 1.0)
        with pytest.raises(ValueError):
            parse_univariate("reflected:0.4")
        # a NaN threshold would compare false everywhere: the zero potential
        with pytest.raises(ValueError, match="non-finite"):
            parse_bivariate("level:1,nan", 1.0)

    def test_g_weights(self):
        z = np.array([0.5, 1.0])
        # every solver reads None as the weight 1
        assert parse_g("one") is None
        assert np.allclose(parse_g("identity")(z), z)
        assert np.allclose(parse_g("const:2.5")(z), 2.5)
        with pytest.raises(ValueError):
            parse_g("quadratic")


class TestReadsSup:
    """``reads_sup`` declares whether a potential's values depend on ``s``;
    the path engine skips the supremum where none does."""

    @pytest.mark.parametrize("spec", ["const:0.5", "level:1,0.6", "level:2,-0.5",
                                      "reflected:0.5", "indicator:1,0.3"])
    def test_a_potential_that_declares_no_sup_ignores_it(self, spec):
        b, a = 0.0, 2.0
        F = parse_bivariate(spec, a - b)
        assert F.reads_sup == (spec.partition(":")[0] in ("reflected", "indicator"))
        if F.reads_sup:
            return
        for x in np.linspace(b, a, 41):
            s = np.linspace(x, a, 33)
            vals = F.eval_pairs(s, np.full(s.shape, x))
            assert np.all(vals == vals[0])
            assert vals[0] == F.eval_pairs(np.array([x]), np.array([x]))[0]

    def test_declarations(self):
        assert BivariatePotential(lambda s, x: 0.0 * x, bound=1.0).reads_sup
        assert not parse_univariate("level:1,0.6").reads_sup


# ---------------------------------------------------------------------------
# Grammar properties (hypothesis, derandomized like tests/test_properties.py)
# ---------------------------------------------------------------------------

_SETTINGS = settings(deadline=None, max_examples=80, derandomize=True, database=None)
_height = st.floats(0.0, 10.0)
_threshold = st.floats(-3.0, 3.0)
_FORMS = {  # name: (argument strategies, value at (s, x), bound for a domain width)
    "const": ((_height,), lambda a, s, x: a[0], lambda a, w: a[0]),
    "reflected": (
        (_height,), lambda a, s, x: a[0] * max(s - x, 0.0), lambda a, w: 2.0 * a[0] * max(w, 1e-12)
    ),
    "indicator": ((_height, _threshold), lambda a, s, x: a[0] * (s - x > a[1]), lambda a, w: a[0]),
    "level": ((_height, _threshold), lambda a, s, x: a[0] * (x > a[1]), lambda a, w: a[0]),
}
_POSITION_ONLY = ("const", "level")


def _spec(name, args):
    return name + ":" + ",".join(repr(float(a)) for a in args)


@st.composite
def _forms(draw):
    name = draw(st.sampled_from(sorted(_FORMS)))
    return name, [draw(arg) for arg in _FORMS[name][0]]


_finite_arrays = hnp.arrays(
    float,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


class TestGrammarProperties:
    @_SETTINGS
    @given(_forms(), st.floats(0.0, 5.0), st.floats(-5.0, 5.0), st.floats(-1.0, 1.0))
    def test_round_trip(self, form, width, x, gap):
        name, args = form
        _, value, bound = _FORMS[name]
        spec = _spec(name, args)
        s = x + gap * width  # inside the rectangle the reflected bound covers
        F = parse_bivariate(spec, width)
        assert (F.name, F.bound) == (spec, bound(args, width))
        assert F(s, x) == value(args, s, x)
        if name in _POSITION_ONLY:
            f = parse_univariate(spec)
            assert (f.name, f.bound) == (spec, bound(args, width))
            assert f(x, x) == value(args, x, x)
        else:
            with pytest.raises(ValueError):
                parse_univariate(spec)

    @_SETTINGS
    @given(_forms(), st.integers(-1, 2).filter(lambda k: k != 0), st.floats(0.0, 5.0))
    def test_rejects_bad_arity(self, form, extra, value):
        name, args = form
        args = args + [value] * extra if extra > 0 else args[:extra]
        with pytest.raises(ValueError):
            parse_bivariate(_spec(name, args), 1.0)
        with pytest.raises(ValueError):
            parse_univariate(_spec(name, args))

    @_SETTINGS
    @given(_forms(), st.floats(1e-300, 1e6))
    def test_rejects_negative_heights(self, form, height):
        name, args = form
        spec = _spec(name, [-height] + args[1:])
        with pytest.raises(ValueError):
            parse_bivariate(spec, 1.0)
        with pytest.raises(ValueError):
            parse_univariate(spec)

    @_SETTINGS
    @given(_finite_arrays, st.floats(0.0, 1e6))
    def test_const_is_exactly_q_on_any_shape(self, xs, q):
        spec = _spec("const", [q])
        for out in (
            parse_bivariate(spec, 1.0).eval_pairs(xs, xs),
            parse_bivariate(spec, 1.0).eval_pairs(np.float64(0.5), xs),
            parse_univariate(spec).eval_pairs(xs, xs),
        ):
            assert out.dtype == np.float64 and out.shape == xs.shape
            assert np.all(out == q)

    def test_const_ignores_non_finite_arguments(self):
        # the constant never reads its arguments, so no NaN reaches the range check
        vals = parse_bivariate("const:0.5", 1.0).eval_pairs(
            np.array([np.nan, np.inf, 0.0]), np.array([0.0, -np.inf, np.nan])
        )
        assert np.array_equal(vals, [0.5, 0.5, 0.5])
        position_only = parse_univariate("const:0.5")
        assert np.array_equal(position_only.eval_pairs([np.nan], [np.nan]), [0.5])
