import io
import math

import numpy as np
import pytest
from scipy.integrate import quad

from snlpscale import (
    InversionError,
    classical_exit_down,
    classical_exit_up,
    laplace_invert,
    make_brownian,
    make_exp_jump_diffusion,
    make_scale_table,
    n_height_tail,
    w_derivative,
    wq,
    zq,
)
from snlpscale.quadrature import composite_simpson
from snlpscale.scale import ScaleTable, _wq_array, _z_brownian

from conftest import partial_fraction_w, partial_fraction_w_prime, partial_fraction_z


class TestLaplaceInvert:
    def test_textbook_pairs(self):
        assert laplace_invert(lambda b: 1.0 / b**2, 1.0) == pytest.approx(1.0, abs=1e-8)
        assert laplace_invert(lambda b: 2.0 / b**2, 1.0) == pytest.approx(2.0, abs=1e-8)

    def test_exponential_pair(self):
        val = laplace_invert(lambda b: 1.0 / (b - 1.0), 1.0)
        assert val == pytest.approx(math.e, abs=1e-8)

    def test_scalar_only_transform_supported(self):
        def scalar_transform(p):
            if isinstance(p, np.ndarray):
                raise TypeError("scalars only")
            return 1.0 / p**2
        assert laplace_invert(scalar_transform, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nonpositive_abscissa(self):
        with pytest.raises(ValueError):
            laplace_invert(lambda b: 1.0 / b, 0.0)

    def test_nonfinite_transform_raises(self):
        with pytest.raises(InversionError):
            laplace_invert(lambda b: b * np.nan, 1.0)


class TestWq:
    def test_driftless_linear(self, bm_driftless):
        assert wq(bm_driftless, 0.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_transform_of_linear_w(self, bm_driftless):
        # independent check of W(x) = 2x: its transform must be 1/psi(beta)
        for beta in (1.0, 2.0, 4.0):
            val, _ = quad(
                lambda y: math.exp(-beta * y) * wq(bm_driftless, 0.0, y), 0.0, 60.0 / beta,
                epsabs=1e-12, epsrel=0,
            )
            assert val == pytest.approx(1.0 / bm_driftless.psi(beta), rel=1e-8)

    def test_sinh_form_against_inversion_oracle(self, bm_driftless):
        # closed form vs direct numerical inversion of 1/(beta^2/2 - 1/2)
        closed = wq(bm_driftless, 0.5, 1.0)
        assert closed == pytest.approx(2.0 * math.sinh(1.0), abs=1e-12)
        inverted = laplace_invert(
            lambda b: 1.0 / (0.5 * b * b - 0.5), 1.0, shift=bm_driftless.phi(0.5) + 1.0
        )
        assert inverted == pytest.approx(closed, abs=1e-8)

    def test_vanishes_on_negatives(self, bm_driftless, jd_unit):
        assert wq(bm_driftless, 0.5, -0.3) == 0.0
        assert wq(jd_unit, 0.5, -0.3) == 0.0
        assert wq(jd_unit, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 2.0])
    def test_jump_family_against_partial_fractions(self, jd_drifting, q, x):
        got = wq(jd_drifting, q, x)
        want = partial_fraction_w(jd_drifting, q, x)
        assert got == pytest.approx(want, rel=5e-8)

    def test_rejects_negative_q(self, bm_driftless):
        with pytest.raises(ValueError):
            wq(bm_driftless, -0.5, 1.0)


class TestZq:
    def test_cosh_form(self, bm_driftless):
        closed = zq(bm_driftless, 0.5, 1.0)
        assert closed == pytest.approx(math.cosh(1.0), abs=1e-12)
        # trapezoid oracle over the wq samples
        xs = np.linspace(0.0, 1.0, 4001)
        oracle = 1.0 + 0.5 * np.trapezoid(_wq_array(bm_driftless, 0.5, xs), xs)
        assert closed == pytest.approx(oracle, abs=1e-6)

    def test_unit_at_zero_discount_and_negatives(self, bm_drift_up, jd_unit):
        assert zq(bm_drift_up, 0.0, 3.7) == 1.0
        assert zq(jd_unit, 0.0, 2.0) == 1.0
        assert zq(jd_unit, 0.8, -1.0) == 1.0

    def test_jump_family_against_partial_fractions(self, jd_drifting):
        xs = np.linspace(0.0, 1.0, 2049)
        pf = np.array([partial_fraction_w(jd_drifting, 0.5, t) if t > 0 else 0.0 for t in xs])
        oracle = 1.0 + 0.5 * composite_simpson(pf, xs[1] - xs[0])
        assert zq(jd_drifting, 0.5, 1.0) == pytest.approx(oracle, rel=1e-7)


class TestZColumn:
    """The ``Z`` column of ``make_scale_table`` and its agreement with ``zq``."""

    @pytest.mark.parametrize("q", [0.01, 0.5, 5.0])
    def test_jump_column_against_partial_fractions(self, jd_drifting, q):
        table = make_scale_table(jd_drifting, q, 4.0, 65)
        want = [partial_fraction_z(jd_drifting, q, x) for x in table.grid]
        np.testing.assert_allclose(table.z_values, want, rtol=1e-6, atol=0.0)

    def test_column_does_not_depend_on_row_count(self, jd_drifting):
        coarse = make_scale_table(jd_drifting, 0.5, 4.0, 3)
        fine = make_scale_table(jd_drifting, 0.5, 4.0, 4097)
        assert coarse.grid[1] == fine.grid[2048] == 2.0
        np.testing.assert_allclose(coarse.z_values, fine.z_values[::2048], rtol=1e-15, atol=0.0)

    def test_point_call_matches_table_entry(self, jd_drifting):
        table = make_scale_table(jd_drifting, 0.5, 4.0, 9)
        for k in (1, 4, 8):
            x = float(table.grid[k])
            assert zq(jd_drifting, 0.5, x) == pytest.approx(table.z_values[k], rel=1e-15)

    def test_all_ones_without_discount(self, jd_drifting, bm_drift_up):
        for model in (jd_drifting, bm_drift_up):
            table = make_scale_table(model, 0.0, 4.0, 17)
            assert np.all(table.z_values == 1.0)
            assert np.all(table.z_deriv == 0.0)

    def test_brownian_column_is_closed_form(self, bm_drift_up):
        table = make_scale_table(bm_drift_up, 0.5, 4.0, 17)
        want = _z_brownian(bm_drift_up, 0.5, table.grid)
        np.testing.assert_allclose(table.z_values, want, rtol=1e-15, atol=0.0)


class TestWDerivative:
    def test_linear_case(self, bm_driftless):
        assert w_derivative(bm_driftless, 0.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_cosh_derivative_vs_central_difference(self, bm_driftless):
        closed = w_derivative(bm_driftless, 0.5, 1.0)
        assert closed == pytest.approx(2.0 * math.cosh(1.0), abs=1e-12)
        h = 1e-6
        fd = (wq(bm_driftless, 0.5, 1.0 + h) - wq(bm_driftless, 0.5, 1.0 - h)) / (2 * h)
        assert closed == pytest.approx(fd, rel=1e-8)

    def test_drifting_exponential_form(self, bm_drift_up):
        assert w_derivative(bm_drift_up, 0.0, 1.0) == pytest.approx(
            2.0 * math.exp(-2.0), abs=1e-12
        )

    def test_jump_family_against_partial_fractions(self, jd_drifting):
        for x in (0.5, 1.0, 2.0):
            got = w_derivative(jd_drifting, 0.5, x)
            want = partial_fraction_w_prime(jd_drifting, 0.5, x)
            assert got == pytest.approx(want, rel=2e-6, abs=1e-8)

    def test_rejects_nonpositive_argument(self, bm_driftless):
        with pytest.raises(ValueError):
            w_derivative(bm_driftless, 0.0, 0.0)


class TestHeightTail:
    def test_driftless_reciprocal(self, bm_driftless):
        assert n_height_tail(bm_driftless, 0.5) == pytest.approx(2.0, abs=1e-12)
        assert n_height_tail(bm_driftless, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_tail(self, bm_drift_up, jd_unit):
        for model in (bm_drift_up, jd_unit):
            zs = np.linspace(0.2, 5.0, 25)
            tails = [n_height_tail(model, z) for z in zs]
            assert np.all(np.diff(tails) < 0.0)
            assert n_height_tail(model, 5.0) < n_height_tail(model, 1.0)

    def test_rejects_nonpositive(self, bm_driftless):
        with pytest.raises(ValueError):
            n_height_tail(bm_driftless, 0.0)


class TestExitIdentities:
    def test_driftless_linear_ratio(self, bm_driftless):
        assert classical_exit_up(bm_driftless, 0.0, 0.0, 0.5, 1.0) == pytest.approx(0.5)
        assert classical_exit_down(bm_driftless, 0.0, 0.0, 0.5, 1.0) == pytest.approx(0.5)

    def test_discounted_sinh_ratio(self, bm_driftless):
        want = math.sinh(0.5) / math.sinh(1.0)
        up = classical_exit_up(bm_driftless, 0.5, 0.0, 0.5, 1.0)
        down = classical_exit_down(bm_driftless, 0.5, 0.0, 0.5, 1.0)
        assert up == pytest.approx(want, abs=1e-12)
        assert down == pytest.approx(want, abs=1e-9)

    def test_boundary_continuity(self, bm_driftless):
        val = classical_exit_up(bm_driftless, 0.0, 0.0, 1.0 - 1e-9, 1.0)
        assert val > 1.0 - 1e-6

    def test_total_probability_at_zero_discount(self, bm_drift_up, jd_unit):
        for model in (bm_drift_up, jd_unit):
            up = classical_exit_up(model, 0.0, -0.2, 0.5, 1.3)
            down = classical_exit_down(model, 0.0, -0.2, 0.5, 1.3)
            assert up + down == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0, 3.0])
    def test_values_in_unit_interval(self, jd_unit, q):
        up = classical_exit_up(jd_unit, q, 0.0, 0.4, 1.0)
        down = classical_exit_down(jd_unit, q, 0.0, 0.4, 1.0)
        assert 0.0 <= up <= 1.0
        assert 0.0 <= down <= 1.0

    # closer to a the identity is a difference of near-equal terms, and the
    # relative error of the small result grows with the cancellation
    @pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 1.0])
    def test_exit_down_against_partial_fractions(self, jd_drifting, x):
        q, b, a = 0.5, 0.0, 2.0
        want = partial_fraction_z(jd_drifting, q, x - b) - partial_fraction_z(
            jd_drifting, q, a - b
        ) * partial_fraction_w(jd_drifting, q, x - b) / partial_fraction_w(jd_drifting, q, a - b)
        got = classical_exit_down(jd_drifting, q, b, x, a)
        assert got == pytest.approx(want, rel=1e-7)

    def test_ordering_violation_rejected(self, bm_driftless):
        with pytest.raises(ValueError):
            classical_exit_up(bm_driftless, 0.0, 0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            classical_exit_down(bm_driftless, 0.0, 0.5, 0.5, 1.0)


class TestTransformIdentity:
    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize(
        "model",
        [make_brownian(0.3, 1.2), make_exp_jump_diffusion(1.0, 1.0, 1.0, 1.0)],
    )
    def test_scale_transform_matches(self, model, q):
        phiq = model.phi(q)
        for beta in (phiq + 1.0, phiq + 2.0):
            hi = 40.0 / (beta - phiq)
            xs = np.linspace(0.0, hi, 4097)
            vals = np.exp(-beta * xs) * _wq_array(model, q, xs)
            integral = composite_simpson(vals, xs[1] - xs[0])
            assert integral == pytest.approx(1.0 / (model.psi(beta) - q), rel=1e-6)


class TestEsscherIdentity:
    @pytest.mark.parametrize("q", [0.5, 1.0])
    @pytest.mark.parametrize(
        "model",
        [make_brownian(0.3, 1.2), make_exp_jump_diffusion(1.0, 1.0, 1.0, 1.0)],
    )
    def test_tilt_removes_discount(self, model, q):
        phiq = model.phi(q)
        tilted = model.esscher_tilt(phiq)
        for x in (0.25, 0.5, 1.0, 2.0):
            lhs = wq(model, q, x)
            rhs = math.exp(phiq * x) * wq(tilted, 0.0, x)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestExponentialRepresentation:
    @pytest.mark.parametrize(
        "model",
        [make_brownian(0.0, 1.0), make_brownian(1.0, 1.0)],
    )
    def test_ratio_equals_exponential_of_height_tail(self, model):
        b, x, a = 0.0, 0.5, 1.0
        ratio = classical_exit_up(model, 0.0, b, x, a)
        exponent, _ = quad(
            lambda s: n_height_tail(model, s - b), x, a, epsabs=1e-12, epsrel=0
        )
        assert ratio == pytest.approx(math.exp(-exponent), abs=1e-8)


class TestScaleTable:
    def test_table_invariants_and_csv(self, bm_driftless):
        table = make_scale_table(bm_driftless, 0.5, 2.0, 9)
        table.validate()
        assert table.w_values[0] == 0.0
        assert np.all(np.diff(table.w_values[1:]) > 0)
        assert np.all(table.z_values >= 1.0)
        text = table.to_csv_string()
        lines = text.strip().splitlines()
        assert lines[0] == "x,W,Wprime,Z,Zprime"
        assert len(lines) == 10
        # 17 significant digits survive a parse round trip
        x, w, wp, z, zp = (float(v) for v in lines[-1].split(","))
        assert x == 2.0
        assert w == pytest.approx(wq(bm_driftless, 0.5, 2.0), rel=1e-15)

    def test_rejects_negative_discount(self, bm_driftless, jd_drifting):
        for model in (bm_driftless, jd_drifting):
            with pytest.raises(ValueError):
                make_scale_table(model, -0.5, 2.0, 9)

    def test_validation_rejects_nonzero_origin(self):
        with pytest.raises(ValueError):
            ScaleTable(
                grid_lo=0.0, grid_hi=1.0, n=3,
                w_values=np.array([0.5, 1.0, 2.0]),
                w_deriv=np.ones(3),
            ).validate()

    def test_validation_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            ScaleTable(
                grid_lo=0.0, grid_hi=1.0, n=3,
                w_values=np.array([0.0, 2.0, 1.0]),
                w_deriv=np.ones(3),
            ).validate()
