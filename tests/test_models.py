import math
from fractions import Fraction

import numpy as np
import pytest

from snlpscale import make_brownian, make_exp_jump_diffusion


class TestConstruction:
    def test_brownian_psi_values(self):
        m = make_brownian(1.0, 1.0)
        assert m.psi(2.0) == pytest.approx(4.0)
        assert make_brownian(0.0, 1.0).psi(2.0) == pytest.approx(2.0)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            make_brownian(1.0, 0.0)
        with pytest.raises(ValueError):
            make_exp_jump_diffusion(1.0, 0.0, 1.0, 1.0)

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError, match="mu must be finite"):
            make_brownian(math.nan, 1.0)

    def test_jump_parameter_domains(self):
        with pytest.raises(ValueError):
            make_exp_jump_diffusion(1.0, 1.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            make_exp_jump_diffusion(1.0, 1.0, 1.0, 0.0)

    def test_zero_rate_degenerates_to_brownian(self):
        jd = make_exp_jump_diffusion(1.0, 1.0, 0.0, 1.0)
        bm = make_brownian(1.0, 1.0)
        for lam in (0.0, 0.7, 2.0):
            assert jd.psi(lam) == pytest.approx(bm.psi(lam))
        assert jd.psi(2.0) == pytest.approx(4.0)

    def test_jump_psi_hand_value(self):
        jd = make_exp_jump_diffusion(1.0, 1.0, 1.0, 1.0)
        # 1 + 0.5 - 0.5
        assert jd.psi(1.0) == pytest.approx(1.0)

    def test_psi_vanishes_at_zero(self):
        for m in (make_brownian(-2.0, 0.7), make_exp_jump_diffusion(1.0, 2.0, 3.0, 0.25)):
            assert m.psi(0.0) == 0.0

    def test_psi_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            make_brownian(0.0, 1.0).psi(-0.1)

    def test_brownian_sqrt2_value(self):
        assert make_brownian(0.0, 1.0).psi(math.sqrt(2.0)) == pytest.approx(1.0)


class TestPhi:
    def test_brownian_inverse(self):
        assert make_brownian(0.0, 1.0).phi(2.0) == pytest.approx(2.0, abs=1e-12)

    def test_largest_root_at_zero(self):
        # roots of -lam + lam^2/2 are {0, 2}
        assert make_brownian(-1.0, 1.0).phi(0.0) == pytest.approx(2.0, abs=1e-12)

    def test_drifting_up_root_is_zero(self):
        assert make_brownian(1.0, 1.0).phi(0.0) == 0.0

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize(
        "model",
        [
            make_brownian(0.0, 1.0),
            make_brownian(-1.5, 0.8),
            make_exp_jump_diffusion(1.0, 1.0, 1.0, 1.0),
            make_exp_jump_diffusion(-0.5, 1.0, 2.0, 0.4),
        ],
    )
    def test_phi_is_right_inverse(self, model, q):
        root = model.phi(q)
        assert model.psi(root) == pytest.approx(q, rel=1e-10, abs=1e-12)

    def test_subnormal_parameters(self):
        # a plain companion-matrix root solve returned a root with psi = 0.65 here
        m = make_exp_jump_diffusion(1.1125e-308, 1.0, 1.1125e-308, 0.25)
        root = m.phi(1.1125e-308)
        assert root > 0.0
        assert m.psi(root) == pytest.approx(1.1125e-308, rel=1e-9)
        assert m.psi_derivative(root) >= 0.0

    def test_phi_monotone(self):
        m = make_exp_jump_diffusion(-0.5, 1.0, 2.0, 0.4)
        qs = np.linspace(0.0, 4.0, 25)
        roots = [m.phi(q) for q in qs]
        assert np.all(np.diff(roots) >= 0.0)

    def test_phi_rejects_negative_q(self):
        with pytest.raises(ValueError):
            make_brownian(0.0, 1.0).phi(-1.0)

    def test_roots_reject_nan_q(self):
        # NaN fails every comparison, so a ``q < 0`` test would let it through
        with pytest.raises(ValueError):
            make_brownian(0.0, 1.0).roots(math.nan)


class TestRegimes:
    def test_psi_prime_analytic(self):
        m = make_exp_jump_diffusion(1.0, 1.0, 2.0, 0.25)
        assert m.psi_prime_at_zero() == pytest.approx(0.5)
        eps = 1e-7
        fd = (m.psi(eps) - 0.0) / eps
        assert fd == pytest.approx(m.psi_prime_at_zero(), abs=1e-5)

    @pytest.mark.parametrize("lam", [1.4142e-150, 1e-8])
    def test_psi_near_zero_when_drift_balances_jumps(self, lam):
        # psi'(0) = 1 - 1 = 0: psi is 3 lam^2/2 near 0, psi' is 3 lam
        m = make_exp_jump_diffusion(1.0, 1.0, 1.0, 1.0)
        x = Fraction(lam)
        psi = x + x * x / 2 - x / (1 + x)
        dpsi = 1 + x - 1 / (1 + x) ** 2
        assert m.psi(lam) == pytest.approx(float(psi), rel=1e-13, abs=0.0)
        assert m.psi_derivative(lam) == pytest.approx(float(dpsi), rel=1e-13, abs=0.0)

    def test_convexity_midpoint(self):
        for m in (make_brownian(-1.0, 1.0), make_exp_jump_diffusion(1.0, 1.0, 1.0, 1.0)):
            lams = np.linspace(0.0, 5.0, 11)
            for l1, l2 in zip(lams[:-1], lams[1:]):
                mid = m.psi(0.5 * (l1 + l2))
                chord = 0.5 * (m.psi(l1) + m.psi(l2))
                scale = max(1.0, abs(chord))
                assert mid < chord + 1e-12 * scale


class TestEsscher:
    def test_brownian_complete_square(self):
        tilted = make_brownian(0.0, 1.0).esscher_tilt(1.0)
        assert tilted == make_brownian(1.0, 1.0)

    def test_zero_tilt_is_identity(self):
        for m in (make_brownian(0.3, 2.0), make_exp_jump_diffusion(1.0, 1.0, 1.0, 1.0)):
            assert m.esscher_tilt(0.0) == m

    def test_jump_parameters_and_exponent_identity(self):
        m = make_exp_jump_diffusion(1.0, 1.0, 1.0, 1.0)
        t = m.esscher_tilt(1.0)
        assert t.jump_rate == pytest.approx(0.5)
        assert t.jump_mean == pytest.approx(0.5)
        for lam in (0.5, 1.0, 2.0):
            assert t.psi(lam) == pytest.approx(m.psi(lam + 1.0) - m.psi(1.0), abs=1e-12)

    def test_tilt_composition(self):
        m = make_exp_jump_diffusion(-0.5, 1.3, 2.0, 0.4)
        once = m.esscher_tilt(0.7).esscher_tilt(0.4)
        direct = m.esscher_tilt(1.1)
        assert once.mu == pytest.approx(direct.mu, abs=1e-12)
        assert once.jump_rate == pytest.approx(direct.jump_rate, abs=1e-12)
        assert once.jump_mean == pytest.approx(direct.jump_mean, abs=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.5, 2.0])
    def test_tilted_model_never_drifts_down(self, q):
        for m in (
            make_brownian(-2.0, 1.0),
            make_exp_jump_diffusion(-0.5, 1.0, 2.0, 0.4),
        ):
            tilted = m.esscher_tilt(m.phi(q))
            assert tilted.psi_prime_at_zero() >= 0.0

    def test_negative_tilt_rejected(self):
        with pytest.raises(ValueError):
            make_brownian(0.0, 1.0).esscher_tilt(-0.1)
