"""Monte Carlo engine: seeded reproducibility, closed-form z-scores, censoring.

The golden values pin every estimate bit for bit for a given ``(seed,
config)``: chunk ``k`` draws from the Philox substream keyed by ``(seed, k)``
and the draw order inside a step is fixed.  A change to the path engine that
moves any draw, or any floating-point operation of the accumulation, shows up
here as a failed ``==``.
"""

import numpy as np
import pytest

from snlpscale import (
    ExitSpec,
    MCConfig,
    classical_exit_down,
    classical_exit_up,
    make_brownian,
    make_exp_jump_diffusion,
    occupation_mc,
    parse_bivariate,
    parse_g,
    parse_univariate,
    run_exit_mc,
)

BM = make_brownian(0.3, 1.0)
JD = make_exp_jump_diffusion(2.0, 1.0, 1.0, 0.5)
SPEC = ExitSpec(0.0, 0.4, 1.0)
REFLECTED = parse_bivariate("reflected:0.5", SPEC.a - SPEC.b)
IDENTITY = parse_g("identity")
LEVEL = parse_univariate("level:1,0.6")


def _cfg(**kw):
    return MCConfig(dt=1e-3, n_paths=2000, seed=7, **kw)


# (up mean, up se, down mean, down se, p_up mean, p_up se, n_censored)
EXIT_GOLDEN = {
    "bm_bridge": (BM, {"bridge_correction": True}, (
        0.46387146108667265, 0.010907250961886824, 0.30897260319312564,
        0.006985878524818834, 0.4755, 0.011169702598013252, 0)),
    "bm_nobridge": (BM, {"bridge_correction": False}, (
        0.46321639528287134, 0.010904463586876035, 0.3060385828022867,
        0.0069299787041051325, 0.475, 0.011169148353275137, 0)),
    "bm_antithetic": (BM, {"antithetic": True}, (
        0.47249349662588874, 0.01068857219894922, 0.3019882368029325,
        0.006934499746139646, 0.4845, 0.010983186258112006, 0)),
    "jd": (JD, {}, (
        0.7211092103054254, 0.00974208660536517, 0.1554825025902819,
        0.0059993787567866105, 0.733, 0.00989466786840837, 0)),
}

# (time-integral mean, se, occupation mean, se, mean |A-B|, density profile)
OCCUPATION_GOLDEN = {
    "bm": (BM, (
        0.9354236206552539, 0.00171355691230446, 0.9351604849974473,
        0.001700049083835306, 0.0019249375802295504,
        [0.017060487976608592, 0.13387107189615036, 0.27396392508868567,
         0.4329039531358222, 0.41612411730155363, 0.31676930606614034,
         0.22067164082069793, 0.11658131878918382, 0.016372692585521882])),
    "jd": (JD, (
        0.9301490529463412, 0.001400501339573871, 0.9302677708267317,
        0.0013881761970309433, 0.0019105575029667184,
        [0.006644735933428838, 0.05956498361005189, 0.1526970209785754,
         0.3100560589466283, 0.3385707073141882, 0.29670300382147763,
         0.23250430245141446, 0.14272449484893118, 0.023518283379794877])),
}


class TestReproducibility:
    @pytest.mark.parametrize("case", sorted(EXIT_GOLDEN))
    def test_exit_estimates_are_pinned(self, case):
        model, kw, want = EXIT_GOLDEN[case]
        res = run_exit_mc(model, REFLECTED, SPEC, _cfg(**kw), g=IDENTITY)
        got = (
            res.up_laplace.mean, res.up_laplace.std_error,
            res.down_value.mean, res.down_value.std_error,
            res.p_up.mean, res.p_up.std_error, res.n_censored,
        )
        assert got == want

    @pytest.mark.parametrize("case", sorted(OCCUPATION_GOLDEN))
    def test_occupation_estimates_are_pinned(self, case):
        model, want = OCCUPATION_GOLDEN[case]
        occ = occupation_mc(model, LEVEL, SPEC, _cfg(), n_levels=9)
        got = (
            occ.time_integral_laplace.mean, occ.time_integral_laplace.std_error,
            occ.occupation_laplace.mean, occ.occupation_laplace.std_error,
            occ.mean_abs_discrepancy,
        )
        assert got == want[:5]
        assert np.array_equal(occ.density_profile, np.array(want[5]))

    def test_same_seed_same_samples(self):
        one = run_exit_mc(JD, REFLECTED, SPEC, _cfg(), keep_samples=True)
        two = run_exit_mc(JD, REFLECTED, SPEC, _cfg(), keep_samples=True)
        assert np.array_equal(one.samples.functional, two.samples.functional)
        assert np.array_equal(one.samples.s_at_exit, two.samples.s_at_exit)


class TestClosedForm:
    @pytest.mark.parametrize("model", [BM, JD], ids=["bm", "jd"])
    def test_constant_potential_zscores(self, model):
        q = 0.5
        F = parse_bivariate(f"const:{q}", SPEC.a - SPEC.b)
        res = run_exit_mc(model, F, SPEC, _cfg())
        up = classical_exit_up(model, q, SPEC.b, SPEC.x, SPEC.a)
        down = classical_exit_down(model, q, SPEC.b, SPEC.x, SPEC.a)
        p_up = classical_exit_up(model, 0.0, SPEC.b, SPEC.x, SPEC.a)
        for det, est in ((up, res.up_laplace), (down, res.down_value), (p_up, res.p_up)):
            assert abs(det - est.mean) / est.std_error < 3.0


class TestCensoring:
    def test_exit_mc_raises_on_censoring(self):
        with pytest.raises(RuntimeError, match="censored"):
            run_exit_mc(BM, REFLECTED, SPEC, _cfg(t_cap=1e-3))

    def test_occupation_mc_raises_on_censoring(self):
        with pytest.raises(RuntimeError, match="censored"):
            occupation_mc(BM, LEVEL, SPEC, _cfg(t_cap=1e-3), n_levels=9)


def test_occupation_mc_pairs_antithetic_paths():
    occ = occupation_mc(BM, LEVEL, SPEC, _cfg(antithetic=True), n_levels=9)
    assert occ.time_integral_laplace.n == 1000
    assert occ.occupation_laplace.n == 1000
