"""Monte Carlo engine: seeded reproducibility, closed-form z-scores, censoring.

The golden values pin every estimate bit for bit for a given ``(seed,
config)``: chunk ``k`` draws from the Philox substream keyed by ``(seed, k)``
and the draw order inside a step is fixed.  A change to the path engine that
moves any draw, or any floating-point operation of the accumulation, shows up
here as a failed ``==``.
"""

import hashlib

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


# sha256 of the raw bytes of each per-path record (keep_samples=True); the jd
# case has jump exits with x_post < b, and without the bridge x_post < b too
SAMPLE_FIELDS = ("exited_up", "s_at_exit", "x_pre", "x_post", "functional")
SAMPLE_GOLDEN = {
    "bm_bridge": (BM, {"bridge_correction": True}, (
        "35ee6ec078f9ac8a6a42180f5155f2dfbdd8f6fd791755605e100de8414bf464",
        "9410789052eb101a0cc372e52a81407fd6335d851e1df22d844ef4997e36f047",
        "f0bc3ff4f6363338160de55703e85beae3a419a8a9d897942fa3203b95f26102",
        "f0bc3ff4f6363338160de55703e85beae3a419a8a9d897942fa3203b95f26102",
        "6dc9a741efc3eb181145b4b021d3b2ef0616a74c17821e68cda1e74ef4e4f642")),
    "bm_nobridge": (BM, {"bridge_correction": False}, (
        "064451065ae4b8a3b0e7c4f036917a740e58a01e545b4f204f0067944e067eb3",
        "40ceac2faf99721e6cd54e58cea15cca37e3e93d26262023c89327d3856d0293",
        "5a1e0f192a96176d2614d6b3b7d1d86e1587d6525aa196603fbba06c72ebd6f8",
        "5a1e0f192a96176d2614d6b3b7d1d86e1587d6525aa196603fbba06c72ebd6f8",
        "7ea00337d40f20923d13a58634d149809cccf76143711261043e6ec066b027b4")),
    "jd": (JD, {}, (
        "cc2947049ba6a5857a5ca69cb3954682ebaade63fff1be4941c62c9cd9d65908",
        "3277d9876f21c756f968e3c6a7e686584904e42aa7d0795a60b6dd0535909da9",
        "b1479105e7e328925d9a960a1d16c413e6c802fb0140454ca5a938c9e247d87e",
        "53dd1d80a5f94deece882bb3c6b0a970bd1a8f1e4e6fe5e6e4d53efe90e7cc5c",
        "4aabfd7272bb8b727e15261a99c3718927b4a8555cf11e729e6df72f84e32e98")),
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

    @pytest.mark.parametrize("case", sorted(SAMPLE_GOLDEN))
    def test_per_path_records_are_pinned(self, case):
        model, kw, want = SAMPLE_GOLDEN[case]
        res = run_exit_mc(model, REFLECTED, SPEC, _cfg(**kw), g=IDENTITY, keep_samples=True)
        got = tuple(
            hashlib.sha256(np.ascontiguousarray(getattr(res.samples, name)).tobytes()).hexdigest()
            for name in SAMPLE_FIELDS
        )
        assert dict(zip(SAMPLE_FIELDS, got)) == dict(zip(SAMPLE_FIELDS, want))
        if model is JD:
            assert np.any(res.samples.x_post < SPEC.b)

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
