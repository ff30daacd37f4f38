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
from snlpscale.mc import _CHUNK, _chunk_rng, _simulate_exit_chunk
from snlpscale.potentials import BivariatePotential

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


SAMPLE_FIELDS = ("exited_up", "s_at_exit", "x_pre", "x_post", "functional")


def _estimates(res):
    return (
        res.up_laplace.mean, res.up_laplace.std_error,
        res.down_value.mean, res.down_value.std_error,
        res.p_up.mean, res.p_up.std_error, res.n_censored,
    )


def _digests(samples):
    return {
        name: hashlib.sha256(np.ascontiguousarray(getattr(samples, name)).tobytes()).hexdigest()
        for name in SAMPLE_FIELDS
    }


# sha256 of the raw bytes of each per-path record (keep_samples=True); the jd
# case has jump exits with x_post < b, and without the bridge x_post < b too
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
        assert _estimates(res) == want

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
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, want))
        if model is JD:
            assert np.any(res.samples.x_post < SPEC.b)

    def test_same_seed_same_samples(self):
        one = run_exit_mc(JD, REFLECTED, SPEC, _cfg(), keep_samples=True)
        two = run_exit_mc(JD, REFLECTED, SPEC, _cfg(), keep_samples=True)
        assert np.array_equal(one.samples.functional, two.samples.functional)
        assert np.array_equal(one.samples.s_at_exit, two.samples.s_at_exit)


# An integrand may hand back one of its own inputs: ``eval_pairs`` returns
# ``np.asarray(func(s, x))``, which is ``s`` itself for ``lambda s, x: s``.
# The stepper must then never write into the position or supremum arrays it
# passed in.  Position-valued rates need a band above 0 and a bound above the
# overshoot past ``a``.  (model, potential, spec, bound, estimates, digests)
ALIAS_GOLDEN = {
    "bm_s": (BM, lambda s, x: s, SPEC, 1.0, (
        0.3926266983972236, 0.009407861150739168, 0.46010095416350655,
        0.009992853297792688, 0.4755, 0.011169702598013252, 0), (
        "35ee6ec078f9ac8a6a42180f5155f2dfbdd8f6fd791755605e100de8414bf464",
        "9410789052eb101a0cc372e52a81407fd6335d851e1df22d844ef4997e36f047",
        "f0bc3ff4f6363338160de55703e85beae3a419a8a9d897942fa3203b95f26102",
        "f0bc3ff4f6363338160de55703e85beae3a419a8a9d897942fa3203b95f26102",
        "8c1dfb96681056e02a9c83df1f670f3b6891292c0496fbf1cbdd23cdbec6abc0")),
    "bm_x": (BM, lambda s, x: x, ExitSpec(1.0, 1.4, 2.0), 3.0, (
        0.32257764858689136, 0.008007764053991343, 0.40370623524241545,
        0.009056346950371575, 0.4755, 0.011169702598013252, 0), (
        "35ee6ec078f9ac8a6a42180f5155f2dfbdd8f6fd791755605e100de8414bf464",
        "6a32ce19ef91d1ab0a7d665a73a3728e4f96d786bd65635a69cd2ce854ee8215",
        "caff0b78148ef915ef21b49ce38d99bc2a72abf6a463402ee7f7f074084a17d7",
        "caff0b78148ef915ef21b49ce38d99bc2a72abf6a463402ee7f7f074084a17d7",
        "5d1c5930982572ecf427204e7d1d6d90c0a2af915ce36dd71d6040a78c3de631")),
    "jd_s": (JD, lambda s, x: s, SPEC, 1.0, (
        0.6317368083133557, 0.008706757961247735, 0.24464614407104776,
        0.009126919076335201, 0.733, 0.00989466786840837, 0), (
        "cc2947049ba6a5857a5ca69cb3954682ebaade63fff1be4941c62c9cd9d65908",
        "3277d9876f21c756f968e3c6a7e686584904e42aa7d0795a60b6dd0535909da9",
        "b1479105e7e328925d9a960a1d16c413e6c802fb0140454ca5a938c9e247d87e",
        "53dd1d80a5f94deece882bb3c6b0a970bd1a8f1e4e6fe5e6e4d53efe90e7cc5c",
        "eb590f54779a63c74840ad24adf42093d98fda3d958d8a7a120f20c1d335c271")),
    "jd_x": (JD, lambda s, x: x, ExitSpec(1.0, 1.4, 2.0), 3.0, (
        0.536583280402578, 0.007727729421244931, 0.22194399926617298,
        0.008384466414078258, 0.733, 0.00989466786840837, 0), (
        "cc2947049ba6a5857a5ca69cb3954682ebaade63fff1be4941c62c9cd9d65908",
        "f20abf77625635244baca3d69f7b97e9bba7fc684f4e8bd20fa137ab1dab4ae5",
        "962a1a2d064613886ccf6622833955579905f6a746a45f152fd10d577a2ac851",
        "bae1d74241069b658143245633d1e475a0dd291e21e1a370d7bfeef207c0ee04",
        "da2296e5513851c73be406648dd43737565943686487762e2edf1408fb9d265d")),
}

# More than one chunk: chunk k draws from substream (seed, k) and the records
# concatenate in chunk order.  A narrow band keeps each run under a second.
NARROW = ExitSpec(0.0, 0.05, 0.1)
# (model, config keywords, n_paths, estimates, digests)
CHUNKED_GOLDEN = {
    "bm": (BM, {}, _CHUNK + 2000, (
        0.5076602846370031, 0.0013704609776869496, 0.4923082385117292,
        0.0013704405453159078, 0.5076725381748226, 0.0013704940553839664, 0), (
        "7b3d09f41000d9b4bb17d3814d5cd9794d35d0fd164166892a91164cb4d3a459",
        "1622b8cc602209ff09f97d09e36f97f64e8f828c38528c425e62ccaa23c3a00d",
        "edcd5fe81cf04ade788fa637b26b0cfabdbdf3d1f39f8b3149636070abc2385a",
        "edcd5fe81cf04ade788fa637b26b0cfabdbdf3d1f39f8b3149636070abc2385a",
        "65a1620b0295522d91e3563bb26abdd3af48b426702fd920275f00ab17994d2e")),
    "jd": (JD, {}, _CHUNK + 2000, (
        0.5479457079651128, 0.0013643025829020575, 0.4520233370999863,
        0.0013642823665930594, 0.5479589996392931, 0.0013643356754985965, 0), (
        "75d5b604305e11550337803c67e96d738b454aefe7170967cd127216d7df8264",
        "a687e403af54d44513183a0e42f52be87dd12e8b5e408a33dda77a83f5da0aa2",
        "e67a8ef5e0d1c0051052c6ed098515addd6636a6a550332c7371a2e71d3041df",
        "781d83628fb6fb8b39f1893b0b5d576c67c511566e9c156f8ff162951be94d20",
        "f023fb3667883d826fafeeb657e760338400f273c633c5694be7f0485273c3b5")),
    "bm_antithetic": (BM, {"antithetic": True}, 2 * (_CHUNK + 1000), (
        0.5076237030834609, 0.0009295505781487169, 0.49234483475798163,
        0.0009295354063348754, 0.5076359864316433, 0.0009295745892806691, 0), (
        "f596736be0c221ce05f948e4e2fe9659cb37859b13fbc5e60ac977df1b4f7e3d",
        "d247a043c882d20f7ceaf606815c2e0cca8389c9caaa18a0e57bac2144978f64",
        "974cefabf424364a0231abe45ff8fae2557db408a67124beb05df2170c32789d",
        "974cefabf424364a0231abe45ff8fae2557db408a67124beb05df2170c32789d",
        "7cdb207b877653e2062361061da1a28b93be3e5ad72a68d282cfe03de3900789")),
}


class TestPinnedEdgeCases:
    @pytest.mark.parametrize("case", sorted(ALIAS_GOLDEN))
    def test_integrand_returning_its_input(self, case):
        model, func, spec, bound, want, digests = ALIAS_GOLDEN[case]
        F = BivariatePotential(func, bound=bound)
        res = run_exit_mc(model, F, spec, _cfg(), keep_samples=True)
        assert _estimates(res) == want
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, digests))

    @pytest.mark.parametrize("case", sorted(CHUNKED_GOLDEN))
    def test_several_chunks(self, case):
        model, kw, n_paths, want, digests = CHUNKED_GOLDEN[case]
        F = parse_bivariate("reflected:0.5", NARROW.a - NARROW.b)
        cfg = MCConfig(dt=1e-4, n_paths=n_paths, seed=7, **kw)
        res = run_exit_mc(model, F, NARROW, cfg, keep_samples=True)
        assert _estimates(res) == want
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, digests))


class _RecordingRng:
    """Forwards to a Generator and logs each draw as ``(method, size)``."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            size = args[-1] if args else kwargs.get("size")
            self.calls.append((name, size))
            return method(*args, **kwargs)

        return draw


@pytest.mark.parametrize("model", [BM, JD], ids=["bm", "jd"])
@pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "nobridge"])
def test_draw_pattern(model, bridge):
    # the traced benchmark counts steps and path-steps from the size passed
    # to standard_normal, so each step must draw standard_normal(live count)
    n = 2000
    rng = _RecordingRng(_chunk_rng(7, 0))
    live = []
    _simulate_exit_chunk(model, SPEC, _cfg(bridge_correction=bridge), rng, n,
                         [REFLECTED.eval_pairs], lambda x_old, x_new, dt: live.append(x_old.size))
    steps = [i for i, (name, _) in enumerate(rng.calls) if name == "standard_normal"]
    sizes = [rng.calls[i][1] for i in steps]
    assert sizes == live
    assert sizes[0] == n
    assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))
    assert all(name != "random" for name, _ in rng.calls[:steps[0]])
    for start, stop, m in zip(steps, steps[1:] + [len(rng.calls)], sizes):
        uniforms = sum(size for name, size in rng.calls[start + 1:stop] if name == "random")
        assert uniforms == (2 * m if bridge else 0)


@pytest.mark.parametrize("model", [BM, JD], ids=["bm", "jd"])
def test_nan_potential_raises(model):
    F = BivariatePotential(lambda s, x: np.where(x > 0.7, np.nan, 0.2), bound=1.0)
    with pytest.raises(ValueError, match="nan"):
        run_exit_mc(model, F, SPEC, _cfg())


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


# (censored count, sha256 of the censored mask) at t_cap = 0.2
CENSOR_GOLDEN = {
    "bm": (BM, 908, "93c2e44ed7fdb936af3b5953139cb3faa064e7d35c2df221d8e1da2a3934a2e3"),
    "jd": (JD, 742, "18874245d43a805236b0842eda2628691018953b11f49ce14ee86a24b98407bf"),
}


class TestCensoring:
    @pytest.mark.parametrize("case", sorted(CENSOR_GOLDEN))
    def test_censored_paths_are_pinned(self, case):
        model, count, digest = CENSOR_GOLDEN[case]
        capped, free = (
            _simulate_exit_chunk(model, SPEC, _cfg(t_cap=t_cap), _chunk_rng(7, 0), 2000,
                                 [REFLECTED.eval_pairs])
            for t_cap in (0.2, None)
        )
        assert capped.censored.sum() == count
        assert hashlib.sha256(capped.censored.tobytes()).hexdigest() == digest
        assert not free.censored.any()
        if model is JD:
            return  # substeps put jump paths past the cap at different steps
        # without jumps every live path reaches the cap at the same step, so
        # the others got the same draws as without the cap, and the same record
        done = ~capped.censored
        for name in ("up", "s_exit", "x_pre", "x_post"):
            assert np.array_equal(getattr(capped, name)[done], getattr(free, name)[done])
        assert np.array_equal(capped.acc[:, done], free.acc[:, done])

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


@pytest.mark.parametrize("seed", [1, 2])
def test_antithetic_mates_mirror_their_primaries(seed):
    # driftless, started mid-band: each mate is the mirror image of its
    # primary, so it leaves through the other barrier at the same step
    cfg = MCConfig(dt=1e-3, n_paths=2000, seed=seed, bridge_correction=False, antithetic=True)
    spec = ExitSpec(0.0, 0.5, 1.0)
    res = run_exit_mc(make_brownian(0.0, 1.0), parse_bivariate("const:0.5", 1.0), spec, cfg,
                      keep_samples=True)
    half = cfg.n_paths // 2
    up, functional = res.samples.exited_up, res.samples.functional
    assert np.all(up[:half] != up[half:])
    assert np.all(functional[:half] == functional[half:])
    assert res.p_up.mean == 0.5
