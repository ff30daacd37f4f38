"""Monte Carlo engine: seeded reproducibility, closed-form z-scores, censoring,
and the worker processes that run the chunks.

The golden values pin every estimate bit for bit for a given ``(seed,
config)``: the paths form chunks of ``_CHUNK`` (50000), chunk ``k`` draws
from the Philox substream keyed by ``(seed, k)`` and the draw order inside a
step is fixed: ``standard_normal`` of the live count, then, with the bridge,
one ``random`` block with a uniform for each live path within reach of its
supremum and then for each within reach of ``b``.  A change to the path
engine that moves any draw, or any floating-point operation of the
accumulation, shows up here as a failed ``==``.  The same values must come
out whatever the number of worker processes, and no worker may outlive the
call that started it, whether the call returns or raises.
"""

import hashlib
import math
import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from snlpscale import mc
from snlpscale.mc import _CHUNK, _REACH, _bridge_extrema, _chunk_rng, _simulate_exit_chunk
from snlpscale.potentials import BivariatePotential

BM = make_brownian(0.3, 1.0)
JD = make_exp_jump_diffusion(2.0, 1.0, 1.0, 0.5)
SPEC = ExitSpec(0.0, 0.4, 1.0)
REFLECTED = parse_bivariate("reflected:0.5", SPEC.a - SPEC.b)
IDENTITY = parse_g("identity")
LEVEL = parse_univariate("level:1,0.6")


def _cfg(**kw):
    return MCConfig(dt=1e-3, n_paths=2000, seed=7, **kw)


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    threads = threading.active_count()
    yield
    assert multiprocessing.active_children() == []
    # a thread left behind would keep every later run in process
    assert threading.active_count() == threads


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(mc, "_worker_count", lambda n_chunks: workers)


# (up mean, up se, down mean, down se, p_up mean, p_up se, n_censored)
EXIT_GOLDEN = {
    "bm_bridge": (BM, {"bridge_correction": True}, (
        0.45295075553809533, 0.010878417459702024, 0.317178067457908,
        0.007031423540932499, 0.465, 0.011155703691943023, 0)),
    "bm_nobridge": (BM, {"bridge_correction": False}, (
        0.46321639528287134, 0.010904463586876035, 0.3060385828022867,
        0.0069299787041051325, 0.475, 0.011169148353275137, 0)),
    "jd": (JD, {}, (
        0.7105958032059948, 0.009868904802050478, 0.16442280064007656,
        0.006182012681896236, 0.722, 0.010020389418682841, 0)),
}

# (time-integral mean, se, occupation mean, se, mean |A-B|, density profile)
OCCUPATION_GOLDEN = {
    "bm": (BM, (
        0.9359005787372375, 0.0017136902372665258, 0.9357017622008925,
        0.0017024054976638263, 0.001982910490993183)),
    "jd": (JD, (
        0.9326482687535234, 0.0013749308050461852, 0.9326732667012493,
        0.0013642398978203991, 0.0019023575545885957)),
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
        "1bb7967a206f35dc763e85d8f59a9688a6b8249fdaf7e65095ec1f31d553b548",
        "c20fc12475ec684005c8fa0b8e873c28cbb4ed36af04c56951646dfc8136d586",
        "a359271125cc7656d67ee9162ba9fcec6223ed2f9d188aa2b28621107e1add79",
        "a359271125cc7656d67ee9162ba9fcec6223ed2f9d188aa2b28621107e1add79",
        "bd557cca284e1aa7085438f3ca0aa05cefe63c7032c35d759b9ee52fc3e6b8f5")),
    "bm_nobridge": (BM, {"bridge_correction": False}, (
        "064451065ae4b8a3b0e7c4f036917a740e58a01e545b4f204f0067944e067eb3",
        "40ceac2faf99721e6cd54e58cea15cca37e3e93d26262023c89327d3856d0293",
        "5a1e0f192a96176d2614d6b3b7d1d86e1587d6525aa196603fbba06c72ebd6f8",
        "5a1e0f192a96176d2614d6b3b7d1d86e1587d6525aa196603fbba06c72ebd6f8",
        "7ea00337d40f20923d13a58634d149809cccf76143711261043e6ec066b027b4")),
    "jd": (JD, {}, (
        "ab2d734fb587ea20fc9da36b8aa2b637085697f2c2dc8e6baf51dfbce7443103",
        "9c8c668c90b4c5bedee29fa9538987cb88b0848c6831e43ad747478880cda1ff",
        "147279d1a7ff870fb0d907da968f0ed5882ba8783084cccbd1c81b8c08981603",
        "57f2488dffdcbb2631a8b0d1b26c86ba997f4ed591b276217e85178092e42df3",
        "7b599124c76e12ea77c9a56d5ebc952af57d2e7c1512b0d57765b5b76a2ec5f9")),
}

# the same runs from a sampler that draws both extrema of every live path
# each step; the sparse draws reach these values when every path is in reach
DENSE_GOLDEN = {
    "bm": (BM, (
        0.46387146108667265, 0.010907250961886824, 0.30897260319312564,
        0.006985878524818834, 0.4755, 0.011169702598013252, 0), (
        "35ee6ec078f9ac8a6a42180f5155f2dfbdd8f6fd791755605e100de8414bf464",
        "9410789052eb101a0cc372e52a81407fd6335d851e1df22d844ef4997e36f047",
        "f0bc3ff4f6363338160de55703e85beae3a419a8a9d897942fa3203b95f26102",
        "f0bc3ff4f6363338160de55703e85beae3a419a8a9d897942fa3203b95f26102",
        "6dc9a741efc3eb181145b4b021d3b2ef0616a74c17821e68cda1e74ef4e4f642")),
    "jd": (JD, (
        0.7211092103054254, 0.00974208660536517, 0.1554825025902819,
        0.0059993787567866105, 0.733, 0.00989466786840837, 0), (
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
        occ = occupation_mc(model, LEVEL, SPEC, _cfg())
        got = (
            occ.time_integral_laplace.mean, occ.time_integral_laplace.std_error,
            occ.occupation_laplace.mean, occ.occupation_laplace.std_error,
            occ.mean_abs_discrepancy,
        )
        assert got == want

    @pytest.mark.parametrize("case", sorted(SAMPLE_GOLDEN))
    def test_per_path_records_are_pinned(self, case):
        model, kw, want = SAMPLE_GOLDEN[case]
        res = run_exit_mc(model, REFLECTED, SPEC, _cfg(**kw), g=IDENTITY, keep_samples=True)
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, want))
        if model is JD:
            assert np.any(res.samples.x_post < SPEC.b)

    @pytest.mark.parametrize("case", sorted(DENSE_GOLDEN))
    def test_infinite_reach_is_the_dense_sampler(self, case, monkeypatch):
        # with every path within reach, a step draws 2m uniforms, the maxima
        # first, and computes each extremum as the dense sampler did
        monkeypatch.setattr(mc, "_REACH", math.inf)
        model, want, digests = DENSE_GOLDEN[case]
        res = run_exit_mc(model, REFLECTED, SPEC, _cfg(), g=IDENTITY, keep_samples=True)
        assert _estimates(res) == want
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, digests))

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
        0.3813979036812848, 0.00934683001138395, 0.4714787583147166,
        0.009985902151353207, 0.465, 0.011155703691943023, 0), (
        "1bb7967a206f35dc763e85d8f59a9688a6b8249fdaf7e65095ec1f31d553b548",
        "c20fc12475ec684005c8fa0b8e873c28cbb4ed36af04c56951646dfc8136d586",
        "a359271125cc7656d67ee9162ba9fcec6223ed2f9d188aa2b28621107e1add79",
        "a359271125cc7656d67ee9162ba9fcec6223ed2f9d188aa2b28621107e1add79",
        "b723005c68f15b6cc8994fa62d08e0ef44555d37385c1a4a801e9dcb8dee2708")),
    "bm_x": (BM, lambda s, x: x, ExitSpec(1.0, 1.4, 2.0), 3.0, (
        0.31200548432171876, 0.007937065303691036, 0.4129921409320988,
        0.009010607747722357, 0.465, 0.011155703691943023, 0), (
        "1bb7967a206f35dc763e85d8f59a9688a6b8249fdaf7e65095ec1f31d553b548",
        "8d6ac089f313251a743901b4e56e3a50a6644468b0299cf755f5d02bac734030",
        "6e47454fabb57c08c84d6586d28c84d246af729471d61f45463ace9bef3f4330",
        "6e47454fabb57c08c84d6586d28c84d246af729471d61f45463ace9bef3f4330",
        "8e6821f1066f896c15d9ae59cd385b9e1e672cd120d668af1e0665f9cb9ef681")),
    "jd_s": (JD, lambda s, x: s, SPEC, 1.0, (
        0.6241156607076043, 0.008826046457998072, 0.2531386496137478,
        0.00917722467725858, 0.722, 0.010020389418682841, 0), (
        "ab2d734fb587ea20fc9da36b8aa2b637085697f2c2dc8e6baf51dfbce7443103",
        "9c8c668c90b4c5bedee29fa9538987cb88b0848c6831e43ad747478880cda1ff",
        "147279d1a7ff870fb0d907da968f0ed5882ba8783084cccbd1c81b8c08981603",
        "57f2488dffdcbb2631a8b0d1b26c86ba997f4ed591b276217e85178092e42df3",
        "f3c81830303d1a24c2c9d16ee15a761642ec5a7f91e9e755c12a4ee233cd648d")),
    "jd_x": (JD, lambda s, x: x, ExitSpec(1.0, 1.4, 2.0), 3.0, (
        0.5311224808833652, 0.007825929006219132, 0.2276100925606051,
        0.008355970663919805, 0.722, 0.010020389418682841, 0), (
        "ab2d734fb587ea20fc9da36b8aa2b637085697f2c2dc8e6baf51dfbce7443103",
        "6c94a1c44d283f117d443f401963e5517266192d96e6b2bf92022a15e85374fa",
        "3f1fd03c255e0b0d0ebd6ebb9b9840c11d49e94fb828df28de6f27e506e25f6e",
        "af20234b8b2459b72fe6c6655cc25083e44c9c5b750c0ff8df16148c0766066b",
        "19d7493f014792abf8525d93e1f57c272767ed0a91ce5bb9d9cbec0d400a3796")),
}

# More than one chunk: chunk k draws from substream (seed, k) and the records
# concatenate in chunk order.  A narrow band keeps each run under a second.
NARROW = ExitSpec(0.0, 0.05, 0.1)
# (model, config keywords, n_paths, estimates, digests)
CHUNKED_GOLDEN = {
    "bm": (BM, {}, _CHUNK + 2000, (
        0.5061415174416047, 0.0021924466519654554, 0.4938269304900648,
        0.002192414711984195, 0.5061538461538462, 0.002192500053653188, 0), (
        "38454b669ea5b8377015445f45119cd22b1a041ea2584ae6a79dd7681dde4a9e",
        "50f23b1f26b681c00ee26a78cefa02c78eaa5fb1c98fdf894e963d6966f46e97",
        "087e975e4ec98f9e624e310d86b7a8a05e0a1563a4807855ba0bb82f9d5fc3fc",
        "087e975e4ec98f9e624e310d86b7a8a05e0a1563a4807855ba0bb82f9d5fc3fc",
        "556678fa1c55593b908dbae3ac492b21a8d824b585cebeb670684a2af5f19857")),
    "jd": (JD, {}, _CHUNK + 2000, (
        0.547717533533791, 0.002182599746461188, 0.4522516486701661,
        0.002182567638315455, 0.5477307692307692, 0.0021826524867010425, 0), (
        "3e13a970a25f6ed5ce690c8fe8a745dd48c55b328dca252494b1802985763f8e",
        "d32e9f968537183029ffd5e606fafffcb6ab22ffb44618a0d1d711904792a1d3",
        "823c560a4c44681f2cdec6ccfa6368f8c431552e3ae779783a9f57750aaf2e86",
        "45b7c467216c7badbde74136a36b5faf2ca3f2362f3d62389d05398b084a87fb",
        "4d85f60c2d21a2875433e82eeb695b667d193b3f416015c7d5a06de141d73f12")),
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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_estimates_do_not_depend_on_the_worker_count(workers, monkeypatch):
    _use_workers(monkeypatch, workers)
    F = parse_bivariate("reflected:0.5", NARROW.a - NARROW.b)
    for model, kw, n_paths, want, digests in CHUNKED_GOLDEN.values():
        cfg = MCConfig(dt=1e-4, n_paths=n_paths, seed=7, **kw)
        res = run_exit_mc(model, F, NARROW, cfg, keep_samples=True)
        assert _estimates(res) == want
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, digests))
        assert res.chunks == 2

    # three chunks of the occupation estimates
    monkeypatch.setattr(mc, "_CHUNK", 700)
    f_x, cfg = parse_univariate("level:1,0.06"), MCConfig(dt=1e-4, n_paths=2000, seed=7)
    occ = occupation_mc(BM, f_x, NARROW, cfg)
    _use_workers(monkeypatch, 1)
    ref = occupation_mc(BM, f_x, NARROW, cfg)
    for name in ("time_integral_laplace", "occupation_laplace"):
        got, want = getattr(occ, name), getattr(ref, name)
        assert (got.mean, got.std_error) == (want.mean, want.std_error)
    assert occ.mean_abs_discrepancy == ref.mean_abs_discrepancy


@pytest.mark.parametrize("workers", [1, 2])
def test_counts_sum_over_the_chunks(workers, monkeypatch):
    _use_workers(monkeypatch, workers)
    monkeypatch.setattr(mc, "_CHUNK", 700)
    F = parse_bivariate("reflected:0.5", NARROW.a - NARROW.b)
    cfg = MCConfig(dt=1e-4, n_paths=2000, seed=7)
    res = run_exit_mc(JD, F, NARROW, cfg)
    chunks = [
        _simulate_exit_chunk(JD, NARROW, cfg, _chunk_rng(7, k), n, [F.eval_pairs])
        for k, n in enumerate((700, 700, 600))
    ]
    assert res.chunks == 3
    assert res.steps == sum(st.steps for st in chunks)
    assert res.path_steps == sum(st.path_steps for st in chunks)


def test_worker_count_rule():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert mc._worker_count(1) == 1
    assert 1 <= mc._worker_count(8) <= min(8, cores)
    # a fork copies only the calling thread, so another live thread keeps
    # the run in process
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert mc._worker_count(8) == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


class TestWorkerFailures:
    """Two worker processes, one chunk each; every error reaches the caller."""

    @pytest.fixture(autouse=True)
    def two_chunks(self, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK", 1200)
        _use_workers(monkeypatch, 2)

    @pytest.mark.parametrize("model", [BM, JD], ids=["bm", "jd"])
    def test_nan_in_the_second_chunk_raises(self, model):
        # chunk 1 holds the last 800 paths; only its first call sees 800
        # paths, all at the start
        def func(s, x):
            first_of_chunk_1 = x.size == 800 and np.all(x == SPEC.x)
            return np.full(x.shape, np.nan if first_of_chunk_1 else 0.2)

        F = BivariatePotential(func, bound=1.0)
        with pytest.raises(ValueError, match="nan"):
            run_exit_mc(model, F, SPEC, _cfg())

    def test_censoring_raises_in_the_parent(self):
        with pytest.raises(RuntimeError, match="censored"):
            run_exit_mc(BM, REFLECTED, SPEC, _cfg(t_cap=1e-3))
        with pytest.raises(RuntimeError, match="censored"):
            occupation_mc(BM, LEVEL, SPEC, _cfg(t_cap=1e-3))

    def test_a_worker_that_dies_fails_the_call(self):
        parent = os.getpid()

        def func(s, x):
            if os.getpid() != parent:
                os._exit(1)
            return np.full(x.shape, 0.2)

        with pytest.raises(BrokenProcessPool):
            run_exit_mc(BM, BivariatePotential(func, bound=1.0), SPEC, _cfg())


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
def test_draw_pattern(model, bridge, monkeypatch):
    # the traced benchmark counts steps and path-steps from the size passed
    # to standard_normal, so each step must draw standard_normal(live count)
    n = 2000
    rng = _RecordingRng(_chunk_rng(7, 0))
    reach_counts = []

    def integrand(s, x):
        rng.calls.append(("f", x.size))
        return REFLECTED.eval_pairs(s, x)

    def recording_bridge(rng_, x, x_new, s, b, var, *scratch):
        # the paths within reach, counted from the step's state alone
        reach = _REACH * var
        near_s = (s - x) * (s - x_new) <= reach
        near_b = (x - b) * (x_new - b) <= reach
        assert np.all(near_s[x_new > s]) and np.all(near_b[x_new <= b])
        reach_counts.append(int(near_s.sum() + near_b.sum()))
        return _bridge_extrema(rng_, x, x_new, s, b, var, *scratch)

    monkeypatch.setattr(mc, "_bridge_extrema", recording_bridge)
    st = _simulate_exit_chunk(model, SPEC, _cfg(bridge_correction=bridge), rng, n, [integrand])
    steps = [i for i, (name, _) in enumerate(rng.calls) if name == "standard_normal"]
    sizes = [rng.calls[i][1] for i in steps]
    # a step's first integrand call sees every path alive at its start
    live = [next(size for name, size in rng.calls[i + 1:] if name == "f") for i in steps]
    assert sizes == live
    assert (st.steps, st.path_steps) == (len(sizes), sum(sizes))
    assert sizes[0] == n
    assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))
    assert all(name != "random" for name, _ in rng.calls[:steps[0]])
    blocks = [
        [size for name, size in rng.calls[start + 1:stop] if name == "random"]
        for start, stop in zip(steps, steps[1:] + [len(rng.calls)])
    ]
    if not bridge:
        assert not any(blocks) and not reach_counts
        return
    assert blocks == [[k] for k in reach_counts]
    assert all(k <= 2 * m for k, m in zip(reach_counts, sizes))
    assert sum(reach_counts) < sum(sizes)


def test_skipped_crossings_are_below_uniform_resolution():
    assert math.exp(-2 * _REACH) < 2**-53


@settings(deadline=None, max_examples=200, derandomize=True, database=None)
@given(
    m=st.integers(1, 64),
    seed=st.integers(0, 2**63 - 1),
    var=st.floats(1e-8, 1e-1),
    spread=st.floats(0.0, 30.0),
    per_path=st.booleans(),
)
def test_bridge_extrema_match_the_dense_formula(m, seed, var, spread, per_path):
    # one step on [b, a] = [0, 1]: the paths within reach get the dense
    # sampler's extremum bit for bit, for the uniform drawn in their slot
    b = 0.0
    gen = np.random.default_rng(seed)
    x = gen.uniform(b, 1.0, m)
    s = np.minimum(x + gen.exponential(spread * math.sqrt(var), m), 1.0)
    x_new = x + spread * math.sqrt(var) * gen.standard_normal(m)
    if per_path:
        var = var * gen.uniform(0.0, 1.0, m)
    hi, lo, ext = _bridge_extrema(
        _chunk_rng(seed, 0), x, x_new, s, b, var, np.empty(4 * m), np.empty(2 * m, dtype=bool)
    )
    reach = _REACH * var
    assert np.array_equal(hi, np.flatnonzero((s - x) * (s - x_new) <= reach))
    assert np.array_equal(lo, np.flatnonzero((x - b) * (x_new - b) <= reach))

    near = np.concatenate((hi, lo))
    u = _chunk_rng(seed, 0).random(near.size)
    h = var[near] if per_path else var
    root = np.sqrt((x_new[near] - x[near]) ** 2 - 2.0 * h * np.log(u))
    dense_max = ((x[near] + x_new[near]) + root) / 2
    dense_min = ((x[near] + x_new[near]) - root) / 2
    assert np.array_equal(ext[:hi.size], dense_max[:hi.size])
    assert np.array_equal(ext[hi.size:], dense_min[hi.size:])


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
    "bm": (BM, 923, "370a7867efb884a32c41bd4a1c088832e84cd3724ec4e40729c4ba5c375b1ef8"),
    "jd": (JD, 722, "f0a4e4b7f71b150f410c1b2cbd2cccb0e59efd9b791ce03ad3578e758cf8d13f"),
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
            occupation_mc(BM, LEVEL, SPEC, _cfg(t_cap=1e-3))


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_config_rejects_a_step_that_is_not_finite_and_positive(dt):
    # a NaN step would keep the clock at NaN, so no path would ever be censored
    with pytest.raises(ValueError, match="dt must be finite and > 0"):
        MCConfig(dt=dt, n_paths=2000)
