"""Monte Carlo engine: seeded reproducibility, closed-form z-scores, censoring,
and the worker processes that run the chunks.

The golden values pin every estimate bit for bit for a given ``(seed,
config)``: the paths form chunks of ``_CHUNK`` (50000), and chunk ``k`` draws
from an SFC64 stream seeded from ``SeedSequence((seed, k))``.  The stepper
runs passes: a pass of ``m`` live paths advances ``K = min(_MAX_ROWS, max(1,
_PASS_ENTRIES // m))`` steps, a coupled pass ``max(2, K - K % 2)``, and the
live paths sit in slots that a finished path's hole reuses, the last slots'
paths moving first.  A pass draws one
flat ``standard_normal(K * m)`` from the main stream, row ``j`` for step
``j`` (then, for the paths that jump, their jump sizes and next waits), and
one ``random`` block from the SFC64 stream of the seed sequence's first
spawned child: a uniform for each ``(row, slot)`` entry within reach of the
running maximum (of ``a``, when the supremum is not tracked), then for each
within reach of ``b``, each set in row-major order.
``reference_exit_chunk`` in ``conftest.py`` replays the passes one step at a
time.  A change to the path engine that moves any draw, or any
floating-point operation of the accumulation, shows up here as a failed
``==``.  The same values must come
out whatever the number of worker processes, and no worker may outlive the
call that started it, whether the call returns or raises.
"""

import hashlib
import math
import multiprocessing
import os
import threading
import time
import warnings
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
from snlpscale.mc import (
    _CHUNK, _REACH, _ExitState, _bridge_extrema, _chunk_rng, _simulate_exit_chunk,
)
from snlpscale.potentials import BivariatePotential

from conftest import reference_exit_chunk

BM = make_brownian(0.3, 1.0)
JD = make_exp_jump_diffusion(2.0, 1.0, 1.0, 0.5)
SPEC = ExitSpec(0.0, 0.4, 1.0)
REFLECTED = parse_bivariate("reflected:0.5", SPEC.a - SPEC.b)
IDENTITY = parse_g("identity")
LEVEL = parse_univariate("level:1,0.6")


def _cfg():
    return MCConfig(dt=1e-3, n_paths=2000, seed=7)


def _cap(monkeypatch, scale):
    """Censor at ``scale (a-b)^2 / sigma^2``, which is ``scale`` itself for
    ``SPEC`` with ``BM`` or ``JD``."""
    monkeypatch.setattr(mc, "_T_CAP_SCALE", scale)


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
    "bm": (BM, (
        0.4777531647473785, 0.010892492906635399, 0.2986298870543354,
        0.006945488984627063, 0.491, 0.01118132420626031, 0)),
    "jd": (JD, (
        0.7288651795238156, 0.009646054773534505, 0.15445111565789613,
        0.006092787444637943, 0.741, 0.009798341887884702, 0)),
}

# (time-integral mean, se, occupation mean, se, mean |A-B|)
OCCUPATION_GOLDEN = {
    "bm": (BM, (
        0.9336569953328294, 0.0017078168852082026, 0.9335900668042968,
        0.0016946355100047076, 0.0019518693731332814)),
    "jd": (JD, (
        0.9320935796037775, 0.0013444916838367296, 0.932435427395778,
        0.0013313107203147473, 0.0018820559257421757)),
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
# case has jump exits with x_post < b
SAMPLE_GOLDEN = {
    "bm": (BM, (
        "bf511e8f53a591919fc461918840bf2e7ec4adec0f26cd4961acc81c537547c8",
        "543d8a334a80dd6351f11a8de45da60508f5beba119a3a815e83e36984f20a66",
        "3e383500c7c9d0d4b33a2c69c389a9e87a84986e72c7172a71c93e8443198933",
        "3e383500c7c9d0d4b33a2c69c389a9e87a84986e72c7172a71c93e8443198933",
        "335d4b3c9c007ab91aa6680c7663d3afb8e28ac43369734b86b37a0606ce8515")),
    "jd": (JD, (
        "38cbaca0a451103e880d21ac3f96b39e0ca4d426d05dd3d7b4b4b3fe19f6d3e7",
        "262865951943370ba3058cc31310bf0d37a75061cde0c118b72da9c51b8344b2",
        "10ba3f2055cd7932a06c8137a3a13c044813e61ed382a7a4a885ce1e0deb4b45",
        "4016e56021508073de7c5247ae3051c9db0c29f0aa49d1bae33ef75c43e93835",
        "a62c0aa7d1234de4e32a9a75c1abbeaaaed0e198e4733a722a446d1b2d3478e4")),
}

# The same runs with every step of every live path within reach, so that
# each draws both extrema, as a dense sampler does.  The largest float, not
# inf, stands for the unbounded reach: the rows after a jump in a pass have
# steps of length 0, and inf * 0 is NaN.
UNBOUNDED = np.finfo(float).max
DENSE_GOLDEN = {
    "bm": (BM, (
        0.47468246538440406, 0.010918138653428248, 0.29877337834373313,
        0.006888688753570568, 0.4865, 0.011179059024816898, 0), (
        "aa587906a16aeff0754f6c1e6c0e58d1473541590157fa7c00f993eb89429815",
        "b3949b8118861e0652b05f1032c388dd33f8dc4870d9100d88b2a293a781ac80",
        "3ec86b8d24c16da2bb8efb10423da2c0f1a8d2486516b8515051e475bad23541",
        "3ec86b8d24c16da2bb8efb10423da2c0f1a8d2486516b8515051e475bad23541",
        "701ca240dd9b50b46ecc255c03e55f0b5d430c52d37f45ba372978462d48ce1a")),
    "jd": (JD, (
        0.7220699714877837, 0.00973017183770481, 0.15849378570345135,
        0.006149313477478421, 0.734, 0.009882855630722774, 0), (
        "700f949e91148d14cfc0052eb7b14f3aa2e5603e7b2a151588375657be6c1fb2",
        "f9fc2b2793c2387de8ea40f87191ecd7477fc0d9bb832fbf7ddf7477dffdf95e",
        "c01f3b96472bce3433b438345a3bacea77e49156f0f2fbcbafd3ae417d3c5834",
        "548c2bba889a3e5d341df1f3a774f78dcaa63788643dd853cd1b82d7622069d8",
        "b7673ce4f74b6b41d9d6468ea2b4beac26005ccc3d2e8bcd3d9dbbd8af3ce8b8")),
}


# conditional_mc on bm 0,1, b=0, x=0.5, a=2, reflected:0.5, 2000 paths at dt
# 1e-3, seed 7: (n, mean, se) of each of the 4 down bins, then of the up bin,
# where mean and se are those of e^{-int F} over the n paths in the bin
CONDITIONAL_GOLDEN = [
    (828, 0.968744324291502, 0.0009325569469106864),
    (363, 0.8855647671635039, 0.0037125194231048763),
    (189, 0.745829145975744, 0.008919562613688332),
    (119, 0.5713560393729764, 0.015367301180023635),
    (501, 0.8344523059133074, 0.006873467464255497),
]


class TestReproducibility:
    @pytest.mark.parametrize("case", sorted(EXIT_GOLDEN))
    def test_exit_estimates_are_pinned(self, case):
        model, want = EXIT_GOLDEN[case]
        res = run_exit_mc(model, REFLECTED, SPEC, _cfg(), g=IDENTITY)
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
        model, want = SAMPLE_GOLDEN[case]
        res = run_exit_mc(model, REFLECTED, SPEC, _cfg(), g=IDENTITY, keep_samples=True)
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, want))
        if model is JD:
            assert np.any(res.samples.x_post < SPEC.b)

    @pytest.mark.parametrize("case", sorted(DENSE_GOLDEN))
    def test_unbounded_reach_draws_both_extrema_of_every_step(self, case, monkeypatch):
        # a pass of bm draws 2 K m uniforms, every entry's maximum, then
        # every entry's minimum; test_passes_match_the_per_step_reference
        # checks each extremum against the per-step formula
        monkeypatch.setattr(mc, "_REACH", UNBOUNDED)
        model, want, digests = DENSE_GOLDEN[case]
        res = run_exit_mc(model, REFLECTED, SPEC, _cfg(), g=IDENTITY, keep_samples=True)
        assert _estimates(res) == want
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, digests))
        if model is BM:
            _, main, blocks = _record_chunk(model, _cfg(), 2000, [REFLECTED.eval_pairs],
                                            monkeypatch)
            normals = [d.size for name, d in main if name == "standard_normal"]
            for size, (hi, lo, _) in zip(normals, blocks, strict=True):
                assert np.array_equal(hi, np.arange(size))
                assert np.array_equal(lo, np.arange(size))

    def test_same_seed_same_samples(self):
        one = run_exit_mc(JD, REFLECTED, SPEC, _cfg(), keep_samples=True)
        two = run_exit_mc(JD, REFLECTED, SPEC, _cfg(), keep_samples=True)
        assert np.array_equal(one.samples.functional, two.samples.functional)
        assert np.array_equal(one.samples.s_at_exit, two.samples.s_at_exit)

    def test_conditional_bins_are_pinned(self):
        # a bin's numerator averages e^{-int F} 1{bin} over all N counted
        # paths: its mean is (n/N) mean, and the sum of squares of the n
        # values in the bin, (n-1) n se^2 + n mean^2, gives its variance
        model, spec = make_brownian(0.0, 1.0), ExitSpec(0.0, 0.5, 2.0)
        F = parse_bivariate("reflected:0.5", spec.a - spec.b)
        res = mc.conditional_mc(model, F, spec, MCConfig(dt=1e-3, n_paths=2000, seed=7), 4)
        N = 2000
        for got, (n, mean, se) in zip(res.bins + [res.up_bin], CONDITIONAL_GOLDEN, strict=True):
            num = n / N * mean
            var = ((n - 1) * n * se**2 + n * mean**2 - N * num**2) / (N - 1)
            assert (got.n, got.empty, got.numerator.n) == (n, False, N)
            assert got.numerator.mean == pytest.approx(num, rel=1e-12)
            assert N * got.numerator.std_error**2 == pytest.approx(var, rel=1e-12)


# An integrand may hand back one of its own inputs: ``eval_pairs`` returns
# ``np.asarray(func(s, x))``, which is ``s`` itself for ``lambda s, x: s``.
# The stepper must then never write into the position or supremum arrays it
# passed in.  Position-valued rates need a band above 0 and a bound above the
# overshoot past ``a``.  (model, potential, spec, bound, estimates, digests)
ALIAS_GOLDEN = {
    "bm_s": (BM, lambda s, x: s, SPEC, 1.0, (
        0.4001702208778163, 0.00932988122371463, 0.44896466180896377,
        0.010028230810122553, 0.491, 0.01118132420626031, 0), (
        "bf511e8f53a591919fc461918840bf2e7ec4adec0f26cd4961acc81c537547c8",
        "543d8a334a80dd6351f11a8de45da60508f5beba119a3a815e83e36984f20a66",
        "3e383500c7c9d0d4b33a2c69c389a9e87a84986e72c7172a71c93e8443198933",
        "3e383500c7c9d0d4b33a2c69c389a9e87a84986e72c7172a71c93e8443198933",
        "0301c79261b24461334e15e50749c79735bef45109b0aa8ab411b02571a0830d")),
    "bm_x": (BM, lambda s, x: x, ExitSpec(1.0, 1.4, 2.0), 3.0, (
        0.32547709341456443, 0.007913338690889437, 0.3944587736982021,
        0.009067245024616833, 0.491, 0.01118132420626031, 0), (
        "bf511e8f53a591919fc461918840bf2e7ec4adec0f26cd4961acc81c537547c8",
        "be91827fe758d851d25ccef407f82b8c7e38d0e39f0b676ee2f8aa8ba6711901",
        "6f475c4856d85b49fcc949d196a7d61f0bd5879a84b10ad5e6fe5b30307da9dc",
        "6f475c4856d85b49fcc949d196a7d61f0bd5879a84b10ad5e6fe5b30307da9dc",
        "a088efcba6ed1a0fb8f13746e113e6747434a8274c542a387abd9bec8f57606a")),
    "jd_s": (JD, lambda s, x: s, SPEC, 1.0, (
        0.6393477633189121, 0.008633903153314075, 0.2365403709294687,
        0.009004583425917225, 0.741, 0.009798341887884702, 0), (
        "38cbaca0a451103e880d21ac3f96b39e0ca4d426d05dd3d7b4b4b3fe19f6d3e7",
        "262865951943370ba3058cc31310bf0d37a75061cde0c118b72da9c51b8344b2",
        "10ba3f2055cd7932a06c8137a3a13c044813e61ed382a7a4a885ce1e0deb4b45",
        "4016e56021508073de7c5247ae3051c9db0c29f0aa49d1bae33ef75c43e93835",
        "1d40285e35766f3bc1879bbe5f8b552795e56d849d8dcf0f900b031674e7873d")),
    "jd_x": (JD, lambda s, x: x, ExitSpec(1.0, 1.4, 2.0), 3.0, (
        0.542964635815818, 0.007666559714883421, 0.2132418064556607,
        0.008222819668186845, 0.741, 0.009798341887884702, 0), (
        "38cbaca0a451103e880d21ac3f96b39e0ca4d426d05dd3d7b4b4b3fe19f6d3e7",
        "14f30a4ac633e285c7bec83507985cd79058e937d1f9aadc4328883eecf41a01",
        "4fcc905ccbe19b2378deeadbc4a89588faa8e9b0f1aff31bbe96f44ba3a9afe0",
        "bc1efc646d8508eb454dd1ee603f9872907c3aa2598cbb8513b346f61b03b29e",
        "b547a639e1012651f1046dba1417482efb36b6d9a3491f9e2bae1efb95771e5a")),
}

# More than one chunk: chunk k draws from substream (seed, k) and the records
# concatenate in chunk order.  A narrow band keeps each run under a second.
NARROW = ExitSpec(0.0, 0.05, 0.1)
# (model, n_paths, estimates, digests)
CHUNKED_GOLDEN = {
    "bm": (BM, _CHUNK + 2000, (
        0.5066034799702447, 0.0021924226893322114, 0.4933654528061513,
        0.0021923890561021354, 0.5066153846153846, 0.002192474206626356, 0), (
        "bf98d5ceadb14b9016a5910057416603e04a36b11248206444150dbab34daf1a",
        "3537488cd9c853ccfdb13f772c906607393db9121f5cbb1ea7e630425bd1d7ed",
        "26e737067404eec2e9eb872bd59771a95ab91c49075df050570ac4c5e4d35053",
        "26e737067404eec2e9eb872bd59771a95ab91c49075df050570ac4c5e4d35053",
        "530add9ce334d7e6437d2369dd3852be60eda78264cee2921353bb1f7797664c")),
    "jd": (JD, _CHUNK + 2000, (
        0.548121564481373, 0.002182429961983382, 0.45184775371350483,
        0.002182396770233602, 0.5481346153846154, 0.0021824819235709333, 0), (
        "21a0db8964f7b2914fc333dea0604acc1df4be7ce9e11530d64bcbc76a34943d",
        "7f87bed6eb1a9d630a6a80e361ffe42bd73f87175b2d230dbe73eea194af3539",
        "3f192dfdfcae0edfcb60f260ea2f482a6f6708be35201cad960532f5ccde8d55",
        "4bc500d57a98448699bd10e508945f0b9cd0bf6521c0db3002aa9123d61114b2",
        "a23dfdd03e59dd93f1bfac6c8bf529dcb7306b89f162c00c3b88b8388ac686c1")),
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
        model, n_paths, want, digests = CHUNKED_GOLDEN[case]
        F = parse_bivariate("reflected:0.5", NARROW.a - NARROW.b)
        cfg = MCConfig(dt=1e-4, n_paths=n_paths, seed=7)
        res = run_exit_mc(model, F, NARROW, cfg, keep_samples=True)
        assert _estimates(res) == want
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, digests))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_estimates_do_not_depend_on_the_worker_count(workers, monkeypatch):
    _use_workers(monkeypatch, workers)
    F = parse_bivariate("reflected:0.5", NARROW.a - NARROW.b)
    for model, n_paths, want, digests in CHUNKED_GOLDEN.values():
        cfg = MCConfig(dt=1e-4, n_paths=n_paths, seed=7)
        res = run_exit_mc(model, F, NARROW, cfg, keep_samples=True)
        assert _estimates(res) == want
        assert _digests(res.samples) == dict(zip(SAMPLE_FIELDS, digests))
        assert res.diagnostics["chunks"] == 2

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
    assert res.diagnostics["chunks"] == 3
    for name in ("passes", "steps", "path_steps", "uniforms"):
        assert res.diagnostics[name] == sum(getattr(st, name) for st in chunks)


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

    def test_censoring_raises_in_the_parent(self, monkeypatch):
        _cap(monkeypatch, 1e-3)
        with pytest.raises(RuntimeError, match="censored"):
            run_exit_mc(BM, REFLECTED, SPEC, _cfg())
        with pytest.raises(RuntimeError, match="censored"):
            occupation_mc(BM, LEVEL, SPEC, _cfg())

    def test_an_error_meanwhile_cancels_the_chunks_not_started(self, monkeypatch, tmp_path):
        # five chunks: the two workers take chunks 0 and 1 and the executor
        # hands them at most two more, so chunk 4 waits in the parent until
        # a chunk ends, and each chunk takes at least 0.2 s
        monkeypatch.setattr(mc, "_CHUNK", 400)
        chunk = mc._chunk

        def marked(*args):
            (tmp_path / f"chunk{args[-1]}").touch()
            time.sleep(0.2)
            return chunk(*args)

        monkeypatch.setattr(mc, "_chunk", marked)

        def solve():
            raise KeyError("solve")

        with pytest.raises(KeyError, match="solve"):
            run_exit_mc(BM, REFLECTED, SPEC, _cfg(), meanwhile=solve)
        assert (tmp_path / "chunk0").exists()
        assert not (tmp_path / "chunk4").exists()

    def test_a_worker_that_dies_fails_the_call(self):
        parent = os.getpid()

        def func(s, x):
            if os.getpid() != parent:
                os._exit(1)
            return np.full(x.shape, 0.2)

        with pytest.raises(BrokenProcessPool):
            run_exit_mc(BM, BivariatePotential(func, bound=1.0), SPEC, _cfg())


class _Recorder:
    """Forwards to a Generator and keeps ``(method, copy of the result)`` of
    each draw; other attributes (``bit_generator``) pass through."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if not callable(method):
            return method

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append((name, np.array(out, copy=True)))
            return out

        return draw


def _rows(m):
    return min(mc._MAX_ROWS, max(1, mc._PASS_ENTRIES // m))


def _coupled_rows(m):
    """A coupled pass's rows: the even rule that holds whole pairs."""
    rows = _rows(m)
    return max(2, rows - rows % 2)


def _record_chunk(model, cfg, n, integrands, monkeypatch, track=True, coupled=False):
    """Run one chunk and return its records with every draw it made: the main
    stream's, and each pass's bridge entries and uniforms."""
    rng = _Recorder(_chunk_rng(cfg.seed, 0))
    bridge, real = [], _bridge_extrema

    def recording(uniforms, *args):
        rec = _Recorder(uniforms)
        hi, lo, ext = real(rec, *args)
        ((name, u),) = rec.draws
        assert name == "random"
        bridge.append((hi.copy(), lo.copy(), u))
        return hi, lo, ext

    monkeypatch.setattr(mc, "_bridge_extrema", recording)
    st = _simulate_exit_chunk(model, SPEC, cfg, rng, n, integrands, track, coupled)
    return st, rng.draws, bridge


class _CountedWrites(np.ndarray):
    """A record array that counts the writes into each of its columns."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        np.add.at(self.writes, np.arange(self.shape[-1])[key[-1]], 1)


def _count_record_writes(monkeypatch):
    init = mc._ExitState.__init__

    def counting(self, n, n_integrands):
        init(self, n, n_integrands)
        self.acc = self.acc.view(_CountedWrites)
        self.acc.writes = np.zeros(n, dtype=int)

    monkeypatch.setattr(mc._ExitState, "__init__", counting)


# Integrands that do not read the supremum, for the untracked runs: the
# level sits inside the band, so its jump is crossed both ways.
CONST = parse_bivariate("const:0.5", SPEC.a - SPEC.b)
LEVEL_S = parse_bivariate("level:1,0.6", SPEC.a - SPEC.b)
# sigma = 2 puts (a-b)^2 / sigma^2 at 1/4: a time-cap scale of 0.4 censors at 0.1
BM_SIGMA2 = make_brownian(0.3, 2.0)
JD_SIGMA2 = make_exp_jump_diffusion(2.0, 2.0, 1.0, 0.5)
# a step of sd 0.63 on a band of 1: a path that leaves down at a pair's first
# half often reaches a in its second half
BM_WIDE = make_brownian(0.3, 20.0)
# reflected:0.5 with the bound of a band of width 4, for the wide steps' overshoot
REFLECTED_WIDE = parse_bivariate("reflected:0.5", 4.0)
# a jump every 0.05 on average: many jumps close a half-filled pair
JD_BUSY = make_exp_jump_diffusion(2.0, 1.0, 20.0, 0.05)
# (model, time-cap scale or None for the default, integrands, reach, track)
REFERENCE_CASES = {
    "bm": (BM, None, [REFLECTED.eval_pairs], _REACH, True),
    "bm_cap": (BM, 0.2, [REFLECTED.eval_pairs], _REACH, True),
    "bm_cap_sigma2": (BM_SIGMA2, 0.4, [REFLECTED.eval_pairs], _REACH, True),
    "jd_cap_sigma2": (JD_SIGMA2, 0.4, [REFLECTED.eval_pairs], _REACH, True),
    "bm_dense": (BM, None, [REFLECTED.eval_pairs], UNBOUNDED, True),
    "jd_dense": (JD, None, [REFLECTED.eval_pairs], UNBOUNDED, True),
    "bm_alias": (BM, None, [BivariatePotential(lambda s, x: s, bound=1.0).eval_pairs], _REACH,
                 True),
    "jd": (JD, None, [REFLECTED.eval_pairs], _REACH, True),
    "jd_cap": (JD, 0.2, [REFLECTED.eval_pairs], _REACH, True),
    "bm_two": (BM, None, [REFLECTED.eval_pairs,
                          BivariatePotential(lambda s, x: x * x, bound=4.0).eval_pairs], _REACH,
               True),
    "jd_two": (JD, None, [REFLECTED.eval_pairs,
                          BivariatePotential(lambda s, x: x * x, bound=4.0).eval_pairs], _REACH,
               True),
    "bm_untracked": (BM, None, [LEVEL_S.eval_pairs], _REACH, False),
    "bm_dense_untracked": (BM, None, [LEVEL_S.eval_pairs], UNBOUNDED, False),
    "bm_cap_untracked": (BM, 0.2, [LEVEL_S.eval_pairs], _REACH, False),
    "jd_untracked": (JD, None, [CONST.eval_pairs, LEVEL_S.eval_pairs], _REACH, False),
    "jd_cap_untracked": (JD, 0.2, [LEVEL_S.eval_pairs], _REACH, False),
    # no potential that declares reads_sup=False reads s; this one pins what
    # an untracked run passes as s, through the jumps too
    "bm_s_untracked": (BM, None,
                       [BivariatePotential(lambda s, x: np.abs(s), bound=2.0).eval_pairs],
                       _REACH, False),
    "jd_s_untracked": (JD, None,
                       [BivariatePotential(lambda s, x: np.abs(s), bound=2.0).eval_pairs],
                       _REACH, False),
    # rows for the coupled runs, each with the event of COUPLING_EVENTS
    "bm_wide_untracked": (BM_WIDE, None, [LEVEL_S.eval_pairs], _REACH, False),
    "bm_wide": (BM_WIDE, None, [REFLECTED_WIDE.eval_pairs], _REACH, True),
    "jd_busy": (JD_BUSY, None, [REFLECTED.eval_pairs], _REACH, True),
    "jd_busy_cap": (JD_BUSY, 0.2, [LEVEL_S.eval_pairs], _REACH, False),
}
# the reference's count of the event each row is there for: an exit at a
# pair's first half whose second half takes the coarse path up; a tracked
# reflected:0.5 run whose second halves raise the coarse supremum; jumps that
# close a half-filled pair, without and with pairs censored at the time cap
# (which the test checks for every "cap" row)
COUPLING_EVENTS = {
    "bm_wide_untracked": "odd_exits_up",
    "bm_wide": "sup_raised",
    "jd_busy": "jumps_close_half",
    "jd_busy_cap": "jumps_close_half",
}


def _match_the_reference(case, entries, coupled, monkeypatch):
    model, cap, integrands, reach, track = REFERENCE_CASES[case]
    if entries is not None:
        monkeypatch.setattr(mc, "_PASS_ENTRIES", entries)
    if cap is not None:
        _cap(monkeypatch, cap)
    monkeypatch.setattr(mc, "_REACH", reach)
    _count_record_writes(monkeypatch)
    cfg = _cfg()
    st, main, bridge = _record_chunk(model, cfg, 2000, integrands, monkeypatch, track, coupled)
    assert {name for name, _ in main} <= {"standard_normal", "exponential"}
    rows = _coupled_rows if coupled else _rows
    ref = reference_exit_chunk(model, SPEC, cfg, 2000, integrands, [d for _, d in main],
                               bridge, rows, reach, track, coupled)
    books = [(st, ref)] + ([(st.coarse, ref["coarse"])] if coupled else [])
    for got, want in books:
        for name in _ExitState.RECORDS:
            assert np.array_equal(getattr(got, name), want[name], equal_nan=True), name
        assert np.all(got.acc.writes == 1)
        if "cap" in case:
            assert got.censored.any()
        if not track:
            assert np.isnan(got.s_exit).all()
    assert (st.passes, st.steps, st.path_steps) == (ref["passes"], ref["steps"], ref["path_steps"])
    assert st.uniforms == sum(u.size for _, _, u in bridge)
    normals = [d.size for name, d in main if name == "standard_normal"]
    # with 1000 entries a pass, a plain run's first pass takes one row and a
    # coupled run's two
    assert normals[0] == rows(2000) * 2000 == (2000 * (1 + coupled) if entries else 16000)
    return st, ref


@pytest.mark.parametrize("entries", [None, 1000], ids=["default", "bulk"])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_passes_match_the_per_step_reference(case, entries, monkeypatch):
    # the blocked passes give, bit for bit, the records of a plain loop that
    # steps each path once per row with the same draws; with 1000 entries a
    # pass, the 2000 paths start in passes of one step each.  Every path's
    # record is written once, whichever slots it moved through.
    st, _ = _match_the_reference(case, entries, False, monkeypatch)
    assert st.coarse is None and st.half_steps == 0


@pytest.mark.parametrize("entries", [None, 1000], ids=["default", "bulk"])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_coupled_passes_match_the_per_step_reference(case, entries, monkeypatch):
    # a coupled run's coarse records are those of the per-step loop that
    # pairs the fine steps, bit for bit; its passes hold whole pairs, so a
    # first half's second half is the block's next row, which the two-row
    # passes of the bulk reach at every other row
    st, ref = _match_the_reference(case, entries, True, monkeypatch)
    assert st.half_steps == ref["odd_exits"] > 0
    if case in COUPLING_EVENTS:
        assert ref[COUPLING_EVENTS[case]] > 0


@pytest.mark.parametrize("entries", [None, 1000, 3000], ids=["default", "bulk", "odd"])
@pytest.mark.parametrize("model", [BM, JD], ids=["bm", "jd"])
def test_each_coupled_pass_advances_an_even_number_of_rows(model, entries, monkeypatch):
    # so that no pair spans two passes: 1000 entries a pass force two rows on
    # 2000 paths, and 3000 give odd row counts that round down
    if entries is not None:
        monkeypatch.setattr(mc, "_PASS_ENTRIES", entries)
    shapes = []

    def integrand(s, x):
        shapes.append(x.shape)
        return REFLECTED.eval_pairs(s, x)

    _simulate_exit_chunk(model, SPEC, _cfg(), _chunk_rng(7, 0), 2000, [integrand], True, True)
    passes = [shape for shape in shapes if len(shape) == 2]
    assert passes and all(k >= 2 and k % 2 == 0 for k, _ in passes)
    assert all(k == _coupled_rows(m) for k, m in passes)
    if entries == 3000:
        assert any(_rows(m) % 2 for _, m in passes)


@pytest.mark.parametrize("model", [BM, JD], ids=["bm", "jd"])
def test_a_coupled_run_spawns_only_its_bridge_stream(model, monkeypatch):
    # the second halves come from the block, so no other stream is drawn
    indices, real = [], mc._spawned_rng

    def watched(rng, index):
        indices.append(index)
        return real(rng, index)

    monkeypatch.setattr(mc, "_spawned_rng", watched)
    st = _simulate_exit_chunk(model, SPEC, _cfg(), _chunk_rng(7, 0), 2000,
                              [REFLECTED.eval_pairs], True, True)
    assert indices == [0] and st.half_steps > 0


@pytest.mark.parametrize("model", [BM, JD], ids=["bm", "jd"])
def test_skipping_the_supremum_changes_no_exit_and_no_sum(model, monkeypatch):
    # with unbounded reach both runs draw a uniform for every entry, maxima
    # first, in the same order, so the untracked level a moves no draw: the
    # records match bit for bit but for the supremum at exit
    monkeypatch.setattr(mc, "_REACH", UNBOUNDED)
    integrands = [CONST.eval_pairs, LEVEL_S.eval_pairs]
    tracked, untracked = (
        _simulate_exit_chunk(model, SPEC, _cfg(), _chunk_rng(7, 0), 2000, integrands, track)
        for track in (True, False)
    )
    for name in _ExitState.RECORDS:
        if name != "s_exit":
            assert np.array_equal(getattr(tracked, name), getattr(untracked, name)), name
    for name in _ExitState.COUNTS:
        assert getattr(tracked, name) == getattr(untracked, name), name
    assert np.isfinite(tracked.s_exit).all() and np.isnan(untracked.s_exit).all()
    assert tracked.acc[1].min() < tracked.acc[1].max()  # the level potential was crossed


@pytest.mark.parametrize("model,track", [(BM, True), (JD, True), (BM, False)],
                         ids=["bm", "jd", "bm_untracked"])
def test_draw_pattern(model, track, monkeypatch):
    # the main stream draws K * m normals a pass, as one flat block: the
    # traced benchmark counts path-steps from that integer size.  The
    # uniforms come from the SFC64 stream of the first child spawned from
    # the chunk's seed sequence, one for each step of each path within
    # reach (of the running maximum, or of a when untracked), in one block
    # a pass.
    n = 2000
    shapes = []

    def integrand(s, x):
        shapes.append(x.shape)
        return REFLECTED.eval_pairs(s, x)

    cfg = _cfg()
    st, main, blocks = _record_chunk(model, cfg, n, [integrand], monkeypatch, track)
    normals = [d.size for name, d in main if name == "standard_normal"]
    # a pass's first integrand call sees its whole (K, m) block
    passes = [shape for shape in shapes if len(shape) == 2]
    assert shapes[0] == (n,)
    assert [k * m for k, m in passes] == normals
    assert all(k == _rows(m) for k, m in passes)
    assert passes[0] == (_rows(n), n)
    assert all(later[1] <= earlier[1] for earlier, later in zip(passes, passes[1:]))
    assert st.passes == len(passes)
    assert sum(k for k, _ in passes) >= st.steps > sum(k for k, _ in passes[:-1])
    assert st.path_steps <= sum(normals)
    seq = np.random.SeedSequence((cfg.seed, 0))
    main_rng = np.random.Generator(np.random.SFC64(seq))
    if model is JD:
        assert main[0][0] == "exponential"
        assert np.array_equal(main[0][1], main_rng.exponential(1.0 / JD.jump_rate, n))
    first = next(d for name, d in main if name == "standard_normal")
    assert np.array_equal(first, main_rng.standard_normal(first.size))
    assert len(blocks) == len(passes)
    uniforms = np.random.Generator(np.random.SFC64(seq.spawn(1)[0]))
    for (k, m), (hi, lo, u) in zip(passes, blocks):
        assert np.array_equal(u, uniforms.random(hi.size + lo.size))
        assert np.all(np.diff(hi) > 0) and np.all(np.diff(lo) > 0)
        assert hi.size + lo.size <= 2 * k * m
    assert sum(hi.size + lo.size for hi, lo, _ in blocks) < sum(normals)
    assert st.uniforms == sum(hi.size + lo.size for hi, lo, _ in blocks)


def _watch_tracking(monkeypatch):
    """Record ``(track, merged records of each level)`` of every run's chunks."""
    runs, collect = [], mc._collect_states

    def watched(model, spec, cfg, integrands, track, meanwhile=None, levels=0):
        states, diagnostics = collect(model, spec, cfg, integrands, track, meanwhile, levels)
        runs.append((track, states))
        return states, diagnostics

    monkeypatch.setattr(mc, "_collect_states", watched)
    return runs


CONST_RUNS = {  # each reads the supremum through something other than F
    "keep_samples": lambda: run_exit_mc(BM, CONST, SPEC, _cfg(), keep_samples=True),
    "g_identity": lambda: run_exit_mc(JD, CONST, SPEC, _cfg(), g=IDENTITY),
    "conditional_mc": lambda: mc.conditional_mc(BM, CONST, SPEC, _cfg(), 4),
    "reflected": lambda: run_exit_mc(JD, REFLECTED, SPEC, _cfg()),
}


@pytest.mark.parametrize("case", sorted(CONST_RUNS))
def test_a_run_that_reads_the_supremum_tracks_it(case, monkeypatch):
    runs = _watch_tracking(monkeypatch)
    res = CONST_RUNS[case]()
    ((track, [st]),) = runs
    assert track
    assert np.isfinite(st.s_exit[~st.censored]).all()
    assert res.diagnostics["sup_tracked"]


def test_runs_that_read_no_supremum_do_not_track_it(monkeypatch):
    runs = _watch_tracking(monkeypatch)
    res = run_exit_mc(JD, LEVEL_S, SPEC, _cfg())
    occ = occupation_mc(JD, LEVEL, SPEC, _cfg())
    assert not res.diagnostics["sup_tracked"]
    assert not occ.diagnostics["sup_tracked"]
    assert [track for track, _ in runs] == [False, False]
    assert all(np.isnan(st.s_exit).all() for _, [st] in runs)


@pytest.mark.parametrize("levels", [0, 3])
@pytest.mark.parametrize("model", [BM, JD], ids=["bm", "jd"])
def test_time_integral_is_the_exit_functional_of_the_lifted_potential(model, levels,
                                                                      monkeypatch):
    # occupation_mc's (A) evaluates f itself, lifted to (s, x) as
    # local_time_laplace lifts it, so each path's sum is the one run_exit_mc
    # accumulates for the lifted potential, bit for bit, at every level and
    # on both sides of each pair
    runs = _watch_tracking(monkeypatch)
    occ = occupation_mc(model, LEVEL, SPEC, _cfg(), levels=levels)
    res = run_exit_mc(model, BivariatePotential.from_univariate(LEVEL), SPEC, _cfg(),
                      levels=levels)
    (_, occ_states), (_, lifted_states) = runs
    assert len(occ_states) == len(lifted_states) == 1 + levels
    for occ_st, lifted in zip(occ_states, lifted_states):
        assert np.array_equal(occ_st.acc[0], lifted.acc[0])
        if occ_st.coarse is not None:
            assert np.array_equal(occ_st.coarse.acc[0], lifted.coarse.acc[0])
    # e^{-(A)} splits into its up and down parts
    assert occ.time_integral_laplace.mean == pytest.approx(
        res.up_laplace.mean + res.down_value.mean, rel=1e-12)
    # |A - B| is read from the dt paths: the plain run, or the level-1 pairs' fine side
    dt_paths = occ_states[min(levels, 1)]
    kept = ~dt_paths.censored
    assert occ.mean_abs_discrepancy == float(
        np.mean(np.abs(dt_paths.acc[0, kept] - dt_paths.acc[1, kept])))
    if levels:
        assert dt_paths.up.size < 2000 and dt_paths.coarse is not None


@pytest.mark.parametrize("levels", [0, 3])
def test_conditional_bins_split_the_exit_estimates(levels):
    # run_exit_mc and conditional_mc track the supremum of reflected:0.5
    # alike, so both draw the same uniforms: the down bins' numerators sum to
    # down_value, and the up bin is up_laplace
    model, spec = make_brownian(0.0, 1.0), ExitSpec(0.0, 0.5, 2.0)
    F = parse_bivariate("reflected:0.5", spec.a - spec.b)
    cfg = MCConfig(dt=1e-3, n_paths=2000, seed=7)
    res = run_exit_mc(model, F, spec, cfg, levels=levels)
    cond = mc.conditional_mc(model, F, spec, cfg, 4, levels=levels)
    assert sum(bn.numerator.mean for bn in cond.bins) == pytest.approx(res.down_value.mean,
                                                                       rel=1e-12)
    up = cond.up_bin.numerator
    assert (up.mean, up.std_error) == pytest.approx(
        (res.up_laplace.mean, res.up_laplace.std_error), rel=1e-12)
    assert sum(bn.n for bn in cond.bins) + cond.up_bin.n == 2000
    assert len(cond.diagnostics.get("levels", [])) == (1 + levels if levels else 0)


@pytest.mark.parametrize("potential", ["const:0.5", "level:1,0.6"])
def test_occupation_table_lookup_is_np_interp_bit_for_bit(potential, monkeypatch):
    tables, build = [], mc._uniform_interp
    monkeypatch.setattr(mc, "_uniform_interp", lambda *t: tables.append(t) or build(*t))
    occupation_mc(BM, parse_univariate(potential), SPEC, MCConfig(dt=1e-3, n_paths=200, seed=1))
    (fine, cum), = tables
    lookup = build(fine, cum)
    rng = np.random.default_rng(5)
    y = np.concatenate([
        rng.uniform(fine[0], fine[-1], 200000),
        fine, np.nextafter(fine, -np.inf), np.nextafter(fine, np.inf),
        # jd paths overshoot below b, by more than the table's margin
        [fine[0] - 3.0, fine[0] - 1e-9, fine[-1] + 1e-9, fine[-1] + 3.0],
    ])
    assert np.array_equal(lookup(y).view(np.int64), np.interp(y, fine, cum).view(np.int64))


@pytest.mark.parametrize("levels", [0, 2])
def test_a_coarse_step_warns_for_the_exit_and_the_occupation_runs(levels):
    # each warning points at the line that called the entry point
    model, spec = make_brownian(0.0, 1.0), ExitSpec(0.0, 0.5, 1.0)
    f_x = parse_univariate("const:0.5")
    F = BivariatePotential.from_univariate(f_x)
    cfg = MCConfig(dt=0.05, n_paths=200, seed=1)
    for run in (lambda: run_exit_mc(model, F, spec, cfg, levels=levels),
                lambda: occupation_mc(model, f_x, spec, cfg, levels=levels),
                lambda: mc.conditional_mc(model, F, spec, cfg, 4, levels=levels)):
        with pytest.warns(UserWarning, match="coarse") as caught:
            run()
        assert [w.filename for w in caught] == [__file__]


def test_skipped_crossings_are_below_uniform_resolution():
    assert math.exp(-2 * _REACH) < 2**-53


@settings(deadline=None, max_examples=200, derandomize=True, database=None)
@given(
    m=st.integers(1, 64),
    seed=st.integers(0, 2**63 - 1),
    var=st.floats(1e-8, 1e-1),
    spread=st.floats(0.0, 30.0),
    per_path=st.booleans(),
    untracked=st.booleans(),
)
def test_bridge_extrema_match_the_dense_formula(m, seed, var, spread, per_path, untracked):
    # one step on [b, a] = [0, 1]: the paths within reach get the dense
    # sampler's extremum bit for bit, for the uniform drawn in their slot.
    # Untracked, the level of the maxima is the one float a.
    b = 0.0
    gen = np.random.default_rng(seed)
    x = gen.uniform(b, 1.0, m)
    s = np.minimum(x + gen.exponential(spread * math.sqrt(var), m), 1.0)
    if untracked:
        s = 1.0
    x_new = x + spread * math.sqrt(var) * gen.standard_normal(m)
    if per_path:
        var = var * gen.uniform(0.0, 1.0, m)
    hi, lo, ext = _bridge_extrema(
        _chunk_rng(seed, 0), x, x_new, s, b, var, np.empty(4 * m), np.empty(2 * m, dtype=bool)
    )
    reach = _REACH * var
    assert np.array_equal(hi, np.flatnonzero((s - x) * (s - x_new) < reach))
    assert np.array_equal(lo, np.flatnonzero((x - b) * (x_new - b) < reach))

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


# ---------------------------------------------------------------------------
# Multilevel runs
# ---------------------------------------------------------------------------

BM_UNIT = make_brownian(0.0, 1.0)
WIDE_SPEC = ExitSpec(0.0, 0.5, 2.0)
WIDE_CONST = parse_bivariate("const:0.5", WIDE_SPEC.a - WIDE_SPEC.b)


@pytest.mark.parametrize("dt,width,levels", [
    (1e-3, 2.0, 5), (1e-3, 1.0, 3), (1e-2, 2.0, 2),
    # 2 dt above (a-b)^2/100, and dt itself above it
    (0.0201, 2.0, 0), (0.05, 2.0, 0),
])
def test_level_rule(dt, width, levels):
    spec = ExitSpec(0.0, 0.5 * width, width)
    assert MCConfig(dt=dt, n_paths=100).max_levels(spec) == levels
    if levels:
        # the coarsest step is not coarse for the band
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            MCConfig(dt=dt * 2**levels, n_paths=100).warn_if_coarse(spec)


def test_each_level_draws_from_its_own_stream(monkeypatch):
    # chunk k runs its n_k paths at 2^L dt from its own stream, then, for each
    # l, max(256, ceil(n_k / (32 * 2^(L-l)))) pairs at 2^(l-1) dt from the
    # SFC64 stream of the child 1 + l that spawn gives of the chunk's seed
    # sequence: at L = 3, 10000 paths give 313 pairs at the coarsest
    # correction and the floor of 256 below it
    runs, real = [], mc._simulate_exit_chunk

    def watched(model, spec, cfg, rng, n, integrands, track=True, coupled=False):
        runs.append((cfg.dt, repr(rng.bit_generator.state), n, coupled))
        return real(model, spec, cfg, rng, n, integrands, track, coupled)

    monkeypatch.setattr(mc, "_simulate_exit_chunk", watched)
    monkeypatch.setattr(mc, "_CHUNK", 10000)
    _use_workers(monkeypatch, 1)
    run_exit_mc(BM, CONST, SPEC, MCConfig(dt=1e-3, n_paths=10100, seed=11), levels=3)

    def state(k, child=None):
        seq = np.random.SeedSequence((11, k))
        return repr(np.random.SFC64(seq if child is None else seq.spawn(child + 1)[child]).state)

    want = []
    for k, n_k, pairs in ((0, 10000, (256, 256, 313)), (1, 100, (256, 256, 256))):
        want.append((1e-3 * 2**3, state(k), n_k, False))
        want += [(1e-3 * 2 ** (level - 1), state(k, 1 + level), n_l, True)
                 for level, n_l in zip((1, 2, 3), pairs)]
    assert runs == want


def test_a_full_chunk_halves_its_pairs_from_the_coarsest_correction(monkeypatch):
    # at L = 5 a 50000-path chunk runs ceil(50000 / 32) = 1563 pairs at 16 dt,
    # then half as many at each finer step, down to the floor of 256
    runs = []

    def watched(model, spec, cfg, rng, n, integrands, track=True, coupled=False):
        runs.append((cfg.dt, n, coupled))

    monkeypatch.setattr(mc, "_simulate_exit_chunk", watched)
    mc._chunk(BM_UNIT, WIDE_SPEC, MCConfig(dt=1e-3, n_paths=_CHUNK), [WIDE_CONST.eval_pairs],
              False, 5, 0)
    assert runs == [(1e-3 * 2**5, 50000, False)] + [
        (1e-3 * 2 ** (level - 1), pairs, True)
        for level, pairs in zip(range(1, 6), (256, 256, 391, 782, 1563))]


def test_two_full_chunks_report_their_summed_pairs():
    cfg = MCConfig(dt=1e-3, n_paths=2 * _CHUNK, seed=3)
    res = run_exit_mc(BM_UNIT, WIDE_CONST, WIDE_SPEC, cfg, levels=cfg.max_levels(WIDE_SPEC))
    assert [level["paths"] for level in res.diagnostics["levels"]] == [
        100000, 512, 512, 782, 1564, 3126]


def test_the_three_entry_points_run_one_schedule():
    cfg = MCConfig(dt=1e-3, n_paths=20000, seed=3)
    levels = cfg.max_levels(WIDE_SPEC)
    for res in (
        run_exit_mc(BM_UNIT, WIDE_CONST, WIDE_SPEC, cfg, levels=levels),
        occupation_mc(BM_UNIT, parse_univariate("const:0.5"), WIDE_SPEC, cfg, levels=levels),
        mc.conditional_mc(BM_UNIT, WIDE_CONST, WIDE_SPEC, cfg, 4, levels=levels),
    ):
        rows = res.diagnostics["levels"]
        assert [row["dt"] for row in rows] == [32e-3, 1e-3, 2e-3, 4e-3, 8e-3, 16e-3]
        assert [row["paths"] for row in rows] == [20000, 256, 256, 256, 313, 625]


# each level's (up, down) mean on bm 0,1, b=0, x=0.5, a=2, const:0.5, dt
# 1e-3, 2000 paths, seed 5, L = 4: the coarsest run's, then the coupled
# difference of each correction level l = 1..4
LEVEL_GOLDEN = [
    (0.14759789568200715, 0.5748971715471214),
    (1.612280770338503e-05, 7.407983285978017e-05),
    (4.892252002922104e-05, 0.00012111156529196509),
    (0.00010556183779210175, 0.00024551030642039253),
    (8.982169536784514e-05, 0.0005547284116836222),
]


def test_each_levels_coupled_difference_is_pinned():
    res = run_exit_mc(BM_UNIT, WIDE_CONST, WIDE_SPEC, MCConfig(dt=1e-3, n_paths=2000, seed=5),
                      levels=4)
    levels = res.diagnostics["levels"]
    got = [(level["mean"]["up_laplace"], level["mean"]["down_value"]) for level in levels]
    assert got == LEVEL_GOLDEN
    assert [level["dt"] for level in levels] == [16e-3, 1e-3, 2e-3, 4e-3, 8e-3]
    assert (res.up_laplace.mean, res.down_value.mean) == tuple(map(sum, zip(*got)))
    assert (res.bias_dt["up_laplace"].mean, res.bias_dt["down_value"].mean) == (
        -got[1][0], -got[1][1])


def test_multilevel_standard_error_is_that_of_the_plain_paths():
    # the corrections add about 1% to the variance, so the standard error is
    # the one n plain dt paths give, from the closed forms at q and 2q, and
    # the estimates pass the z-score gate
    q, n = 0.5, 20000
    cfg = MCConfig(dt=1e-3, n_paths=n, seed=3)
    res = run_exit_mc(BM_UNIT, WIDE_CONST, WIDE_SPEC, cfg, levels=cfg.max_levels(WIDE_SPEC))
    assert len(res.diagnostics["levels"]) == 1 + 5
    band = (WIDE_SPEC.b, WIDE_SPEC.x, WIDE_SPEC.a)
    p_up = classical_exit_up(BM_UNIT, 0.0, *band)
    for est, first, second in (
        (res.up_laplace, classical_exit_up(BM_UNIT, q, *band),
         classical_exit_up(BM_UNIT, 2 * q, *band)),
        (res.down_value, classical_exit_down(BM_UNIT, q, *band),
         classical_exit_down(BM_UNIT, 2 * q, *band)),
        (res.p_up, p_up, p_up),
    ):
        se = math.sqrt((second - first * first) / n)
        assert abs(est.std_error / se - 1.0) < 0.05
        assert abs(est.mean - first) < 3.0 * est.std_error


# one range check serves the three entry points
BAD_LEVELS = {
    "exit_-1": lambda: run_exit_mc(BM, CONST, SPEC, _cfg(), levels=-1),
    "exit_6": lambda: run_exit_mc(BM, CONST, SPEC, _cfg(), levels=6),
    "exit_kept_samples": lambda: run_exit_mc(BM, CONST, SPEC, _cfg(), keep_samples=True,
                                             levels=2),
    "occupation_6": lambda: occupation_mc(BM, LEVEL, SPEC, _cfg(), levels=6),
    "conditional_-1": lambda: mc.conditional_mc(BM, CONST, SPEC, _cfg(), 4, levels=-1),
}


@pytest.mark.parametrize("case", sorted(BAD_LEVELS))
def test_levels_out_of_range_or_with_kept_samples_raise(case):
    with pytest.raises(ValueError, match="levels"):
        BAD_LEVELS[case]()


# (censored count, sha256 of the censored mask) at the time cap 0.2, a
# _T_CAP_SCALE of 0.2, as (a-b)^2 / sigma^2 is 1
CENSOR_GOLDEN = {
    "bm": (BM, 942, "37c0b82f8b62895385d556fb2e67029cb61f34947e6227eec8440761a6944083"),
    "jd": (JD, 744, "09b7f988d45c5624ce1054f78b5d75209ee24c5c8cbf20f1abf600231d897224"),
}


class TestCensoring:
    @pytest.mark.parametrize("case", sorted(CENSOR_GOLDEN))
    def test_censored_paths_are_pinned(self, case, monkeypatch):
        model, count, digest = CENSOR_GOLDEN[case]

        def run():
            return _simulate_exit_chunk(model, SPEC, _cfg(), _chunk_rng(7, 0), 2000,
                                        [REFLECTED.eval_pairs])

        free = run()
        _cap(monkeypatch, 0.2)
        capped = run()
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

    def test_exit_mc_raises_on_censoring(self, monkeypatch):
        _cap(monkeypatch, 1e-3)
        with pytest.raises(RuntimeError, match="censored"):
            run_exit_mc(BM, REFLECTED, SPEC, _cfg())

    def test_occupation_mc_raises_on_censoring(self, monkeypatch):
        _cap(monkeypatch, 1e-3)
        with pytest.raises(RuntimeError, match="censored"):
            occupation_mc(BM, LEVEL, SPEC, _cfg())


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_config_rejects_a_step_that_is_not_finite_and_positive(dt):
    # a NaN step would keep the clock at NaN, so no path would ever be censored
    with pytest.raises(ValueError, match="dt must be finite and > 0"):
        MCConfig(dt=dt, n_paths=2000)


@pytest.mark.parametrize("n_paths", [0, 1, 99])
def test_config_rejects_fewer_than_a_hundred_paths(n_paths):
    with pytest.raises(ValueError, match="n_paths must be >= 100"):
        MCConfig(dt=1e-3, n_paths=n_paths)


@pytest.mark.parametrize("n_paths,seed", [
    (150.0, 0), (np.float64(200), 0), ("200", 0), (200, 1.5), (200, "1"), (200, None),
], ids=["float", "numpy_float", "str", "float_seed", "str_seed", "none_seed"])
def test_config_rejects_a_path_count_or_seed_that_is_not_an_integer(n_paths, seed):
    # a float count would fail only inside the run, and a float seed inside a chunk
    with pytest.raises(ValueError, match="n_paths and seed must be integers"):
        MCConfig(dt=1e-3, n_paths=n_paths, seed=seed)


def test_config_keeps_numpy_integers_as_int():
    # a numpy seed would overflow in the chunk's ``seed % 2**64``
    cfg = MCConfig(dt=1e-3, n_paths=np.int64(200), seed=np.uint32(3))
    assert (type(cfg.n_paths), type(cfg.seed)) == (int, int)
    want = run_exit_mc(BM, CONST, SPEC, MCConfig(dt=1e-3, n_paths=200, seed=3))
    assert run_exit_mc(BM, CONST, SPEC, cfg).up_laplace == want.up_laplace
