"""Monte Carlo engine: seeded reproducibility, closed-form z-scores, censoring,
and the worker processes that run the chunks.

The golden values pin every estimate bit for bit for a given ``(seed,
config)``: the paths form chunks of ``_CHUNK`` (50000), and chunk ``k`` draws
from the Philox substream keyed by ``(seed, k)``.  The stepper runs passes:
a pass of ``m`` live paths advances ``K = min(_MAX_ROWS, max(1,
_PASS_ENTRIES // m))`` steps, and the live paths sit in slots that a finished
path's hole reuses, the last slots' paths moving first.  A pass draws one
flat ``standard_normal(K * m)`` from the main stream, row ``j`` for step
``j`` (then, for the paths that jump, their jump sizes and next waits), and,
with the bridge, one ``random`` block from the main stream's jumped
substream: a uniform for each ``(row, slot)`` entry within reach of the
running maximum, then for each within reach of ``b``, each set in row-major
order.  ``reference_exit_chunk`` in ``conftest.py`` replays the passes one
step at a time.  A change to the path engine that moves any draw, or any
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
        0.4577906230955397, 0.01090454503857189, 0.31520297406791753,
        0.007021226290559068, 0.469, 0.011161621338114266, 0)),
    "bm_nobridge": (BM, {"bridge_correction": False}, (
        0.4633751793524149, 0.010907412788813065, 0.30575287903092907,
        0.006928712591615463, 0.475, 0.011169148353275137, 0)),
    "jd": (JD, {}, (
        0.7233852607627062, 0.009710612461016125, 0.15869616499707068,
        0.006176798318035034, 0.7355, 0.009865015674956302, 0)),
}

# (time-integral mean, se, occupation mean, se, mean |A-B|)
OCCUPATION_GOLDEN = {
    "bm": (BM, (
        0.9376835150365138, 0.0016465557277356864, 0.9372808050162835,
        0.0016381253303428328, 0.0019347772773214023)),
    "jd": (JD, (
        0.9292661032789592, 0.0014273039281818781, 0.9293728966568822,
        0.0014155661891607938, 0.0019446482451897006)),
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
        "f54afb587d2ce55423496c56e478d37746613cddaa4d56e6bea9461ff8692df2",
        "35ee83ab5a4cbd9c0810925c944f5e6ed7f4da4cf5a0b95e5724b78b21046a36",
        "65f1d0b0d963c78f241ec0e6a18a8ed75647d27b9a240b39575855d66cf14d4a",
        "65f1d0b0d963c78f241ec0e6a18a8ed75647d27b9a240b39575855d66cf14d4a",
        "180b937b55c03846a4b4b9e621fd2603728d541066c788959a94a2311b26d6c5")),
    "bm_nobridge": (BM, {"bridge_correction": False}, (
        "cf283d6979acd6ac8e3a07b774cebbdcf634e8f5f0cd7f8eaa5cf03b5c3833b2",
        "5b681fb070538ab6d3299d9612ab0a8d168547a654c6c3b07160481976b02a42",
        "130dfbb54708ccab5d667094e13bc3d91a15623811cba2481cf9dd452f01e687",
        "130dfbb54708ccab5d667094e13bc3d91a15623811cba2481cf9dd452f01e687",
        "d42db620557b059625e0214a7c2cbad5f236ff551882497a7082512280eb107c")),
    "jd": (JD, {}, (
        "805c13d601c33b056a57c6487d08cb85e92c99b0bbaa396aba9e784801f162e8",
        "e4ee623c75bc9fbe5ea9ce5514e21ac98401c2a35e77092143cd93d66c12f24f",
        "d2059373b6dc174028eedf30472b207dbd114ac1bcbd50419822c1d1ad0dfe39",
        "81cc0c517a1be92302ed57bf25989fe4e333aac30b3af342ff809d25150d7133",
        "d9ec563864c0363704662467782b990205a8d97c8d709bf29ee462f31497b1b4")),
}

# The same runs with every step of every live path within reach, so that
# each draws both extrema, as a dense sampler does.  The largest float, not
# inf, stands for the unbounded reach: the rows after a jump in a pass have
# steps of length 0, and inf * 0 is NaN.
UNBOUNDED = np.finfo(float).max
DENSE_GOLDEN = {
    "bm": (BM, (
        0.4621274013542272, 0.010918764690489337, 0.3102247570584684,
        0.00695581719037013, 0.473, 0.011166819105029964, 0), (
        "dd6bab19a54cb600ed6ef0363f0cd479e63fbfa890c8cba96bfbae1ff9049a92",
        "0c4654671f4eb3c9fc0998289f5456f98ec4971c43967300bd63b7fee7ab1d54",
        "3096b53f82fc9e17253de89a7880c6b22132043ff451b20c086598db16e0e6ec",
        "3096b53f82fc9e17253de89a7880c6b22132043ff451b20c086598db16e0e6ec",
        "73ce3490c709573f893f9e8f53c15a0daea44012a9d1008c8c5b3f750413ac92")),
    "jd": (JD, (
        0.7253673222551724, 0.009698762745264383, 0.15800929777501335,
        0.006164106964553784, 0.737, 0.009847029094655681, 0), (
        "1353d1898a680a0b4ef12105f03c5b5ca7a4a8dcf34cbd44851917f589c23f9b",
        "f68d6c496713fa31d6c46e41a2e14a0b9d4624ff57563931e29e1264d4a29e4c",
        "d7440009c13fd08ce18d23385b3c1ae82e1c568a6fa55a0b46f7438b17d2a71a",
        "993d8603586d149c9588debcdd250f32351f711cfe5ed22e244aba7796ff48e7",
        "662ef47b3f84090377c8890e1f31539425d230d3f09980833def3cd3a876decf")),
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


# An integrand may hand back one of its own inputs: ``eval_pairs`` returns
# ``np.asarray(func(s, x))``, which is ``s`` itself for ``lambda s, x: s``.
# The stepper must then never write into the position or supremum arrays it
# passed in.  Position-valued rates need a band above 0 and a bound above the
# overshoot past ``a``.  (model, potential, spec, bound, estimates, digests)
ALIAS_GOLDEN = {
    "bm_s": (BM, lambda s, x: s, SPEC, 1.0, (
        0.3888850474235684, 0.00942437463380263, 0.4630608450629599,
        0.009947972865481424, 0.469, 0.011161621338114266, 0), (
        "f54afb587d2ce55423496c56e478d37746613cddaa4d56e6bea9461ff8692df2",
        "35ee83ab5a4cbd9c0810925c944f5e6ed7f4da4cf5a0b95e5724b78b21046a36",
        "65f1d0b0d963c78f241ec0e6a18a8ed75647d27b9a240b39575855d66cf14d4a",
        "65f1d0b0d963c78f241ec0e6a18a8ed75647d27b9a240b39575855d66cf14d4a",
        "2f8297d7da965148a541913fc213d9635fa556ac1a0785358905d8d585805668")),
    "bm_x": (BM, lambda s, x: x, ExitSpec(1.0, 1.4, 2.0), 3.0, (
        0.32028627072102267, 0.00803016045626829, 0.4041604074930961,
        0.008992018128122779, 0.469, 0.011161621338114266, 0), (
        "f54afb587d2ce55423496c56e478d37746613cddaa4d56e6bea9461ff8692df2",
        "2f3af96c50c4acbadc81acd95a74fd24211f2ab444d236814b2d7d4951c481ee",
        "37e9baef42d8904e79c06c9d970c01c4251ef31edf84916c5c16cb25282bce92",
        "37e9baef42d8904e79c06c9d970c01c4251ef31edf84916c5c16cb25282bce92",
        "9824e70814faef65d0c50ea15e38382cff0d3dde1db23960498ac901ed087cf5")),
    "jd_s": (JD, lambda s, x: s, SPEC, 1.0, (
        0.6337546558423292, 0.008683149868325364, 0.24099148756053992,
        0.009046272560282684, 0.7355, 0.009865015674956302, 0), (
        "805c13d601c33b056a57c6487d08cb85e92c99b0bbaa396aba9e784801f162e8",
        "e4ee623c75bc9fbe5ea9ce5514e21ac98401c2a35e77092143cd93d66c12f24f",
        "d2059373b6dc174028eedf30472b207dbd114ac1bcbd50419822c1d1ad0dfe39",
        "81cc0c517a1be92302ed57bf25989fe4e333aac30b3af342ff809d25150d7133",
        "8af7dc71a302554fa1449faf3bd6ace8d28eae830d80144ac11a240adb5fae2a")),
    "jd_x": (JD, lambda s, x: x, ExitSpec(1.0, 1.4, 2.0), 3.0, (
        0.5382786142689543, 0.007709069416794236, 0.21680379089539925,
        0.00824359909410696, 0.7355, 0.009865015674956302, 0), (
        "805c13d601c33b056a57c6487d08cb85e92c99b0bbaa396aba9e784801f162e8",
        "0ebfb492e4aa6ba3e68b474f3230acd4429dd157bfe520a1c75514f6f7e9a072",
        "5fcfc2c80aa725e0e7d63cb459fcf33fdd8d1447a30592f20c932a7e844e29b8",
        "afd660aebec88317dc5e471a70395b120fc81d5a1ec57e3f093a25ee148d7acd",
        "c00e65cb8007030e58957e467c79ea9533a85b4444f7ebd33b4106173930fd1a")),
}

# More than one chunk: chunk k draws from substream (seed, k) and the records
# concatenate in chunk order.  A narrow band keeps each run under a second.
NARROW = ExitSpec(0.0, 0.05, 0.1)
# (model, config keywords, n_paths, estimates, digests)
CHUNKED_GOLDEN = {
    "bm": (BM, {}, _CHUNK + 2000, (
        0.5072761368274868, 0.002192379899863554, 0.49269235326898564,
        0.0021923477972746698, 0.5072884615384615, 0.002192433163140446, 0), (
        "0e3da577888f96cba21faea9c069cffb4dcb542622eb0dcca9e36c5e6d16d32c",
        "19b595f66ec3da7ec9e50a11b8141c6148a1d346332fa0b62ed0845343561581",
        "9a870648b3a4aa45e83d5ba0e916abf81040c51c5166fa3f64d59968c19fe41e",
        "9a870648b3a4aa45e83d5ba0e916abf81040c51c5166fa3f64d59968c19fe41e",
        "6da6650b4bbce49bf27bfab662410d7f4b1189f0982a81c636a533f633349b0c")),
    "jd": (JD, {}, _CHUNK + 2000, (
        0.5480061229326422, 0.0021824786035163574, 0.45196327843177936,
        0.002182446346921693, 0.5480192307692308, 0.002182530803893293, 0), (
        "40635691a52b9afdfe481770e80708382e98971552cda265bd01ae776627292b",
        "2df42f985cbf4bb6a27516dc9428be8f7c70c44d28c0af25f06b294b6bed051d",
        "a976f8d09e3aa6d4c4250cda729868e062d4f595d4c6ee3bd45352a7b05b2ebc",
        "49f872097314d3997ca536aaee3172e1ba86f55cbe23eea6d0e07b9185c784a1",
        "d31b8ec83e423b4f0d7cbd6aa3d10c446f33c5d1bfddb21edfa61b54e7e9c877")),
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
    assert res.passes == sum(st.passes for st in chunks)
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

    def test_an_error_meanwhile_cancels_the_chunks_not_started(self, monkeypatch, tmp_path):
        # five chunks: the two workers take chunks 0 and 1 and the executor
        # hands them at most two more, so chunk 4 waits in the parent until
        # a chunk ends, and each chunk takes at least 0.2 s
        monkeypatch.setattr(mc, "_CHUNK", 400)
        chunk = mc._chunk

        def marked(model, spec, cfg, integrands, k):
            (tmp_path / f"chunk{k}").touch()
            time.sleep(0.2)
            return chunk(model, spec, cfg, integrands, k)

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


def _record_chunk(model, cfg, n, integrands, monkeypatch):
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
    st = _simulate_exit_chunk(model, SPEC, cfg, rng, n, integrands)
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


# (model, config keywords, integrands, reach)
REFERENCE_CASES = {
    "bm": (BM, {}, [REFLECTED.eval_pairs], _REACH),
    "bm_nobridge": (BM, {"bridge_correction": False}, [REFLECTED.eval_pairs], _REACH),
    "bm_cap": (BM, {"t_cap": 0.2}, [REFLECTED.eval_pairs], _REACH),
    "bm_dense": (BM, {}, [REFLECTED.eval_pairs], UNBOUNDED),
    "jd_dense": (JD, {}, [REFLECTED.eval_pairs], UNBOUNDED),
    "bm_alias": (BM, {}, [BivariatePotential(lambda s, x: s, bound=1.0).eval_pairs], _REACH),
    "jd": (JD, {}, [REFLECTED.eval_pairs], _REACH),
    "jd_nobridge": (JD, {"bridge_correction": False}, [REFLECTED.eval_pairs], _REACH),
    "jd_cap": (JD, {"t_cap": 0.2}, [REFLECTED.eval_pairs], _REACH),
    "jd_two": (JD, {}, [REFLECTED.eval_pairs,
                        BivariatePotential(lambda s, x: x * x, bound=4.0).eval_pairs], _REACH),
}


@pytest.mark.parametrize("entries", [None, 1000], ids=["default", "bulk"])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_passes_match_the_per_step_reference(case, entries, monkeypatch):
    # the blocked passes give, bit for bit, the records of a plain loop that
    # steps each path once per row with the same draws; with 1000 entries a
    # pass, the 2000 paths start in passes of one step each.  Every path's
    # record is written once, whichever slots it moved through.
    model, kw, integrands, reach = REFERENCE_CASES[case]
    if entries is not None:
        monkeypatch.setattr(mc, "_PASS_ENTRIES", entries)
    monkeypatch.setattr(mc, "_REACH", reach)
    _count_record_writes(monkeypatch)
    cfg = _cfg(**kw)
    st, main, bridge = _record_chunk(model, cfg, 2000, integrands, monkeypatch)
    assert {name for name, _ in main} <= {"standard_normal", "exponential"}
    ref = reference_exit_chunk(model, SPEC, cfg, 2000, integrands, [d for _, d in main],
                               bridge, _rows, reach)
    for name in _ExitState.RECORDS:
        assert np.array_equal(getattr(st, name), ref[name], equal_nan=True), name
    assert (st.passes, st.steps, st.path_steps) == (ref["passes"], ref["steps"], ref["path_steps"])
    assert np.all(st.acc.writes == 1)
    if "cap" in case:
        assert st.censored.any()
    normals = [d.size for name, d in main if name == "standard_normal"]
    assert normals[0] == _rows(2000) * 2000 == (2000 if entries else 16000)


@pytest.mark.parametrize("model", [BM, JD], ids=["bm", "jd"])
@pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "nobridge"])
def test_draw_pattern(model, bridge, monkeypatch):
    # the main stream draws K * m normals a pass, as one flat block: the
    # traced benchmark counts path-steps from that integer size.  The
    # uniforms come from the main stream's jumped substream, one for each
    # step of each path within reach, in one block a pass.
    n = 2000
    shapes = []

    def integrand(s, x):
        shapes.append(x.shape)
        return REFLECTED.eval_pairs(s, x)

    cfg = _cfg(bridge_correction=bridge)
    st, main, blocks = _record_chunk(model, cfg, n, [integrand], monkeypatch)
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
    if model is JD:
        assert main[0][0] == "exponential" and main[0][1].size == n
    if not bridge:
        assert not blocks
        return
    assert len(blocks) == len(passes)
    uniforms = np.random.Generator(_chunk_rng(cfg.seed, 0).bit_generator.jumped())
    for (k, m), (hi, lo, u) in zip(passes, blocks):
        assert np.array_equal(u, uniforms.random(hi.size + lo.size))
        assert np.all(np.diff(hi) > 0) and np.all(np.diff(lo) > 0)
        assert hi.size + lo.size <= 2 * k * m
    assert sum(hi.size + lo.size for hi, lo, _ in blocks) < sum(normals)


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
    "bm": (BM, 954, "c84905378677036f1d484a3042ecb0608cfaa964dd728b98c73684f767e69b9a"),
    "jd": (JD, 742, "1810630da426435316afe01a7c55177ecc2097327be14d1cc75ba5428d5800f9"),
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


@pytest.mark.parametrize("t_cap", [0.0, -1.0, math.nan, math.inf])
def test_config_rejects_a_time_cap_that_is_not_finite_and_positive(t_cap):
    # NaN or inf would quietly turn the cap off; 0 or less censors every path
    with pytest.raises(ValueError, match="t_cap must be finite and > 0"):
        MCConfig(dt=1e-3, n_paths=2000, t_cap=t_cap)
