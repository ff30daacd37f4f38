"""Monte Carlo engine for two-sided exit problems with supremum tracking.

One stepper, ``_simulate_exit_chunk``, runs every path.  Paths follow Euler
steps with exact Gaussian increments; the jump family adds downward
exponential jumps at exact exponential event times, with diffusion substeps
between events and barrier checks at every substep.  With the bridge
correction enabled, each diffusion substep samples the conditional extrema of
the Brownian bridge between its endpoints::

    M = (X0 + X1 + sqrt((X1-X0)^2 - 2 sigma^2 dt ln U)) / 2   (maximum)
    m = (X0 + X1 - sqrt((X1-X0)^2 - 2 sigma^2 dt ln U')) / 2  (minimum)

which detects intra-step barrier crossings with the exact conditional
probability and keeps the running supremum free of the O(sqrt(dt)) discrete
maximum bias.  The bridge exceeds a level ``L`` above both endpoints with
probability ``exp(-2 (L-X0)(L-X1) / (sigma^2 dt))``, and falls below a level
under both with the same law.  So the maximum is drawn only for paths with
``(S-X0)(S-X1) <= R sigma^2 dt`` and the minimum only for paths with
``(X0-b)(X1-b) <= R sigma^2 dt``, ``R = _REACH``; every other path keeps its
supremum and cannot exit.  The crossings skipped that way have probability
below ``exp(-2R)``, which a double in ``[0, 1)`` cannot resolve.

The stepper accumulates each integrand ``(s, x) -> rate`` in its list per
path by the trapezoid rule in time, consistent with the first-order path
discretization; a bridge kill strictly inside the band gets a half step.
:func:`run_exit_mc` passes the potential alone; :func:`occupation_mc` passes
its point and smoothed integrands.

The stepper keeps only the live paths, in dense arrays in path order: the
position, supremum, time, time to the next jump (jump family only),
integrand values and one accumulator array per integrand, plus a map to each
path's output column.  Every step keeps the survivors with one boolean mask,
and exits and censoring write their records through the map, so a step costs
in proportion to the paths still alive.  A step's temporaries live in
scratch arrays allocated once per chunk; only the new position and supremum,
which the integrands see and may hand back, are fresh arrays each step.

``_collect_states`` splits the paths into chunks of ``_CHUNK`` (50000), the
last one shorter, and owns the censoring gate for both entry points: paths
that reach the time cap are censored, and a censored fraction above 0.1%
raises.  The chunks run in forked worker processes, one per core this
process may run on and at most one per chunk; the run stays in process,
with one worker, where the platform has no ``fork`` or no CPU affinity
mask, or where another Python thread is alive, since a fork copies only the
calling thread.  Each chunk returns its records and its step counts, and
the parent merges them in chunk order.

Chunk ``k`` draws from a counter-derived Philox substream keyed by
``(seed, k)``, each step draws one ``standard_normal`` batch of the live
count before one block of bridge uniforms, one for each live path within
reach of its supremum and then one for each within reach of ``b``, each set
in path order.  A chunk depends on nothing but its index and the reduction
runs in fixed chunk order, so estimates are bit-identical for a given
configuration whatever the worker count.

The engine never calls the deterministic solver: it imports only ``ExitSpec``
from :mod:`generalized`.  :func:`conditional_mc` returns Monte Carlo bins,
and the caller pairs each bin with its own deterministic curve.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._csvout import write_csv
from .generalized import ExitSpec
from .models import Family, LevyModel
from .potentials import BivariatePotential, UnivariatePotential

__all__ = [
    "MCConfig",
    "Estimate",
    "ExitSamples",
    "ExitMCResult",
    "ConditionalBin",
    "ConditionalMCResult",
    "OccupationMCResult",
    "run_exit_mc",
    "conditional_mc",
    "occupation_mc",
]

_CHUNK = 50000  # fixed partition; part of the reproducibility contract
_MAX_CENSORED_FRACTION = 1e-3
# a path farther than this from S and b crosses neither within a step with
# probability above exp(-2 * _REACH) ~ 4.2e-18, below the 2**-53 resolution
# of the uniforms that would sample the crossing
_REACH = 20.0


@dataclass
class MCConfig:
    """Path-engine configuration.

    ``t_cap`` defaults to ``1e4 (a-b)^2 / sigma^2``; paths that exhaust it
    are counted as censored, and a censored fraction above 0.1% fails the
    run.
    """

    dt: float
    n_paths: int
    seed: int = 0
    bridge_correction: bool = True
    t_cap: Optional[float] = None

    def __post_init__(self):
        # NaN must fail too: it keeps the clock at NaN, so no path would
        # ever reach the time cap
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        if self.n_paths < 100:
            raise ValueError("n_paths must be >= 100")

    def resolved_t_cap(self, model: LevyModel, spec: ExitSpec) -> float:
        if self.t_cap is not None:
            return self.t_cap
        return 1e4 * (spec.a - spec.b) ** 2 / model.sigma**2

    def warn_if_coarse(self, spec: ExitSpec) -> None:
        if self.dt > (spec.a - spec.b) ** 2 / 100.0:
            warnings.warn(
                f"dt={self.dt} is coarse for interval width {spec.a - spec.b}; "
                "recommended dt <= (a-b)^2/100",
                stacklevel=3,
            )


@dataclass
class Estimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    n: int
    elapsed: float = 0.0


@dataclass
class ExitSamples:
    """Raw per-path exit records (censored paths excluded)."""

    exited_up: np.ndarray
    s_at_exit: np.ndarray
    x_pre: np.ndarray
    x_post: np.ndarray
    functional: np.ndarray

    def to_csv(self, target) -> None:
        """Dump one row per path: its index, ``exited_up`` as 0/1, then the
        four float columns at 17 significant digits.

        ``target`` is a path or an open text stream.  Rows are formatted in
        blocks of a few thousand by one ``%`` each (``_csvout.write_csv``),
        so the memory a write takes stays bounded however many paths were
        kept.
        """
        write_csv(
            target,
            ["path", "exited_up", "s_at_exit", "x_pre", "x_post", "functional"],
            ["%d", "%d"] + ["%.17g"] * 4,
            [range(self.exited_up.size), self.exited_up, self.s_at_exit,
             self.x_pre, self.x_post, self.functional],
        )


@dataclass
class ExitMCResult:
    """Exit estimates, with how the simulation went: its chunk count, its
    steps summed over the chunks and its live paths summed over those steps."""

    up_laplace: Estimate
    down_value: Estimate
    p_up: Estimate
    n_censored: int
    chunks: int
    steps: int
    path_steps: int
    samples: Optional[ExitSamples] = None


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Core path loop
# ---------------------------------------------------------------------------


class _ExitState:
    """Terminal records of simulated paths, one column per path, and the
    work that produced them.

    ``acc`` holds one row per integrand; ``chunks`` counts the chunks,
    ``steps`` the steps and ``path_steps`` the live paths summed over them.
    """

    RECORDS = ("up", "s_exit", "x_pre", "x_post", "acc", "censored")
    COUNTS = ("chunks", "steps", "path_steps")
    __slots__ = RECORDS + COUNTS

    def __init__(self, n: int, n_integrands: int):
        self.up = np.zeros(n, dtype=bool)
        self.s_exit = np.full(n, np.nan)
        self.x_pre = np.full(n, np.nan)
        self.x_post = np.full(n, np.nan)
        self.acc = np.zeros((n_integrands, n))
        self.censored = np.zeros(n, dtype=bool)
        self.chunks = 1
        self.steps = 0
        self.path_steps = 0


def _bridge_extrema(rng, x, x_new, s, b, var, work, mask):
    """Bridge extrema of the paths within reach of their supremum or of ``b``.

    ``hi`` indexes the paths with ``(s - x)(s - x_new) <= _REACH var``, which
    include every ``x_new > s``, and ``lo`` those with ``(x - b)(x_new - b)
    <= _REACH var``, which include every ``x_new <= b``; both ascend.  One
    ``random`` block draws a uniform for each, ``hi`` first, and ``ext`` holds
    the bridge maximum of each ``hi`` path followed by the minimum of each
    ``lo`` path.  ``var`` is ``sigma^2 dt``, one float or one per path;
    ``work`` (floats) is scratch of four times the live count and ``mask``
    (bools) of twice.
    """
    m = x.size
    prod, tmp = work[:m], work[m:2 * m]
    reach = _REACH * var
    np.subtract(s, x, out=prod)
    prod *= np.subtract(s, x_new, out=tmp)
    np.less_equal(prod, reach, out=mask[:m])
    np.subtract(x, b, out=prod)
    prod *= np.subtract(x_new, b, out=tmp)
    np.less_equal(prod, reach, out=mask[m:])
    # flags of both reaches in one row, so ``near`` is hi followed by lo + m
    # and wrap mode maps each flag back to its path
    near = mask.nonzero()[0]
    k = np.count_nonzero(mask[:m])

    # the first step finds every path within reach of S, so the endpoint
    # sum and gap live in the scratch and the uniforms overwrite a copy of x
    ends = x.take(near, mode="wrap", out=work[2 * m:2 * m + near.size])
    gap = x_new.take(near, mode="wrap", out=work[:near.size])
    ext = ends.copy()
    ends += gap
    gap -= ext
    gap *= gap
    rng.random(near.size, out=ext)
    np.log(ext, out=ext)
    ext *= 2.0 * (var.take(near, mode="wrap") if isinstance(var, np.ndarray) else var)
    np.subtract(gap, ext, out=ext)
    np.sqrt(ext, out=ext)
    ext[k:] *= -1.0
    ext += ends
    ext *= 0.5
    return near[:k], near[k:] - m, ext


def _simulate_exit_chunk(
    model: LevyModel,
    spec: ExitSpec,
    cfg: MCConfig,
    rng: np.random.Generator,
    n: int,
    integrands: list,
) -> _ExitState:
    """Run ``n`` paths to exit or censoring.

    Each integrand ``(s, x) -> rate`` is accumulated per path into its row of
    ``acc``.  The live paths' state sits in dense arrays, in path order, with
    ``pid`` mapping each to its output column.  Without jumps every path
    takes the full step, so ``dt_eff`` and the elapsed time ``t`` are one
    float each.

    With the bridge, ``_bridge_extrema`` draws the step's maximum only for
    the paths within reach of their supremum and its minimum only for those
    within reach of ``b``: one uniform each, in one block, after the step's
    Gaussian draws.  A path within reach of neither keeps its supremum and
    stays alive.  A path whose maximum reaches ``a`` leaves up, even when its
    minimum reaches ``b`` too.

    Every step allocates its new position and supremum: the integrands see
    them, and an integrand's result may be one of its own inputs (``lambda
    s, x: s``).  So no step writes into ``x``, ``s`` or an integrand's result
    after an integrand has seen it, except a jump, which replaces the jumped
    paths' position and their integrand values together.
    The step's other full-width temporaries -- the Gaussian draws, the reach
    products, the bridge endpoints, the exit masks and the trapezoid
    increment -- go into per-chunk scratch arrays, sliced to the live count
    ``m``.  The records carry the step count and the path-step count.  Exits
    are found once per step as an index list; the up/down split, the bridge
    half step and the exit records work on that list only.  A live path's
    supremum stays below ``a``, so a path leaves up exactly when its new
    supremum is ``a``.
    """
    b, x0, a = spec.b, spec.x, spec.a
    mu, sigma, dt = model.mu, model.sigma, cfg.dt
    rate = model.jump_rate if model.family is Family.EXP_JUMP_DIFFUSION else 0.0
    jumpy = rate > 0.0
    t_cap = cfg.resolved_t_cap(model, spec)
    bridge = cfg.bridge_correction

    out = _ExitState(n, len(integrands))
    pid = np.arange(n)
    x = np.full(n, x0)
    s = np.full(n, x0)
    t = np.zeros(n) if jumpy else 0.0
    acc = [np.zeros(n) for _ in integrands]
    jump_in = rng.exponential(1.0 / rate, n) if jumpy else None
    f_prev = [fn(s, x) for fn in integrands]
    # the Gaussian draws and the trapezoid sums share the upper half of the
    # bridge scratch: neither is live while ``_bridge_extrema`` runs
    work_buf = np.empty(4 * n)
    xi_buf, sum_buf = work_buf[2 * n:3 * n], work_buf[3 * n:]
    gone_buf, mask_buf = np.empty(n, dtype=bool), np.empty(2 * n, dtype=bool)

    while pid.size:
        m = pid.size
        out.steps += 1
        out.path_steps += m
        if jumpy:
            dt_eff = np.minimum(dt, jump_in)
            at_jump = jump_in <= dt
        else:
            dt_eff = dt

        xi = rng.standard_normal(m, out=xi_buf[:m])
        np.multiply(xi, sigma * np.sqrt(dt_eff), out=xi)
        x_new = x + mu * dt_eff
        x_new += xi

        if bridge:
            hi, lo, ext = _bridge_extrema(rng, x, x_new, s, b, sigma * sigma * dt_eff,
                                          work_buf[:4 * m], mask_buf[:2 * m])
            k = hi.size
            s_hi = s.take(hi, out=work_buf[:k])
            np.maximum(s_hi, ext[:k], out=s_hi)
            np.minimum(s_hi, a, out=s_hi)
            s_new = s.copy()
            s_new[hi] = s_hi
            gone = np.greater_equal(s_new, a, out=gone_buf[:m])
            gone[lo[ext[k:] <= b]] = True
        else:
            gone = np.greater_equal(x_new, a, out=gone_buf[:m])
            gone |= np.less(x_new, b, out=mask_buf[:m])
            s_new = np.minimum(x_new, a)
            np.maximum(s, s_new, out=s_new)
        hit = np.flatnonzero(gone)
        x_hit = x_new[hit]
        s_hit = s_new[hit]
        up = s_hit >= a

        # trapezoid accumulation; bridge kills strictly inside the band get a
        # half step since the crossing time is interior to the step
        f_new = [fn(s_new, x_new) for fn in integrands]
        interior = hit[(x_hit < a) & (x_hit >= b)] if bridge else hit[:0]
        for row, fp, fq in zip(acc, f_prev, f_new):
            d_acc = np.add(fp, fq, out=sum_buf[:m])
            d_acc *= 0.5 * dt_eff
            d_acc[interior] *= 0.5
            row += d_acc
        t += dt_eff

        if hit.size:
            ids = pid[hit]
            out.up[ids] = up
            out.s_exit[ids] = s_hit
            end = np.where(up, a, b) if bridge else x_hit
            out.x_pre[ids] = end
            out.x_post[ids] = end
        x, s, f_prev = x_new, s_new, f_new
        done = hit

        # jump events fire exactly at the end of their substep
        if jumpy:
            jump_in -= dt_eff
            jumps = np.flatnonzero(at_jump & ~gone)
            if jumps.size:
                sizes = rng.exponential(model.jump_mean, jumps.size)
                jump_in[jumps] = rng.exponential(1.0 / rate, jumps.size)
                x_jumped = x[jumps] - sizes
                below = x_jumped < b
                dn = jumps[below]
                if dn.size:
                    dn_ids = pid[dn]
                    out.s_exit[dn_ids] = s[dn]
                    out.x_pre[dn_ids] = x[dn]
                    out.x_post[dn_ids] = x_jumped[below]
                    gone[dn] = True
                    done = np.flatnonzero(gone)
                keep = jumps[~below]
                x[keep] = x_jumped[~below]
                for fp, fn in zip(f_prev, integrands):
                    fp[keep] = fn(s[keep], x[keep])

        if jumpy or t >= t_cap:
            tired = ~gone & (t >= t_cap)
            if np.any(tired):
                out.censored[pid[tired]] = True
                gone |= tired
                done = np.flatnonzero(gone)

        if done.size:
            done_ids = pid[done]
            for row, out_row in zip(acc, out.acc):
                out_row[done_ids] = row[done]
            live = np.logical_not(gone, out=mask_buf[:m])
            pid, x, s = pid[live], x[live], s[live]
            acc = [row[live] for row in acc]
            f_prev = [fp[live] for fp in f_prev]
            if jumpy:
                t, jump_in = t[live], jump_in[live]
    return out


def _chunk(model, spec, cfg, integrands, k):
    """Simulate chunk ``k`` and return its records."""
    n = min(_CHUNK, cfg.n_paths - k * _CHUNK)
    return _simulate_exit_chunk(model, spec, cfg, _chunk_rng(cfg.seed, k), n, integrands)


_job = None  # the chunk runner of a worker process, set as the worker starts


def _start_worker(job):
    global _job
    _job = job


def _run_chunk(k):
    return _job(k)


def _worker_count(n_chunks: int) -> int:
    """Processes to run ``n_chunks`` chunks on: one per core this process may
    run on, at most one per chunk.

    One, in process, where the platform cannot ``fork`` or has no CPU
    affinity mask, or where another Python thread is alive: a fork copies
    only the calling thread, so a lock that another thread holds would stay
    locked in the child.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), n_chunks)


def _collect_states(model, spec, cfg, integrands):
    """Simulate the chunks and return their records merged in chunk order.

    The ``n_paths`` paths form chunks of ``_CHUNK``, the last one shorter,
    and chunk ``k`` draws from the substream ``(seed, k)`` alone.  The chunks
    run on ``_worker_count`` forked processes, or in process when that is
    one; either way each chunk sees the same draws, so the merged records
    are bit-identical for any worker count.  The chunk and step counts are
    summed in chunk order.  A worker that raises raises the same error here,
    and one that dies raises ``BrokenProcessPool``, a ``RuntimeError``; no
    worker outlives the call.

    Raises:
        RuntimeError: when more than 0.1% of the paths hit the time cap.
    """
    job = functools.partial(_chunk, model, spec, cfg, integrands)
    n_chunks = -(-cfg.n_paths // _CHUNK)
    workers = _worker_count(n_chunks)
    if workers == 1:
        states = list(map(job, range(n_chunks)))
    else:
        # imported here, so that a run in process pays nothing for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a forked worker inherits ``job`` as it is, closures included; only
        # the chunk indices and the chunks' results are pickled.  Unlike
        # ``multiprocessing.Pool``, the executor fails a call whose worker
        # died instead of waiting on it forever.
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 _start_worker, (job,)) as pool:
            states = list(pool.map(_run_chunk, range(n_chunks)))
    merged = _ExitState(0, len(integrands))
    for name in _ExitState.RECORDS:
        setattr(merged, name, np.concatenate([getattr(st, name) for st in states], axis=-1))
    for name in _ExitState.COUNTS:
        setattr(merged, name, sum(getattr(st, name) for st in states))
    n_total = merged.up.size
    n_censored = int(merged.censored.sum())
    if n_censored > _MAX_CENSORED_FRACTION * n_total:
        raise RuntimeError(
            f"{n_censored} of {n_total} paths were censored at the time cap "
            f"(fraction {n_censored / n_total:.2e} > {_MAX_CENSORED_FRACTION})"
        )
    return merged


def _estimate(values: np.ndarray, elapsed: float) -> Estimate:
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return Estimate(mean=mean, std_error=se, n=n, elapsed=elapsed)


def run_exit_mc(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    cfg: MCConfig,
    g: Optional[Callable] = None,
    keep_samples: bool = False,
) -> ExitMCResult:
    """Estimate the two-sided exit functionals by simulation.

    Returns estimates of (i) ``E[e^{-int F}; up]``, (ii)
    ``E[g(S_T) e^{-int F}; down]`` and (iii) ``P(up)``, plus the raw exit
    records on request.

    Raises:
        RuntimeError: when more than 0.1% of the paths hit the time cap.
    """
    cfg.warn_if_coarse(spec)
    start = time.perf_counter()
    st = _collect_states(model, spec, cfg, [F.eval_pairs])
    counted = ~st.censored
    acc = st.acc[0]
    up_c = st.up[counted]
    lap = np.exp(-acc[counted])
    y_up = np.where(up_c, lap, 0.0)
    y_down = np.where(
        ~up_c, lap if g is None else np.asarray(g(st.s_exit[counted]), float) * lap, 0.0
    )
    elapsed = time.perf_counter() - start

    result = ExitMCResult(
        up_laplace=_estimate(y_up, elapsed),
        down_value=_estimate(y_down, elapsed),
        p_up=_estimate(up_c.astype(float), elapsed),
        n_censored=int(st.censored.sum()),
        chunks=st.chunks,
        steps=st.steps,
        path_steps=st.path_steps,
    )
    if keep_samples:
        result.samples = ExitSamples(
            exited_up=up_c,
            s_at_exit=st.s_exit[counted],
            x_pre=st.x_pre[counted],
            x_post=st.x_post[counted],
            functional=acc[counted],
        )
    return result


# ---------------------------------------------------------------------------
# Conditional-on-supremum estimates
# ---------------------------------------------------------------------------


@dataclass
class ConditionalBin:
    lo: float
    hi: float
    midpoint: float
    n: int
    mc_mean: float
    mc_se: float
    empty: bool


@dataclass
class ConditionalMCResult:
    bins: list
    up_bin: ConditionalBin
    n_down: int
    n_up: int


def _bin(lo: float, hi: float, vals: np.ndarray) -> ConditionalBin:
    n = vals.size
    return ConditionalBin(
        lo=float(lo),
        hi=float(hi),
        midpoint=float(0.5 * (lo + hi)),
        n=int(n),
        mc_mean=float(vals.mean()) if n else float("nan"),
        mc_se=float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan"),
        empty=n == 0,
    )


def conditional_mc(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    cfg: MCConfig,
    n_bins: int,
) -> ConditionalMCResult:
    """Bin the down-exit Laplace samples by the supremum at the exit.

    Down-exit samples are binned by ``S_T`` over ``[x, a)``; the up-exit
    samples form the ``S_T = a`` atom bin.  Empty bins are flagged rather
    than dropped.  The bins carry Monte Carlo values only: pairing them with
    the deterministic curve is left to the caller.
    """
    if n_bins < 4:
        raise ValueError("conditional_mc needs n_bins >= 4")
    res = run_exit_mc(model, F, spec, cfg, keep_samples=True)
    smp = res.samples
    edges = np.linspace(spec.x, spec.a, n_bins + 1)

    lap = np.exp(-smp.functional)
    down = ~smp.exited_up
    which = np.clip(
        np.searchsorted(edges, smp.s_at_exit[down], side="right") - 1, 0, n_bins - 1
    )
    vals_down = lap[down]
    bins = [_bin(edges[k], edges[k + 1], vals_down[which == k]) for k in range(n_bins)]
    up_bin = _bin(spec.a, spec.a, lap[smp.exited_up])
    return ConditionalMCResult(
        bins=bins, up_bin=up_bin, n_down=int(down.sum()), n_up=int(smp.exited_up.sum())
    )


# ---------------------------------------------------------------------------
# Occupation-density estimates
# ---------------------------------------------------------------------------


@dataclass
class OccupationMCResult:
    time_integral_laplace: Estimate
    occupation_laplace: Estimate
    mean_abs_discrepancy: float


def occupation_mc(
    model: LevyModel,
    f_x: UnivariatePotential,
    spec: ExitSpec,
    cfg: MCConfig,
) -> OccupationMCResult:
    """Cross-check the occupation formula by simulation.

    Per path computes (A) the trapezoidal time integral of ``f(X_t)`` and
    (B) the integral of ``f`` against the box-kernel occupation density with
    bandwidth ``2 sqrt(dt)``.  (B) integrates ``f`` exactly against each box
    through a fine cumulative table, so the A-B discrepancy carries only the
    smoothing error and shrinks like the bandwidth.  Censored paths are left
    out of (A) and (B).

    Raises:
        ValueError: if the bandwidth is unresolvable by the fine table.
        RuntimeError: when more than 0.1% of the paths hit the time cap.
    """
    b, a = spec.b, spec.a
    w = 2.0 * np.sqrt(cfg.dt)
    fine_n = 4096
    fine = np.linspace(b - 2.0 * w, a + 2.0 * w, fine_n)
    if w <= (fine[1] - fine[0]):
        raise ValueError(
            f"bandwidth {w} is below the table resolution {(fine[1] - fine[0]):.3e}; "
            "increase dt or narrow the interval"
        )
    inside = (fine >= b) & (fine <= a)
    fvals = np.zeros(fine_n)
    fvals[inside] = f_x.eval_array(fine[inside])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fvals[1:] + fvals[:-1]) * np.diff(fine))])

    def point_rate(s, xs):
        return np.interp(xs, fine, fvals)

    def smoothed_rate(s, xs):
        return (np.interp(xs + w, fine, cum) - np.interp(xs - w, fine, cum)) / (2.0 * w)

    start = time.perf_counter()
    st = _collect_states(model, spec, cfg, [point_rate, smoothed_rate])
    counted = ~st.censored
    acc_a = st.acc[0, counted]
    acc_b = st.acc[1, counted]
    elapsed = time.perf_counter() - start
    return OccupationMCResult(
        time_integral_laplace=_estimate(np.exp(-acc_a), elapsed),
        occupation_laplace=_estimate(np.exp(-acc_b), elapsed),
        mean_abs_discrepancy=float(np.mean(np.abs(acc_a - acc_b))),
    )
