"""Monte Carlo engine for two-sided exit problems, tracking the supremum
where something reads it.

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
under both with the same law.  So the maximum is drawn only for steps with
``(L-X0)(L-X1) < R sigma^2 dt`` and the minimum only for steps with
``(X0-b)(X1-b) < R sigma^2 dt``, ``R = _REACH``; every other step keeps the
supremum and cannot exit.  ``L`` is the discrete running maximum of the
pass's start supremum and positions, which is below the true supremum: the
crossing probability falls as the level rises, so every step that can pass
the supremum is drawn.  The crossings skipped have probability below
``exp(-2R)``, which a double in ``[0, 1)`` cannot resolve.

A run tracks the supremum ``S`` only when something reads it: a potential
that declares ``reads_sup``, a weight of ``S`` at the down-exit, or the kept
samples.  When the functional does not depend on ``S``, the generalized
scale functions reduce to the classical ones of Li & Palmowski (2018), and
the path engine likewise drops ``S``: the level ``L`` is the barrier ``a``,
so the maximum is drawn only for the steps within reach of ``a``, a path
leaves up when it reaches ``a``, the integrands get the positions as ``s``,
and the supremum at exit is NaN.

The stepper accumulates each integrand ``(s, x) -> rate`` in its list per
path by the trapezoid rule in time, consistent with the first-order path
discretization; a bridge kill strictly inside the band gets a half step.
:func:`run_exit_mc` passes the potential alone; :func:`occupation_mc` passes
its point and smoothed integrands.

One loop runs passes.  A pass of ``m`` live paths advances each of them
``K = min(_MAX_ROWS, max(1, _PASS_ENTRIES // m))`` steps at once, in ``(K,
m)`` blocks, so ``K`` is 1 in the bulk and reaches ``_MAX_ROWS`` in the thin
tail; a path's block ends at its first exit, jump or time cap.  The live
paths sit in slots ``0 .. m-1`` of the state arrays, with a map to each
path's output column.  When ``d`` paths finish, the live paths of the last
``d`` slots move into their holes, so a pass costs in proportion to the live
paths times ``K`` plus the finished ones, and slots are not in path order.

``_collect_states`` splits the paths into chunks of ``_CHUNK`` (50000), the
last one shorter, and owns the censoring gate for both entry points: paths
that reach the time cap are censored, and a censored fraction above 0.1%
raises.  The chunks run in forked worker processes, one per core this
process may run on and at most one per chunk; the run stays in process,
with one worker, where the platform has no ``fork`` or no CPU affinity
mask, or where another Python thread is alive, since a fork copies only the
calling thread.  The caller's ``meanwhile`` work runs in the parent while
the workers step.  Each chunk returns its records and its counts, and the
parent merges them in chunk order.

Chunk ``k`` draws from an SFC64 stream seeded from ``SeedSequence((seed mod
2^64, k))``.  Each pass draws one flat ``standard_normal(K * m)``, row ``j``
of the block for step ``j``, then, for the paths that jump in it, their jump
sizes and next waits.  The bridge uniforms come from a second SFC64 stream,
seeded from the first child that ``spawn`` gives of that seed sequence: one
``random`` block a pass, with a uniform for each ``(row, slot)`` entry
within reach of its level and then one for each within reach of ``b``, each
set in row-major order.  Entries after a path's event draw too, as the block is
drawn before its events are known; their values are never read.  A chunk
depends on nothing but its index and the reduction runs in fixed chunk
order, so estimates are bit-identical for a given configuration whatever
the worker count.

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
# a pass of m live paths advances K = min(_MAX_ROWS, max(1, _PASS_ENTRIES // m))
# steps, so K is 1 in the bulk; part of the reproducibility contract
_PASS_ENTRIES = 16384
_MAX_ROWS = 256


@dataclass
class MCConfig:
    """Path-engine configuration.

    ``t_cap`` defaults to ``1e4 (a-b)^2 / sigma^2``; paths that exhaust it
    are counted as censored, and a censored fraction above 0.1% fails the
    run.  A given ``t_cap`` must be finite and positive.
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
        # NaN and inf would turn the cap off, and a cap at 0 or below would
        # censor every path
        if self.t_cap is not None and not 0.0 < self.t_cap < np.inf:
            raise ValueError(f"t_cap must be finite and > 0, got {self.t_cap!r}")
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
    """Exit estimates, with how the simulation went, summed over the chunks:
    the chunk count, the stepper's passes, the steps the chunks advanced, the
    live path-steps and the bridge uniforms drawn; ``sup_tracked`` says
    whether the run tracked the supremum.

    The estimates' ``elapsed`` is the wall time of the whole
    :func:`run_exit_mc` call, its ``meanwhile`` work included, so it is not
    the simulation's time alone when the caller passed such work.
    """

    up_laplace: Estimate
    down_value: Estimate
    p_up: Estimate
    n_censored: int
    chunks: int
    passes: int
    steps: int
    path_steps: int
    uniforms: int
    sup_tracked: bool
    samples: Optional[ExitSamples] = None


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The main stream of chunk ``chunk_index``: SFC64 seeded from
    ``SeedSequence((seed mod 2^64, chunk_index))``."""
    seq = np.random.SeedSequence((seed % (1 << 64), chunk_index))
    return np.random.Generator(np.random.SFC64(seq))


def _uniform_rng(rng: np.random.Generator) -> np.random.Generator:
    """The bridge uniforms' stream beside the main stream ``rng``: SFC64
    seeded from the first child that ``spawn`` gives of ``rng``'s seed
    sequence, built here without spawning, so that it does not depend on
    what was spawned before."""
    seq = rng.bit_generator.seed_seq
    child = np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (0,),
                                   pool_size=seq.pool_size)
    return np.random.Generator(np.random.SFC64(child))


# ---------------------------------------------------------------------------
# Core path loop
# ---------------------------------------------------------------------------


class _ExitState:
    """Terminal records of simulated paths, one column per path, and the
    work that produced them.

    ``acc`` holds one row per integrand; ``chunks`` counts the chunks,
    ``steps`` the steps, ``path_steps`` the live paths summed over them and
    ``uniforms`` the bridge uniforms drawn.
    """

    RECORDS = ("up", "s_exit", "x_pre", "x_post", "acc", "censored")
    COUNTS = ("chunks", "passes", "steps", "path_steps", "uniforms")
    __slots__ = RECORDS + COUNTS

    def __init__(self, n: int, n_integrands: int):
        self.up = np.zeros(n, dtype=bool)
        self.s_exit = np.full(n, np.nan)
        self.x_pre = np.full(n, np.nan)
        self.x_post = np.full(n, np.nan)
        self.acc = np.zeros((n_integrands, n))
        self.censored = np.zeros(n, dtype=bool)
        self.chunks = 1
        self.passes = 0
        self.steps = 0
        self.path_steps = 0
        self.uniforms = 0


def _bridge_extrema(rng, x, x_new, s, b, var, work, mask):
    """Bridge extrema of the steps within reach of their level or of ``b``.

    The steps run from ``x`` to ``x_new``, entry by entry.  ``s`` is the
    level of the maxima: one per entry (the running supremum), or one float
    (the barrier ``a``, when the supremum is not tracked).  ``hi`` indexes
    the entries with ``(s - x)(s - x_new) < _REACH var`` and ``lo`` those
    with ``(x - b)(x_new - b) < _REACH var``; both ascend.  For a step of
    positive length they include every ``x_new > s`` and every ``x_new <=
    b``; a step of length 0 has no bridge and draws nothing.  One ``random``
    block draws a uniform for each, ``hi`` first, and ``ext`` holds the
    bridge maximum of each ``hi`` entry followed by the minimum of each
    ``lo`` entry.  ``var`` is ``sigma^2 dt``, one float or one per entry;
    ``work`` (floats) is scratch of four times the entry count and ``mask``
    (bools) of twice.
    """
    m = x.size
    prod = work[:m]
    reach = _REACH * var
    per_entry = isinstance(reach, np.ndarray)
    # a step is within reach of a fixed level only if its nearer end is
    # within sqrt(reach) of it, and few are, so the product is taken on
    # those alone; that distance is one of the product's factors, so the
    # margin keeps every step the product admits among them despite rounding
    span = np.sqrt(reach.max() if per_entry else reach) * (1.0 + 1e-9)

    def within(level, gap, flags):
        idx = np.less_equal(gap, span, out=flags).nonzero()[0]
        return idx[(x[idx] - level) * (x_new[idx] - level)
                   < (reach[idx] if per_entry else reach)]

    if np.ndim(s):
        np.subtract(s, x, out=prod)
        prod *= np.subtract(s, x_new, out=work[m:2 * m])
        hi = np.less(prod, reach, out=mask[:m]).nonzero()[0]
    else:
        hi = within(s, np.subtract(s, np.maximum(x, x_new, out=prod), out=prod), mask[:m])
    lo = within(b, np.subtract(np.minimum(x, x_new, out=prod), b, out=prod), mask[m:])
    near = np.concatenate((hi, lo))

    # the first step finds every entry within reach of S, so the endpoint
    # sum and gap live in the scratch and the uniforms overwrite a copy of x
    ends = x.take(near, out=work[2 * m:2 * m + near.size])
    gap = x_new.take(near, out=work[:near.size])
    ext = ends.copy()
    ends += gap
    gap -= ext
    gap *= gap
    rng.random(near.size, out=ext)
    np.log(ext, out=ext)
    ext *= 2.0 * (var.take(near) if per_entry else var)
    np.subtract(gap, ext, out=ext)
    np.sqrt(ext, out=ext)
    ext[hi.size:] *= -1.0
    ext += ends
    ext *= 0.5
    return hi, lo, ext


def _accumulate(op, block):
    """Run ``op`` down the rows of ``block`` in place: row ``j`` becomes
    ``op(row j-1, row j)``, in row order.

    A loop over rows: ``op.accumulate`` down the rows runs one inner loop
    per column, which costs several times as much when the rows are long.
    """
    rows = np.moveaxis(block, -2, 0)
    for j in range(1, rows.shape[0]):
        op(rows[j - 1], rows[j], out=rows[j])


def _first_exits(up, down, m):
    """First exit of each column among the flat ``(row, column)`` entries
    ``up`` and ``down`` of an ``m``-column block.

    Returns the columns, ascending, their first exit rows, and whether each
    leaves up; at one entry in both lists the path leaves up.
    """
    flat = np.concatenate((up, down))
    cols = flat % m
    # by column, then by entry; the sort is stable, so up comes first
    order = np.lexsort((flat, cols))
    cols = cols[order]
    first = np.ones(cols.size, dtype=bool)
    np.not_equal(cols[1:], cols[:-1], out=first[1:])
    pick = order[first]
    return cols[first], flat[pick] // m, pick < up.size


def _simulate_exit_chunk(
    model: LevyModel,
    spec: ExitSpec,
    cfg: MCConfig,
    rng: np.random.Generator,
    n: int,
    integrands: list,
    track: bool = True,
) -> _ExitState:
    """Run ``n`` paths to exit or censoring.

    Each integrand ``(s, x) -> rate`` is accumulated per path into its row of
    ``acc``.  ``track`` says whether the supremum is tracked; without it the
    integrands get the positions as ``s``, the bridge maxima are drawn only
    for the steps within reach of ``a``, and ``s_exit`` stays NaN.  The
    ``m`` live paths sit in slots ``0 .. m-1`` of the state arrays, with
    ``pid`` mapping each slot to its output column.  One loop runs passes:
    a pass advances every live path ``K`` steps, with ``K = min(_MAX_ROWS,
    max(1, _PASS_ENTRIES // m))``, so ``K`` is 1 in the bulk and rises as
    the paths thin out.  A pass holds ``(K, m)`` blocks, row
    ``j`` for the state after step ``j``:

    - positions, by ``cumsum`` of the Gaussian increments with the start
      folded into row 0, from one flat ``standard_normal(K * m)``;
    - with jumps, each path's time to the next jump and clock advance ``K``
      full steps; only the candidates, the paths whose time left reaches 0
      (the jump falls in the pass) or whose clock reaches ``t_cap``, get
      rows: the time left by ``cumsum`` of ``-dt``, each step's length
      ``min(dt, time left)``, 0 after the jump, and the clock.  Every other
      step is ``dt`` long, and a path's block ends at its next jump;
    - with the bridge, ``_bridge_extrema`` tests each step's reach against
      the running maximum of the pass's start supremum ``S`` and the
      positions before the step, which is below the true supremum, so every
      step whose maximum may pass the supremum is drawn: the crossing
      probability falls as the level rises.  The drawn maxima, capped at
      ``a``, then give the supremum by a running maximum.  Untracked, the
      level is ``a`` itself;
    - the integrands, and the trapezoid sums by ``cumsum`` with ``acc``
      folded into row 0.

    A path's first event row -- exit, jump or time cap -- ends its block:
    exits take precedence over a jump in the same row, and a jump over the
    cap.  The integrands see each path's ``(s, x)`` frozen after its event
    row, and its records are read at that row.  A path within reach of
    neither barrier keeps its supremum; a path whose maximum reaches ``a``
    leaves up, even when its minimum reaches ``b`` too, and a bridge kill
    strictly inside the band gets a half step.

    The live state after a pass is row ``K - 1`` of the blocks, read as
    views; only finished paths are gathered.  When ``d`` paths finish, the
    live paths in the last ``d`` slots move into the holes, so each state
    array is a prefix view of length ``m - d`` and slots are not in path
    order.  An integrand's result may be one of its inputs (``lambda s, x:
    s``), so a pass reads every result into its sums and into the chunk's
    own ``f_prev`` before it writes into an array the integrands saw.

    The records carry the pass count, the steps the chunk advanced, the
    live path-steps, where rows after a path's event do not count, and the
    bridge uniforms drawn.
    """
    b, x0, a = spec.b, spec.x, spec.a
    mu, sigma, dt = model.mu, model.sigma, cfg.dt
    rate = model.jump_rate if model.family is Family.EXP_JUMP_DIFFUSION else 0.0
    jumpy = rate > 0.0
    t_cap = cfg.resolved_t_cap(model, spec)
    bridge = cfg.bridge_correction
    uniforms = _uniform_rng(rng)

    out = _ExitState(n, len(integrands))
    pid = np.arange(n)
    x = np.full(n, x0)
    # untracked, s is the positions' memory under another view
    s = np.full(n, x0) if track else x
    t = np.zeros(n) if jumpy else 0.0
    acc = np.zeros((len(integrands), n))
    jump_in = rng.exponential(1.0 / rate, n) if jumpy else None
    f_prev = np.empty((len(integrands), n))
    for row, fn in zip(f_prev, integrands):
        row[:] = fn(s, x)
    size = min(max(n, _PASS_ENTRIES), _MAX_ROWS * n)
    work_buf, mask_buf = np.empty(4 * size), np.empty(2 * size, dtype=bool)

    while pid.size:
        m = pid.size
        K = min(_MAX_ROWS, max(1, _PASS_ENTRIES // m))
        out.passes += 1
        pos = np.empty((K + 1, m))
        X = pos[1:]
        rng.standard_normal(K * m, out=X.reshape(-1))
        if jumpy:
            # advanced by full steps, the time to the next jump reaches 0
            # exactly when the jump falls in the pass, and the clock reaches
            # t_cap whenever the cap does; those candidate columns alone get
            # their rows, and every other step is dt long
            wait_end, t_end = jump_in - dt, t + dt
            for _ in range(K - 1):
                wait_end -= dt
                t_end += dt
            cand = np.flatnonzero((wait_end <= 0.0) | (t_end >= t_cap))
            wait = np.empty((K + 1, cand.size))
            wait[0] = jump_in[cand]
            wait[1:] = -dt
            _accumulate(np.add, wait)
            h = np.clip(wait[:K], 0.0, dt)
            clock = h.copy()
            clock[0] += t[cand]
            _accumulate(np.add, clock)
            jump_row = np.count_nonzero(wait[:K] > dt, axis=0)
            cap_row = np.count_nonzero(clock < t_cap, axis=0)
            stop = np.minimum(jump_row, cap_row)
            wait_end[cand], t_end[cand] = wait[K], clock[K - 1]
            jump_in, t = wait_end, t_end
            xi = X[:, cand]
            xi *= sigma * np.sqrt(h)
            xi += mu * h
        else:
            cap_row = K
            for j in range(K):
                t += dt
                if t >= t_cap and cap_row == K:
                    cap_row = j
            cand = np.arange(m if cap_row < K else 0)
            stop = np.full(cand.size, cap_row)
        X *= sigma * np.sqrt(dt)
        X += mu * dt
        if jumpy:
            X[:, cand] = xi
        if K == 1:
            X += x
            prev = x[None]
        else:
            pos[0] = x
            _accumulate(np.add, pos)
            prev = pos[:K]

        # untracked, the integrands get the positions as the supremum
        sup = X
        if bridge:
            # tracked, the level starts at the supremum, and a one-step pass
            # updates the supremum array in place, as the last pass's
            # integrands are done with it; untracked, the level is a
            if not track:
                level = a
            else:
                if K == 1:
                    sup = s[None]
                else:
                    sup = np.empty((K, m))
                    sup[0] = s
                    sup[1:] = X[:-1]
                    _accumulate(np.maximum, sup)
                level = sup.reshape(-1)
            var = sigma * sigma * dt
            if jumpy and cand.size:
                var = np.full((K, m), var)
                var[:, cand] = sigma * sigma * h
                var = var.reshape(-1)
            hi, lo, ext = _bridge_extrema(
                uniforms, prev.reshape(-1), X.reshape(-1), level, b, var,
                work_buf[:4 * K * m], mask_buf[:2 * K * m])
            out.uniforms += ext.size
            k = hi.size
            if track:
                top = np.minimum(ext[:k], a, out=ext[:k])
                np.maximum.at(level, hi, top)
                if K > 1:
                    _accumulate(np.maximum, sup)
            cols, rows, up = _first_exits(hi[ext[:k] >= a], lo[ext[k:] <= b], m)
        else:
            if track:
                sup = np.minimum(X, a)
                np.maximum(sup[0], s, out=sup[0])
                if K > 1:
                    _accumulate(np.maximum, sup)
            cols, rows, up = _first_exits(np.flatnonzero(X >= a), np.flatnonzero(X < b), m)

        # each path's event row, K for a path that runs the whole pass; only
        # the candidates can jump or reach the time cap in it
        if cand.size:
            event = np.full(m, K)
            event[cand] = stop
            keep = rows <= event[cols]
            cols, rows, up = cols[keep], rows[keep], up[keep]
            event[cols] = rows
            ev_cols = np.union1d(cols, cand[stop < K])
            ev_rows = event[ev_cols]
        else:
            ev_cols, ev_rows = cols, rows
        out.path_steps += K * m - int((K - 1 - ev_rows).sum())
        out.steps += K if ev_cols.size < m else int(ev_rows.max()) + 1

        # the integrands see each path frozen after its event row
        if K > 1 and ev_cols.size:
            held = np.minimum(np.arange(K)[:, None], ev_rows)
            for block in (X, sup) if track else (X,):
                block[:, ev_cols] = np.take_along_axis(block[:, ev_cols], held, axis=0)
        sums = np.empty((len(integrands), K, m))
        for row, f_row, fn in zip(sums, f_prev, integrands):
            f = fn(sup, X)
            np.add(f_row, f[0], out=row[0])
            if K > 1:
                np.add(f[:-1], f[1:], out=row[1:])
            f_row[:] = f[-1]
        if jumpy:
            scaled = sums[:, :, cand]
            scaled *= 0.5 * h
        sums *= 0.5 * dt
        if jumpy:
            sums[:, :, cand] = scaled
        x_end = X[rows, cols]
        if bridge:
            inner = (x_end < a) & (x_end >= b)
            sums[:, rows[inner], cols[inner]] *= 0.5
        sums[:, 0] += acc
        if K > 1:
            _accumulate(np.add, sums)

        ids = pid[cols]
        out.up[ids] = up
        if track:
            out.s_exit[ids] = sup[rows, cols]
        end = np.where(up, a, b) if bridge else x_end
        out.x_pre[ids] = end
        out.x_post[ids] = end
        out.acc[:, ids] = sums[:, rows, cols]
        done = [cols]

        x, s, acc = pos[K], sup[K - 1], sums[:, K - 1]
        tired = cols[:0]
        if cand.size:
            # the candidates that did not exit at their event row jump there,
            # or reach the time cap there, or both
            running = (stop < K) & ~np.isin(cand, cols, assume_unique=True)
            if jumpy:
                # jump events fire exactly at the end of their substep
                at_jump = np.flatnonzero(running & (jump_row == stop))
                if at_jump.size:
                    jumps, r = cand[at_jump], stop[at_jump]
                    sizes = rng.exponential(model.jump_mean, jumps.size)
                    jump_in[jumps] = rng.exponential(1.0 / rate, jumps.size)
                    x_jumped = X[r, jumps] - sizes
                    below = x_jumped < b
                    dn, r_dn = jumps[below], r[below]
                    dn_ids = pid[dn]
                    if track:
                        out.s_exit[dn_ids] = sup[r_dn, dn]
                    out.x_pre[dn_ids] = X[r_dn, dn]
                    out.x_post[dn_ids] = x_jumped[below]
                    out.acc[:, dn_ids] = sums[:, r_dn, dn]
                    running[at_jump[below]] = False
                    done.append(dn)
                    kept = jumps[~below]
                    x[kept] = x_jumped[~below]
                    for f_row, fn in zip(f_prev, integrands):
                        f_row[kept] = fn(s[kept], x[kept])
            tired = cand[running & (cap_row == stop)]
        if tired.size:
            r = event[tired]
            out.censored[pid[tired]] = True
            out.acc[:, pid[tired]] = sums[:, r, tired]
            done.append(tired)

        finished = np.sort(np.concatenate(done)) if len(done) > 1 else cols
        d = finished.size
        if d:
            # move the live paths of the last d slots into the holes
            m -= d
            holes = finished[finished < m]
            tail = np.ones(d, dtype=bool)
            tail[finished[finished >= m] - m] = False
            movers = m + np.flatnonzero(tail)
            state = [pid, x] + ([s] if track else []) + ([t, jump_in] if jumpy else [])
            for arr in state:
                arr[holes] = arr[movers]
            for arr in (acc, f_prev):
                arr[:, holes] = arr[:, movers]
        pid, x, s, acc, f_prev = pid[:m], x[:m], s[:m], acc[:, :m], f_prev[:, :m]
        if jumpy:
            t, jump_in = t[:m], jump_in[:m]
    return out


def _chunk(model, spec, cfg, integrands, track, k):
    """Simulate chunk ``k`` and return its records."""
    n = min(_CHUNK, cfg.n_paths - k * _CHUNK)
    return _simulate_exit_chunk(model, spec, cfg, _chunk_rng(cfg.seed, k), n, integrands,
                                track)


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


def _collect_states(model, spec, cfg, integrands, track, meanwhile=None):
    """Simulate the chunks and return their records merged in chunk order.

    The ``n_paths`` paths form chunks of ``_CHUNK``, the last one shorter,
    and chunk ``k`` draws from the substream ``(seed, k)`` alone.  The chunks
    run on ``_worker_count`` forked processes, or in process when that is
    one; either way each chunk sees the same draws, so the merged records
    are bit-identical for any worker count.  The counts are summed in chunk
    order.  ``meanwhile``, a callable without arguments, runs in this
    process after the workers start and before their results are read; in
    process it runs before the first chunk.  A worker that raises raises the
    same error here, and one that dies raises ``BrokenProcessPool``, a
    ``RuntimeError``; an error in ``meanwhile`` cancels the chunks that have
    not started.  No worker outlives the call.

    Raises:
        RuntimeError: when more than 0.1% of the paths hit the time cap.
    """
    job = functools.partial(_chunk, model, spec, cfg, integrands, track)
    n_chunks = -(-cfg.n_paths // _CHUNK)
    workers = _worker_count(n_chunks)
    if workers == 1:
        if meanwhile is not None:
            meanwhile()
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
            futures = [pool.submit(_run_chunk, k) for k in range(n_chunks)]
            try:
                if meanwhile is not None:
                    meanwhile()
                states = [future.result() for future in futures]
            finally:
                for future in futures:
                    future.cancel()
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
    meanwhile: Optional[Callable[[], None]] = None,
) -> ExitMCResult:
    """Estimate the two-sided exit functionals by simulation.

    Returns estimates of (i) ``E[e^{-int F}; up]``, (ii)
    ``E[g(S_T) e^{-int F}; down]`` and (iii) ``P(up)``, plus the raw exit
    records on request.  ``meanwhile`` runs in this process while the worker
    processes step the chunks, or first when the run stays in process; the
    estimates' ``elapsed`` is the wall time of the whole call.

    The supremum is tracked only when something reads it: ``F.reads_sup``, a
    weight ``g``, or the kept samples' ``s_at_exit``.

    Raises:
        RuntimeError: when more than 0.1% of the paths hit the time cap.
    """
    cfg.warn_if_coarse(spec)
    start = time.perf_counter()
    track = F.reads_sup or g is not None or keep_samples
    st = _collect_states(model, spec, cfg, [F.eval_pairs], track, meanwhile)
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
        passes=st.passes,
        steps=st.steps,
        path_steps=st.path_steps,
        uniforms=st.uniforms,
        sup_tracked=track,
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
    st = _collect_states(model, spec, cfg, [point_rate, smoothed_rate], track=False)
    counted = ~st.censored
    acc_a = st.acc[0, counted]
    acc_b = st.acc[1, counted]
    elapsed = time.perf_counter() - start
    return OccupationMCResult(
        time_integral_laplace=_estimate(np.exp(-acc_a), elapsed),
        occupation_laplace=_estimate(np.exp(-acc_b), elapsed),
        mean_abs_discrepancy=float(np.mean(np.abs(acc_a - acc_b))),
    )
