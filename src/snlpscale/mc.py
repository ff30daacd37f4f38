"""Monte Carlo engine for two-sided exit problems, tracking the supremum
where something reads it.

One stepper, ``_simulate_exit_chunk``, runs every path.  Paths follow Euler
steps with exact Gaussian increments; the jump family adds downward
exponential jumps at exact exponential event times, with diffusion substeps
between events and barrier checks at every substep.  Each diffusion substep
samples the conditional extrema of the Brownian bridge between its endpoints::

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

One loop runs passes.  A pass of ``m`` live paths advances each of them
``K = min(_MAX_ROWS, max(1, _PASS_ENTRIES // m))`` steps at once, in ``(K,
m)`` blocks, and costs in proportion to ``K m`` plus the paths that finish
(``_simulate_exit_chunk``).

One estimator serves the three entry points.  Each warns on a coarse step,
at its caller's line, and passes its integrands and ``levels`` to
``_collect_states``, then its map from a level's records to each estimand's
per-path values to ``_telescope``: :func:`run_exit_mc` the exit functionals
of the potential, :func:`occupation_mc` ``e^{-int f}`` for its point and
smoothed integrands, :func:`conditional_mc` the potential's ``e^{-int F}``
on each bin of the supremum at the exit.  ``_collect_states`` splits the
paths into chunks of ``_CHUNK`` (50000), the last one shorter, and censors
the paths that reach the time cap; a censored fraction above 0.1% raises.
The chunks run in forked worker processes, one per core this process may run
on and at most one per chunk; the run stays in process where the platform
has no ``fork`` or no CPU affinity mask, or where another Python thread is
alive, since a fork copies only the calling thread.  ``meanwhile``, the
caller's deterministic solve, runs in the parent while the workers step.
The parent merges each level's records and counts in chunk order, and every
result carries the run's one ``diagnostics`` dict.

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

Multilevel runs.  With ``levels = L > 0`` each estimand's dt-scheme mean
telescopes (Giles, Oper. Res. 56, 2008)::

    E[Y_dt] = E[Y_{2^L dt}] + sum_{l=1..L} E[Y_{2^(l-1) dt} - Y_{2^l dt}]

Chunk ``k`` of ``n_k`` paths first runs them at the coarsest step ``2^L dt``
from the chunk's streams above.  Then, for each ``l``, it runs ``max(256,
ceil(n_k / (32 * 2^(L-l))))`` coupled pairs at the fine step ``2^(l-1) dt``:
``ceil(n_k / 32)`` at the coarsest correction, halved at each finer level
down to the floor of 256.  That is Giles's ``n_l ∝ sqrt(V_l / C_l)`` where a
level's variance ``V_l`` falls in proportion to its step and its cost
``C_l`` doubles with each halving.  The stepper accumulates a coarse
companion at twice the step from the same draws, so the fine path is a path
of the dt scheme.  With ``Q`` the chunk's seed sequence and ``Q/i`` its
child of spawn key ``spawn_key + (i,)``, the streams are:

- ``Q``: the coarsest run's main stream; ``Q/0``: its bridge uniforms;
- ``Q/(1 + l)``: the main stream of correction level ``l``; its bridge
  uniforms come from ``Q/(1 + l)/0``, as for any run.

The coarse path is every other fine position; with jumps, consecutive
substeps pair inside one inter-jump interval and a jump closes the pair,
which gives the substeps of the coarse scheme.  A coarse step's extremum is
the max (min) of its fine bridge extrema, which has the law of the coarse
bridge extremum, so the coarse supremum at coarse times is the fine one.
Its sum is the trapezoid on the coarse grid with the same half-step rule.
A coupled pass holds whole pairs: it advances an even number of rows, ``K =
max(2, K - K % 2)`` with ``K`` the rule above, and a jump ends a path's
block, so every pair starts and ends in one pass.  A fine exit at the first
half of a pair takes the pair's second half from the block's next row: its
position, its bridge maximum where one was drawn, which may still take the
coarse path up, and its length.  A pair is censored when its fine path is.
The allocation is fixed.  An estimate is the sum of the levels' sample
means, with standard error ``sqrt(sum_l Var_l / n_l)``; the per-level means
and variances land in ``diagnostics["levels"]``, and the level-1 pairs also
give ``E[Y_2dt - Y_dt]``, to first order the bias of the dt scheme.  Its
standard error rests on the level-1 pairs, 256 a chunk at the floor: with
``b=0, x=0.5, a=2``, dt 1e-3 and 100000 paths (L = 5, 512 pairs), it reads
about 1e-5 for ``down_value`` on bm ``0,1`` with ``const:0.5``, and at most
8.1e-5 over bm and jd ``2,1,1,0.5`` with four potentials, against estimates'
standard errors near 1e-3.
``MCConfig.max_levels`` gives the ``L`` each command uses: ``max{l <= 5 :
2^l dt <= (a-b)^2/100}``, the bound of ``warn_if_coarse``, so the coarsest
run never warns.

The engine never calls the deterministic solver: it imports only ``ExitSpec``
from :mod:`generalized`.
"""

from __future__ import annotations

import functools
import operator
import os
import threading
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._csvout import write_csv
from .generalized import ExitSpec
from .models import LevyModel
from .potentials import BivariatePotential

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
# steps; part of the reproducibility contract
_PASS_ENTRIES = 16384
_MAX_ROWS = 256
# a path still inside the band at time _T_CAP_SCALE (a-b)^2 / sigma^2 is censored
_T_CAP_SCALE = 1e4
# a chunk of n paths at L levels runs max(_MIN_PAIRS, ceil(n / (_PAIR_SHARE *
# 2^(L-l)))) coupled pairs at correction level l, halving from the coarsest
# correction to the finest, and at most _MAX_LEVELS levels are used; all three
# are part of the reproducibility contract
_MIN_PAIRS = 256
_PAIR_SHARE = 32
_MAX_LEVELS = 5


@dataclass
class MCConfig:
    """Path-engine configuration.

    Every path runs to exit or to the time cap ``_T_CAP_SCALE (a-b)^2 /
    sigma^2`` (``1e4 (a-b)^2 / sigma^2``); paths that reach the cap are
    counted as censored, and a censored fraction above 0.1% fails the run.
    ``n_paths`` (at least 100) and ``seed`` are integers, kept as ``int``.
    """

    dt: float
    n_paths: int
    seed: int = 0

    def __post_init__(self):
        # NaN must fail too: it keeps the clock at NaN, so no path would
        # ever reach the time cap
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        try:
            self.n_paths, self.seed = operator.index(self.n_paths), operator.index(self.seed)
        except TypeError as exc:
            raise ValueError("n_paths and seed must be integers") from exc
        if self.n_paths < 100:
            raise ValueError("n_paths must be >= 100")

    def max_levels(self, spec: ExitSpec) -> int:
        """``max{l <= 5 : 2^l dt <= (a-b)^2/100}``, or 0 when even ``dt`` is
        above that bound: the most halvings a multilevel run may start from
        without a coarsest step that :meth:`warn_if_coarse` would warn on."""
        bound = (spec.a - spec.b) ** 2 / 100.0
        levels = 0
        while levels < _MAX_LEVELS and self.dt * 2 ** (levels + 1) <= bound:
            levels += 1
        return levels

    def warn_if_coarse(self, spec: ExitSpec) -> None:
        """Warn, at the line that called the entry point calling this, when
        ``dt`` is above ``(a-b)^2/100``."""
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
    """Exit estimates, the censored path count, the run's ``diagnostics``,
    and ``bias_dt`` (:func:`run_exit_mc`)."""

    up_laplace: Estimate
    down_value: Estimate
    p_up: Estimate
    n_censored: int
    diagnostics: dict
    samples: Optional[ExitSamples] = None
    bias_dt: Optional[dict] = None


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The main stream of chunk ``chunk_index``: SFC64 seeded from
    ``SeedSequence((seed mod 2^64, chunk_index))``."""
    seq = np.random.SeedSequence((seed % (1 << 64), chunk_index))
    return np.random.Generator(np.random.SFC64(seq))


def _spawned_rng(rng: np.random.Generator, index: int) -> np.random.Generator:
    """SFC64 seeded from the child of ``rng``'s seed sequence that ``spawn``
    gives as its ``index``-th: 0 for the bridge uniforms beside the main
    stream ``rng``, ``1 + l`` for the main stream of correction level ``l``.
    It is built here without spawning, so that it does not depend on what
    was spawned before."""
    seq = rng.bit_generator.seed_seq
    child = np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (index,),
                                   pool_size=seq.pool_size)
    return np.random.Generator(np.random.SFC64(child))


# ---------------------------------------------------------------------------
# Core path loop
# ---------------------------------------------------------------------------


class _ExitState:
    """Terminal records of simulated paths, one column per path, and the
    work that produced them.

    ``acc`` holds one row per integrand; ``passes`` counts the passes,
    ``steps`` the steps, ``path_steps`` the live paths summed over them,
    ``uniforms`` the bridge uniforms drawn and ``half_steps`` the pairs of a
    coupled run whose fine path left at a first half.  A coupled run keeps
    its coarse companion's records in ``coarse``, another state whose counts
    stay 0.
    """

    RECORDS = ("up", "s_exit", "x_pre", "x_post", "acc", "censored")
    COUNTS = ("passes", "steps", "path_steps", "uniforms", "half_steps")
    __slots__ = RECORDS + COUNTS + ("coarse",)

    def __init__(self, n: int, n_integrands: int):
        self.up = np.zeros(n, dtype=bool)
        self.s_exit = np.full(n, np.nan)
        self.x_pre = np.full(n, np.nan)
        self.x_post = np.full(n, np.nan)
        self.acc = np.zeros((n_integrands, n))
        self.censored = np.zeros(n, dtype=bool)
        self.passes = 0
        self.steps = 0
        self.path_steps = 0
        self.uniforms = 0
        self.half_steps = 0
        self.coarse = None


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
    # a step is within reach of a level only if its nearer end is within
    # sqrt(reach) of it, and most are not, so the product is taken on those
    # alone; that distance is one of the product's factors, so the margin
    # keeps every step the product admits among them despite rounding
    span = np.sqrt(reach.max() if per_entry else reach) * (1.0 + 1e-9)

    def within(level, gap, flags):
        idx = np.less_equal(gap, span, out=flags).nonzero()[0]
        if isinstance(level, np.ndarray):
            level = level.take(idx)
        prod_idx = x.take(idx)
        prod_idx -= level
        prod_idx *= np.subtract(x_new.take(idx), level)
        return idx[prod_idx < (reach.take(idx) if per_entry else reach)]

    hi = within(s, np.subtract(s, np.maximum(x, x_new, out=prod), out=prod), mask[:m])
    lo = within(b, np.subtract(np.minimum(x, x_new, out=prod), b, out=prod), mask[m:])
    near = np.concatenate((hi, lo))

    # the reach tests are done with the scratch, so the endpoint sum and gap
    # live in it and the uniforms overwrite a copy of x
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
    rows = block.swapaxes(0, -2)  # the other axes are elementwise, in any order
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


def _coarse_sums(fe, acc, h, dt, jump_row, event, rows, cols, inner, out):
    """The coarse companion's trapezoid terms over one pass of a coupled run.

    A coupled pass holds whole pairs, so row ``j`` is a pair's first half
    when ``j`` is even and its second half when ``j`` is odd.  ``fe`` holds
    the integrands at the pass's start, then at each of its ``K`` rows, and
    ``h`` is each step's length.  A row closes a pair when it is the pair's
    second half or ends at a jump (``jump_row``, ``K`` for none, None without
    jumps); rows after a path's ``event`` row close nothing.  A closing row's
    term is its pair's trapezoid ``(f_start + f_end) (h1 + h2) / 2``, a first
    half being ``dt`` long, and half of it for an exit ``(rows, cols)``
    strictly inside the band (``inner``).  ``out`` gets the terms, with
    ``acc`` added to row 0, ready for a running sum down the rows.
    """
    K = fe.shape[1] - 1
    rows_k = np.arange(K)
    second = rows_k[:, None] % 2 == 1
    closes = np.broadcast_to(second, out.shape[1:]).copy()
    if jump_row is not None:
        at = jump_row < K
        closes[jump_row[at], np.flatnonzero(at)] = True
        closes &= rows_k[:, None] <= event
    # a pair starts at the point before its first half, the even row
    np.add(fe[:, rows_k - rows_k % 2], fe[:, 1:], out=out)
    out *= 0.5 * np.where(second, dt + h, h)
    np.copyto(out, 0.0, where=~closes)
    shut = inner & closes[rows, cols]
    out[:, rows[shut], cols[shut]] *= 0.5
    out[:, 0] += acc


def _simulate_exit_chunk(
    model: LevyModel,
    spec: ExitSpec,
    cfg: MCConfig,
    rng: np.random.Generator,
    n: int,
    integrands: list,
    track: bool = True,
    coupled: bool = False,
) -> _ExitState:
    """Run ``n`` paths to exit or censoring.

    Each integrand ``(s, x) -> rate`` is accumulated per path into its row of
    ``acc``.  ``track`` says whether the supremum is tracked; without it the
    integrands get the positions as ``s``, the bridge maxima are drawn only
    for the steps within reach of ``a``, and ``s_exit`` stays NaN.  The
    ``m`` live paths sit in slots ``0 .. m-1`` of the state arrays, with
    ``pid`` mapping each slot to its output column.  One loop runs passes:
    a pass advances every live path ``K`` steps, with ``K = min(_MAX_ROWS,
    max(1, _PASS_ENTRIES // m))``, which rises as the paths thin out.  A
    pass holds ``(K, m)`` blocks, row ``j`` for the state after step ``j``:

    - positions, by a running sum of the Gaussian increments from one flat
      ``standard_normal(K * m)``, under a row 0 that holds the start;
    - with jumps, every path gets its rows: the time to its next jump by a
      running sum of ``-dt``, each step's length ``h = min(dt, time left)``,
      0 after the jump, and its clock; the jump and time-cap rows give each
      path's stop row, and its block ends at its next jump.  Without jumps
      every step is ``dt`` long, all paths share one clock, and per-path
      stop rows exist only in the pass that reaches the time cap;
    - ``_bridge_extrema`` tests each step's reach against the running
      maximum of the pass's start supremum ``S`` and the positions before
      the step, which is below the true supremum, so every step whose
      maximum may pass the supremum is drawn: the crossing probability falls
      as the level rises.  The drawn maxima, capped at ``a``, then give the
      supremum by a running maximum.  Untracked, the level is ``a`` itself;
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

    ``coupled`` also accumulates each path's coarse companion at step ``2
    dt`` (module docstring) into ``out.coarse``, from the same draws, with
    ``_coarse_sums``.  A coupled pass advances an even number of rows, ``K =
    max(2, K - K % 2)``, so that it holds whole pairs: the last coarse point
    of a pass is its end, or the jump that ends a path's block.  A fine exit
    at a pair's first half is frozen at the pair's end, the block's next
    row, with the supremum there capped at ``a``; the fine records are read
    at the exit row and the coarse ones at the pair's end, where the coarse
    path leaves up if a drawn maximum by then reached ``a``, and its pair's
    trapezoid takes the half-step rule.
    """
    b, x0, a = spec.b, spec.x, spec.a
    mu, sigma, dt = model.mu, model.sigma, cfg.dt
    rate = model.jump_rate
    jumpy = rate > 0.0
    t_cap = _T_CAP_SCALE * (a - b) ** 2 / sigma**2
    uniforms = _spawned_rng(rng, 0)

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
    if coupled:
        out.coarse = _ExitState(n, len(integrands))
        acc_c = np.zeros_like(acc)
    # a coupled pass of more than _PASS_ENTRIES paths still takes two rows
    size = min(max((1 + coupled) * n, _PASS_ENTRIES), _MAX_ROWS * n)
    work_buf, mask_buf = np.empty(4 * size), np.empty(2 * size, dtype=bool)

    while pid.size:
        m = pid.size
        K = min(_MAX_ROWS, max(1, _PASS_ENTRIES // m))
        if coupled:
            K = max(2, K - K % 2)
        out.passes += 1
        pos = np.empty((K + 1, m))
        X = pos[1:]
        rng.standard_normal(K * m, out=X.reshape(-1))
        if jumpy:
            # every path's time to its next jump, each step's length, 0 after
            # the jump, and its clock; a path's event is its jump or time cap
            wait = np.empty((K + 1, m))
            wait[0] = jump_in
            wait[1:] = -dt
            _accumulate(np.add, wait)
            h = np.clip(wait[:K], 0.0, dt)
            clock = h.copy()
            clock[0] += t
            _accumulate(np.add, clock)
            jump_row = np.count_nonzero(wait[:K] > dt, axis=0)
            cap_row = np.count_nonzero(clock < t_cap, axis=0)
            stop = np.minimum(jump_row, cap_row)
            jump_in, t = wait[K], clock[K - 1]
        else:
            # one clock for every path; per-path stop rows only in the pass
            # that reaches the time cap
            h, jump_row, cap_row = dt, None, K
            for j in range(K):
                t += dt
                if t >= t_cap and cap_row == K:
                    cap_row = j
            stop = np.full(m, cap_row) if cap_row < K else None
        X *= sigma * np.sqrt(h)
        X += mu * h
        pos[0] = x
        _accumulate(np.add, pos)
        prev = pos[:K]

        # tracked, the level starts at the supremum; untracked, the level is
        # a and the integrands get the positions as the supremum
        sup, level = X, a
        if track:
            sup = np.empty((K, m))
            sup[0] = s
            sup[1:] = X[:-1]
            _accumulate(np.maximum, sup)
            level = sup.reshape(-1)
        var = sigma * sigma * h
        hi, lo, ext = _bridge_extrema(
            uniforms, prev.reshape(-1), X.reshape(-1), level, b, var,
            work_buf[:4 * K * m], mask_buf[:2 * K * m])
        out.uniforms += ext.size
        k = hi.size
        if track:
            top = np.minimum(ext[:k], a, out=ext[:k])
            np.maximum.at(level, hi, top)
            _accumulate(np.maximum, sup)
        up_hits = hi[ext[:k] >= a]
        cols, rows, up = _first_exits(up_hits, lo[ext[k:] <= b], m)

        # each path's event row, K for a path that runs the whole pass
        if stop is not None:
            event = stop.copy()
            keep = rows <= event[cols]
            cols, rows, up = cols[keep], rows[keep], up[keep]
            event[cols] = rows
            ev_cols = np.union1d(cols, np.flatnonzero(stop < K))
            ev_rows = event[ev_cols]
        else:
            ev_cols, ev_rows = cols, rows
        out.path_steps += K * m - int((K - 1 - ev_rows).sum())
        out.steps += K if ev_cols.size < m else int(ev_rows.max()) + 1

        if coupled:
            # a fine exit at a pair's first half, an even row that is not its
            # jump row, freezes at the pair's end, the next row, where the
            # coarse companion reads its last point; an up exit's overshoot
            # enters that row's running level, so the supremum is capped at a
            first = (rows & 1) == 0
            if jumpy:
                first &= rows != jump_row[cols]
            c_rows = rows + first
            if stop is not None:
                event[cols] = c_rows
                ev_rows = event[ev_cols]
            else:
                ev_rows = c_rows
            if track:
                r, c = c_rows[first], cols[first]
                sup[r, c] = np.minimum(sup[r, c], a)
            out.half_steps += int(np.count_nonzero(first))

        # the integrands see each path frozen after its event row
        if ev_cols.size:
            held = np.minimum(np.arange(K)[:, None], ev_rows)
            for block in (X, sup) if track else (X,):
                block[:, ev_cols] = block[held, ev_cols]
        # a coupled run's coarse sums run down the rows with the fine ones
        block = np.empty((1 + coupled, len(integrands), K, m))
        sums = block[0]
        if coupled:
            fe = np.empty((len(integrands), K + 1, m))
            fe[:, 0] = f_prev
        for i, (row, f_row, fn) in enumerate(zip(sums, f_prev, integrands)):
            f = fn(sup, X)
            if coupled:
                fe[i, 1:] = f
            np.add(f_row, f[0], out=row[0])
            np.add(f[:-1], f[1:], out=row[1:])
            f_row[:] = f[-1]
        sums *= 0.5 * h
        x_end = X[rows, cols]
        inner = (x_end < a) & (x_end >= b)
        sums[:, rows[inner], cols[inner]] *= 0.5
        sums[:, 0] += acc
        if coupled:
            x_c = X[c_rows, cols]
            _coarse_sums(fe, acc_c, h, dt, jump_row, event if jumpy else None, c_rows, cols,
                         (x_c < a) & (x_c >= b), block[1])
        _accumulate(np.add, block)

        s_end = sup[rows, cols] if track else None
        books = [(out, sums)]
        ends = [(out, up, s_end, sums[:, rows, cols])]
        if coupled:
            csum = block[1]
            books.append((out.coarse, csum))
            # the pair's end leaves up if the path left up by then
            flat = c_rows * m + cols
            c_up = up | (up_hits.searchsorted(flat, "right") > up_hits.searchsorted(flat))
            ends.append((out.coarse, c_up, sup[c_rows, cols] if track else None,
                         csum[:, c_rows, cols]))
        ids = pid[cols]
        for rec, rec_up, rec_s, rec_acc in ends:
            rec.up[ids] = rec_up
            if track:
                rec.s_exit[ids] = rec_s
            end = np.where(rec_up, a, b)
            rec.x_pre[ids] = end
            rec.x_post[ids] = end
            rec.acc[:, ids] = rec_acc
        done = [cols]

        x, s, acc = pos[K], sup[K - 1], sums[:, K - 1]
        if coupled:
            acc_c = csum[:, K - 1]
        tired = cols[:0]
        if stop is not None:
            # the paths that did not exit at their event row jump there, or
            # reach the time cap there, or both
            running = stop < K
            running[cols] = False
            if jumpy:
                # jump events fire exactly at the end of their substep
                jumps = np.flatnonzero(running & (jump_row == stop))
                if jumps.size:
                    r = stop[jumps]
                    sizes = rng.exponential(model.jump_mean, jumps.size)
                    jump_in[jumps] = rng.exponential(1.0 / rate, jumps.size)
                    x_jumped = X[r, jumps] - sizes
                    below = x_jumped < b
                    dn, r_dn = jumps[below], r[below]
                    dn_ids = pid[dn]
                    for rec, total in books:
                        if track:
                            rec.s_exit[dn_ids] = sup[r_dn, dn]
                        rec.x_pre[dn_ids] = X[r_dn, dn]
                        rec.x_post[dn_ids] = x_jumped[below]
                        rec.acc[:, dn_ids] = total[:, r_dn, dn]
                    running[dn] = False
                    done.append(dn)
                    kept = jumps[~below]
                    x[kept] = x_jumped[~below]
                    for f_row, fn in zip(f_prev, integrands):
                        f_row[kept] = fn(s[kept], x[kept])
            tired = np.flatnonzero(running & (cap_row == stop))
        if tired.size:
            r = event[tired]
            for rec, total in books:
                rec.censored[pid[tired]] = True
                rec.acc[:, pid[tired]] = total[:, r, tired]
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
            sheets = [acc, f_prev] + ([acc_c] if coupled else [])
            for arr in state:
                arr[holes] = arr[movers]
            for arr in sheets:
                arr[:, holes] = arr[:, movers]
        pid, x, s, acc, f_prev = pid[:m], x[:m], s[:m], acc[:, :m], f_prev[:, :m]
        if jumpy:
            t, jump_in = t[:m], jump_in[:m]
        if coupled:
            acc_c = acc_c[:, :m]
    return out


def _level_steps(dt: float, levels: int) -> list:
    """The step of each level's run: ``2^L dt`` for the coarsest, then the
    fine step ``2^(l-1) dt`` of each correction level ``l = 1..L``."""
    return [dt * 2**levels] + [dt * 2 ** (level - 1) for level in range(1, levels + 1)]


def _chunk(model, spec, cfg, integrands, track, levels, k):
    """The records of chunk ``k``, one state per level: its paths at the
    coarsest step (the plain run without levels) from the chunk's stream,
    then each correction level's coupled pairs from that level's stream,
    their count halving from the coarsest correction to the finest."""
    n = min(_CHUNK, cfg.n_paths - k * _CHUNK)
    rng = _chunk_rng(cfg.seed, k)
    coarsest, *fine = _level_steps(cfg.dt, levels)
    states = [_simulate_exit_chunk(model, spec, replace(cfg, dt=coarsest), rng, n, integrands,
                                   track)]
    for level, dt in enumerate(fine, 1):
        pairs = max(_MIN_PAIRS, -(-n // (_PAIR_SHARE << (levels - level))))
        states.append(_simulate_exit_chunk(model, spec, replace(cfg, dt=dt),
                                           _spawned_rng(rng, 1 + level), pairs, integrands,
                                           track, coupled=True))
    return states


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


def _merge(states):
    """One state of the records of ``states`` in order and their summed counts."""
    merged = _ExitState(0, 0)
    for name in _ExitState.RECORDS:
        setattr(merged, name, np.concatenate([getattr(st, name) for st in states], axis=-1))
    for name in _ExitState.COUNTS:
        setattr(merged, name, sum(getattr(st, name) for st in states))
    if states[0].coarse is not None:
        merged.coarse = _merge([st.coarse for st in states])
    return merged


def _collect_states(model, spec, cfg, integrands, track, meanwhile=None, levels=0):
    """Simulate the chunks and return their records merged in chunk order,
    one state per level, with the run's diagnostics.

    Chunk ``k`` draws from the substream ``(seed, k)`` alone, on one of
    ``_worker_count`` forked processes or in process, so the merged records
    do not depend on the worker count.  The diagnostics hold each count of
    ``_ExitState.COUNTS`` summed over the chunks and levels, ``chunks``, the
    chunk count, ``censored``, the paths and pairs that reached the time
    cap, and ``sup_tracked``, which is ``track``.  ``meanwhile``
    runs here after the workers start and before their results are read; in
    process it runs before the first chunk.  A worker that raises raises the
    same error here, and one that dies raises ``BrokenProcessPool``, a
    ``RuntimeError``; an error in ``meanwhile`` cancels the chunks that have
    not started.  No worker outlives the call.

    Raises:
        ValueError: for ``levels`` outside ``0..5``.
        RuntimeError: when more than 0.1% of the paths hit the time cap.
    """
    if not 0 <= levels <= _MAX_LEVELS:
        raise ValueError(f"levels must be in 0..{_MAX_LEVELS}, got {levels}")
    job = functools.partial(_chunk, model, spec, cfg, integrands, track, levels)
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
    merged = [_merge(level) for level in zip(*states)]
    diagnostics = {name: sum(getattr(st, name) for st in merged) for name in _ExitState.COUNTS}
    diagnostics["chunks"] = n_chunks
    n_total = sum(st.up.size for st in merged)
    n_censored = sum(int(st.censored.sum()) for st in merged)
    if n_censored > _MAX_CENSORED_FRACTION * n_total:
        raise RuntimeError(
            f"{n_censored} of {n_total} paths were censored at the time cap "
            f"(fraction {n_censored / n_total:.2e} > {_MAX_CENSORED_FRACTION})"
        )
    return merged, {**diagnostics, "censored": n_censored, "sup_tracked": track}


def _estimate(values: np.ndarray) -> Estimate:
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return Estimate(mean=mean, std_error=se, n=n)


def _telescope(states, dt: float, diagnostics: dict, values: Callable) -> tuple:
    """The telescoped estimates of the module docstring from the records of
    ``_collect_states``, where ``values(st, kept)`` gives each estimand's
    values on the ``kept`` paths of ``st``; an estimate's ``n`` counts the
    paths of ``states[0]``.  With levels, ``diagnostics["levels"]`` gets one
    row per level: its step ``dt``, ``paths`` (pairs for a correction),
    ``path_steps``, and each estimand's sample ``mean`` and ``variance``.

    Returns the estimates and the level-1 pairs' ``E[Y_2dt - Y_dt]``, or
    None without levels.
    """
    st = states[0]
    samples = [values(st, ~st.censored)]
    for pairs in states[1:]:
        kept = ~pairs.censored
        fine, coarse = values(pairs, kept), values(pairs.coarse, kept)
        samples.append({name: fine[name] - coarse[name] for name in fine})
    parts = [{name: _estimate(v) for name, v in level.items()} for level in samples]
    # the sum starts from the coarsest part, so one level's mean is its own;
    # its standard error is sqrt(se**2), which is se in binary64
    estimates = {
        name: Estimate(mean=sum((p[name].mean for p in parts[1:]), first.mean),
                       std_error=float(np.sqrt(sum(p[name].std_error**2 for p in parts))),
                       n=first.n)
        for name, first in parts[0].items()
    }
    if len(states) == 1:
        return estimates, None
    diagnostics["levels"] = [
        {"dt": step, "paths": level.up.size, "path_steps": level.path_steps,
         "mean": {name: est.mean for name, est in p.items()},
         "variance": {name: float(vals.var(ddof=1)) for name, vals in v.items()}}
        for step, level, p, v in zip(_level_steps(dt, len(states) - 1), states, parts, samples)
    ]
    # the level-1 pairs' E[Y_2dt - Y_dt] is their part, negated
    return estimates, {name: Estimate(-e.mean, e.std_error, e.n) for name, e in parts[1].items()}


def _exit_values(st, g, counted) -> dict:
    """Each estimand's value on the ``counted`` paths of ``st``."""
    up = st.up[counted]
    lap = np.exp(-st.acc[0, counted])
    down = lap if g is None else np.asarray(g(st.s_exit[counted]), float) * lap
    return {"up_laplace": np.where(up, lap, 0.0), "down_value": np.where(~up, down, 0.0),
            "p_up": up.astype(float)}


def run_exit_mc(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    cfg: MCConfig,
    g: Optional[Callable] = None,
    keep_samples: bool = False,
    meanwhile: Optional[Callable[[], None]] = None,
    levels: int = 0,
) -> ExitMCResult:
    """Estimate the two-sided exit functionals by simulation.

    Returns estimates of (i) ``E[e^{-int F}; up]``, (ii)
    ``E[g(S_T) e^{-int F}; down]`` and (iii) ``P(up)``, plus the raw exit
    records on request.  ``meanwhile`` runs in this process while the worker
    processes step the chunks, or first when the run stays in process.

    With ``levels = L > 0`` the estimates telescope (module docstring), and
    ``bias_dt`` holds the level-1 pairs' ``E[Y_2dt - Y_dt]``; ``levels = 0``
    is the plain run.

    The supremum is tracked only when something reads it: ``F.reads_sup``, a
    weight ``g``, or the kept samples' ``s_at_exit``.

    Raises:
        ValueError: for ``levels`` outside ``0..5``, or with kept samples,
            which are the dt scheme's paths.
        RuntimeError: when more than 0.1% of the paths hit the time cap.
    """
    cfg.warn_if_coarse(spec)
    if levels and keep_samples:
        raise ValueError(f"levels must be 0 with kept samples, got {levels}")
    track = F.reads_sup or g is not None or keep_samples
    states, diagnostics = _collect_states(model, spec, cfg, [F.eval_pairs], track, meanwhile,
                                          levels)
    estimates, bias_dt = _telescope(states, cfg.dt, diagnostics,
                                    lambda st, kept: _exit_values(st, g, kept))
    result = ExitMCResult(**estimates, n_censored=diagnostics["censored"],
                          diagnostics=diagnostics, bias_dt=bias_dt)
    if keep_samples:
        st = states[0]
        kept = ~st.censored
        result.samples = ExitSamples(st.up[kept], st.s_exit[kept], st.x_pre[kept],
                                     st.x_post[kept], functional=st.acc[0, kept])
    return result


# ---------------------------------------------------------------------------
# Conditional-on-supremum estimates
# ---------------------------------------------------------------------------


@dataclass
class ConditionalBin:
    """``numerator`` estimates ``E[e^{-int F}; down, lo <= S_T < hi]``, or
    ``E[e^{-int F}; up]`` for the atom ``lo = hi = a``; ``n`` counts the
    paths of the plain (or coarsest) run in the bin."""

    lo: float
    hi: float
    midpoint: float
    n: int
    numerator: Estimate
    empty: bool


@dataclass
class ConditionalMCResult:
    """The bins of :func:`conditional_mc`, and the run's ``diagnostics``."""

    bins: list
    up_bin: ConditionalBin
    diagnostics: dict


def conditional_mc(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    cfg: MCConfig,
    n_bins: int,
    meanwhile: Optional[Callable[[], None]] = None,
    levels: int = 0,
) -> ConditionalMCResult:
    """Estimate ``e^{-int F} 1{down, S_T in bin}`` on ``n_bins`` equal bins of
    ``[x, a)``, and ``e^{-int F} 1{up}`` on the atom ``S_T = a``.

    The numerators sum to :func:`run_exit_mc`'s ``down_value`` (with the
    weight one) and ``up_laplace``.  ``levels`` and ``meanwhile`` are as
    there.  Empty bins are flagged rather than dropped.  Dividing by each
    bin's mass and pairing with the deterministic curve is left to the
    caller.  Raises as :func:`run_exit_mc`, and for ``n_bins < 4``.
    """
    cfg.warn_if_coarse(spec)
    if n_bins < 4:
        raise ValueError("conditional_mc needs n_bins >= 4")
    edges = np.linspace(spec.x, spec.a, n_bins + 1)
    names = [f"bin{k}" for k in range(n_bins)] + ["up"]

    def bin_of(st, kept):
        """Each kept path's bin, ``n_bins`` for an up exit."""
        which = np.clip(np.searchsorted(edges, st.s_exit[kept], side="right") - 1, 0,
                        n_bins - 1)
        return np.where(st.up[kept], n_bins, which)

    def values(st, kept):
        which, lap = bin_of(st, kept), np.exp(-st.acc[0, kept])
        return {name: np.where(which == k, lap, 0.0) for k, name in enumerate(names)}

    states, diagnostics = _collect_states(model, spec, cfg, [F.eval_pairs], True, meanwhile,
                                          levels)
    estimates, _ = _telescope(states, cfg.dt, diagnostics, values)
    counts = np.bincount(bin_of(states[0], ~states[0].censored), minlength=n_bins + 1)
    bins = [
        ConditionalBin(lo=float(lo), hi=float(hi), midpoint=float(0.5 * (lo + hi)), n=int(n),
                       numerator=estimates[name], empty=bool(n == 0))
        for lo, hi, n, name in zip([*edges[:-1], spec.a], [*edges[1:], spec.a], counts, names)
    ]
    return ConditionalMCResult(bins=bins[:-1], up_bin=bins[-1], diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Occupation-density estimates
# ---------------------------------------------------------------------------


@dataclass
class OccupationMCResult:
    """The estimates of :func:`occupation_mc`, and the run's ``diagnostics``."""

    time_integral_laplace: Estimate
    occupation_laplace: Estimate
    mean_abs_discrepancy: float
    diagnostics: dict


def _uniform_interp(fine: np.ndarray, cum: np.ndarray) -> Callable:
    """``np.interp(., fine, cum)`` bit for bit on a ``np.linspace`` grid whose end
    cells are flat: the step gives the cell, and one move either way corrects it."""
    lo, last = fine[0], fine.size - 2
    inv_h = (fine.size - 1) / (fine[-1] - lo)
    slope = np.diff(cum) / np.diff(fine)

    def lookup(y):
        j = np.clip(((y - lo) * inv_h).astype(np.intp), 0, last)
        j -= (y < fine[j]) & (j > 0)
        j += (y >= fine[j + 1]) & (j < last)
        out = y - fine[j]
        out *= slope[j]
        out += cum[j]
        return out

    return lookup


def occupation_mc(
    model: LevyModel,
    F: BivariatePotential,
    spec: ExitSpec,
    cfg: MCConfig,
    meanwhile: Optional[Callable[[], None]] = None,
    levels: int = 0,
) -> OccupationMCResult:
    """Cross-check the occupation formula by simulation.

    ``F`` must read the position alone (``reads_sup`` false); write ``f(x) =
    F(x, x)``.  Per path computes (A) the trapezoidal time integral of
    ``f(X_t)`` and (B) the integral of ``f`` against the box-kernel occupation
    density with bandwidth ``2 sqrt(dt)``.  (A) evaluates ``F`` itself, so it
    is the functional :func:`run_exit_mc` accumulates for ``F``, the one
    :func:`generalized.local_time_laplace` solves for.  (B) integrates ``f``
    exactly against each box through a fine cumulative table, so the A-B
    discrepancy carries only the smoothing error and shrinks like the
    bandwidth.  ``e^{-(A)}`` and ``e^{-(B)}`` telescope over
    ``levels`` as in :func:`run_exit_mc`, (B) with the bandwidth of ``dt`` at
    every level; ``mean_abs_discrepancy``, the mean ``|A - B|``, is read from
    the dt paths: the plain run, or the level-1 pairs' fine paths.
    ``meanwhile`` is as there.  Raises as :func:`run_exit_mc`, and
    ``ValueError`` if ``F`` reads the supremum or the bandwidth is
    unresolvable by the fine table.
    """
    if F.reads_sup:
        raise ValueError(f"occupation_mc: potential '{F.name}' reads the supremum; "
                         "the occupation formula weights the position alone")
    cfg.warn_if_coarse(spec)
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
    fvals[inside] = F.eval_pairs(fine[inside], fine[inside])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fvals[1:] + fvals[:-1]) * np.diff(fine))])
    table = _uniform_interp(fine, cum)  # f is 0 on the 2w margins: flat end cells

    def smoothed_rate(s, xs):
        return (table(xs + w) - table(xs - w)) / (2.0 * w)

    def values(st, kept):
        return {"time_integral_laplace": np.exp(-st.acc[0, kept]),
                "occupation_laplace": np.exp(-st.acc[1, kept])}

    states, diagnostics = _collect_states(model, spec, cfg, [F.eval_pairs, smoothed_rate], False,
                                          meanwhile, levels)
    estimates, _ = _telescope(states, cfg.dt, diagnostics, values)
    dt_paths = states[min(levels, 1)]
    acc = dt_paths.acc[:, ~dt_paths.censored]
    return OccupationMCResult(**estimates, diagnostics=diagnostics,
                              mean_abs_discrepancy=float(np.mean(np.abs(acc[0] - acc[1]))))
